"""Per-layer spans recorded from outside the program.

`Tracer.installed()` replaces the public functions and methods listed in
`SPANS` with timing wrappers, everywhere the package binds them, and puts the
originals back on exit. A wrapper records one span per call; a span's self
time is its duration minus the durations of the spans nested directly inside
it. Spans accumulate under the tracer's current `scope`, so the same function
can be charged to the distributed solve or to the centralized reference.

A target that no longer exists (renamed or removed) is skipped; the metrics
built from it are reported as absent and everything else carries on.
"""

from __future__ import annotations

import functools
import importlib
import sys
from contextlib import contextmanager
from time import perf_counter


def _size(result):
    return getattr(result, "size", None)


def _delivered(result):
    return getattr(result, "delivered", None)


# span name -> (module, attribute path, extractor of an item count from the result)
SPANS = {
    "generator.generate": ("swarmdcop.generator", "generate", None),
    "model.parse_problem": ("swarmdcop.model", "parse_problem", None),
    "model.constraint_between": ("swarmdcop.model", "Problem.constraint_between", None),
    "model.evaluate_edge": ("swarmdcop.model", "evaluate_edge", None),
    "pseudotree.build": ("swarmdcop.pseudotree", "build_bfs_pseudotree", None),
    "rng.keyed_uniforms": ("swarmdcop.rng", "keyed_uniforms", _size),
    "swarm.apply_best": ("swarmdcop.swarm", "apply_best", None),
    "swarm.root_update": ("swarmdcop.swarm", "root_update", None),
    "swarm.fresh_state": ("swarmdcop.swarm", "fresh_state", None),
    "runtime.setup": ("swarmdcop.runtime", "Simulator.__init__", None),
    "runtime.step": ("swarmdcop.runtime", "Simulator.step", _delivered),
    "runtime.fire": ("swarmdcop.runtime", "AgentMachine.fire", None),
    "oracle.centralized_gcpso": ("swarmdcop.oracle", "centralized_gcpso", None),
}

# metric -> (scope, span, field); fields: calls, self_s, items (sum), peak (max item)
LAYER_METRICS = {
    "rng.keyed_uniforms_calls": ("distributed", "rng.keyed_uniforms", "calls"),
    "rng.uniforms_drawn": ("distributed", "rng.keyed_uniforms", "items"),
    "rng.keyed_uniforms_s": ("distributed", "rng.keyed_uniforms", "self_s"),
    "model.evaluate_edge_calls": ("distributed", "model.evaluate_edge", "calls"),
    "model.evaluate_edge_s": ("distributed", "model.evaluate_edge", "self_s"),
    "swarm.apply_best_calls": ("distributed", "swarm.apply_best", "calls"),
    "swarm.apply_best_s": ("distributed", "swarm.apply_best", "self_s"),
    "swarm.root_update_s": ("distributed", "swarm.root_update", "self_s"),
    "swarm.fresh_state_s": ("distributed", "swarm.fresh_state", "self_s"),
    "oracle.self_s": ("oracle", "oracle.centralized_gcpso", "self_s"),
    "oracle.evaluate_edge_s": ("oracle", "model.evaluate_edge", "self_s"),
    "oracle.apply_best_s": ("oracle", "swarm.apply_best", "self_s"),
    "oracle.keyed_uniforms_s": ("oracle", "rng.keyed_uniforms", "self_s"),
    "runtime.fire_calls": ("distributed", "runtime.fire", "calls"),
    "runtime.fire_self_s": ("distributed", "runtime.fire", "self_s"),
    "runtime.route_self_s": ("distributed", "runtime.step", "self_s"),
    "runtime.envelopes_delivered": ("distributed", "runtime.step", "items"),
    "runtime.peak_delivered_per_round": ("distributed", "runtime.step", "peak"),
    "model.parse_s": ("distributed", "model.parse_problem", "self_s"),
    "model.constraint_between_calls": ("distributed", "model.constraint_between", "calls"),
    "model.constraint_between_s": ("distributed", "model.constraint_between", "self_s"),
    "pseudotree.build_s": ("distributed", "pseudotree.build", "self_s"),
    "runtime.setup_self_s": ("distributed", "runtime.setup", "self_s"),
    "generator.generate_s": ("generate", "generator.generate", "self_s"),
}

def metric_unit(metric: str) -> str:
    return "s" if metric.endswith("_s") else "count"


class _Span:
    __slots__ = ("calls", "self_s", "items", "peak")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.items = None
        self.peak = None


def _resolve(module_name: str, path: str):
    """(owner, attribute, original) for a dotted attribute path, or None."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    original = vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    if not callable(original):
        return None
    return owner, attr, original


class Tracer:
    def __init__(self):
        self.scope = "distributed"
        self.spans: dict[tuple[str, str], _Span] = {}
        self.absent: set[str] = set()
        self._children: list[float] = []  # child time of each open span

    def reset(self):
        self.spans = {}

    def _wrap(self, name: str, fn, extract):
        tracer = self
        children = self._children

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            children.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                child = children.pop()
                if children:
                    children[-1] += elapsed
                key = (tracer.scope, name)
                span = tracer.spans.get(key)
                if span is None:
                    span = tracer.spans[key] = _Span()
                span.calls += 1
                span.self_s += elapsed - child
            if extract is not None:
                items = extract(result)
                if items is not None:
                    span.items = (span.items or 0) + items
                    span.peak = items if span.peak is None else max(span.peak, items)
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Install every wrapper whose target exists; restore all on exit."""
        patched: list[tuple[object, str, object]] = []
        try:
            for name, (module_name, path, extract) in SPANS.items():
                target = _resolve(module_name, path)
                if target is None:
                    self.absent.add(name)
                    continue
                owner, attr, original = target
                wrapper = self._wrap(name, original, extract)
                if isinstance(owner, type):
                    bindings = [(owner, attr)]
                else:
                    # the function is also bound by name in every module that imports it
                    bindings = [
                        (mod, key)
                        for mod_name, mod in list(sys.modules.items())
                        if mod_name == "swarmdcop" or mod_name.startswith("swarmdcop.")
                        for key, value in list(vars(mod).items())
                        if value is original
                    ]
                for where, key in bindings:
                    patched.append((where, key, original))
                    setattr(where, key, wrapper)
            yield self
        finally:
            for where, key, original in reversed(patched):
                setattr(where, key, original)

    def metrics(self) -> dict[str, float]:
        """Layer metrics of everything recorded since the last reset.

        A metric whose span was never installed, or whose item count the
        result no longer carries, is left out.
        """
        out = {}
        for metric, (scope, name, field) in LAYER_METRICS.items():
            if name in self.absent:
                continue
            span = self.spans.get((scope, name)) or _Span()
            value = getattr(span, field)
            if value is None:
                if span.calls:
                    continue
                value = 0
            out[metric] = value
        return out
