#!/usr/bin/env python3
"""Solve benchmark for swarmdcop.

    python3 solvebench/run.py --workload er20-k200 --seed 1 --seconds 40 --trace 0

Generates the workload's instances with `swarmdcop.generator`, serializes
each one, and hands the program only the problem JSON text and a solver seed
derived from --seed. One
operation is one instance: set it up, solve it distributed, solve it with the
centralized reference, then check the outputs outside every timed region
(see checks.py). A run repeats whole passes over the same instances until
--seconds is spent. The last stdout line is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with --trace 0,
the per-layer metrics (spans.py) with --trace 1.

The package is imported from `src/` next to this directory; nothing needs
building. Exit code 1 means an operation failed, 2 that the program is missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import checks

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".solvebench_out"

sys.path.insert(0, str(SRC))
try:
    from swarmdcop import generator, model, oracle, runtime
    from swarmdcop.swarm import SwarmParams
except ImportError as exc:
    print(f"solvebench: cannot import swarmdcop from {SRC}: {exc}", file=sys.stderr)
    sys.exit(2)
if not Path(model.__file__).resolve().is_relative_to(SRC):
    print(f"solvebench: swarmdcop imported from {model.__file__}, not from {SRC}", file=sys.stderr)
    sys.exit(2)


@dataclass(frozen=True)
class Workload:
    topology: str
    n: int
    K: int
    iterations: int
    instances: int      # a pass solves instances 0 .. instances-1 once each
    setup_repeats: int  # set-ups per instance and pass; the last one is solved
    p: float = 0.2      # erdos_renyi edge probability
    m: int = 2          # scale_free attachment count


WORKLOADS = {
    "er20-k2000": Workload("erdos_renyi", 20, 2000, 500, instances=2, setup_repeats=5),
    "er20-k200": Workload("erdos_renyi", 20, 200, 500, instances=3, setup_repeats=5),
    "sf1600-k50": Workload("scale_free", 1600, 50, 20, instances=1, setup_repeats=2),
}

E2E_UNITS = {
    "setup_s": "s",
    "solve_s": "s",
    "centralized_s": "s",
    "rounds": "count",
    "envelopes": "count",
    "scalars": "count",
    "peak_rss_mb": "MB",
}


def solver_seed(seed: int, k: int) -> int:
    """Solver seed of instance k in a run seeded with `seed`."""
    return ((seed & 0xFFFFFFFFFFFF) << 16) | k


def gen_spec(wl: Workload, k: int):
    """Instance k is generated from seed k whatever the run's seed, so every
    run solves the same graphs and the network counts repeat exactly."""
    return generator.GenSpec(wl.topology, wl.n, k, p=wl.p, m=wl.m)


@dataclass
class Instance:
    k: int
    seed: int  # solver seed
    text: str  # the problem JSON


def make_instances(wl: Workload, seed: int) -> list[Instance]:
    return [
        Instance(k, solver_seed(seed, k), model.serialize_problem(generator.generate(gen_spec(wl, k))))
        for k in range(wl.instances)
    ]


def set_up(wl: Workload, inst: Instance):
    problem = model.parse_problem(inst.text)
    sim = runtime.Simulator(problem, SwarmParams(K=wl.K, seed=inst.seed), wl.iterations)
    return problem, sim


def timed(fn, *args):
    gc.collect()
    start = perf_counter()
    result = fn(*args)
    return result, perf_counter() - start


def centralized(wl: Workload, inst: Instance, problem):
    return oracle.centralized_gcpso(problem, SwarmParams(K=wl.K, seed=inst.seed), wl.iterations)


def check_outputs(wl: Workload, problem, sim, trace, reference) -> int | None:
    """Checks 1-5 on one solved instance; returns the first iteration at
    which the gbest leaves 1e-9 of the reference, or None.

    Check 2 is enforced on iteration 1 only. Later, a strict '<' between two
    fitness values that differ only in summation rounding can send the two
    runs' swarms apart on some instances, so agreement is reported, not
    enforced.
    """
    series = trace.gbest_series()
    ref_series = reference.gbest_series()
    checks.check_gbest_trace(series, wl.iterations)
    checks.check_matches_reference(series[:1], ref_series[:1])
    # no public API returns the best assignment: read it from the agents' states
    g = sim.root.gbest_index
    assignment = {m.id: float(m.state.pbest_component[g]) for m in sim.machines}
    checks.check_assignment(model.global_cost(problem, assignment), trace.final_gbest)
    tree = sim.tree
    aggregators = sum(1 for a in problem.ids if a != tree.root and tree.L[a])
    checks.check_envelope_count(sim.cum_envelopes, wl.iterations,
                                len(problem.constraints), aggregators)
    checks.check_scalar_volume(sim.cum_scalars, sim.cum_envelopes, wl.K)
    return checks.first_divergence(series, ref_series)


def report_divergence(divergence: dict[int, int | None]):
    left = sorted(t for t in divergence.values() if t is not None)
    if left:
        print(f"solvebench: gbest left 1e-9 of centralized_gcpso on {len(left)} of "
              f"{len(divergence)} instances, first at iterations {left}", file=sys.stderr)


class EndToEnd:
    """One untraced operation: timed set-up, solve and reference, then checks."""

    def __init__(self, wl: Workload):
        self.wl = wl
        self.samples = {"setup_s": [], "solve_s": [], "centralized_s": []}
        self.counts = {}  # instance -> (rounds, envelopes, scalars)
        self.divergence = {}  # instance -> first iteration off the reference

    def __call__(self, inst: Instance):
        setups = []
        for _ in range(self.wl.setup_repeats):
            (problem, sim), setup_s = timed(set_up, self.wl, inst)
            setups.append(setup_s)
        trace, solve_s = timed(sim.run_to_quiescence)
        reference, centralized_s = timed(centralized, self.wl, inst, problem)
        self.divergence[inst.k] = check_outputs(self.wl, problem, sim, trace, reference)
        self.samples["setup_s"].extend(setups)
        self.samples["solve_s"].append(solve_s)
        self.samples["centralized_s"].append(centralized_s)
        self.counts[inst.k] = (sim.round, sim.cum_envelopes, sim.cum_scalars)

    def metrics(self) -> dict[str, float]:
        out = {name: statistics.median(v) for name, v in self.samples.items() if v}
        if self.counts:
            rounds, envelopes, scalars = (sum(c) for c in zip(*self.counts.values()))
            out.update(rounds=rounds, envelopes=envelopes, scalars=scalars)
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return out


class Traced:
    """One traced operation: an untraced set-up and solve, then the instance
    generated, set up, solved and solved by the reference again with every
    span wrapper installed; checks 1-6 on the traced outputs."""

    def __init__(self, wl: Workload):
        from spans import Tracer

        self.wl = wl
        self.tracer = Tracer()
        self.samples: dict[str, list[float]] = {}
        self.overhead_s: list[float] = []
        self.divergence = {}

    def __call__(self, inst: Instance):
        _, sim = set_up(self.wl, inst)
        untraced, untraced_s = timed(sim.run_to_quiescence)
        tracer = self.tracer
        tracer.reset()
        with tracer.installed():
            tracer.scope = "generate"
            generator.generate(gen_spec(self.wl, inst.k))
            tracer.scope = "distributed"
            problem, sim = set_up(self.wl, inst)
            trace, traced_s = timed(sim.run_to_quiescence)
            tracer.scope = "oracle"
            reference = centralized(self.wl, inst, problem)
        self.divergence[inst.k] = check_outputs(self.wl, problem, sim, trace, reference)
        checks.check_identical_csv(trace.to_csv(), untraced.to_csv())
        self.overhead_s.append(traced_s - untraced_s)
        for name, value in tracer.metrics().items():
            self.samples.setdefault(name, []).append(value)

    def metrics(self) -> dict[str, float]:
        return {name: statistics.median(v) for name, v in self.samples.items()}

    def report(self, path: Path):
        """Write every operation's layer metrics; note absent spans and overhead."""
        OUT_DIR.mkdir(exist_ok=True)
        path.write_text(json.dumps({
            "absent_spans": sorted(self.tracer.absent),
            "tracing_overhead_s": self.overhead_s,
            "per_operation": self.samples,
        }, indent=1) + "\n", encoding="utf-8")
        if self.tracer.absent:
            print("solvebench: absent spans: " + ", ".join(sorted(self.tracer.absent)),
                  file=sys.stderr)
        if self.overhead_s:
            print("solvebench: tracing overhead, traced minus untraced solve_s, median "
                  f"{statistics.median(self.overhead_s):.4f} s", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    wl = WORKLOADS[args.workload]
    instances = make_instances(wl, args.seed)
    operation = Traced(wl) if args.trace else EndToEnd(wl)

    attempted = failed = 0
    start = perf_counter()
    while True:
        pass_start = perf_counter()
        for inst in instances:
            attempted += 1
            try:
                operation(inst)
            except Exception:  # one failed instance must not hide the others
                failed += 1
                OUT_DIR.mkdir(exist_ok=True)
                path = OUT_DIR / f"{args.workload}-{inst.k}.problem.json"
                path.write_text(inst.text, encoding="utf-8")
                print(f"solvebench: instance {inst.k} (solver seed {inst.seed}) failed, "
                      f"problem in {path}", file=sys.stderr)
                traceback.print_exc()
        now = perf_counter()
        if now - start + (now - pass_start) > args.seconds:
            break

    metrics = operation.metrics()
    report_divergence(operation.divergence)
    if args.trace:
        from spans import metric_unit

        operation.report(OUT_DIR / f"{args.workload}-{args.seed}.spans.json")
        units = {name: metric_unit(name) for name in metrics}
    else:
        units = E2E_UNITS
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units if name in metrics},
    }
    print(json.dumps(result))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
