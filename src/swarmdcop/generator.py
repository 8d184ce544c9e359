"""Seeded random instance generators.

Three graph families over agents "x1".."xn": Erdos-Renyi (resampled until
connected), preferential-attachment scale-free (m-clique core, each new node
attaches m edges), and uniform random trees via Prufer sequences. Edge
coefficients are drawn uniformly from a range, one (a, b, c) triple per edge
in canonical edge order, after the topology is fixed.

All draws come from one SplitMix64 stream seeded by the spec, consumed in the
documented order, so a (spec, seed) pair always yields the same instance.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from numbers import Real
from typing import Literal

from .model import Constraint, ContinuousDomain, Problem, QuadraticCost, is_connected
from .rng import SplitMix64
from .swarm import integer_field

Topology = Literal["erdos_renyi", "scale_free", "random_tree"]

_MAX_RESAMPLES = 10_000


@dataclass(frozen=True)
class GenSpec:
    topology: Topology
    n: int
    seed: int
    coeff_range: tuple[float, float] = (-5.0, 5.0)
    domain: ContinuousDomain = ContinuousDomain(-50.0, 50.0)
    p: float = 0.2   # erdos_renyi edge probability
    m: int = 2       # scale_free attachment count

    def __post_init__(self):
        for name in ("n", "m", "seed"):
            # numpy integers become Python ints; a bool or a float is refused
            object.__setattr__(self, name, integer_field(name, getattr(self, name)))
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if isinstance(self.p, bool) or not isinstance(self.p, Real):
            raise ValueError(f"p must be a real number, got {self.p!r}")
        if self.topology == "erdos_renyi" and not (0 < self.p <= 1):
            raise ValueError("edge probability p must be in (0, 1]")
        if self.topology == "scale_free" and not (1 <= self.m < self.n):
            raise ValueError(f"scale_free needs 1 <= m < n, got m={self.m}, n={self.n}")
        try:
            lower, upper = self.coeff_range
            finite = math.isfinite(lower) and math.isfinite(upper)
        except (TypeError, ValueError):
            raise ValueError(
                f"coeff_range must be a pair of real numbers, got {self.coeff_range!r}") from None
        if not finite:
            raise ValueError(f"coeff_range must be finite, got {self.coeff_range}")
        if lower > upper:
            raise ValueError("coeff_range lower bound exceeds upper bound")
        if not isinstance(self.domain, ContinuousDomain):  # the type checks its bounds
            raise ValueError(f"domain must be a ContinuousDomain, got {self.domain!r}")
        if self.topology not in ("erdos_renyi", "scale_free", "random_tree"):
            raise ValueError(f"unknown topology {self.topology!r}")


def _erdos_renyi_edges(n: int, p: float, stream: SplitMix64) -> list[tuple[int, int]]:
    # one uniform per ordered pair (u < v); whole graph resampled until connected
    for _ in range(_MAX_RESAMPLES):
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if stream.random() < p
        ]
        if is_connected(range(n), edges):
            return edges
    raise RuntimeError(
        f"no connected graph after {_MAX_RESAMPLES} resamples (n={n}, p={p})"
    )


def _scale_free_edges(n: int, m: int, stream: SplitMix64) -> list[tuple[int, int]]:
    # clique on nodes 0..m-1, then each new node attaches to m distinct
    # existing nodes drawn degree-proportionally (with-repetition list)
    edges = [(u, v) for u in range(m) for v in range(u + 1, m)]
    repeated = [v for e in edges for v in e] or list(range(m))
    for new in range(m, n):
        targets: set[int] = set()
        while len(targets) < m:
            targets.add(repeated[stream.below(len(repeated))])
        for tgt in sorted(targets):
            edges.append((tgt, new))
            repeated.extend((tgt, new))
    return edges


def _prufer_tree_edges(n: int, stream: SplitMix64) -> list[tuple[int, int]]:
    if n == 1:
        return []
    if n == 2:
        return [(0, 1)]
    prufer = [stream.below(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in prufer:
        degree[v] += 1
    edges = []
    # classic decode: repeatedly join the smallest leaf to the next code entry
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    for v in prufer:
        leaf = heapq.heappop(leaves)
        edges.append((min(leaf, v), max(leaf, v)))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    u, v = heapq.heappop(leaves), heapq.heappop(leaves)
    edges.append((min(u, v), max(u, v)))
    return edges


def generate(spec: GenSpec) -> Problem:
    """Build one connected instance from a GenSpec, deterministically."""
    stream = SplitMix64(spec.seed)
    if spec.topology == "erdos_renyi":
        edges = _erdos_renyi_edges(spec.n, spec.p, stream)
    elif spec.topology == "scale_free":
        edges = _scale_free_edges(spec.n, spec.m, stream)
    else:
        edges = _prufer_tree_edges(spec.n, stream)

    names = [f"x{k + 1}" for k in range(spec.n)]
    lo, hi = spec.coeff_range
    constraints = []
    for u, v in sorted(edges):
        coeffs = QuadraticCost(
            a=stream.uniform(lo, hi),
            b=stream.uniform(lo, hi),
            c=stream.uniform(lo, hi),
        )
        constraints.append(Constraint(names[u], names[v], coeffs))
    return Problem(
        domains={name: spec.domain for name in names},
        constraints=constraints,
    )
