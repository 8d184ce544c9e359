"""Problem model: agents with continuous box domains, binary quadratic costs.

An instance is a connected constraint graph. Each agent owns one continuous
variable; each edge carries a quadratic cost a*xi^2 + b*xi*xj + c*xj^2 bound
positionally to the constraint's ordered scope. The global objective is the
sum of edge costs; `global_cost` accumulates it in constraint-list order.
The solvers sum fitness in the pseudo-tree's order instead (see
`pseudotree`), so their traces do not depend on the constraint order.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Iterable, Mapping, Sequence

import numpy as np


class ProblemFormatError(ValueError):
    """Malformed or inconsistent problem document; message carries the field path."""


@dataclass(frozen=True)
class ContinuousDomain:
    lower: float
    upper: float

    def __post_init__(self):
        if not (math.isfinite(self.lower) and math.isfinite(self.upper)):
            raise ProblemFormatError("domain bounds must be finite")
        if not self.lower < self.upper:
            raise ProblemFormatError(
                f"domain lower bound {self.lower} must be < upper bound {self.upper}"
            )

    @property
    def width(self) -> float:
        return self.upper - self.lower


@dataclass(frozen=True)
class QuadraticCost:
    """cost(xi, xj) = a*xi^2 + b*xi*xj + c*xj^2"""

    a: float
    b: float
    c: float

    def __post_init__(self):
        for name in ("a", "b", "c"):
            if not math.isfinite(getattr(self, name)):
                raise ProblemFormatError(f"coefficient {name} must be finite")


@dataclass(frozen=True)
class Constraint:
    """Binary constraint; scope order (i, j) fixes which variable binds to xi."""

    i: str
    j: str
    cost: QuadraticCost

    def __post_init__(self):
        if self.i == self.j:
            raise ProblemFormatError(f"constraint scope ({self.i}, {self.j}) is a self-loop")

    @property
    def scope(self) -> tuple[str, str]:
        return (self.i, self.j)


def evaluate_edge(cost: QuadraticCost, xi, xj):
    """Evaluate one edge cost. The coefficients, `xi` and `xj` may be scalars
    or numpy arrays of any shapes that broadcast together (`cost_columns`
    and (E, K) operands; `global_cost` on grid axes); the result has their
    broadcast shape, and no operand is written.

    Every element is (a*xi*xi + b*xi*xj) + c*xj*xj, each product and sum
    rounded in that order, so scalar and vectorized evaluation round
    identically. The cross term is the fresh output, since only it has the
    broadcast shape; the squares are added into it in place.
    """
    out = cost.b * xi * xj
    term = cost.a * xi
    term *= xi
    out += term  # a*xi*xi + b*xi*xj: a sum rounds the same in either order
    term = cost.c * xj
    term *= xj
    out += term
    return out


def cost_columns(costs: Sequence[QuadraticCost]) -> SimpleNamespace:
    """E edge costs as one cost with (E, 1) coefficient columns: `evaluate_edge`
    on it and (E, K) operands costs edge e in row e, each element rounded as
    the per-edge call rounds it."""
    return SimpleNamespace(a=np.array([c.a for c in costs])[:, None],
                           b=np.array([c.b for c in costs])[:, None],
                           c=np.array([c.c for c in costs])[:, None])


def is_connected(nodes: Iterable, edges: Iterable[tuple]) -> bool:
    """True iff the undirected graph on one or more `nodes` is connected."""
    adjacency: dict = {v: [] for v in nodes}
    for u, v in edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    start = next(iter(adjacency))
    seen = {start}
    frontier = [start]
    while frontier:
        for nbr in adjacency[frontier.pop()]:
            if nbr not in seen:
                seen.add(nbr)
                frontier.append(nbr)
    return len(seen) == len(adjacency)


@dataclass
class Problem:
    """An instance: agents (id -> box domain) plus binary constraints.

    Agents are stored in alphabetical id order; ordinals index into that
    order. Immutable by convention after construction.
    """

    domains: dict[str, ContinuousDomain]
    constraints: list[Constraint]
    ids: list[str] = field(init=False)
    ordinals: dict[str, int] = field(init=False)
    _by_pair: dict[frozenset[str], Constraint] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.domains:
            raise ProblemFormatError("problem needs at least one agent")
        self.ids = sorted(self.domains)
        self.domains = {a: self.domains[a] for a in self.ids}
        self.ordinals = {a: k for k, a in enumerate(self.ids)}
        self._by_pair = {}
        for idx, con in enumerate(self.constraints):
            for end in (con.i, con.j):
                if end not in self.domains:
                    raise ProblemFormatError(
                        f"constraints[{idx}].scope: unknown agent {end!r}"
                    )
            pair = frozenset((con.i, con.j))
            if pair in self._by_pair:
                raise ProblemFormatError(
                    f"constraints[{idx}]: duplicate constraint between {con.i!r} and {con.j!r}"
                )
            self._by_pair[pair] = con
        if not is_connected(self.ids, (con.scope for con in self.constraints)):
            raise ProblemFormatError("constraint graph is not connected")

    def neighbors(self) -> dict[str, list[str]]:
        """Adjacency lists in alphabetical order."""
        adjacency: dict[str, list[str]] = {a: [] for a in self.ids}
        for con in self.constraints:
            adjacency[con.i].append(con.j)
            adjacency[con.j].append(con.i)
        return {a: sorted(nbrs) for a, nbrs in adjacency.items()}

    def constraint_between(self, u: str, v: str) -> Constraint:
        try:
            return self._by_pair[frozenset((u, v))]
        except KeyError:
            raise KeyError(f"no constraint between {u!r} and {v!r}") from None

    @property
    def n_agents(self) -> int:
        return len(self.ids)


def global_cost(problem: Problem, assignment: Mapping[str, float]) -> float:
    """Sum of edge costs under a complete assignment, in constraint-list order.
    Values may be scalars or broadcastable arrays; no constraints cost 0.0."""
    for agent in problem.ids:
        if agent not in assignment:
            raise ValueError(f"assignment is missing agent {agent!r}")
    total = 0.0
    for con in problem.constraints:
        total = total + evaluate_edge(con.cost, assignment[con.i], assignment[con.j])
    return total


def _require(condition: bool, path: str, message: str):
    if not condition:
        raise ProblemFormatError(f"{path}: {message}")


def _finite_number(value, path: str) -> float:
    _require(isinstance(value, (int, float)) and not isinstance(value, bool), path, "expected a number")
    value = float(value)
    _require(math.isfinite(value), path, "number must be finite")
    return value


def _reject_constant(name):
    raise ProblemFormatError(f"non-finite literal {name!r} is not allowed")


def parse_problem(text: str) -> Problem:
    """Parse the UTF-8 JSON problem document. Errors carry field paths."""
    try:
        doc = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise ProblemFormatError(f"malformed JSON: {exc}") from exc
    _require(isinstance(doc, dict), "$", "expected a JSON object")
    _require("agents" in doc, "$", "missing key 'agents'")
    _require("constraints" in doc, "$", "missing key 'constraints'")
    _require(isinstance(doc["agents"], list), "agents", "expected a list")
    _require(isinstance(doc["constraints"], list), "constraints", "expected a list")

    domains: dict[str, ContinuousDomain] = {}
    for idx, entry in enumerate(doc["agents"]):
        path = f"agents[{idx}]"
        _require(isinstance(entry, dict), path, "expected an object")
        agent = entry.get("id")
        _require(isinstance(agent, str) and agent, f"{path}.id", "expected a non-empty string")
        _require(agent not in domains, f"{path}.id", f"duplicate agent id {agent!r}")
        dom = entry.get("domain")
        _require(isinstance(dom, list) and len(dom) == 2, f"{path}.domain", "expected [lower, upper]")
        lower = _finite_number(dom[0], f"{path}.domain[0]")
        upper = _finite_number(dom[1], f"{path}.domain[1]")
        _require(lower < upper, f"{path}.domain", "lower bound must be < upper bound")
        domains[agent] = ContinuousDomain(lower, upper)

    constraints: list[Constraint] = []
    for idx, entry in enumerate(doc["constraints"]):
        path = f"constraints[{idx}]"
        _require(isinstance(entry, dict), path, "expected an object")
        scope = entry.get("scope")
        _require(isinstance(scope, list) and len(scope) == 2, f"{path}.scope", "expected [i, j]")
        i, j = scope
        for pos, end in enumerate(scope):
            _require(isinstance(end, str), f"{path}.scope[{pos}]", "expected an agent id")
            _require(end in domains, f"{path}.scope[{pos}]", f"unknown agent {end!r}")
        _require(i != j, f"{path}.scope", "scope endpoints must differ")
        coeffs = {}
        for name in ("a", "b", "c"):
            _require(name in entry, f"{path}.{name}", "missing coefficient")
            coeffs[name] = _finite_number(entry[name], f"{path}.{name}")
        constraints.append(Constraint(i, j, QuadraticCost(**coeffs)))

    return Problem(domains=domains, constraints=constraints)


def serialize_problem(problem: Problem) -> str:
    """Render the JSON document; floats keep full round-trip precision."""
    doc = {
        "agents": [
            {"id": a, "domain": [problem.domains[a].lower, problem.domains[a].upper]}
            for a in problem.ids
        ],
        "constraints": [
            {"scope": [c.i, c.j], "a": c.cost.a, "b": c.cost.b, "c": c.cost.c}
            for c in problem.constraints
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def load_problem(path) -> Problem:
    with open(path, encoding="utf-8") as fh:
        return parse_problem(fh.read())


def save_problem(problem: Problem, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_problem(problem))
