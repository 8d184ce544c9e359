"""Problem model: agents with continuous box domains, binary quadratic costs.

An instance is a connected constraint graph. Each agent owns one continuous
variable; each edge carries a quadratic cost a*xi^2 + b*xi*xj + c*xj^2 bound
positionally to the constraint's ordered scope. The global objective is the
sum of edge costs; `global_cost` accumulates it in constraint-list order.
The solvers sum fitness in the pseudo-tree's order instead (see
`pseudotree`), so their traces do not depend on the constraint order.

The value types `ContinuousDomain`, `QuadraticCost` and `Constraint` are
slotted dataclasses, immutable by convention like `Problem`: each checks
its value facts in `__post_init__`, compares and hashes by value, and costs
less than half of a frozen dataclass to build, which `parse_problem` does
once per agent and twice per constraint.
"""

from __future__ import annotations

import json
from math import inf, isfinite
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Iterable, Mapping, Sequence

import numpy as np


class ProblemFormatError(ValueError):
    """Malformed or inconsistent problem; the message starts with its field path from the raiser."""


@dataclass(slots=True, unsafe_hash=True)
class ContinuousDomain:
    lower: float
    upper: float

    def __post_init__(self):
        if not (isfinite(self.lower) and isfinite(self.upper)):
            pos = 0 if not isfinite(self.lower) else 1
            raise ProblemFormatError(f"domain[{pos}]: number must be finite")
        if not self.lower < self.upper:
            raise ProblemFormatError("domain: lower bound must be < upper bound")
        # the swarm draws positions as lower + u * width
        if not isfinite(self.upper - self.lower):
            raise ProblemFormatError("domain: upper - lower must be finite")

    @property
    def width(self) -> float:
        return self.upper - self.lower


@dataclass(slots=True, unsafe_hash=True)
class QuadraticCost:
    """cost(xi, xj) = a*xi^2 + b*xi*xj + c*xj^2"""

    a: float
    b: float
    c: float

    def __post_init__(self):
        if not (isfinite(self.a) and isfinite(self.b) and isfinite(self.c)):
            name = next(name for name in "abc" if not isfinite(getattr(self, name)))
            raise ProblemFormatError(f"{name}: number must be finite")


@dataclass(slots=True, unsafe_hash=True)
class Constraint:
    """Binary constraint; scope order (i, j) fixes which variable binds to xi."""

    i: str
    j: str
    cost: QuadraticCost

    def __post_init__(self):
        if self.i == self.j:
            raise ProblemFormatError("scope: scope endpoints must differ")


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
    return _reaches_all(adjacency)


def _reaches_all(adjacency: Mapping) -> bool:
    """True iff a walk from the first node of the adjacency map {node:
    neighbors} reaches every node."""
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
    order. `adjacency` maps each agent to {neighbor: the constraint
    between them}. Immutable by convention after construction.
    """

    domains: dict[str, ContinuousDomain]
    constraints: list[Constraint]
    ids: list[str] = field(init=False)
    ordinals: dict[str, int] = field(init=False)
    adjacency: dict[str, dict[str, Constraint]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.domains:
            raise ProblemFormatError("problem needs at least one agent")
        self.ids = sorted(self.domains)
        self.domains = {a: self.domains[a] for a in self.ids}
        self.ordinals = {a: k for k, a in enumerate(self.ids)}
        self.adjacency = adjacency = {a: {} for a in self.ids}
        for idx, con in enumerate(self.constraints):
            i, j = con.i, con.j
            if i not in adjacency or j not in adjacency:
                pos, end = (0, i) if i not in adjacency else (1, j)
                raise ProblemFormatError(f"constraints[{idx}].scope[{pos}]: unknown agent {end!r}")
            if j in adjacency[i]:
                raise ProblemFormatError(
                    f"constraints[{idx}]: duplicate constraint between {i!r} and {j!r}")
            adjacency[i][j] = adjacency[j][i] = con
        if not _reaches_all(adjacency):
            raise ProblemFormatError("constraint graph is not connected")

    def constraint_between(self, u: str, v: str) -> Constraint:
        try:
            return self.adjacency[u][v]
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


def _number(value, path: str, *at) -> float:
    """`value` as a float if it is a JSON number, inf for an integer beyond the
    float range; else raise, naming the field `path % at`. A float needs no
    call: callers test for one first."""
    if type(value) is not float:
        if type(value) is not int:  # true and false load as bools, not numbers
            raise ProblemFormatError(f"{path % at}: expected a number")
        try:
            value = float(value)
        except OverflowError:
            value = inf
    return value


def _reject_constant(name):
    raise ProblemFormatError(f"non-finite literal {name!r} is not allowed")


def parse_problem(text: str) -> Problem:
    """Parse the UTF-8 JSON problem document. Errors carry field paths.

    This checks the JSON shape; the model types check the values, their errors
    gaining the entry's path, and `Problem` the graph. Entries run in document
    order, each its shape then its values, then the graph; the first failing
    check names the error, and only a failing check formats a message."""
    try:
        doc = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise ProblemFormatError(f"malformed JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ProblemFormatError("$: expected a JSON object")
    for key in ("agents", "constraints"):
        if key not in doc:
            raise ProblemFormatError(f"$: missing key {key!r}")
    for key in ("agents", "constraints"):
        if not isinstance(doc[key], list):
            raise ProblemFormatError(f"{key}: expected a list")

    domains: dict[str, ContinuousDomain] = {}
    for idx, entry in enumerate(doc["agents"]):
        if not isinstance(entry, dict):
            raise ProblemFormatError(f"agents[{idx}]: expected an object")
        agent = entry.get("id")
        if not (isinstance(agent, str) and agent):
            raise ProblemFormatError(f"agents[{idx}].id: expected a non-empty string")
        if agent in domains:
            raise ProblemFormatError(f"agents[{idx}].id: duplicate agent id {agent!r}")
        dom = entry.get("domain")
        if not (isinstance(dom, list) and len(dom) == 2):
            raise ProblemFormatError(f"agents[{idx}].domain: expected [lower, upper]")
        lower, upper = dom
        if not (type(lower) is float and type(upper) is float):
            lower = _number(lower, "agents[%d].domain[0]", idx)
            upper = _number(upper, "agents[%d].domain[1]", idx)
        try:
            domains[agent] = ContinuousDomain(lower, upper)
        except ProblemFormatError as exc:
            raise ProblemFormatError(f"agents[{idx}].{exc}") from exc

    constraints: list[Constraint] = []
    for idx, entry in enumerate(doc["constraints"]):
        if not isinstance(entry, dict):
            raise ProblemFormatError(f"constraints[{idx}]: expected an object")
        scope = entry.get("scope")
        if not (isinstance(scope, list) and len(scope) == 2):
            raise ProblemFormatError(f"constraints[{idx}].scope: expected [i, j]")
        i, j = scope
        if not (isinstance(i, str) and isinstance(j, str)):
            pos = 0 if not isinstance(i, str) else 1
            raise ProblemFormatError(f"constraints[{idx}].scope[{pos}]: expected an agent id")
        a, b, c = entry.get("a"), entry.get("b"), entry.get("c")
        if not (type(a) is float and type(b) is float and type(c) is float):
            coeffs = []
            for name in "abc":
                value = entry.get(name)
                if type(value) is not float:
                    if name not in entry:
                        raise ProblemFormatError(f"constraints[{idx}].{name}: missing coefficient")
                    value = _number(value, "constraints[%d].%s", idx, name)
                coeffs.append(value)
            a, b, c = coeffs
        try:
            constraints.append(Constraint(i, j, QuadraticCost(a, b, c)))
        except ProblemFormatError as exc:
            raise ProblemFormatError(f"constraints[{idx}].{exc}") from exc

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
