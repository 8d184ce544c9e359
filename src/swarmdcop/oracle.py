"""Independent references for the distributed solver.

`centralized_gcpso` runs the identical swarm arithmetic on full assignments
with no message passing. The two sides differ only in the association order
of the fitness sums (constraint-list order here, tree order in the runtime),
so their particle trajectories are bit-identical until a strict '<' in
`root_update` meets two fitness values that differ only by that rounding;
from then on the swarms may part. Criterion c3 checks agreement within 1e-9
relative over 100 iterations. Longer runs can leave it: ER n=20 (generator
seed 1, p=0.2), K=200, solver seed (107 << 16) | 1 leaves 1e-9 at iteration
401 of 500. `grid_search` exhaustively enumerates a rectangular grid and is
the ground-truth oracle for tiny instances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# evaluate_edge stays bound here: solvebench's tracing test restores it in every module
from .model import Problem, evaluate_edge, global_cost  # noqa: F401
from .rng import AgentStreams
from .runtime import AnytimeTrace, TraceRow
from .swarm import RootState, SwarmParams, apply_best, check_force_init, fresh_state, root_update


def centralized_gcpso(problem: Problem, params: SwarmParams, iterations: int,
                      force_init: dict[str, list[float]] | None = None) -> AnytimeTrace:
    """Reference swarm over complete assignments; per-iteration gbest trace.

    Each particle's fitness is `global_cost` of its assignment.
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    forced = check_force_init(force_init, problem.domains, params.K)
    streams = {a: AgentStreams(params.seed, problem.ordinals[a]) for a in problem.ids}
    states = {
        a: fresh_state(params.K, problem.domains[a], streams[a], forced[a])
        for a in problem.ids
    }
    root = RootState(np.full(params.K, np.inf))

    trace = AnytimeTrace()
    for t in range(iterations):
        cost = global_cost(problem, {a: state.position for a, state in states.items()})
        best = root_update(root, np.broadcast_to(cost, (params.K,)), params, t)
        for a in problem.ids:
            r1, r2 = streams[a].update_uniforms(t, params.K)
            apply_best(states[a], best, params, problem.domains[a], r1, r2)
        trace.rows.append(TraceRow(t + 1, 0, root.gbest_fitness, 0, 0))
    return trace


@dataclass(frozen=True)
class GridSpec:
    points_per_dim: int
    cap: int = 10**7  # refuse grids larger than this many points

    def __post_init__(self):
        if self.points_per_dim < 2:
            raise ValueError("points_per_dim must be >= 2")
        if self.cap < 1:
            raise ValueError("cap must be >= 1")


def grid_search(problem: Problem, grid: GridSpec) -> tuple[dict[str, float], float]:
    """Exhaustive minimum over the evenly spaced grid (endpoints included).

    Ties go to the first grid point in lexicographic order over agents in
    ordinal order, each axis ascending.
    """
    n = problem.n_agents
    total = grid.points_per_dim**n
    if total > grid.cap:
        raise ValueError(f"grid of {total} points exceeds cap {grid.cap}")
    axes = [
        np.linspace(problem.domains[a].lower, problem.domains[a].upper, grid.points_per_dim)
        for a in problem.ids
    ]
    shape = (grid.points_per_dim,) * n

    def along(ordinal: int) -> np.ndarray:
        view = [1] * n
        view[ordinal] = -1
        return axes[ordinal].reshape(view)

    cost = np.broadcast_to(
        global_cost(problem, {a: along(k) for k, a in enumerate(problem.ids)}), shape
    )
    flat_idx = int(np.argmin(cost))  # first minimum in C order == lexicographic
    indices = np.unravel_index(flat_idx, shape)
    assignment = {a: float(axes[k][indices[k]]) for k, a in enumerate(problem.ids)}
    return assignment, float(cost.flat[flat_idx])
