"""Independent references for the distributed solver.

`centralized_gcpso` runs the identical swarm arithmetic on full assignments
with no message passing, as one dense swarm stepped a block of rows at a
time. All positions sit in one agent-major (n, K) array. A block of agents
draws its uniforms from one key grid (`keyed_uniforms` over an array of
ordinals) and moves with one `apply_best` call on particle-major (K, rows)
arrays; a block of edges costs one `evaluate_edge` call on operands gathered
from the positions. Every operation is the per-agent one, elementwise in the
same order, so the results equal a per-agent loop bit for bit.

The oracle and the runtime differ only in the association order of the
fitness sums (constraint-list order here, tree order in the runtime), so
their particle trajectories are bit-identical until a strict '<' in
`root_update` meets two fitness values that differ only by that rounding;
from then on the swarms may part. Criterion c3 checks agreement within 1e-9
relative over 100 iterations. Longer runs can leave it: ER n=20 (generator
seed 1, p=0.2), K=200, solver seed (107 << 16) | 1 leaves 1e-9 at iteration
401 of 500. `grid_search` exhaustively enumerates a rectangular grid and is
the ground-truth oracle for tiny instances.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from types import SimpleNamespace

import numpy as np

from .model import Problem, evaluate_edge, global_cost
from .rng import DRAW_R1, DRAW_R2, AgentStreams, keyed_uniforms
from .runtime import AnytimeTrace, TraceRow
from .swarm import (AgentSwarmState, RootState, SwarmParams, apply_best, check_force_init,
                    fresh_state, root_update)

# Most elements in one working array of the dense swarm (a block of agents or
# edges by K particles, at least one row): the bound on its working set. On
# the solve benchmark (2 vCPUs, one pass per workload), against per-agent
# calls, whole (n, K) and (E, K) arrays raised peak_rss_mb by 23% on
# sf1600-k50 and 17% on er20-k2000; blocks of 8192 by 3.4% and 2.4%; blocks
# of 4096 by 2.7% and 1.3%. 2048 was slower at K=2000.
BLOCK_ELEMENTS = 4096


def centralized_gcpso(problem: Problem, params: SwarmParams, iterations: int,
                      force_init: dict[str, list[float]] | None = None) -> AnytimeTrace:
    """Reference swarm over complete assignments; per-iteration gbest trace.

    Each particle's fitness is the sum of its edge costs in constraint-list
    order, from 0.0, exactly as `global_cost` sums them.
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    forced = check_force_init(force_init, problem.domains, params.K)
    K = params.K
    rows = max(1, BLOCK_ELEMENTS // K)
    position = np.empty((problem.n_agents, K))
    for k, a in enumerate(problem.ids):
        position[k] = fresh_state(K, problem.domains[a], AgentStreams(params.seed, k),
                                  forced[a]).position

    agent_blocks = []  # (row slice, ordinals, bounds, particle-major state)
    for lo in range(0, problem.n_agents, rows):
        block = slice(lo, min(lo + rows, problem.n_agents))
        domains = [problem.domains[a] for a in problem.ids[block]]
        lower = np.array([d.lower for d in domains])
        upper = np.array([d.upper for d in domains])
        # one ContinuousDomain per column, as apply_best reads a domain
        bounds = SimpleNamespace(lower=lower, upper=upper, width=upper - lower)
        state = AgentSwarmState(position[block].T, np.zeros_like(position[block]).T,
                                position[block].copy().T, None)
        agent_blocks.append((block, np.arange(block.start, block.stop), bounds, state))
    edge_blocks = []  # (coefficient columns, ordinals of the i ends, of the j ends)
    for lo in range(0, len(problem.constraints), rows):
        cons = problem.constraints[lo:lo + rows]
        # one QuadraticCost per row, as (E_b, 1) coefficient columns
        cost = SimpleNamespace(a=np.array([[c.cost.a] for c in cons]),
                               b=np.array([[c.cost.b] for c in cons]),
                               c=np.array([[c.cost.c] for c in cons]))
        edge_blocks.append((cost, np.array([problem.ordinals[c.i] for c in cons]),
                            np.array([problem.ordinals[c.j] for c in cons])))
    root = RootState(np.full(K, np.inf))

    trace = AnytimeTrace()
    for t in range(iterations):
        fitness = 0.0
        for cost, i, j in edge_blocks:
            for edge_cost in evaluate_edge(cost, position[i], position[j]):
                fitness = fitness + edge_cost
        best = root_update(root, np.broadcast_to(fitness, (K,)), params, t)
        best = replace(best, improved=best.improved[:, None])
        for block, ordinals, bounds, state in agent_blocks:
            r1 = keyed_uniforms(params.seed, ordinals, t, DRAW_R1, K).T
            r2 = keyed_uniforms(params.seed, ordinals, t, DRAW_R2, K).T
            apply_best(state, best, params, bounds, r1, r2)
            position[block] = state.position.T
            state.position = position[block].T  # the positions live in `position` only
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
