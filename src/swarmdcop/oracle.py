"""Independent references for the distributed solver.

`centralized_gcpso` runs the identical swarm arithmetic on full assignments
with no message passing. It holds the runtime's `swarm.Swarm` and judges
through it (`Swarm.judge`), as the runtime's root does, and evaluates each
block of edges with one `evaluate_edge` call on operands gathered from the
swarm's agent-major (n, K) positions. Every fitness sum is the pseudo-tree's
fold (`PseudoTree.fitness_slots`), the one summation order the runtime uses
too. Every operation is the per-agent one, elementwise in the same order, so
the gbest trace equals the distributed runtime's bit for bit, over whole
runs. `grid_search` exhaustively enumerates a rectangular grid and is the
ground-truth oracle for tiny instances.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby

import numpy as np

from .model import Problem, cost_columns, evaluate_edge, global_cost
from .pseudotree import build_bfs_pseudotree
from .runtime import AnytimeTrace, TraceRow
from .swarm import Swarm, SwarmParams, block_rows, integer_field, iteration_count

# refuse grids larger than this many points
GRID_CAP = 10**7


def _fold_plan(problem: Problem, rows: int):
    """The pseudo-tree's fold of every fitness sum as array steps on one
    (A, K) array `sums`, one row per aggregating agent (nonempty L).

    The rows go level by level, deepest first, and within a level the agents
    with the most aggregating children first, so the root's sum is the last
    row and the parents of each level's child slot j are a run of rows.

    L phase: the constraints are listed slot by slot, row by row, and cut
    into blocks of `rows` edges: (coefficient columns, i-end ordinals, j-end
    ordinals, folds). Each fold (block rows, sum rows, first) sets (L slot 0)
    or adds a run of edge costs into a run of rows.

    Child phase: each (parent rows, child rows) step adds the finished sums
    of one level's children in child slot j, deepest level first.
    """
    tree = build_bfs_pseudotree(problem)
    children = {a: [sender for sender, aggregate in tree.fitness_slots[a] if aggregate]
                for a in problem.ids if tree.L[a]}
    order = sorted(children, key=lambda a: (-tree.depth[a], -len(children[a]), -len(tree.L[a])))
    row = {a: r for r, a in enumerate(order)}

    slots = []  # slot j: (sum row, constraint, first slot) of every L[a][j], in row order
    for a in order:
        adjacency = problem.adjacency[a]
        for j, low in enumerate(tree.L[a]):
            if j == len(slots):
                slots.append([])
            slots[j].append((row[a], adjacency[low], j == 0))
    edges = [edge for slot in slots for edge in slot]  # in fold order
    edge_blocks = []
    for lo in range(0, len(edges), rows):
        block = edges[lo:lo + rows]
        # runs of edges into consecutive rows, all in L slot 0 or none
        starts = [e for e in range(len(block)) if e == 0 or block[e][0] != block[e - 1][0] + 1
                  or block[e][2] != block[e - 1][2]]
        folds = [(slice(s, e), slice(block[s][0], block[s][0] + e - s), block[s][2])
                 for s, e in zip(starts, starts[1:] + [len(block)])]
        edge_blocks.append((cost_columns([con.cost for _, con, _ in block]),
                            np.array([problem.ordinals[con.i] for _, con, _ in block]),
                            np.array([problem.ordinals[con.j] for _, con, _ in block]), folds))

    child_folds = []
    lo = 0
    for _, level in groupby(order, key=tree.depth.get):
        level = list(level)
        for j in range(len(children[level[0]])):
            parents = [a for a in level if len(children[a]) > j]
            child_folds.append((slice(lo, lo + len(parents)),
                                np.array([row[children[a][j]] for a in parents])))
        lo += len(level)
    return len(order), edge_blocks, child_folds


def centralized_gcpso(problem: Problem, params: SwarmParams, iterations: int,
                      force_init: dict[str, list[float]] | None = None) -> AnytimeTrace:
    """Reference swarm over complete assignments; per-iteration gbest trace.

    Each particle's fitness is folded over the pseudo-tree exactly as the
    runtime's agents fold it (see `_fold_plan`): the edge costs are
    evaluated a block at a time and added slot by slot, then each level's
    child aggregates are added, deepest level first.
    """
    iterations = iteration_count(iterations)
    K = params.K
    # planned first: the tree it builds is freed before the swarm's arrays exist
    aggregators, edge_blocks, child_folds = _fold_plan(problem, block_rows(K))
    swarm = Swarm(problem, params, force_init)
    sums = np.empty((aggregators, K))

    trace = AnytimeTrace()
    for t in range(iterations):
        position = swarm.position
        for cost, i, j, folds in edge_blocks:
            costs = evaluate_edge(cost, position[i], position[j])
            for cost_rows, sum_rows, first in folds:
                if first:
                    sums[sum_rows] = costs[cost_rows]
                else:
                    sums[sum_rows] += costs[cost_rows]
        for parents, children in child_folds:
            sums[parents] += sums[children]
        best = swarm.judge(sums[-1] if aggregators else np.zeros(K), t)  # one agent: no edges
        trace.rows.append(TraceRow(t + 1, 0, best.gbest_fitness, 0, 0))
    return trace


@dataclass(frozen=True)
class GridSpec:
    points_per_dim: int

    def __post_init__(self):
        object.__setattr__(self, "points_per_dim",
                           integer_field("points_per_dim", self.points_per_dim))
        if self.points_per_dim < 2:
            raise ValueError("points_per_dim must be >= 2")


def grid_search(problem: Problem, grid: GridSpec) -> tuple[dict[str, float], float]:
    """Exhaustive minimum over the evenly spaced grid (endpoints included).

    Ties go to the first grid point in lexicographic order over agents in
    ordinal order, each axis ascending.
    """
    n = problem.n_agents
    total = grid.points_per_dim**n
    if total > GRID_CAP:
        raise ValueError(f"grid of {total} points exceeds cap {GRID_CAP}")
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
