"""BFS pseudo-tree over the constraint graph.

The root is the alphabetically smallest agent id. Priority: smaller depth
wins, ties broken alphabetically. Each agent's neighbors split into H (higher
priority) and L (lower priority); constraint edges between same-depth agents
are cross edges that carry values and edge costs but never aggregates, which
route along tree parents only.

The tree also fixes the one summation order of every fitness sum, in the
distributed runtime and the centralized oracle alike. An agent folds its
contributions in slot order, starting from the first one: the edge costs of
its L members in L order, then the aggregates of its children with nonempty
L in BFS order. So the root's fitness vector is bit-identical whatever order
the contributions arrive in. `fitness_slots` is the one map of these slots:
per agent, (sender, is aggregate) -> slot, in slot order; a sender missing
from it owes the agent no such contribution.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import Problem


@dataclass
class PseudoTree:
    root: str
    depth: dict[str, int]
    parent: dict[str, str]          # absent for root
    children: dict[str, list[str]]  # BFS discovery (alphabetical) order
    H: dict[str, list[str]]         # higher-priority neighbors, highest first
    L: dict[str, list[str]]         # lower-priority neighbors, highest first
    d: int                          # maximum depth
    # each agent's fold slots, in order, keyed by (sender, is aggregate): L's
    # edge costs, then the aggregates of the children with nonempty L (such
    # a child sends both)
    fitness_slots: dict[str, dict[tuple[str, bool], int]]


def build_bfs_pseudotree(problem: Problem) -> PseudoTree:
    """BFS from the alphabetically smallest id, neighbors visited alphabetically."""
    adjacency = problem.adjacency
    root = problem.ids[0]
    depth = {root: 0}
    parent: dict[str, str] = {}
    children: dict[str, list[str]] = {a: [] for a in problem.ids}
    bfs = [root]
    for current in bfs:  # grows as agents are found
        found = sorted([nbr for nbr in adjacency[current] if nbr not in depth])
        for nbr in found:
            depth[nbr] = depth[current] + 1
            parent[nbr] = current
        children[current] = found
        bfs += found

    # walk the agents highest priority first and enter each into its
    # neighbors' lists: into the L of those already walked, which outrank it,
    # and into the H of the rest; so every list fills in priority order
    H: dict[str, list[str]] = {a: [] for a in problem.ids}
    L: dict[str, list[str]] = {a: [] for a in problem.ids}
    walked = set()
    for agent in sorted(problem.ids, key=depth.__getitem__):  # stable: ties stay alphabetical
        for nbr in adjacency[agent]:
            (L if nbr in walked else H)[nbr].append(agent)
        walked.add(agent)

    fitness_slots: dict[str, dict[tuple[str, bool], int]] = {}
    for agent in problem.ids:
        slots = fitness_slots[agent] = {}
        for sender in L[agent]:
            slots[(sender, False)] = len(slots)
        for child in children[agent]:
            if L[child]:
                slots[(child, True)] = len(slots)
    return PseudoTree(root=root, depth=depth, parent=parent, children=children, H=H, L=L,
                      d=depth[bfs[-1]], fitness_slots=fitness_slots)
