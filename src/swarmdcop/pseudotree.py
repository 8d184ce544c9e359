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
the contributions arrive in.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property

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

    @cached_property
    def fitness_senders(self) -> dict[str, list[str]]:
        """The senders of each agent's fitness contributions, in fold order."""
        return {agent: [sender for sender, _ in slots] for agent, slots in self.fitness_slots.items()}

    def priority_key(self, agent: str) -> tuple[int, str]:
        return (self.depth[agent], agent)

    def fitness_slot(self, agent: str, sender: str, aggregate: bool) -> int:
        """Position in `agent`'s fold of `sender`'s edge cost or, if
        `aggregate`, of its aggregate. Raises ValueError for a sender that
        owes `agent` no such contribution."""
        slot = self.fitness_slots[agent].get((sender, aggregate))
        if slot is None:
            raise ValueError(f"{sender} owes {agent} no {'aggregate' if aggregate else 'edge cost'}")
        return slot


def build_bfs_pseudotree(problem: Problem) -> PseudoTree:
    """BFS from the alphabetically smallest id, neighbors visited alphabetically."""
    adjacency = problem.neighbors()
    root = problem.ids[0]
    depth = {root: 0}
    parent: dict[str, str] = {}
    children: dict[str, list[str]] = {a: [] for a in problem.ids}
    queue = deque([root])
    while queue:
        current = queue.popleft()
        for nbr in adjacency[current]:
            if nbr not in depth:
                depth[nbr] = depth[current] + 1
                parent[nbr] = current
                children[current].append(nbr)
                queue.append(nbr)

    def key(agent: str) -> tuple[int, str]:
        return (depth[agent], agent)

    higher: dict[str, list[str]] = {}
    lower: dict[str, list[str]] = {}
    for agent in problem.ids:
        higher[agent] = sorted((n for n in adjacency[agent] if key(n) < key(agent)), key=key)
        lower[agent] = sorted((n for n in adjacency[agent] if key(n) > key(agent)), key=key)

    slots: dict[str, dict[tuple[str, bool], int]] = {}
    for agent in problem.ids:
        senders = lower[agent] + [child for child in children[agent] if lower[child]]
        n_edges = len(lower[agent])
        slots[agent] = {(sender, slot >= n_edges): slot for slot, sender in enumerate(senders)}
    return PseudoTree(
        root=root,
        depth=depth,
        parent=parent,
        children=children,
        H=higher,
        L=lower,
        d=max(depth.values()),
        fitness_slots=slots,
    )


def priority_less(tree: PseudoTree, i: str, j: str) -> bool:
    """True iff agent i has strictly lower priority than agent j."""
    for agent in (i, j):
        if agent not in tree.depth:
            raise KeyError(f"unknown agent {agent!r}")
    return tree.priority_key(i) > tree.priority_key(j)


def render(tree: PseudoTree) -> str:
    """Text dump of depths, parents and H/L sets, for docs and diagnostics."""
    lines = [f"root: {tree.root}   max depth: {tree.d}"]
    for agent in sorted(tree.depth, key=tree.priority_key):
        lines.append(
            "  {a}: depth={d} parent={p} H={{{h}}} L={{{l}}} expects={e}".format(
                a=agent,
                d=tree.depth[agent],
                p=tree.parent.get(agent, "-"),
                h=",".join(tree.H[agent]),
                l=",".join(tree.L[agent]),
                e=len(tree.fitness_slots[agent]),
            )
        )
    return "\n".join(lines)
