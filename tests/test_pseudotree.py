import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmdcop import (
    Constraint,
    ContinuousDomain,
    GenSpec,
    Problem,
    QuadraticCost,
    build_bfs_pseudotree,
    generate,
    parse_problem,
    serialize_problem,
)
from swarmdcop.runtime import Simulator
from swarmdcop.swarm import SwarmParams


def test_worked_example_tree(fig1):
    tree = build_bfs_pseudotree(fig1)
    assert tree.root == "x1"
    assert tree.depth == {"x1": 0, "x2": 1, "x3": 1, "x4": 1}
    assert tree.d == 1
    assert tree.H["x3"] == ["x1"]
    assert tree.L["x3"] == ["x4"]
    assert tree.parent == {"x2": "x1", "x3": "x1", "x4": "x1"}
    assert tree.children["x1"] == ["x2", "x3", "x4"]
    # x1 folds 3 edge costs from L, then the aggregate of x3 (the only child
    # with a nonempty L); x3 folds just x4's edge cost
    assert tree.fitness_slots == {
        "x1": {("x2", False): 0, ("x3", False): 1, ("x4", False): 2, ("x3", True): 3},
        "x2": {}, "x3": {("x4", False): 0}, "x4": {}}
    assert ("x2", True) not in tree.fitness_slots["x1"]  # x2 has an empty L


def test_single_agent_tree():
    problem = Problem(domains={"x1": ContinuousDomain(-1, 1)}, constraints=[])
    tree = build_bfs_pseudotree(problem)
    assert tree.root == "x1"
    assert tree.d == 0
    assert tree.H["x1"] == [] and tree.L["x1"] == []
    assert tree.fitness_slots["x1"] == {}


def test_path_graph_tree():
    problem = Problem(
        domains={a: ContinuousDomain(-1, 1) for a in ("x1", "x2", "x3")},
        constraints=[
            Constraint("x1", "x2", QuadraticCost(1, 0, 0)),
            Constraint("x2", "x3", QuadraticCost(1, 0, 0)),
        ],
    )
    tree = build_bfs_pseudotree(problem)
    assert tree.parent["x2"] == "x1"
    assert tree.parent["x3"] == "x2"
    assert tree.d == 2


@settings(max_examples=40)
@given(
    seed=st.integers(0, 2**64 - 1),
    n=st.integers(2, 14),
    topology=st.sampled_from(["erdos_renyi", "scale_free", "random_tree"]),
)
def test_tree_structure_invariants(seed, n, topology):
    problem = generate(GenSpec(topology=topology, n=n, seed=seed, m=min(2, n - 1)))
    tree = build_bfs_pseudotree(problem)

    # exactly one endpoint of every constraint holds the other in its L set
    for con in problem.constraints:
        i_holds = con.j in tree.L[con.i]
        j_holds = con.i in tree.L[con.j]
        assert i_holds != j_holds

    assert sum(len(tree.L[a]) for a in problem.ids) == len(problem.constraints)

    for agent in problem.ids:
        # H/L partition the neighbor set
        nbrs = set(problem.adjacency[agent])
        assert set(tree.H[agent]) | set(tree.L[agent]) == nbrs
        assert set(tree.H[agent]) & set(tree.L[agent]) == set()
        if agent != tree.root:
            assert tree.H[agent], f"non-root {agent} must have higher neighbors"
            # parent chain reaches the root in depth(agent) steps
            hops, node = 0, agent
            while node != tree.root:
                assert tree.depth[tree.parent[node]] == tree.depth[node] - 1
                node = tree.parent[node]
                hops += 1
            assert hops == tree.depth[agent]
        # the fold slots: L's edge costs in priority order, then the
        # aggregates of the children with nonempty L in BFS order
        slots = tree.fitness_slots[agent]
        aggregating = [c for c in tree.children[agent] if tree.L[c]]
        ranked = sorted(tree.L[agent], key=lambda a: (tree.depth[a], a))
        assert list(slots) == [(j, False) for j in ranked] + [(c, True) for c in aggregating]
        assert list(slots.values()) == list(range(len(slots)))


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("topology, n", [
    ("erdos_renyi", 1), ("erdos_renyi", 2), ("erdos_renyi", 30),
    ("scale_free", 2), ("scale_free", 3), ("scale_free", 60),
    ("random_tree", 1), ("random_tree", 2), ("random_tree", 40),
])
def test_partition_is_the_sorted_neighbors_split_at_the_agent(topology, n, seed):
    m = min(2, n - 1) if topology == "scale_free" else 2
    problem = generate(GenSpec(topology=topology, n=n, seed=seed, m=m))
    tree = build_bfs_pseudotree(problem)
    for agent in problem.ids:
        # the neighbors from the constraint list, not from Problem.adjacency
        nbrs = ([con.j for con in problem.constraints if con.i == agent]
                + [con.i for con in problem.constraints if con.j == agent])
        ranked = sorted(nbrs + [agent], key=lambda a: (tree.depth[a], a))
        at = ranked.index(agent)
        assert tree.H[agent] == ranked[:at]
        assert tree.L[agent] == ranked[at + 1:]


@pytest.mark.parametrize("spec", [
    GenSpec(topology="scale_free", n=1600, seed=0, m=2),
    GenSpec(topology="erdos_renyi", n=20, seed=3),
    GenSpec(topology="random_tree", n=50, seed=1),
], ids=["sf1600", "er20", "tree50"])
def test_a_round_trip_builds_the_same_tree_and_lookups(spec):
    problem = generate(spec)
    again = parse_problem(serialize_problem(problem))
    tree, tree_again = build_bfs_pseudotree(problem), build_bfs_pseudotree(again)
    assert tree_again == tree
    assert ([list(slots.items()) for slots in tree_again.fitness_slots.values()]
            == [list(slots.items()) for slots in tree.fitness_slots.values()])
    params = SwarmParams(K=2, seed=0)
    machines = [Simulator(p, params, 1).machines for p in (problem, again)]
    assert ([list(zip(m.H, m.constraints)) for m in machines[1]]
            == [list(zip(m.H, m.constraints)) for m in machines[0]])
