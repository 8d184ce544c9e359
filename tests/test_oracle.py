import itertools
import math

import numpy as np
import pytest

from swarmdcop import (
    AnytimeTrace,
    Constraint,
    ContinuousDomain,
    GenSpec,
    GridSpec,
    Problem,
    QuadraticCost,
    SwarmParams,
    build_bfs_pseudotree,
    centralized_gcpso,
    generate,
    global_cost,
    grid_search,
    oracle,
    run,
    runtime,
    swarm,
)
from swarmdcop.model import evaluate_edge
from swarmdcop.rng import DRAW_R1, DRAW_R2, keyed_uniforms
from swarmdcop.runtime import Simulator, TraceRow
from swarmdcop.swarm import RootState, apply_best, check_force_init, fresh_state, root_update

from conftest import FIG1_FITNESS_P2, Recorder


def test_no_solver_writes_into_the_generation_0_array(monkeypatch):
    # the initial personal bests are the generation-0 positions, shared, so
    # a write into either would change the other
    problem, params = generate(GenSpec("scale_free", 30, 4, m=2)), SwarmParams(K=12, seed=9)
    sim = Simulator(problem, params, 15)
    initial = sim.swarm.position
    snapshot = initial.copy()
    sim.run_to_quiescence()
    assert initial.tobytes() == snapshot.tobytes()

    made = []

    def recording(*args):
        sw = swarm.Swarm(*args)
        made.append((sw.position, sw.position.copy()))
        return sw

    monkeypatch.setattr(oracle, "Swarm", recording)
    assert centralized_gcpso(problem, params, 15).gbest_series() == sim.trace.gbest_series()
    ((initial, snapshot),) = made
    assert initial.tobytes() == snapshot.tobytes()


@pytest.mark.parametrize("topology,seed,n", [
    ("erdos_renyi", 1, 6),
    ("scale_free", 2, 9),
    ("random_tree", 3, 11),
])
def test_centralized_matches_distributed(topology, seed, n):
    problem = generate(GenSpec(topology=topology, n=n, seed=seed, p=0.3, m=2))
    params = SwarmParams(K=12, seed=seed * 7 + 1)
    distributed = run(problem, params, 50).gbest_series()
    centralized = centralized_gcpso(problem, params, 50).gbest_series()
    assert len(distributed) == 50
    assert distributed == centralized


def test_centralized_worked_example(fig1, fig1_force):
    params = SwarmParams(K=2, seed=0)
    trace = centralized_gcpso(fig1, params, 1, force_init=fig1_force)
    assert trace.final_gbest == pytest.approx(FIG1_FITNESS_P2, abs=1e-9)


def test_constraint_order_fold_equals_global_cost(fig1, fig1_force):
    # a vectorized constraint-order fold equals the scalar `global_cost`
    K = 2
    fitness = np.zeros(K)
    pos = {a: np.asarray(v) for a, v in fig1_force.items()}
    for con in fig1.constraints:
        fitness = fitness + evaluate_edge(con.cost, pos[con.i], pos[con.j])
    for k in range(K):
        assignment = {a: float(v[k]) for a, v in pos.items()}
        assert fitness[k] == global_cost(fig1, assignment)


def _tree_fold(problem, tree, position, K):
    """The root's fitness, folded one agent and one edge at a time, deepest
    agents first, each over its `fitness_slots` in order."""
    sums = {}
    for a in sorted(problem.ids, key=lambda a: (tree.depth[a], a), reverse=True):
        cons = [problem.constraint_between(a, j) for j in tree.L[a]]
        parts = [evaluate_edge(c.cost, position[c.i], position[c.j]) for c in cons]
        parts += [sums[child] for child, aggregate in tree.fitness_slots[a] if aggregate]
        if parts:
            sums[a] = parts[0]
            for part in parts[1:]:
                sums[a] = sums[a] + part
    return sums.get(tree.root, np.zeros(K))


@pytest.mark.parametrize("case", ["fig1-force-init", "gathered-edges"])
def test_judged_fitness_is_the_tree_fold(case, fig1, fig1_force, monkeypatch):
    # every fitness vector the runtime's root judges is the pseudo-tree's fold
    # of that iteration's positions, whether its edge costs were evaluated one
    # by one or as gathered runs
    force_init = None
    if case == "fig1-force-init":
        problem, params, force_init = fig1, SwarmParams(K=2, seed=0), fig1_force
    else:
        problem, params = generate(GenSpec("scale_free", 40, 6, m=3)), SwarmParams(K=6, seed=2)
    operands = []
    evaluate = runtime.evaluate_edge
    monkeypatch.setattr(runtime, "evaluate_edge",
                        lambda cost, xi, xj: operands.append(np.ndim(xi)) or evaluate(cost, xi, xj))
    rec = Recorder()
    Simulator(problem, params, 12, force_init=force_init, on_event=rec).run_to_quiescence()
    assert (2 in operands) == (case == "gathered-edges")
    tree = build_bfs_pseudotree(problem)
    fitness = rec.fitness()
    assert sorted(fitness) == list(range(12))
    for t, judged in fitness.items():
        position = {a: rec.positions(a)[t] for a in problem.ids}
        assert judged.tobytes() == _tree_fold(problem, tree, position, params.K).tobytes()


def _per_agent_gcpso(problem, params, iterations, force_init=None):
    """The centralized swarm one agent and one edge at a time: the reference
    the dense, blocked `centralized_gcpso` must equal bit for bit."""
    forced = check_force_init(force_init, problem.domains, params.K)
    states = {a: fresh_state(params.K, problem.domains[a], params.seed, problem.ordinals[a],
                             forced[a])
              for a in problem.ids}
    tree = build_bfs_pseudotree(problem)
    root, trace = RootState(np.full(params.K, np.inf)), AnytimeTrace()
    for t in range(iterations):
        position = {a: state.position for a, state in states.items()}
        best = root_update(root, _tree_fold(problem, tree, position, params.K), params, t)
        for a in problem.ids:
            k = problem.ordinals[a]
            r1 = keyed_uniforms(params.seed, k, t, DRAW_R1, params.K)
            r2 = keyed_uniforms(params.seed, k, t, DRAW_R2, params.K)
            apply_best(states[a], best, params, problem.domains[a], r1, r2)
        trace.rows.append(TraceRow(t + 1, 0, root.gbest_fitness, 0, 0))
    return trace


def _mixed_domains(problem):
    domains = {a: ContinuousDomain(-k - 1.0, 2.0 * k + 0.5) for k, a in enumerate(problem.ids)}
    return Problem(domains=domains, constraints=problem.constraints)


@pytest.mark.parametrize("case", ["fig1-force-init", "one-agent", "mixed-clamped", "many-blocks"])
def test_centralized_equals_per_agent_reference(case, fig1, fig1_force, monkeypatch):
    force_init = None
    if case == "fig1-force-init":
        problem, params, force_init = fig1, SwarmParams(K=2, seed=0), fig1_force
    elif case == "one-agent":
        problem = Problem(domains={"x1": ContinuousDomain(-1, 1)}, constraints=[])
        params = SwarmParams(K=3, seed=4)
    elif case == "mixed-clamped":
        problem = _mixed_domains(generate(GenSpec("erdos_renyi", 9, 3, p=0.4)))
        params = SwarmParams(K=17, clamp_velocity=True, seed=9)
    else:  # blocks of 3 rows: 10 agents in 4 blocks (the last holds one), 18 edges in 6
        monkeypatch.setattr(swarm, "BLOCK_ELEMENTS", 3 * 8 + 7)
        problem = _mixed_domains(generate(GenSpec("erdos_renyi", 10, 5, p=0.4)))
        params = SwarmParams(K=8, seed=(1 << 64) - 1)
        assert (problem.n_agents, len(problem.constraints)) == (10, 18)
        # L slot 0, one edge per aggregating agent, spans blocks, and
        # children fold on two levels
        tree = build_bfs_pseudotree(problem)
        assert sum(1 for a in problem.ids if tree.L[a]) > 3
        assert tree.d >= 2
    got = centralized_gcpso(problem, params, 60, force_init=force_init).to_csv()
    assert got == _per_agent_gcpso(problem, params, 60, force_init).to_csv()


def test_single_particle_no_constraints_is_constant():
    problem = Problem(domains={"x1": ContinuousDomain(-1, 1)}, constraints=[])
    params = SwarmParams(K=1, w=0.0, c1=0.0, c2=0.0, seed=4)
    series = centralized_gcpso(problem, params, 20).gbest_series()
    assert series == [0.0] * 20


def test_grid_search_positive_definite_form():
    problem = Problem(
        domains={"x1": ContinuousDomain(-50, 50), "x2": ContinuousDomain(-50, 50)},
        constraints=[Constraint("x1", "x2", QuadraticCost(1, 1, 1))],
    )
    assignment, cost = grid_search(problem, GridSpec(points_per_dim=5))
    assert cost == 0.0
    assert assignment == {"x1": 0.0, "x2": 0.0}


def test_grid_search_single_agent():
    problem = Problem(domains={"x1": ContinuousDomain(-3, 3)}, constraints=[])
    assignment, cost = grid_search(problem, GridSpec(points_per_dim=7))
    assert cost == 0.0
    assert assignment == {"x1": -3.0}  # lexicographically first grid point


def test_grid_search_worked_example_matches_enumeration(fig1):
    # independent oracle: enumerate all 5^4 = 625 grid assignments directly
    grid = [-10.0, -5.0, 0.0, 5.0, 10.0]
    best_cost, best_point = math.inf, None
    for point in itertools.product(grid, repeat=4):
        x1, x2, x3, x4 = point
        cost = (
            (x1 * x1 - x2 * x2)
            + (x1 * x1 + 2 * x1 * x3)
            + (2 * x1 * x1 - 2 * x4 * x4)
            + (x3 * x3 + 3 * x4 * x4)
        )
        if cost < best_cost:
            best_cost, best_point = cost, point
    assignment, cost = grid_search(fig1, GridSpec(points_per_dim=5))
    assert best_cost == -100.0  # frozen from this enumeration
    assert cost == best_cost
    assert tuple(assignment[a] for a in fig1.ids) == best_point


def test_grid_refinement_never_increases_cost(fig1):
    # a (2p-1)-point grid contains every p-point grid node
    coarse = grid_search(fig1, GridSpec(points_per_dim=5))[1]
    fine = grid_search(fig1, GridSpec(points_per_dim=9))[1]
    assert fine <= coarse


def test_grid_cap_enforced(fig1):
    with pytest.raises(ValueError, match="cap"):
        grid_search(fig1, GridSpec(points_per_dim=101))  # 101**4 points
    with pytest.raises(ValueError):
        GridSpec(points_per_dim=1)


def test_grid_cap_admits_a_grid_at_the_cap_and_refuses_one_point_more(fig1, monkeypatch):
    made = []  # the grid's axes and costs, the first arrays made after the check

    def axes(*args, linspace=np.linspace):
        made.append("axis")
        return linspace(*args)

    def costs(*args, global_cost=oracle.global_cost):
        made.append("costs")
        return global_cost(*args)

    monkeypatch.setattr(oracle.np, "linspace", axes)
    monkeypatch.setattr(oracle, "global_cost", costs)
    monkeypatch.setattr(oracle, "GRID_CAP", 5**4)
    assert grid_search(fig1, GridSpec(points_per_dim=5))[1] == -100.0
    assert made == ["axis"] * 4 + ["costs"]
    made.clear()
    monkeypatch.setattr(oracle, "GRID_CAP", 5**4 - 1)
    with pytest.raises(ValueError, match="^grid of 625 points exceeds cap 624$"):
        grid_search(fig1, GridSpec(points_per_dim=5))
    assert made == []


@pytest.mark.parametrize("value", [2.5, 3.0, True, "3", None])
def test_grid_spec_rejects_non_integer_points(value):
    with pytest.raises(ValueError, match=f"points_per_dim must be an integer, got {value!r}"):
        GridSpec(points_per_dim=value)


def test_grid_spec_takes_numpy_integers_as_python_ints(fig1):
    grid = GridSpec(points_per_dim=np.int64(5))
    assert type(grid.points_per_dim) is int
    assert grid_search(fig1, grid) == grid_search(fig1, GridSpec(points_per_dim=5))


def test_grid_tie_breaks_lexicographic():
    # x1^2 - x2^2 ties at x2 = +/-10 for every x1; smallest x2 wins, and the
    # smallest |x1| beats larger ones outright
    problem = Problem(
        domains={"x1": ContinuousDomain(-10, 10), "x2": ContinuousDomain(-10, 10)},
        constraints=[Constraint("x1", "x2", QuadraticCost(1, 0, -1))],
    )
    assignment, cost = grid_search(problem, GridSpec(points_per_dim=5))
    assert cost == -100.0
    assert assignment == {"x1": 0.0, "x2": -10.0}


def test_equivalence_with_forced_init(fig1, fig1_force):
    params = SwarmParams(K=2, seed=0)
    a = run(fig1, params, 25, force_init=fig1_force).gbest_series()
    b = centralized_gcpso(fig1, params, 25, force_init=fig1_force).gbest_series()
    assert a == b


def test_constraint_order_leaves_both_traces_unchanged():
    # the pseudo-tree, not the constraint list, fixes the summation order
    problem = generate(GenSpec("erdos_renyi", 12, 4, p=0.4))
    flipped = Problem(domains=problem.domains, constraints=problem.constraints[::-1])
    params = SwarmParams(K=9, seed=5)
    for solve in (run, centralized_gcpso):
        assert solve(flipped, params, 40).to_csv() == solve(problem, params, 40).to_csv()
