import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from swarmdcop import (Constraint, ContinuousDomain, GenSpec, Problem, QuadraticCost, SwarmParams,
                       generate, swarm)
from swarmdcop.rng import DRAW_INIT, DRAW_R1, DRAW_R2, keyed_uniforms
from swarmdcop.swarm import (
    AgentSwarmState,
    BestInfo,
    NaNFitness,
    RootState,
    Swarm,
    apply_best,
    check_force_init,
    domain_bounds,
    fresh_state,
    position_update,
    rho_update,
    root_update,
    velocity_gbest,
    velocity_standard,
)


def test_fresh_state_zero_velocity_in_range():
    domain = ContinuousDomain(-10.0, 10.0)
    state = fresh_state(64, domain, 9, 0)
    assert (state.velocity == 0.0).all()
    assert (state.position >= -10.0).all() and (state.position <= 10.0).all()
    assert np.array_equal(state.position, -10.0 + keyed_uniforms(9, 0, 0, DRAW_INIT, 64) * 20.0)
    assert np.array_equal(state.position, fresh_state(64, domain, 9, 0).position)


def test_velocity_standard_degenerate_cases():
    assert velocity_standard(5.0, 1.0, 3.0, -2.0, 0.0, 0.0, 0.0, 0.5, 0.5) == 0.0
    assert velocity_standard(0.0, 2.0, 2.0, 2.0, 0.7, 0.9, 0.1, 0.3, 0.8) == 0.0


def test_velocity_standard_hand_value():
    # 0.9*1 + 1*0.9*2 + 1*0.1*(-1) = 0.9 + 1.8 - 0.1 = 2.6
    got = velocity_standard(1.0, 0.0, 2.0, -1.0, 0.9, 0.9, 0.1, 1.0, 1.0)
    assert got == pytest.approx(2.6, abs=1e-12)


def test_velocity_gbest_hand_values():
    assert velocity_gbest(0.0, 4.0, 4.0, 0.9, 1.0, 0.5) == 0.0
    # -1 + 3 + 0.9*2 + 1*(1 - 2*0.5) = 3.8
    assert velocity_gbest(2.0, 1.0, 3.0, 0.9, 1.0, 0.5) == pytest.approx(3.8, abs=1e-12)


@given(
    v=st.floats(-5, 5), x=st.floats(-10, 10), g=st.floats(-10, 10),
    w=st.floats(0, 1), rho=st.floats(0.001, 4), r2=st.floats(0, 1),
)
def test_velocity_gbest_perturbation_bound(v, x, g, w, rho, r2):
    v_new = velocity_gbest(v, x, g, w, rho, r2)
    # unclamped landing point stays within w|v| + rho of the global best
    assert abs((x + v_new) - g) <= w * abs(v) + rho + 1e-9


def test_gbest_particle_collapses_onto_best_in_one_step():
    # with w=0 and a vanishing search radius the update reduces to x <- gbest
    v_new = velocity_gbest(3.0, 7.0, -2.0, 0.0, 1e-12, 0.25)
    domain = ContinuousDomain(-10.0, 10.0)
    landed = position_update(7.0, v_new, domain)
    assert landed == pytest.approx(-2.0, abs=1e-11)


def test_position_update_and_clamping():
    domain = ContinuousDomain(-10.0, 10.0)
    assert position_update(1.0, 2.0, domain) == 3.0
    assert position_update(9.0, 5.0, domain) == 10.0
    assert position_update(-9.0, -5.0, domain) == -10.0
    assert position_update(4.5, 0.0, domain) == 4.5


def test_rho_update_cases():
    assert rho_update(0.25, 99, 0, 15, 5, 0) == 1.0   # t=0 resets to 1
    assert rho_update(1.0, 16, 0, 15, 5, 3) == 2.0    # success run past the ceiling
    assert rho_update(1.0, 0, 6, 15, 5, 3) == 0.5     # failure run past the ceiling
    assert rho_update(1.0, 3, 0, 15, 5, 3) == 1.0     # otherwise unchanged


PARAMS = SwarmParams(K=2)


def _verdict(g_idx, g_fit, changed, improved, t=1):
    return BestInfo(t, np.packbits(np.asarray(improved, dtype=bool)), g_idx, g_fit, changed, 1.0)


@pytest.mark.parametrize("K", [1, 3, 63, 64, 65, 2000])
def test_a_verdict_packs_its_flags_8_to_a_byte(K):
    flags = keyed_uniforms(5, K, 0, DRAW_INIT, K) < 0.5
    root = RootState(np.where(flags, 1.0, 0.0))
    best = root_update(root, np.full(K, 0.5), SwarmParams(K=K), t=1)
    assert best.improved.dtype == np.uint8
    assert best.improved.size == -(-K // 8)
    assert best.improved_flags(K).tolist() == flags.tolist()
    assert not best.improved_flags()[K:].any()  # the padding bits are 0
    bytes_ = [sum(128 >> k % 8 for k in map(int, np.flatnonzero(flags)) if k // 8 == b)
              for b in range(best.improved.size)]
    assert best.improved.tolist() == bytes_  # flag k is bit 7 - k % 8 of byte k // 8


def _root(pbest, g_idx, g_fit, s_c=0, f_c=0):
    """A root whose previous verdict made particle `g_idx` the global best."""
    return RootState(np.asarray(pbest, dtype=float), g_fit, g_idx, s_c=s_c, f_c=f_c)


def test_counters_previous_gbest_improves():
    root = _root([5.0, 3.0], g_idx=1, g_fit=3.0, s_c=2, f_c=0)
    best = root_update(root, np.array([9.0, 1.0]), PARAMS, t=1)
    assert (best.gbest_index, best.gbest_fitness, best.gbest_changed) == (1, 1.0, True)
    assert (root.s_c, root.f_c) == (3, 0)


def test_counters_nobody_improves():
    root = _root([5.0, 3.0], g_idx=1, g_fit=3.0, s_c=2, f_c=1)
    best = root_update(root, np.array([6.0, 4.0]), PARAMS, t=1)
    assert not best.gbest_changed
    assert (root.s_c, root.f_c) == (0, 2)


def test_counters_other_particle_overtakes():
    # particle 0 overtakes while the old global-best particle 1 stagnates
    root = _root([5.0, 3.0], g_idx=1, g_fit=3.0, s_c=4, f_c=0)
    best = root_update(root, np.array([2.0, 4.0]), PARAMS, t=1)
    assert (best.gbest_index, best.gbest_fitness, best.gbest_changed) == (0, 2.0, True)
    assert best.improved_flags(2).tolist() == [True, False]
    assert (root.s_c, root.f_c) == (0, 0)


@given(
    st.lists(
        st.tuples(st.floats(-100, 100), st.floats(-100, 100)), min_size=1, max_size=40
    )
)
def test_counters_mutual_exclusion_and_rho_dyadic(fitness_pairs):
    root = RootState(np.array([math.inf, math.inf]))
    params = SwarmParams(K=2, max_sc=3, max_fc=2)
    for t, pair in enumerate(fitness_pairs):
        best = root_update(root, np.array(pair), params, t)
        assert not (root.s_c > 0 and root.f_c > 0)
        assert best.rho == root.rho
        assert math.frexp(root.rho)[0] == 0.5  # rho stays an exact power of two


def test_root_update_worked_example():
    root = RootState(np.array([math.inf, math.inf]))
    best = root_update(root, np.array([94.25, 32.99]), PARAMS, t=0)
    assert root.pbest_fitness.tolist() == [94.25, 32.99]
    assert best.gbest_index == 1
    assert best.gbest_fitness == 32.99
    assert best.gbest_changed
    assert best.improved_flags(2).tolist() == [True, True]


def test_root_update_ties_keep_incumbents():
    root = _root([4.0, 7.0], g_idx=0, g_fit=4.0)
    best = root_update(root, np.array([4.0, 7.0]), PARAMS, t=3)
    assert best.improved.tolist() == [0]  # one word, no bit set
    assert not best.gbest_changed
    assert best.gbest_index == 0
    assert best.gbest_fitness == 4.0


def test_root_update_simultaneous_improvers_lowest_index_wins():
    root = RootState(np.array([math.inf] * 3))
    best = root_update(root, np.array([5.0, 2.0, 2.0]), PARAMS, t=0)
    assert best.gbest_index == 1


def test_root_update_compares_infinities_and_raises_on_nan():
    root = RootState(np.array([math.inf] * 3))
    best = root_update(root, np.array([math.inf, -math.inf, 1.0]), PARAMS, t=0)
    assert (best.gbest_index, best.gbest_fitness) == (1, -math.inf)
    assert best.improved_flags(3).tolist() == [False, True, True]
    with pytest.raises(ValueError, match="iteration 1: the fitness of particle 2 is NaN"):
        root_update(root, np.array([0.0, -math.inf, math.nan]), PARAMS, t=1)


def test_a_nan_sum_of_finite_edge_costs_names_no_edge():
    # every cost is finite, but partial sums of them can overflow to inf and
    # -inf, whose sum is NaN (the solvers' tests cover a NaN edge and an
    # inf/-inf pair)
    problem = Problem(domains={a: ContinuousDomain(-1.0, 1.0) for a in ("x1", "x2", "x3", "x4")},
                      constraints=[Constraint("x1", "x2", QuadraticCost(1e308, 0.0, 0.0)),
                                   Constraint("x1", "x3", QuadraticCost(1e308, 0.0, 0.0)),
                                   Constraint("x2", "x4", QuadraticCost(-1e308, 0.0, 0.0)),
                                   Constraint("x3", "x4", QuadraticCost(-1e308, 0.0, 0.0))])
    error = NaNFitness(2, 1).naming_the_edge(problem, np.array([[0.0, 1.0]] * 4))
    assert type(error) is ValueError
    assert str(error) == ("iteration 2: the fitness of particle 1 is NaN: no edge costs NaN, "
                          "and no two cost inf and -inf: the sum overflows")


def test_judging_a_nan_leaves_the_swarm_unstepped():
    # the edge is named at the generation judged, and nothing moves on
    problem = Problem(domains={a: ContinuousDomain(-1.0, 1.0) for a in ("x1", "x2")},
                      constraints=[Constraint("x1", "x2", QuadraticCost(1.0, 0.0, 0.0))])
    sw = Swarm(problem, SwarmParams(K=3, seed=1))
    first = sw.judge(np.array([3.0, 1.0, 2.0]), 0)
    verdict, position, root = sw.verdict, sw.position, sw.root
    assert verdict is first
    judged, before = position.copy(), dict(vars(root))
    text = ("iteration 1: the fitness of particle 2 is NaN: no edge costs NaN, and no two "
            "cost inf and -inf: the sum overflows")
    with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
        sw.judge(np.array([0.0, 4.0, math.nan]), 1)
    assert sw.verdict is verdict and sw.position is position
    assert np.array_equal(position, judged)
    assert sw.root is root and all(value is before[name] for name, value in vars(root).items())
    assert root.pbest_fitness.tolist() == [3.0, 1.0, 2.0]


def test_root_update_single_particle():
    root = RootState(np.array([math.inf]))
    best = root_update(root, np.array([3.0]), PARAMS, t=0)
    assert best.gbest_index == 0
    assert best.gbest_fitness == 3.0
    again = root_update(root, np.array([9.0]), PARAMS, t=1)
    assert again.gbest_fitness == 3.0  # gbest tracks the single pbest


@given(st.lists(st.lists(st.floats(-50, 50), min_size=3, max_size=3), min_size=1, max_size=30))
def test_best_fitness_sequences_never_increase(rounds):
    root = RootState(np.array([math.inf] * 3))
    for t, fitness in enumerate(rounds):
        pbest, g_fit = root.pbest_fitness, root.gbest_fitness
        best = root_update(root, np.array(fitness), PARAMS, t)
        assert (root.pbest_fitness <= pbest).all()
        assert best.gbest_fitness <= g_fit
        assert best.gbest_fitness == root.pbest_fitness.min()
        if best.gbest_changed:
            assert best.improved_flags(3)[best.gbest_index]


def test_apply_best_refreshes_components_from_judged_positions():
    domain = ContinuousDomain(-10.0, 10.0)
    params = SwarmParams(K=3, w=0.0, c1=0.0, c2=0.0, seed=1)
    state = fresh_state(3, domain, 1, 0, forced=np.array([1.0, -2.0, 5.0]))
    root = RootState(np.array([5.0, math.inf, math.inf]))
    best = root_update(root, np.array([10.0, 3.0, 8.0]), params, t=0)
    assert best.improved_flags(3).tolist() == [False, True, True]
    assert (best.gbest_index, best.gbest_fitness, best.gbest_changed) == (1, 3.0, True)
    assert best.rho == root.rho == 1.0  # t=0 case
    assert (root.s_c, root.f_c) == (1, 0)
    before = state.position.copy()
    apply_best(state, best, params, domain, np.full(3, 0.5), np.full(3, 0.5))
    assert state.pbest_component.tolist() == [1.0, -2.0, 5.0]  # improved slots refreshed
    assert state.pbest_component[best.gbest_index] == before[1]
    # the non-gbest particles froze (w=c1=c2=0); the gbest one landed on gbest_c
    assert state.position[0] == before[0]
    assert state.position[2] == before[2]
    assert state.position[1] == pytest.approx(before[1], abs=1.0)  # within rho


def _assert_row_equal(row, state):
    for f in ("position", "velocity", "pbest_component"):
        assert getattr(row, f).tobytes() == getattr(state, f).tobytes()


def _assert_rows_equal(block, states):
    for k, state in enumerate(states):
        for f in ("position", "velocity", "pbest_component"):
            assert getattr(block, f)[k].tobytes() == getattr(state, f).tobytes()


def test_fresh_state_of_a_block_equals_per_agent_states():
    K, domains = 9, [ContinuousDomain(-10.0, 10.0), ContinuousDomain(0.5, 2.0)]
    ordinals, bounds = [4, 1], domain_bounds(domains)
    drawn = fresh_state(K, bounds, (1 << 64) - 1, np.array(ordinals))
    _assert_rows_equal(drawn, [fresh_state(K, d, (1 << 64) - 1, k)
                               for k, d in zip(ordinals, domains)])
    forced = [np.linspace(-10.0, 10.0, K), np.linspace(0.5, 2.0, K)]
    _assert_rows_equal(fresh_state(K, bounds, 0, np.array(ordinals), np.stack(forced)),
                       [fresh_state(K, d, 0, k, f) for k, d, f in zip(ordinals, domains, forced)])


def test_a_block_of_one_agent_is_one_row_of_the_per_agent_state():
    K, domain, params = 9, ContinuousDomain(0.5, 2.0), SwarmParams(K=9, seed=7)
    problem = Problem(domains={"x1": domain}, constraints=[])
    for forced in (None, np.linspace(0.5, 2.0, K)):
        one = Swarm(problem, params, None if forced is None else {"x1": forced})
        state = fresh_state(K, domain, 7, 0, forced)
        assert one.position.shape == (1, K)
        _assert_row_equal(one.row(0), state)
        best = _verdict(g_idx=4, g_fit=1.0, changed=True, t=2,
                        improved=keyed_uniforms(7, 10, 0, DRAW_INIT, K) < 0.5)
        one.step(best)
        apply_best(state, best, params, domain, keyed_uniforms(7, 0, 2, DRAW_R1, K),
                   keyed_uniforms(7, 0, 2, DRAW_R2, K))
        assert one.verdict is best
        _assert_row_equal(one.row(0), state)


def test_the_initial_swarm_is_the_per_agent_draws_and_its_bests_share_them(monkeypatch):
    monkeypatch.setattr(swarm, "BLOCK_ELEMENTS", 3 * 5)  # blocks of 3 agents, the last of 1
    problem, params = generate(GenSpec("erdos_renyi", 7, 2, p=0.5)), SwarmParams(K=5, seed=6)
    forced = {a: np.linspace(d.lower, d.upper, 5) for a, d in problem.domains.items()}
    for force_init in (None, forced):
        sw = Swarm(problem, params, force_init)
        for o, a in enumerate(problem.ids):
            row = sw.row(o)
            _assert_row_equal(row, fresh_state(5, problem.domains[a], 6, o,
                                               None if force_init is None else forced[a]))
            # the personal bests start as the generation-0 positions themselves
            assert row.pbest_component.ctypes.data == sw.position[o].ctypes.data
    state = fresh_state(5, problem.domains["x1"], 6, 0)
    assert state.pbest_component is state.position


def test_rows_are_views_of_the_positions_and_a_step_writes_into_no_old_array(monkeypatch):
    monkeypatch.setattr(swarm, "BLOCK_ELEMENTS", 3 * 5)  # blocks of 3 agents, the last of 1
    problem, params = generate(GenSpec("erdos_renyi", 7, 2, p=0.5)), SwarmParams(K=5, seed=6)
    sw = Swarm(problem, params)
    fields = ("position", "velocity", "pbest_component")
    for t in range(3):
        before = sw.position
        rows = [sw.row(o) for o in range(problem.n_agents)]
        for o, row in enumerate(rows):
            assert np.shares_memory(row.position, sw.position[o])
            assert row.position.ctypes.data == sw.position[o].ctypes.data
        taken = [before.tobytes()] + [getattr(row, f).tobytes() for row in rows for f in fields]
        best = _verdict(g_idx=t, g_fit=1.0, changed=True, t=t,
                        improved=keyed_uniforms(6, 20 + t, 0, DRAW_INIT, 5) < 0.5)
        sw.step(best)
        assert sw.verdict is best
        assert not np.shares_memory(sw.position, before)
        assert [before.tobytes()] + [getattr(row, f).tobytes()
                                     for row in rows for f in fields] == taken


def _stepped_by_block_draws(problem, params, iterations):
    """Each agent's final state, stepped at `iterations` with each block's
    R1 and R2 drawn by `keyed_uniforms` at the step's iteration."""
    n, K, seed, rows = problem.n_agents, params.K, params.seed, swarm.block_rows(params.K)
    domains = list(problem.domains.values())
    blocks = []
    for lo in range(0, n, rows):
        ordinals, bounds = np.arange(lo, min(lo + rows, n)), domain_bounds(domains[lo:lo + rows])
        blocks.append((ordinals, bounds, fresh_state(K, bounds, seed, ordinals)))
    for t in iterations:
        for ordinals, bounds, state in blocks:
            apply_best(state, _scheduled_verdict(t, K), params, bounds,
                       keyed_uniforms(seed, ordinals, t, DRAW_R1, K),
                       keyed_uniforms(seed, ordinals, t, DRAW_R2, K))
    return [AgentSwarmState(state.position[r], state.velocity[r], state.pbest_component[r])
            for *_, state in blocks for r in range(len(state.position))]


def _scheduled_verdict(t, K):
    return _verdict(g_idx=t % K, g_fit=1.0, changed=True, t=t,
                    improved=keyed_uniforms(8, 30 + t, 0, DRAW_INIT, K) < 0.5)


@pytest.mark.parametrize("n, schedule_words, iterations, derived_at", [
    # the er20 span of 51 iterations, and past it
    (20, None, range(60), [0, 51]),
    # spans of 3 iterations
    (7, 3 * 2 * 7, range(8), [0, 3, 6]),
    # direct steps back and forward over spans of 146 iterations
    (7, None, [5, 6, 2, 60, 59, 0, 200, 3, 4, 150], [5, 2, 0, 200, 3, 150]),
    # a lone agent: spans of 1024 iterations
    (1, None, [0, 1, 2, 5000, 1], [0, 5000, 1]),
    # a cap below one iteration's keys: spans of 1
    (7, 1, [0, 1, 2, 1, 9], [0, 1, 2, 1, 9]),
], ids=["er20-span", "boundaries", "jumps", "lone-agent", "span-of-one"])
def test_the_key_schedule_draws_what_each_block_draws(monkeypatch, n, schedule_words, iterations,
                                                      derived_at):
    monkeypatch.setattr(swarm, "BLOCK_ELEMENTS", 3 * 5)  # blocks of 3 agents
    if schedule_words is not None:
        monkeypatch.setattr(swarm, "SCHEDULE_WORDS", schedule_words)
    derived, stream_keys = [], swarm.stream_keys
    monkeypatch.setattr(swarm, "stream_keys", lambda seed, ordinals, iterations, draws: (
        derived.append(int(iterations.flat[0])) or stream_keys(seed, ordinals, iterations, draws)))
    problem = (generate(GenSpec("erdos_renyi", n, 4, p=0.5)) if n > 1 else
               Problem(domains={"x1": ContinuousDomain(-3.0, 2.0)}, constraints=[]))
    params = SwarmParams(K=5, w=1.0, c1=2.0, c2=2.0, seed=(1 << 64) - 1)
    sw = Swarm(problem, params)
    for t in iterations:
        sw.step(_scheduled_verdict(t, 5))
    assert derived == derived_at
    for o, state in enumerate(_stepped_by_block_draws(problem, params, iterations)):
        _assert_row_equal(sw.row(o), state)


@pytest.mark.parametrize("clamp", [False, True])
def test_apply_best_on_a_block_equals_per_agent_calls(clamp):
    K, domains = 7, [ContinuousDomain(-10.0, 10.0), ContinuousDomain(0.5, 2.0),
                     ContinuousDomain(-1e3, -999.0)]
    params = SwarmParams(K=K, w=1.0, c1=4.0, c2=4.0, clamp_velocity=clamp, seed=3)  # clamps hit
    states = [fresh_state(K, d, 3, k) for k, d in enumerate(domains)]
    bounds = domain_bounds(domains)
    block = fresh_state(K, bounds, 3, np.arange(len(domains)))
    for t in range(4):
        best = _verdict(g_idx=t % K, g_fit=1.0, changed=True, t=t,
                        improved=keyed_uniforms(3, 10 + t, 0, DRAW_INIT, K) < 0.5)
        best.rho = 2.0**-t
        r = [(keyed_uniforms(3, k, t, DRAW_R1, K), keyed_uniforms(3, k, t, DRAW_R2, K))
             for k in range(len(domains))]
        apply_best(block, best, params, bounds,
                   np.stack([r1 for r1, _ in r]), np.stack([r2 for _, r2 in r]))
        for k, (state, domain) in enumerate(zip(states, domains)):
            apply_best(state, best, params, domain, *r[k])
        _assert_rows_equal(block, states)


@pytest.mark.parametrize("forced", [
    ["1.5", 0.0], [0.5, True], [None, 0.0], np.array([True, False]), np.array(["1.5", "0"]),
    np.array([0.5, 1.0], dtype=object),
], ids=["string", "bool", "None", "bool-array", "string-array", "object-array"])
def test_force_init_takes_only_numbers(forced):
    domains = {"x1": ContinuousDomain(-2.0, 2.0)}
    with pytest.raises(ValueError,
                       match=r"^force_init\['x1'\]: forced initial positions must be numbers$"):
        check_force_init({"x1": forced}, domains, 2)
    # what numpy converts to the same floats, but typed as numbers, passes
    for numbers in ([1, 0.5], (np.float32(1.0), np.int64(0)), np.array([1.0, 0.5]),
                    np.array([1, 0], dtype=np.int32), np.array([1, 0], dtype=np.uint8)):
        assert check_force_init({"x1": numbers}, domains, 2)["x1"].dtype == np.float64


def test_velocity_clamp_limits_speed():
    domain = ContinuousDomain(-1.0, 1.0)
    params = SwarmParams(K=2, w=1.0, c1=10.0, c2=10.0, clamp_velocity=True, seed=2)
    state = fresh_state(2, domain, 2, 0, forced=np.array([-1.0, 1.0]))
    best = _verdict(g_idx=0, g_fit=1.0, changed=True, improved=[True, True], t=0)
    apply_best(state, best, params, domain, np.ones(2), np.ones(2))
    assert (np.abs(state.velocity) <= domain.width).all()


def test_params_validation():
    with pytest.raises(ValueError):
        SwarmParams(K=0)
    with pytest.raises(ValueError, match=r"^w must be finite and >= 0, got -0.1$"):
        SwarmParams(w=-0.1)
    with pytest.raises(ValueError):
        SwarmParams(max_sc=0)
    with pytest.raises(ValueError):
        SwarmParams(seed=-1)


@pytest.mark.parametrize("field, value", [("K", 2.5), ("K", True), ("K", "3"), ("max_sc", 1.5),
                                          ("max_fc", False), ("seed", 1.5), ("seed", None)])
def test_params_reject_non_integer_integer_fields(field, value):
    with pytest.raises(ValueError, match=rf"^{field} must be an integer, got {value!r}$"):
        SwarmParams(**{field: value})


def test_params_take_numpy_integers_as_python_ints():
    params = SwarmParams(K=np.int64(3), max_sc=np.int32(2), max_fc=np.uint8(4),
                         seed=np.uint64((1 << 64) - 1))
    assert (params.K, params.max_sc, params.max_fc, params.seed) == (3, 2, 4, (1 << 64) - 1)
    assert all(type(v) is int for v in (params.K, params.max_sc, params.max_fc, params.seed))


@pytest.mark.parametrize("field, value", [("w", math.nan), ("c1", math.inf), ("c2", math.nan),
                                          ("c1", -math.inf)])
def test_params_reject_non_finite_coefficients(field, value):
    # NaN compares false with everything: a bare `< 0` test lets it through,
    # and the run then fails later on a NaN fitness
    with pytest.raises(ValueError, match=rf"^{field} must be finite and >= 0, got {value}$"):
        SwarmParams(**{field: value})


@pytest.mark.parametrize("field", ["w", "c1", "c2"])
@pytest.mark.parametrize("value", ["a", True, None], ids=["str", "bool", "none"])
def test_params_reject_coefficients_that_are_not_real_numbers(field, value):
    # a bool is an int, which would run as 0 or 1
    message = f"{field} must be a real number, got {value!r}"
    with pytest.raises(ValueError, match=f"^{message}$"):
        SwarmParams(**{field: value})
