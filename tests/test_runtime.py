import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from swarmdcop import (
    Constraint,
    ContinuousDomain,
    GenSpec,
    Problem,
    QuadraticCost,
    SwarmParams,
    build_bfs_pseudotree,
    centralized_gcpso,
    generate,
    global_cost,
    run,
    runtime,
    swarm,
)
from swarmdcop.rng import DRAW_R1, DRAW_R2, SplitMix64, keyed_uniforms
from swarmdcop.runtime import (AgentMachine, Envelope, Judged, Kind, Moved, Simulator,
                               envelope_scalars, parse_trace_csv)
from swarmdcop.swarm import RootState, apply_best, fresh_state, root_update

from conftest import FIG1_FITNESS_P1, FIG1_FITNESS_P2, Recorder


def _forced_sim(fig1, fig1_force, iterations=1, **kw):
    params = SwarmParams(K=2, seed=0)
    return Simulator(fig1, params, iterations, force_init=fig1_force, **kw)


def test_worked_example_first_iteration(fig1, fig1_force):
    rec = Recorder()
    sim = _forced_sim(fig1, fig1_force, on_event=rec)
    trace = sim.run_to_quiescence()
    fitness = rec.fitness()[0]
    assert fitness[0] == pytest.approx(FIG1_FITNESS_P1, abs=1e-9)
    assert fitness[1] == pytest.approx(FIG1_FITNESS_P2, abs=1e-9)
    assert sim.root.gbest_index == 1
    assert trace.rows[0].gbest_fitness == pytest.approx(FIG1_FITNESS_P2, abs=1e-9)
    assert sim.root.root_state.pbest_fitness.tolist() == pytest.approx([94.25, 32.99], abs=1e-9)


def test_worked_example_edge_messages(fig1, fig1_force):
    rec = Recorder()
    _forced_sim(fig1, fig1_force, on_event=rec).run_to_quiescence()
    edges = {
        (e.sender, e.recipient): e.fitness.tolist()
        for e in rec.sent
        if e.kind is Kind.EDGE_FITNESS and e.iteration == 0
    }
    assert edges[("x4", "x3")] == pytest.approx([274.75, 1.0], abs=1e-9)
    assert edges[("x4", "x1")] == pytest.approx([-178.5, 24.5], abs=1e-9)
    assert edges[("x3", "x1")] == pytest.approx([-3.0, 19.25], abs=1e-9)
    assert edges[("x2", "x1")] == pytest.approx([1.0, -11.76], abs=1e-9)


def test_worked_example_aggregate_forwarding(fig1, fig1_force):
    # x3 forwards the x3-x4 edge cost it received from x4, untouched
    rec = Recorder()
    _forced_sim(fig1, fig1_force, on_event=rec).run_to_quiescence()
    aggs = [e for e in rec.sent if e.kind is Kind.AGG_FITNESS]
    assert len(aggs) == 1
    assert (aggs[0].sender, aggs[0].recipient) == ("x3", "x1")
    assert aggs[0].fitness.tolist() == pytest.approx([274.75, 1.0], abs=1e-9)


def test_worked_example_leaf_message_counts(fig1, fig1_force):
    rec = Recorder()
    _forced_sim(fig1, fig1_force, on_event=rec).run_to_quiescence()
    x4 = rec.sent_by("x4")
    assert x4[(0, Kind.EDGE_FITNESS)] == 2   # to x1 and x3
    assert not any(kind is Kind.AGG_FITNESS for _, kind in x4)
    # x2 has an empty L: it never emits VALUE or AGG_FITNESS
    assert not any(kind in (Kind.VALUE, Kind.AGG_FITNESS, Kind.UPDATE)
                   for _, kind in rec.sent_by("x2"))


def test_root_first_aggregation_round(fig1, fig1_force):
    # VALUE (round 1) -> edge costs (round 2) -> x3's aggregate (round 3)
    sim = _forced_sim(fig1, fig1_force)
    trace = sim.run_to_quiescence()
    assert trace.rows[0].round == 3


def test_two_agent_iteration_period():
    problem = Problem(
        domains={"x1": ContinuousDomain(-5, 5), "x2": ContinuousDomain(-5, 5)},
        constraints=[
            __import__("swarmdcop").Constraint(
                "x1", "x2", __import__("swarmdcop").QuadraticCost(1, 1, 1)
            )
        ],
    )
    trace = Simulator(problem, SwarmParams(K=4, seed=1), 5).run_to_quiescence()
    # each aggregation lands 2 rounds after the positions left the root
    assert [row.round for row in trace.rows] == [2, 4, 6, 8, 10]


def test_single_agent_runs_with_zero_fitness():
    problem = Problem(domains={"x1": ContinuousDomain(-1, 1)}, constraints=[])
    trace = run(problem, SwarmParams(K=3, seed=5), 10)
    assert [row.gbest_fitness for row in trace.rows] == [0.0] * 10


def test_trace_is_deterministic():
    problem = generate(GenSpec(topology="erdos_renyi", n=8, seed=21, p=0.3))
    params = SwarmParams(K=16, seed=4)
    a = run(problem, params, 40).to_csv()
    b = run(problem, params, 40).to_csv()
    assert a == b


def test_observing_a_run_leaves_its_trace_unchanged():
    problem = generate(GenSpec(topology="scale_free", n=9, seed=3, m=2))
    params = SwarmParams(K=12, seed=6)
    rec = Recorder()
    observed = Simulator(problem, params, 30, on_event=rec).run_to_quiescence()
    assert rec.sent and rec.moved and rec.judged and rec.rounds
    assert observed.to_csv() == run(problem, params, 30).to_csv()


def test_trace_csv_roundtrip():
    problem = generate(GenSpec(topology="random_tree", n=5, seed=2))
    trace = run(problem, SwarmParams(K=8, seed=8), 12)
    again = parse_trace_csv(trace.to_csv())
    assert again.to_csv() == trace.to_csv()


def test_anytime_gbest_never_increases():
    for seed in range(5):
        problem = generate(GenSpec(topology="erdos_renyi", n=10, seed=seed, p=0.25))
        series = run(problem, SwarmParams(K=20, seed=seed), 60).gbest_series()
        assert all(b <= a for a, b in zip(series, series[1:]))


def test_root_fitness_conserves_global_cost():
    problem = generate(GenSpec(topology="erdos_renyi", n=7, seed=33, p=0.4))
    params = SwarmParams(K=6, seed=12)
    rec = Recorder()
    Simulator(problem, params, 15, on_event=rec).run_to_quiescence()
    positions = {a: rec.positions(a) for a in problem.ids}
    fitness_by_iteration = rec.fitness()
    assert sorted(fitness_by_iteration) == list(range(15))
    for t, fitness in fitness_by_iteration.items():
        for k in range(params.K):
            assignment = {a: float(positions[a][t][k]) for a in problem.ids}
            expected = global_cost(problem, assignment)
            assert abs(fitness[k] - expected) <= 1e-9 * max(1.0, abs(expected))


def test_message_counts_match_formula():
    problem = generate(GenSpec(topology="erdos_renyi", n=9, seed=14, p=0.35))
    tree = build_bfs_pseudotree(problem)
    iterations = 12
    rec = Recorder()
    Simulator(problem, SwarmParams(K=5, seed=3), iterations, on_event=rec).run_to_quiescence()
    for agent in problem.ids:
        sent = rec.sent_by(agent)
        h, l = len(tree.H[agent]), len(tree.L[agent])
        agg = 1 if (agent != tree.root and l > 0) else 0
        # iteration 0 sends VALUE instead of UPDATE; afterwards the formula
        # |L| + |H| + (non-root with lower neighbors) holds exactly per tag
        assert sent[(0, Kind.VALUE)] == l
        assert sent[(0, Kind.EDGE_FITNESS)] == h
        assert sent[(0, Kind.AGG_FITNESS)] == agg
        for t in range(1, iterations):
            assert sent[(t, Kind.UPDATE)] == l
            assert sent[(t, Kind.EDGE_FITNESS)] == h
            assert sent[(t, Kind.AGG_FITNESS)] == agg
        # the final verdict floods down but triggers no further evaluation
        assert sent[(iterations, Kind.UPDATE)] == l
        assert sent[(iterations, Kind.EDGE_FITNESS)] == 0


def test_best_info_propagation_bound():
    # every agent applies verdict t within depth(agent) rounds of its emission
    problem = generate(GenSpec(topology="scale_free", n=12, seed=6, m=2))
    tree = build_bfs_pseudotree(problem)
    rec = Recorder()
    trace = Simulator(problem, SwarmParams(K=4, seed=9), 10, on_event=rec).run_to_quiescence()
    emitted = {row.iteration - 1: row.round for row in trace.rows}
    applied = [m for m in rec.moved if m.iteration > 0]  # moved by verdict iteration - 1
    assert len(applied) == 10 * problem.n_agents
    for m in applied:
        assert m.round <= emitted[m.iteration - 1] + tree.depth[m.agent]


def test_quiescence_leaves_no_pending_state():
    # every agent ends holding its H's final positions, which no one evaluates;
    # the ER graph has cross edges, whose final positions come by UPDATE
    for spec in (GenSpec(topology="random_tree", n=6, seed=18),
                 GenSpec(topology="erdos_renyi", n=20, seed=0, p=0.2)):
        sim = Simulator(generate(spec), SwarmParams(K=4, seed=7), 8)
        sim.run_to_quiescence()
        assert sim.quiescent
        for machine in sim.machines:
            assert machine.done
            assert set(machine.held) == set(machine.H)
            assert (machine.fold_total, machine.folded) == (None, 0)
            assert not machine.early


def test_agent_machines_carry_no_attribute_dict(fig1):
    # one machine per agent: an attribute dict raised peak RSS by 9% at n=1600;
    # and set-up assigns every slot, so a slot no code uses fails here
    sim = Simulator(fig1, SwarmParams(K=2, seed=0), 1)
    for machine in sim.machines:
        assert not hasattr(machine, "__dict__")
        assert [name for name in AgentMachine.__slots__ if not hasattr(machine, name)] == []


def test_only_recipients_fire_in_ordinal_order(monkeypatch):
    # the queue is reversed before every round: firing follows the ordinals,
    # not the order in which envelopes were queued
    problem, params, T = generate(GenSpec("scale_free", 30, 2, m=2)), SwarmParams(K=4, seed=5), 10
    expected = Simulator(problem, params, T).run_to_quiescence().to_csv()
    fired = []
    fire = AgentMachine.fire

    def spy(machine, round_no, inbox):
        fired.append(machine.ordinal)
        return fire(machine, round_no, inbox)

    monkeypatch.setattr(AgentMachine, "fire", spy)
    sim = Simulator(problem, params, T)
    while not sim.quiescent:
        sim.queue.reverse()
        recipients = sorted({problem.ordinals[env.recipient] for env in sim.queue})
        fired.clear()
        report = sim.step()
        assert fired == recipients
        assert report.fired == len(recipients)
    assert sim.trace.to_csv() == expected


def test_best_assignment_costs_the_final_gbest(fig1, fig1_force):
    sim = _forced_sim(fig1, fig1_force)
    sim.run_to_quiescence()
    assert sim.best_assignment() == {"x1": 3.5, "x2": 4.9, "x3": 1.0, "x4": 0.0}  # P2
    for seed in range(3):
        problem = generate(GenSpec(topology="erdos_renyi", n=10, seed=seed, p=0.3))
        sim = Simulator(problem, SwarmParams(K=16, seed=seed), 40)
        final = sim.run_to_quiescence().final_gbest
        assert global_cost(problem, sim.best_assignment()) == pytest.approx(final, rel=1e-9)


def test_deadlock_detection_names_blocked_agents(fig1, fig1_force):
    sim = _forced_sim(fig1, fig1_force)
    sim.queue = [e for e in sim.queue if e.recipient != "x2"]  # lose x2's VALUE
    with pytest.raises(RuntimeError, match=r"(?s)deadlock.*x2@iter 0 awaiting values"):
        sim.run_to_quiescence()


def _run_shuffled(sim, seed):
    """Drive `sim` to quiescence, delivering each round's envelopes in a
    shuffled order and holding about a quarter of them back 1-3 extra
    rounds, all drawn from one SplitMix64 stream."""
    rng = SplitMix64(seed)
    held = []  # (round of delivery, envelope)
    while held or not sim.quiescent:
        now = sim.round + 1
        due = [env for r, env in held if r == now]
        held = [(r, env) for r, env in held if r != now]
        for env in sim.queue:
            if rng.random() < 0.25:
                held.append((now + 1 + rng.below(3), env))
            else:
                due.append(env)
        for k in range(len(due) - 1, 0, -1):
            m = rng.below(k + 1)
            due[k], due[m] = due[m], due[k]
        sim.queue = due
        sim.step()
    return sim.trace


@pytest.mark.parametrize("schedule", [1, 2, 3])
@pytest.mark.parametrize("spec", [
    GenSpec("erdos_renyi", 12, 8, p=0.4),
    GenSpec("scale_free", 14, 3, m=2),
    GenSpec("random_tree", 13, 5),
], ids=["er", "scale-free", "tree"])
def test_results_do_not_depend_on_the_schedule(spec, schedule):
    problem, params = generate(spec), SwarmParams(K=6, seed=schedule)
    synchronous, shuffled = Recorder(), Recorder()
    sim = Simulator(problem, params, 25, on_event=synchronous)
    expected = sim.run_to_quiescence().gbest_series()
    other = Simulator(problem, params, 25, on_event=shuffled)
    got = _run_shuffled(other, (17 << 8) | schedule).gbest_series()
    assert other.round > sim.round  # the held envelopes did delay the run
    assert got == expected == centralized_gcpso(problem, params, 25).gbest_series()
    assert (other.cum_envelopes, other.cum_scalars) == (sim.cum_envelopes, sim.cum_scalars)
    assert len(shuffled.judged) == len(synchronous.judged) == 25
    for a, b in zip(shuffled.judged, synchronous.judged):
        assert a.fitness.tobytes() == b.fitness.tobytes()


def _fitness_envelope(sim, recipient):
    """Step `sim` until a fitness envelope for `recipient` is queued."""
    while True:
        sim.step()
        for env in sim.queue:
            if env.recipient == recipient and env.kind is Kind.EDGE_FITNESS:
                return env


def test_duplicate_fitness_envelope_raises(fig1, fig1_force):
    sim = _forced_sim(fig1, fig1_force, iterations=3)
    env = _fitness_envelope(sim, "x1")
    sim.queue.append(replace(env))
    match = f"x1: duplicate EDGE_FITNESS from {env.sender} for iteration 0"
    with pytest.raises(RuntimeError, match=match):
        sim.run_to_quiescence()


def test_late_fitness_envelope_raises(fig1, fig1_force):
    sim = _forced_sim(fig1, fig1_force, iterations=3)
    env = _fitness_envelope(sim, "x3")  # x4's edge cost, which x3 forwards at once
    sim.step()
    assert sim.machines[2].fitness_next == 1
    sim.queue.append(replace(env))
    match = "x3: EDGE_FITNESS from x4 for iteration 0 arrived while folding iteration 1"
    with pytest.raises(RuntimeError, match=match):
        sim.run_to_quiescence()


def test_positions_from_outside_h_raise(fig1, fig1_force):
    sim = _forced_sim(fig1, fig1_force, iterations=3)
    # x4 is in x3's L: it sends x3 edge costs, never positions
    sim.queue.append(Envelope(Kind.VALUE, 0, "x4", "x3", values=np.zeros(2)))
    match = r"x3: VALUE from x4 for iteration 0, but x4 is not in x3's H"
    with pytest.raises(RuntimeError, match=match):
        sim.run_to_quiescence()


@pytest.mark.parametrize("delay, match", [
    (0, "x3: duplicate VALUE from x1 for iteration 0"),  # while held
    (2, "x3: duplicate VALUE from x1 for iteration 0"),  # after x3 sent its edge costs
    (3, "x3: VALUE from x1 for iteration 0 arrived at iteration 1"),  # after verdict 0
])
def test_duplicate_positions_raise(fig1, fig1_force, delay, match):
    sim = _forced_sim(fig1, fig1_force, iterations=3)
    value = next(env for env in sim.queue if (env.sender, env.recipient) == ("x1", "x3"))
    for _ in range(delay):
        sim.step()
    sim.queue.append(replace(value))  # delivered `delay` rounds after the original
    with pytest.raises(RuntimeError, match=match):
        sim.run_to_quiescence()


@pytest.mark.parametrize("delay", [0, 2])
def test_duplicate_final_update_raises(fig1, fig1_force, delay):
    sim = _forced_sim(fig1, fig1_force, iterations=3)
    while (final := next((env for env in sim.queue if env.kind is Kind.UPDATE and env.iteration == 3
                          and (env.sender, env.recipient) == ("x1", "x3")), None)) is None:
        sim.step()
    for _ in range(delay):
        sim.step()
    sim.queue.append(replace(final))  # delivered `delay` rounds after the original
    with pytest.raises(RuntimeError, match="x3: duplicate UPDATE from x1 for iteration 3"):
        sim.run_to_quiescence()


def test_update_with_a_verdict_ahead_raises(fig1, fig1_force):
    sim = _forced_sim(fig1, fig1_force, iterations=3)
    while not any(env.kind is Kind.UPDATE for env in sim.queue):
        sim.step()
    update = next(env for env in sim.queue if env.recipient == "x3")  # verdict 0, positions 1
    # x3 applies verdict 0 first, but has not yet sent its edge costs of iteration 1
    sim.queue.append(replace(update, iteration=2, best=replace(update.best, iteration=1)))
    match = ("x3: UPDATE from x1 for iteration 2 carries the verdict of iteration 1 "
             "before x3's edge costs of it")
    with pytest.raises(RuntimeError, match=match):
        sim.run_to_quiescence()


def test_unowed_fitness_envelope_raises(fig1, fig1_force):
    sim = _forced_sim(fig1, fig1_force, iterations=3)
    env = _fitness_envelope(sim, "x1")
    # x2 owes x1 an edge cost, but no aggregate: its L is empty
    sim.queue.append(replace(env, kind=Kind.AGG_FITNESS, sender="x2"))
    match = "x1: AGG_FITNESS from x2 for iteration 0, which x2 does not owe x1"
    with pytest.raises(RuntimeError, match=match):
        sim.run_to_quiescence()


class _Snapshots:
    """A `Simulator(on_event=...)` callable that keeps every array of every
    `Envelope` and `Moved` record with its bytes when it was emitted."""

    def __init__(self):
        self.taken = []

    def __call__(self, event):
        if isinstance(event, Envelope):
            arrays = [event.values, event.fitness, event.best and event.best.improved]
        elif isinstance(event, Moved):
            arrays = [event.position]
        else:
            return
        self.taken.extend((a, a.tobytes()) for a in arrays if a is not None)


@pytest.mark.parametrize("schedule", [None, 4], ids=["synchronous", "shuffled"])
def test_records_are_never_written_after_they_are_emitted(schedule):
    # blocks are stepped again and again: no step may write into an array
    # that an envelope or a record already carries
    problem, params = generate(GenSpec("scale_free", 40, 6, m=3)), SwarmParams(K=6, seed=2)
    snapshots = _Snapshots()
    sim = Simulator(problem, params, 15, on_event=snapshots)
    if schedule is None:
        sim.run_to_quiescence()
    else:
        _run_shuffled(sim, schedule)
    assert len(snapshots.taken) > sim.cum_envelopes
    for array, taken in snapshots.taken:
        assert array.tobytes() == taken


def test_trace_counters_count_the_envelopes_sent_before_each_verdict():
    # the root fires alone in a round in which it judges, so a row that
    # counts the whole round's sends counts the root's and no one else's
    problem, params = generate(GenSpec("scale_free", 40, 6, m=3)), SwarmParams(K=6, seed=2)
    events = []
    sim = Simulator(problem, params, 15, on_event=events.append)
    rows = iter(_run_shuffled(sim, 4).rows)
    envelopes = scalars = 0
    senders = set()  # of the records emitted so far this round
    judged = False   # this round: its verdicts are its last records
    for event in events:
        if isinstance(event, Envelope):
            assert not judged
            envelopes += 1
            scalars += envelope_scalars(event, params.K)
            senders.add(event.sender)
        elif isinstance(event, Moved):
            assert not judged
            senders.add(event.agent)
        elif isinstance(event, Judged):
            row = next(rows)
            assert row.iteration == event.best.iteration + 1
            assert (row.envelopes, row.scalars) == (envelopes, scalars)
            assert senders == {sim.root.id}
            judged = True
        else:  # the round's RoundReport
            senders.clear()
            judged = False
    assert next(rows, None) is None


def _components(sim):
    return [(m.state.position.tobytes(), m.state.velocity.tobytes(),
             m.state.pbest_component.tobytes()) for m in sim.machines]


def test_blocks_of_a_few_agents_change_no_result(monkeypatch):
    problem, params, T = generate(GenSpec("scale_free", 40, 7, m=2)), SwarmParams(K=4, seed=21), 20
    default = Simulator(problem, params, T)
    default.run_to_quiescence()

    made = []   # every swarm made
    steps = []  # (verdict, swarm) per Swarm.step
    moves = []  # one per apply_best: a block step

    def tracked(self, *args, init=swarm.Swarm.__init__):
        made.append(self)
        init(self, *args)

    def spy(self, best, step=swarm.Swarm.step):
        steps.append((id(best), id(self)))
        step(self, best)

    def counted(*args, apply=swarm.apply_best):
        moves.append(None)
        apply(*args)

    monkeypatch.setattr(swarm.Swarm, "__init__", tracked)
    monkeypatch.setattr(swarm.Swarm, "step", spy)
    monkeypatch.setattr(swarm, "apply_best", counted)
    monkeypatch.setattr(swarm, "BLOCK_ELEMENTS", 3 * params.K)  # blocks of 3 agents

    def check_blocks_and_steps(sim, rec):
        # the set-up's swarm is the only one, every verdict steps it once,
        # and each step moves its blocks of 3 agents once each
        assert made == [sim.swarm]
        assert Counter(steps) == Counter((id(j.best), id(sim.swarm)) for j in rec.judged)
        assert len(rec.judged) == T
        assert len(moves) == T * -(-problem.n_agents // 3)

    # synchronous
    rec = Recorder()
    sim = Simulator(problem, params, T, on_event=rec)
    assert made == [sim.swarm]
    assert sim.run_to_quiescence().to_csv() == default.trace.to_csv()
    check_blocks_and_steps(sim, rec)
    assert _components(sim) == _components(default)
    assert sim.trace.gbest_series() == centralized_gcpso(problem, params, T).gbest_series()

    # shuffled: rounds move agents of several levels, under the same blocks
    made.clear()
    steps.clear()
    moves.clear()
    rec = Recorder()
    shuffled = Simulator(problem, params, T, on_event=rec)
    assert _run_shuffled(shuffled, 5).gbest_series() == default.trace.gbest_series()
    check_blocks_and_steps(shuffled, rec)
    assert _components(shuffled) == _components(default)
    depths = {}
    for moved in rec.moved:
        depths.setdefault(moved.round, set()).add(shuffled.tree.depth[moved.agent])
    assert max(len(d) for d in depths.values()) >= 2


def test_a_lone_agent_applies_every_verdict_in_one_round():
    # any other agent needs verdict t before its edge costs let the root judge
    # t+1; a lone root judges and moves all iterations in round 0, in order
    domain, params, T = ContinuousDomain(-2.0, 3.0), SwarmParams(K=5, seed=8), 6
    rec = Recorder()
    Simulator(Problem(domains={"x1": domain}, constraints=[]), params, T,
              on_event=rec).run_to_quiescence()
    assert [(m.round, m.iteration) for m in rec.moved] == [(0, t) for t in range(T + 1)]
    state = fresh_state(params.K, domain, params.seed, 0)
    root = RootState(np.full(params.K, np.inf))
    for t in range(T):
        best = root_update(root, np.zeros(params.K), params, t)
        apply_best(state, best, params, domain, keyed_uniforms(params.seed, 0, t, DRAW_R1, params.K),
                   keyed_uniforms(params.seed, 0, t, DRAW_R2, params.K))
        assert rec.moved[t + 1].position.tobytes() == state.position.tobytes()


def _assert_agent_major(sim):
    """Every machine's components are views of row `ordinal` of the swarm's
    agent-major arrays, its positions of the (n, K) `position`."""
    position = sim.swarm.position
    assert position.shape == (sim.problem.n_agents, sim.params.K)
    for machine in sim.machines:
        state = machine.state
        assert machine.position.flags.c_contiguous
        assert machine.position.ctypes.data == position[machine.ordinal].ctypes.data
        assert state.position.ctypes.data == position[machine.ordinal].ctypes.data
        for f in ("position", "velocity", "pbest_component"):
            row = getattr(state, f)
            assert row.shape == (sim.params.K,) and row.flags.c_contiguous
            assert row.base is not None and row.base.shape[1:] == (sim.params.K,)


@pytest.mark.parametrize("schedule", [None, 3], ids=["synchronous", "shuffled"])
@pytest.mark.parametrize("problem", [
    Problem(domains={"x1": ContinuousDomain(-2.0, 3.0)}, constraints=[]),
    generate(GenSpec("scale_free", 14, 3, m=2)),
], ids=["lone-agent", "scale-free"])
def test_every_block_is_agent_major(problem, schedule):
    sim = Simulator(problem, SwarmParams(K=6, seed=2), 5)
    _assert_agent_major(sim)
    if schedule is None:
        sim.run_to_quiescence()
    else:
        _run_shuffled(sim, schedule)
    _assert_agent_major(sim)


def test_a_verdict_the_swarm_was_not_stepped_under_raises(fig1, fig1_force):
    # a copy of the verdict, equal to it field by field, is not the verdict
    # the root stepped the swarm under
    sim = _forced_sim(fig1, fig1_force, iterations=2)
    while not any(env.kind is Kind.UPDATE for env in sim.queue):
        sim.step()
    env = next(env for env in sim.queue if env.kind is Kind.UPDATE)
    env.best = replace(env.best)
    with pytest.raises(RuntimeError, match=(
            rf"^{env.recipient}: UPDATE from {env.sender} for iteration 1 carries a verdict "
            r"of iteration 0 that the swarm was not stepped under$")):
        sim.step()


def test_a_nan_fitness_raises_in_both_solvers():
    # a*x1^2 overflows to inf and b*x1*x2 to -inf; where both do, the cost is NaN
    problem = Problem(domains={a: ContinuousDomain(0.0, 160.0) for a in ("x1", "x2")},
                      constraints=[Constraint("x1", "x2", QuadraticCost(1e304, -1e304, 0.0))])
    params = SwarmParams(K=8, seed=4)
    match = "iteration 0: the fitness of particle 3 is NaN"
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match=match):
            run(problem, params, 5)
        with pytest.raises(ValueError, match=match):
            centralized_gcpso(problem, params, 5)


def test_force_init_validation(fig1):
    params = SwarmParams(K=2, seed=0)
    with pytest.raises(ValueError, match="missing agents"):
        Simulator(fig1, params, 1, force_init={"x1": [0.0, 0.0]})
    with pytest.raises(ValueError, match=r"unknown agents: \['x9'\]"):
        Simulator(fig1, params, 1, force_init={a: [0.0, 0.0] for a in fig1.ids + ["x9"]})
    bad = {a: [0.0, 0.0] for a in fig1.ids}
    bad["x2"] = [0.0, 99.0]  # outside [-10, 10]
    with pytest.raises(ValueError, match="outside the domain"):
        Simulator(fig1, params, 1, force_init=bad).run_to_quiescence()
    poisoned = {a: [0.0, 0.0] for a in fig1.ids}
    poisoned["x3"] = [float("nan"), 0.0]
    with pytest.raises(ValueError, match="finite"):
        Simulator(fig1, params, 1, force_init=poisoned).run_to_quiescence()


def test_a_swarm_beyond_physical_memory_is_refused_before_allocating(fig1):
    # 3 * 8 * 4 * 2**50 bytes: positions, velocities and personal bests; the
    # check comes first, so this allocates nothing
    params = SwarmParams(K=2**50, seed=0)
    match = rf"^a swarm of n=4 agents by K={2**50} particles needs {96 * 2**50} bytes"
    with pytest.raises(MemoryError, match=match):
        Simulator(fig1, params, 1)
    with pytest.raises(MemoryError, match=match):
        centralized_gcpso(fig1, params, 1)


def test_update_envelopes_batch_values_and_verdict(fig1, fig1_force):
    rec = Recorder()
    _forced_sim(fig1, fig1_force, iterations=3, on_event=rec).run_to_quiescence()
    updates = [e for e in rec.sent if e.kind is Kind.UPDATE]
    assert updates, "expected UPDATE traffic"
    for env in updates:
        assert env.values is not None and env.best is not None
        assert env.best.iteration == env.iteration - 1
    values_only = [e for e in rec.sent if e.kind is Kind.VALUE]
    assert all(e.iteration == 0 and e.best is None for e in values_only)


def test_envelope_scalars_accounting(fig1, fig1_force):
    rec = Recorder()
    sim = _forced_sim(fig1, fig1_force, iterations=2, on_event=rec)
    sim.run_to_quiescence()
    K = 2
    expected = 0
    for env in rec.sent:
        expected += envelope_scalars(env, K)
    assert sim.cum_scalars == expected
    assert sim.cum_envelopes == len(rec.sent)
    assert sum(r.delivered for r in rec.rounds) == len(rec.sent)


def test_iterations_must_be_positive(fig1):
    with pytest.raises(ValueError):
        Simulator(fig1, SwarmParams(K=2, seed=0), 0)


def test_event_log_streams_rounds_and_verdicts(fig1, fig1_force):
    rec = Recorder()
    sim = Simulator(fig1, SwarmParams(K=2, seed=0), 2,
                    force_init=fig1_force, on_event=rec)
    sim.run_to_quiescence()
    assert (rec.judged[0].round, rec.judged[0].best.iteration) == (3, 0)
    assert [r.round for r in rec.rounds] == list(range(1, sim.round + 1))
    assert sum(r.sent for r in rec.rounds) + rec.rounds[0].delivered == sim.cum_envelopes


def test_rho_reacts_over_a_long_run():
    # sanity: the controller actually moves rho away from 1.0 on a real run
    problem = generate(GenSpec(topology="erdos_renyi", n=6, seed=77, p=0.5))
    rec = Recorder()
    sim = Simulator(problem, SwarmParams(K=8, seed=3, max_sc=2, max_fc=2), 60, on_event=rec)
    sim.run_to_quiescence()
    rho = rec.judged[-1].best.rho
    assert rho == sim.root.root_state.rho
    assert rho != 1.0
    assert math.frexp(rho)[0] == 0.5
