import copy
import hashlib
import math
import pickle
import re
import struct
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from swarmdcop import (
    Constraint,
    ContinuousDomain,
    GenSpec,
    Problem,
    ProtocolError,
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
from swarmdcop.rng import DRAW_R1, DRAW_R2, keyed_uniforms
from swarmdcop.runtime import (AgentMachine, Envelope, Judged, Kind, Moved, Simulator,
                               envelope_scalars, parse_trace_csv)
from swarmdcop.swarm import RootState, apply_best, fresh_state, root_update

from conftest import FIG1_FITNESS_P1, FIG1_FITNESS_P2, Recorder, run_shuffled


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
    assert sim.swarm.root.pbest_fitness.tolist() == pytest.approx([94.25, 32.99], abs=1e-9)


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
    # a lone agent judges every iteration in round 0 and sends nothing
    problem = Problem(domains={"x1": ContinuousDomain(-1, 1)}, constraints=[])
    sim = Simulator(problem, SwarmParams(K=3, seed=5), 10)
    trace = sim.run_to_quiescence()
    assert [row.gbest_fitness for row in trace.rows] == [0.0] * 10
    assert [(row.round, row.envelopes, row.scalars) for row in trace.rows] == [(0, 0, 0)] * 10
    assert (sim.round, sim.cum_envelopes, sim.cum_scalars) == (0, 0, 0)


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


@pytest.mark.parametrize("text, shown", [
    ("", "[]"),
    ("iteration,round,gbest\n1,3,0.5\n", "['iteration,round,gbest']"),
])
def test_trace_csv_with_a_bad_header_is_rejected(text, shown):
    with pytest.raises(ValueError, match=f"^bad trace header: {re.escape(shown)}$"):
        parse_trace_csv(text)


@pytest.mark.parametrize("rows, message", [
    ("1,3,0.5", "trace line 2: expected 5 fields, got 3"),
    ("1,3,0.5,7,8,9", "trace line 2: expected 5 fields, got 6"),
    ("1,3,0.5,7,8\n2,x,0.25,9,10", "trace line 3: invalid literal for int() with base 10: 'x'"),
    ("1,3,x,7,8", "trace line 2: could not convert string to float: 'x'"),
], ids=["too-few", "too-many", "int", "float"])
def test_trace_csv_with_a_bad_row_names_its_line(rows, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        parse_trace_csv(f"{runtime.TRACE_HEADER}\n{rows}\n")


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
        # the final UPDATEs go down but trigger no further evaluation
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


@pytest.mark.parametrize("spec", [
    GenSpec("erdos_renyi", 16, 4, p=0.3),
    GenSpec("erdos_renyi", 24, 9, p=0.15),
    GenSpec("scale_free", 30, 5, m=2),
    GenSpec("scale_free", 40, 8, m=3),
    GenSpec("random_tree", 15, 6),
], ids=["er16", "er24", "sf30", "sf40", "tree"])
def test_verdict_t_moves_each_agent_depth_rounds_after_the_root_judged_it(spec):
    # synchronous delivery: the verdict goes down one tree level per round, so
    # an agent at depth d moves exactly d rounds after the root judged it
    problem = generate(spec)
    tree = build_bfs_pseudotree(problem)
    rec = Recorder()
    Simulator(problem, SwarmParams(K=4, seed=3), 12, on_event=rec).run_to_quiescence()
    judged = {j.best.iteration: j.round for j in rec.judged}
    moves = [m for m in rec.moved if m.iteration > 0]  # by verdict iteration - 1
    assert len(moves) == 12 * problem.n_agents
    assert [m.round for m in moves] == [judged[m.iteration - 1] + tree.depth[m.agent]
                                        for m in moves]


def test_quiescence_leaves_no_pending_state():
    # every agent ends holding a marker for each H member's final UPDATE,
    # which carries no positions; the ER graph has edges off the tree, whose
    # final UPDATE carries no payload at all
    for spec in (GenSpec(topology="random_tree", n=6, seed=18),
                 GenSpec(topology="erdos_renyi", n=20, seed=0, p=0.2)):
        sim = Simulator(generate(spec), SwarmParams(K=4, seed=7), 8)
        sim.run_to_quiescence()
        assert sim.quiescent
        for machine in sim.machines:
            assert machine.done
            # the final UPDATEs of all of H, and nothing else
            assert list(machine.held) == machine.H
            assert all(values is runtime._FINAL for values in machine.held.values())
            assert machine.n_held == len(machine.H)
            # no fold in progress: every fold was summed and sent or judged
            assert machine.n_parts == 0
            assert machine.fitness_next == (8 if machine.is_root or machine.L else 0)
            # nothing held early: every fold slot is empty
            assert machine.parts == [None] * len(machine.slots)


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


def test_set_up_fires_the_root_alone(monkeypatch):
    # set-up sends each agent's initial positions, in ordinal order, its
    # Moved record first if observed; round 0 fires only the root
    problem = generate(GenSpec("scale_free", 30, 2, m=2))
    fired = []
    fire = AgentMachine.fire

    def spy(machine, round_no, inbox):
        fired.append((round_no, machine.ordinal, len(inbox)))
        return fire(machine, round_no, inbox)

    monkeypatch.setattr(AgentMachine, "fire", spy)
    events = []
    sim = Simulator(problem, SwarmParams(K=4, seed=5), 10, on_event=events.append)
    assert fired == [(0, sim.root.ordinal, 0)]
    expected = []
    for agent, machine in zip(problem.ids, sim.machines):
        expected.append(("moved", agent, 0))
        expected += [(Kind.VALUE, agent, 0, j) for j in machine.L]
    assert [("moved", e.agent, e.iteration) if isinstance(e, Moved)
            else (e.kind, e.sender, e.iteration, e.recipient) for e in events] == expected
    assert sim.queue == [e for e in events if isinstance(e, Envelope)]
    assert sim.cum_envelopes == len(problem.constraints)


@pytest.mark.parametrize("problem", [
    Problem(domains={"x1": ContinuousDomain(-1.0, 1.0)}, constraints=[]),
    generate(GenSpec("scale_free", 30, 2, m=2)),
], ids=["lone", "sf30"])
def test_an_unobserved_run_builds_no_moved_record(monkeypatch, problem):
    def refuse(*args):
        raise AssertionError("Moved record built")

    monkeypatch.setattr(runtime, "Moved", refuse)
    params = SwarmParams(K=4, seed=5)
    assert len(Simulator(problem, params, 10).run_to_quiescence().rows) == 10
    with pytest.raises(AssertionError, match="Moved record built"):
        Simulator(problem, params, 10, on_event=Recorder())


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


@pytest.mark.parametrize("lost, folded", [
    ((Kind.EDGE_FITNESS, "x2"), 0),  # slot 0: the later slots arrive, none is summed
    ((Kind.AGG_FITNESS, "x3"), 3),   # slot 3, the last
])
def test_deadlock_detection_names_the_fitness_wait(fig1, fig1_force, lost, folded):
    sim = _forced_sim(fig1, fig1_force)
    while sim.queue:
        sim.queue = [e for e in sim.queue if (e.kind, e.sender) != lost]
        sim.step()
    with pytest.raises(RuntimeError) as info:
        sim.run_to_quiescence()
    assert re.search(rf"(?m)^  x1@iter 0 awaiting fitness\(0\): {folded}/4 folded$",
                     str(info.value))


def test_deadlock_detection_names_the_verdict_wait(fig1, fig1_force):
    sim = _forced_sim(fig1, fig1_force, iterations=3)
    while sim.queue:
        sim.queue = [e for e in sim.queue if (e.kind, e.recipient) != (Kind.UPDATE, "x2")]
        sim.step()
    text = ("deadlock: no envelopes in flight but agents are blocked:\n"
            "  x1@iter 1 awaiting fitness(1): 0/4 folded\n"
            "  x2@iter 0 awaiting verdict(0)\n"
            "  x3@iter 1 awaiting fitness(2): 0/1 folded\n"
            "  x4@iter 1 awaiting verdict(1)")
    with pytest.raises(RuntimeError, match=f"^{re.escape(text)}$"):
        sim.run_to_quiescence()


class _StreamDigest:
    """A `Simulator(on_event=...)` callable that hashes every record as it is
    emitted: each envelope's kind, iteration, sender, recipient and payload
    bytes, each `Moved` agent's positions, each `Judged` fitness vector and
    each `RoundReport`."""

    def __init__(self):
        self.hash = hashlib.sha256()

    def __call__(self, event):
        update = self.hash.update
        if isinstance(event, Envelope):
            update(f"E {event.kind.value} {event.iteration} {event.sender} "
                   f"{event.recipient}".encode())
            for array in (event.values, event.fitness):
                update(b"-" if array is None else array.tobytes())
            best = event.best
            if best is not None:
                update(struct.pack("<qqd?d", best.iteration, int(best.gbest_index),
                                   float(best.gbest_fitness), bool(best.gbest_changed),
                                   float(best.rho)) + best.improved.tobytes())
        elif isinstance(event, Moved):
            update(f"M {event.round} {event.agent} {event.iteration}".encode()
                   + event.position.tobytes())
        elif isinstance(event, Judged):
            update(f"J {event.round} {event.best.iteration}".encode() + event.fitness.tobytes())
        else:
            update(f"R {event.round} {event.delivered} {event.fired} {event.sent}".encode())


# sha256 of the whole event stream and the trace CSV, recorded when the
# verdict went down the tree edges only (the synchronous streams' earlier
# values were reproduced from that change's streams with the verdict put back
# on each UPDATE off the tree, each agent's UPDATEs in L order and the rows'
# scalars put back; the shuffled schedules deliver a reordered queue, so
# theirs differ in rounds too), and re-recorded when the verdict's K flags
# came to travel packed 8 to a byte (all four earlier values were reproduced
# with each verdict's bytes hashed as the K-flag mask they pack and K + 4
# scalars counted per verdict); any change to the envelopes, their order or
# their payloads changes them
STREAM_DIGESTS = {
    ("sf200-k8", "synchronous"): "14a0109a3e35c1c36654a433e6b2d351c4a73def61d33800aa9840f97cfe0af9",
    ("sf200-k8", "shuffled"): "d1d1cade2a10cff81df2255134f4a25e09ea3edac685d76580049299e2ff4daf",
    ("er20-k16", "synchronous"): "8d1e95f86172994b1c93e1e426ba7b444595a37dcf86307d5b7807bba39bf672",
    ("er20-k16", "shuffled"): "c93054ff3b24793f17b5387c270da87756aeea08a337ea164f11ea094337bb70",
}


@pytest.mark.parametrize("case, schedule", sorted(STREAM_DIGESTS))
def test_the_event_stream_keeps_its_bits(case, schedule):
    if case == "sf200-k8":
        problem, params, T = generate(GenSpec("scale_free", 200, 4, m=2)), SwarmParams(K=8, seed=3), 5
    else:
        problem, params, T = generate(GenSpec("erdos_renyi", 20, 6, p=0.2)), SwarmParams(K=16, seed=5), 30
    digest = _StreamDigest()
    sim = Simulator(problem, params, T, on_event=digest)
    trace = sim.run_to_quiescence() if schedule == "synchronous" else run_shuffled(sim, 7)
    digest.hash.update(trace.to_csv().encode())
    assert digest.hash.hexdigest() == STREAM_DIGESTS[case, schedule]


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
    got = run_shuffled(other, (17 << 8) | schedule).gbest_series()
    assert other.round > sim.round  # the held envelopes did delay the run
    assert got == expected == centralized_gcpso(problem, params, 25).gbest_series()
    assert (other.cum_envelopes, other.cum_scalars) == (sim.cum_envelopes, sim.cum_scalars)
    assert len(shuffled.judged) == len(synchronous.judged) == 25
    for a, b in zip(shuffled.judged, synchronous.judged):
        assert a.fitness.tobytes() == b.fitness.tobytes()


@st.composite
def _runs(draw):
    """A problem, solver parameters, an iteration count and a schedule seed:
    any topology, 1-15 agents, coefficients up to 1e307, domain widths down
    to 1e-300, 1-8 particles, and any w, c1, c2 and clamping."""
    topology = draw(st.sampled_from(["erdos_renyi", "scale_free", "random_tree"]))
    n = draw(st.integers(2 if topology == "scale_free" else 1, 15))
    scale = draw(st.floats(1.0, 10.0)) * 10.0 ** draw(st.integers(-3, 306))
    width = 10.0 ** draw(st.integers(-300, 3))
    lower = width * draw(st.floats(-2.0, 1.0))
    spec = GenSpec(topology, n, draw(st.integers(0, 2**32)), coeff_range=(-scale, scale),
                   domain=ContinuousDomain(lower, lower + width), p=draw(st.floats(0.3, 1.0)),
                   m=draw(st.integers(1, max(1, min(3, n - 1)))))
    coefficient = st.floats(0.0, 4.0)
    params = SwarmParams(K=draw(st.integers(1, 8)), w=draw(coefficient), c1=draw(coefficient),
                         c2=draw(coefficient), clamp_velocity=draw(st.booleans()),
                         seed=draw(st.integers(0, 2**64 - 1)))
    return generate(spec), params, draw(st.integers(1, 6)), draw(st.integers(0, 2**64 - 1))


def _outcome(solve):
    """What `solve()` returned, or the text of the ValueError it raised."""
    try:
        return solve(), None
    except ValueError as exc:
        return None, str(exc)


# few draws reach a NaN fitness (about 1 in 500): this one always does, at
# particle 3 of iteration 0
_NAN_RUN = (Problem(domains={a: ContinuousDomain(0.0, 160.0) for a in ("x1", "x2")},
                    constraints=[Constraint("x1", "x2", QuadraticCost(1e304, -1e304, 0.0))]),
            SwarmParams(K=8, seed=4), 5, 3)


@settings(max_examples=100, deadline=None)
@given(_runs())
@example(_NAN_RUN)
def test_every_schedule_gives_the_centralized_result(run_args):
    # overflowing costs are part of the draw: an inf fitness compares as a
    # number, and a NaN one raises the same ValueError in every solver
    problem, params, T, schedule = run_args
    with np.errstate(all="ignore"):
        expected, error = _outcome(lambda: centralized_gcpso(problem, params, T))
        synchronous, shuffled = (Simulator(problem, params, T) for _ in range(2))
        assert _outcome(synchronous.run_to_quiescence)[1] == error
        assert _outcome(lambda: run_shuffled(shuffled, schedule))[1] == error
    if error is not None:
        return
    series = [repr(g) for g in expected.gbest_series()]
    assert [repr(g) for g in synchronous.trace.gbest_series()] == series
    assert [repr(g) for g in shuffled.trace.gbest_series()] == series
    assert repr(shuffled.best_assignment()) == repr(synchronous.best_assignment())
    assert ((shuffled.cum_envelopes, shuffled.cum_scalars)
            == (synchronous.cum_envelopes, synchronous.cum_scalars))


def _fitness_envelope(sim, recipient):
    """Step `sim` until a fitness envelope for `recipient` is queued."""
    while True:
        sim.step()
        for env in sim.queue:
            if env.recipient == recipient and env.kind is Kind.EDGE_FITNESS:
                return env


def _assert_protocol_error(run, text, agent, kind, sender, iteration):
    """`run()` raises a ProtocolError whose message is exactly `text`, with
    these fields."""
    with pytest.raises(ProtocolError, match=f"^{re.escape(text)}$") as info:
        run()
    error = info.value
    assert (error.agent, error.kind, error.sender, error.iteration) == (
        agent, kind, sender, iteration)


def test_duplicate_fitness_envelope_raises(fig1, fig1_force):
    sim = _forced_sim(fig1, fig1_force, iterations=3)
    env = _fitness_envelope(sim, "x1")
    sim.queue.append(replace(env))
    text = f"x1: duplicate EDGE_FITNESS from {env.sender} for iteration 0"
    _assert_protocol_error(sim.run_to_quiescence, text, "x1", Kind.EDGE_FITNESS, env.sender, 0)


def test_late_fitness_envelope_raises(fig1, fig1_force):
    sim = _forced_sim(fig1, fig1_force, iterations=3)
    env = _fitness_envelope(sim, "x3")  # x4's edge cost, which x3 forwards at once
    sim.step()
    assert sim.machines[2].fitness_next == 1
    sim.queue.append(replace(env))
    text = "x3: EDGE_FITNESS from x4 for iteration 0 arrived while folding iteration 1"
    _assert_protocol_error(sim.run_to_quiescence, text, "x3", Kind.EDGE_FITNESS, "x4", 0)


def test_positions_from_outside_h_raise(fig1, fig1_force):
    sim = _forced_sim(fig1, fig1_force, iterations=3)
    # x4 is in x3's L: it sends x3 edge costs, never positions
    sim.queue.append(Envelope(Kind.VALUE, 0, "x4", "x3", values=np.zeros(2)))
    text = "x3: VALUE from x4 for iteration 0, but x4 is not in x3's H"
    _assert_protocol_error(sim.run_to_quiescence, text, "x3", Kind.VALUE, "x4", 0)


@pytest.mark.parametrize("delay, text", [
    (0, "x3: duplicate VALUE from x1 for iteration 0"),  # while held
    (2, "x3: duplicate VALUE from x1 for iteration 0"),  # after x3 sent its edge costs
    (3, "x3: VALUE from x1 for iteration 0 arrived at iteration 1"),  # after verdict 0
])
def test_duplicate_positions_raise(fig1, fig1_force, delay, text):
    sim = _forced_sim(fig1, fig1_force, iterations=3)
    value = next(env for env in sim.queue if (env.sender, env.recipient) == ("x1", "x3"))
    for _ in range(delay):
        sim.step()
    sim.queue.append(replace(value))  # delivered `delay` rounds after the original
    _assert_protocol_error(sim.run_to_quiescence, text, "x3", Kind.VALUE, "x1", 0)


@pytest.mark.parametrize("delay", [0, 2])
def test_duplicate_final_update_raises(fig1, fig1_force, delay):
    sim = _forced_sim(fig1, fig1_force, iterations=3)
    while (final := next((env for env in sim.queue if env.kind is Kind.UPDATE and env.iteration == 3
                          and (env.sender, env.recipient) == ("x1", "x3")), None)) is None:
        sim.step()
    for _ in range(delay):
        sim.step()
    sim.queue.append(replace(final))  # delivered `delay` rounds after the original
    text = "x3: duplicate UPDATE from x1 for iteration 3"
    _assert_protocol_error(sim.run_to_quiescence, text, "x3", Kind.UPDATE, "x1", 3)


@pytest.mark.parametrize("iteration, values, text", [
    (2, None, "x3: UPDATE from x1 for iteration 2 carries no positions before the final "
              "iteration 3"),
    (3, np.zeros(2), "x3: UPDATE from x1 for iteration 3 carries positions, but iteration 3 "
                     "is the final one"),
], ids=["positions-missing", "final-with-positions"])
def test_an_update_whose_payload_does_not_fit_its_iteration_raises(fig1, fig1_force, iteration,
                                                                   values, text):
    sim = _forced_sim(fig1, fig1_force, iterations=3)
    while (update := next((env for env in sim.queue if env.kind is Kind.UPDATE
                           and env.iteration == iteration and env.recipient == "x3"),
                          None)) is None:
        sim.step()
    update.values = values  # the original, in flight: no duplicate
    _assert_protocol_error(sim.run_to_quiescence, text, "x3", Kind.UPDATE, "x1", iteration)


def test_a_value_without_positions_raises(fig1, fig1_force):
    sim = _forced_sim(fig1, fig1_force, iterations=3)
    next(env for env in sim.queue if env.recipient == "x3").values = None
    text = "x3: VALUE from x1 for iteration 0 carries no positions before the final iteration 3"
    _assert_protocol_error(sim.run_to_quiescence, text, "x3", Kind.VALUE, "x1", 0)


def test_update_with_a_verdict_ahead_raises(fig1, fig1_force):
    sim = _forced_sim(fig1, fig1_force, iterations=3)
    while not any(env.kind is Kind.UPDATE for env in sim.queue):
        sim.step()
    update = next(env for env in sim.queue if env.recipient == "x3")  # verdict 0, positions 1
    # x3 applies verdict 0 first, but has not yet sent its edge costs of iteration 1
    sim.queue.append(replace(update, iteration=2, best=replace(update.best, iteration=1)))
    text = ("x3: UPDATE from x1 for iteration 2 carries the verdict of iteration 1 "
            "before x3's edge costs of it")
    _assert_protocol_error(sim.run_to_quiescence, text, "x3", Kind.UPDATE, "x1", 2)


def _x4_verdict_withheld(sim):
    """Step `sim` until x1's UPDATE of iteration 1 to x4 is queued, take it out
    of the queue, then step once more: x3's UPDATE to x4 is queued."""
    while (verdict := next((env for env in sim.queue if env.kind is Kind.UPDATE
                            and (env.sender, env.recipient) == ("x1", "x4")), None)) is None:
        sim.step()
    sim.queue.remove(verdict)
    sim.step()
    return verdict, next(env for env in sim.queue if (env.sender, env.recipient) == ("x3", "x4"))


@pytest.mark.parametrize("delay", [1, 2])
def test_an_update_that_comes_before_the_parents_verdict_is_held(fig1, fig1_force, delay):
    # x3 -> x4 is fig1's one UPDATE off the tree: x3's positions, no verdict,
    # which x4 takes from its parent x1 alone. Delayed by `delay` rounds, x1's
    # UPDATE comes after x3's: in the same inbox, or a round later.
    expected_rec, rec = Recorder(), Recorder()
    expected = _forced_sim(fig1, fig1_force, iterations=3, on_event=expected_rec)
    expected.run_to_quiescence()
    sim = _forced_sim(fig1, fig1_force, iterations=3, on_event=rec)
    x4 = sim.machines[3]
    verdict, early = _x4_verdict_withheld(sim)
    assert early.best is None and early.iteration == 1
    if delay == 2:
        sim.step()
        # x4 holds x3's positions of iteration 1 at iteration 0, its edge
        # costs of 0 out and none of 1
        assert (x4.own_iter, x4.edge_done_iter, x4.n_held) == (0, 0, 1)
        assert x4.held["x1"] is None and x4.held["x3"] is early.values
        assert not any(e.sender == "x4" and e.iteration == 1 for e in rec.sent)
    sim.queue.append(verdict)  # after x3's
    trace = sim.run_to_quiescence()
    costs = [e for e in rec.sent if (e.kind, e.sender, e.iteration) == (Kind.EDGE_FITNESS, "x4", 1)]
    assert [e.recipient for e in costs] == ["x1", "x3"]
    if delay == 1:
        assert trace.to_csv() == expected.trace.to_csv()
    assert trace.gbest_series() == expected.trace.gbest_series()
    assert [j.fitness.tobytes() for j in rec.judged] == [
        j.fitness.tobytes() for j in expected_rec.judged]
    assert sim.best_assignment() == expected.best_assignment()


def test_an_update_from_the_parent_without_its_verdict_raises(fig1, fig1_force):
    sim = _forced_sim(fig1, fig1_force, iterations=3)
    while (update := next((env for env in sim.queue if env.kind is Kind.UPDATE
                           and env.recipient == "x3"), None)) is None:
        sim.step()
    update.best = None  # the original, in flight: no duplicate
    text = "x3: UPDATE from x1 for iteration 1 carries no verdict, but x1 is x3's parent"
    _assert_protocol_error(sim.run_to_quiescence, text, "x3", Kind.UPDATE, "x1", 1)


def test_a_verdict_off_the_tree_raises(fig1, fig1_force):
    sim = _forced_sim(fig1, fig1_force, iterations=3)
    verdict, early = _x4_verdict_withheld(sim)
    early.best = verdict.best  # the very verdict the swarm was stepped under
    text = "x4: UPDATE from x3 for iteration 1 carries a verdict, but x3 is not x4's parent"
    _assert_protocol_error(sim.run_to_quiescence, text, "x4", Kind.UPDATE, "x3", 1)


@pytest.mark.parametrize("withheld, text", [
    # x4 at iteration 0, its edge costs of 0 out: it holds iteration 1 early
    (True, "x4: UPDATE from x3 for iteration 2 arrived at iteration 0"),
    # x4 at iteration 1, its edge costs of 1 not out: no verdict 1 exists
    (False, "x4: UPDATE from x3 for iteration 2 arrived at iteration 1"),
], ids=["two-ahead", "ahead-of-the-edge-costs"])
def test_an_update_ahead_of_what_can_be_held_early_raises(fig1, fig1_force, withheld, text):
    sim = _forced_sim(fig1, fig1_force, iterations=3)
    verdict, early = _x4_verdict_withheld(sim)
    if not withheld:
        sim.queue.insert(0, verdict)  # before x3's
    early.iteration = 2
    _assert_protocol_error(sim.run_to_quiescence, text, "x4", Kind.UPDATE, "x3", 2)


@pytest.mark.parametrize("reason", [None, " arrived at iteration 1"], ids=["duplicate", "late"])
@pytest.mark.parametrize("round_trip", [lambda e: pickle.loads(pickle.dumps(e)), copy.copy,
                                        copy.deepcopy],
                         ids=["pickle", "copy", "deepcopy"])
def test_a_protocol_error_round_trips_with_its_fields(reason, round_trip):
    error = ProtocolError("x3", Envelope(Kind.UPDATE, 2, "x1", "x3"), reason)
    again = round_trip(error)
    assert type(again) is ProtocolError and str(again) == str(error)
    assert (again.agent, again.kind, again.sender, again.iteration, again.reason) == (
        "x3", Kind.UPDATE, "x1", 2, reason)


def test_unowed_fitness_envelope_raises(fig1, fig1_force):
    sim = _forced_sim(fig1, fig1_force, iterations=3)
    env = _fitness_envelope(sim, "x1")
    # x2 owes x1 an edge cost, but no aggregate: its L is empty
    sim.queue.append(replace(env, kind=Kind.AGG_FITNESS, sender="x2"))
    text = "x1: AGG_FITNESS from x2 for iteration 0, which x2 does not owe x1"
    _assert_protocol_error(sim.run_to_quiescence, text, "x1", Kind.AGG_FITNESS, "x2", 0)


@pytest.mark.parametrize("schedule", [None, 8], ids=["synchronous", "shuffled"])
@pytest.mark.parametrize("spec", [
    GenSpec("erdos_renyi", 16, 4, p=0.3),
    GenSpec("scale_free", 30, 5, m=2),
    GenSpec("random_tree", 15, 6),
], ids=["er", "scale-free", "tree"])
def test_edge_costs_read_only_what_was_delivered(monkeypatch, spec, schedule):
    # the operands of each edge cost are this agent's own positions and the
    # very array its H member's envelope of that iteration delivered to it,
    # never a read of another agent's state
    problem, T = generate(spec), 10
    delivered = {}  # (recipient, sender, iteration) -> positions
    own = {}        # (agent, iteration) -> positions
    operands = []   # (agent, H member, iteration, xi, xj)
    fire, send = AgentMachine.fire, AgentMachine._send_edge_costs

    def receiving(machine, round_no, inbox):
        for env in inbox:
            if env.values is not None:
                key = (machine.id, env.sender, env.iteration)
                assert key not in delivered
                delivered[key] = env.values
        return fire(machine, round_no, inbox)

    def sending(machine):
        batch = machine.edge_batch
        start = len(batch.envelopes)
        send(machine)
        for env, xi, xj in zip(batch.envelopes[start:], batch.xi[start:], batch.xj[start:]):
            operands.append((machine.id, env.recipient, env.iteration, xi, xj))

    def record(event):
        if isinstance(event, Moved):
            own[event.agent, event.iteration] = event.position

    monkeypatch.setattr(AgentMachine, "fire", receiving)
    monkeypatch.setattr(AgentMachine, "_send_edge_costs", sending)
    sim = Simulator(problem, SwarmParams(K=5, seed=4), T, on_event=record)
    if schedule is None:
        sim.run_to_quiescence()
    else:
        run_shuffled(sim, schedule)
    assert len(operands) == T * len(problem.constraints)
    for agent, h, t, xi, xj in operands:
        theirs, mine = delivered[agent, h, t], own[agent, t]
        expected = (theirs, mine) if problem.adjacency[agent][h].i == h else (mine, theirs)
        assert xi is expected[0] and xj is expected[1]


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
        run_shuffled(sim, schedule)
    assert len(snapshots.taken) > sim.cum_envelopes
    for array, taken in snapshots.taken:
        assert array.tobytes() == taken


def test_trace_counters_count_the_envelopes_sent_before_each_verdict():
    # the root fires alone in a round in which it judges, so a row that
    # counts the whole round's sends counts the root's and no one else's
    problem, params = generate(GenSpec("scale_free", 40, 6, m=3)), SwarmParams(K=6, seed=2)
    events = []
    sim = Simulator(problem, params, 15, on_event=events.append)
    rows = iter(run_shuffled(sim, 4).rows)
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
    assert run_shuffled(shuffled, 5).gbest_series() == default.trace.gbest_series()
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
        run_shuffled(sim, schedule)
    _assert_agent_major(sim)


def test_a_verdict_the_swarm_was_not_stepped_under_raises(fig1, fig1_force):
    # a copy of the verdict, equal to it field by field, is not the verdict
    # the root stepped the swarm under
    sim = _forced_sim(fig1, fig1_force, iterations=2)
    while not any(env.kind is Kind.UPDATE for env in sim.queue):
        sim.step()
    env = next(env for env in sim.queue if env.kind is Kind.UPDATE)
    env.best = replace(env.best)
    text = (f"{env.recipient}: UPDATE from {env.sender} for iteration 1 carries a verdict "
            "of iteration 0 that the swarm was not stepped under")
    _assert_protocol_error(sim.step, text, env.recipient, Kind.UPDATE, env.sender, 1)


def test_a_nan_fitness_raises_in_both_solvers():
    shapes = [
        # a*x1^2 overflows to inf and b*x1*x2 to -inf; where both do, the cost
        # is NaN
        ([Constraint("x1", "x2", QuadraticCost(1e304, -1e304, 0.0))],
         "iteration 0: the fitness of particle 3 is NaN: the cost of constraints[0] (x1, x2) "
         "is NaN"),
        # the same edge after a finite one and before one that costs inf at
        # particle 3
        ([Constraint("x2", "x3", QuadraticCost(1.0, 0.0, 1.0)),
          Constraint("x1", "x2", QuadraticCost(1e304, -1e304, 0.0)),
          Constraint("x1", "x3", QuadraticCost(1e304, -1e304, 0.0))],
         "iteration 0: the fitness of particle 3 is NaN: the cost of constraints[1] (x1, x2) "
         "is NaN"),
        # every edge cost is a number, but inf plus -inf is not (x3-x4 costs
        # inf too, after x2-x3)
        ([Constraint("x1", "x2", QuadraticCost(1.0, 0.0, 1.0)),
          Constraint("x1", "x3", QuadraticCost(0.0, 0.0, -1e304)),
          Constraint("x2", "x3", QuadraticCost(0.0, 0.0, 1e304)),
          Constraint("x3", "x4", QuadraticCost(1e304, 0.0, 0.0))],
         "iteration 0: the fitness of particle 4 is NaN: constraints[2] (x2, x3) costs inf and "
         "constraints[1] (x1, x3) costs -inf"),
    ]
    params = SwarmParams(K=8, seed=4)
    for constraints, message in shapes:
        agents = sorted({a for con in constraints for a in (con.i, con.j)})
        problem = Problem(domains={a: ContinuousDomain(0.0, 160.0) for a in agents},
                          constraints=constraints)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                run(problem, params, 5)
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
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
    sim = _forced_sim(fig1, fig1_force, iterations=3, on_event=rec)
    sim.run_to_quiescence()
    updates = [e for e in rec.sent if e.kind is Kind.UPDATE]
    assert updates, "expected UPDATE traffic"
    for env in updates:
        # positions on every UPDATE but the final ones, which no agent costs
        assert (env.values is None) == (env.iteration == 3)
        # the verdict goes down the tree edges only
        assert (env.best is not None) == (env.recipient in sim.tree.children[env.sender])
        if env.best is not None:
            assert env.best.iteration == env.iteration - 1
    assert len([e for e in updates if e.iteration == 3]) == len(fig1.constraints)
    # x3 -> x4 is the one edge off the tree
    assert {(e.sender, e.recipient) for e in updates if e.best is None} == {("x3", "x4")}
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


@pytest.mark.parametrize("schedule", [None, 6], ids=["synchronous", "shuffled"])
@pytest.mark.parametrize("spec", [
    GenSpec("erdos_renyi", 12, 8, p=0.4),
    GenSpec("scale_free", 14, 3, m=2),
    GenSpec("random_tree", 13, 5),
], ids=["er", "scale-free", "tree"])
def test_scalars_count_the_final_update_as_its_verdict(spec, schedule):
    # E VALUEs, T*E edge costs and T*A aggregates of K; (T-1)*E UPDATEs of K
    # positions, E final UPDATEs without; a ceil(K/64)+4 verdict on each of
    # the n-1 tree edges per iteration, whichever particles improved
    problem, K, T = generate(spec), 7, 9
    sim = Simulator(problem, SwarmParams(K=K, seed=2), T)
    trace = sim.run_to_quiescence() if schedule is None else run_shuffled(sim, schedule)
    E, n = len(problem.constraints), problem.n_agents
    A = sum(1 for a in problem.ids if a != sim.tree.root and sim.tree.L[a])
    verdict = -(-K // 64) + 4  # one word of flags at K=7, gbest index/value/changed, rho
    assert sim.cum_envelopes == (2 * T + 1) * E + T * A
    assert sim.cum_scalars == 2 * K * T * E + K * T * A + verdict * T * (n - 1)
    # the last row counts the root's final UPDATEs, to its children, and no
    # one else's
    root_finals = len(sim.tree.children[sim.tree.root])
    assert trace.rows[-1].scalars == (K * E + K * T * E + K * T * A + K * (T - 1) * E
                                      + verdict * ((T - 1) * (n - 1) + root_finals))


@pytest.mark.parametrize("K", [1, 3, 65])
def test_a_verdict_costs_its_packed_flags_and_one_naming_no_particle_keeps_every_pbest(K):
    domain, params = ContinuousDomain(-10.0, 10.0), SwarmParams(K=K, seed=1)
    root, state = RootState(np.full(K, np.inf)), fresh_state(K, domain, 1, 0)
    r1, r2 = np.full(K, 0.25), np.full(K, 0.75)
    verdict = -(-K // 64) + 4  # ceil(K/64) words of flags, gbest index/value/changed, rho
    first = root_update(root, np.arange(K, dtype=float), params, t=0)
    assert first.improved_flags(K).all()
    apply_best(state, first, params, domain, r1, r2)
    position = state.position
    assert envelope_scalars(Envelope(Kind.UPDATE, 1, "x1", "x2", position, None, first),
                            K) == K + verdict
    none = root_update(root, np.arange(K, dtype=float) + 1.0, params, t=1)
    assert not none.improved_flags().any()
    assert envelope_scalars(Envelope(Kind.UPDATE, 2, "x1", "x2", None, None, none), K) == verdict
    pbest = state.pbest_component
    assert position.tobytes() != pbest.tobytes()  # the gbest particle moved by rho
    apply_best(state, none, params, domain, r1, r2)
    assert state.pbest_component.tobytes() == pbest.tobytes()


def test_iterations_must_be_positive(fig1):
    with pytest.raises(ValueError):
        Simulator(fig1, SwarmParams(K=2, seed=0), 0)


@pytest.mark.parametrize("iterations, message", [
    (2.5, "iterations must be an integer, got 2.5"),
    (True, "iterations must be an integer, got True"),
    ("3", "iterations must be an integer, got '3'"),
    (0, "iterations must be >= 1"),
], ids=["float", "bool", "str", "zero"])
@pytest.mark.parametrize("solve", [
    lambda problem, params, iterations: Simulator(problem, params, iterations).run_to_quiescence(),
    centralized_gcpso,
], ids=["distributed", "centralized"])
def test_iterations_must_be_a_positive_integer(fig1, solve, iterations, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        solve(fig1, SwarmParams(K=2, seed=0), iterations)


def test_a_numpy_integer_runs_as_many_iterations(fig1):
    params = SwarmParams(K=3, seed=4)
    expected = run(fig1, params, 3).to_csv()
    assert Simulator(fig1, params, np.int64(3)).run_to_quiescence().to_csv() == expected
    assert len(centralized_gcpso(fig1, params, np.int64(3)).rows) == 3


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
    assert rho == sim.swarm.root.rho
    assert rho != 1.0
    assert math.frexp(rho)[0] == 0.5
