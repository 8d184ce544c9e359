"""Agent state machines on a deterministic round-based message simulator.

One machine per agent. Each iteration runs two phases over the pseudo-tree:

* Evaluation: an agent holding this iteration's positions from all its
  higher-priority neighbors computes the shared edge costs and sends each one
  to its higher endpoint; agents with lower-priority neighbors sum everything
  they receive (edge costs from L members, aggregates from children) and
  forward the sum to their parent, so each edge is counted exactly once and
  the totals telescope to the root. Each sum folds its contributions in the
  pseudo-tree's fixed slot order (`PseudoTree.fitness_slots`), not in
  arrival order, so every fitness vector is bit-identical under any
  delivery schedule and equals the centralized oracle's.
* Update: the root judges the aggregated fitness vector and steps the one
  rho controller, then the verdict, which carries rho, travels back down.
  Every agent applies the same verdict with the same rule and draws its
  velocity randomness from keyed streams.

An agent keeps only live state. It applies a verdict when the first UPDATE
carrying it arrives: verdict t is judged only after the agent's edge costs
of t, so an UPDATE carries the agent's next verdict or one it has applied.
It holds the positions of the iteration it is at, one vector per H member,
until its edge costs go out: an H member reaches t+1 only under verdict t,
which needed the agent's edge costs of t. The final iteration's positions
are held too, but never costed. Any other VALUE or UPDATE raises,
naming the agent, kind, sender and iteration, as a late, duplicate or unowed
fitness contribution does.

Delivery is synchronous: an envelope sent in round r arrives in round r+1,
and only the agents with mail fire, in ordinal order whatever the order of
the queue. Runs are bit-reproducible from (problem, params).

The swarm steps once per verdict. All agents share one `swarm.Swarm`, as
the centralized oracle holds one, and when the root judges iteration t it
steps the swarm under the verdict (`Swarm.step`). A step writes into no
array, so generation t stays intact for the envelopes, held positions and
records that carry it. Agent o reads row o of generation t's (n, K)
positions until it applies verdict t; then its `position` is row o of t+1,
which its UPDATEs carry. The root cannot judge t+1 before every agent has
applied t, since that needs their edge costs of t+1. So the verdict an
agent applies is the one the swarm was last stepped under, the same
object, or the run raises.

Each round is one superstep. Every agent with mail fires: it absorbs its
inbox and runs the protocol, queuing its edge costs. Absorbing, folding and
routing an envelope are a few dict lookups each, with no scan over agents,
neighbors or slots. Then long runs of the round's edge costs are evaluated
with one gathered `evaluate_edge` call each. Last, each agent's records and
envelopes go out, in firing order; the round's sends are counted once, and
then the root's verdicts are written to the trace. The root judges only in
a round in which it fires alone, so each trace row counts the envelopes
sent up to and including the root's. Every element is computed as the
per-agent call computes it, and the fixed fold order makes the order of the
work within a round irrelevant, so batching changes no result.

A run is observed through one optional callable, `Simulator(on_event=...)`,
which receives every sent `Envelope`, every `Moved` agent, every `Judged`
iteration and every round's `RoundReport` as they happen. Without it the
runtime keeps no record beyond the trace and its counters.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain
from typing import Callable

import numpy as np

from .model import Problem, QuadraticCost, cost_columns, evaluate_edge
from .pseudotree import PseudoTree, build_bfs_pseudotree
from .swarm import (AgentSwarmState, BestInfo, RootState, Swarm, SwarmParams, block_rows,
                    iteration_count, root_update)


# A run of at least this many edge costs in one round is evaluated as one
# gathered call, a shorter one edge by edge. Gathering every run (a threshold
# of 1) did not pay end to end: solve_s 1.03-1.15x on er20-k2000, whose runs
# are all shorter than 12, against 0.93-1.16x on er20-k200 and 1.00x on
# sf1600-k50 (in process, alternating, medians of 5-9 solves, 2 vCPUs).
GATHERED_EDGES = 12


class Kind(Enum):
    VALUE = "VALUE"
    EDGE_FITNESS = "EDGE_FITNESS"
    AGG_FITNESS = "AGG_FITNESS"
    UPDATE = "UPDATE"


# the members bound to module names: on CPython 3.11 reading `Kind.UPDATE`
# takes ten times as long as reading a global, and the hot path tests kinds
# once per envelope
_VALUE, _EDGE_FITNESS, _AGG_FITNESS, _UPDATE = Kind


@dataclass(slots=True)
class Envelope:
    """One message. `iteration` tags the positions (VALUE/UPDATE) or the
    fitness vector (EDGE_FITNESS/AGG_FITNESS) it carries; an UPDATE for
    iteration t+1 piggybacks the verdict of iteration t in `best`."""

    kind: Kind
    iteration: int
    sender: str
    recipient: str
    values: np.ndarray | None = None
    fitness: np.ndarray | None = None
    best: BestInfo | None = None


def envelope_scalars(env: Envelope, K: int) -> int:
    """Payload size in scalars: K per vector; UPDATE = positions + verdict."""
    if env.kind is _UPDATE:
        return 2 * K + 4  # K positions, K improved flags, gbest index/value/changed, rho
    return K


@dataclass(slots=True)
class TraceRow:
    iteration: int        # 1-based count of completed Evaluation+Update cycles
    round: int            # simulator round in which the root judged it
    gbest_fitness: float
    envelopes: int        # cumulative envelopes sent, all agents
    scalars: int          # cumulative payload scalars sent, all agents


TRACE_HEADER = "iteration,round,gbest_fitness,envelopes,scalars"


@dataclass
class AnytimeTrace:
    rows: list[TraceRow] = field(default_factory=list)

    @property
    def final_gbest(self) -> float:
        return self.rows[-1].gbest_fitness

    def gbest_series(self) -> list[float]:
        return [r.gbest_fitness for r in self.rows]

    def to_csv(self) -> str:
        lines = [TRACE_HEADER]
        for r in self.rows:
            lines.append(f"{r.iteration},{r.round},{r.gbest_fitness!r},{r.envelopes},{r.scalars}")
        return "\n".join(lines) + "\n"

    def write_csv(self, path):
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(self.to_csv())


def parse_trace_csv(text: str) -> AnytimeTrace:
    lines = [ln for ln in text.splitlines() if ln]
    if not lines or lines[0] != TRACE_HEADER:
        raise ValueError(f"bad trace header: {lines[:1]}")
    rows = []
    for ln in lines[1:]:
        it, rnd, gbest, env, sc = ln.split(",")
        rows.append(TraceRow(int(it), int(rnd), float(gbest), int(env), int(sc)))
    return AnytimeTrace(rows)


@dataclass(slots=True)
class Moved:
    """An agent's components of all K particles from `iteration` on; iteration 0
    is the initial position. Emitted in the round the agent moved."""

    round: int
    agent: str
    iteration: int
    position: np.ndarray


@dataclass(slots=True)
class Judged:
    """The root's verdict on iteration `best.iteration` and the aggregated
    fitness vector it judged, in the round the trace row was written."""

    round: int
    best: BestInfo
    fitness: np.ndarray


@dataclass(slots=True)
class RoundReport:
    round: int
    delivered: int
    fired: int
    sent: int


class AgentMachine:
    """One agent: holds its swarm components, acts only on received envelopes.
    Its edge costs are queued for the simulator's batched evaluation."""

    # slots: there is one instance per agent, and on CPython 3.11 an instance
    # with more than 26 attributes carries a 1.6 KB attribute dict, not 0.3 KB
    __slots__ = ("id", "ordinal", "max_iterations", "is_root", "H", "L",
                 "parent", "slots", "constraint_with", "swarm", "position",
                 "edge_costs", "moved", "initialized",
                 "own_iter", "edge_done_iter", "fitness_next", "held", "fold_total", "folded",
                 "early", "root_state", "completed")

    def __init__(self, agent_id: str, problem: Problem, tree: PseudoTree,
                 max_iterations: int, on_event, swarm: Swarm, edge_costs: list):
        self.id = agent_id
        self.ordinal = problem.ordinals[agent_id]
        self.max_iterations = max_iterations
        self.is_root = agent_id == tree.root
        self.H = tree.H[agent_id]
        self.L = tree.L[agent_id]
        self.parent = tree.parent.get(agent_id)
        self.slots = tree.fitness_slots[agent_id]
        constraints = problem.adjacency[agent_id]
        self.constraint_with = {nbr: constraints[nbr] for nbr in self.H}

        # the swarm, shared by all agents, which the root steps under each
        # verdict it judges; `position` is this agent's row of the generation
        # it is at: the latest one from the moment it applies the swarm's
        # verdict, the one before until then
        self.swarm = swarm
        self.position = swarm.position[self.ordinal]
        # the round's edge costs, a queue shared by all agents and worked off
        # by the simulator: (agent, held positions of H, its EDGE_FITNESS
        # envelopes) per iteration costed, whose arrays it fills in; and, if
        # observed, this agent's Moved records to emit
        self.edge_costs = edge_costs
        self.moved: list[Moved] | None = [] if on_event is not None else None
        self.initialized = False
        self.own_iter = 0               # iteration of the current positions
        self.edge_done_iter = -1
        self.fitness_next = 0           # next iteration to aggregate / judge
        self.held: dict[str, np.ndarray] = {}  # H member -> positions of own_iter
        # the fold of iteration fitness_next: the sum of slots 0 .. folded-1
        # (None before the first) and the contributions that arrived ahead of
        # their slot's turn (None until the first does)
        self.fold_total: np.ndarray | None = None
        self.folded = 0
        self.early: dict[int, np.ndarray] | None = None
        # root-only running bests, rho controller and completed verdicts
        self.root_state = RootState(np.full(swarm.params.K, np.inf)) if self.is_root else None
        self.completed: list[tuple[int, BestInfo, np.ndarray]] | None = (
            [] if self.is_root else None)

    @property
    def gbest_index(self) -> int:
        return self.root_state.gbest_index

    @property
    def state(self) -> AgentSwarmState:
        """This agent's components of the K particles in the swarm's latest
        generation (`Swarm.row`). Mid-run that may be one generation ahead
        of `position`: the root steps the swarm when it judges, and the
        agent moves on when it applies that verdict."""
        return self.swarm.row(self.ordinal)

    @property
    def done(self) -> bool:
        return self.own_iter >= self.max_iterations

    def fire(self, round_no: int, inbox: list[Envelope]) -> list[Envelope]:
        """Absorb `inbox` and run the protocol as far as it goes; return the
        envelopes sent, whose edge costs the simulator fills in this round.
        A VALUE or UPDATE applies its verdict on arrival, if not applied yet,
        and its positions are held until this agent's edge costs go out (the
        final ones for good: no edge costs go out on them).
        Raises on a VALUE or UPDATE the protocol cannot send this agent now,
        on a verdict other than the one the swarm was stepped under, and on
        a fitness contribution that is late, duplicate or not owed (see
        `_fold`)."""
        out: list[Envelope] = []
        if not self.initialized:
            self.initialized = True
            if self.moved is not None:
                self.moved.append(Moved(round_no, self.id, 0, self.position))
            for j in self.L:
                out.append(Envelope(_VALUE, 0, self.id, j, self.position))
        held = self.held
        for env in inbox:
            kind = env.kind
            if kind is not _VALUE and kind is not _UPDATE:
                self._fold(env)
                continue
            sender, t, best = env.sender, env.iteration, env.best
            if sender not in self.constraint_with:
                raise RuntimeError(
                    f"{self.id}: {kind.value} from {sender} for iteration {t}, "
                    f"but {sender} is not in {self.id}'s H")
            if best is not None and best.iteration >= self.own_iter:
                if best.iteration != self.edge_done_iter:
                    raise RuntimeError(
                        f"{self.id}: {kind.value} from {sender} for iteration {t} carries the "
                        f"verdict of iteration {best.iteration} before {self.id}'s edge costs of it")
                if best is not self.swarm.verdict:
                    raise RuntimeError(
                        f"{self.id}: {kind.value} from {sender} for iteration {t} carries a "
                        f"verdict of iteration {best.iteration} that the swarm was not "
                        f"stepped under")
                self._apply_update(best, round_no, out)
            if t != self.own_iter:
                raise RuntimeError(
                    f"{self.id}: {kind.value} from {sender} for iteration {t} arrived "
                    f"at iteration {self.own_iter}")
            if t == self.edge_done_iter or sender in held:
                raise RuntimeError(
                    f"{self.id}: duplicate {kind.value} from {sender} for iteration {t}")
            held[sender] = env.values

        if held and len(held) == len(self.H) and self.own_iter < self.max_iterations:
            self._send_edge_costs(out)
        if self.is_root:
            # one verdict per completed fold; a lone root's folds are empty,
            # so it judges and applies every iteration in its first firing
            while self.own_iter < self.max_iterations and self.folded == len(self.slots):
                self._apply_update(self._judge(), round_no, out)
        elif self.L and self.folded == len(self.slots):
            t = self.fitness_next
            out.append(Envelope(_AGG_FITNESS, t, self.id, self.parent, None, self._take_sum()))
            self.fitness_next = t + 1
        return out

    def _fold(self, env: Envelope):
        """Fold one fitness contribution in slot order, holding it if an
        earlier slot is still missing. Raises on a late or duplicate one, or
        one its sender does not owe."""
        t = env.iteration
        if t != self.fitness_next:
            raise RuntimeError(
                f"{self.id}: {env.kind.value} from {env.sender} for iteration {t} arrived "
                f"while folding iteration {self.fitness_next}")
        slot = self.slots.get((env.sender, env.kind is _AGG_FITNESS))
        if slot is None:
            raise RuntimeError(
                f"{self.id}: {env.kind.value} from {env.sender} for iteration {t}, "
                f"which {env.sender} does not owe {self.id}")
        folded, early = self.folded, self.early
        if slot != folded:
            if slot < folded or early is not None and slot in early:
                raise RuntimeError(
                    f"{self.id}: duplicate {env.kind.value} from {env.sender} for iteration {t}")
            if early is None:
                early = self.early = {}
            early[slot] = env.fitness
            return
        # out of place: envelopes stay immutable records
        total = env.fitness if folded == 0 else self.fold_total + env.fitness
        folded += 1
        if early:
            while folded in early:
                total = total + early.pop(folded)
                folded += 1
        self.fold_total, self.folded = total, folded

    def _take_sum(self) -> np.ndarray:
        total, self.fold_total, self.folded = self.fold_total, None, 0
        return total

    def _apply_update(self, best: BestInfo, round_no: int, out: list[Envelope]):
        """Move on to the positions the swarm's step under `best` made and
        send them down."""
        self.own_iter = t = best.iteration + 1
        self.position = position = self.swarm.position[self.ordinal]
        if self.moved is not None:
            self.moved.append(Moved(round_no, self.id, t, position))
        # the final verdict still floods down so every agent consumes it; the
        # `done` guard on the evaluation phase stops the cascade afterwards
        for j in self.L:
            out.append(Envelope(_UPDATE, t, self.id, j, position, None, best))

    def _send_edge_costs(self, out: list[Envelope]):
        """Send this iteration's edge costs on the held positions of H; the
        simulator evaluates them this round (see `Simulator._evaluate_edges`)."""
        t = self.own_iter
        sent = [Envelope(_EDGE_FITNESS, t, self.id, h) for h in self.H]
        out += sent
        self.edge_costs.append((self, self.held, sent))
        self.held = {}
        self.edge_done_iter = t

    def _judge(self) -> BestInfo:
        """Judge the completed fold of iteration `fitness_next` and step the
        whole swarm under the verdict."""
        t = self.fitness_next
        params = self.swarm.params
        if self.slots:
            fit = self._take_sum()
        else:
            fit = np.zeros(params.K)  # isolated root: empty objective
        best = root_update(self.root_state, fit, params, t)
        self.swarm.step(best)
        self.completed.append((t, best, fit))
        self.fitness_next = t + 1
        return best

    def describe_block(self) -> str:
        waits = []
        if self.H and self.edge_done_iter < self.own_iter:
            missing = [h for h in self.H if h not in self.held]
            waits.append(f"values({self.own_iter}) from {missing}")
        if self.is_root or self.L:
            t = self.fitness_next
            waits.append(f"fitness({t}): {self.folded}/{len(self.slots)} folded")
        if not waits:
            waits.append(f"verdict({self.own_iter})")
        return f"{self.id}@iter {self.own_iter} awaiting " + "; ".join(waits)


class Simulator:
    """Round executor: deliver last round's envelopes, fire recipients in
    ordinal order, evaluate the round's edge costs batched, queue the
    recipients' sends for the next round.

    `on_event`, if given, is called with each `Envelope` as it is sent (it is
    delivered the next round), each `Moved`, each `Judged` and each round's
    `RoundReport`. Records share arrays with the run: do not mutate them.
    """

    def __init__(self, problem: Problem, params: SwarmParams, iterations: int,
                 force_init: dict[str, list[float]] | None = None,
                 on_event: Callable[[object], None] | None = None):
        iterations = iteration_count(iterations)
        self.on_event = on_event
        self.problem = problem
        self.params = params
        self.iterations = iterations
        self.tree = build_bfs_pseudotree(problem)

        self.swarm = Swarm(problem, params, force_init)
        self._edge_costs: list[tuple[AgentMachine, dict[str, np.ndarray], list[Envelope]]] = []
        self.machines = [
            AgentMachine(agent_id, problem, self.tree, iterations, on_event, self.swarm,
                         self._edge_costs)
            for agent_id in problem.ids
        ]
        self.root = self.machines[problem.ordinals[self.tree.root]]
        self.round = 0
        self.queue: list[Envelope] = []
        self.cum_envelopes = 0
        self.cum_scalars = 0
        self.trace = AnytimeTrace()
        self._run_round(0, [(machine, []) for machine in self.machines])

    def _register_sends(self, fired: list[tuple[AgentMachine, list[Envelope]]],
                        sends: list[list[Envelope]]):
        """Count and queue the round's sends; if observed, emit each fired
        machine's Moved records, then its envelopes."""
        if self.on_event is not None:
            for (machine, _), out in zip(fired, sends):
                for moved in machine.moved:
                    self.on_event(moved)
                machine.moved.clear()
                for env in out:
                    self.on_event(env)
        envs = list(chain.from_iterable(sends))
        K = self.params.K
        self.cum_envelopes += len(envs)
        self.cum_scalars += sum([envelope_scalars(env, K) for env in envs])
        self.queue += envs

    def _drain_root(self, round_no: int):
        for t, best, fit in self.root.completed:
            self.trace.rows.append(TraceRow(
                iteration=t + 1,
                round=round_no,
                gbest_fitness=float(best.gbest_fitness),
                envelopes=self.cum_envelopes,
                scalars=self.cum_scalars,
            ))
            if self.on_event is not None:
                self.on_event(Judged(round_no, best, fit))
        self.root.completed.clear()

    def best_assignment(self) -> dict[str, float]:
        """The global-best particle's assignment: each agent's personal-best
        component at the root's gbest index. Its `global_cost` is the
        latest trace row's gbest_fitness, up to summation order."""
        g = self.root.gbest_index
        return {m.id: float(m.state.pbest_component[g]) for m in self.machines}

    @property
    def quiescent(self) -> bool:
        return not self.queue and all(m.done for m in self.machines)

    def step(self) -> RoundReport:
        """Deliver everything queued last round, then fire the recipients."""
        self.round += 1
        deliveries, self.queue = self.queue, []
        ordinals = self.problem.ordinals
        inboxes: defaultdict[int, list[Envelope]] = defaultdict(list)
        for env in deliveries:
            inboxes[ordinals[env.recipient]].append(env)
        # ordinal order, not the order of the queue
        fired = [(self.machines[o], inboxes[o]) for o in sorted(inboxes)]
        sent_before = self.cum_envelopes
        self._run_round(self.round, fired)
        report = RoundReport(self.round, len(deliveries), len(fired),
                             self.cum_envelopes - sent_before)
        if self.on_event is not None:
            self.on_event(report)
        return report

    def _run_round(self, round_no: int, fired: list[tuple[AgentMachine, list[Envelope]]]):
        """One superstep: every agent with mail fires in ordinal order, the
        round's edge costs are evaluated batched, then each agent's records
        and envelopes go out in firing order, and last the root's verdicts.
        The root fires alone in a round in which it judges: verdict t needs
        every envelope of iteration t delivered, and none of t+1 exists
        before it. So each trace row counts the root's sends and no other
        agent's of that round."""
        sends = [machine.fire(round_no, inbox) for machine, inbox in fired]
        if self._edge_costs:
            self._evaluate_edges()
        self._register_sends(fired, sends)
        self._drain_root(round_no)

    def _evaluate_edges(self):
        """Cost the round's edge-cost sends, in firing order and in runs of a
        block of rows: a run of at least `GATHERED_EDGES` edges with one
        `evaluate_edge` call on gathered operands, a shorter run edge by edge.
        An edge's operands, in its constraint's scope order, are the
        recipient's held positions and the sender's `position`, both of the
        iteration the envelope is tagged with."""
        sent: list[Envelope] = []
        costs: list[QuadraticCost] = []
        xi: list[np.ndarray] = []
        xj: list[np.ndarray] = []
        for machine, held, envs in self._edge_costs:
            for env in envs:
                h = env.recipient
                con = machine.constraint_with[h]
                costs.append(con.cost)
                if con.i == h:
                    xi.append(held[h])
                    xj.append(machine.position)
                else:
                    xi.append(machine.position)
                    xj.append(held[h])
            sent += envs
        self._edge_costs.clear()
        rows = block_rows(self.params.K)
        for lo in range(0, len(sent), rows):
            hi = lo + rows
            run = sent[lo:hi]
            if len(run) < GATHERED_EDGES:
                for env, cost, a, b in zip(run, costs[lo:hi], xi[lo:hi], xj[lo:hi]):
                    env.fitness = evaluate_edge(cost, a, b)
                continue
            values = evaluate_edge(cost_columns(costs[lo:hi]), np.array(xi[lo:hi]),
                                   np.array(xj[lo:hi]))
            for env, row in zip(run, values):
                env.fitness = row

    def run_to_quiescence(self) -> AnytimeTrace:
        while not self.quiescent:
            if not self.queue:
                blocked = [m.describe_block() for m in self.machines if not m.done]
                raise RuntimeError(
                    "deadlock: no envelopes in flight but agents are blocked:\n  "
                    + "\n  ".join(blocked)
                )
            self.step()
        assert len(self.trace.rows) == self.iterations
        return self.trace


def run(problem: Problem, params: SwarmParams, iterations: int,
        force_init: dict[str, list[float]] | None = None) -> AnytimeTrace:
    """Run the full distributed solve and return the root-observed trace."""
    sim = Simulator(problem, params, iterations, force_init=force_init)
    return sim.run_to_quiescence()
