"""Agent state machines on a deterministic round-based message simulator.

One machine per agent. Each iteration runs two phases over the pseudo-tree:

* Evaluation: an agent holding this iteration's positions from all its
  higher-priority neighbors computes the shared edge costs and sends each one
  to its higher endpoint; agents with lower-priority neighbors sum everything
  they receive (edge costs from L members, aggregates from children) and
  forward the sum to their parent, so each edge is counted exactly once and
  the totals telescope to the root. Each sum holds its contributions in the
  pseudo-tree's fold slots (`PseudoTree.fitness_slots`) and adds them in
  slot order once all are in, not in arrival order, so every fitness vector
  is bit-identical under any delivery schedule and equals the centralized
  oracle's.
* Update: the root judges the aggregated fitness vector (`Swarm.judge`),
  then the verdict, which carries rho, travels back down.
  Every agent applies the same verdict with the same rule and draws its
  velocity randomness from keyed streams.

An agent keeps only live state. The verdict goes down the tree edges only:
an agent's UPDATEs to its tree children carry it, those to its other L
members positions alone. So an agent applies each verdict once, from its
parent's UPDATE, which under synchronous delivery reaches an agent at depth
d exactly d rounds after the root judged it. Verdict t is judged only after
the agent's edge costs of t, so that UPDATE carries the agent's next
verdict. The agent holds the positions of the iteration it is at, one
vector per H member, until its edge costs go out: an H member reaches t+1
only under verdict t, which needed the agent's edge costs of t. Once they
are out, another H member's UPDATE of t+1 may come before the parent's; it
is held early, and the edge costs of t+1 go out only after the parent's
verdict. No agent costs the final iteration's positions, so the final
UPDATE carries the verdict, to a child, or nothing, and the agent holds a
marker for each H member whose final UPDATE has arrived. Any other VALUE
or UPDATE raises a `ProtocolError` naming the agent, kind, sender and
iteration, as a late, duplicate or unowed fitness contribution does; so
does an UPDATE whose positions are missing before the final iteration or
present on it, one from the parent without a verdict and one from another
member with one.

Delivery is synchronous: an envelope sent in round r arrives in round r+1,
and only the agents with mail fire, in ordinal order whatever the order of
the queue. Set-up builds the machines, then each sends its iteration-0
positions down, in ordinal order; round 0 then fires the root alone, which
has work only as a lone agent. Runs are bit-reproducible from
(problem, params).

The swarm steps once per verdict. All agents share one `swarm.Swarm`, as
the centralized oracle holds one, and the root judges iteration t through
it (`Swarm.judge`), which steps it under the verdict. A step writes into no
array, so generation t stays intact for the envelopes, held positions and
records that carry it. Agent o reads row o of generation t's (n, K)
positions until it applies verdict t; then its `position` is row o of t+1,
which its UPDATEs carry. The root cannot judge t+1 before every agent has
applied t, since that needs their edge costs of t+1. So the verdict an
agent applies is the one the swarm was last stepped under, the same
object, or the run raises.

Each round is one superstep. The simulator routes the round's deliveries
into per-agent inboxes, and every agent with mail fires: it absorbs its
inbox and runs the protocol, appending its records to the simulator's one
outbox as it makes them (its sends and, if observed, a `Moved` as it
moves) and each edge cost it sends, as one `(envelope, cost, xi, xj)`
record with the operands in scope order, to the round's edge list. A
firing makes no list or dict of its own: inboxes, held positions (a dict
keyed by H), fold slots (a list) and the edge list are made at set-up and
emptied or reset in place, so absorbing, folding and routing an envelope
are a few dict or list lookups each, with no scan over agents, neighbors
or slots, and a delivered envelope is freed once its recipient has fired.
Then the round's edge records are evaluated, long runs with one gathered
`evaluate_edge` call each, and the edge list is emptied, so no record
outlives its round. Last, the outbox goes out in the order it was
made, its envelopes are counted and queued, and the root's verdicts are
written to the trace. The root judges only in a round in which it fires
alone, so each trace row counts the envelopes sent up to and including the
root's. Every element is computed as the per-agent call computes it, and
the fixed fold order makes the order of the work within a round
irrelevant, so batching changes no result.

A run is observed through one optional callable, `Simulator(on_event=...)`,
which receives every sent `Envelope`, every `Moved` agent, every `Judged`
iteration and every round's `RoundReport` as they happen. Without it the
runtime keeps no record beyond the trace and its counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

import numpy as np

from .model import Problem, QuadraticCost, cost_columns, evaluate_edge
from .pseudotree import PseudoTree, build_bfs_pseudotree
from .swarm import AgentSwarmState, BestInfo, Swarm, SwarmParams, block_rows, iteration_count


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
    iteration t+1 to a tree child piggybacks the verdict of iteration t in
    `best`, one to any other L member carries none."""

    kind: Kind
    iteration: int
    sender: str
    recipient: str
    values: np.ndarray | None = None
    fitness: np.ndarray | None = None
    best: BestInfo | None = None


class ProtocolError(RuntimeError):
    """An envelope `agent` cannot take now: its kind, sender and iteration,
    and `reason`, the rest of the message (None: a duplicate)."""

    def __init__(self, agent: str, env: Envelope, reason: str | None):
        self.agent, self.kind, self.sender = agent, env.kind, env.sender
        self.iteration, self.reason = env.iteration, reason
        kind = self.kind.value if reason is not None else f"duplicate {self.kind.value}"
        super().__init__(f"{agent}: {kind} from {self.sender} for iteration {self.iteration}"
                         f"{reason or ''}")

    def __reduce__(self):
        # pickled and copied as the constructor's arguments, not the message
        env = Envelope(self.kind, self.iteration, self.sender, self.agent)
        return type(self), (self.agent, env, self.reason)


# held for an H member in place of its final positions, which its final
# UPDATE does not carry: no agent costs them, but a duplicate must raise
_FINAL = object()


def verdict_scalars(best: BestInfo) -> int:
    """A verdict's size in 8-byte scalars: its bytes of packed improvement
    flags, rounded up to whole scalars, + gbest index/value/changed and rho."""
    return -(-best.improved.size // 8) + 4


def envelope_scalars(env: Envelope, K: int) -> int:
    """Payload size in scalars: K per vector; UPDATE = positions, if any, +
    verdict, if any (`verdict_scalars`)."""
    if env.kind is _UPDATE:
        best = env.best
        return (0 if env.values is None else K) + (0 if best is None else verdict_scalars(best))
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
    """The trace `to_csv` wrote; a bad row raises naming its line (from 1)."""
    lines = [(no, ln) for no, ln in enumerate(text.splitlines(), 1) if ln]
    if not lines or lines[0][1] != TRACE_HEADER:
        raise ValueError(f"bad trace header: {[ln for _, ln in lines[:1]]}")
    rows = []
    for no, ln in lines[1:]:
        if len(fields := ln.split(",")) != 5:
            raise ValueError(f"trace line {no}: expected 5 fields, got {len(fields)}")
        it, rnd, gbest, env, sc = fields
        try:
            rows.append(TraceRow(int(it), int(rnd), float(gbest), int(env), int(sc)))
        except ValueError as exc:
            raise ValueError(f"trace line {no}: {exc}") from None
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
    """One agent: holds its swarm components, sends its iteration-0
    positions at set-up (`start`) and then acts only on received envelopes.
    Its records go into the simulator's outbox as it makes them, and its
    edge costs into the round's edge list, one `(envelope, cost, xi, xj)`
    record each."""

    # slots: there is one instance per agent, and on CPython 3.11 an instance
    # with more than 26 attributes carries a 1.6 KB attribute dict, not 0.3 KB
    __slots__ = ("id", "ordinal", "max_iterations", "is_root", "H", "L",
                 "parent", "children", "others", "slots", "constraints", "swarm",
                 "position", "outbox", "edges", "observed",
                 "own_iter", "edge_done_iter", "held", "n_held",
                 "fitness_next", "parts", "n_parts", "completed")

    def __init__(self, agent_id: str, problem: Problem, tree: PseudoTree,
                 max_iterations: int, observed: bool, swarm: Swarm, outbox: list,
                 edges: list):
        self.id = agent_id
        self.ordinal = problem.ordinals[agent_id]
        self.max_iterations = max_iterations
        self.is_root = agent_id == tree.root
        self.H = tree.H[agent_id]
        self.L = tree.L[agent_id]
        self.parent = tree.parent.get(agent_id)
        # L split: the tree children, whose UPDATEs carry the verdict, and the
        # rest, whose UPDATEs carry positions only; an agent without children
        # shares L. Split by parent: `j not in children` is quadratic in a
        # hub's degree.
        self.children = children = tree.children[agent_id]
        self.others = ([j for j in self.L if tree.parent[j] != agent_id] if children
                       else self.L)
        self.slots = tree.fitness_slots[agent_id]
        # the constraint of each edge this agent costs, in H order
        adjacency = problem.adjacency[agent_id]
        self.constraints = tuple(map(adjacency.__getitem__, self.H))

        # the swarm, shared by all agents, which the root steps under each
        # verdict it judges; `position` is this agent's row of the generation
        # it is at: the latest one from the moment it applies the swarm's
        # verdict, the one before until then
        self.swarm = swarm
        self.position = swarm.position[self.ordinal]
        # shared by all agents: the simulator's outbox, every record made
        # this round, and the round's edge costs
        self.outbox = outbox
        self.edges = edges
        self.observed = observed
        self.own_iter = 0               # iteration of the current positions
        self.edge_done_iter = -1
        # H member -> its positions of own_iter until the edge costs on them
        # go out (None before they arrive; `_FINAL` once its final UPDATE
        # has), in H order; n_held of them have arrived
        self.held: dict[str, np.ndarray | object | None] = dict.fromkeys(self.H)
        self.n_held = 0
        # the contributions to the fitness sum of iteration fitness_next, one
        # per fold slot (None until it arrives); n_parts of them have arrived
        self.fitness_next = 0           # next iteration to aggregate / judge
        self.parts: list[np.ndarray | None] = [None] * len(self.slots)
        self.n_parts = 0
        # root-only: the verdicts judged and not yet written to the trace
        self.completed: list[tuple[int, BestInfo, np.ndarray]] | None = (
            [] if self.is_root else None)

    def start(self):
        """Send the iteration-0 positions down, after their `Moved` record
        if observed."""
        if self.observed:
            self.outbox.append(Moved(0, self.id, 0, self.position))
        for j in self.L:
            self.outbox.append(Envelope(_VALUE, 0, self.id, j, self.position))

    @property
    def gbest_index(self) -> int:
        return self.swarm.root.gbest_index

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

    def fire(self, round_no: int, inbox: list[Envelope]):
        """Absorb `inbox` and run the protocol as far as it goes, appending
        its records to the outbox; the simulator fills in the edge costs
        this round.
        The parent's UPDATE applies its verdict on arrival. The positions of
        a VALUE or UPDATE are held until this agent's edge costs on them go
        out, those of the next iteration early while the parent's verdict is
        still to come; a final UPDATE, which carries none, leaves a marker
        for good.
        A fitness contribution is held in its fold slot until the fold is
        complete (see `_take_sum`).
        Raises on a VALUE or UPDATE the protocol cannot send this agent now
        or whose payload does not fit its iteration or its sender (the
        verdict comes from the parent alone), on a verdict other than
        the one the swarm was stepped under, and on a fitness contribution
        that is late, duplicate or not owed, with a `ProtocolError`."""
        held, parts, final = self.held, self.parts, self.max_iterations
        for env in inbox:
            kind, sender, t = env.kind, env.sender, env.iteration
            if kind is _EDGE_FITNESS or kind is _AGG_FITNESS:
                if t != self.fitness_next:
                    raise ProtocolError(self.id, env,
                                        f" arrived while folding iteration {self.fitness_next}")
                slot = self.slots.get((sender, kind is _AGG_FITNESS))
                if slot is None:
                    raise ProtocolError(self.id, env, f", which {sender} does not owe {self.id}")
                if parts[slot] is not None:
                    raise ProtocolError(self.id, env, None)
                parts[slot] = env.fitness
                self.n_parts += 1
                continue
            best = env.best
            if sender not in held:
                raise ProtocolError(self.id, env, f", but {sender} is not in {self.id}'s H")
            if kind is _UPDATE and (best is None) == (sender == self.parent):
                raise ProtocolError(self.id, env, (
                    f" carries no verdict, but {sender} is {self.id}'s parent" if best is None
                    else f" carries a verdict, but {sender} is not {self.id}'s parent"))
            if best is not None and best.iteration >= self.own_iter:
                if best.iteration != self.edge_done_iter:
                    raise ProtocolError(self.id, env, f" carries the verdict of iteration "
                                        f"{best.iteration} before {self.id}'s edge costs of it")
                if best is not self.swarm.verdict:
                    raise ProtocolError(self.id, env, f" carries a verdict of iteration "
                                        f"{best.iteration} that the swarm was not stepped under")
                self._apply_update(best, round_no)
            # an UPDATE of the next iteration from another H member may come
            # before the parent's once this agent's edge costs are out: it is
            # held early, and costed after the parent's verdict
            if t != self.own_iter and not (t - 1 == self.edge_done_iter == self.own_iter):
                raise ProtocolError(self.id, env, f" arrived at iteration {self.own_iter}")
            if t == self.edge_done_iter or held[sender] is not None:
                raise ProtocolError(self.id, env, None)
            values = env.values
            if t == final:
                if values is not None:
                    raise ProtocolError(self.id, env,
                                        f" carries positions, but iteration {t} is the final one")
                values = _FINAL
            elif values is None:
                raise ProtocolError(self.id, env,
                                    f" carries no positions before the final iteration {final}")
            held[sender] = values
            self.n_held += 1

        if self.n_held == len(held) and held and self.edge_done_iter < self.own_iter < final:
            self._send_edge_costs()
        if self.is_root:
            # one verdict per completed fold; a lone root's folds are empty,
            # so it judges and applies every iteration in its first firing
            while self.own_iter < self.max_iterations and self.n_parts == len(parts):
                self._apply_update(self._judge(), round_no)
        elif self.L and self.n_parts == len(parts):
            t = self.fitness_next
            self.outbox.append(Envelope(_AGG_FITNESS, t, self.id, self.parent, None,
                                        self._take_sum()))
            self.fitness_next = t + 1

    def _take_sum(self) -> np.ndarray:
        """The completed fold: its contributions summed in slot order, each
        add the same IEEE operation whatever order they arrived in. Empties
        the slots."""
        parts = self.parts
        total, parts[0] = parts[0], None
        if len(parts) > 1:
            # the rest add into a fresh sum: envelopes stay immutable records
            total, parts[1] = total + parts[1], None
            for slot in range(2, len(parts)):
                total += parts[slot]
                parts[slot] = None
        self.n_parts = 0
        return total

    def _apply_update(self, best: BestInfo, round_no: int):
        """Move on to the positions the swarm's step under `best` made and
        send them down: with the verdict to the tree children first, then
        alone to the other L members. The final UPDATEs go without them."""
        self.own_iter = t = best.iteration + 1
        self.position = position = self.swarm.position[self.ordinal]
        if self.observed:
            self.outbox.append(Moved(round_no, self.id, t, position))
        # the final verdict still goes down the tree so every agent consumes
        # it, but no agent costs the final positions; the `done` guard on the
        # evaluation phase stops the cascade afterwards
        if t == self.max_iterations:
            position = None
        outbox, sender = self.outbox, self.id
        for j in self.children:
            outbox.append(Envelope(_UPDATE, t, sender, j, position, None, best))
        for j in self.others:
            outbox.append(Envelope(_UPDATE, t, sender, j, position))

    def _send_edge_costs(self):
        """Send this iteration's edge costs on the held positions of H, and
        hand them over: the simulator evaluates them this round (see
        `Simulator._evaluate_edges`). An edge's operands, in its
        constraint's scope order, are the recipient's held positions and
        this agent's `position`, both of the iteration the envelope is
        tagged with."""
        t, sender, own, held = self.own_iter, self.id, self.position, self.held
        outbox, edges = self.outbox, self.edges
        for h, con in zip(held, self.constraints):
            env = Envelope(_EDGE_FITNESS, t, sender, h)
            outbox.append(env)
            theirs, held[h] = held[h], None
            edges.append((env, con.cost, theirs, own) if con.i == h else
                         (env, con.cost, own, theirs))
        self.n_held = 0
        self.edge_done_iter = t

    def _judge(self) -> BestInfo:
        """Judge the completed fold of iteration `fitness_next` and step the
        whole swarm under the verdict (`Swarm.judge`)."""
        t = self.fitness_next
        fit = self._take_sum() if self.parts else np.zeros(self.swarm.params.K)  # lone root
        best = self.swarm.judge(fit, t)
        self.completed.append((t, best, fit))
        self.fitness_next = t + 1
        return best

    def describe_block(self) -> str:
        waits = []
        if self.H and self.edge_done_iter < self.own_iter:
            missing = [h for h, values in self.held.items() if values is None]
            waits.append(f"values({self.own_iter}) from {missing}")
        if self.is_root or self.L:
            # the contributions a sum in slot order can take so far: those
            # before the first empty slot
            parts = self.parts
            folded = next((s for s, part in enumerate(parts) if part is None), len(parts))
            waits.append(f"fitness({self.fitness_next}): {folded}/{len(parts)} folded")
        if not waits:
            waits.append(f"verdict({self.own_iter})")
        return f"{self.id}@iter {self.own_iter} awaiting " + "; ".join(waits)


class Simulator:
    """Round executor: set-up builds the machines, which send their
    iteration-0 positions, and fires the root; each round delivers last
    round's envelopes, fires the recipients in ordinal order, evaluates the
    round's edge costs batched, emits the outbox and queues its envelopes.

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
        self.tree = tree = build_bfs_pseudotree(problem)

        self.swarm = Swarm(problem, params, force_init)
        # the round's edge costs: one (envelope, cost, xi, xj) record per
        # EDGE_FITNESS envelope, with the operands in scope order
        self._edges: list[tuple[Envelope, QuadraticCost, np.ndarray, np.ndarray]] = []
        # the round's records in the order they were made: every Envelope
        # sent and, if observed, every Moved
        self._outbox: list[Envelope | Moved] = []
        self.machines = [AgentMachine(agent_id, problem, tree, iterations, on_event is not None,
                                      self.swarm, self._outbox, self._edges)
                         for agent_id in problem.ids]
        # one inbox per agent, by ordinal, emptied after each firing
        self._inboxes: list[list[Envelope]] = [[] for _ in self.machines]
        self.root = self.machines[problem.ordinals[tree.root]]
        # only once every machine is built: envelopes made in between the
        # machines' long-lived objects raised peak RSS over a benchmark run
        # on sf1600-k50 by 1.6 %
        for machine in self.machines:
            machine.start()
        self.round = 0
        self.queue: list[Envelope] = []
        self.cum_envelopes = 0
        self.cum_scalars = 0
        self.trace = AnytimeTrace()
        # no agent has mail yet; a lone root judges every verdict now
        self._run_round(0, (self.root.ordinal,))

    def _register_sends(self):
        """Emit the round's records, if observed, in the order they were
        made; then count and queue its envelopes."""
        sent = records = self._outbox
        on_event = self.on_event
        if on_event is not None:
            for record in records:
                on_event(record)
            sent = [record for record in records if record.__class__ is Envelope]
        # as `envelope_scalars` counts them: `verdict_scalars` per verdict,
        # and K per envelope unless it is a final UPDATE. Every envelope sent
        # once the root has applied the final verdict is a final UPDATE, and
        # none before it is: the root judges the final iteration only after
        # every envelope of it has been delivered.
        verdicts = sum(verdict_scalars(env.best) for env in sent if env.best is not None)
        self.cum_envelopes += len(sent)
        self.cum_scalars += (0 if self.root.done else self.params.K * len(sent)) + verdicts
        self.queue += sent
        records.clear()

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
        g = self.swarm.root.gbest_index
        return {m.id: float(m.state.pbest_component[g]) for m in self.machines}

    @property
    def quiescent(self) -> bool:
        return not self.queue and all(m.done for m in self.machines)

    def step(self) -> RoundReport:
        """Deliver everything queued last round, then fire the recipients."""
        self.round += 1
        deliveries, self.queue = self.queue, []
        ordinals, inboxes = self.problem.ordinals, self._inboxes
        recipients = [ordinals[env.recipient] for env in deliveries]
        for o, env in zip(recipients, deliveries):
            inboxes[o].append(env)
        fired = sorted(set(recipients))  # ordinal order, not the order of the queue
        delivered = len(deliveries)
        # unless held elsewhere, each envelope is freed once its recipient
        # has fired, as the round's sends are made
        del deliveries
        sent_before = self.cum_envelopes
        self._run_round(self.round, fired)
        report = RoundReport(self.round, delivered, len(fired),
                             self.cum_envelopes - sent_before)
        if self.on_event is not None:
            self.on_event(report)
        return report

    def _run_round(self, round_no: int, fired):
        """One superstep: every agent with mail fires in ordinal order, the
        round's edge costs are evaluated batched, then the round's records
        go out, and last the root's verdicts. The root fires alone in a
        round in which it judges: verdict t needs every envelope of
        iteration t delivered, and none of t+1 exists before it. So each
        trace row counts the root's sends and no other agent's of that
        round."""
        machines, inboxes = self.machines, self._inboxes
        for o in fired:
            inbox = inboxes[o]
            machines[o].fire(round_no, inbox)
            inbox.clear()
        if self._edges:
            self._evaluate_edges()
        self._register_sends()
        self._drain_root(round_no)

    def _evaluate_edges(self):
        """Cost the round's edge-cost sends, in firing order and in runs of a
        block of rows: a run of at least `GATHERED_EDGES` edges with one
        `evaluate_edge` call on gathered operands, a shorter run edge by
        edge. Empties the edge list."""
        edges, K = self._edges, self.params.K
        rows = block_rows(K)
        for lo in range(0, len(edges), rows):
            run = edges[lo:lo + rows]
            if len(run) < GATHERED_EDGES:
                for env, cost, xi, xj in run:
                    env.fitness = evaluate_edge(cost, xi, xj)
                continue
            envelopes, costs, xi, xj = zip(*run)
            shape = (len(run), K)
            values = evaluate_edge(cost_columns(costs),
                                   np.concatenate(xi).reshape(shape),
                                   np.concatenate(xj).reshape(shape))
            for env, row in zip(envelopes, values):
                env.fitness = row
        edges.clear()

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
