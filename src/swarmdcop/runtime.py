"""Agent state machines on a deterministic round-based message simulator.

One machine per agent. Each iteration runs two phases over the pseudo-tree:

* Evaluation: an agent holding this iteration's positions from all its
  higher-priority neighbors computes the shared edge costs and sends each one
  to its higher endpoint; agents with lower-priority neighbors sum everything
  they receive (edge costs from L members, aggregates from children) and
  forward the sum to their parent, so each edge is counted exactly once and
  the totals telescope to the root. Each sum folds its contributions in the
  pseudo-tree's fixed slot order (`PseudoTree.fitness_senders`), not in
  arrival order, so every fitness vector is bit-identical under any
  delivery schedule and equals the centralized oracle's.
* Update: the root judges the aggregated fitness vector and steps the one
  rho controller, then the verdict, which carries rho, travels back down.
  Every agent applies the same verdict with the same rule and draws its
  velocity randomness from keyed streams.

Delivery is synchronous: an envelope sent in round r arrives in round r+1,
and agents fire in ordinal order within a round. Runs are bit-reproducible
from (problem, params).

Each round is one superstep. Every agent with mail fires: it absorbs its
inbox and runs the protocol, queuing its moves and edge costs. Then the
round's numeric work runs batched: the movers under each verdict step a
block of agents at a time, one key grid per draw and one `apply_best` per
block (`swarm.move_block`, the step the centralized oracle takes too), and
long runs of edge costs are evaluated with one gathered `evaluate_edge`
call. Last, each agent's records and envelopes go out, in firing order,
carrying the arrays the batch computed. Every element is computed as the
per-agent call computes it, and the fixed fold order makes the order of the
work within a round irrelevant, so batching changes no result.

A run is observed through one optional callable, `Simulator(on_event=...)`,
which receives every sent `Envelope`, every `Moved` agent, every `Judged`
iteration and every round's `RoundReport` as they happen. Without it the
runtime keeps no record beyond the trace and its counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from types import SimpleNamespace
from typing import Callable

import numpy as np

from .model import Problem, QuadraticCost, evaluate_edge
from .pseudotree import PseudoTree, build_bfs_pseudotree
from .swarm import (AgentSwarmState, BestInfo, Block, RootState, SwarmParams, block_rows,
                    check_force_init, domain_bounds, fresh_block, move_block, root_update)


# A run of at least this many edge costs in one round is evaluated as one
# gathered call; below it, copying the operands together costs more than the
# calls it saves (2-vCPU machine: 8 edges at K=500 took 65 us one by one and
# 71 us gathered, 20 edges at K=200 176 us and 86 us).
GATHERED_EDGES = 12


class Kind(Enum):
    VALUE = "VALUE"
    EDGE_FITNESS = "EDGE_FITNESS"
    AGG_FITNESS = "AGG_FITNESS"
    UPDATE = "UPDATE"


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
    if env.kind is Kind.UPDATE:
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
class FitnessFold:
    """An aggregating agent's fitness sum of iteration `fitness_next` in the
    making: the sum of slots 0 .. folded-1, and the contributions that
    arrived ahead of their slot's turn."""

    total: np.ndarray | None = None
    folded: int = 0
    early: dict[int, np.ndarray] = field(default_factory=dict)


@dataclass(slots=True)
class RoundReport:
    round: int
    delivered: int
    fired: int
    sent: int


class AgentMachine:
    """One agent: holds its swarm components, acts only on received envelopes.
    Its moves and edge costs are queued for the simulator's batched step."""

    # slots: there is one instance per agent, and on CPython 3.11 an instance
    # with more than 26 attributes carries a 1.6 KB attribute dict, not 0.3 KB
    __slots__ = ("id", "ordinal", "domain", "params", "max_iterations", "is_root", "H", "L",
                 "parent", "tree", "senders", "constraint_with", "on_event", "block", "column",
                 "position", "moves", "edge_costs", "moved", "initialized",
                 "own_iter", "edge_done_iter", "fitness_next", "values_buf", "best_buf", "fold",
                 "root_state", "completed")

    def __init__(self, agent_id: str, problem: Problem, tree: PseudoTree,
                 params: SwarmParams, max_iterations: int,
                 on_event, moves: list, edge_costs: list[Envelope]):
        self.id = agent_id
        self.ordinal = problem.ordinals[agent_id]
        self.domain = problem.domains[agent_id]
        self.params = params
        self.max_iterations = max_iterations
        self.is_root = agent_id == tree.root
        self.H = tree.H[agent_id]
        self.L = tree.L[agent_id]
        self.parent = tree.parent.get(agent_id)
        self.tree = tree
        self.senders = tree.fitness_senders[agent_id]
        self.constraint_with = {nbr: problem.constraint_between(agent_id, nbr) for nbr in self.H}
        self.on_event = on_event

        # the components of the K particles: column `column` of a block shared
        # with the agents that moved with this one (set up by the simulator);
        # `position` is that column of the block's positions
        self.block: Block | None = None
        self.column = 0
        self.position: np.ndarray | None = None
        # the round's numeric work, queues shared by all agents and worked off
        # by the simulator: (agent, verdict, its UPDATE envelopes, its Moved
        # record) per move and the envelope of each edge cost, whose arrays it
        # fills in; and, if observed, this agent's Moved records to emit
        self.moves = moves
        self.edge_costs = edge_costs
        self.moved: list[Moved] | None = [] if on_event is not None else None
        self.initialized = False
        self.own_iter = 0               # iteration of the current positions
        self.edge_done_iter = -1
        self.fitness_next = 0           # next iteration to aggregate / judge
        self.values_buf: dict[tuple[int, str], np.ndarray] = {}
        self.best_buf: dict[int, BestInfo] = {}
        self.fold: FitnessFold | None = None  # None until iteration fitness_next's first contribution
        # root-only running bests, rho controller and completed verdicts
        self.root_state = RootState(np.full(params.K, np.inf)) if self.is_root else None
        self.completed: list[tuple[int, BestInfo, np.ndarray]] = []

    @property
    def gbest_index(self) -> int:
        return self.root_state.gbest_index

    @property
    def state(self) -> AgentSwarmState:
        """This agent's components of the K particles (views of its block)."""
        return self.block.column(self.column)

    @property
    def done(self) -> bool:
        return self.own_iter >= self.max_iterations

    def _absorb(self, env: Envelope):
        if env.kind in (Kind.VALUE, Kind.UPDATE):
            if env.iteration < self.max_iterations:  # the final positions are never evaluated
                self.values_buf[(env.iteration, env.sender)] = env.values
            if env.best is not None and env.best.iteration >= self.own_iter:
                self.best_buf[env.best.iteration] = env.best
        elif env.kind in (Kind.EDGE_FITNESS, Kind.AGG_FITNESS):
            self._fold(env)
        else:
            raise AssertionError(f"unexpected envelope kind {env.kind}")

    def fire(self, round_no: int, inbox: list[Envelope]) -> list[Envelope]:
        """Absorb `inbox` and run the protocol as far as it goes; return the
        envelopes sent, whose arrays the simulator fills in this round."""
        out: list[Envelope] = []
        if not self.initialized:
            self.initialized = True
            if self.on_event is not None:
                self.moved.append(Moved(round_no, self.id, 0, self.position))
            for j in self.L:
                out.append(Envelope(Kind.VALUE, 0, self.id, j, values=self.position))
        for env in inbox:
            self._absorb(env)

        progress = True
        while progress:
            progress = False
            best = self.best_buf.pop(self.own_iter, None)
            if best is not None:
                self._apply_update(best, round_no, out)
                progress = True
                continue
            if (self.H and not self.done and self.edge_done_iter < self.own_iter
                    and all((self.own_iter, h) in self.values_buf for h in self.H)):
                self._send_edge_costs(out)
                progress = True
            if self.is_root:
                t = self.fitness_next
                if t == self.own_iter and not self.done and self._folded() == len(self.senders):
                    self._judge(t)
                    progress = True
            elif self.L and self._folded() == len(self.senders):
                t = self.fitness_next
                out.append(Envelope(Kind.AGG_FITNESS, t, self.id, self.parent,
                                    fitness=self._take_sum()))
                self.fitness_next = t + 1
                progress = True
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
        try:
            slot = self.tree.fitness_slot(self.id, env.sender, env.kind is Kind.AGG_FITNESS)
        except ValueError:
            raise RuntimeError(
                f"{self.id}: {env.kind.value} from {env.sender} for iteration {t}, "
                f"which {env.sender} does not owe {self.id}") from None
        fold = self.fold
        if fold is None:
            fold = self.fold = FitnessFold()
        if slot != fold.folded:
            if slot < fold.folded or slot in fold.early:
                raise RuntimeError(
                    f"{self.id}: duplicate {env.kind.value} from {env.sender} for iteration {t}")
            fold.early[slot] = env.fitness
            return
        # out of place: envelopes stay immutable records
        fold.total = env.fitness if fold.total is None else fold.total + env.fitness
        fold.folded += 1
        while fold.folded in fold.early:
            fold.total = fold.total + fold.early.pop(fold.folded)
            fold.folded += 1

    def _folded(self) -> int:
        return 0 if self.fold is None else self.fold.folded

    def _take_sum(self) -> np.ndarray:
        total = self.fold.total
        self.fold = None
        return total

    def _apply_update(self, best: BestInfo, round_no: int, out: list[Envelope]):
        """Send the move under `best`; the simulator makes it this round and
        fills the moved positions into the envelopes and the record."""
        self.own_iter = best.iteration + 1
        moved = None
        if self.on_event is not None:
            moved = Moved(round_no, self.id, self.own_iter, None)
            self.moved.append(moved)
        # the final verdict still floods down so every agent consumes it; the
        # `done` guard on the evaluation phase stops the cascade afterwards
        updates = [Envelope(Kind.UPDATE, self.own_iter, self.id, j, best=best) for j in self.L]
        out.extend(updates)
        self.moves.append((self, best, updates, moved))

    def _send_edge_costs(self, out: list[Envelope]):
        """Send this iteration's edge costs; the simulator evaluates them this
        round (see `edge_operands`)."""
        for h in self.H:
            env = Envelope(Kind.EDGE_FITNESS, self.own_iter, self.id, h)
            out.append(env)
            self.edge_costs.append(env)
        self.edge_done_iter = self.own_iter

    def edge_operands(self, env: Envelope) -> tuple[QuadraticCost, np.ndarray, np.ndarray]:
        """The cost and the (xi, xj) operands of the edge cost `env` carries,
        on this agent's latest positions: those of its moves this round, if
        any, which is the iteration the envelope is tagged with."""
        h = env.recipient
        con = self.constraint_with[h]
        h_values = self.values_buf.pop((env.iteration, h))
        if con.i == h:
            return con.cost, h_values, self.position
        return con.cost, self.position, h_values

    def _judge(self, t: int):
        if self.senders:
            fit = self._take_sum()
        else:
            fit = np.zeros(self.params.K)  # isolated root: empty objective
        best = root_update(self.root_state, fit, self.params, t)
        self.completed.append((t, best, fit))
        self.best_buf[t] = best  # picked up by the local update phase
        self.fitness_next = t + 1

    def describe_block(self) -> str:
        waits = []
        if self.H and self.edge_done_iter < self.own_iter:
            missing = [h for h in self.H if (self.own_iter, h) not in self.values_buf]
            waits.append(f"values({self.own_iter}) from {missing}")
        if self.is_root or self.L:
            t = self.fitness_next
            waits.append(f"fitness({t}): {self._folded()}/{len(self.senders)} folded")
        if not waits:
            waits.append(f"verdict({self.own_iter})")
        return f"{self.id}@iter {self.own_iter} awaiting " + "; ".join(waits)


class Simulator:
    """Round executor: deliver last round's envelopes, fire recipients in
    ordinal order, make the round's moves and edge costs batched, queue the
    recipients' sends for the next round.

    `on_event`, if given, is called with each `Envelope` as it is sent (it is
    delivered the next round), each `Moved`, each `Judged` and each round's
    `RoundReport`. Records share arrays with the run: do not mutate them.
    """

    def __init__(self, problem: Problem, params: SwarmParams, iterations: int,
                 force_init: dict[str, list[float]] | None = None,
                 on_event: Callable[[object], None] | None = None):
        if iterations < 1:
            raise ValueError("iterations must be >= 1")
        self.on_event = on_event
        self.problem = problem
        self.params = params
        self.iterations = iterations
        self.tree = build_bfs_pseudotree(problem)

        forced = check_force_init(force_init, problem.domains, params.K)
        self._moves: list[tuple[AgentMachine, BestInfo, list[Envelope], Moved | None]] = []
        self._edge_costs: list[Envelope] = []
        self.machines = [
            AgentMachine(agent_id, problem, self.tree, params, iterations,
                         on_event, self._moves, self._edge_costs)
            for agent_id in problem.ids
        ]
        # each level's agents, in ordinal order, start in blocks of rows: the
        # runs in which they move under the synchronous schedule
        rows = block_rows(params.K)
        levels: dict[int, list[AgentMachine]] = {}
        for machine in self.machines:
            levels.setdefault(self.tree.depth[machine.id], []).append(machine)
        for level in levels.values():
            for lo in range(0, len(level), rows):
                run = level[lo:lo + rows]
                self._hold(run, fresh_block(
                    params.K, params.seed, [m.ordinal for m in run], [m.domain for m in run],
                    None if force_init is None else [forced[m.id] for m in run]))
        self._by_id = {m.id: m for m in self.machines}
        self.root = self._by_id[self.tree.root]
        self.round = 0
        self.queue: list[Envelope] = []
        self.cum_envelopes = 0
        self.cum_scalars = 0
        self.trace = AnytimeTrace()
        self._run_round(0, [(machine, []) for machine in self.machines])

    def _register_sends(self, envs: list[Envelope]):
        for env in envs:
            self.cum_envelopes += 1
            self.cum_scalars += envelope_scalars(env, self.params.K)
            if self.on_event is not None:
                self.on_event(env)
        self.queue.extend(envs)

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
        inboxes: dict[str, list[Envelope]] = {}
        for env in deliveries:
            inboxes.setdefault(env.recipient, []).append(env)
        fired = [(m, inboxes[m.id]) for m in self.machines if m.id in inboxes]
        sent_before = self.cum_envelopes
        self._run_round(self.round, fired)
        report = RoundReport(self.round, len(deliveries), len(fired),
                             self.cum_envelopes - sent_before)
        if self.on_event is not None:
            self.on_event(report)
        return report

    def _run_round(self, round_no: int, fired: list[tuple[AgentMachine, list[Envelope]]]):
        """One superstep: every agent with mail fires in ordinal order, the
        round's moves and edge costs run batched, then each agent's records
        and envelopes go out in firing order."""
        sends = [machine.fire(round_no, inbox) for machine, inbox in fired]
        if self._moves:
            self._move()
        if self._edge_costs:
            self._evaluate_edges()
        for (machine, _), out in zip(fired, sends):
            if self.on_event is not None:
                for moved in machine.moved:
                    self.on_event(moved)
                machine.moved.clear()
            self._register_sends(out)
            self._drain_root(round_no)

    def _move(self):
        """Make the round's moves. The movers under each verdict, in ordinal
        order, step a block of rows at a time. A run of movers that is exactly
        the block they are in steps that block again, as every run does under
        the synchronous schedule; any other run is copied into a new block.
        Verdicts go in iteration order, so an agent that moves twice in a
        round (a lone root) moves in order."""
        verdicts: dict[int, BestInfo] = {}
        movers: dict[int, list] = {}  # iteration -> (machine, UPDATE envelopes, Moved record)
        for machine, best, updates, moved in self._moves:
            verdicts[best.iteration] = best
            movers.setdefault(best.iteration, []).append((machine, updates, moved))
        self._moves.clear()
        rows = block_rows(self.params.K)
        for t in sorted(movers):
            best, group = verdicts[t], movers[t]
            for lo in range(0, len(group), rows):
                run = group[lo:lo + rows]
                block = run[0][0].block
                if np.size(block.ordinals) != len(run) or any(
                        m.block is not block or m.column != c for c, (m, _, _) in enumerate(run)):
                    block = self._regather([m for m, _, _ in run])
                move_block(block, best, self.params)
                for c, (machine, updates, moved) in enumerate(run):
                    machine.position = block.position_of(c)
                    for env in updates:
                        env.values = machine.position
                    if moved is not None:
                        moved.position = machine.position

    @staticmethod
    def _hold(machines: list[AgentMachine], block: Block):
        """Point each machine at its column of `block`, in order."""
        for c, machine in enumerate(machines):
            machine.block, machine.column = block, c
            machine.position = block.position_of(c)

    def _regather(self, machines: list[AgentMachine]) -> Block:
        """A new block holding the machines' components, in order: copies, or
        for one machine, as `fresh_block` holds it, its own (steps replace
        arrays and never write into them)."""
        states = [m.state for m in machines]
        if len(machines) == 1:
            block = Block(machines[0].ordinal, machines[0].domain, states[0])
        else:
            block = Block(np.array([m.ordinal for m in machines]),
                          domain_bounds([m.domain for m in machines]),
                          AgentSwarmState(*(np.array([getattr(s, f) for s in states]).T for f in (
                              "position", "velocity", "pbest_component", "gbest_component"))))
        self._hold(machines, block)
        return block

    def _evaluate_edges(self):
        """Cost the round's edge-cost sends, in firing order and in runs of a
        block of rows: a run of at least `GATHERED_EDGES` edges with one
        `evaluate_edge` call on gathered operands, a shorter run edge by edge."""
        rows = block_rows(self.params.K)
        for lo in range(0, len(self._edge_costs), rows):
            run = self._edge_costs[lo:lo + rows]
            operands = [self._by_id[env.sender].edge_operands(env) for env in run]
            if len(run) < GATHERED_EDGES:
                for env, (cost, xi, xj) in zip(run, operands):
                    env.fitness = evaluate_edge(cost, xi, xj)
                continue
            # one QuadraticCost per row, as (E_b, 1) coefficient columns
            cost = SimpleNamespace(a=np.array([[c.a] for c, _, _ in operands]),
                                   b=np.array([[c.b] for c, _, _ in operands]),
                                   c=np.array([[c.c] for c, _, _ in operands]))
            costs = evaluate_edge(cost, np.array([xi for _, xi, _ in operands]),
                                  np.array([xj for _, _, xj in operands]))
            for e, env in enumerate(run):
                env.fitness = costs[e]
        self._edge_costs.clear()

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
