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

from .model import Problem, evaluate_edge
from .pseudotree import PseudoTree, build_bfs_pseudotree
from .rng import DRAW_R1, DRAW_R2, keyed_uniforms
from .swarm import (AgentSwarmState, BestInfo, RootState, SwarmParams, apply_best,
                    check_force_init, fresh_state, root_update)


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
    """One agent: owns its swarm components, acts only on received envelopes."""

    def __init__(self, agent_id: str, problem: Problem, tree: PseudoTree,
                 params: SwarmParams, max_iterations: int,
                 forced: np.ndarray | None, on_event):
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
        self.forced = forced
        self.on_event = on_event

        self.state: AgentSwarmState | None = None
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
        out: list[Envelope] = []
        if not self.initialized:
            self.initialized = True
            self.state = fresh_state(self.params.K, self.domain, self.params.seed, self.ordinal,
                                     self.forced)
            if self.on_event is not None:
                self.on_event(Moved(round_no, self.id, 0, self.state.position))
            for j in self.L:
                out.append(Envelope(Kind.VALUE, 0, self.id, j, values=self.state.position))
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
        earlier slot is still missing. Raises on a late or duplicate one."""
        t = env.iteration
        if t != self.fitness_next:
            raise RuntimeError(
                f"{self.id}: {env.kind.value} from {env.sender} for iteration {t} arrived "
                f"while folding iteration {self.fitness_next}")
        slot = self.tree.fitness_slot(self.id, env.sender, env.kind is Kind.AGG_FITNESS)
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
        r1 = keyed_uniforms(self.params.seed, self.ordinal, best.iteration, DRAW_R1, self.params.K)
        r2 = keyed_uniforms(self.params.seed, self.ordinal, best.iteration, DRAW_R2, self.params.K)
        apply_best(self.state, best, self.params, self.domain, r1, r2)
        self.own_iter = best.iteration + 1
        if self.on_event is not None:
            self.on_event(Moved(round_no, self.id, self.own_iter, self.state.position))
        # the final verdict still floods down so every agent consumes it; the
        # `done` guard on the evaluation phase stops the cascade afterwards
        for j in self.L:
            out.append(Envelope(Kind.UPDATE, self.own_iter, self.id, j,
                                values=self.state.position, best=best))

    def _send_edge_costs(self, out: list[Envelope]):
        t = self.own_iter
        own = self.state.position
        for h in self.H:
            h_values = self.values_buf.pop((t, h))
            con = self.constraint_with[h]
            if con.i == h:
                fit = evaluate_edge(con.cost, h_values, own)
            else:
                fit = evaluate_edge(con.cost, own, h_values)
            out.append(Envelope(Kind.EDGE_FITNESS, t, self.id, h, fitness=fit))
        self.edge_done_iter = t

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
    ordinal order, queue their sends for the next round.

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
        self.machines = [
            AgentMachine(agent_id, problem, self.tree, params, iterations,
                         forced[agent_id], on_event)
            for agent_id in problem.ids
        ]
        self._by_id = {m.id: m for m in self.machines}
        self.root = self._by_id[self.tree.root]
        self.round = 0
        self.queue: list[Envelope] = []
        self.cum_envelopes = 0
        self.cum_scalars = 0
        self.trace = AnytimeTrace()

        for machine in self.machines:
            self._register_sends(machine.fire(0, []))
        self._drain_root(0)

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
        fired = 0
        sent_before = self.cum_envelopes
        for machine in self.machines:
            inbox = inboxes.get(machine.id)
            if inbox is not None:
                fired += 1
                self._register_sends(machine.fire(self.round, inbox))
                self._drain_root(self.round)
        report = RoundReport(self.round, len(deliveries), fired, self.cum_envelopes - sent_before)
        if self.on_event is not None:
            self.on_event(report)
        return report

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
