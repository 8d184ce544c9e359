from collections import Counter

import pytest

from swarmdcop import Constraint, ContinuousDomain, Problem, QuadraticCost
from swarmdcop.rng import SplitMix64
from swarmdcop.runtime import Envelope, Judged, Moved, RoundReport


def make_fig1() -> Problem:
    """4-agent worked example: x1-x2, x1-x3, x1-x4 plus cross edge x3-x4."""
    return Problem(
        domains={a: ContinuousDomain(-10.0, 10.0) for a in ("x1", "x2", "x3", "x4")},
        constraints=[
            Constraint("x1", "x2", QuadraticCost(1.0, 0.0, -1.0)),   # x1^2 - x2^2
            Constraint("x1", "x3", QuadraticCost(1.0, 2.0, 0.0)),    # x1^2 + 2*x1*x3
            Constraint("x1", "x4", QuadraticCost(2.0, 0.0, -2.0)),   # 2*x1^2 - 2*x4^2
            Constraint("x3", "x4", QuadraticCost(1.0, 0.0, 3.0)),    # x3^2 + 3*x4^2
        ],
    )


# the two hand-pinned particles: P1 = (-1, 0, 2, 9.5), P2 = (3.5, 4.9, 1, 0)
FIG1_FORCE = {
    "x1": [-1.0, 3.5],
    "x2": [0.0, 4.9],
    "x3": [2.0, 1.0],
    "x4": [9.5, 0.0],
}

FIG1_FITNESS_P1 = 94.25
FIG1_FITNESS_P2 = 32.99


@pytest.fixture
def fig1() -> Problem:
    return make_fig1()


@pytest.fixture
def fig1_force() -> dict[str, list[float]]:
    return {a: list(v) for a, v in FIG1_FORCE.items()}


class Recorder:
    """A `Simulator(on_event=...)` callable that keeps every record, by kind."""

    def __init__(self):
        self.sent: list[Envelope] = []
        self.moved: list[Moved] = []
        self.judged: list[Judged] = []
        self.rounds: list[RoundReport] = []

    def __call__(self, event):
        kinds = {Envelope: self.sent, Moved: self.moved, Judged: self.judged,
                 RoundReport: self.rounds}
        kinds[type(event)].append(event)

    def sent_by(self, agent: str) -> Counter:
        """(iteration, Kind) -> number of envelopes `agent` sent."""
        return Counter((e.iteration, e.kind) for e in self.sent if e.sender == agent)

    def positions(self, agent: str) -> dict:
        """iteration -> the agent's components of all particles."""
        return {m.iteration: m.position for m in self.moved if m.agent == agent}

    def fitness(self) -> dict:
        """iteration -> the fitness vector the root judged."""
        return {j.best.iteration: j.fitness for j in self.judged}


def run_shuffled(sim, seed):
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
