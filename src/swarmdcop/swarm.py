"""Guaranteed-convergence particle-swarm arithmetic.

Each agent holds one component of every particle. The swarm of K particles
moves under two velocity rules: the current global-best particle explores a
radius rho around the best known point; every other particle follows the
usual inertia + personal-best + global-best pull. rho doubles after a run of
consecutive successes and halves after a run of consecutive failures.
`Swarm.judge` keeps the fitness bests and this controller in `Swarm.root`;
each verdict carries rho to the agents, which keep only their particle
components: position, velocity and personal best. A step reads the global-best
component from the personal bests at the verdict's gbest index.

All update functions accept scalars or numpy arrays that broadcast to the
shape of the positions `x` and keep a fixed expression shape, so vectorized
and scalar evaluation round identically per element. Each computes into one
fresh output with augmented or `out=` operations, in the written operation
order, and writes into none of its arguments. Swarm state is agent-major:
one row of K particle components per agent, a block of one agent included.
`Swarm` is the one owner of the layout: the distributed runtime and the
centralized reference both hold one and judge through it, which steps it
once per verdict (one `apply_best` per block of agents) on the same keyed
random draws, so their particle trajectories are bit-identical. A step only
mixes its draws' counters: their stream keys come from a key schedule,
derived ahead for a span of iterations (`SCHEDULE_WORDS`). Each
generation's positions are one (n, K) array; a step makes a new one and
writes into no old array, so the generation it stepped from stays intact
for whoever still reads it. Set-up draws the initial positions once, from
one (n, 2) table of bounds, into the generation-0 array, which is also the
initial personal bests: shared, not copied, since no array is written in
place after set-up.

A step makes about 30 numpy calls per block, so with few agents a block
their overhead is much of its cost. Computing in place halves a step's
block-sized temporaries, which pays for blocks four times larger than when
every term made its own (`BLOCK_ELEMENTS`): at K=2000 a block holds 8
agents, and a step of 20 agents runs 3 blocks, not 10.
`BENCH_block_kernels.json` records what that measured end to end.
"""

from __future__ import annotations

import math
import operator
import os
from dataclasses import dataclass
from numbers import Real
from types import SimpleNamespace

import numpy as np

from .model import ContinuousDomain, Problem, evaluate_edge
from .rng import DRAW_INIT, DRAW_R1, DRAW_R2, keyed_uniforms, stream_keys, uniforms

# Most elements in one working array of a block of agents or edges by K
# particles (at least one row): the bound on its working set. On the solve
# benchmark (2 vCPUs, two 15-s runs per size, means), against 4096 with one
# temporary per term: in-place kernels at 4096, 8192 and 16384 gave
# er20-k2000 solve_s 0.86x, 0.78x and 0.76x, centralized_s 0.84x, 0.69x and
# 0.66x, and peak_rss_mb +0.0%, +0.5% and +2.3% (sf1600-k50: +0.0%, +0.7%,
# +2.3%). Whole (n, K) and (E, K) arrays had raised peak_rss_mb by 17-23%.
BLOCK_ELEMENTS = 16384


# A swarm's key schedule holds the R1 and R2 keys of its n agents for
# max(1, SCHEDULE_WORDS // (2n)) iterations: 51 at n=20, and one iteration's
# 3200 keys at n=1600. On the solve benchmark (2 vCPUs, alternating run.py
# pairs), 2048 moved peak_rss_mb by -0.2% to +0.5% against keys derived per
# step; 16384 words, a block's elements, raised it 0.6% more on sf1600-k50
# and 1.1% more on er20-k2000 (4 of 4 pairs each) and was no faster on
# er20-k2000.
SCHEDULE_WORDS = 2048
_R1_R2 = np.array((DRAW_R1, DRAW_R2)).reshape(2, 1)  # the draw slots of a schedule, (2, 1)


def block_rows(K: int) -> int:
    """Agents or edges per block at K particles."""
    return max(1, BLOCK_ELEMENTS // K)


def integer_field(name: str, value) -> int:
    """`value` as a Python int; a bool or a non-integer raises a ValueError
    that names the field."""
    try:
        if isinstance(value, bool):
            raise TypeError
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def iteration_count(iterations) -> int:
    """A solver's `iterations` as a Python int >= 1; else a ValueError that
    names the field."""
    iterations = integer_field("iterations", iterations)
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    return iterations


@dataclass(frozen=True)
class SwarmParams:
    """Solver parameters. Defaults follow the benchmark configuration."""

    K: int = 2000
    w: float = 0.9
    c1: float = 0.9
    c2: float = 0.1
    max_sc: int = 15
    max_fc: int = 5
    clamp_velocity: bool = False
    seed: int = 0

    def __post_init__(self):
        for name in ("K", "max_sc", "max_fc", "seed"):
            # numpy integers become Python ints, which the keyed streams take
            object.__setattr__(self, name, integer_field(name, getattr(self, name)))
        if self.K < 1:
            raise ValueError("K must be >= 1")
        for name in ("w", "c1", "c2"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Real):
                raise ValueError(f"{name} must be a real number, got {value!r}")
            if not (0 <= value < math.inf):  # false for NaN
                raise ValueError(f"{name} must be finite and >= 0, got {value}")
        if self.max_sc < 1 or self.max_fc < 1:
            raise ValueError("max_sc and max_fc must be >= 1")
        if not (0 <= self.seed <= (1 << 64) - 1):
            raise ValueError("seed must be a 64-bit unsigned integer")


@dataclass
class BestInfo:
    """Per-iteration verdict computed at the root and broadcast down. Its K
    improvement flags travel packed 8 to a byte, so on the wire it is
    ceil(K/64) + 4 scalars of 8 bytes, whatever the particles did."""

    iteration: int
    improved: np.ndarray       # uint8, ceil(K/8): np.packbits of "particle k improved its pbest"
    gbest_index: int
    gbest_fitness: float
    gbest_changed: bool
    rho: float                 # search radius of the global-best particle's next move

    def improved_flags(self, K: int | None = None) -> np.ndarray:
        """The first K improvement flags as bools; all 8 per byte if K is
        None, the padding bits past the swarm's K reading False."""
        return np.unpackbits(self.improved, count=K).view(bool)


@dataclass
class RootState:
    """The root's running bests and the rho controller; one per swarm."""

    pbest_fitness: np.ndarray  # float, K
    gbest_fitness: float = math.inf
    gbest_index: int = 0
    rho: float = 1.0
    s_c: int = 0
    f_c: int = 0


@dataclass
class AgentSwarmState:
    """One agent's components of the K particles, or a block's: (rows, K)
    arrays, one row per agent.

    Between updates `position` holds the values whose verdict is pending.
    """

    position: np.ndarray
    velocity: np.ndarray
    pbest_component: np.ndarray


def domain_bounds(domains: list[ContinuousDomain]) -> SimpleNamespace:
    """The domains of a block of agents, as `apply_best` and `fresh_state`
    read a domain: lower, upper and width columns of shape (rows, 1), one
    row per agent, which broadcast along each agent's K particles. Lower
    and upper are the columns of one (rows, 2) table."""
    table = np.empty((len(domains), 2))
    # filled column by column: np.array of (lower, upper) pairs took 3x as long
    table[:, 0] = [d.lower for d in domains]
    table[:, 1] = [d.upper for d in domains]
    lower, upper = table[:, :1], table[:, 1:]
    return SimpleNamespace(lower=lower, upper=upper, width=upper - lower)


class Swarm:
    """The swarm of `problem`'s agents and the one owner of its layout.

    The agents sit in blocks of `block_rows(K)` in ordinal order; each block
    steps with one `apply_best` on its (rows, K) arrays. Its R1 and R2 are
    mixed from its rows of the key schedule: the R1 and R2 stream keys of
    all n agents for `max(1, SCHEDULE_WORDS // 2n)` iterations, derived in
    one pass and again only when a step's iteration falls outside them.
    Each generation's positions are one agent-major (n, K) array,
    `position`, whose rows o are agent o's and whose block rows are views of
    it. `step` writes the next generation into a fresh array and writes into
    no old one, so a generation stays intact for whoever still reads it.
    `verdict` is the verdict of the last step (None: the initial swarm);
    `root` holds the running bests and rho controller `judge` updates.
    """

    def __init__(self, problem: Problem, params: SwarmParams, force_init: dict | None = None):
        n, K = problem.n_agents, params.K
        need = 3 * 8 * n * K  # positions, velocities and personal bests
        if need > os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"):
            raise MemoryError(f"a swarm of n={n} agents by K={K} particles needs {need} bytes, "
                              f"more than this machine's physical memory")
        forced = check_force_init(force_init, problem.domains, K)
        self.problem, self.params, self.verdict = problem, params, None
        # one initial state for the whole swarm; each block's starts as views
        # of its rows
        bounds = domain_bounds(list(problem.domains.values()))
        init = fresh_state(K, bounds, params.seed, np.arange(n),
                           None if force_init is None else [forced[a] for a in problem.ids])
        self.position = init.position
        self._rows = rows = block_rows(K)
        self._blocks = []  # (rows of `position`, their domain_bounds, state)
        for lo in range(0, n, rows):
            span = slice(lo, min(lo + rows, n))
            self._blocks.append((
                span,
                SimpleNamespace(lower=bounds.lower[span], upper=bounds.upper[span],
                                width=bounds.width[span]),
                AgentSwarmState(init.position[span], init.velocity[span],
                                init.pbest_component[span])))
        self.root = RootState(np.full(K, np.inf))
        # the key schedule: R1 and R2 keys (span, 2, n) of the iterations from
        # `_scheduled_from`; derived by the first step that needs it
        self._schedule, self._scheduled_from = np.empty((0, 2, n), dtype=np.uint64), 0

    def row(self, o: int) -> AgentSwarmState:
        """Agent o's components of the K particles: views of its rows."""
        b, r = divmod(o, self._rows)
        *_, state = self._blocks[b]
        return AgentSwarmState(self.position[o], state.velocity[r], state.pbest_component[r])

    def step(self, best: BestInfo):
        """Step every block once under `best` into a fresh `position`."""
        params, keys = self.params, self._keys(best.iteration)
        position = np.empty_like(self.position)
        for span, bounds, state in self._blocks:
            r1 = uniforms(keys[0, span], params.K)
            r2 = uniforms(keys[1, span], params.K)
            apply_best(state, best, params, bounds, r1, r2)
            position[span] = state.position
            state.position = position[span]
        self.position, self.verdict = position, best

    def _keys(self, t: int) -> np.ndarray:
        """The (2, n) R1 and R2 stream keys of iteration t, from the key
        schedule, which is derived again from t when t falls outside it."""
        if not 0 <= t - self._scheduled_from < len(self._schedule):
            n = self.position.shape[0]
            span = max(1, SCHEDULE_WORDS // (2 * n))
            iterations = np.arange(t, t + span)[:, None, None]
            self._schedule = stream_keys(self.params.seed, np.arange(n), iterations, _R1_R2)
            self._scheduled_from = t
        return self._schedule[t - self._scheduled_from]

    def judge(self, fitness: np.ndarray, t: int) -> BestInfo:
        """Judge iteration t's fitness against `root` and step under the
        verdict; a NaN fitness raises naming its edge at `position`, the
        generation judged, and leaves the swarm and `root` as they were."""
        try:
            best = root_update(self.root, fitness, self.params, t)
        except NaNFitness as exc:
            raise exc.naming_the_edge(self.problem, self.position) from None
        self.step(best)
        return best


def fresh_state(K: int, domain: ContinuousDomain, seed: int, ordinal: int | np.ndarray,
                forced: np.ndarray | None = None) -> AgentSwarmState:
    """Initial state of agent `ordinal`: zero velocities and positions uniform
    on the domain from its keyed stream, or `forced` positions, which must
    already pass `check_force_init`. The positions are drawn once, scaled
    in place (`u *= width; u += lower` rounds as `lower + u * width`), and
    are also the personal bests: one array, since no step writes into an
    old one.

    `ordinal` may also be an array of ordinals, with `domain` their
    `domain_bounds` and `forced`, if given, one row per ordinal: the state is
    then agent-major, of shape (rows, K), drawn from one key grid, and each
    row is bit-identical to the per-agent state.
    """
    if forced is None:
        positions = keyed_uniforms(seed, ordinal, 0, DRAW_INIT, K)
        positions *= domain.width
        positions += domain.lower
    else:
        positions = np.array(forced, dtype=np.float64)
    return AgentSwarmState(position=positions, velocity=np.zeros_like(positions),
                           pbest_component=positions)


def check_force_init(force_init: dict | None, domains: dict[str, ContinuousDomain],
                     K: int) -> dict[str, np.ndarray | None]:
    """Each agent's forced initial positions (None: draw them); errors name the agent."""
    if force_init is None:
        return dict.fromkeys(domains)
    missing = [a for a in domains if a not in force_init]
    if missing:
        raise ValueError(f"force_init is missing agents: {missing}")
    unknown = [a for a in force_init if a not in domains]
    if unknown:
        raise ValueError(f"force_init names unknown agents: {unknown}")
    forced = {}
    for agent, domain in domains.items():
        where = f"force_init[{agent!r}]"
        try:
            positions = np.array(force_init[agent], dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{where}: {exc}") from None
        if positions.shape != (K,):
            raise ValueError(f"{where}: forced initial positions must have shape ({K},)")
        if not np.isfinite(positions).all():
            raise ValueError(f"{where}: forced initial positions must be finite")
        if positions.min() < domain.lower or positions.max() > domain.upper:
            raise ValueError(f"{where}: forced initial positions fall outside the domain")
        forced[agent] = positions
    return forced


def velocity_standard(v, x, pbest_c, gbest_c, w, c1, c2, r1, r2):
    """Inertia plus personal-best and global-best pulls:
    (w*v + r1*c1*(pbest_c - x)) + r2*c2*(gbest_c - x)."""
    out = pbest_c - x
    out *= r1 * c1
    out += w * v  # a product or a sum rounds the same in either operand order
    pull = gbest_c - x
    pull *= r2 * c2
    out += pull
    return out


def velocity_gbest(v, x, gbest_c, w, rho, r2):
    """Global-best particle: land on gbest, keep inertia, perturb within rho:
    ((-x + gbest_c) + w*v) + rho*(1 - 2*r2)."""
    out = -x
    out += gbest_c
    out += w * v
    out += rho * (1.0 - 2.0 * r2)
    return out


def position_update(x, v_new, domain: ContinuousDomain):
    """x + v, clamped into the box domain (a 0-d array for scalar operands)."""
    out = np.asarray(x + v_new)
    np.maximum(out, domain.lower, out=out)
    return np.minimum(out, domain.upper, out=out)


def rho_update(rho: float, s_c: int, f_c: int, max_sc: int, max_fc: int, t: int) -> float:
    """Search-radius controller: double on a success run, halve on a failure run."""
    if t == 0:
        return 1.0
    if s_c > max_sc:
        return 2.0 * rho
    if f_c > max_fc:
        return 0.5 * rho
    return rho


class NaNFitness(ValueError):
    """A particle's fitness is NaN; `root_update` raises it naming the
    iteration and the particle, and `Swarm.judge` goes on to name the edge
    (`naming_the_edge`)."""

    def __init__(self, iteration: int, particle: int):
        super().__init__(f"iteration {iteration}: the fitness of particle {particle} is NaN")
        self.particle = particle

    def naming_the_edge(self, problem: Problem, position: np.ndarray) -> ValueError:
        """This error, naming the edge behind the NaN at the (n, K) positions
        judged: the first constraint, in constraint-list order, whose cost
        is NaN, or else the first `inf` and the first `-inf` edge cost,
        whose sum is NaN. Searched on the error path only."""
        x, ordinals = position[:, self.particle], problem.ordinals
        with np.errstate(all="ignore"):
            costs = [evaluate_edge(con.cost, x[ordinals[con.i]], x[ordinals[con.j]])
                     for con in problem.constraints]

        def edge(c: int) -> str:
            con = problem.constraints[c]
            return f"constraints[{c}] ({con.i}, {con.j})"

        nan = next((c for c, cost in enumerate(costs) if cost != cost), None)
        high = next((c for c, cost in enumerate(costs) if cost == math.inf), None)
        low = next((c for c, cost in enumerate(costs) if cost == -math.inf), None)
        if nan is not None:
            why = f"the cost of {edge(nan)} is NaN"
        elif high is not None and low is not None:
            why = f"{edge(high)} costs inf and {edge(low)} costs -inf"
        else:  # partial sums that overflow to inf and -inf
            why = "no edge costs NaN, and no two cost inf and -inf: the sum overflows"
        return ValueError(f"{self}: {why}")


def root_update(root: RootState, fitness: np.ndarray, params: SwarmParams,
                t: int) -> BestInfo:
    """Judge one iteration's fitness vector against the running bests and
    step the rho controller. Mutates `root` in place.

    Strict '<' everywhere; ties keep incumbents. Among simultaneous improvers
    of the global best, the lowest particle index wins. Success: the previous
    global-best particle improved its own personal best. Failure: the
    global-best fitness did not change. An infinite fitness compares as a
    number; a NaN one, which compares false with everything, raises.
    """
    low = fitness.min()
    if low != low:  # the min of an array with a NaN is NaN
        raise NaNFitness(t, int(np.argmax(np.isnan(fitness))))
    improved = fitness < root.pbest_fitness
    new_pbest = np.where(improved, fitness, root.pbest_fitness)
    success = new_pbest[root.gbest_index] < root.gbest_fitness
    changed = bool(low < root.gbest_fitness)
    if changed:
        root.gbest_index = int(np.argmin(fitness))
        root.gbest_fitness = float(low)
    root.pbest_fitness = new_pbest
    root.s_c = root.s_c + 1 if success else 0
    root.f_c = root.f_c + 1 if not changed else 0
    root.rho = rho_update(root.rho, root.s_c, root.f_c, params.max_sc, params.max_fc, t)
    return BestInfo(
        iteration=t,
        improved=np.packbits(improved),
        gbest_index=root.gbest_index,
        gbest_fitness=root.gbest_fitness,
        gbest_changed=changed,
        rho=root.rho,
    )


def apply_best(state: AgentSwarmState, best: BestInfo, params: SwarmParams,
               domain: ContinuousDomain, r1: np.ndarray, r2: np.ndarray):
    """Apply one verdict to an agent's state: refresh bests, then advance
    every particle component. Points `state` at new arrays and writes into
    none of its arguments: not its old arrays, r1, r2, `best` or `domain`.

    The same call steps an agent-major block of agents: `state` arrays, r1
    and r2 of shape (rows, K) and `domain_bounds` columns. The particles run
    along the last axis, so each element rounds as in the per-agent call and
    a block step is bit-identical to stepping its agents one by one.
    """
    state.pbest_component = np.where(best.improved_flags(params.K), state.position,
                                     state.pbest_component)
    g = slice(best.gbest_index, best.gbest_index + 1)  # keeps the particle axis
    gbest_component = state.pbest_component[..., g]

    v_new = velocity_standard(state.velocity, state.position, state.pbest_component,
                              gbest_component, params.w, params.c1, params.c2, r1, r2)
    v_new[..., g] = velocity_gbest(state.velocity[..., g], state.position[..., g],
                                   gbest_component, params.w, best.rho, r2[..., g])
    if params.clamp_velocity:
        np.maximum(v_new, -domain.width, out=v_new)
        np.minimum(v_new, domain.width, out=v_new)
    state.velocity = v_new
    state.position = position_update(state.position, v_new, domain)
