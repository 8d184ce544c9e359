"""Guaranteed-convergence particle-swarm arithmetic.

Each agent holds one component of every particle. The swarm of K particles
moves under two velocity rules: the current global-best particle explores a
radius rho around the best known point; every other particle follows the
usual inertia + personal-best + global-best pull. rho doubles after a run of
consecutive successes and halves after a run of consecutive failures. One
`RootState` holds the fitness bests and this controller; each verdict carries
rho to the agents, which keep only their particle components: position,
velocity and personal best. The global-best component is not stored; a step
reads it from the personal bests at the verdict's gbest index.

All update functions accept scalars or numpy arrays that broadcast together
and keep a fixed expression shape, so vectorized and scalar evaluation round
identically per element. Swarm state is agent-major: one row of K particle
components per agent, a block of one agent included. The distributed runtime
and the centralized reference both hold the swarm in the same blocks of
agents in ordinal order (`ordinal_blocks`) and step every block once per
verdict with `move_block` (one key grid per draw, one `apply_best`) on the
same keyed random draws, which makes their particle trajectories
bit-identical. A step replaces a block's arrays and writes into none of
them, so the generation it stepped from stays intact for whoever still
reads it.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .model import ContinuousDomain, Problem
from .rng import DRAW_INIT, DRAW_R1, DRAW_R2, keyed_uniforms

# Most elements in one working array of a block of agents or edges by K
# particles (at least one row): the bound on its working set. On the solve
# benchmark (2 vCPUs, one pass per workload), against per-agent calls, whole
# (n, K) and (E, K) arrays in the centralized reference raised peak_rss_mb by
# 23% on sf1600-k50 and 17% on er20-k2000; blocks of 8192 by 3.4% and 2.4%;
# blocks of 4096 by 2.7% and 1.3%. 2048 was slower at K=2000.
BLOCK_ELEMENTS = 4096


def block_rows(K: int) -> int:
    """Agents or edges per block at K particles."""
    return max(1, BLOCK_ELEMENTS // K)


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
        if self.K < 1:
            raise ValueError("K must be >= 1")
        for name in ("w", "c1", "c2"):
            value = getattr(self, name)
            if not (0 <= value < math.inf):  # false for NaN
                raise ValueError(f"{name} must be finite and >= 0, got {value}")
        if self.max_sc < 1 or self.max_fc < 1:
            raise ValueError("max_sc and max_fc must be >= 1")
        if not (0 <= self.seed <= (1 << 64) - 1):
            raise ValueError("seed must be a 64-bit unsigned integer")


@dataclass
class BestInfo:
    """Per-iteration verdict computed at the root and broadcast down."""

    iteration: int
    improved: np.ndarray       # bool, K: particle k improved its personal best
    gbest_index: int
    gbest_fitness: float
    gbest_changed: bool
    rho: float                 # search radius of the global-best particle's next move


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
    row per agent, which broadcast along each agent's K particles."""
    lower = np.array([[d.lower] for d in domains])
    upper = np.array([[d.upper] for d in domains])
    return SimpleNamespace(lower=lower, upper=upper, width=upper - lower)


@dataclass
class Block:
    """An agent-major block of agents: `state` arrays of shape (rows, K), one
    row per agent, with the rows' ordinals and `domain_bounds`, and the
    verdict the state was last stepped under (None: the initial state)."""

    ordinals: np.ndarray
    bounds: SimpleNamespace
    state: AgentSwarmState
    verdict: BestInfo | None = None

    def row(self, r: int) -> AgentSwarmState:
        """Agent r's components: views of row r."""
        s = self.state
        return AgentSwarmState(s.position[r], s.velocity[r], s.pbest_component[r])


def fresh_block(K: int, seed: int, ordinals: Sequence[int], domains: list[ContinuousDomain],
                forced: list[np.ndarray] | None = None) -> Block:
    """The initial block of the agents `ordinals`, row r with domain
    `domains[r]` and, if given, forced positions `forced[r]` (see
    `fresh_state`)."""
    ordinals, bounds = np.array(ordinals), domain_bounds(domains)
    return Block(ordinals, bounds, fresh_state(K, bounds, seed, ordinals, forced))


def ordinal_blocks(problem: Problem, params: SwarmParams,
                   force_init: dict | None = None) -> list[Block]:
    """The initial swarm of `problem`'s agents: blocks of `block_rows(K)`
    agents in ordinal order, so agent o is row o % rows of block o // rows.
    Positions are drawn, or forced by `force_init` (see `check_force_init`)."""
    forced = check_force_init(force_init, problem.domains, params.K)
    rows = block_rows(params.K)
    blocks = []
    for lo in range(0, problem.n_agents, rows):
        agents = problem.ids[lo:lo + rows]
        blocks.append(fresh_block(params.K, params.seed, range(lo, lo + len(agents)),
                                  [problem.domains[a] for a in agents],
                                  None if force_init is None else [forced[a] for a in agents]))
    return blocks


def move_block(block: Block, best: BestInfo, params: SwarmParams):
    """Step every agent of `block` under one verdict: one key grid per draw
    and one `apply_best`. Replaces the block's state arrays and writes into
    none of them, and records `best` as the block's verdict."""
    r1 = keyed_uniforms(params.seed, block.ordinals, best.iteration, DRAW_R1, params.K)
    r2 = keyed_uniforms(params.seed, block.ordinals, best.iteration, DRAW_R2, params.K)
    apply_best(block.state, best, params, block.bounds, r1, r2)
    block.verdict = best


def fresh_state(K: int, domain: ContinuousDomain, seed: int, ordinal: int | np.ndarray,
                forced: np.ndarray | None = None) -> AgentSwarmState:
    """Initial state of agent `ordinal`: zero velocities and positions uniform
    on the domain from its keyed stream, or `forced` positions, which must
    already pass `check_force_init`.

    `ordinal` may also be an array of ordinals, with `domain` their
    `domain_bounds` and `forced`, if given, one row per ordinal: the state is
    then agent-major, of shape (rows, K), drawn from one key grid, and each
    row is bit-identical to the per-agent state.
    """
    if forced is None:
        positions = domain.lower + keyed_uniforms(seed, ordinal, 0, DRAW_INIT, K) * domain.width
    else:
        positions = np.array(forced, dtype=np.float64)
    return AgentSwarmState(
        position=positions,
        velocity=np.zeros_like(positions),
        pbest_component=positions.copy(),
    )


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
    """Inertia plus personal-best and global-best pulls."""
    return w * v + r1 * c1 * (pbest_c - x) + r2 * c2 * (gbest_c - x)


def velocity_gbest(v, x, gbest_c, w, rho, r2):
    """Global-best particle: land on gbest, keep inertia, perturb within rho."""
    return -x + gbest_c + w * v + rho * (1.0 - 2.0 * r2)


def position_update(x, v_new, domain: ContinuousDomain):
    """x + v, clamped into the box domain."""
    return np.minimum(np.maximum(x + v_new, domain.lower), domain.upper)


def rho_update(rho: float, s_c: int, f_c: int, max_sc: int, max_fc: int, t: int) -> float:
    """Search-radius controller: double on a success run, halve on a failure run."""
    if t == 0:
        return 1.0
    if s_c > max_sc:
        return 2.0 * rho
    if f_c > max_fc:
        return 0.5 * rho
    return rho


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
        k = int(np.argmax(np.isnan(fitness)))
        raise ValueError(f"iteration {t}: the fitness of particle {k} is NaN")
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
        improved=improved,
        gbest_index=root.gbest_index,
        gbest_fitness=root.gbest_fitness,
        gbest_changed=changed,
        rho=root.rho,
    )


def apply_best(state: AgentSwarmState, best: BestInfo, params: SwarmParams,
               domain: ContinuousDomain, r1: np.ndarray, r2: np.ndarray):
    """Apply one verdict to an agent's state: refresh bests, then advance
    every particle component. Points `state` at new arrays and writes into
    none of its old ones.

    The same call steps an agent-major block of agents: `state` arrays, r1
    and r2 of shape (rows, K) and `domain_bounds` columns. The particles run
    along the last axis, so each element rounds as in the per-agent call and
    a block step is bit-identical to stepping its agents one by one.
    """
    state.pbest_component = np.where(best.improved, state.position, state.pbest_component)
    g = slice(best.gbest_index, best.gbest_index + 1)  # keeps the particle axis
    gbest_component = state.pbest_component[..., g]

    v_new = velocity_standard(state.velocity, state.position, state.pbest_component,
                              gbest_component, params.w, params.c1, params.c2, r1, r2)
    v_new[..., g] = velocity_gbest(state.velocity[..., g], state.position[..., g],
                                   gbest_component, params.w, best.rho, r2[..., g])
    if params.clamp_velocity:
        v_new = np.minimum(np.maximum(v_new, -domain.width), domain.width)
    state.velocity = v_new
    state.position = position_update(state.position, v_new, domain)
