"""The numeric kernels: fixed bits across versions, and no writes into inputs."""

import hashlib

import numpy as np
import pytest

from swarmdcop import (ContinuousDomain, GenSpec, Problem, QuadraticCost, SwarmParams,
                       centralized_gcpso, generate)
from swarmdcop.model import cost_columns, evaluate_edge
from swarmdcop.rng import DRAW_INIT, DRAW_R1, DRAW_R2, keyed_uniforms
from swarmdcop.runtime import Simulator
from swarmdcop.swarm import BestInfo, apply_best, domain_bounds, fresh_state

from conftest import FIG1_FORCE, make_fig1


def _mixed_domains(problem):
    domains = {a: ContinuousDomain(-k - 1.0, 2.0 * k + 0.5) for k, a in enumerate(problem.ids)}
    return Problem(domains=domains, constraints=problem.constraints)


# sha256 of both solvers' trace CSVs and the distributed swarm's final
# positions, velocities and personal bests, recorded before the kernels
# computed in place and re-recorded twice since, as the trace rows' scalars
# fell: when the verdict went down the tree edges only, and when its K flags
# came to travel packed, ceil(K/64) + 4 scalars in place of K + 4 (each time
# the earlier values were reproduced with the old scalars put back);
# any reordered or fused operation changes them
FINGERPRINTS = {
    "er20-k2000": "20ac1f7f7889cf7df6c9bf12f20559b4db736efaf1b1e0af1b142de1f5f3ac27",
    "sf200-k50": "408321e727bd503cd6db5f6c0e3c1ced80ea4a9113ab915c34f316a9b479508e",
    "fig1-force-init": "4bf7a595cf93073a13824bef1d9a17d81d826800165068804bae24e5197c0a90",
    "mixed-clamped": "07fec1efb247213489ebf3af4936169a67d984fce5c490daf99be7cf50d0c77b",
}


def _case(name):
    """(problem, params, iterations, force_init) of a fingerprinted case."""
    if name == "er20-k2000":
        return generate(GenSpec("erdos_renyi", 20, 1, p=0.2)), SwarmParams(K=2000, seed=11), 20, None
    if name == "sf200-k50":
        return generate(GenSpec("scale_free", 200, 2, m=2)), SwarmParams(K=50, seed=12), 10, None
    if name == "fig1-force-init":
        return make_fig1(), SwarmParams(K=2, seed=0), 30, FIG1_FORCE
    problem = _mixed_domains(generate(GenSpec("erdos_renyi", 9, 3, p=0.4)))
    return problem, SwarmParams(K=17, w=1.0, c1=4.0, c2=4.0, clamp_velocity=True, seed=9), 60, None


@pytest.mark.parametrize("name", sorted(FINGERPRINTS))
def test_results_keep_their_bits(name):
    problem, params, iterations, force_init = _case(name)
    sim = Simulator(problem, params, iterations, force_init=force_init)
    digest = hashlib.sha256(sim.run_to_quiescence().to_csv().encode())
    digest.update(centralized_gcpso(problem, params, iterations, force_init).to_csv().encode())
    digest.update(sim.swarm.position.tobytes())
    for o in range(problem.n_agents):
        row = sim.swarm.row(o)
        digest.update(row.velocity.tobytes() + row.pbest_component.tobytes())
    assert digest.hexdigest() == FINGERPRINTS[name]


def _snapshot(arrays):
    return [np.asarray(a).tobytes() for a in arrays]


@pytest.mark.parametrize("rows", [1, 3])
@pytest.mark.parametrize("clamp", [False, True])
def test_kernels_write_into_none_of_their_inputs(rows, clamp):
    # a swarm step keeps generation t intact for the envelopes that carry it
    K, seed = 11, 5
    domains = [ContinuousDomain(-1.0 - k, 0.5 + k) for k in range(rows)]
    bounds, ordinals = domain_bounds(domains), np.arange(rows)
    state = fresh_state(K, bounds, seed, ordinals)
    state.velocity = keyed_uniforms(seed, ordinals, 9, DRAW_INIT, K) - 0.5  # nonzero
    params = SwarmParams(K=K, w=1.0, c1=4.0, c2=4.0, clamp_velocity=clamp, seed=seed)
    improved = np.packbits(keyed_uniforms(seed, 99, 0, DRAW_INIT, K) < 0.5)
    best = BestInfo(iteration=1, improved=improved,
                    gbest_index=4, gbest_fitness=1.0, gbest_changed=True, rho=0.5)
    r1 = keyed_uniforms(seed, ordinals, 1, DRAW_R1, K)
    r2 = keyed_uniforms(seed, ordinals, 1, DRAW_R2, K)
    old = [state.position, state.velocity, state.pbest_component]
    inputs = old + [r1, r2, best.improved, bounds.lower, bounds.upper, bounds.width]
    taken = _snapshot(inputs)
    apply_best(state, best, params, bounds, r1, r2)
    assert _snapshot(inputs) == taken
    for new in (state.position, state.velocity, state.pbest_component):
        assert not any(np.shares_memory(new, a) for a in inputs)

    xi, xj = state.position, old[0]
    cost = cost_columns([QuadraticCost(1.5 + k, -2.0, 0.25 * k) for k in range(rows)])
    operands = [xi, xj, cost.a, cost.b, cost.c]
    taken = _snapshot(operands)
    costs = evaluate_edge(cost, xi, xj)
    assert _snapshot(operands) == taken
    assert not any(np.shares_memory(costs, a) for a in operands)
    edge = QuadraticCost(1.5, -2.0, 0.25)
    assert evaluate_edge(edge, xi[0], xj[0]).tobytes() == np.array(
        [evaluate_edge(edge, float(a), float(b)) for a, b in zip(xi[0], xj[0])]).tobytes()
    assert _snapshot(operands) == taken


def test_edge_costs_broadcast_operands_of_different_shapes():
    # `global_cost` on grid axes: an (m, 1) and a (1, m) operand cost every pair
    edge, axis = QuadraticCost(0.75, -3.0, 2.5), np.linspace(-2.0, 3.0, 5)
    got = evaluate_edge(edge, axis[:, None], axis[None, :])
    assert got.shape == (5, 5)
    assert got.tobytes() == np.array([[evaluate_edge(edge, float(a), float(b)) for b in axis]
                                      for a in axis]).tobytes()
