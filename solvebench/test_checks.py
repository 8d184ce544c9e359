"""Tests of the solve benchmark's own checks and tracing.

    python3 -m pytest solvebench

Each check must accept a correct output and reject the same output with one
thing corrupted.
"""

import json
import math
from pathlib import Path

import pytest

import run  # puts the package under src/ on sys.path
import spans
from checks import (
    CheckFailed,
    check_assignment,
    check_envelope_count,
    check_gbest_trace,
    check_identical_csv,
    check_matches_reference,
    check_scalar_volume,
)
from swarmdcop import generator, global_cost, oracle, runtime
from swarmdcop.swarm import SwarmParams

T = 30
K = 16


@pytest.fixture(scope="module")
def solved():
    problem = generator.generate(generator.GenSpec("erdos_renyi", 8, 3, p=0.4))
    params = SwarmParams(K=K, seed=5)
    sim = runtime.Simulator(problem, params, T)
    trace = sim.run_to_quiescence()
    reference = oracle.centralized_gcpso(problem, params, T)
    return problem, sim, trace, reference


def test_real_outputs_pass_every_check(solved):
    problem, sim, trace, reference = solved
    run.check_outputs(run.Workload("erdos_renyi", 8, K, T, 1, 1), problem, sim, trace, reference)
    check_identical_csv(trace.to_csv(), trace.to_csv())


def test_gbest_that_rises_mid_trace_is_rejected(solved):
    series = solved[2].gbest_series()
    check_gbest_trace(series, T)
    corrupted = list(series)
    corrupted[T // 2] = corrupted[T // 2 - 1] + 1.0
    with pytest.raises(CheckFailed, match="rises"):
        check_gbest_trace(corrupted, T)
    with pytest.raises(CheckFailed, match="rows"):
        check_gbest_trace(series[:-1], T)


def test_reference_off_by_more_than_1e9_relative_is_rejected(solved):
    series = solved[2].gbest_series()
    reference = solved[3].gbest_series()
    check_matches_reference(series, reference)
    near = list(reference)
    near[7] *= 1 + 1e-10
    check_matches_reference(series, near)
    far = list(reference)
    far[7] *= 1 + 3e-9
    with pytest.raises(CheckFailed, match="iteration 8"):
        check_matches_reference(series, far)


@pytest.mark.parametrize("delta", [-1, 1])
def test_envelope_count_off_by_one_is_rejected(solved, delta):
    problem, sim, _, _ = solved
    tree = sim.tree
    aggregators = sum(1 for a in problem.ids if a != tree.root and tree.L[a])
    E = len(problem.constraints)
    check_envelope_count(sim.cum_envelopes, T, E, aggregators)
    with pytest.raises(CheckFailed, match="envelopes"):
        check_envelope_count(sim.cum_envelopes + delta, T, E, aggregators)


def test_scalars_outside_the_payload_bounds_are_rejected(solved):
    sim = solved[1]
    check_scalar_volume(sim.cum_scalars, sim.cum_envelopes, K)
    with pytest.raises(CheckFailed):
        check_scalar_volume(K * sim.cum_envelopes - 1, sim.cum_envelopes, K)
    with pytest.raises(CheckFailed):
        check_scalar_volume((3 * K + 3) * sim.cum_envelopes + 1, sim.cum_envelopes, K)


def test_wrong_assignment_is_rejected(solved):
    problem, sim, trace, _ = solved
    g = sim.root.gbest_index
    assignment = {m.id: float(m.state.pbest_component[g]) for m in sim.machines}
    check_assignment(global_cost(problem, assignment), trace.final_gbest)
    agent = sim.machines[-1]  # take this agent's component of another particle
    other = next(float(x) for x in agent.state.pbest_component if x != assignment[agent.id])
    assignment[agent.id] = other
    with pytest.raises(CheckFailed, match="best assignment"):
        check_assignment(global_cost(problem, assignment), trace.final_gbest)


def test_trace_csv_differing_by_one_byte_is_rejected(solved):
    csv = solved[2].to_csv()
    flipped = csv[:-2] + chr(ord(csv[-2]) ^ 1) + csv[-1]
    with pytest.raises(CheckFailed, match="byte"):
        check_identical_csv(flipped, csv)
    with pytest.raises(CheckFailed, match="byte"):
        check_identical_csv(csv + "\n", csv)


def _traced_solve(tracer, problem, params):
    with tracer.installed():
        return runtime.Simulator(problem, params, T).run_to_quiescence()


def test_tracing_changes_no_output_and_restores_every_function(solved):
    problem, _, trace, _ = solved
    originals = {name: spans._resolve(mod, path)[2] for name, (mod, path, _) in spans.SPANS.items()}
    tracer = spans.Tracer()
    traced = _traced_solve(tracer, problem, SwarmParams(K=K, seed=5))
    check_identical_csv(traced.to_csv(), trace.to_csv())
    metrics = tracer.metrics()
    assert metrics["swarm.apply_best_calls"] == problem.n_agents * T
    assert metrics["rng.uniforms_drawn"] == K * metrics["rng.keyed_uniforms_calls"]
    assert metrics["runtime.envelopes_delivered"] > 0
    for name, (mod, path, _) in spans.SPANS.items():
        assert spans._resolve(mod, path)[2] is originals[name], name
    assert runtime.evaluate_edge is oracle.evaluate_edge


def test_a_renamed_function_leaves_its_metrics_absent(solved, monkeypatch):
    problem, _, trace, _ = solved
    monkeypatch.setitem(spans.SPANS, "rng.keyed_uniforms",
                        ("swarmdcop.rng", "keyed_uniforms_renamed", None))
    tracer = spans.Tracer()
    traced = _traced_solve(tracer, problem, SwarmParams(K=K, seed=5))
    assert traced.to_csv() == trace.to_csv()
    metrics = tracer.metrics()
    assert tracer.absent == {"rng.keyed_uniforms"}
    assert not any(name.startswith("rng.") or name == "oracle.keyed_uniforms_s" for name in metrics)
    assert metrics["swarm.apply_best_calls"] == problem.n_agents * T


def test_benchmark_json_names_what_the_benchmark_reports():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.E2E_UNITS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert [m["name"] for m in spec["per_layer"]] == list(spans.LAYER_METRICS)
    assert all(m["unit"] == spans.metric_unit(m["name"]) for m in spec["per_layer"])
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert all(math.isfinite(m["bound"]) and 0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
