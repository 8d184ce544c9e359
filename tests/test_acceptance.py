"""Acceptance suite: one test per release criterion, tolerances pinned.

Run with `pytest tests/test_acceptance.py -v` for one pass/fail line per
criterion; each test also prints a `[criterion N] PASS` line (visible with
`-s` or `-rP`).
"""

import math
import time

import numpy as np
import pytest

from swarmdcop import (
    ContinuousDomain,
    GenSpec,
    GridSpec,
    Problem,
    SwarmParams,
    build_bfs_pseudotree,
    centralized_gcpso,
    generate,
    grid_search,
    run,
)
from swarmdcop.cli import main as cli_main
from swarmdcop.runtime import Kind, Simulator
from swarmdcop.swarm import RootState, root_update

from conftest import FIG1_FITNESS_P1, FIG1_FITNESS_P2, Recorder


def test_c1_golden_worked_example(fig1, fig1_force):
    start = time.perf_counter()
    rec = Recorder()
    sim = Simulator(fig1, SwarmParams(K=2, seed=0), 1, force_init=fig1_force, on_event=rec)
    trace = sim.run_to_quiescence()
    fitness = rec.fitness()[0]
    assert fitness[0] == pytest.approx(FIG1_FITNESS_P1, abs=1e-9)
    assert fitness[1] == pytest.approx(FIG1_FITNESS_P2, abs=1e-9)
    assert sim.swarm.root.pbest_fitness[0] == pytest.approx(94.25, abs=1e-9)
    assert sim.swarm.root.pbest_fitness[1] == pytest.approx(32.99, abs=1e-9)
    assert sim.root.gbest_index == 1  # particle 2, zero-based
    assert trace.final_gbest == pytest.approx(32.99, abs=1e-9)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"\n[criterion 1] PASS - fitness (94.25, 32.99), gbest particle 2, {elapsed:.3f}s")


def test_c2_edge_cost_goldens(fig1, fig1_force):
    rec = Recorder()
    Simulator(fig1, SwarmParams(K=2, seed=0), 1,
              force_init=fig1_force, on_event=rec).run_to_quiescence()
    edges = {
        (e.sender, e.recipient): e.fitness
        for e in rec.sent
        if e.kind is Kind.EDGE_FITNESS and e.iteration == 0
    }
    expected = {
        ("x4", "x3"): [274.75, 1.0],
        ("x4", "x1"): [-178.5, 24.5],
        ("x3", "x1"): [-3.0, 19.25],
        ("x2", "x1"): [1.0, -11.76],
    }
    assert set(edges) == set(expected)
    for route, values in expected.items():
        assert edges[route].tolist() == pytest.approx(values, abs=1e-9)
    print("\n[criterion 2] PASS - all four edge-cost messages reproduced within 1e-9")


def test_c3_oracle_equivalence_on_mixed_instances():
    start = time.perf_counter()
    topologies = ["erdos_renyi", "scale_free", "random_tree"]
    checked = 0
    for k in range(20):
        topology = topologies[k % 3]
        n = 4 + (k % 12)  # 4..15
        spec = GenSpec(topology=topology, n=n, seed=1000 + k, p=0.3, m=min(2, n - 1))
        problem = generate(spec)
        params = SwarmParams(K=10 + (k % 5) * 10, seed=k)  # K in 10..50
        distributed = run(problem, params, 100).gbest_series()
        centralized = centralized_gcpso(problem, params, 100).gbest_series()
        assert distributed == centralized, (k, topology, n)
        checked += 1
    elapsed = time.perf_counter() - start
    assert checked == 20
    assert elapsed < 60.0
    print(f"\n[criterion 3] PASS - 20 instances x 100 iterations agree bit for bit, {elapsed:.1f}s")


def test_c4_anytime_property_and_full_scale_smoke():
    violations = 0
    for k in range(50):
        problem = generate(GenSpec(topology="erdos_renyi", n=20, seed=2000 + k, p=0.2))
        series = run(problem, SwarmParams(K=200, seed=k), 500).gbest_series()
        violations += sum(1 for a, b in zip(series, series[1:]) if b > a)
    assert violations == 0

    start = time.perf_counter()
    problem = generate(GenSpec(topology="erdos_renyi", n=20, seed=4242, p=0.2))
    series = run(problem, SwarmParams(K=2000, seed=99), 500).gbest_series()
    smoke = time.perf_counter() - start
    assert all(b <= a for a, b in zip(series, series[1:]))
    assert smoke < 300.0
    print(f"\n[criterion 4] PASS - 0 violations over 50 traces; K=2000 smoke {smoke:.1f}s")


def test_c5_near_optimality_vs_grid():
    domain = ContinuousDomain(-5.0, 5.0)
    specs = [GenSpec(topology="random_tree", n=4, seed=3000 + k, domain=domain)
             for k in range(30)]
    problems = [generate(s) for s in specs]
    # oracle side first: exhaustive 11-point grids
    grid_costs = [grid_search(p, GridSpec(points_per_dim=11))[1] for p in problems]
    wins = 0
    for k, problem in enumerate(problems):
        final = run(problem, SwarmParams(K=2000, seed=k), 500).final_gbest
        if final <= grid_costs[k] + 1e-9 * max(1.0, abs(grid_costs[k])):
            wins += 1
    assert wins >= 27, f"swarm beat the coarse grid on only {wins}/30 instances"
    print(f"\n[criterion 5] PASS - final cost <= 11-point grid on {wins}/30 instances")


def test_c6_message_accounting():
    problem = generate(GenSpec(topology="erdos_renyi", n=12, seed=555, p=0.3))
    tree = build_bfs_pseudotree(problem)
    iterations = 20
    K = 25
    rec = Recorder()
    sim = Simulator(problem, SwarmParams(K=K, seed=1), iterations, on_event=rec)
    sim.run_to_quiescence()
    for agent in problem.ids:
        counts = rec.sent_by(agent)
        h, l = len(tree.H[agent]), len(tree.L[agent])
        agg = 1 if (agent != tree.root and l > 0) else 0
        for t in range(1, iterations):
            sent = (
                counts[(t, Kind.UPDATE)]
                + counts[(t, Kind.EDGE_FITNESS)]
                + counts[(t, Kind.AGG_FITNESS)]
            )
            assert sent == l + h + agg, (agent, t)
    # payload scalars grow as K * messages (each envelope carries Theta(K))
    assert K * sim.cum_envelopes <= sim.cum_scalars <= (2 * K + 4) * sim.cum_envelopes
    sim2 = Simulator(problem, SwarmParams(K=2 * K, seed=1), iterations)
    sim2.run_to_quiescence()
    assert sim2.cum_envelopes == sim.cum_envelopes  # message count independent of K
    ratio = sim2.cum_scalars / sim.cum_scalars
    assert 1.8 <= ratio <= 2.2
    print("\n[criterion 6] PASS - per-agent counts match |L|+|H|+1 exactly; scalars scale with K")


def test_c7_rho_controller_scripted_sequence():
    max_sc, max_fc = 15, 5
    K = 2
    params = SwarmParams(K=K, max_sc=max_sc, max_fc=max_fc)
    root = RootState(np.array([math.inf, math.inf]))
    rho_seen = [root.rho]

    def step(fitness, t):
        best = root_update(root, np.asarray(fitness, dtype=float), params, t)
        assert best.rho == root.rho
        assert not (root.s_c > 0 and root.f_c > 0), "success/failure counters both positive"
        if root.rho != rho_seen[-1]:
            rho_seen.append(root.rho)

    t = 0
    value = 100.0
    # max_sc + 1 consecutive successes: the global-best particle keeps improving
    for _ in range(max_sc + 1):
        value -= 1.0
        step([value, 200.0], t)
        t += 1
    assert root.s_c == max_sc + 1 and root.rho == 2.0

    # failures: first halving after max_fc + 1 of them, another one right after
    for _ in range(max_fc + 1):
        step([value + 50.0, 200.0], t)
        t += 1
    assert root.f_c == max_fc + 1 and root.rho == 1.0
    step([value + 50.0, 200.0], t)
    assert root.rho == 0.5
    assert rho_seen == [1.0, 2.0, 1.0, 0.5]
    print("\n[criterion 7] PASS - rho walked 1 -> 2 -> 1 -> 0.5 exactly per the controller cases")


def test_c8_byte_identical_traces(tmp_path):
    problem = generate(GenSpec(topology="scale_free", n=10, seed=808, m=2))
    params = SwarmParams(K=40, seed=17)
    p1, p2 = tmp_path / "one.csv", tmp_path / "two.csv"
    run(problem, params, 120).write_csv(p1)
    run(problem, params, 120).write_csv(p2)
    assert p1.read_bytes() == p2.read_bytes()
    print("\n[criterion 8] PASS - identical (problem, params, seed) gave byte-identical CSVs")


def test_c9_iteration_trend_and_bench_sweep(tmp_path, capsys):
    # anytime traces make a budget-B run the prefix of a budget-500 run, so
    # the per-budget final costs are rows 10/100/500 of one trace
    budgets = (10, 100, 500)
    finals = {b: [] for b in budgets}
    for k in range(10):
        problem = generate(GenSpec(topology="erdos_renyi", n=20, seed=9000 + k, p=0.2))
        series = run(problem, SwarmParams(K=200, seed=k), 500).gbest_series()
        for b in budgets:
            finals[b].append(series[b - 1])
    means = [sum(finals[b]) / len(finals[b]) for b in budgets]
    assert means[1] < means[0], f"mean cost did not drop from 10 to 100 iters: {means}"
    assert means[2] < means[1], f"mean cost did not drop from 100 to 500 iters: {means}"

    start = time.perf_counter()
    for n in (10, 20, 30, 40, 50):
        rc = cli_main([
            "bench", "--topology", "er", "--p", "0.2", "--agents", str(n),
            "--instances", "3", "--seed", str(7000 + n), "--particles", "2000",
            "--iters", "100", "--out-dir", str(tmp_path), "--name", f"sweep_n{n}",
        ])
        assert rc == 0
        lines = (tmp_path / f"sweep_n{n}.csv").read_text().splitlines()
        assert len(lines) == 1 + 3 + 1
    sweep = time.perf_counter() - start
    capsys.readouterr()
    assert sweep < 1800.0
    print(f"\n[criterion 9] PASS - mean cost {means[0]:.0f} -> {means[1]:.0f} -> {means[2]:.0f}; "
          f"sweep n=10..50 in {sweep:.0f}s")
