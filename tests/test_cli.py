import json

import pytest

from swarmdcop import load_problem
from swarmdcop.cli import BENCH_HEADER, main
from swarmdcop.model import serialize_problem
from swarmdcop.runtime import TRACE_HEADER, parse_trace_csv

from conftest import FIG1_FORCE, make_fig1


@pytest.fixture
def fig1_files(tmp_path):
    problem_path = tmp_path / "fig1.json"
    problem_path.write_text(serialize_problem(make_fig1()), encoding="utf-8")
    force_path = tmp_path / "force.json"
    force_path.write_text(json.dumps(FIG1_FORCE), encoding="utf-8")
    return problem_path, force_path


def test_generate_writes_connected_instances(tmp_path, capsys):
    rc = main([
        "generate", "--topology", "er", "--p", "0.2", "--agents", "10",
        "--seed", "7", "--count", "3", "--out-dir", str(tmp_path),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("config: generate ")
    files = sorted(tmp_path.glob("er_n10_s7_*.json"))
    assert len(files) == 3
    for path in files:
        problem = load_problem(path)  # parse validates connectivity
        assert problem.n_agents == 10


def test_generate_tree_edge_count(tmp_path):
    assert main(["generate", "--topology", "tree", "--agents", "4",
                 "--out-dir", str(tmp_path)]) == 0
    problem = load_problem(tmp_path / "tree_n4_s0_0.json")
    assert len(problem.constraints) == 3


def test_generate_defaults_match_benchmark_ranges(tmp_path):
    assert main(["generate", "--topology", "tree", "--agents", "6",
                 "--seed", "11", "--out-dir", str(tmp_path)]) == 0
    problem = load_problem(tmp_path / "tree_n6_s11_0.json")
    for dom in problem.domains.values():
        assert (dom.lower, dom.upper) == (-50.0, 50.0)
    for con in problem.constraints:
        assert all(-5.0 <= v <= 5.0 for v in (con.cost.a, con.cost.b, con.cost.c))


def test_solve_worked_example_prints_gbest(fig1_files, tmp_path, capsys):
    problem_path, force_path = fig1_files
    trace_path = tmp_path / "fig1.trace.csv"
    rc = main([
        "solve", str(problem_path), "--particles", "2", "--iters", "1",
        "--seed", "0", "--force-init", str(force_path), "--trace", str(trace_path),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "32.99" in out
    text = trace_path.read_text(encoding="utf-8")
    assert text.splitlines()[0] == TRACE_HEADER
    assert len(parse_trace_csv(text).rows) == 1


def test_solve_trace_is_byte_identical_between_runs(fig1_files, tmp_path, capsys):
    problem_path, _ = fig1_files
    args = ["solve", str(problem_path), "--particles", "8", "--iters", "20", "--seed", "5"]
    t1 = tmp_path / "a.csv"
    t2 = tmp_path / "b.csv"
    assert main(args + ["--trace", str(t1)]) == 0
    assert main(args + ["--trace", str(t2)]) == 0
    capsys.readouterr()
    assert t1.read_bytes() == t2.read_bytes()


def test_solve_centralized_oracle_agrees(fig1_files, tmp_path, capsys):
    problem_path, _ = fig1_files
    base = ["solve", str(problem_path), "--particles", "6", "--iters", "15", "--seed", "3"]
    assert main(base + ["--trace", str(tmp_path / "d.csv")]) == 0
    assert main(base + ["--oracle", "centralized", "--trace", str(tmp_path / "c.csv")]) == 0
    capsys.readouterr()
    dist_v = parse_trace_csv((tmp_path / "d.csv").read_text()).final_gbest
    oracle_v = parse_trace_csv((tmp_path / "c.csv").read_text()).final_gbest
    assert dist_v == oracle_v


def test_solve_grid_oracle(fig1_files, capsys):
    problem_path, _ = fig1_files
    rc = main(["solve", str(problem_path), "--oracle", "grid", "--grid-points", "5"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "grid optimum: -100" in out


def test_bench_row_counts(tmp_path, capsys):
    rc = main([
        "bench", "--topology", "er", "--p", "0.4", "--agents", "6",
        "--instances", "4", "--seed", "2", "--particles", "8", "--iters", "10",
        "--out-dir", str(tmp_path), "--name", "smoke",
    ])
    assert rc == 0
    lines = (tmp_path / "smoke.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == BENCH_HEADER
    assert len(lines) == 1 + 4 + 1  # header + instances + aggregate
    assert lines[-1].startswith("aggregate,")
    assert "aggregate: final_cost mean=" in capsys.readouterr().out
    # per-instance traces exist and are anytime-monotone
    for k in range(4):
        trace = parse_trace_csv((tmp_path / f"smoke_{k}.trace.csv").read_text())
        series = trace.gbest_series()
        assert all(b <= a for a, b in zip(series, series[1:]))


def test_cli_is_a_thin_shell_over_the_library(fig1_files, tmp_path, capsys):
    # byte-for-byte the same trace as the equivalent library call
    from swarmdcop import SwarmParams, run

    problem_path, _ = fig1_files
    trace_path = tmp_path / "cli.csv"
    assert main(["solve", str(problem_path), "--particles", "8", "--iters", "25",
                 "--seed", "9", "--trace", str(trace_path)]) == 0
    capsys.readouterr()
    library = run(load_problem(problem_path), SwarmParams(K=8, seed=9), 25)
    assert trace_path.read_text(encoding="utf-8") == library.to_csv()


def test_solve_verbose_event_log(fig1_files, tmp_path, capsys):
    # the pinned particles of the worked example: P2's 32.99 wins iteration 1
    problem_path, force_path = fig1_files
    assert main(["solve", str(problem_path), "--particles", "2", "--iters", "2",
                 "--seed", "0", "--force-init", str(force_path),
                 "--trace", str(tmp_path / "v.csv"), "--verbose"]) == 0
    assert capsys.readouterr().err.splitlines() == [
        "round 1: delivered 4, fired 3, sent 4",
        "round 2: delivered 4, fired 2, sent 1",
        "round 3: iteration 1 judged, gbest=32.989999999999995 changed=True",
        "round 3: delivered 1, fired 1, sent 3",
        "round 4: delivered 3, fired 3, sent 3",
        "round 5: delivered 3, fired 2, sent 2",
        "round 6: delivered 2, fired 2, sent 1",
        "round 7: iteration 2 judged, gbest=10.415435401730344 changed=True",
        "round 7: delivered 1, fired 1, sent 3",
        "round 8: delivered 3, fired 3, sent 1",
        "round 9: delivered 1, fired 1, sent 0",
    ]


@pytest.mark.parametrize("bad, message", [
    ([0.0], "must have shape (2,)"),
    ([float("nan"), 0.0], "must be finite"),
    (5, "must have shape (2,)"),
    (["left", 0.0], "could not convert string to float"),
])
def test_solve_rejects_malformed_force_init_naming_the_agent(fig1_files, tmp_path, capsys,
                                                             bad, message):
    problem_path, _ = fig1_files
    force = {a: list(v) for a, v in FIG1_FORCE.items()}
    force["x2"] = bad
    force_path = tmp_path / "bad_force.json"
    force_path.write_text(json.dumps(force), encoding="utf-8")
    for oracle in ([], ["--oracle", "centralized"]):
        assert main(["solve", str(problem_path), "--particles", "2", "--iters", "1",
                     "--force-init", str(force_path), "--trace", str(tmp_path / "t.csv")]
                    + oracle) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: force_init['x2']: ")
        assert message in err


@pytest.mark.parametrize("flag", ["--w", "--c1", "--c2"])
def test_solve_rejects_non_finite_coefficients(fig1_files, tmp_path, capsys, flag):
    problem_path, _ = fig1_files
    assert main(["solve", str(problem_path), "--particles", "2", "--iters", "1", flag, "nan",
                 "--trace", str(tmp_path / "t.csv")]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {flag[2:]} must be finite and >= 0, got nan\n"
    assert not (tmp_path / "t.csv").exists()


def test_solve_refuses_a_swarm_beyond_physical_memory(fig1_files, capsys):
    problem_path, _ = fig1_files
    rc = main(["solve", str(problem_path), "--particles", "1125899906842624", "--iters", "1"])
    assert rc == 1
    assert capsys.readouterr().err.startswith(
        f"error: a swarm of n=4 agents by K=1125899906842624 particles needs {96 * 2**50} bytes")


def test_bench_records_partial_failures(tmp_path, capsys):
    # scale-free with m >= n is infeasible: every instance fails, the batch
    # still completes and records nan rows, and the exit code reports it
    rc = main([
        "bench", "--topology", "sf", "--agents", "2", "--m", "2",
        "--instances", "2", "--iters", "5", "--particles", "4",
        "--out-dir", str(tmp_path), "--name", "broken",
    ])
    assert rc == 1
    captured = capsys.readouterr()
    assert "instance 0 failed: ValueError: scale_free needs" in captured.err
    lines = (tmp_path / "broken.csv").read_text().splitlines()
    assert len(lines) == 1 + 2 + 1
    assert lines[1].split(",")[4] == "nan"


def test_bench_exits_0_when_some_instances_succeed(tmp_path, monkeypatch, capsys):
    import swarmdcop.cli as cli

    generate = cli.generate

    def first_instance_breaks(spec):
        if spec.seed == cli.derive_seed(0, 0):
            raise RuntimeError("boom")
        return generate(spec)

    monkeypatch.setattr(cli, "generate", first_instance_breaks)
    rc = main(["bench", "--topology", "tree", "--agents", "3", "--instances", "2",
               "--iters", "3", "--particles", "4", "--out-dir", str(tmp_path), "--name", "half"])
    assert rc == 0
    assert "instance 0 failed: RuntimeError: boom" in capsys.readouterr().err
    rows = (tmp_path / "half.csv").read_text().splitlines()[1:]
    assert [row.split(",")[4] == "nan" for row in rows] == [True, False, False]


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["generate", "--topology", "hexagon", "--agents", "4"])
    assert exc.value.code == 2


def test_bench_rejects_zero_instances(tmp_path, capsys):
    rc = main(["bench", "--topology", "tree", "--agents", "3", "--instances", "0",
               "--out-dir", str(tmp_path)])
    assert rc == 1
    assert "at least one instance" in capsys.readouterr().err


def test_missing_problem_file_exits_1(capsys):
    assert main(["solve", "/nonexistent/problem.json"]) == 1
    assert "error:" in capsys.readouterr().err


def test_out_dir_env_var(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SWARMDCOP_OUT_DIR", str(tmp_path / "from_env"))
    assert main(["generate", "--topology", "tree", "--agents", "3"]) == 0
    assert (tmp_path / "from_env" / "tree_n3_s0_0.json").exists()
