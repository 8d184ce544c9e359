"""Command-line entry point: generate instances, solve them, run benches.

Every run echoes its resolved configuration as the first stdout line, so any
output can be reproduced from the files it leaves behind. Exit codes: 0 ok,
2 usage error (argparse), 1 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import sys
import time
from pathlib import Path

from .generator import GenSpec, generate
from .model import ContinuousDomain, load_problem, save_problem
from .oracle import GridSpec, centralized_gcpso, grid_search
from .rng import derive_seed
from .runtime import Judged, RoundReport, Simulator
from .swarm import SwarmParams, iteration_count

OUT_DIR_ENV = "SWARMDCOP_OUT_DIR"

_TOPOLOGIES = {"er": "erdos_renyi", "sf": "scale_free", "tree": "random_tree"}


def _out_dir(flag_value: str | None) -> Path:
    path = Path(flag_value or os.environ.get(OUT_DIR_ENV) or ".")
    path.mkdir(parents=True, exist_ok=True)
    return path


def _echo_config(command: str, args: argparse.Namespace):
    pairs = " ".join(f"{k}={v}" for k, v in sorted(vars(args).items()) if k != "func")
    print(f"config: {command} {pairs}")


def _add_gen_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--topology", choices=sorted(_TOPOLOGIES), required=True)
    parser.add_argument("--agents", type=int, required=True, metavar="N")
    parser.add_argument("--p", type=float, default=0.2, help="edge probability (er)")
    parser.add_argument("--m", type=int, default=2, help="attachment count (sf)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--coeff-lo", type=float, default=-5.0)
    parser.add_argument("--coeff-hi", type=float, default=5.0)
    parser.add_argument("--domain-lo", type=float, default=-50.0)
    parser.add_argument("--domain-hi", type=float, default=50.0)
    parser.add_argument("--out-dir", default=None)


def _add_solver_flags(parser: argparse.ArgumentParser):
    defaults = SwarmParams()
    parser.add_argument("--particles", type=int, default=defaults.K)
    parser.add_argument("--iters", type=int, default=500)
    parser.add_argument("--w", type=float, default=defaults.w)
    parser.add_argument("--c1", type=float, default=defaults.c1)
    parser.add_argument("--c2", type=float, default=defaults.c2)
    parser.add_argument("--max-sc", type=int, default=defaults.max_sc)
    parser.add_argument("--max-fc", type=int, default=defaults.max_fc)
    parser.add_argument("--clamp-velocity", action="store_true")


def _params(args: argparse.Namespace, seed: int) -> SwarmParams:
    return SwarmParams(
        K=args.particles, w=args.w, c1=args.c1, c2=args.c2,
        max_sc=args.max_sc, max_fc=args.max_fc,
        clamp_velocity=args.clamp_velocity, seed=seed,
    )


def _gen_spec(args: argparse.Namespace, seed: int) -> GenSpec:
    return GenSpec(
        topology=_TOPOLOGIES[args.topology],
        n=args.agents,
        seed=seed,
        coeff_range=(args.coeff_lo, args.coeff_hi),
        domain=ContinuousDomain(args.domain_lo, args.domain_hi),
        p=args.p,
        m=args.m,
    )


def cmd_generate(args: argparse.Namespace) -> int:
    _echo_config("generate", args)
    out = _out_dir(args.out_dir)
    for k in range(args.count):
        problem = generate(_gen_spec(args, derive_seed(args.seed, k)))
        path = out / f"{args.topology}_n{args.agents}_s{args.seed}_{k}.json"
        save_problem(problem, path)
        print(f"wrote {path}")
    return 0


def _load_force_init(path: str | None) -> dict | None:
    if path is None:
        return None
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"force-init file: malformed JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError("force-init file must map agent ids to position lists")
    return doc  # the solvers check each agent's entry before any agent starts


def cmd_solve(args: argparse.Namespace) -> int:
    _echo_config("solve", args)
    problem = load_problem(args.problem)

    if args.oracle == "grid":
        assignment, cost = grid_search(problem, GridSpec(points_per_dim=args.grid_points))
        print(f"grid optimum: {cost:.10g}")
        print(f"assignment: {json.dumps(assignment)}")
        return 0

    force_init = _load_force_init(args.force_init)
    params = _params(args, args.seed)
    trace_path = Path(args.trace) if args.trace else (
        _out_dir(None) / (Path(args.problem).stem + ".trace.csv")
    )

    if args.oracle == "centralized":
        trace = centralized_gcpso(problem, params, args.iters, force_init=force_init)
        trace.write_csv(trace_path)
        print(f"final gbest: {trace.final_gbest:.10g}")
        print(f"trace: {trace_path}")
        return 0

    sim = Simulator(problem, params, args.iters, force_init=force_init,
                    on_event=_print_event if args.verbose else None)
    trace = sim.run_to_quiescence()
    trace.write_csv(trace_path)
    root = sim.swarm.root
    print(f"final gbest: {trace.final_gbest:.10g}")
    print(f"iterations: {args.iters}  rounds: {sim.round}  "
          f"envelopes: {sim.cum_envelopes}  scalars: {sim.cum_scalars}")
    print(f"root counters: rho={root.rho!r} s_c={root.s_c} f_c={root.f_c}")
    print(f"trace: {trace_path}")
    return 0


def _print_event(event):
    """The `--verbose` log: one stderr line per verdict and per round."""
    if isinstance(event, Judged):
        best = event.best
        print(f"round {event.round}: iteration {best.iteration + 1} judged, "
              f"gbest={best.gbest_fitness!r} changed={best.gbest_changed} "
              f"improved={best.improved_flags().sum()}", file=sys.stderr)
    elif isinstance(event, RoundReport):
        print(f"round {event.round}: delivered {event.delivered}, "
              f"fired {event.fired}, sent {event.sent}", file=sys.stderr)


BENCH_HEADER = "instance,n,topology,seed,final_cost,iterations,rounds,envelopes,wall_ms"


def cmd_bench(args: argparse.Namespace) -> int:
    """Solve a seeded batch; exit 1 if every instance failed."""
    _echo_config("bench", args)
    if args.instances < 1:
        raise ValueError("a bench needs at least one instance")
    iteration_count(args.iters)
    out = _out_dir(args.out_dir)
    rows: list[str] = []
    finals: list[float] = []
    walls: list[float] = []
    rounds_list: list[int] = []
    env_per_iter: list[float] = []

    for k in range(args.instances):
        seed_k = derive_seed(args.seed, k)
        stem = f"{args.name}_{k}"
        try:
            problem = generate(_gen_spec(args, seed_k))
            save_problem(problem, out / f"{stem}.problem.json")
            params = _params(args, seed_k)
            start = time.perf_counter()
            sim = Simulator(problem, params, args.iters)
            trace = sim.run_to_quiescence()
            wall_ms = (time.perf_counter() - start) * 1000.0
            trace.write_csv(out / f"{stem}.trace.csv")
            finals.append(trace.final_gbest)
            walls.append(wall_ms)
            rounds_list.append(sim.round)
            env_per_iter.append(sim.cum_envelopes / args.iters)
            rows.append(f"{k},{args.agents},{args.topology},{seed_k},"
                        f"{trace.final_gbest!r},{args.iters},{sim.round},"
                        f"{sim.cum_envelopes},{wall_ms:.3f}")
        except Exception as exc:  # record the failure, keep the batch going
            print(f"instance {k} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            rows.append(f"{k},{args.agents},{args.topology},{seed_k},nan,"
                        f"{args.iters},0,0,nan")

    if finals:
        mean_cost = statistics.fmean(finals)
        std_cost = statistics.stdev(finals) if len(finals) > 1 else 0.0
        mean_wall = statistics.fmean(walls)
        mean_rounds = statistics.fmean(rounds_list)
        mean_env = statistics.fmean(env_per_iter)
    else:
        mean_cost = std_cost = mean_wall = mean_rounds = mean_env = math.nan
    rows.append(f"aggregate,{args.agents},{args.topology},{args.seed},"
                f"{mean_cost!r},{args.iters},{mean_rounds:.1f},{mean_env:.1f},{mean_wall:.3f}")

    bench_path = out / f"{args.name}.csv"
    with open(bench_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(BENCH_HEADER + "\n")
        fh.write("\n".join(rows) + "\n")
    print(f"aggregate: final_cost mean={mean_cost!r} std={std_cost!r} "
          f"mean_wall_ms={mean_wall:.3f} mean_envelopes_per_iter={mean_env:.1f}")
    print(f"wrote {bench_path}")
    return 0 if finals else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="swarmdcop",
        description="Particle-swarm solver for continuous distributed constraint optimization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write random problem instances")
    _add_gen_flags(gen)
    gen.add_argument("--count", type=int, default=1)
    gen.set_defaults(func=cmd_generate)

    solve = sub.add_parser("solve", help="solve one problem file")
    solve.add_argument("problem")
    _add_solver_flags(solve)
    solve.add_argument("--seed", type=int, default=0)
    solve.add_argument("--trace", default=None, help="trace CSV path")
    solve.add_argument("--force-init", default=None,
                       help="JSON file: agent id -> K initial positions")
    solve.add_argument("--oracle", choices=["centralized", "grid"], default=None)
    solve.add_argument("--grid-points", type=int, default=5)
    solve.add_argument("--verbose", action="store_true",
                       help="stream the per-round event log to stderr")
    solve.set_defaults(func=cmd_solve)

    bench = sub.add_parser("bench", help="run a seeded batch and aggregate")
    _add_gen_flags(bench)
    _add_solver_flags(bench)
    bench.add_argument("--instances", type=int, default=1)
    bench.add_argument("--name", default="bench", help="output file stem")
    bench.set_defaults(func=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
