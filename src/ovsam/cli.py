"""Command-line frontend: simulate scenarios, solve graphs, check derivatives.

Exit codes: 0 success, 1 no convergence (iteration limit, or a step
below step_tol with |g| above grad_tol) or failed derivative check,
2 validation error (bad flags, malformed graph), 3 numerical failure,
4 solver divergence.
"""

import argparse
import dataclasses
import sys
from pathlib import Path

from .derivcheck import GRAD_TOL, HESS_TOL, run_checks
from .errors import NumericalFailure, OvsamError
from .graph import load_graph, save_graph
from .sim import SimConfig, save_ground_truth, simulate, write_plot_csv
from .solver import SolverConfig, solve

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_DIVERGED = 4


def add_config_flags(parser, cls):
    """Add a --flag typed and defaulted by each field of config cls, and of its nested configs."""
    default = cls()
    for f in dataclasses.fields(cls):
        flag = "--" + f.name.replace("_", "-")
        if dataclasses.is_dataclass(f.type):
            add_config_flags(parser, f.type)
        elif f.type is bool:
            parser.add_argument(flag, action="store_true")
        else:
            parser.add_argument(flag, type=f.type, default=getattr(default, f.name))


def config_from_args(cls, args):
    """The cls whose add_config_flags flags were parsed into args; cls checks the values."""
    kwargs = {}
    for f in dataclasses.fields(cls):
        nested = dataclasses.is_dataclass(f.type)
        kwargs[f.name] = config_from_args(f.type, args) if nested else getattr(args, f.name)
    return cls(**kwargs)


def cmd_simulate(args):
    graph, truth = simulate(config_from_args(SimConfig, args))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_graph(graph, out / "graph.txt")
    save_ground_truth(truth, out / "truth.txt")
    write_plot_csv(graph, truth, out / "plot.csv")
    print(
        f"wrote graph.txt ({len(graph)} poses, {len(graph.odometry)} odometry, "
        f"{len(graph.homing)} homing), truth.txt, plot.csv to {out}"
    )
    return EXIT_OK


def cmd_solve(args):
    cfg = config_from_args(SolverConfig, args)
    graph = load_graph(args.graph)
    if args.fixed_pose is not None:
        graph = graph.with_fixed(args.fixed_pose)
    report = solve(graph, cfg)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_graph(report.graph, out / "solved.txt")
    report.write_trace_csv(out / "trace.csv")

    print(f"termination: {report.reason} after {report.iterations} iterations")
    if report.trace:
        last = report.trace[-1]  # the last assembled iterate
        k = last.iteration
        print(f"iteration {k}: L = {last.L:.12g}  F = {last.F:.12g}")
        print(f"iteration {k}: |g| = {last.grad_norm:.6e}  max |l| = {last.max_constraint:.6e}")
        if last.alpha:
            print(f"solved.txt holds the state after iteration {k}'s step")
    print(f"wrote solved.txt, trace.csv to {out}")

    if report.converged:
        return EXIT_OK
    if report.reason == "diverged":
        print("solver diverged", file=sys.stderr)
        return EXIT_DIVERGED
    if report.reason == "step_tol":
        print("last step fell below step_tol with |g| above grad_tol", file=sys.stderr)
    else:
        print("iteration limit reached without convergence", file=sys.stderr)
    return EXIT_FAILURE


def cmd_check_derivatives(args):
    report = run_checks(
        n_configs=args.samples,
        seed=args.seed,
        grad_tol=args.grad_threshold,
        hess_tol=args.hess_threshold,
        names=args.case,
    )
    print(report.format())
    if not report.passed:
        print("derivative check failed", file=sys.stderr)
        return EXIT_FAILURE
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ovsam",
        description="Pose-graph optimization with orientation-vector rotation "
        "states and Lagrange-Newton descent.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="generate a synthetic multi-lane cleaning run")
    add_config_flags(sim, SimConfig)
    sim.add_argument("--out", default=".", help="output directory")
    sim.set_defaults(func=cmd_simulate)

    sol = sub.add_parser("solve", help="optimize a pose graph file")
    sol.add_argument("graph", help="input graph file")
    add_config_flags(sol, SolverConfig)
    sol.add_argument("--fixed-pose", type=int, default=None)
    sol.add_argument("--out", default=".", help="output directory")
    sol.set_defaults(func=cmd_solve)

    chk = sub.add_parser("check-derivatives", help="validate analytic derivatives")
    chk.add_argument("--samples", type=int, default=100)
    chk.add_argument("--seed", type=int, default=0)
    chk.add_argument("--grad-threshold", type=float, default=GRAD_TOL)
    chk.add_argument("--hess-threshold", type=float, default=HESS_TOL)
    chk.add_argument(
        "--case", action="append", help="run only the named case (repeatable; default: all)"
    )
    chk.set_defaults(func=cmd_check_derivatives)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (OvsamError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
