"""Command-line frontend: simulate scenarios, solve graphs, check derivatives.

Exit codes: 0 success, 1 iteration limit or failed derivative check,
2 validation error (bad flags, malformed graph), 3 numerical failure,
4 solver divergence.
"""

import argparse
import dataclasses
import sys
from pathlib import Path

from .costs import RotCostConfig
from .derivcheck import CASES, GRAD_TOL, HESS_TOL, run_checks
from .errors import NumericalFailure, OvsamError
from .graph import load_graph, save_graph
from .sim import SimConfig, save_ground_truth, simulate, write_plot_csv
from .solver import SolverConfig, solve

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_DIVERGED = 4

_SIM = SimConfig()
_SOLVER = SolverConfig()
_COST = RotCostConfig()


def cmd_simulate(args):
    cfg = SimConfig(**{f.name: getattr(args, f.name) for f in dataclasses.fields(SimConfig)})
    graph, truth = simulate(cfg)
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
    graph = load_graph(args.graph)
    if args.fixed_pose is not None:
        graph = graph.with_fixed(args.fixed_pose)
    cfg = SolverConfig(
        max_iters=args.max_iters,
        grad_tol=args.grad_tol,
        step_tol=args.step_tol,
        mu=args.mu,
        home_dist_threshold=args.home_dist_threshold,
        cost=RotCostConfig(form=args.form, t1=args.t1, gamma=args.gamma),
        use_distance_error=args.use_distance_error,
    )
    report = solve(graph, cfg)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_graph(report.graph, out / "solved.txt")
    with open(out / "trace.csv", "w", encoding="utf-8") as fh:
        report.write_trace_csv(fh)

    print(f"termination: {report.reason} after {report.iterations} iterations")
    if report.trace:
        last = report.trace[-1]
        print(f"L = {last.L:.12g}  F = {last.F:.12g}")
        print(f"|g| = {last.grad_norm:.6e}  max |l| = {last.max_constraint:.6e}")
    print(f"wrote solved.txt, trace.csv to {out}")

    if report.converged:
        return EXIT_OK
    if report.reason == "diverged":
        print("solver diverged", file=sys.stderr)
        return EXIT_DIVERGED
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
    for f in dataclasses.fields(SimConfig):
        sim.add_argument(
            "--" + f.name.replace("_", "-"), type=f.type, default=getattr(_SIM, f.name)
        )
    sim.add_argument("--out", default=".", help="output directory")
    sim.set_defaults(func=cmd_simulate)

    sol = sub.add_parser("solve", help="optimize a pose graph file")
    sol.add_argument("graph", help="input graph file")
    sol.add_argument("--gamma", type=float, default=_COST.gamma)
    sol.add_argument("--form", choices=["first", "second"], default=_COST.form)
    sol.add_argument("--t1", type=int, choices=[0, 1], default=_COST.t1)
    sol.add_argument("--mu", type=float, default=_SOLVER.mu)
    sol.add_argument("--grad-tol", type=float, default=_SOLVER.grad_tol)
    sol.add_argument("--step-tol", type=float, default=_SOLVER.step_tol)
    sol.add_argument("--max-iters", type=int, default=_SOLVER.max_iters)
    sol.add_argument(
        "--home-dist-threshold", type=float, default=_SOLVER.home_dist_threshold
    )
    sol.add_argument("--use-distance-error", action="store_true")
    sol.add_argument("--fixed-pose", type=int, default=None)
    sol.add_argument("--out", default=".", help="output directory")
    sol.set_defaults(func=cmd_solve)

    chk = sub.add_parser("check-derivatives", help="validate analytic derivatives")
    chk.add_argument("--samples", type=int, default=100)
    chk.add_argument("--seed", type=int, default=0)
    chk.add_argument("--grad-threshold", type=float, default=GRAD_TOL)
    chk.add_argument("--hess-threshold", type=float, default=HESS_TOL)
    chk.add_argument(
        "--case",
        action="append",
        choices=sorted(CASES),
        help="run only the named case (repeatable; default: all)",
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
