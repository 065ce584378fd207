"""Print one sha256 per solve over a fixed set of 108 solves.

    python3 tools/solve_digest.py [--only PREFIX [PREFIX ...]] [--against FILE]

Each line is "<label> <sha256>", the digest covering the termination
reason, the iteration count, every field of every per-iteration trace
record (each IterationRecord field, floats by float.hex, ints and bools
as integers), the solved graph's save_graph text and the multipliers'
bytes.
Run it on two checkouts and diff the outputs: identical lines mean the
two programs solve every graph of the set bitwise alike.  The last line
digests all lines above it.

--only solves just the labels that start with one of the prefixes.
--against FILE compares the run with FILE, the saved output of an
earlier run: each label whose digest differs from FILE's, or that only
one of the two holds, is printed to stderr, and the exit status is 1 if
there is any.  Labels outside --only are not compared.

tools/solve_digest.txt is the saved output of the current trajectories,
made with Python 3.11.7, numpy 2.4.6, scipy 1.17.1 and one BLAS thread:

    python3 tools/solve_digest.py --against tools/solve_digest.txt

exits 0 when a change leaves every solve bitwise alike.  On a host whose
BLAS or libm differs, compare two checkouts' runs instead.  A change
that moves trajectories on purpose rewrites the file with its output,
so the diff names the labels that moved.

The set:
  * the graphs of the three benchmark workloads (perfbench.bench.make_inputs),
    loaded from their text and solved with the workload's SolverConfig;
  * SimConfig(seed=0..19) and SimConfig(seed=12, noise_ang=1e-4) with the
    default SolverConfig;
  * seeds 0-2 under the second form, t1 = 0, the distance error, and the
    second form with the distance error;
  * SimConfig(seed=1) with the distance error and home_dist_threshold=0.5,
    the one solve of the set that masks distance terms (11 of 27 at the
    start, and 11 of 57 homing records);
  * SimConfig(lanes=6, points_per_lane=20, seed=1) with max_iters=4: a
    sparse-path solve (120 poses) that escalates the ladder (8 rungs in
    iteration 1, 11 in iteration 4), where the benchmark's sparse
    workload never escalates;
  * SimConfig(lanes=10, points_per_lane=30, seed=0) with max_iters=6:
    a sparse-path solve (300 poses) from odometry that escalates the
    ladder, 51 factorizations whose patterns alternate between the two
    classes of solver.spsolve's column orders;
  * SimConfig(lanes=4, points_per_lane=15, seed=0) with max_iters=5 and
    SimConfig(lanes=5, points_per_lane=19, seed=1) with max_iters=6:
    dense-path solves at dims 295 and 470 (just below SPARSE_SOLVE_DIM),
    where every other dense solve of the set is dim 145 and the blocked
    factorization takes a different path at each dimension;
  * SimConfig(lanes=4, points_per_lane=15, seed=0) with max_iters=100:
    the one solve of the set that ends on step_tol (after 81 iterations,
    at |g| = 1e-5, with the lanes detached);
  * SimConfig() anchored at pose 15 instead of pose 1, the one solve of
    the set whose anchor row is not the first;
  * two restarts, each solving with the default SolverConfig the
    save_graph text of a first solve that did not converge, so that
    its orientation vectors are off the unit circle: warm_3x10's seed-34
    graph after its workload's max_iters=10 ("restart/warm_3x10/seed=34"),
    and SimConfig(seed=12, noise_ang=1e-4) after it diverged
    ("restart/seed=12,noise_ang=1e-4").

The program and the benchmark are imported from this checkout's src/ and
perfbench/ directories; the benchmark is only read, never changed.
"""

import argparse
import dataclasses
import hashlib
import io
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

VARIANTS = {
    "second": {"cost": {"form": "second"}},
    "t1=0": {"cost": {"t1": 0}},
    "distance": {"use_distance_error": True},
    "second+distance": {"cost": {"form": "second"}, "use_distance_error": True},
}


def solve_set(only=""):
    """(label, graph, SolverConfig) for each solve of the set whose label starts with only.

    only is a prefix or a tuple of prefixes (str.startswith takes
    either).  In set order; a graph is simulated and loaded only if its
    label is selected.
    """
    import bench
    from ovsam import RotCostConfig, SimConfig, SolverConfig, load_graph, simulate

    for name in sorted(bench.WORKLOADS):
        wl = bench.WORKLOADS[name]
        seeds = tuple(seed for seed in wl.sim_seeds if f"{name}/seed={seed}".startswith(only))
        for inp in bench.make_inputs(dataclasses.replace(wl, sim_seeds=seeds)):
            yield f"{name}/seed={inp.sim_seed}", load_graph(io.StringIO(inp.text)), wl.solver
    sims = [(f"sim/seed={seed}", SimConfig(seed=seed), SolverConfig()) for seed in range(20)]
    sims.append(("sim/seed=12,noise_ang=1e-4", SimConfig(seed=12, noise_ang=1e-4), SolverConfig()))
    for variant, kwargs in VARIANTS.items():
        cfg = SolverConfig(
            cost=RotCostConfig(**kwargs.get("cost", {})),
            use_distance_error=kwargs.get("use_distance_error", False),
        )
        sims += [(f"{variant}/seed={seed}", SimConfig(seed=seed), cfg) for seed in range(3)]
    sims.append(
        (
            "distance/threshold=0.5/seed=1",
            SimConfig(seed=1),
            SolverConfig(home_dist_threshold=0.5, use_distance_error=True),
        )
    )
    sims.append(
        (
            "sparse/seed=1",
            SimConfig(lanes=6, points_per_lane=20, seed=1),
            SolverConfig(max_iters=4),
        )
    )
    sims.append(
        (
            "sparse/10x30/seed=0",
            SimConfig(lanes=10, points_per_lane=30, seed=0),
            SolverConfig(max_iters=6),
        )
    )
    sims.append(
        (
            "dense/4x15/seed=0",
            SimConfig(lanes=4, points_per_lane=15, seed=0),
            SolverConfig(max_iters=5),
        )
    )
    sims.append(
        (
            "dense/5x19/seed=1",
            SimConfig(lanes=5, points_per_lane=19, seed=1),
            SolverConfig(max_iters=6),
        )
    )
    sims.append(
        (
            "step_tol/4x15/seed=0",
            SimConfig(lanes=4, points_per_lane=15, seed=0),
            SolverConfig(max_iters=100),
        )
    )
    for label, sim_cfg, cfg in sims:
        if label.startswith(only):
            yield label, simulate(sim_cfg)[0], cfg
    if "anchor/seed=0".startswith(only):
        yield "anchor/seed=0", simulate(SimConfig())[0].with_fixed(15), SolverConfig()
    if "restart/warm_3x10/seed=34".startswith(only):
        wl = dataclasses.replace(bench.WORKLOADS["warm_3x10"], sim_seeds=(34,))
        (inp,) = bench.make_inputs(wl)
        graph = _restart(load_graph(io.StringIO(inp.text)), wl.solver)
        yield "restart/warm_3x10/seed=34", graph, SolverConfig()
    if "restart/seed=12,noise_ang=1e-4".startswith(only):
        graph = _restart(simulate(SimConfig(seed=12, noise_ang=1e-4))[0], SolverConfig())
        yield "restart/seed=12,noise_ang=1e-4", graph, SolverConfig()


def _restart(graph, cfg):
    """The graph of graph's solve under cfg, loaded from its save_graph text."""
    from ovsam import load_graph, save_graph, solve

    return load_graph(io.StringIO(save_graph(solve(graph, cfg).graph)))


def digest(report):
    import numpy as np
    from ovsam import save_graph

    h = hashlib.sha256()
    h.update(f"{report.reason} {report.iterations}\n".encode())
    for t in report.trace:
        cells = ((f.type, getattr(t, f.name)) for f in dataclasses.fields(t))
        h.update(" ".join(float(v).hex() if k is float else str(int(v)) for k, v in cells).encode())
        h.update(b"\n")
    h.update(save_graph(report.graph).encode())
    h.update(np.asarray(report.lambdas, dtype=float).tobytes())
    return h.hexdigest()


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--only", nargs="+", default=[""], help="solve only labels starting with one of these"
    )
    parser.add_argument("--against", help="saved output to compare the digests with")
    args = parser.parse_args(argv)
    saved = None
    if args.against:
        with open(args.against, encoding="utf-8") as fh:
            saved = dict(line.split() for line in fh if line.strip())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    from ovsam import solve

    total = hashlib.sha256()
    digests = {}
    only = tuple(args.only)
    for label, graph, cfg in solve_set(only):
        digests[label] = digest(solve(graph, cfg))
        line = f"{label} {digests[label]}"
        print(line, flush=True)
        total.update(line.encode() + b"\n")
    print(f"all {total.hexdigest()}")
    if saved is None:
        return 0
    saved = {label: d for label, d in saved.items() if label.startswith(only)}
    saved.pop("all", None)
    differ = [label for label in {**saved, **digests} if saved.get(label) != digests.get(label)]
    for label in differ:
        print(f"differs from {args.against}: {label}", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
