"""tools/solve_digest.py: the bitwise gate as one command."""

import dataclasses
import hashlib
import importlib.util
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

import ovsam
import ovsam.sim

ROOT = Path(__file__).resolve().parents[1]
LABEL = "t1=0/seed=1"
# The versions tools/solve_digest.txt was made with: another BLAS or libm
# may move the last bits of a trajectory.
RECORDED = ((3, 11, 7), "2.4.6", "1.17.1")


def _digest(*args, only=(LABEL,)):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / "solve_digest.py"), "--only", *only, *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )


def test_against_reports_each_label_that_differs(tmp_path):
    # a wrong digest and a label the run does not produce both differ
    saved = tmp_path / "saved.txt"
    saved.write_text(f"{LABEL} {'0' * 64}\n{LABEL}/extra {'1' * 64}\nall {'2' * 64}\n")
    run = _digest("--against", str(saved))
    assert run.returncode == 1
    assert run.stderr.splitlines() == [
        f"differs from {saved}: {LABEL}",
        f"differs from {saved}: {LABEL}/extra",
    ]
    lines = run.stdout.splitlines()
    assert [line.split()[0] for line in lines] == [LABEL, "all"]

    # the run's own output is a saved run it matches
    saved.write_text(run.stdout)
    again = _digest("--against", str(saved))
    assert again.returncode == 0, again.stderr
    assert again.stdout == run.stdout
    assert again.stderr == ""


# The labels tier-1 checks against tools/solve_digest.txt.
PINNED = [
    "cold_3x10/seed=0",  # dense, the homing mask changes
    "warm_10x30/seed=0",  # sparse, masked homing records at the start
    "sparse/seed=1",  # sparse, ladder escalations
    "sparse/10x30/seed=0",  # sparse, 51 factorizations over both column-order classes
    "anchor/seed=0",  # the only anchor not at the first pose: ranks skip its row
    "dense/5x19/seed=1",  # the largest dense scatter, dim 470
    "distance/seed=1",  # the distance term, to grad_tol
    "distance/threshold=0.5/seed=1",  # masked distance terms, to grad_tol
    "second+distance/seed=0",  # the distance term under the second form, diverged
    "second/seed=0",  # the second form's sub-blocks
    "t1=0/seed=0",  # the first form's norm offsets
    "warm_3x10/seed=34",  # a desk-scale ladder thrash: 21-trial stacks on rejected rungs
]


@pytest.fixture(scope="module")
def pinned_run():
    """One run of every pinned label against tools/solve_digest.txt."""
    return _digest("--against", str(ROOT / "tools" / "solve_digest.txt"), only=PINNED)


@pytest.mark.skipif(
    (sys.version_info[:3], np.__version__, scipy.__version__) != RECORDED,
    reason="tools/solve_digest.txt was made with Python 3.11.7, numpy 2.4.6, scipy 1.17.1",
)
@pytest.mark.parametrize("label", PINNED)
def test_solves_match_the_saved_digests(pinned_run, label):
    # the run's exit status 0 means no selected label differs from the file
    assert pinned_run.returncode == 0, pinned_run.stderr
    labels = [line.split()[0] for line in pinned_run.stdout.splitlines()]
    assert sorted(labels[:-1]) == sorted(PINNED) and labels[-1] == "all"
    assert label in labels


def test_saved_baseline_holds_each_label_once_and_their_total():
    # tools/solve_digest.txt is a whole run's output: 108 labels, then the
    # sha256 of the lines above it
    lines = (ROOT / "tools" / "solve_digest.txt").read_text(encoding="utf-8").splitlines()
    pairs = [line.split() for line in lines[:-1]]
    labels = [label for label, _ in pairs]
    assert len(labels) == len(set(labels)) == 108
    assert all(len(d) == 64 and int(d, 16) >= 0 for _, d in pairs)
    total = hashlib.sha256("".join(line + "\n" for line in lines[:-1]).encode())
    assert lines[-1] == f"all {total.hexdigest()}"


def _load_tool():
    path = ROOT / "tools" / "solve_digest.py"
    spec = importlib.util.spec_from_file_location("solve_digest", path)
    solve_digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(solve_digest)
    return solve_digest


def test_digest_covers_every_trace_field():
    # a one-ulp, one-count or flipped change to any field of one trace
    # record changes the digest
    solve_digest = _load_tool()
    report = ovsam.solve(ovsam.simulate(ovsam.SimConfig())[0], ovsam.SolverConfig(max_iters=2))
    record = report.trace[0]
    base = solve_digest.digest(report)
    for f in dataclasses.fields(record):
        value = getattr(record, f.name)
        changed = {float: math.nextafter(value, math.inf), int: value + 1, bool: not value}[f.type]
        trace = [dataclasses.replace(record, **{f.name: changed}), *report.trace[1:]]
        assert solve_digest.digest(dataclasses.replace(report, trace=trace)) != base, f.name


def test_only_builds_just_the_selected_graphs(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    solve_digest = _load_tool()
    seeds = []

    def counted_simulate(cfg):
        seeds.append(cfg.seed)
        return simulate(cfg)

    simulate = ovsam.sim.simulate
    monkeypatch.setattr(ovsam.sim, "simulate", counted_simulate)  # the benchmark's inputs
    monkeypatch.setattr(ovsam, "simulate", counted_simulate)  # the other graphs
    warm = [6, 60, 61, 62, 63]
    for only, labels, simulated in (
        (LABEL, [LABEL], [1]),
        ("warm_3x10/seed=6", [f"warm_3x10/seed={s}" for s in warm], warm),
        ("sim/seed=12", ["sim/seed=12", "sim/seed=12,noise_ang=1e-4"], [12, 12]),
        ("restart/", ["restart/warm_3x10/seed=34", "restart/seed=12,noise_ang=1e-4"], [34, 12]),
        ((LABEL, "warm_3x10/seed=34"), ["warm_3x10/seed=34", LABEL], [34, 1]),  # several prefixes
    ):
        seeds.clear()
        assert [label for label, _, _ in solve_digest.solve_set(only)] == labels
        assert seeds == simulated
