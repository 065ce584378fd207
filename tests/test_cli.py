"""Command-line interface, exercised in process through main()."""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import coincident_start, consistent_graph, random_graph

import ovsam.cli as cli
import ovsam.derivcheck as derivcheck
from ovsam.assembly import EvaluationPlan
from ovsam.cli import main
from ovsam.costs import RotCostConfig
from ovsam.graph import load_graph, save_graph
from ovsam.sim import SimConfig
from ovsam.solver import SolveReport, SolverConfig


def _write_graph(tmp_path, graph, name="graph.txt"):
    path = tmp_path / name
    save_graph(graph, path)
    return str(path)


# ---------------------------------------------------------------------------
# simulate


def test_simulate_writes_files(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["simulate", "--out", str(out)])
    assert code == 0
    assert (out / "graph.txt").exists()
    assert (out / "truth.txt").exists()
    assert (out / "plot.csv").exists()
    msg = capsys.readouterr().out
    assert "30 poses" in msg and "27 odometry" in msg
    graph = load_graph(out / "graph.txt")
    assert len(graph) == 30
    assert (out / "truth.txt").read_text().startswith("TRUE 1 ")


def test_simulate_deterministic_across_runs(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--out", str(a), "--seed", "7"]) == 0
    assert main(["simulate", "--out", str(b), "--seed", "7"]) == 0
    assert (a / "graph.txt").read_text() == (b / "graph.txt").read_text()
    assert (a / "truth.txt").read_text() == (b / "truth.txt").read_text()


def test_simulate_scenario_flags(tmp_path):
    out = tmp_path / "small"
    code = main(
        [
            "simulate",
            "--out",
            str(out),
            "--lanes",
            "2",
            "--points-per-lane",
            "4",
            "--homing-neighbors",
            "1",
        ]
    )
    assert code == 0
    graph = load_graph(out / "graph.txt")
    assert len(graph) == 8
    assert len(graph.odometry) == 6
    assert len(graph.homing) == 4  # one neighbor per second-lane pose


def test_simulate_rejects_bad_scenario(tmp_path, capsys):
    code = main(["simulate", "--out", str(tmp_path), "--lanes", "1"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [("--points-per-lane", "1"), ("--seed", "-1")])
def test_simulate_rejects_a_bad_setting_naming_its_field(tmp_path, capsys, flag, value):
    out = tmp_path / "run"
    assert main(["simulate", flag, value, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: " + flag.lstrip("-").replace("-", "_") + " must be ")
    assert not out.exists()


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--noise-ang", "inf"),
        ("--lane-spacing", "inf"),
        ("--noise-trans", "nan"),
        ("--sigma-h", "inf"),
    ],
)
def test_simulate_rejects_non_finite_settings(tmp_path, capsys, flag, value):
    out = tmp_path / "run"
    assert main(["simulate", flag, value, "--out", str(out)]) == 2
    assert flag.lstrip("-").replace("-", "_") + " must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_without_flags_simulates_the_default_config(tmp_path, monkeypatch):
    seen = []

    def recording_simulate(cfg):
        seen.append(cfg)
        return real_simulate(cfg)

    real_simulate = cli.simulate
    monkeypatch.setattr(cli, "simulate", recording_simulate)
    assert main(["simulate", "--out", str(tmp_path)]) == 0
    assert seen == [SimConfig()]


# ---------------------------------------------------------------------------
# solve


def test_solve_consistent_graph(tmp_path, capsys):
    rng = np.random.default_rng(0)
    path = _write_graph(tmp_path, consistent_graph(rng, n_poses=4))
    out = tmp_path / "sol"
    code = main(["solve", path, "--t1", "0", "--out", str(out)])
    assert code == 0
    msg = capsys.readouterr().out
    assert "termination: grad_tol after 1 iterations" in msg
    trace = (out / "trace.csv").read_text().splitlines()
    assert len(trace) == 2  # header plus the single iteration
    solved = load_graph(out / "solved.txt")
    assert len(solved) == 4


def test_solve_fixed_pose_flag(tmp_path):
    rng = np.random.default_rng(1)
    graph = consistent_graph(rng, n_poses=4)
    path = _write_graph(tmp_path, graph)
    out = tmp_path / "sol"
    code = main(["solve", path, "--fixed-pose", "3", "--t1", "0", "--out", str(out)])
    assert code == 0
    solved = load_graph(out / "solved.txt")
    assert solved.fixed_id == 3
    assert np.array_equal(solved.pose(3).x, graph.pose(3).x)
    assert np.array_equal(solved.pose(3).u, graph.pose(3).u)


def test_solve_forms_reach_different_objectives(tmp_path, capsys):
    out = tmp_path / "sim"
    main(
        [
            "simulate",
            "--out",
            str(out),
            "--lanes",
            "2",
            "--points-per-lane",
            "5",
            "--seed",
            "2",
        ]
    )
    path = str(out / "graph.txt")

    def final_f(extra):
        o = tmp_path / ("sol-" + "-".join(extra) if extra else "sol-first")
        assert main(["solve", path, "--out", str(o)] + extra) == 0
        last = (o / "trace.csv").read_text().splitlines()[-1]
        return float(last.split(",")[2])

    f_first = final_f([])
    f_second = final_f(["--form", "second"])
    assert f_first != f_second
    capsys.readouterr()


def test_solve_missing_and_malformed_files(tmp_path, capsys):
    assert main(["solve", str(tmp_path / "nope.txt")]) == 2
    bad = tmp_path / "bad.txt"
    bad.write_text("POSE 1 0 0 1 0 FIXED\nGARBAGE\n")
    assert main(["solve", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err


@pytest.mark.parametrize(
    "lanes, points, field",
    [(3, 10, "r"), (4, 25, "alpha")],
    ids=["dense", "sparse"],
)
def test_solve_rejects_non_finite_measurement(tmp_path, capsys, lanes, points, field):
    # 4 x 25 has 100 poses, which the solver factors sparsely
    flags = ["--lanes", str(lanes), "--points-per-lane", str(points)]
    assert main(["simulate", "--out", str(tmp_path), *flags]) == 0
    lines = (tmp_path / "graph.txt").read_text().splitlines()
    tag = "ODOM" if field == "r" else "HOME"
    k = [i for i, line in enumerate(lines) if line.startswith(tag)][4]
    tokens = lines[k].split()
    tokens[3:5] = ["nan", "nan"]
    lines[k] = " ".join(tokens)
    path = tmp_path / "bad.txt"
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    code = main(["solve", str(path), "--out", str(tmp_path / "s")])
    assert code == 2
    group = "odometry" if field == "r" else "homing"
    err = capsys.readouterr().err
    assert f"{group} record 5 ({tokens[1]}->{tokens[2]}): non-finite {field}" in err


@pytest.mark.parametrize(
    "tag, column, value, field",
    [
        ("HOME", 7, "1e-200", "sigma_h"),
        ("HOME", 8, "1e-170", "sigma_c"),
        ("ODOM", 10, "1e200", "sigma"),
    ],
)
def test_solve_rejects_weights_that_underflow_or_overflow(
    tmp_path, capsys, tag, column, value, field
):
    # a valid graph whose gamma / sigma**2 is 0 or not finite: sigma**2
    # underflows to 0 below about 1e-162 and overflows above about 1e154
    assert main(["simulate", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "graph.txt").read_text().splitlines()
    k = [i for i, line in enumerate(lines) if line.startswith(tag)][2]
    tokens = lines[k].split()
    tokens[column] = value
    lines[k] = " ".join(tokens)
    path = tmp_path / "tiny.txt"
    path.write_text("\n".join(lines) + "\n")
    load_graph(path).validate()
    capsys.readouterr()
    assert main(["solve", str(path), "--out", str(tmp_path / "s")]) == 2
    group = "homing" if tag == "HOME" else "odometry"
    err = capsys.readouterr().err
    assert f"{group} record 3 ({tokens[1]}->{tokens[2]}): {field}: weight" in err


@pytest.mark.parametrize(
    "gamma, named", [("inf", "gamma must be finite"), ("1e308", "odometry record 1 (1->2): sigma")]
)
def test_solve_rejects_gamma_without_finite_weights(tmp_path, capsys, gamma, named):
    assert main(["simulate", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    out = tmp_path / "s"
    code = main(["solve", str(tmp_path / "graph.txt"), "--gamma", gamma, "--out", str(out)])
    assert code == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


def test_solve_rejects_a_distance_weight_that_overflows(tmp_path, capsys):
    # sigma_e = 1e-320 is positive and finite, but 1 / sigma_e overflows;
    # only the distance term reads sigma_e
    assert main(["simulate", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "graph.txt").read_text().splitlines()
    k = [i for i, line in enumerate(lines) if line.startswith("ODOM")][2]
    tokens = lines[k].split()
    tokens[11] = "1e-320"
    lines[k] = " ".join(tokens)
    path = tmp_path / "tiny.txt"
    path.write_text("\n".join(lines) + "\n")
    load_graph(path).validate()
    capsys.readouterr()
    out = tmp_path / "d"
    assert main(["solve", str(path), "--use-distance-error", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"odometry record 3 ({tokens[1]}->{tokens[2]}): sigma_e: weight" in err
    assert not out.exists()
    # without the distance term the graph solves as the unedited one does
    assert main(["solve", str(path), "--out", str(tmp_path / "a")]) == 0
    assert main(["solve", str(tmp_path / "graph.txt"), "--out", str(tmp_path / "b")]) == 0
    trace = [(tmp_path / name / "trace.csv").read_text() for name in ("a", "b")]
    assert trace[0] == trace[1]


def test_solve_rejects_a_start_that_collapses_a_distance_term(tmp_path, capsys):
    # poses 1 and 2 coincide and no threshold masks the distance term:
    # a validation error naming the record, as for a homing record
    path = _write_graph(tmp_path, coincident_start())
    out = tmp_path / "s"
    flags = ["--use-distance-error", "--home-dist-threshold", "0", "--out", str(out)]
    assert main(["solve", path, *flags]) == 2
    assert capsys.readouterr().err == (
        "error: odometry record 1 (1->2): pose position difference has norm 0.0, below 1e-09\n"
    )
    assert not out.exists()


def test_solve_iteration_limit_exit(tmp_path, capsys):
    rng = np.random.default_rng(3)
    graph = random_graph(rng, n_poses=6, n_homing=4, unit_orientations=True)
    path = _write_graph(tmp_path, graph)
    code = main(["solve", path, "--max-iters", "2", "--out", str(tmp_path / "s")])
    assert code == 1
    assert "iteration limit" in capsys.readouterr().err


def test_solve_step_tol_exit(tmp_path, capsys):
    # a step below step_tol with |g| above grad_tol is a stall, not convergence
    rng = np.random.default_rng(3)
    graph = random_graph(rng, n_poses=6, n_homing=4, unit_orientations=True)
    path = _write_graph(tmp_path, graph)
    flags = ["--grad-tol", "1e-300", "--step-tol", "10"]
    code = main(["solve", path, *flags, "--out", str(tmp_path / "s")])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out.startswith("termination: step_tol after 4 iterations\n")
    assert captured.err == "last step fell below step_tol with |g| above grad_tol\n"


def test_solve_restarts_from_a_non_converged_output(tmp_path, capsys):
    # after --max-iters 3 the summary names iteration 3, the last assembled
    # iterate, and says solved.txt holds the state after its step; that
    # output's orientations are off the unit circle and it solves again
    assert main(["simulate", "--out", str(tmp_path / "sim")]) == 0
    first, again = tmp_path / "first", tmp_path / "again"
    capsys.readouterr()
    graph = str(tmp_path / "sim" / "graph.txt")
    assert main(["solve", graph, "--max-iters", "3", "--out", str(first)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "termination: max_iters after 3 iterations"
    assert lines[1].startswith("iteration 3: L = ")
    assert lines[2].startswith("iteration 3: |g| = ")
    assert lines[3] == "solved.txt holds the state after iteration 3's step"
    table = load_graph(first / "solved.txt").pose_table()
    assert np.max(np.abs(np.hypot(table[:, 2], table[:, 3]) - 1.0)) > 1e-3
    assert main(["solve", str(first / "solved.txt"), "--out", str(again)]) == 0
    out = capsys.readouterr().out
    assert "termination: grad_tol after 9 iterations" in out
    assert "holds the state after" not in out


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--grad-tol", "inf"),
        ("--step-tol", "inf"),
        ("--mu", "inf"),
        ("--max-iters", "0"),
        ("--max-iters", "-3"),
        ("--home-dist-threshold", "inf"),
    ],
)
def test_solve_rejects_settings_that_fake_convergence(tmp_path, capsys, flag, value):
    # an infinite tolerance would report convergence after one iteration,
    # as would an infinite threshold masking every homing record, and no
    # iteration at all would write a header-only trace
    rng = np.random.default_rng(3)
    path = _write_graph(tmp_path, random_graph(rng, n_poses=4, n_homing=2, unit_orientations=True))
    out = tmp_path / "s"
    assert main(["solve", path, flag, value, "--out", str(out)]) == 2
    assert flag.lstrip("-").replace("-", "_") in capsys.readouterr().err
    assert not out.exists()


def test_solve_diverged_exit(tmp_path, capsys, monkeypatch):
    rng = np.random.default_rng(4)
    graph = consistent_graph(rng, n_poses=3)
    path = _write_graph(tmp_path, graph)

    def fake_solve(g, cfg):
        return SolveReport(reason="diverged", trace=[], graph=g.copy(), lambdas=np.zeros(2))

    monkeypatch.setattr(cli, "solve", fake_solve)
    code = main(["solve", path, "--out", str(tmp_path / "s")])
    assert code == 4
    assert "diverged" in capsys.readouterr().err


def test_solve_exits_3_when_the_dense_system_is_not_finite(tmp_path, capsys, monkeypatch):
    # a NaN in the start's gradient is caught once, before any rung is
    # formed, and reported as a numerical failure
    rng = np.random.default_rng(3)
    path = _write_graph(tmp_path, random_graph(rng, n_poses=4, n_homing=2, unit_orientations=True))
    assemble = EvaluationPlan.assemble

    def nan_assemble(*args, **kwargs):
        system = assemble(*args, **kwargs)
        system.g[0] = np.nan
        return system

    monkeypatch.setattr(EvaluationPlan, "assemble", nan_assemble)
    assert main(["solve", path, "--out", str(tmp_path / "s")]) == 3
    err = capsys.readouterr().err
    assert "numerical failure: iteration 1: assembled system is not finite\n" in err


def _solver_config_of(tmp_path, monkeypatch, flags):
    """The SolverConfig that `ovsam solve` with flags passes to solve."""
    seen = []

    def fake_solve(g, cfg):
        seen.append(cfg)
        return SolveReport(reason="grad_tol", trace=[], graph=g, lambdas=np.zeros(len(g) - 1))

    monkeypatch.setattr(cli, "solve", fake_solve)
    rng = np.random.default_rng(5)
    path = _write_graph(tmp_path, consistent_graph(rng, n_poses=3))
    assert main(["solve", path, "--out", str(tmp_path / "s"), *flags]) == 0
    return seen[0]


def test_solve_flags_default_to_the_solver_config(tmp_path, monkeypatch, capsys):
    assert _solver_config_of(tmp_path, monkeypatch, []) == SolverConfig()


def test_solve_flags_reach_every_config_field(tmp_path, monkeypatch, capsys):
    flags = "--form second --t1 0 --gamma 2 --mu 5 --grad-tol 1e-6 --step-tol 1e-7"
    flags += " --max-iters 7 --home-dist-threshold 0.1 --use-distance-error"
    cfg = _solver_config_of(tmp_path, monkeypatch, flags.split())
    assert cfg == SolverConfig(
        max_iters=7,
        grad_tol=1e-6,
        step_tol=1e-7,
        mu=5.0,
        home_dist_threshold=0.1,
        cost=RotCostConfig(form="second", t1=0, gamma=2.0),
        use_distance_error=True,
    )
    default = SolverConfig()
    for config, base in ((cfg, default), (cfg.cost, default.cost)):
        for f in dataclasses.fields(config):
            if f.name != "cost":
                assert getattr(config, f.name) != getattr(base, f.name), f.name


@pytest.mark.parametrize("flag, value", [("--form", "bogus"), ("--t1", "2")])
def test_solve_rejects_invalid_cost_settings(tmp_path, capsys, flag, value):
    rng = np.random.default_rng(5)
    path = _write_graph(tmp_path, consistent_graph(rng, n_poses=3))
    out = tmp_path / "s"
    assert main(["solve", path, flag, value, "--out", str(out)]) == 2
    assert f"{flag.lstrip('-')} must be" in capsys.readouterr().err
    assert not out.exists()


def test_argparse_rejects_unknown_flag(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--warp", str(tmp_path / "g.txt")])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# check-derivatives


def test_check_derivatives_passes(capsys):
    code = main(["check-derivatives", "--samples", "5", "--seed", "3"])
    assert code == 0
    out = capsys.readouterr().out
    assert "translation" in out and "constraint" in out
    assert "FAIL" not in out


def test_check_derivatives_deterministic(capsys):
    main(["check-derivatives", "--samples", "5", "--seed", "3"])
    first = capsys.readouterr().out
    main(["check-derivatives", "--samples", "5", "--seed", "3"])
    assert capsys.readouterr().out == first


def test_check_derivatives_case_filter(capsys):
    code = main(["check-derivatives", "--samples", "5", "--case", "distance"])
    assert code == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 2
    assert out[1].startswith("distance")


def test_check_derivatives_rejects_an_unknown_case(capsys):
    assert main(["check-derivatives", "--samples", "1", "--case", "bogus"]) == 2
    err = capsys.readouterr().err
    assert "unknown derivative cases: bogus" in err and "translation" in err


def test_check_derivatives_rejects_a_negative_seed(capsys):
    assert main(["check-derivatives", "--samples", "1", "--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "seed must be a non-negative integer, got -1" in captured.err


@pytest.mark.parametrize("flag", ["--grad-threshold", "--hess-threshold"])
@pytest.mark.parametrize("value", ["inf", "nan", "0", "-1"])
def test_check_derivatives_rejects_thresholds_that_decide_nothing(capsys, flag, value):
    # inf would pass every case, the others fail every case and blame the
    # derivatives for the flag
    assert main(["check-derivatives", "--samples", "1", flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert flag.replace("-threshold", "_tol").lstrip("-") in captured.err
    assert "derivative check failed" not in captured.err


def test_check_derivatives_flags_injected_fault(capsys, monkeypatch):
    orig = derivcheck.eval_translation

    def broken(p, pp, T, r, derivs=True):
        ev = orig(p, pp, T, r, derivs)
        if derivs:
            ev.grad2 = ev.grad2 + 5e-3
        return ev

    monkeypatch.setattr(derivcheck, "eval_translation", broken)
    code = main(["check-derivatives", "--samples", "5"])
    assert code == 1
    captured = capsys.readouterr()
    assert "derivative check failed" in captured.err
    for line in captured.out.splitlines()[1:]:
        if line.startswith("translation"):
            assert line.rstrip().endswith("FAIL")
            break
    else:
        pytest.fail("translation row missing from report")


def test_python_dash_m_runs_the_command_line():
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    argv = [sys.executable, "-m", "ovsam", "check-derivatives", "--case", "constraint"]
    run = subprocess.run([*argv, "--samples", "2"], env=env, capture_output=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert b"constraint" in run.stdout
