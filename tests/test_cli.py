"""Command-line interface, exercised in process through main()."""

import numpy as np
import pytest
from conftest import consistent_graph, random_graph

import ovsam.cli as cli
import ovsam.derivcheck as derivcheck
from ovsam.cli import main
from ovsam.graph import load_graph, save_graph
from ovsam.solver import SolveReport


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


def test_solve_iteration_limit_exit(tmp_path, capsys):
    rng = np.random.default_rng(3)
    graph = random_graph(rng, n_poses=6, n_homing=4, unit_orientations=True)
    path = _write_graph(tmp_path, graph)
    code = main(["solve", path, "--max-iters", "2", "--out", str(tmp_path / "s")])
    assert code == 1
    assert "iteration limit" in capsys.readouterr().err


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
