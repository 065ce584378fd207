"""Differential-drive scenario generator."""

import hashlib
import io
import math

import numpy as np
import pytest

from ovsam.graph import save_graph
from ovsam.orvec import from_angle, omega, to_angle
from ovsam.sim import (
    SIGMA_FLOOR,
    T_EIGENVALUE_FLOOR,
    SimConfig,
    save_ground_truth,
    simulate,
    write_plot_csv,
)

CLEAN = SimConfig(wheel_speed_bias=0.0, noise_trans=0.0, noise_ang=0.0)


def _lane(cfg, pid):
    return (pid - 1) // cfg.points_per_lane


def test_default_scenario_counts():
    cfg = SimConfig()
    graph, gt = simulate(cfg)
    assert len(graph) == cfg.lanes * cfg.points_per_lane == 30
    assert len(gt) == 30
    assert graph.fixed_id == 1
    assert len(graph.odometry) == cfg.lanes * (cfg.points_per_lane - 1) == 27
    # odometry only chains consecutive poses inside one lane
    for m in graph.odometry:
        assert m.i2 == m.i1 + 1
        assert _lane(cfg, m.i1) == _lane(cfg, m.i2)
    # pinned for the default seed: windows shift by one at a lane edge
    assert len(graph.homing) == 57


def test_simulation_deterministic():
    a, gta = simulate(SimConfig())
    b, gtb = simulate(SimConfig())
    assert save_graph(a) == save_graph(b)
    assert np.array_equal(gta.poses, gtb.poses)
    c, _ = simulate(SimConfig(seed=1))
    assert save_graph(c) != save_graph(a)


@pytest.mark.parametrize(
    "cfg, graph_sha, truth_sha",
    [
        (
            SimConfig(),
            "f71d22025321e4a62c0567f7e66f9854003bf3fbb845c19983df1585e7bd342d",
            "221de1cafd73b6b5f5e0c815e48fd8aadace14630bed31fdf9aa08c1ad0351e9",
        ),
        (
            SimConfig(lanes=10, points_per_lane=30),
            "2a0ab9154bf421ce03da277c3e2ff5f33862fac7cad973a0510c1d51fcb03337",
            "fdcb5027f8cfa7e1facca472ce039a0d71f43bae97f6f7fe38eff65816aedcba",
        ),
    ],
)
def test_benchmark_scenarios_are_pinned_bitwise(cfg, graph_sha, truth_sha):
    # the benchmark's inputs: a change to the kinematics, the noise draws
    # or the text format shows up here first
    graph, gt = simulate(cfg)
    assert hashlib.sha256(save_graph(graph).encode()).hexdigest() == graph_sha
    assert hashlib.sha256(save_ground_truth(gt).encode()).hexdigest() == truth_sha


def test_pose_one_at_origin():
    graph, gt = simulate(SimConfig())
    assert np.array_equal(graph.pose(1).x, [0.0, 0.0])
    assert np.array_equal(graph.pose(1).u, [1.0, 0.0])
    assert np.array_equal(gt.poses[0], [0.0, 0.0, 0.0])


def test_homing_topology():
    cfg = SimConfig()
    graph, _ = simulate(cfg)
    per_pose = {}
    for m in graph.homing:
        assert _lane(cfg, m.i1) == _lane(cfg, m.i2) + 1
        per_pose[m.i1] = per_pose.get(m.i1, 0) + 1
    assert set(per_pose.values()) <= {2, 3}
    # every pose on lanes 2.. carries at least one homing edge
    assert sorted(per_pose) == list(range(cfg.points_per_lane + 1, len(graph) + 1))


def test_clean_homing_count_exact():
    # straight lanes, k = 3: 8 interior points see 3 neighbors, 2 lane
    # ends see 2, and the 3-lane run has 2 lane pairs
    graph, _ = simulate(CLEAN)
    assert len(graph.homing) == 2 * (8 * 3 + 2 * 2) == 56


def test_zero_noise_floors():
    graph, _ = simulate(CLEAN)
    for m in graph.odometry:
        assert np.allclose(m.T, T_EIGENVALUE_FLOOR * np.eye(2), atol=1e-18)
        assert m.sigma == SIGMA_FLOOR
        # sigma_e derives from the floored T, not from the raw variance
        assert m.sigma_e == pytest.approx(math.sqrt(T_EIGENVALUE_FLOOR), rel=1e-12)


def test_clean_run_belief_equals_truth():
    graph, gt = simulate(CLEAN)
    for pid, pose in graph.items():
        assert np.array_equal(pose.x, gt.poses[pid - 1][:2])
        assert np.array_equal(pose.u, from_angle(gt.poses[pid - 1][2]))


def test_clean_run_measurement_residuals_vanish():
    cfg = SimConfig(
        wheel_speed_bias=0.0,
        noise_trans=0.0,
        noise_ang=0.0,
        sigma_h=1e-12,
        sigma_c=1e-12,
    )
    graph, gt = simulate(cfg)
    for m in graph.odometry:
        p1, p2 = graph.pose(m.i1), graph.pose(m.i2)
        assert np.max(np.abs(omega(p1.u).T @ (p2.x - p1.x) - m.r)) < 1e-12
        assert np.max(np.abs(omega(m.q) @ p1.u - p2.u)) < 1e-12
    for m in graph.homing:
        ta, tb = gt.poses[m.i1 - 1], gt.poses[m.i2 - 1]
        home = math.atan2(tb[1] - ta[1], tb[0] - ta[0]) - ta[2]
        comp = tb[2] - ta[2]
        assert np.max(np.abs(m.alpha - from_angle(home))) < 1e-9
        assert np.max(np.abs(m.psi - from_angle(comp))) < 1e-9


def test_measured_vectors_are_unit():
    graph, _ = simulate(SimConfig(seed=3))
    for m in graph.odometry:
        assert abs(np.hypot(*m.q) - 1.0) < 1e-12
    for m in graph.homing:
        assert abs(np.hypot(*m.alpha) - 1.0) < 1e-12
        assert abs(np.hypot(*m.psi) - 1.0) < 1e-12


def test_noisy_covariances_positive_definite():
    graph, _ = simulate(SimConfig())
    for m in graph.odometry:
        ev = np.linalg.eigvalsh(m.T)
        assert np.all(ev > 0.0)
        assert np.max(ev) > 10.0 * T_EIGENVALUE_FLOOR  # genuinely off the floor
        assert m.sigma > SIGMA_FLOOR
        assert m.sigma_e > SIGMA_FLOOR


def test_odometry_composition_reproduces_beliefs():
    # r and q are computed from the stored believed poses, so composing
    # them from pose i1 must land on pose i2 even in a noisy run
    graph, _ = simulate(SimConfig(seed=5))
    for m in graph.odometry:
        p1, p2 = graph.pose(m.i1), graph.pose(m.i2)
        assert np.max(np.abs(p1.x + omega(p1.u) @ m.r - p2.x)) < 1e-10
        assert np.max(np.abs(omega(m.q) @ p1.u - p2.u)) < 1e-10


def test_drift_makes_a_real_problem():
    graph, gt = simulate(SimConfig())
    err = np.array(
        [graph.pose(pid).x - gt.poses[pid - 1][:2] for pid in graph.pose_ids()]
    )
    rms = float(np.sqrt(np.mean(np.sum(err**2, axis=1))))
    assert rms > 0.1


@pytest.mark.parametrize(
    "kwargs",
    [
        {"lanes": 1},
        {"points_per_lane": 1},
        {"lane_spacing": 0.0},
        {"segment_length": -1.0},
        {"wheel_speed_bias": -0.1},
        {"wheel_speed_bias": 2.0},
        {"euler_substeps": 0},
        {"noise_trans": -1e-6},
        {"noise_ang": -1e-6},
        {"sigma_h": 0.0},
        {"sigma_c": 0.0},
        {"homing_neighbors": 0},
        {"seed": -1},
        {"seed": 1.5},
        {"lanes": 2.5},
        {"points_per_lane": 10.0},
        {"euler_substeps": True},
        {"homing_neighbors": "3"},
        {"seed": True},
        {"lane_spacing": True},
        {"lane_spacing": 10**400},  # an int too large for a float is not finite
        {"noise_ang": -(10**400)},
    ],
)
def test_sim_config_rejects(kwargs):
    ((name, value),) = kwargs.items()
    with pytest.raises(ValueError, match=rf"^{name} must be .*, got {value!r}$"):
        SimConfig(**kwargs)
    if isinstance(value, int) and abs(value) > 2**1024:
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            SimConfig(**kwargs)


def test_sim_config_accepts_a_numpy_integer_seed():
    assert SimConfig(seed=np.int64(3)).seed == 3


def test_ground_truth_text(tmp_path):
    graph, gt = simulate(SimConfig())
    text = save_ground_truth(gt)
    lines = text.splitlines()
    assert len(lines) == len(graph)
    first = lines[0].split()
    assert first[0] == "TRUE" and first[1] == "1"
    assert [float(v) for v in first[2:]] == [0.0, 0.0, 0.0]
    path = tmp_path / "truth.txt"
    save_ground_truth(gt, path)
    assert path.read_text() == text
    buf = io.StringIO()
    save_ground_truth(gt, buf)
    assert buf.getvalue() == text


def test_plot_csv(tmp_path):
    graph, gt = simulate(SimConfig())
    text = write_plot_csv(graph, gt)
    lines = text.splitlines()
    assert lines[0] == "id,est_x,est_y,est_theta,true_x,true_y,true_theta"
    assert len(lines) == 1 + len(graph)
    row = lines[2].split(",")
    pid = int(row[0])
    assert pid == 2
    assert float(row[1]) == graph.pose(2).x[0]
    assert float(row[3]) == to_angle(graph.pose(2).u)
    assert float(row[6]) == gt.poses[1][2]
    path = tmp_path / "plot.csv"
    write_plot_csv(graph, gt, path)
    assert path.read_text() == text
