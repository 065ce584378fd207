"""Differential-drive scenario generator."""

import hashlib
import io
import math

import numpy as np
import pytest
import sim_reference

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


@pytest.mark.parametrize(
    "cfg, graph_sha, truth_sha",
    [
        (  # zero noise: every covariance on its floors
            SimConfig(noise_trans=0.0, noise_ang=0.0),
            "5cb8a6ea152e04d7c77516fbe0fafe008266dccd6a7854a4e3f9319fb2051bb6",
            "221de1cafd73b6b5f5e0c815e48fd8aadace14630bed31fdf9aa08c1ad0351e9",
        ),
        (  # no true curvature, and turns that do not creep
            SimConfig(wheel_speed_bias=0.0),
            "4471ebdc9bd841d602731aecc826971b51d0d14a3f9afb30c5dd5ff3db09b1b2",
            "2488c04d6d4fb798f2eb153104f775e4cb29ea9dc58819271556de3b5d87f412",
        ),
        (  # one substep per leg: one covariance step per segment
            SimConfig(euler_substeps=1),
            "96b3437ff2a5075e527d9265b494a6024674a59a8c45bf35a0e3e22570c68d2f",
            "f3b28b80cc923160207e17789e84198aa63594e1351964bf5fe2157a4a4defe0",
        ),
        (  # wider homing windows, clipped at the lane ends
            SimConfig(homing_neighbors=5),
            "f23ed7b6e29bf1cbee8b282d1cc276ad56dc60eebfeba871dbc2ce12b1ef3845",
            "221de1cafd73b6b5f5e0c815e48fd8aadace14630bed31fdf9aa08c1ad0351e9",
        ),
        (  # the fewest lanes: one lane change
            SimConfig(lanes=2),
            "197829a6b19c4b1e80b6a64207f47b0cb7b7cc017cfe4f57fb91278e708917e5",
            "5e2f5fa312e9dc5531fd93bbdcd9ed605f34f5555a7a82570e16d45ed334b0fb",
        ),
        (  # an even lane count, so the run ends on a return lane
            SimConfig(lanes=4, points_per_lane=15, seed=3),
            "6d3b9b93b2c6ce8b51a48ee1de1fbc01a90afa3fb88421f513f6ec52e963149d",
            "48207469e9d6b46290cbf8694eb2d42ee0bb97bbd37ac9efb54608517fc41580",
        ),
        (  # segment and lane-change legs of different lengths
            SimConfig(segment_length=0.3, lane_spacing=0.7),
            "007af6351d0d2aa622e4c69421de92ae3bf9cb229e1c2607d8d64d77186e728b",
            "81696d33c414efbc304936bfbec996c1e73bd093f091f8b8e883a6f48d433702",
        ),
        (  # the 20x50 yardstick (1,000 poses)
            SimConfig(lanes=20, points_per_lane=50),
            "31b98fca5be435caa7496703540f7fc1e5419ec3929378c2be4afd4310ec3718",
            "76f213e6f9265dea3b6ebdd567dc9ae06b60bff3dc9372b8807813b492595c91",
        ),
    ],
)
def test_edge_scenarios_are_pinned_bitwise(cfg, graph_sha, truth_sha):
    # digests of the per-substep loop's output: the array passes must
    # round every float as it did, on each kind of leg, floor and window
    graph, gt = simulate(cfg)
    assert hashlib.sha256(save_graph(graph).encode()).hexdigest() == graph_sha
    assert hashlib.sha256(save_ground_truth(gt).encode()).hexdigest() == truth_sha


@pytest.mark.parametrize(
    "cfg",
    [
        SimConfig(lanes=5, points_per_lane=7, seed=11, euler_substeps=3, homing_neighbors=2),
        SimConfig(lanes=3, points_per_lane=2, wheel_speed_bias=1.9, segment_length=2.5),
        SimConfig(lanes=4, points_per_lane=6, seed=7, noise_trans=0.3, noise_ang=0.5),
        SimConfig(seed=4, noise_trans=1e-12, noise_ang=0.0, euler_substeps=12),
        SimConfig(seed=9, lane_spacing=0.05, segment_length=0.01, homing_neighbors=7),
        SimConfig(seed=2, sigma_h=1e-12, sigma_c=3.0, homing_neighbors=4),
    ],
)
def test_simulate_matches_the_substep_loop(cfg):
    # the loop the array passes replaced, on settings the pins leave out
    graph, gt = simulate(cfg)
    ref_graph, ref_gt = sim_reference.simulate(cfg)
    assert save_graph(graph) == save_graph(ref_graph)
    assert save_ground_truth(gt) == save_ground_truth(ref_gt)


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
