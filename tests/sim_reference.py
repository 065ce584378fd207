"""The per-substep loop that simulated a run before the array passes.

The bitwise reference for ovsam.sim.simulate: a _Drive object steps the
true and believed poses one Euler substep at a time, with three scalar
noise draws each, and propagates each segment's covariance with its own
3x3 matmuls; odometry records are made one segment at a time and the
homing draws one record at a time.  tests/test_sim.py requires simulate
to write the same graph and truth text as this loop.
"""

import math

import numpy as np

from ovsam.graph import FactorGraph, HomingMeasurement, OdometryMeasurement, Pose
from ovsam.orvec import from_angle, omega
from ovsam.sim import SIGMA_FLOOR, T_EIGENVALUE_FLOOR, WHEEL_BASE, GroundTruth, SimConfig


class _Drive:
    """True and believed kinematic state with per-substep noise injection."""

    def __init__(self, cfg, rng):
        self.cfg = cfg
        self.rng = rng
        self.true = np.zeros(3)
        self.bel = np.zeros(3)
        # Wheel speeds v (1 -/+ bias/2) give exact mean speed v and a
        # constant true curvature bias/wheel_base when driving forward.
        self.kappa = cfg.wheel_speed_bias / WHEEL_BASE

    def _substep(self, move, turn, cmd_move, cmd_turn, wheel_path):
        """One Euler substep; returns the believed heading before it and (dsf, dsl).

        The true pose moves by (move, turn), the believed one by the command
        (cmd_move, cmd_turn) plus noise for wheel_path meters of wheel travel:
        dsf forward, dsl lateral.  rng.normal(0.0, s) never returns -0.0, so
        a zero command adds nothing to its noise.
        """
        th = self.true[2]
        self.true[0] += math.cos(th) * move
        self.true[1] += math.sin(th) * move
        self.true[2] += turn

        st = math.sqrt(self.cfg.noise_trans * wheel_path)
        sa = math.sqrt(self.cfg.noise_ang * wheel_path)
        rng = self.rng
        ef, el, eth = rng.normal(0.0, st), rng.normal(0.0, st), rng.normal(0.0, sa)
        dsf, dsl, dth = cmd_move + ef, el, cmd_turn + eth
        thb = self.bel[2]
        c, s = math.cos(thb), math.sin(thb)
        self.bel[0] += c * dsf - s * dsl
        self.bel[1] += s * dsf + c * dsl
        self.bel[2] += dth
        return thb, dsf, dsl

    def straight(self, length, with_cov):
        """Drive a commanded-straight segment; optionally propagate covariance.

        Returns the 3x3 covariance of the believed segment displacement,
        expressed in the frame of the segment-start believed pose (zeros
        when with_cov is false).
        """
        cfg = self.cfg
        ds = length / cfg.euler_substeps
        start_theta = self.bel[2]
        C = np.zeros((3, 3))
        W = np.diag([cfg.noise_trans * ds, cfg.noise_trans * ds, cfg.noise_ang * ds])
        for _ in range(cfg.euler_substeps):
            thb, dsf, dsl = self._substep(ds, self.kappa * ds, ds, 0.0, ds)
            if with_cov:
                rel = thb - start_theta
                cr, sr = math.cos(rel), math.sin(rel)
                G = np.array(
                    [
                        [1.0, 0.0, -sr * dsf - cr * dsl],
                        [0.0, 1.0, cr * dsf - sr * dsl],
                        [0.0, 0.0, 1.0],
                    ]
                )
                V = np.array([[cr, -sr, 0.0], [sr, cr, 0.0], [0.0, 0.0, 1.0]])
                C = G @ C @ G.T + V @ W @ V.T
        return C

    def turn(self, angle):
        """Turn in place by the commanded angle (plus bias drift and noise)."""
        cfg = self.cfg
        dth = angle / cfg.euler_substeps
        wheel_path = abs(dth) * WHEEL_BASE / 2.0
        # The wheel-speed mismatch makes the nominally-in-place turn
        # creep forward by bias * wheel_base / 4 meters per radian.
        drift = cfg.wheel_speed_bias * WHEEL_BASE / 4.0 * dth
        for _ in range(cfg.euler_substeps):
            self._substep(drift, dth, 0.0, dth, wheel_path)


def _floor_spd(T):
    """Symmetrize and floor the eigenvalues of a 2x2 covariance."""
    T = 0.5 * (T + T.T)
    evals, evecs = np.linalg.eigh(T)
    if evals[0] >= T_EIGENVALUE_FLOOR:
        return T
    return (evecs * np.maximum(evals, T_EIGENVALUE_FLOOR)) @ evecs.T


def _make_odometry(i1, i2, start_bel, end_bel, C):
    theta = start_bel[2]
    R = omega(from_angle(theta))
    r = R.T @ (end_bel[:2] - start_bel[:2])
    q = from_angle(end_bel[2] - start_bel[2])
    T = _floor_spd(C[:2, :2])
    sigma = max(math.sqrt(max(C[2, 2], 0.0)), SIGMA_FLOOR)
    rho = math.hypot(r[0], r[1])
    if rho > 1e-12:
        r0 = r / rho
        var_e = float(r0 @ T @ r0)
    else:
        var_e = float(np.linalg.eigvalsh(T)[-1])
    sigma_e = max(math.sqrt(max(var_e, 0.0)), SIGMA_FLOOR)
    return OdometryMeasurement(i1=i1, i2=i2, r=r, q=q, T=T, sigma=sigma, sigma_e=sigma_e)


def simulate(cfg=None):
    """Generate the scenario; returns (FactorGraph, GroundTruth).

    Graph poses are the odometry-integrated (believed) poses, pose 1
    fixed at the origin; the ground truth holds the true poses.
    """
    if cfg is None:
        cfg = SimConfig()
    rng = np.random.default_rng(cfg.seed)
    drive = _Drive(cfg, rng)

    true_pts = []
    bel_pts = []
    lane_ids = []  # pose ids per lane, in traversal order
    odometry = []

    for lane in range(cfg.lanes):
        ids = []
        for j in range(cfg.points_per_lane):
            if j > 0:
                start_bel = drive.bel.copy()
                C = drive.straight(cfg.segment_length, with_cov=True)
                odometry.append(
                    _make_odometry(len(bel_pts), len(bel_pts) + 1, start_bel, drive.bel, C)
                )
            true_pts.append(drive.true.copy())
            bel_pts.append(drive.bel.copy())
            ids.append(len(bel_pts))
        lane_ids.append(ids)
        if lane < cfg.lanes - 1:
            direction = 1.0 if lane % 2 == 0 else -1.0
            drive.turn(direction * math.pi / 2.0)
            drive.straight(cfg.lane_spacing, with_cov=False)
            drive.turn(direction * math.pi / 2.0)

    truth = np.array(true_pts)
    homing = []
    k = cfg.homing_neighbors
    for lane in range(1, cfg.lanes):
        prev = lane_ids[lane - 1]
        prev_xy = truth[np.asarray(prev) - 1, :2]
        for a in lane_ids[lane]:
            ta = truth[a - 1]
            d = prev_xy - ta[:2]
            m = int(np.argmin(np.hypot(d[:, 0], d[:, 1])))  # the nearest point of the previous lane
            lo = max(0, m - (k - 1) // 2)
            hi = min(len(prev) - 1, m + k // 2)
            for b in prev[lo : hi + 1]:
                tb = truth[b - 1]
                home = math.atan2(tb[1] - ta[1], tb[0] - ta[0]) - ta[2]
                comp = tb[2] - ta[2]
                homing.append(
                    HomingMeasurement(
                        i1=a,
                        i2=b,
                        alpha=from_angle(home + rng.normal(0.0, cfg.sigma_h)),
                        psi=from_angle(comp + rng.normal(0.0, cfg.sigma_c)),
                        sigma_h=cfg.sigma_h,
                        sigma_c=cfg.sigma_c,
                    )
                )

    poses = [Pose(b[:2], from_angle(b[2])) for b in bel_pts]
    graph = FactorGraph(poses, odometry, homing, fixed_id=1)
    graph.validate()
    return graph, GroundTruth(truth)
