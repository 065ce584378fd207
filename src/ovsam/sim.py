"""Differential-drive simulation of a multi-lane cleaning run.

A robot is commanded to sweep parallel lanes in a boustrophedon
pattern.  Its wheels have a systematic speed mismatch, so the true path
curves while the odometry (which integrates the commanded motion plus
noise) believes the lanes are straight.  Lane points are connected by
odometry measurements; every point on a lane also receives emulated
visual-homing measurements (home vector + compass) toward its nearest
points on the previous lane, computed from the true poses with Gaussian
angular noise.  There are no odometry measurements across the
turn-advance-turn transitions between lanes, so homing is the only
thing tying the lanes together.

Kinematics are integrated with a first-order Euler scheme in several
substeps per segment.  Odometry covariance is propagated per segment,
starting from zero at each lane point: C <- G C G^T + V W V^T with the
usual pose-composition Jacobians, evaluated along the believed path in
the frame of the segment-start pose.  The 2x2 position block becomes T,
the angular variance becomes sigma^2, the cross terms are discarded,
and sigma_e is the standard deviation of T projected onto the travel
direction.  Degenerate (zero-noise) covariances are floored: T's
eigenvalues at 1e-12, sigma and sigma_e at 1e-9.

Randomness comes from numpy's default_rng (PCG64), so graphs are
bitwise reproducible for a fixed seed across platforms.
"""

import io
import math
from dataclasses import dataclass, fields
from numbers import Integral

import numpy as np

from .graph import FactorGraph, HomingMeasurement, OdometryMeasurement, Pose, write_text
from .orvec import from_angle, omega, to_angle

WHEEL_BASE = 1.0  # m; track width of the simulated robot

T_EIGENVALUE_FLOOR = 1e-12
SIGMA_FLOOR = 1e-9


@dataclass(frozen=True)
class SimConfig:
    lanes: int = 3
    points_per_lane: int = 10
    lane_spacing: float = 0.5  # m
    segment_length: float = 0.5  # m
    wheel_speed_bias: float = 0.05  # fractional left/right speed mismatch
    euler_substeps: int = 10
    noise_trans: float = 1e-4  # translational noise density, m^2 per m
    noise_ang: float = 2e-4  # angular noise density, rad^2 per m
    sigma_h: float = math.radians(5.0)  # home-vector noise, rad
    sigma_c: float = math.radians(5.0)  # compass noise, rad
    homing_neighbors: int = 3
    seed: int = 0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type is float and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value!r}")
            if f.type is int and (not isinstance(value, Integral) or isinstance(value, bool)):
                raise ValueError(f"{f.name} must be an integer, got {value!r}")
        checks = (
            ("lanes", self.lanes >= 2, "at least 2, for homing measurements to exist"),
            ("points_per_lane", self.points_per_lane >= 2, "at least 2"),
            ("lane_spacing", self.lane_spacing > 0.0, "positive"),
            ("segment_length", self.segment_length > 0.0, "positive"),
            ("wheel_speed_bias", 0.0 <= self.wheel_speed_bias < 2.0, "in [0, 2)"),
            ("euler_substeps", self.euler_substeps >= 1, "at least 1"),
            ("noise_trans", self.noise_trans >= 0.0, "nonnegative"),
            ("noise_ang", self.noise_ang >= 0.0, "nonnegative"),
            ("sigma_h", self.sigma_h > 0.0, "positive"),
            ("sigma_c", self.sigma_c > 0.0, "positive"),
            ("homing_neighbors", self.homing_neighbors >= 1, "at least 1"),
            ("seed", self.seed >= 0, "a nonnegative integer"),
        )
        for name, ok, requirement in checks:
            if not ok:
                raise ValueError(f"{name} must be {requirement}, got {getattr(self, name)!r}")


@dataclass
class GroundTruth:
    """True (x, y, theta) per graph pose, row i for pose id i+1."""

    poses: np.ndarray

    def __len__(self):
        return len(self.poses)


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
        for a in lane_ids[lane]:
            ta = truth[a - 1]
            dists = [np.hypot(*(truth[b - 1][:2] - ta[:2])) for b in prev]
            m = int(np.argmin(dists))
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


def save_ground_truth(gt, dest=None):
    """Write 'TRUE <id> <x1> <x2> <theta>' lines; returns text if dest is None."""
    buf = io.StringIO()
    for i, (x, y, th) in enumerate(gt.poses, start=1):
        buf.write(f"TRUE {i} {float(x)!r} {float(y)!r} {float(th)!r}\n")
    return write_text(buf.getvalue(), dest)


def write_plot_csv(graph, gt, dest=None):
    """Estimated-vs-true pose table for external plotting tools."""
    buf = io.StringIO()
    buf.write("id,est_x,est_y,est_theta,true_x,true_y,true_theta\n")
    for pid, pose in graph.items():
        tx, ty, tth = gt.poses[pid - 1]
        buf.write(
            f"{pid},{float(pose.x[0])!r},{float(pose.x[1])!r},{to_angle(pose.u)!r},"
            f"{float(tx)!r},{float(ty)!r},{float(tth)!r}\n"
        )
    return write_text(buf.getvalue(), dest)
