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
substeps per segment.  A run is simulated in array passes: a table of
every substep's command, built from the configuration alone; one noise
draw over the whole table; the true and believed poses, summed substep
by substep; then the odometry covariances of all segments at once.
Each segment's covariance starts from zero at its lane point and
follows C <- G C G^T + V W V^T with the usual pose-composition
Jacobians, evaluated along the believed path in the frame of the
segment-start pose; one step of the recursion advances every segment by
one substep, on (segments, 3, 3) stacks.  The 2x2 position block
becomes T, the angular variance becomes sigma^2, the cross terms are
discarded, and sigma_e is the standard deviation of T projected onto
the travel direction.  Degenerate (zero-noise) covariances are floored:
T's eigenvalues at 1e-12, sigma and sigma_e at 1e-9.

Randomness comes from numpy's default_rng (PCG64), whose draws are the
same on every platform; the floats made from them pass through libm,
numpy's dispatched trig, BLAS matmuls and LAPACK eigh.  So graph and
truth texts are bitwise reproducible for a fixed seed only on one host
with fixed library versions: the tests pin them for the versions that
tools/solve_digest.py names for its saved digests.  The array passes
round each float as a loop over the substeps would: math's functions
where numpy's differ (arctan2, hypot), running sums in substep order,
and small matmuls on operands of the same memory layout (BLAS orders
its fused multiply-adds by layout).
"""

import io
import math
from dataclasses import dataclass

import numpy as np

from .errors import Settings
from .graph import FactorGraph, HomingMeasurement, OdometryMeasurement, Pose, write_text
from .orvec import from_angle, omega, to_angle

WHEEL_BASE = 1.0  # m; track width of the simulated robot

T_EIGENVALUE_FLOOR = 1e-12
SIGMA_FLOOR = 1e-9


@dataclass(frozen=True)
class SimConfig(Settings):
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

    def requirements(self):
        return (
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


@dataclass
class GroundTruth:
    """True (x, y, theta) per graph pose, row i for pose id i+1."""

    poses: np.ndarray

    def __len__(self):
        return len(self.poses)


def _commands(cfg):
    """The run's substep table and the substep count at each lane point.

    The (N, 5) table has one row per Euler substep in driving order: the
    true move and turn, the commanded move and turn, and the wheel path;
    a leg (segment, turn or lane change) takes euler_substeps rows.  The
    (lanes, points_per_lane) array counts the substeps driven before each
    lane point; a lane's segment j runs from its point j to point j + 1.
    """
    n = cfg.euler_substeps
    # Wheel speeds v (1 -/+ bias/2) give exact mean speed v and a
    # constant true curvature bias/wheel_base when driving forward.
    kappa = cfg.wheel_speed_bias / WHEEL_BASE

    def straight(length):
        ds = length / n
        return (ds, kappa * ds, ds, 0.0, ds)

    def turn(angle):
        dth = angle / n
        # The wheel-speed mismatch makes the nominally-in-place turn
        # creep forward by bias * wheel_base / 4 meters per radian.
        drift = cfg.wheel_speed_bias * WHEEL_BASE / 4.0 * dth
        return (drift, dth, 0.0, dth, abs(dth) * WHEEL_BASE / 2.0)

    legs = []
    for lane in range(cfg.lanes):
        legs += [straight(cfg.segment_length)] * (cfg.points_per_lane - 1)
        if lane < cfg.lanes - 1:
            u = turn((1.0 if lane % 2 == 0 else -1.0) * math.pi / 2.0)
            legs += [u, straight(cfg.lane_spacing), u]
    first_leg = np.arange(cfg.lanes) * (cfg.points_per_lane + 2)
    at = n * (first_leg[:, None] + np.arange(cfg.points_per_lane))
    return np.repeat(np.array(legs), n, axis=0), at


def _running_sum(steps):
    """0, s0, s0 + s1, ...: np.cumsum adds in order, one step at a time, as a loop does."""
    return np.cumsum(np.concatenate(([0.0], steps)))


def _libm(fn, *args):
    """fn (a math function) of each element of the equal-shape arrays args."""
    return np.array(list(map(fn, *(a.ravel().tolist() for a in args)))).reshape(args[0].shape)


def _path(dth, fwd, lat):
    """Poses (N + 1, 3) from the origin on, each substep moving by (fwd, lat) in the
    frame of the heading before it, then turning by dth."""
    th = _running_sum(dth)
    c, s = _libm(math.cos, th[:-1]), _libm(math.sin, th[:-1])
    return np.column_stack([_running_sum(c * fwd - s * lat), _running_sum(s * fwd + c * lat), th])


def _segment_covariances(cfg, thb, dsf, dsl, first):
    """Covariance (K, 3, 3) of the believed displacement over each segment, in its start frame.

    Segment k is the euler_substeps substeps from first[k] on; thb holds the believed
    heading before each substep, dsf and dsl its noisy forward and lateral moves."""
    n = cfg.euler_substeps
    ds = cfg.segment_length / n
    i = first + np.arange(n)[:, None]  # (n, K): substep i of segment k
    cr, sr = _libm(math.cos, thb[i] - thb[first]), _libm(math.sin, thb[i] - thb[first])
    G = np.zeros(i.shape + (3, 3))
    G[..., [0, 1, 2], [0, 1, 2]] = 1.0
    G[..., 0, 2] = -sr * dsf[i] - cr * dsl[i]
    G[..., 1, 2] = cr * dsf[i] - sr * dsl[i]
    V = np.zeros(G.shape)
    V[..., :2, :2] = omega(np.stack([cr, sr], axis=-1))
    V[..., 2, 2] = 1.0
    W = np.diag([cfg.noise_trans * ds, cfg.noise_trans * ds, cfg.noise_ang * ds])
    Q = V @ W @ np.swapaxes(V, -1, -2)
    C = np.zeros(G.shape[1:])
    for Gi, Qi in zip(G, Q):
        C = Gi @ C @ np.swapaxes(Gi, -1, -2) + Qi
    return C


def _odometry(i1, start, end, C):
    """Odometry records from pose ids i1 to i1 + 1, believed poses start, end and covariances C."""
    # R^T and evecs^T stay transposed views, the layout of the loop's 2-D operands.
    R = omega(from_angle(start[:, 2]).T)
    r = (np.swapaxes(R, -1, -2) @ (end[:, :2] - start[:, :2])[:, :, None])[:, :, 0]
    q = from_angle(end[:, 2] - start[:, 2]).T
    T = 0.5 * (C[:, :2, :2] + np.swapaxes(C[:, :2, :2], -1, -2))
    evals, evecs = np.linalg.eigh(T)
    low = ~(evals[:, 0] >= T_EIGENVALUE_FLOOR)
    floored = evecs[low] * np.maximum(evals[low], T_EIGENVALUE_FLOOR)[:, None, :]
    T[low] = floored @ np.swapaxes(evecs[low], -1, -2)
    rho = _libm(math.hypot, r[:, 0], r[:, 1])
    along = rho > 1e-12
    r0 = r / np.where(along, rho, 1.0)[:, None]
    var_e = (r0[:, None, :] @ T @ r0[:, :, None])[:, 0, 0]
    var_e[~along] = np.linalg.eigvalsh(T[~along])[:, -1]
    sigma, sigma_e = np.maximum(np.sqrt(np.maximum([C[:, 2, 2], var_e], 0.0)), SIGMA_FLOOR)
    return [
        OdometryMeasurement(i1=i, i2=i + 1, r=rk, q=qk, T=Tk, sigma=sk, sigma_e=sek)
        for i, rk, qk, Tk, sk, sek in zip(i1.tolist(), r, q, T, sigma.tolist(), sigma_e.tolist())
    ]


def _homing_pairs(cfg, truth):
    """0-based pose index pairs (a, b): a on a lane, b near it on the previous lane."""
    n, k = cfg.points_per_lane, cfg.homing_neighbors
    pairs = []
    for lane in range(1, cfg.lanes):
        cur = truth[lane * n : (lane + 1) * n, :2]
        d = truth[(lane - 1) * n : lane * n, :2] - cur[:, None, :]
        nearest = np.argmin(np.hypot(d[..., 0], d[..., 1]), axis=1).tolist()
        for a, m in enumerate(nearest, start=lane * n):
            lo, hi = max(0, m - (k - 1) // 2), min(n - 1, m + k // 2)
            pairs += [(a, (lane - 1) * n + b) for b in range(lo, hi + 1)]
    return np.array(pairs).T


def simulate(cfg=None):
    """Generate the scenario; returns (FactorGraph, GroundTruth).

    Graph poses are the odometry-integrated (believed) poses, pose 1
    fixed at the origin; the ground truth holds the true poses.
    """
    if cfg is None:
        cfg = SimConfig()
    rng = np.random.default_rng(cfg.seed)
    steps, at = _commands(cfg)
    move, turn, cmd_move, cmd_turn, wheel = steps.T
    density = [cfg.noise_trans, cfg.noise_trans, cfg.noise_ang]
    ef, el, eth = rng.normal(0.0, np.sqrt(wheel[:, None] * density)).T
    dsf, dth = cmd_move + ef, cmd_turn + eth  # 0.0 + e is e: rng.normal(0.0, s) is never -0.0
    # A zero lateral move changes a step's sign of zero at most, which the sums drop.
    true = _path(turn, move, np.zeros_like(move))
    bel = _path(dth, dsf, el)

    first, last = at[:, :-1].ravel(), at[:, 1:].ravel()
    C = _segment_covariances(cfg, bel[:, 2], dsf, el, first)
    ids = np.arange(1, at.size + 1).reshape(at.shape)
    odometry = _odometry(ids[:, :-1].ravel(), bel[first], bel[last], C)

    truth = true[at.ravel()]
    a, b = _homing_pairs(cfg, truth)
    ta, tb = truth[a], truth[b]
    home = _libm(math.atan2, tb[:, 1] - ta[:, 1], tb[:, 0] - ta[:, 0]) - ta[:, 2]
    comp = tb[:, 2] - ta[:, 2]
    eh, ec = rng.normal(0.0, [cfg.sigma_h, cfg.sigma_c], (len(a), 2)).T
    homing = [
        HomingMeasurement(i1=i, i2=j, alpha=al, psi=ps, sigma_h=cfg.sigma_h, sigma_c=cfg.sigma_c)
        for i, j, al, ps in zip(
            (a + 1).tolist(), (b + 1).tolist(), from_angle(home + eh).T, from_angle(comp + ec).T
        )
    ]

    points = bel[at.ravel()]
    poses = [Pose(x, u) for x, u in zip(points[:, :2], from_angle(points[:, 2]).T)]
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
