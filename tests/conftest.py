"""Shared graph builders for the test suite."""

import numpy as np

from ovsam.assembly import EvaluationPlan, measurement_tables, pack_state, unpack_state
from ovsam.costs import RotCostConfig
from ovsam.graph import FactorGraph, HomingMeasurement, OdometryMeasurement, Pose
from ovsam.orvec import from_angle, omega


def state_of(graph, lambdas):
    """The flat state of the graph's poses with the multipliers lambdas."""
    return pack_state(measurement_tables(graph, RotCostConfig()), graph.pose_table(), lambdas)


def at_state(graph, vec):
    """(pose table, multipliers) of a flat state over the graph's free poses."""
    return unpack_state(measurement_tables(graph, RotCostConfig()), graph.pose_table(), vec)


def evaluation(
    graph, cfg, active=None, lambdas=None, use_distance_error=False, table=None, tables=None
):
    """(plan, state, anchor): the EvaluationPlan of the mask active (every
    record by default) over tables (the graph's under cfg and
    use_distance_error by default, and given tables must have been built
    with both), the flat state of the pose table (the graph's) and
    multipliers (zeros), and the table's anchor row, as solve evaluates them."""
    if tables is None:
        tables = measurement_tables(graph, cfg, use_distance_error)
    assert (tables.cost, tables.use_distance_error) == (cfg, use_distance_error)
    if table is None:
        table = graph.pose_table()
    if active is None:
        active = np.ones(len(tables.i1), dtype=bool)
    if lambdas is None:
        lambdas = np.zeros(len(tables.free))
    plan = EvaluationPlan(tables, active)
    return plan, pack_state(tables, table, lambdas), table[tables.anchor]


def stored_entries(system):
    """(rows, cols) of the system's stored H entries, in the order of its values."""
    plan = system.plan
    return plan.indices, np.repeat(np.arange(system.dim), np.diff(plan.indptr))


def stored_blocks(system):
    """The (rank, rank) pose pairs of the 5 x 5 blocks holding a stored entry."""
    rows, cols = stored_entries(system)
    return set(zip((rows // 5).tolist(), (cols // 5).tolist()))


def random_spd(rng, lo=0.05, hi=1.0):
    R = omega(from_angle(rng.uniform(-np.pi, np.pi)))
    return (R * rng.uniform(lo, hi, 2)) @ R.T


def spread_positions(rng, n, min_dist=0.4):
    """Random positions with a pairwise distance floor (keeps home vectors
    and distance costs away from their coincident-pose degeneracy)."""
    while True:
        xs = rng.uniform(-2.0, 2.0, (n, 2))
        gaps = np.linalg.norm(xs[:, None, :] - xs[None, :, :], axis=-1)
        if np.all(gaps[np.triu_indices(n, 1)] >= min_dist):
            return xs


def random_graph(rng, n_poses=5, n_homing=4, unit_orientations=False):
    """Valid measurement data over random poses; orientations may be
    non-unit (the optimization state is allowed off the constraint)."""
    xs = spread_positions(rng, n_poses)
    poses = []
    for k in range(n_poses):
        u = from_angle(rng.uniform(-np.pi, np.pi))
        if not unit_orientations:
            u = rng.uniform(0.6, 1.4) * u
        poses.append(Pose(xs[k], u))
    odometry = [
        OdometryMeasurement(
            i1=i,
            i2=i + 1,
            r=rng.uniform(-1.0, 1.0, 2),
            q=from_angle(rng.uniform(-np.pi, np.pi)),
            T=random_spd(rng),
            sigma=rng.uniform(0.2, 1.0),
            sigma_e=rng.uniform(0.2, 1.0),
        )
        for i in range(1, n_poses)
    ]
    pairs = [
        (i1, i2)
        for i1 in range(1, n_poses + 1)
        for i2 in range(1, n_poses + 1)
        if i1 != i2
    ]
    homing = []
    for k in rng.choice(len(pairs), size=min(n_homing, len(pairs)), replace=False):
        i1, i2 = pairs[k]
        homing.append(
            HomingMeasurement(
                i1=i1,
                i2=i2,
                alpha=from_angle(rng.uniform(-np.pi, np.pi)),
                psi=from_angle(rng.uniform(-np.pi, np.pi)),
                sigma_h=rng.uniform(0.2, 1.0),
                sigma_c=rng.uniform(0.2, 1.0),
            )
        )
    graph = FactorGraph(poses, odometry, homing)
    graph.validate()
    return graph


def consistent_graph(rng, n_poses=4, with_homing=True):
    """Every measurement computed exactly from the poses (zero residuals),
    unit orientations, moderate weights."""
    xs = spread_positions(rng, n_poses)
    us = [from_angle(rng.uniform(-np.pi, np.pi)) for _ in range(n_poses)]
    poses = [Pose(x, u) for x, u in zip(xs, us)]
    odometry = [
        OdometryMeasurement(
            i1=i,
            i2=i + 1,
            r=omega(us[i - 1]).T @ (xs[i] - xs[i - 1]),
            q=omega(us[i - 1]).T @ us[i],
            T=0.01 * np.eye(2),
            sigma=0.1,
            sigma_e=0.1,
        )
        for i in range(1, n_poses)
    ]
    homing = []
    if with_homing:
        for i1 in range(3, n_poses + 1):
            i2 = i1 - 2
            delta = xs[i2 - 1] - xs[i1 - 1]
            d0 = delta / np.hypot(*delta)
            homing.append(
                HomingMeasurement(
                    i1=i1,
                    i2=i2,
                    alpha=omega(us[i1 - 1]).T @ d0,
                    psi=omega(us[i1 - 1]).T @ us[i2 - 1],
                    sigma_h=0.1,
                    sigma_c=0.1,
                )
            )
    graph = FactorGraph(poses, odometry, homing)
    graph.validate()
    return graph


def two_pose_graph(theta1=0.3, x1=(0.2, -0.1), r=(0.8, 0.4), rel=0.7):
    """Single odometry measurement; the free pose has the closed-form
    optimum x2* = x1 + Omega(u1) r, u2* = Omega(q) u1."""
    u1 = from_angle(theta1)
    q = from_angle(rel)
    x1 = np.asarray(x1, dtype=float)
    x2 = x1 + omega(u1) @ np.asarray(r, dtype=float)
    poses = [Pose(x1, u1), Pose(x2, omega(q) @ u1)]
    odometry = [
        OdometryMeasurement(
            i1=1, i2=2, r=r, q=q, T=0.01 * np.eye(2), sigma=0.1, sigma_e=0.1
        )
    ]
    graph = FactorGraph(poses, odometry)
    graph.validate()
    return graph


def coincident_start(homing=False):
    """Poses 1 and 2 both at the origin, joined by odometry record 1 and,
    if homing, by homing record 1 (2->1)."""
    poses = [Pose([0.0, 0.0], [1.0, 0.0]), Pose([0.0, 0.0], [1.0, 0.0])]
    poses.append(Pose([1.0, 1.0], [0.0, 1.0]))
    odometry = [
        OdometryMeasurement(i1, i2, [1.0, 0.0], [1.0, 0.0], 0.01 * np.eye(2), 0.1, 0.1)
        for i1, i2 in [(1, 2), (2, 3)]
    ]
    records = [HomingMeasurement(2, 1, [1.0, 0.0], [1.0, 0.0], 0.1, 0.1)] if homing else []
    return FactorGraph(poses, odometry, records)
