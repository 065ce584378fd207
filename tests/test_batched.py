"""Bitwise gate: batched evaluation against the per-record loop reference.

total_values, merit, assemble and init_lambdas must reproduce every
number of tests/loop_reference.py exactly (same bytes, so even the sign
of a zero), over all cost forms, masked distance and homing terms, a
graph without homing records, a non-default anchor, and simulated
graphs; a degenerate record must be named as the loop names it.  A
stack of S = 3 states must give total_values and merit of the three
single-state calls byte for byte.
"""

import loop_reference as ref
import numpy as np
import pytest
from conftest import random_graph

from ovsam.assembly import (
    ActiveMask,
    assemble,
    init_lambdas,
    measurement_tables,
    merit,
    total_values,
)
from ovsam.costs import RotCostConfig
from ovsam.errors import DegenerateVectorError
from ovsam.graph import (
    FactorGraph,
    HomingMeasurement,
    OdometryMeasurement,
    Pose,
    pack_state,
    state_table,
)
from ovsam.sim import SimConfig, simulate
from ovsam.solver import compute_active_mask

CFGS = [RotCostConfig(t1=1), RotCostConfig(t1=0, gamma=1.7), RotCostConfig(form="second")]


def _same(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _states(graph, rng, count=3, scale=0.05):
    """(table, lambdas) at the graph's poses and at perturbed states."""
    n = len(graph.free_ids())
    base = pack_state(graph, rng.normal(size=n))
    yield graph.pose_table(), base[4::5]
    for _ in range(count):
        vec = base + rng.normal(0.0, scale, base.shape)
        yield state_table(graph.pose_table(), graph.fixed_id, vec), vec[4::5]


def _check_values_and_system(graph, cfg, active, lambdas, use_distance, table):
    tables = measurement_tables(graph, cfg)
    args = (graph, cfg, active, lambdas, use_distance, table)
    assert all(
        _same(a, b) for a, b in zip(total_values(*args, tables), ref.total_values(*args))
    )
    margs = (graph, cfg, active, 10.0, lambdas, use_distance, table)
    assert _same(merit(*margs, tables), ref.merit(*margs))

    system = assemble(*args, tables)
    g, blocks, F, L, l_values = ref.assemble(*args)
    assert _same(system.g, g)
    assert _same(system.F, F) and _same(system.L, L)
    assert _same(system.l_values, l_values)
    got = system.blocks
    assert set(got) == set(blocks)
    assert all(_same(got[key], blocks[key]) for key in blocks)


def _check_stack(graph, cfg, active, use_distance, states):
    """A stack of the states gives each state's total_values and merit byte for byte."""
    tables = measurement_tables(graph, cfg)
    stack = np.stack([table for table, _ in states])
    lambdas = np.stack([lam for _, lam in states])
    got = total_values(graph, cfg, active, lambdas, use_distance, stack, tables)
    want = [total_values(graph, cfg, active, lam, use_distance, t, tables) for t, lam in states]
    assert all(_same(got[k], [w[k] for w in want]) for k in range(3))
    got = merit(graph, cfg, active, 10.0, lambdas, use_distance, stack, tables)
    want = [merit(graph, cfg, active, 10.0, lam, use_distance, t, tables) for t, lam in states]
    assert _same(got, want)


def _random_mask(graph, rng):
    return ActiveMask(
        homing=rng.random(len(graph.homing)) < 0.6,
        distance=rng.random(len(graph.odometry)) < 0.6,
    )


@pytest.mark.parametrize("cfg", CFGS, ids=["t1=1", "t1=0", "second"])
@pytest.mark.parametrize("use_distance", [False, True], ids=["plain", "distance"])
def test_random_graphs_match_the_loop(cfg, use_distance):
    rng = np.random.default_rng(40)
    for _ in range(4):
        graph = random_graph(rng, n_poses=7, n_homing=8)
        states = list(_states(graph, rng))
        for table, lambdas in states:
            for active in (None, _random_mask(graph, rng)):
                _check_values_and_system(graph, cfg, active, lambdas, use_distance, table)
        for active in (None, _random_mask(graph, rng)):
            _check_stack(graph, cfg, active, use_distance, states[1:])


@pytest.mark.parametrize("cfg", CFGS, ids=["t1=1", "t1=0", "second"])
def test_nondefault_anchor_and_no_homing_match_the_loop(cfg):
    rng = np.random.default_rng(41)
    graph = random_graph(rng, n_poses=6, n_homing=5).with_fixed(4)
    bare = FactorGraph(graph.poses, graph.odometry, (), 4)
    for g in (graph, bare):
        states = list(_states(g, rng))
        for table, lambdas in states:
            for use_distance in (False, True):
                _check_values_and_system(g, cfg, None, lambdas, use_distance, table)
        for use_distance in (False, True):
            _check_stack(g, cfg, None, use_distance, states[1:])


@pytest.mark.parametrize("cfg", CFGS, ids=["t1=1", "t1=0", "second"])
def test_simulated_graphs_match_the_loop(cfg):
    # the threshold masks some homing records and distance terms
    rng = np.random.default_rng(42)
    graph, _ = simulate(SimConfig(lanes=3, points_per_lane=6, seed=3))
    states = list(_states(graph, rng, scale=0.2))
    for table, lambdas in states:
        for use_distance in (False, True):
            active = compute_active_mask(graph, 0.5, use_distance, table)
            assert not active.homing.all() and active.homing.any()
            _check_values_and_system(graph, cfg, active, lambdas, use_distance, table)
            _check_stack(graph, cfg, active, use_distance, states[1:])
        unit = table.copy()
        unit[:, 2:4] /= np.hypot(unit[:, 2], unit[:, 3])[:, None]
        active = compute_active_mask(graph, 0.5, False, unit)
        assert _same(
            init_lambdas(graph, cfg, active, unit), ref.init_lambdas(graph, cfg, active, unit)
        )


def test_init_lambdas_match_the_loop_with_nondefault_anchor():
    rng = np.random.default_rng(43)
    graph = random_graph(rng, n_poses=6, n_homing=6, unit_orientations=True).with_fixed(3)
    for cfg in CFGS:
        assert _same(init_lambdas(graph, cfg), ref.init_lambdas(graph, cfg))


def _degenerate_graph(x2, u1, u2):
    poses = [Pose([0.0, 0.0], u1), Pose(x2, u2), Pose([1.0, 1.0], [1.0, 0.0])]
    odometry = [
        OdometryMeasurement(i1, i2, [1.0, 0.0], [0.0, 1.0], np.eye(2), 0.3, 0.4)
        for i1, i2 in [(1, 2), (2, 3), (3, 1)]
    ]
    homing = [
        HomingMeasurement(i1, i2, [1.0, 0.0], [0.0, 1.0], 0.1, 0.2)
        for i1, i2 in [(3, 1), (2, 3), (1, 2), (2, 1)]
    ]
    return FactorGraph(poses, odometry, homing)


@pytest.mark.parametrize("cfg", CFGS, ids=["t1=1", "t1=0", "second"])
@pytest.mark.parametrize("use_distance", [False, True], ids=["plain", "distance"])
@pytest.mark.parametrize(
    "x2, u1, u2",
    [
        ([0.0, 0.0], [1.0, 0.0], [1.0, 0.0]),  # poses 1 and 2 coincide
        ([1.0, 0.0], [0.0, 0.0], [1.0, 0.0]),  # zero orientation of pose 1
        ([1.0, 0.0], [1.0, 0.0], [0.0, 0.0]),  # zero orientation of pose 2
        ([0.0, 0.0], [0.0, 0.0], [1.0, 0.0]),  # both faults in odometry record 1
        ([0.0, 0.0], [0.0, 0.0], [0.0, 0.0]),  # all of them
    ],
)
def test_degenerate_records_are_named_as_the_loop_names_them(cfg, use_distance, x2, u1, u2):
    graph = _degenerate_graph(x2, u1, u2)
    for path, reference in ((total_values, ref.total_values), (assemble, ref.assemble)):
        try:
            reference(graph, cfg, use_distance_error=use_distance)
        except DegenerateVectorError as exc:
            with pytest.raises(DegenerateVectorError) as got:
                path(graph, cfg, use_distance_error=use_distance)
            assert str(got.value) == str(exc)
        else:
            table = graph.pose_table()
            _check_values_and_system(graph, cfg, None, None, use_distance, table)
    # in a stack, the degenerate trial's record is named as a call on it alone names it
    good = _degenerate_graph([1.0, 0.0], [1.0, 0.0], [1.0, 0.0]).pose_table()
    stack = np.stack((good, graph.pose_table(), good))
    try:
        total_values(graph, cfg, use_distance_error=use_distance)
    except DegenerateVectorError as exc:
        with pytest.raises(DegenerateVectorError) as got:
            total_values(graph, cfg, None, np.zeros((3, 2)), use_distance, stack)
        assert str(got.value) == str(exc)
