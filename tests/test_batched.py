"""Bitwise gate: batched evaluation against the per-record loop reference.

EvaluationPlan.totals and assembly (with the multiplier estimate it
makes when given none) must reproduce every number of
tests/loop_reference.py exactly (same bytes, so even the sign of a
zero), over all cost forms, masked distance and homing terms, a graph
without homing records, a non-default anchor, and simulated graphs:
totals and the system's F, L and l1 are the loop's total_values.  A
degenerate record must be named as the loop names it.  A stack of
S = 3 states must give each state's totals byte for byte: those of a
call on it alone, the loop's, and the F, L and l1 of the system
assembled at it; each kernel's values must be those of single calls.
A permuted state order must permute the state and the system,
bitwise.  An EvaluationPlan must list each kernel call's
records and their slots in canonical order and name the first
degenerate record of the one record sequence.  Each kernel must list
exactly the derivative sub-blocks that are not zero, and their full
blocks must be the loop's; assemble may not change the kernels' results
it scatters.  The loop's blocks, placed in a dense matrix, are the
system's dense H byte for byte, and the system stores entries in
exactly the loop's blocks and those of the masked homing records' pose
pairs.
"""

import dataclasses

import loop_reference as ref
import numpy as np
import pytest
from conftest import at_state, evaluation, random_graph, state_of, stored_blocks
from dense_assembly import dense_matrix

from ovsam.assembly import (
    EvaluationPlan,
    assemble,
    measurement_tables,
    pack_state,
    unpack_state,
)
from ovsam.costs import (
    RotCostConfig,
    eval_compass,
    eval_distance,
    eval_home_vector,
    eval_rotation,
    eval_translation,
)
from ovsam.errors import DegenerateVectorError
from ovsam.graph import FactorGraph, HomingMeasurement, OdometryMeasurement, Pose
from ovsam.sim import SimConfig, simulate
from ovsam.solver import compute_active_mask

CFGS = [RotCostConfig(t1=1), RotCostConfig(t1=0, gamma=1.7), RotCostConfig(form="second")]


def _same(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _same_totals(a, b):
    """(F, L, sum |l_i|) a and b hold the same bytes, term by term."""
    return len(a) == len(b) == 3 and all(_same(x, y) for x, y in zip(a, b))


def _states(graph, rng, count=3, scale=0.05):
    """(table, lambdas) at the graph's poses and at perturbed states."""
    base = state_of(graph, rng.normal(size=len(graph) - 1))
    yield graph.pose_table(), at_state(graph, base)[1]
    for _ in range(count):
        yield at_state(graph, base + rng.normal(0.0, scale, base.shape))


def _check_values_and_system(graph, cfg, active, lambdas, use_distance, table):
    args = (graph, cfg, active, lambdas, use_distance, table)
    plan, state, anchor = evaluation(*args)
    tables = plan.tables
    want = ref.total_values(*args)
    assert _same_totals(plan.totals(state, anchor), want)

    system = plan.assemble(state, anchor)
    g, blocks, l_values = ref.assemble(*args)
    assert _same(system.g, g)
    assert _same_totals((system.F, system.L, system.l1), want)
    assert _same(system.l_values, l_values)
    dense = np.zeros((len(tables.free), 5, len(tables.free), 5))
    for (k, l), block in blocks.items():
        dense[k, :, l] = block
    assert _same(dense_matrix(system), dense.reshape(system.dim, system.dim))
    assert stored_blocks(system) == set(blocks) | _masked_pairs(tables, active)


def _masked_pairs(tables, active):
    """The (rank, rank) pairs, both orders, of the masked homing records' free poses."""
    if active is None:
        return set()
    off = len(tables.r) + np.flatnonzero(~active[len(tables.r) :])
    ranks = zip(tables.rank[tables.i1[off]], tables.rank[tables.i2[off]])
    return {pair for k, l in ranks if min(k, l) >= 0 for pair in ((k, l), (l, k))}


def _check_stack(graph, cfg, active, use_distance, states):
    """A stack of the states gives each state's totals byte for byte: those
    of a call on it alone, the loop's, and its system's F, L and l1."""
    plan, _, anchor = evaluation(graph, cfg, active, None, use_distance)
    stack = np.stack([pack_state(plan.tables, table, lam) for table, lam in states])
    got = plan.totals(stack, anchor)
    singles = [plan.totals(state, anchor) for state in stack]
    loops = [ref.total_values(graph, cfg, active, lam, use_distance, t) for t, lam in states]
    systems = [plan.assemble(state, anchor) for state in stack]
    for rows in (singles, loops, [(s.F, s.L, s.l1) for s in systems]):
        assert _same_totals(got, [np.array(column) for column in zip(*rows)])


def _random_mask(graph, rng):
    homing = rng.random(len(graph.homing)) < 0.6
    distance = rng.random(len(graph.odometry)) < 0.6
    return np.concatenate((distance, homing))


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
            homing = active[len(graph.odometry) :]
            assert not homing.all() and homing.any()
            _check_values_and_system(graph, cfg, active, lambdas, use_distance, table)
            _check_stack(graph, cfg, active, use_distance, states[1:])
        unit = table.copy()
        unit[:, 2:4] /= np.hypot(unit[:, 2], unit[:, 3])[:, None]
        want = ref.init_lambdas(graph, cfg, compute_active_mask(graph, 0.5, False, unit), unit)
        for use_distance in (False, True):  # the distance term has no orientation gradient
            active = compute_active_mask(graph, 0.5, use_distance, unit)
            system = assemble(graph.with_poses(unit), cfg, active, None, use_distance)
            assert _same(system.lambdas, want)


def test_init_lambdas_match_the_loop_with_nondefault_anchor():
    rng = np.random.default_rng(43)
    graph = random_graph(rng, n_poses=6, n_homing=6, unit_orientations=True).with_fixed(3)
    for cfg in CFGS:
        assert _same(assemble(graph, cfg).lambdas, ref.init_lambdas(graph, cfg))


def _block_graphs():
    """Simulated 3x6 seed 3, it anchored at pose 7, simulated 2x8 seed 5,
    and a random graph with and without its homing records."""
    rng = np.random.default_rng(44)
    sim, _ = simulate(SimConfig(lanes=3, points_per_lane=6, seed=3))
    other, _ = simulate(SimConfig(lanes=2, points_per_lane=8, seed=5))
    rand = random_graph(rng, n_poses=7, n_homing=8)
    return [sim, sim.with_fixed(7), other, rand, FactorGraph(rand.poses, rand.odometry, ())]


@pytest.mark.parametrize("cfg", CFGS, ids=["t1=1", "t1=0", "second"])
@pytest.mark.parametrize("use_distance", [False, True], ids=["plain", "distance"])
@pytest.mark.parametrize("threshold", [0.0, 0.5, 0.8])
def test_the_plan_scatters_the_loop_sums_of_each_record(cfg, use_distance, threshold):
    # each record's sub-blocks summed in slot order, then the records in
    # record order: g and every block of H are the loop's, byte for byte,
    # and a masked homing record's pose pair stores +0.0
    rng = np.random.default_rng(44)
    for graph in _block_graphs():
        table = graph.pose_table()
        active = compute_active_mask(graph, threshold, use_distance, table)
        lambdas = rng.normal(size=len(graph) - 1)
        _check_values_and_system(graph, cfg, active, lambdas, use_distance, table)


def _extended(tables, table, lambdas=None):
    """(flat state, anchor row) of a pose table."""
    lambdas = np.zeros(len(tables.free)) if lambdas is None else lambdas
    return pack_state(tables, table, lambdas), table[tables.anchor]


@pytest.mark.parametrize("cfg", CFGS, ids=["t1=1", "t1=0", "second"])
def test_kernels_list_exactly_the_sub_blocks_that_are_not_zero(cfg):
    # a sub-block a kernel lists is nonzero somewhere, one it does not list
    # is zero in the loop's full blocks, and the full blocks built from the
    # sub-blocks are the loop's, byte for byte (the sign of a zero aside)
    graph = random_graph(np.random.default_rng(48), n_poses=7, n_homing=8)
    tables = measurement_tables(graph, cfg, True)
    active = np.ones(len(tables.i1), dtype=bool)
    plan = EvaluationPlan(tables, active)
    table = graph.pose_table()
    evs = plan.evaluate(*_extended(tables, table))
    loop = [terms for _, _, terms in ref._record_terms(graph, table, cfg, active, True)]
    names = ("grad1", "grad2", "h11", "h12", "h22")
    for ev, (records, slots, *_) in zip(evs, plan.calls):
        assert all(np.any(block != 0.0) for block in [*ev.grads.values(), *ev.hess.values()])
        want = [loop[k][s] for k, s in zip(records, slots)]
        for name in names:
            full = getattr(ev, name)
            assert np.array_equal(full, [getattr(w, name) for w in want]), name
        parts = {"x": slice(0, 2), "u": slice(2, 4)}
        for a, p in [(a, p) for a in (0, 1) for p in parts]:
            if (a, p) not in ev.grads:
                assert not np.any(getattr(ev, names[a])[:, parts[p]])
        for a, b in ((0, 0), (0, 1), (1, 1)):
            block = getattr(ev, f"h{a + 1}{b + 1}")
            for p in parts:
                for q in parts:
                    if (a, p, b, q) not in ev.hess:
                        assert not np.any(block[:, parts[p], parts[q]])


@pytest.mark.parametrize("use_distance", [False, True], ids=["plain", "distance"])
def test_the_plan_lists_each_call_with_its_records_and_slots(use_distance):
    # one call per kernel function, records over the one record sequence
    # (odometry, then homing): translation 0 over every odometry record,
    # distance 1 over the active distance terms (with the flag only), home
    # vector 0 over the active homing records, and rotation over every
    # odometry record (slot 2) and then the active homing records
    # (compass, slot 1)
    rng = np.random.default_rng(46)
    graph = random_graph(rng, n_poses=7, n_homing=8).with_fixed(4)
    cfg = RotCostConfig()
    tables = measurement_tables(graph, cfg, use_distance)
    m = len(graph.odometry)
    for _ in range(3):
        active = _random_mask(graph, rng)
        assert 0 < active[m:].sum() < len(graph.homing)
        assert 0 < active[:m].sum() < m
        odometry, homing = np.arange(m), m + np.flatnonzero(active[m:])
        want = [(odometry, [0] * m), (homing, [0] * len(homing))]
        want.append((np.concatenate((odometry, homing)), [2] * m + [1] * len(homing)))
        if use_distance:
            distance = np.flatnonzero(active[:m])
            want.insert(1, (distance, [1] * len(distance)))
        plan = EvaluationPlan(tables, active)
        assert len(plan.calls) == len(want)
        for (records, slots, *_), (want_records, want_slots) in zip(plan.calls, want):
            assert np.array_equal(records, want_records) and np.array_equal(slots, want_slots)
        states = [_extended(tables, table, lam) for table, lam in _states(graph, rng, count=2)]
        stack = (np.stack([state for state, _ in states]), states[0][1])
        for (state, anchor), derivs in ((states[0], True), (states[0], False), (stack, False)):
            results = plan.evaluate(state, anchor, derivs)
            for result, (want_records, _) in zip(results, want):
                value = result.value if derivs else result
                assert value.shape == state.shape[:-1] + (len(want_records),)


@pytest.mark.parametrize("derivs", [True, False], ids=["derivs", "values"])
def test_the_plan_names_the_first_degenerate_record_of_the_sequence(derivs):
    # poses 1 and 2 coincide: the distance term of odometry record 1 and
    # the home vectors of homing records 3 (1->2) and 4 (2->1) fail; the
    # first record of the sequence is named, as the loop names it
    graph = _degenerate_graph([0.0, 0.0], [1.0, 0.0], [1.0, 0.0])
    cfg = RotCostConfig()
    active = np.ones(len(graph.odometry) + len(graph.homing), dtype=bool)
    named = {True: "odometry record 1 (1->2): ", False: "homing record 3 (1->2): "}
    for use_distance, where in named.items():
        tables = measurement_tables(graph, cfg, use_distance)
        plan = EvaluationPlan(tables, active)
        with pytest.raises(DegenerateVectorError) as got:
            plan.evaluate(*_extended(tables, graph.pose_table()), derivs)
        with pytest.raises(DegenerateVectorError) as want:
            ref.total_values(graph, cfg, use_distance_error=use_distance)
        assert str(got.value).startswith(where)
        assert str(got.value) == str(want.value)


def _result_bytes(results):
    out = []
    for ev in results:
        out.append(ev.value.tobytes())
        out += [(key, block.tobytes()) for key, block in ev.grads.items()]
        out += [(key, block.tobytes()) for key, block in ev.hess.items()]
    return out


@pytest.mark.parametrize("cfg", CFGS, ids=["t1=1", "t1=0", "second"])
def test_assemble_leaves_the_kernel_results_unchanged(cfg, monkeypatch):
    graph, _ = simulate(SimConfig(lanes=3, points_per_lane=6, seed=3))
    active = compute_active_mask(graph, 0.5, True)
    seen = []
    evaluate = EvaluationPlan.evaluate

    def kept(*args, **kwargs):
        results = evaluate(*args, **kwargs)
        seen.append((results, _result_bytes(results)))
        return results

    monkeypatch.setattr(EvaluationPlan, "evaluate", kept)
    assemble(graph, cfg, active, None, True)
    ((results, before),) = seen
    assert _result_bytes(results) == before


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
    plan, state, anchor = evaluation(graph, cfg, use_distance_error=use_distance)
    paths = (
        (lambda: plan.totals(state, anchor), ref.total_values),
        (lambda: assemble(graph, cfg, use_distance_error=use_distance), ref.assemble),
    )
    for path, reference in paths:
        try:
            reference(graph, cfg, use_distance_error=use_distance)
        except DegenerateVectorError as exc:
            with pytest.raises(DegenerateVectorError) as got:
                path()
            assert str(got.value) == str(exc)
        else:
            table, zeros = graph.pose_table(), np.zeros(len(graph) - 1)
            _check_values_and_system(graph, cfg, None, zeros, use_distance, table)
    # in a stack, the degenerate trial's record is named as a call on it alone names it
    good = _degenerate_graph([1.0, 0.0], [1.0, 0.0], [1.0, 0.0]).pose_table()
    trials = (good, graph.pose_table(), good)
    stack = np.stack([pack_state(plan.tables, table, np.zeros(2)) for table in trials])
    anchors = np.stack([table[plan.tables.anchor] for table in trials])
    try:
        plan.totals(state, anchor)
    except DegenerateVectorError as exc:
        with pytest.raises(DegenerateVectorError) as got:
            plan.totals(stack, anchors)
        assert str(got.value) == str(exc)


def _kernels(tables, cfg):
    """(name, pose rows of the pairs, values of poses (p, pp)) of each kernel's value path."""
    t = tables
    m = len(t.r)
    odo, hom = (t.i1[:m], t.i2[:m]), (t.i1[m:], t.i2[m:])
    return [
        ("translation", odo, lambda p, pp: eval_translation(p, pp, t.Tinv, t.r, False)),
        ("distance", odo, lambda p, pp: eval_distance(p, pp, t.sigma_e, t.rho, False)),
        ("rotation", odo, lambda p, pp: eval_rotation(p, pp, t.Q, t.w_rot, cfg, False)),
        ("home", hom, lambda p, pp: eval_home_vector(p, pp, t.A, t.w_home, cfg, False)),
        ("compass", hom, lambda p, pp: eval_compass(p, pp, t.Psi, t.w_compass, cfg, False)),
    ]


def _trial_calls(kernel, p, pp):
    """The kernel over each trial of (S, K, 4) poses: its values, or the error it raises."""
    out = []
    for s in range(len(p)):
        try:
            out.append(kernel(p[s], pp[s]))
        except DegenerateVectorError as exc:
            out.append(exc)
    return out


@pytest.mark.parametrize("cfg", CFGS, ids=["t1=1", "t1=0", "second"])
def test_kernels_broadcast_a_stack_of_trials_bitwise(cfg):
    # (S, K, 4) poses against (K, ...) data: the values of S separate calls
    rng = np.random.default_rng(45)
    graph = random_graph(rng, n_poses=7, n_homing=8)
    tables = measurement_tables(graph, cfg, True)
    stack = np.stack([table for table, _ in _states(graph, rng)])
    for _, (i1, i2), kernel in _kernels(tables, cfg):
        p, pp = stack[:, i1], stack[:, i2]
        want = _trial_calls(kernel, p, pp)
        assert all(isinstance(w, np.ndarray) for w in want)
        assert _same(kernel(p, pp), want)


@pytest.mark.parametrize("cfg", CFGS, ids=["t1=1", "t1=0", "second"])
def test_kernels_index_a_degenerate_record_of_a_stack_by_its_flat_position(cfg):
    # record k of trial 2 has coincident positions and zero orientations;
    # the stacked call raises at position 2 K + k with the message of the
    # call on trial 2 alone, and a kernel that checks neither evaluates
    rng = np.random.default_rng(46)
    graph = random_graph(rng, n_poses=7, n_homing=8)
    tables = measurement_tables(graph, cfg, True)
    stack = np.stack([table for table, _ in _states(graph, rng)])
    raised = set()
    for name, (i1, i2), kernel in _kernels(tables, cfg):
        p, pp = stack[:, i1], stack[:, i2]
        k = len(i1) - 2
        pp[2, k, :2] = p[2, k, :2]
        p[2, k, 2:], pp[2, k, 2:] = 0.0, 0.0
        want = _trial_calls(kernel, p, pp)
        if not isinstance(want[2], DegenerateVectorError):
            assert _same(kernel(p, pp), want)
            continue
        raised.add(name)
        assert want[2].index == k
        with pytest.raises(DegenerateVectorError) as got:
            kernel(p, pp)
        assert got.value.index == 2 * len(i1) + k
        assert str(got.value) == str(want[2])
    norms = {"rotation", "compass"} if cfg.uses_norms else set()
    assert raised == {"distance", "home"} | norms


@pytest.mark.parametrize("cfg", CFGS, ids=["t1=1", "t1=0", "second"])
def test_a_permuted_state_order_permutes_the_state_and_the_system(cfg):
    # the order item RCM would give: tables.free non-ascending, rank its inverse
    rng = np.random.default_rng(47)
    graph = random_graph(rng, n_poses=7, n_homing=8).with_fixed(3)
    flagged = {flag: measurement_tables(graph, cfg, flag) for flag in (False, True)}
    tables = flagged[True]
    perm = tables.free[[4, 1, 5, 0, 3, 2]]
    rank = np.full(len(graph), -1)
    rank[perm] = np.arange(len(perm))
    permutes = {flag: dataclasses.replace(t, free=perm, rank=rank) for flag, t in flagged.items()}
    permuted = permutes[True]
    order = tables.rank[perm]  # each permuted slot's slot in the ascending order
    cols = (5 * order[:, None] + np.arange(5)).ravel()
    states = list(_states(graph, rng))
    for table, lambdas in states:
        vec = pack_state(permuted, table, lambdas[order])
        assert _same(vec, pack_state(tables, table, lambdas)[cols])
        back, lams = unpack_state(permuted, np.zeros_like(table), vec)
        assert _same(back[perm], table[perm]) and _same(back[2], np.zeros(4))
        assert _same(lams, lambdas[order])
        for use_distance in (False, True):
            t_a, t_b = flagged[use_distance], permutes[use_distance]
            a = evaluation(graph, cfg, None, lambdas, use_distance, table, t_a)
            b = evaluation(graph, cfg, None, lambdas[order], use_distance, table, t_b)
            assert _same_totals(a[0].totals(*a[1:]), b[0].totals(*b[1:]))
            want, got = a[0].assemble(*a[1:]), b[0].assemble(*b[1:])
            assert _same(got.g, want.g[cols])
            assert _same(dense_matrix(got), dense_matrix(want)[np.ix_(cols, cols)])
            assert _same((got.F, got.L, got.l1), (want.F, want.L, want.l1))
    anchor = states[0][0][tables.anchor]
    for use_distance in (False, True):
        a, _, _ = evaluation(graph, cfg, None, None, use_distance, tables=flagged[use_distance])
        b, _, _ = evaluation(graph, cfg, None, None, use_distance, tables=permutes[use_distance])
        want = np.stack([pack_state(tables, table, lam) for table, lam in states])
        got = np.stack([pack_state(permuted, table, lam[order]) for table, lam in states])
        assert _same_totals(a.totals(want, anchor), b.totals(got, anchor))
