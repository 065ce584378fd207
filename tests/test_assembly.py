"""Gradient/Hessian assembly: oracle checks and structural invariants."""

import loop_reference as ref
import numpy as np
import pytest
from conftest import (
    at_state,
    consistent_graph,
    evaluation,
    random_graph,
    state_of,
    stored_blocks,
    stored_entries,
)
from dense_assembly import assemble_dense, dense_matrix, record_rows, regularized_values

import ovsam.solver as solver_module
from ovsam.assembly import EvaluationPlan, assemble, measurement_tables, pack_state
from ovsam.costs import RotCostConfig
from ovsam.errors import DegenerateVectorError, PreconditionError
from ovsam.findiff import fd_gradient, fd_jacobian
from ovsam.graph import FactorGraph, HomingMeasurement, OdometryMeasurement, Pose
from ovsam.orvec import from_angle
from ovsam.sim import SimConfig, simulate
from ovsam.solver import LADDER, _column_order


def _perturbed(rng, n_poses=5, n_homing=4):
    """Random graph with non-unit orientations and random multipliers."""
    graph = random_graph(rng, n_poses=n_poses, n_homing=n_homing)
    lambdas = rng.normal(size=n_poses - 1)
    return graph, lambdas


def test_gradient_vanishes_at_consistent_graph():
    # every measurement satisfied, lambda = 0, norm-offset form
    rng = np.random.default_rng(0)
    graph = consistent_graph(rng, n_poses=5)
    for cfg in (RotCostConfig(t1=0), RotCostConfig(form="second")):
        system = assemble(graph, cfg)
        assert np.max(np.abs(system.g)) < 1e-12
        assert system.max_constraint() < 1e-15
        # rotational residuals enter linearly, so F sits at weighted rounding
        assert system.F < 1e-12


def test_constraint_only_system():
    graph = FactorGraph([Pose([0.0, 0.0], [1.0, 0.0]), Pose([1.0, 0.0], [1.0, 0.0])])
    system = assemble(graph, RotCostConfig(), lambdas=np.array([3.0]))
    assert np.array_equal(system.g, [0.0, 0.0, 3.0, 0.0, 0.0])
    H = dense_matrix(system)
    expect = np.zeros((5, 5))
    expect[2:4, 2:4] = 3.0 * np.eye(2)
    expect[2:4, 4] = [1.0, 0.0]
    expect[4, 2:4] = [1.0, 0.0]
    assert np.array_equal(H, expect)
    assert system.F == 0.0
    assert system.L == 0.0


@pytest.mark.parametrize("use_distance", [False, True])
@pytest.mark.parametrize("cfg", [RotCostConfig(t1=1), RotCostConfig(form="second")])
def test_gradient_matches_fd_of_lagrangian(cfg, use_distance):
    rng = np.random.default_rng(1)
    graph, lambdas = _perturbed(rng, n_poses=4, n_homing=3)
    state0 = state_of(graph, lambdas)

    def L_of(vec):
        table, lams = at_state(graph, vec)
        return assemble(graph.with_poses(table), cfg, None, lams, use_distance).L

    system = assemble(graph, cfg, lambdas=lambdas, use_distance_error=use_distance)
    fd = fd_gradient(L_of, state0)
    scale = max(1.0, np.max(np.abs(fd)))
    assert np.max(np.abs(system.g - fd)) / scale < 1e-5


def test_gradient_matches_fd_with_nondefault_fixed_pose():
    rng = np.random.default_rng(2)
    graph, lambdas = _perturbed(rng, n_poses=4, n_homing=3)
    graph = graph.with_fixed(3)
    lambdas = lambdas[: len(graph) - 1]
    state0 = state_of(graph, lambdas)

    def L_of(vec):
        table, lams = at_state(graph, vec)
        return assemble(graph.with_poses(table), RotCostConfig(), None, lams).L

    system = assemble(graph, RotCostConfig(), lambdas=lambdas)
    assert system.dim == 15
    fd = fd_gradient(L_of, state0)
    scale = max(1.0, np.max(np.abs(fd)))
    assert np.max(np.abs(system.g - fd)) / scale < 1e-5


@pytest.mark.parametrize("cfg", [RotCostConfig(t1=0), RotCostConfig(form="second")])
def test_hessian_matches_fd_of_gradient(cfg):
    rng = np.random.default_rng(3)
    graph, lambdas = _perturbed(rng, n_poses=4, n_homing=3)
    state0 = state_of(graph, lambdas)

    def g_of(vec):
        table, lams = at_state(graph, vec)
        return assemble(graph.with_poses(table), cfg, lambdas=lams).g

    H = dense_matrix(assemble(graph, cfg, lambdas=lambdas))
    fd = fd_jacobian(g_of, state0)
    scale = max(1.0, np.max(np.abs(fd)))
    assert np.max(np.abs(H - fd)) / scale < 1e-4


def test_sparse_and_dense_assembly_agree_bitwise():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        graph, lambdas = _perturbed(rng, n_poses=5, n_homing=4)
        cfg = RotCostConfig(t1=seed % 2)
        system = assemble(graph, cfg, lambdas=lambdas)
        H, g = assemble_dense(graph, cfg, lambdas=lambdas)
        assert np.array_equal(dense_matrix(system), H)
        assert np.array_equal(system.g, g)
        F, L, l1 = ref.total_values(graph, cfg, lambdas=lambdas)
        assert (system.F, system.L, system.l1) == (F, L, l1)


def test_table_evaluation_equals_graph_evaluation():
    # a table built from a random state evaluates bitwise, through the
    # evaluation plan, like a graph carrying those poses, anchor row
    # included
    rng = np.random.default_rng(14)
    graph, _ = _perturbed(rng, n_poses=6, n_homing=5)
    graph = graph.with_fixed(4)
    vec = state_of(graph, rng.normal(size=5)) + rng.normal(0.0, 0.05, 25)
    table, lams = at_state(graph, vec)
    moved = graph.with_poses(table)
    assert moved.fixed_id == 4
    assert np.array_equal(moved.pose(4).x, graph.pose(4).x)
    for cfg in (RotCostConfig(t1=0), RotCostConfig(t1=1), RotCostConfig(form="second")):
        for use_distance in (False, True):
            plan, state, anchor = evaluation(graph, cfg, None, lams, use_distance, table)
            a = plan.assemble(state, anchor)
            b = assemble(moved, cfg, None, lams, use_distance)
            assert np.array_equal(dense_matrix(a), dense_matrix(b))
            assert np.array_equal(a.g, b.g)
            assert (a.F, a.L, a.l1) == (b.F, b.L, b.l1)
            assert plan.totals(state, anchor) == (b.F, b.L, b.l1)


def _sim_system(sim, start, fixed=1):
    """The system at the start's multiplier estimate of the simulated graph
    anchored at pose fixed: "odometry" as simulated, "truth" at the true
    poses, "masked" with homing record 1 masked out, its pose pair's block
    kept as +0.0."""
    graph, truth = simulate(sim)
    graph = graph.with_fixed(fixed)
    active = np.ones(len(graph.odometry) + len(graph.homing), dtype=bool)
    if start == "truth":
        poses = [Pose(t[:2], from_angle(t[2])) for t in truth.poses]
        graph = FactorGraph(poses, graph.odometry, graph.homing, graph.fixed_id)
    elif start == "masked":
        active[len(graph.odometry)] = False
    system = assemble(graph, RotCostConfig(), active)
    rows, cols = stored_entries(system)
    if start == "truth":
        # from_angle(0) gives u = (1, 0) exactly: the pose entries hold exact zeros
        assert np.any(system.values[(rows % 5 < 4) & (cols % 5 < 4)] == 0.0)
    if start == "masked":
        # the dropped record's pose pair shares no other record, and the
        # structure is the graph's: its pose entries stay stored, all +0.0
        bare = assemble(graph, RotCostConfig()).plan
        assert np.array_equal(system.plan.indices, bare.indices)
        assert np.array_equal(system.plan.indptr, bare.indptr)
        rank = measurement_tables(graph, RotCostConfig()).rank
        k, l = rank[graph.homing[0].i1 - 1], rank[graph.homing[0].i2 - 1]
        for key in ((k, l), (l, k)):
            block = system.values[(rows // 5 == key[0]) & (cols // 5 == key[1])]
            assert block.tobytes() == np.zeros(16).tobytes()
    return system


def _natural_csc(system, eta_w=0.0, eta_a=0.0):
    """H + R in CSC form, holding only its nonzero entries: the natural-order
    gather that solver.spsolve factors on a miss."""
    from scipy import sparse as sp

    values = regularized_values(system, eta_w, eta_a)
    order = _column_order(system.plan, values != 0.0, np.arange(system.dim))
    return sp.csc_matrix(
        (values[order.data], order.indices, order.indptr), shape=(system.dim, system.dim)
    )


def test_csc_matches_dense_on_every_rung():
    from scipy import sparse as sp

    rng = np.random.default_rng(6)
    graph, lambdas = _perturbed(rng)
    systems = [assemble(graph, RotCostConfig(), lambdas=lambdas)]
    systems += [_sim_system(SimConfig(), start) for start in ("truth", "masked")]
    for system in systems:
        for rung in LADDER:
            C = _natural_csc(system, *rung)
            assert np.array_equal(C.toarray(), dense_matrix(system, *rung))
            assert np.all(C.data != 0.0)
            # byte for byte the CSC that scipy builds from the dense H + R
            D = sp.csc_matrix(dense_matrix(system, *rung))
            for name in ("data", "indices", "indptr"):
                assert getattr(C, name).tobytes() == getattr(D, name).tobytes(), (rung, name)


@pytest.mark.parametrize("use_distance", [False, True])
def test_assemble_with_a_prebuilt_plan_equals_assemble_without(use_distance):
    # every plan's assembly on one set of tables scatters with tables.plan,
    # under any mask, and equals a graph-first assembly, which builds its own
    graph, _ = simulate(SimConfig(lanes=3, points_per_lane=6, seed=3))
    graph = graph.with_fixed(7)
    cfg = RotCostConfig()
    tables = measurement_tables(graph, cfg, use_distance)
    rng = np.random.default_rng(15)
    start = graph.pose_table()
    moved = start + rng.normal(0.0, 0.05, start.shape)
    lambdas = rng.normal(size=len(graph) - 1)
    m = len(graph.odometry)
    everything = np.ones(m + len(graph.homing), dtype=bool)
    masked = everything.copy()
    masked[m:][::3] = False
    masked[:m][1::2] = False

    def same(got, want):
        pairs = [(got.values, want.values), (got.g, want.g)]
        pairs += [(got.plan.indices, want.plan.indices), (got.plan.indptr, want.plan.indptr)]
        for name, (a, b) in zip(("values", "g", "indices", "indptr"), pairs):
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
        assert np.array([got.F, got.L, got.l1]).tobytes() == (
            np.array([want.F, want.L, want.l1]).tobytes()
        )

    for active in (everything, masked):
        for table in (start, moved):
            for lams in (None, lambdas):
                args = (graph, cfg, active, lams, use_distance, table, tables)
                plan, state, anchor = evaluation(*args)
                got = plan.assemble(state, anchor, estimate=lams is None)
                assert got.plan is tables.plan
                want = assemble(graph.with_poses(table), cfg, active, lams, use_distance)
                assert want.plan is not tables.plan
                same(got, want)


def test_regularization_adds_positive_pose_and_negative_multiplier_entries(monkeypatch):
    # the matrix newton_step hands the dense factorization is H + R
    rng = np.random.default_rng(12)
    graph, lambdas = _perturbed(rng)
    system = assemble(graph, RotCostConfig(), lambdas=lambdas)
    n = system.dim // 5
    H = dense_matrix(system)
    handed = []
    dense_solve = solver_module.dense_solve

    def spy(A, b):
        handed.append(A)
        return dense_solve(A, b)

    monkeypatch.setattr(solver_module, "dense_solve", spy)
    for w, a in ((1.0, 0.0), (0.0, 2.0), (1e-6, 1e6)):
        solver_module.newton_step(system, w, a)
        assert np.array_equal(handed[-1], H + np.diag(np.tile([w, w, w, w, -a], n)))
    # every rung forms a fresh matrix: no rung changes the next one's
    solver_module.newton_step(system)
    assert np.array_equal(handed[-1], H) and handed[-1] is not handed[0]
    assert np.array_equal(dense_matrix(system), H)


def _stored_csr(system):
    """Every stored entry of H, zeros included, as CSR."""
    from scipy import sparse as sp

    rows, cols = stored_entries(system)
    coo = sp.coo_matrix((system.values, (rows, cols)), shape=(system.dim, system.dim))
    return coo.tocsr()


@pytest.mark.parametrize(
    "lanes, points_per_lane, seed, start",
    [(3, 10, 0, "odometry"), (6, 20, 1, "odometry"), (3, 10, 0, "truth"), (6, 20, 1, "masked")],
    ids=["3-10-0", "6-20-1", "truth", "masked"],
)
def test_csc_equals_the_block_matrix_plus_diagonal_array_for_array(
    lanes, points_per_lane, seed, start
):
    # the regularized rungs equal CSR(stored entries) + diags(R) converted
    # to CSC; rung 0 is that matrix with its stored zeros dropped
    from scipy.sparse import diags

    sim = SimConfig(lanes=lanes, points_per_lane=points_per_lane, seed=seed)
    system = _sim_system(sim, start)
    H = _stored_csr(system)
    assert np.array_equal(H.toarray(), dense_matrix(system))
    for w, a in LADDER:
        if (w, a) == (0.0, 0.0):
            expect = H.tocsc()
            expect.eliminate_zeros()
        else:
            expect = (H + diags(np.tile([w, w, w, w, -a], system.dim // 5))).tocsc()
        C = _natural_csc(system, w, a)
        for name in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(C, name), getattr(expect, name)), (w, a, name)
        assert np.all(C.data != 0.0)


@pytest.mark.parametrize(
    "lanes, points_per_lane, seed, start, fixed, stored",
    [
        (3, 10, 0, "odometry", 1, 3317),
        (6, 20, 1, "odometry", 1, 16031),
        (3, 10, 0, "truth", 1, 3317),
        (6, 20, 1, "masked", 1, 16031),
        (10, 30, 0, "truth", 1, 42355),
        (3, 10, 0, "odometry", 15, 3157),
    ],
    ids=["3-10-0", "6-20-1", "truth", "masked", "10-30-truth", "anchor-15"],
)
def test_stored_entries_are_the_pose_part_of_each_pair_and_all_of_each_diagonal_block(
    lanes, points_per_lane, seed, start, fixed, stored
):
    # no term writes an off-diagonal block's multiplier row or column, so H
    # stores 16 entries per off-diagonal block a record touches, masked or
    # not, and 25 per diagonal block, each once
    sim = SimConfig(lanes=lanes, points_per_lane=points_per_lane, seed=seed)
    system = _sim_system(sim, start, fixed)
    tables = measurement_tables(simulate(sim)[0].with_fixed(fixed), RotCostConfig())
    ranks = tables.rank[record_rows(tables)]
    off = {(k, l) for k, l in ranks[(ranks >= 0).all(axis=1)].tolist()}
    off |= {(l, k) for k, l in off}
    n = system.dim // 5
    rows, cols = stored_entries(system)
    assert len(system.values) == len(rows) == 16 * len(off) + 25 * n == stored
    assert len(set(zip(rows.tolist(), cols.tolist()))) == len(rows)
    assert stored_blocks(system) == off | {(k, k) for k in range(n)}
    assert not np.any((rows // 5 != cols // 5) & ((rows % 5 == 4) | (cols % 5 == 4)))

    # every plan array, read back to (row, col): entry (i, j) of record k's
    # block (a, b) is H's entry (5 rank_a + i, 5 rank_b + j), or the
    # discarded slot if either pose is the anchor; entry i of its pose a's
    # gradient is entry 5 rank_a + i, row n taking the anchor's
    plan, i = system.plan, np.arange(5)
    slots = np.where(ranks < 0, n, ranks)
    assert np.array_equal(plan.grad_bins, (5 * slots[..., None] + i[:4]).ravel())
    bins = plan.hess_bins.reshape(-1, 2, 2, 4, 4)
    row = np.broadcast_to(5 * slots[:, :, None, None, None] + i[:4, None], bins.shape)
    col = np.broadcast_to(5 * slots[:, None, :, None, None] + i[:4], bins.shape)
    anchored = (row >= system.dim) | (col >= system.dim)
    assert anchored.any() and np.all((bins == len(rows)) == anchored)
    assert np.array_equal(rows[bins[~anchored]], row[~anchored])
    assert np.array_equal(cols[bins[~anchored]], col[~anchored])
    diag = 5 * np.arange(n)[:, None, None]
    assert np.all(rows[plan.diag_blocks] == diag + i[:, None])
    assert np.all(cols[plan.diag_blocks] == diag + i)
    assert np.array_equal(rows[plan.diagonal], np.arange(system.dim))
    assert np.array_equal(cols[plan.diagonal], np.arange(system.dim))
    assert np.array_equal(plan.flat, rows * system.dim + cols)


def test_hessian_symmetric_with_zero_lambda_diagonal():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        graph, lambdas = _perturbed(rng, n_poses=6, n_homing=5)
        system = assemble(graph, RotCostConfig(), lambdas=lambdas)
        H = dense_matrix(system)
        assert np.max(np.abs(H - H.T)) < 1e-10
        for k in range(system.dim // 5):
            assert H[5 * k + 4, 5 * k + 4] == 0.0


def test_block_sparsity_only_measurement_pairs():
    # chain 1-2-3-4-5 without homing: poses 2 and 4 never share a block
    rng = np.random.default_rng(7)
    graph = random_graph(rng, n_poses=5, n_homing=0)
    system = assemble(graph, RotCostConfig())
    free = [pid for pid in graph.pose_ids() if pid != graph.fixed_id]
    ranks = {pid: k for k, pid in enumerate(free)}
    keys = stored_blocks(system)
    assert (ranks[2], ranks[4]) not in keys
    assert (ranks[2], ranks[3]) in keys
    for k, l in keys:
        assert abs(k - l) <= 1


def _merit(graph, cfg, mu=10.0):
    """L + mu * sum |l_i| at the graph's poses and zero multipliers, from
    EvaluationPlan.totals."""
    plan, state, anchor = evaluation(graph, cfg)
    _, L, l1 = plan.totals(state, anchor)
    return L + mu * l1


def test_merit_values():
    rng = np.random.default_rng(8)
    graph = consistent_graph(rng, n_poses=4)
    cfg = RotCostConfig(t1=0)
    L = assemble(graph, cfg, lambdas=np.zeros(len(graph) - 1)).L
    assert _merit(graph, cfg) == pytest.approx(L, abs=1e-18)

    bare = FactorGraph([Pose([0.0, 0.0], [1.0, 0.0]), Pose([1.0, 0.0], [2.0, 0.0])])
    assert _merit(bare, cfg) == pytest.approx(15.0, abs=1e-15)


def test_total_values_match_assemble():
    rng = np.random.default_rng(9)
    graph, lambdas = _perturbed(rng)
    cfg = RotCostConfig(form="second")
    system = assemble(graph, cfg, lambdas=lambdas)
    F, L, l1 = ref.total_values(graph, cfg, lambdas=lambdas)
    assert (system.F, system.L, system.l1) == (F, L, l1)
    assert l1 == pytest.approx(np.sum(np.abs(system.l_values)), rel=1e-14)
    plan, state, anchor = evaluation(graph, cfg, None, lambdas)
    assert plan.totals(state, anchor) == (system.F, system.L, system.l1)


@pytest.mark.parametrize("shape", [(32,), (28,), (29, 1), (), (1, 29), (3, 29)], ids=str)
def test_multipliers_of_the_wrong_shape_are_rejected(shape):
    # one multiplier per free pose: assemble and pack_state both check
    # the shape, instead of reading a prefix or failing inside numpy
    graph, _ = simulate(SimConfig())
    cfg = RotCostConfig()
    tables = measurement_tables(graph, cfg)
    table = graph.pose_table()
    assert len(tables.free) == 29
    lambdas = np.ones(shape)
    calls = [
        lambda: assemble(graph, cfg, lambdas=lambdas),
        lambda: pack_state(tables, table, lambdas),
    ]
    for call in calls:
        with pytest.raises(PreconditionError, match=r"expected multipliers of shape"):
            call()


@pytest.mark.parametrize("flags", ["homing", "K+1"])
def test_masks_of_the_wrong_shape_are_rejected(flags):
    # one flag per record of the sequence: a per-group array (the homing
    # records' flags alone) or one flag too many would otherwise be
    # sliced at the group boundary and gate the wrong records
    graph, _ = simulate(SimConfig())
    cfg = RotCostConfig()
    k = len(graph.odometry) + len(graph.homing)
    active = np.ones({"homing": len(graph.homing), "K+1": k + 1}[flags], dtype=bool)
    for use_distance in (False, True):
        calls = [
            lambda: assemble(graph, cfg, active, None, use_distance),
            lambda: EvaluationPlan(measurement_tables(graph, cfg, use_distance), active),
        ]
        for call in calls:
            with pytest.raises(PreconditionError, match=rf"^expected a mask of shape \({k},\), got"):
                call()


def test_masked_homing_equals_graph_without_homing():
    rng = np.random.default_rng(10)
    graph, lambdas = _perturbed(rng, n_poses=5, n_homing=4)
    mask = np.concatenate(
        (np.ones(len(graph.odometry), dtype=bool), np.zeros(len(graph.homing), dtype=bool))
    )
    bare = FactorGraph(
        [graph.pose(i).copy() for i in graph.pose_ids()],
        odometry=graph.odometry,
        fixed_id=graph.fixed_id,
    )
    cfg = RotCostConfig()
    sys_masked = assemble(graph, cfg, active=mask, lambdas=lambdas)
    sys_bare = assemble(bare, cfg, lambdas=lambdas)
    assert np.array_equal(dense_matrix(sys_masked), dense_matrix(sys_bare))
    assert np.array_equal(sys_masked.g, sys_bare.g)
    assert sys_masked.L == sys_bare.L


def test_distance_mask_equals_flag_off():
    rng = np.random.default_rng(11)
    graph, lambdas = _perturbed(rng)
    mask = np.concatenate(
        (np.zeros(len(graph.odometry), dtype=bool), np.ones(len(graph.homing), dtype=bool))
    )
    cfg = RotCostConfig()
    a = assemble(graph, cfg, active=mask, lambdas=lambdas, use_distance_error=True)
    b = assemble(graph, cfg, lambdas=lambdas, use_distance_error=False)
    assert np.array_equal(dense_matrix(a), dense_matrix(b))
    assert np.array_equal(a.g, b.g)


def test_fixed_pose_rows_dropped_but_contributions_kept():
    rng = np.random.default_rng(13)
    graph = consistent_graph(rng, n_poses=3, with_homing=False)
    system = assemble(graph, RotCostConfig(t1=1))
    assert system.dim == 10
    # pose 2 feels both edges (1->2 and 2->3): its diagonal block is the
    # sum of an h22 and an h11, strictly larger than pose 3's lone h22
    r2, r3 = 0, 1  # the free poses 2 and 3 in state order
    H = dense_matrix(system)
    b2 = H[5 * r2 : 5 * r2 + 2, 5 * r2 : 5 * r2 + 2]
    b3 = H[5 * r3 : 5 * r3 + 2, 5 * r3 : 5 * r3 + 2]
    assert np.trace(b2) > np.trace(b3)


def test_degenerate_evaluation_names_the_record():
    graph = FactorGraph(
        [Pose([0.0, 0.0], [1.0, 0.0]), Pose([0.0, 0.0], [1.0, 0.0])],
        odometry=[
            # coincident positions break the traveled-distance term
            OdometryMeasurement(
                i1=1,
                i2=2,
                r=np.array([1.0, 0.0]),
                q=np.array([1.0, 0.0]),
                T=np.eye(2),
                sigma=1.0,
                sigma_e=1.0,
            )
        ],
    )
    with pytest.raises(DegenerateVectorError, match=r"odometry record 1 \(1->2\)"):
        assemble(graph, RotCostConfig(), use_distance_error=True)


def test_value_path_names_the_degenerate_homing_record():
    graph = FactorGraph(
        [Pose([0.0, 0.0], [1.0, 0.0]), Pose([0.0, 0.0], [1.0, 0.0])],
        # coincident positions leave the home direction undefined
        homing=[
            HomingMeasurement(
                i1=2,
                i2=1,
                alpha=np.array([1.0, 0.0]),
                psi=np.array([1.0, 0.0]),
                sigma_h=0.1,
                sigma_c=0.1,
            )
        ],
    )
    plan, state, anchor = evaluation(graph, RotCostConfig())
    with pytest.raises(DegenerateVectorError, match=r"homing record 1 \(2->1\)"):
        plan.totals(state, anchor)
