"""Gradient/Hessian assembly: oracle checks and structural invariants."""

import numpy as np
import pytest
from conftest import consistent_graph, random_graph

from ovsam.assembly import (
    ActiveMask,
    assemble,
    assemble_dense,
    merit,
    total_values,
)
from ovsam.costs import Pose, RotCostConfig
from ovsam.errors import DegenerateVectorError
from ovsam.findiff import fd_gradient, fd_jacobian
from ovsam.graph import (
    FactorGraph,
    HomingMeasurement,
    OdometryMeasurement,
    apply_state,
    pack_state,
)


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
    H = system.to_dense()
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
    state0 = pack_state(graph, lambdas)

    def L_of(vec):
        scratch = graph.copy()
        lams = apply_state(vec, scratch)
        _, L, _ = total_values(scratch, cfg, None, lams, use_distance)
        return L

    system = assemble(graph, cfg, lambdas=lambdas, use_distance_error=use_distance)
    fd = fd_gradient(L_of, state0)
    scale = max(1.0, np.max(np.abs(fd)))
    assert np.max(np.abs(system.g - fd)) / scale < 1e-5


def test_gradient_matches_fd_with_nondefault_fixed_pose():
    rng = np.random.default_rng(2)
    graph, lambdas = _perturbed(rng, n_poses=4, n_homing=3)
    graph = graph.with_fixed(3)
    lambdas = lambdas[: len(graph.free_ids())]
    state0 = pack_state(graph, lambdas)

    def L_of(vec):
        scratch = graph.copy()
        lams = apply_state(vec, scratch)
        return total_values(scratch, RotCostConfig(), None, lams)[1]

    system = assemble(graph, RotCostConfig(), lambdas=lambdas)
    assert system.dim == 15
    fd = fd_gradient(L_of, state0)
    scale = max(1.0, np.max(np.abs(fd)))
    assert np.max(np.abs(system.g - fd)) / scale < 1e-5


@pytest.mark.parametrize("cfg", [RotCostConfig(t1=0), RotCostConfig(form="second")])
def test_hessian_matches_fd_of_gradient(cfg):
    rng = np.random.default_rng(3)
    graph, lambdas = _perturbed(rng, n_poses=4, n_homing=3)
    state0 = pack_state(graph, lambdas)

    def g_of(vec):
        scratch = graph.copy()
        lams = apply_state(vec, scratch)
        return assemble(scratch, cfg, lambdas=lams).g

    H = assemble(graph, cfg, lambdas=lambdas).to_dense()
    fd = fd_jacobian(g_of, state0)
    scale = max(1.0, np.max(np.abs(fd)))
    assert np.max(np.abs(H - fd)) / scale < 1e-4


def test_sparse_and_dense_assembly_agree_bitwise():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        graph, lambdas = _perturbed(rng, n_poses=5, n_homing=4)
        cfg = RotCostConfig(t1=seed % 2)
        system = assemble(graph, cfg, lambdas=lambdas)
        H, g, L, F = assemble_dense(graph, cfg, lambdas=lambdas)
        assert np.array_equal(system.to_dense(), H)
        assert np.array_equal(system.g, g)
        assert system.L == L
        assert system.F == F


def test_csr_matches_dense():
    rng = np.random.default_rng(6)
    graph, lambdas = _perturbed(rng)
    system = assemble(graph, RotCostConfig(), lambdas=lambdas)
    assert np.array_equal(system.to_csr().toarray(), system.to_dense())


def test_hessian_symmetric_with_zero_lambda_diagonal():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        graph, lambdas = _perturbed(rng, n_poses=6, n_homing=5)
        system = assemble(graph, RotCostConfig(), lambdas=lambdas)
        H = system.to_dense()
        assert np.max(np.abs(H - H.T)) < 1e-10
        for k in range(len(system.layout.free)):
            assert H[5 * k + 4, 5 * k + 4] == 0.0


def test_block_sparsity_only_measurement_pairs():
    # chain 1-2-3-4-5 without homing: poses 2 and 4 never share a block
    rng = np.random.default_rng(7)
    graph = random_graph(rng, n_poses=5, n_homing=0)
    system = assemble(graph, RotCostConfig())
    ranks = {pid: system.layout.rank(pid) for pid in graph.free_ids()}
    keys = set(system.blocks)
    assert (ranks[2], ranks[4]) not in keys
    assert (ranks[2], ranks[3]) in keys
    for k, l in keys:
        assert abs(k - l) <= 1


def test_merit_values():
    rng = np.random.default_rng(8)
    graph = consistent_graph(rng, n_poses=4)
    cfg = RotCostConfig(t1=0)
    _, L, _ = total_values(graph, cfg)
    assert merit(graph, cfg, None, 10.0) == pytest.approx(L, abs=1e-18)

    bare = FactorGraph([Pose([0.0, 0.0], [1.0, 0.0]), Pose([1.0, 0.0], [2.0, 0.0])])
    assert merit(bare, cfg, None, 10.0) == pytest.approx(15.0, abs=1e-15)


def test_total_values_match_assemble():
    rng = np.random.default_rng(9)
    graph, lambdas = _perturbed(rng)
    cfg = RotCostConfig(form="second")
    system = assemble(graph, cfg, lambdas=lambdas)
    F, L, l1 = total_values(graph, cfg, lambdas=lambdas)
    assert F == pytest.approx(system.F, rel=1e-14)
    assert L == pytest.approx(system.L, rel=1e-14)
    assert l1 == pytest.approx(np.sum(np.abs(system.l_values)), rel=1e-14)


def test_masked_homing_equals_graph_without_homing():
    rng = np.random.default_rng(10)
    graph, lambdas = _perturbed(rng, n_poses=5, n_homing=4)
    mask = ActiveMask(
        homing=np.zeros(len(graph.homing), dtype=bool),
        distance=np.ones(len(graph.odometry), dtype=bool),
    )
    bare = FactorGraph(
        [graph.pose(i).copy() for i in graph.pose_ids()],
        odometry=graph.odometry,
        fixed_id=graph.fixed_id,
    )
    cfg = RotCostConfig()
    sys_masked = assemble(graph, cfg, active=mask, lambdas=lambdas)
    sys_bare = assemble(bare, cfg, lambdas=lambdas)
    assert np.array_equal(sys_masked.to_dense(), sys_bare.to_dense())
    assert np.array_equal(sys_masked.g, sys_bare.g)
    assert sys_masked.L == sys_bare.L


def test_distance_mask_equals_flag_off():
    rng = np.random.default_rng(11)
    graph, lambdas = _perturbed(rng)
    mask = ActiveMask(
        homing=np.ones(len(graph.homing), dtype=bool),
        distance=np.zeros(len(graph.odometry), dtype=bool),
    )
    cfg = RotCostConfig()
    a = assemble(graph, cfg, active=mask, lambdas=lambdas, use_distance_error=True)
    b = assemble(graph, cfg, lambdas=lambdas, use_distance_error=False)
    assert np.array_equal(a.to_dense(), b.to_dense())
    assert np.array_equal(a.g, b.g)


def test_fixed_pose_rows_dropped_but_contributions_kept():
    rng = np.random.default_rng(13)
    graph = consistent_graph(rng, n_poses=3, with_homing=False)
    system = assemble(graph, RotCostConfig(t1=1))
    assert system.dim == 10
    # pose 2 feels both edges (1->2 and 2->3): its diagonal block is the
    # sum of an h22 and an h11, strictly larger than pose 3's lone h22
    r2 = system.layout.rank(2)
    r3 = system.layout.rank(3)
    b2 = system.blocks[(r2, r2)][0:2, 0:2]
    b3 = system.blocks[(r3, r3)][0:2, 0:2]
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
    with pytest.raises(DegenerateVectorError, match=r"homing record 1 \(2->1\)"):
        total_values(graph, RotCostConfig())
