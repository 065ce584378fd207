"""Unit-length constraint terms and the start's multiplier estimate.

assemble without multipliers estimates them as lambda_i = -u_i^T g_i;
its system carries them as .lambdas.
"""

import dataclasses

import numpy as np
import pytest
from conftest import consistent_graph, random_graph

from ovsam.assembly import assemble
from ovsam.constraints import eval_constraint, residual
from ovsam.costs import RotCostConfig
from ovsam.findiff import fd_gradient
from ovsam.graph import FactorGraph, OdometryMeasurement, Pose


def test_residual_values():
    assert residual(np.array([1.0, 0.0])) == 0.0
    assert residual(np.array([2.0, 0.0])) == 1.5
    assert residual(np.array([0.6, 0.8])) == pytest.approx(0.0, abs=1e-16)


def test_eval_constraint_on_unit_vector():
    out = eval_constraint(1.0, np.array([1.0, 0.0]))
    assert out.w == 0.0
    assert out.l == 0.0
    assert np.array_equal(out.grad_u, [1.0, 0.0])
    assert out.grad_lambda == 0.0
    assert np.array_equal(out.h_uu, np.eye(2))
    assert np.array_equal(out.h_ulambda, [1.0, 0.0])


def test_eval_constraint_off_manifold():
    out = eval_constraint(1.0, np.array([2.0, 0.0]))
    assert out.w == 1.5
    assert out.l == 1.5
    assert np.array_equal(out.grad_u, [2.0, 0.0])


def test_eval_constraint_zero_multiplier():
    u = np.array([0.3, -1.1])
    out = eval_constraint(0.0, u)
    assert np.max(np.abs(out.grad_u)) == 0.0
    assert np.max(np.abs(out.h_uu)) == 0.0
    # the border column survives lambda = 0
    assert np.array_equal(out.h_ulambda, u)


def test_constraint_gradient_matches_fd():
    rng = np.random.default_rng(0)
    for _ in range(20):
        s = rng.uniform(-2.0, 2.0, 3)  # [lambda, u1, u2]

        def w_of(state):
            return eval_constraint(state[0], state[1:]).w

        out = eval_constraint(s[0], s[1:])
        grad = np.concatenate([[out.grad_lambda], out.grad_u])
        assert np.max(np.abs(fd_gradient(w_of, s) - grad)) < 1e-6


def test_init_lambdas_zero_on_consistent_graph():
    # with the norm-offset form the cost gradient vanishes at consistency
    rng = np.random.default_rng(1)
    graph = consistent_graph(rng, n_poses=5)
    lams = assemble(graph, RotCostConfig(t1=0)).lambdas
    assert lams.shape == (4,)
    assert np.max(np.abs(lams)) < 1e-12
    lams2 = assemble(graph, RotCostConfig(form="second")).lambdas
    assert np.max(np.abs(lams2)) < 1e-12


def test_init_lambdas_single_rotation_example():
    # t1=1 rotation at consistency pulls along u with unit strength
    graph = FactorGraph(
        poses=[Pose([0.0, 0.0], [1.0, 0.0]), Pose([1.0, 0.0], [1.0, 0.0])],
        odometry=[
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
    lams = assemble(graph, RotCostConfig(t1=1, gamma=1.0)).lambdas
    assert lams.shape == (1,)
    assert lams[0] == pytest.approx(1.0, abs=1e-14)


def test_init_lambdas_scale_with_information():
    # scaling all sigmas by c (covariances by c^2) scales lambda by 1/c^2
    rng = np.random.default_rng(2)
    graph = random_graph(rng, n_poses=5, n_homing=4, unit_orientations=True)
    cfg = RotCostConfig(t1=1, gamma=1.3)
    base = assemble(graph, cfg).lambdas
    c = 3.0
    odo = [
        dataclasses.replace(m, T=c**2 * m.T, sigma=c * m.sigma, sigma_e=c * m.sigma_e)
        for m in graph.odometry
    ]
    hom = [
        dataclasses.replace(m, sigma_h=c * m.sigma_h, sigma_c=c * m.sigma_c)
        for m in graph.homing
    ]
    scaled = FactorGraph(
        poses=graph.poses,
        odometry=odo,
        homing=hom,
        fixed_id=graph.fixed_id,
    )
    assert np.max(np.abs(assemble(scaled, cfg).lambdas - base / c**2)) < 1e-12


def test_init_lambdas_measurement_order_invariant():
    rng = np.random.default_rng(3)
    graph = random_graph(rng, n_poses=6, n_homing=5, unit_orientations=True)
    cfg = RotCostConfig(t1=1)
    base = assemble(graph, cfg).lambdas
    shuffled = FactorGraph(
        poses=graph.poses,
        odometry=list(graph.odometry)[::-1],
        homing=list(graph.homing)[::-1],
        fixed_id=graph.fixed_id,
    )
    assert np.max(np.abs(assemble(shuffled, cfg).lambdas - base)) < 1e-12


def test_init_lambdas_respects_active_mask():
    rng = np.random.default_rng(5)
    graph = random_graph(rng, n_poses=5, n_homing=4, unit_orientations=True)
    cfg = RotCostConfig(t1=1)
    all_on = assemble(graph, cfg).lambdas
    mask = np.concatenate(
        (np.ones(len(graph.odometry), dtype=bool), np.zeros(len(graph.homing), dtype=bool))
    )
    none_on = assemble(graph, cfg, active=mask).lambdas
    bare = FactorGraph(
        poses=graph.poses,
        odometry=graph.odometry,
        fixed_id=graph.fixed_id,
    )
    assert np.array_equal(none_on, assemble(bare, cfg).lambdas)
    # and with homing present the multipliers genuinely differ
    assert np.max(np.abs(all_on - none_on)) > 1e-6
