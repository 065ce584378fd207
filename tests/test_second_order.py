"""Second-order conditions at the solution: the reduced Hessian.

On the unit circle u_i = (cos theta_i, sin theta_i), so the free
directions of pose i are Z_i = diag(I_2, u_i_perp).  With the multipliers
estimated as lambda_i = -u_i^T grad_{u_i} F (assemble's default), the
reduced Hessian R = Z^T H Z is the Hessian of F in the coordinates
(x, theta), and Z^T g its gradient.  Unlike the bordered matrix, which
has a negative eigenvalue whenever its border has full rank (Nocedal &
Wright, Lemma 16.3), R is positive definite exactly at a strict local
minimum (Nocedal & Wright, Thm 12.6).
"""

import numpy as np
import pytest
from conftest import evaluation, random_graph
from dense_assembly import dense_matrix

from ovsam.assembly import measurement_tables
from ovsam.costs import RotCostConfig
from ovsam.findiff import fd_jacobian
from ovsam.sim import SimConfig, simulate
from ovsam.solver import SolverConfig, compute_active_mask, solve

FORMS = {
    "t1=1": RotCostConfig(),
    "t1=0": RotCostConfig(t1=0),
    "second": RotCostConfig(form="second"),
}


def null_space_basis(table, tables):
    """Z (5n, 3n): per free pose, I_2 on x and u_perp on u; no lambda column."""
    n = len(tables.free)
    u = table[tables.free, 2:4]
    Z = np.zeros((n, 5, n, 3))
    idx = np.arange(n)
    Z[idx, 0, idx, 0] = Z[idx, 1, idx, 1] = 1.0
    Z[idx, 2, idx, 2], Z[idx, 3, idx, 2] = -u[:, 1], u[:, 0]
    return Z.reshape(5 * n, 3 * n)


def reduced(graph, cfg, table, tables, active):
    """(R, Z^T g) of the system assembled at table with estimated multipliers."""
    plan, state, anchor = evaluation(graph, cfg, active, None, False, table, tables)
    system = plan.assemble(state, anchor, estimate=True)
    Z = null_space_basis(table, tables)
    return Z.T @ dense_matrix(system) @ Z, Z.T @ system.g


def at_angles(table, tables, v):
    """table with the free poses at v, one (x, y, theta) per free pose."""
    v = v.reshape(-1, 3)
    out = table.copy()
    out[tables.free] = np.column_stack((v[:, :2], np.cos(v[:, 2]), np.sin(v[:, 2])))
    return out


def _assert_hessian_of_angles(graph, cfg, active=None):
    tables = measurement_tables(graph, cfg)
    table = graph.pose_table()
    free = table[tables.free]
    v = np.column_stack((free[:, :2], np.arctan2(free[:, 3], free[:, 2]))).ravel()

    def angle_gradient(w):
        return reduced(graph, cfg, at_angles(table, tables, w), tables, active)[1]

    R, _ = reduced(graph, cfg, at_angles(table, tables, v), tables, active)
    fd = fd_jacobian(angle_gradient, v)
    err = np.max(np.abs(R - fd)) / np.max(np.abs(R))
    assert err <= 1e-6, err


@pytest.mark.parametrize("form", FORMS)
def test_reduced_hessian_is_the_hessian_in_angle_coordinates(form):
    rng = np.random.default_rng(11)
    for _ in range(5):
        graph = random_graph(rng, n_poses=5, n_homing=4, unit_orientations=True)
        _assert_hessian_of_angles(graph, FORMS[form])


def test_reduced_hessian_is_the_hessian_in_angle_coordinates_on_the_default_graph():
    # the solver's mask at the start, held fixed while differencing
    graph = simulate(SimConfig())[0]
    cfg = SolverConfig()
    active = compute_active_mask(graph, cfg.home_dist_threshold)
    _assert_hessian_of_angles(graph, cfg.cost, active)


@pytest.mark.parametrize("seed", range(5))
def test_default_solves_end_at_a_strict_local_minimum(seed):
    # smallest eigenvalue 18.5-19.3, largest 8.3e4-8.7e4; the detached
    # step_tol end of 4x15 seed 0 (max_iters=100) has one of size 6e-13
    cfg = SolverConfig()
    report = solve(simulate(SimConfig(seed=seed))[0], cfg)
    assert report.reason == "grad_tol"
    graph = report.graph
    tables = measurement_tables(graph, cfg.cost)
    table = graph.pose_table()
    active = compute_active_mask(graph, cfg.home_dist_threshold, False, table, tables)
    R, _ = reduced(graph, cfg.cost, table, tables, active)
    eigenvalues = np.linalg.eigvalsh(R)
    assert eigenvalues[0] > 1.0, eigenvalues[:3]
