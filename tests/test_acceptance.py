"""Acceptance gate: one test per release criterion, tolerances pinned.

Each test prints a single summary line so a -s run reads as a checklist;
the test outcome itself is the pass/fail signal.
"""

import math
import time

import loop_reference as ref
import numpy as np
from conftest import random_graph, two_pose_graph
from dense_assembly import assemble_dense, dense_matrix
from test_orvec import M

from ovsam.assembly import assemble
from ovsam.costs import RotCostConfig, eval_generic_rotational
from ovsam.derivcheck import run_checks
from ovsam.findiff import fd_jacobian
from ovsam.graph import load_graph, save_graph
from ovsam.orvec import from_angle, omega, omega_bar
from ovsam.sim import SimConfig, simulate
from ovsam.solver import SolverConfig, compute_active_mask, solve

import io


def _rms(graph, truth):
    err = [graph.pose(pid).x - truth.poses[pid - 1][:2] for pid in graph.pose_ids()]
    return float(np.sqrt(np.mean(np.sum(np.square(err), axis=1))))


def _true_pose_graph(graph, truth):
    g = graph.copy()
    for pid in g.pose_ids():
        x, y, th = truth.poses[pid - 1]
        g.pose(pid).x[:] = (x, y)
        g.pose(pid).u[:] = from_angle(th)
    return g


def test_criterion_01_derivative_oracle_suite():
    t0 = time.perf_counter()
    report = run_checks(n_configs=100, seed=0)
    elapsed = time.perf_counter() - t0
    assert len(report.results) == 12
    for r in report.results:
        assert r.grad_err < 1e-5, f"{r.name}: gradient error {r.grad_err:.3e}"
        assert r.hess_err < 1e-4, f"{r.name}: Hessian error {r.hess_err:.3e}"
    assert elapsed < 30.0, f"oracle suite took {elapsed:.1f} s"
    print(
        f"criterion 1 PASS: 12 cases x 100 configs, worst grad "
        f"{max(r.grad_err for r in report.results):.2e}, worst hess "
        f"{max(r.hess_err for r in report.results):.2e}, {elapsed:.2f} s"
    )


def test_criterion_02_angle_sum_worked_example():
    got = omega(from_angle(math.pi / 6.0)) @ from_angle(math.pi / 3.0)
    err = np.max(np.abs(got - [0.0, 1.0]))
    assert err < 1e-12
    print(f"criterion 2 PASS: 30+60 degree composition error {err:.2e}")


def test_criterion_03_operator_identities():
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(1000):
        z = rng.uniform(-3.0, 3.0, 2)
        x = rng.uniform(-3.0, 3.0, 2)
        y = rng.uniform(-3.0, 3.0, 2)
        worst = max(worst, float(np.max(np.abs(omega_bar(z) - omega(z) @ M))))
        worst = max(worst, float(np.max(np.abs(omega(x + y) - omega(x) - omega(y)))))
        J = fd_jacobian(lambda v: omega(v).T @ x, z)
        worst = max(worst, float(np.max(np.abs(J - omega_bar(x)))))
    assert worst < 1e-6
    print(f"criterion 3 PASS: 1000 samples, worst identity error {worst:.2e}")


def test_criterion_04_sparse_equals_dense_assembly():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 21))
        graph = random_graph(rng, n_poses=n, n_homing=min(n, 6))
        lambdas = rng.normal(size=n - 1)
        cfg = RotCostConfig(form="second" if seed % 3 == 2 else "first", t1=seed % 2)
        system = assemble(graph, cfg, lambdas=lambdas)
        H, g = assemble_dense(graph, cfg, lambdas=lambdas)
        F, L, l1 = ref.total_values(graph, cfg, lambdas=lambdas)
        assert np.array_equal(dense_matrix(system), H), f"seed {seed}: H differs"
        assert np.array_equal(system.g, g), f"seed {seed}: g differs"
        assert (system.F, system.L, system.l1) == (F, L, l1), f"seed {seed}: values differ"
    print("criterion 4 PASS: sparse == dense assembly bitwise, 20 seeds, N up to 20")


def test_criterion_05_two_pose_analytic_convergence():
    graph = two_pose_graph()
    x_opt = graph.pose(2).x.copy()
    u_opt = graph.pose(2).u.copy()
    theta = math.atan2(graph.pose(2).u[1], graph.pose(2).u[0])
    graph.pose(2).x += [0.1, 0.1]
    graph.pose(2).u[:] = from_angle(theta + 0.1)

    t0 = time.perf_counter()
    report = solve(graph)
    elapsed = time.perf_counter() - t0

    assert report.converged
    assert report.iterations <= 10
    sol = report.graph.pose(2)
    pose_err = max(
        float(np.max(np.abs(sol.x - x_opt))), float(np.max(np.abs(sol.u - u_opt)))
    )
    resid = abs(0.5 * (float(sol.u @ sol.u) - 1.0))
    assert pose_err < 1e-8
    assert resid < 1e-10
    assert elapsed < 1.0
    print(
        f"criterion 5 PASS: {report.iterations} iterations, pose error "
        f"{pose_err:.2e}, constraint residual {resid:.2e}, {elapsed * 1000:.0f} ms"
    )


def test_criterion_06_three_lane_end_to_end():
    cfg = SolverConfig()
    graph, truth = simulate(SimConfig())

    t0 = time.perf_counter()
    report = solve(graph, cfg)
    elapsed = time.perf_counter() - t0

    assert report.reason == "grad_tol"
    assert report.iterations <= 25
    assert report.trace[-1].max_constraint < 1e-6

    mask_sol = compute_active_mask(report.graph, cfg.home_dist_threshold)
    f_sol = assemble(report.graph, cfg.cost, mask_sol).F
    true_graph = _true_pose_graph(graph, truth)
    mask_true = compute_active_mask(true_graph, cfg.home_dist_threshold)
    f_true = assemble(true_graph, cfg.cost, mask_true).F
    assert f_sol <= f_true

    rms_initial = _rms(graph, truth)
    rms_solved = _rms(report.graph, truth)
    assert rms_solved < rms_initial
    assert elapsed < 10.0
    print(
        f"criterion 6 PASS: grad_tol in {report.iterations} iterations, "
        f"max |l| {report.trace[-1].max_constraint:.1e}, F {f_sol:.2f} <= "
        f"F(true) {f_true:.2f}, RMS {rms_initial:.3f} -> {rms_solved:.3f}, "
        f"{elapsed:.2f} s"
    )


def test_criterion_07_saddle_at_converged_solution():
    graph = two_pose_graph()
    graph.pose(2).x += [0.05, -0.05]
    report = solve(graph)
    assert report.converged

    system = assemble(report.graph, SolverConfig().cost, lambdas=report.lambdas)
    grad_norm = float(np.linalg.norm(system.g))
    eigenvalues = np.linalg.eigvalsh(dense_matrix(system))
    assert grad_norm < 1e-8
    assert eigenvalues[0] < 0.0
    print(
        f"criterion 7 PASS: |g| = {grad_norm:.1e}, most negative Hessian "
        f"eigenvalue {eigenvalues[0]:.3f}"
    )


def _rot_value(Phi, u, up, cfg):
    """The rotational kernel's value for one pair, a batch of one."""
    return eval_generic_rotational(Phi[None], u[None], up[None], cfg, derivs=False)[0]


def test_criterion_08_variant_properties():
    rng = np.random.default_rng(1)
    t1_cfg = RotCostConfig(t1=0)
    second_cfg = RotCostConfig(form="second")
    t1_min = np.inf
    for _ in range(10_000):
        u = rng.uniform(0.1, 3.0) * from_angle(rng.uniform(-math.pi, math.pi))
        up = rng.uniform(0.1, 3.0) * from_angle(rng.uniform(-math.pi, math.pi))
        Phi = omega(from_angle(rng.uniform(-math.pi, math.pi)))
        t1_min = min(t1_min, _rot_value(Phi, u, up, t1_cfg))
    assert t1_min >= -1e-12

    worst_scale = 0.0
    worst_agree = 0.0
    for _ in range(200):
        a, ap = rng.uniform(-math.pi, math.pi, 2)
        Phi = omega(from_angle(rng.uniform(-math.pi, math.pi)))
        u, up = from_angle(a), from_angle(ap)
        base = _rot_value(Phi, u, up, second_cfg)
        c, cp = rng.uniform(0.1, 10.0, 2)
        scaled = _rot_value(Phi, c * u, cp * up, second_cfg)
        worst_scale = max(worst_scale, abs(base - scaled))
        vals = [
            _rot_value(Phi, u, up, RotCostConfig(t1=1)),
            _rot_value(Phi, u, up, t1_cfg),
            base,
        ]
        worst_agree = max(worst_agree, max(vals) - min(vals))
    assert worst_scale < 1e-12
    assert worst_agree < 1e-12
    print(
        f"criterion 8 PASS: t1=0 minimum {t1_min:.1e} over 10^4 samples, "
        f"rescale error {worst_scale:.1e}, on-constraint spread {worst_agree:.1e}"
    )


def test_criterion_09_robustness_accounting():
    reasons = []
    for seed in range(20):
        graph, _ = simulate(SimConfig(seed=seed))
        report = solve(graph)
        assert report.reason in ("grad_tol", "step_tol", "max_iters", "diverged")
        reasons.append(report.reason)
    converged = reasons.count("grad_tol")
    assert converged >= 17, f"only {converged}/20 converged: {reasons}"

    # a configuration known to diverge must say so rather than hang or crash
    graph, _ = simulate(SimConfig(seed=12, noise_ang=1e-4))
    report = solve(graph)
    assert report.reason == "diverged"
    assert not report.converged
    print(
        f"criterion 9 PASS: {converged}/20 seeds reach grad_tol "
        f"({reasons.count('step_tol')} step_tol); known-divergent run exits 'diverged'"
    )


def test_criterion_10_file_round_trip():
    for seed in range(20):
        graph, _ = simulate(SimConfig(seed=seed, lanes=2, points_per_lane=4))
        text = save_graph(graph)
        loaded = load_graph(io.StringIO(text))
        assert save_graph(loaded) == text, f"seed {seed}: text not stable"
        for pid in graph.pose_ids():
            assert np.array_equal(loaded.pose(pid).x, graph.pose(pid).x)
            assert np.array_equal(loaded.pose(pid).u, graph.pose(pid).u)
        for a, b in zip(loaded.odometry, graph.odometry):
            assert (a.i1, a.i2) == (b.i1, b.i2)
            assert np.array_equal(a.r, b.r) and np.array_equal(a.q, b.q)
            assert np.array_equal(a.T, b.T)
            assert (a.sigma, a.sigma_e) == (b.sigma, b.sigma_e)
        for a, b in zip(loaded.homing, graph.homing):
            assert (a.i1, a.i2) == (b.i1, b.i2)
            assert np.array_equal(a.alpha, b.alpha) and np.array_equal(a.psi, b.psi)
            assert (a.sigma_h, a.sigma_c) == (b.sigma_h, b.sigma_c)
    print("criterion 10 PASS: save/load value-exact on 20 seeded graphs")
