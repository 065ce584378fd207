"""Randomized validation of every analytic derivative in the library.

Each case draws non-degenerate random configurations of one cost (or of
the unit-length constraint term), flattens the relevant variables into a
parameter vector, and checks

  * the analytic gradient against central finite differences of the
    value, and
  * the analytic Hessian blocks against central finite differences of
    the analytic gradient.

Errors are tracked per derivative block so a transcription mistake in a
single formula is flagged by name.  States are drawn off the constraint
manifold (orientation norms in [0.5, 1.5]) on purpose: the formulas
must hold for arbitrary nonzero orientation vectors, not only unit ones.
"""

import math
from dataclasses import dataclass

import numpy as np

from .constraints import eval_constraint
from .costs import (
    Pose,
    RotCostConfig,
    eval_compass,
    eval_distance,
    eval_home_vector,
    eval_rotation,
    eval_translation,
)
from .findiff import fd_gradient, fd_jacobian
from .orvec import from_angle, omega

GRAD_TOL = 1e-5
HESS_TOL = 1e-4

_S1 = slice(0, 4)
_S2 = slice(4, 8)
_PAIR_GRAD_BLOCKS = {"grad1": _S1, "grad2": _S2}
_PAIR_HESS_BLOCKS = {
    "h11": (_S1, _S1),
    "h12": (_S1, _S2),
    "h21": (_S2, _S1),
    "h22": (_S2, _S2),
}
_CON_GRAD_BLOCKS = {"grad_lambda": slice(0, 1), "grad_u": slice(1, 3)}
_CON_HESS_BLOCKS = {
    "h_lambda_u": (slice(0, 1), slice(1, 3)),
    "h_u_lambda": (slice(1, 3), slice(0, 1)),
    "h_uu": (slice(1, 3), slice(1, 3)),
}


@dataclass
class CaseInstance:
    """One random configuration: callables over a flat parameter vector."""

    value: callable
    grad: callable
    hess: callable
    state: np.ndarray
    grad_blocks: dict
    hess_blocks: dict


def _rel_err(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    scale = max(1.0, float(np.max(np.abs(a))), float(np.max(np.abs(b))))
    return float(np.max(np.abs(a - b))) / scale


def _random_unit(rng):
    return from_angle(rng.uniform(-math.pi, math.pi))


def _random_orvec(rng):
    return rng.uniform(0.5, 1.5) * _random_unit(rng)


def _random_spd(rng):
    R = omega(_random_unit(rng))
    return (R * rng.uniform(0.05, 1.0, 2)) @ R.T


def _random_pair_state(rng):
    while True:
        x1 = rng.uniform(-2.0, 2.0, 2)
        x2 = rng.uniform(-2.0, 2.0, 2)
        if math.hypot(*(x2 - x1)) >= 0.2:
            break
    return np.concatenate([x1, _random_orvec(rng), x2, _random_orvec(rng)])


def _pose_pair(s):
    return Pose(s[0:2], s[2:4]), Pose(s[4:6], s[6:8])


def _pair_case(rng, kernel):
    """Case over one cost kernel(p1, p2, derivs).

    The finite differences run the kernel's value-only path, the path
    the merit evaluates.
    """

    def value(s):
        return kernel(*_pose_pair(s), False)

    def grad(s):
        ev = kernel(*_pose_pair(s), True)
        return np.concatenate([ev.grad1, ev.grad2])

    def hess(s):
        ev = kernel(*_pose_pair(s), True)
        return np.block([[ev.h11, ev.h12], [ev.h21, ev.h22]])

    return CaseInstance(
        value, grad, hess, _random_pair_state(rng), _PAIR_GRAD_BLOCKS, _PAIR_HESS_BLOCKS
    )


def _case_translation(rng):
    T = _random_spd(rng)
    r = rng.uniform(-1.5, 1.5, 2)
    return _pair_case(rng, lambda p1, p2, derivs: eval_translation(p1, p2, T, r, derivs))


def _case_distance(rng):
    sigma_e = rng.uniform(0.1, 1.0)
    rho = rng.uniform(0.2, 2.0)
    return _pair_case(
        rng, lambda p1, p2, derivs: eval_distance(p1, p2, sigma_e, rho, derivs)
    )


def _rot_cfg(rng, form, t1):
    return RotCostConfig(form=form, t1=t1, gamma=rng.uniform(0.5, 2.0))


def _case_rotation(form, t1):
    def make(rng):
        cfg = _rot_cfg(rng, form, t1)
        Q = omega(_random_unit(rng))
        sigma = rng.uniform(0.2, 1.0)
        return _pair_case(
            rng, lambda p1, p2, derivs: eval_rotation(p1, p2, Q, sigma, cfg, derivs)
        )

    return make


def _case_compass(form, t1):
    def make(rng):
        cfg = _rot_cfg(rng, form, t1)
        Psi = omega(_random_unit(rng))
        sigma_c = rng.uniform(0.2, 1.0)
        return _pair_case(
            rng, lambda p1, p2, derivs: eval_compass(p1, p2, Psi, sigma_c, cfg, derivs)
        )

    return make


def _case_home(form, t1):
    def make(rng):
        cfg = _rot_cfg(rng, form, t1)
        A = omega(_random_unit(rng))
        sigma_h = rng.uniform(0.2, 1.0)
        return _pair_case(
            rng, lambda p1, p2, derivs: eval_home_vector(p1, p2, A, sigma_h, cfg, derivs)
        )

    return make


def _case_constraint(rng):
    def value(s):
        return eval_constraint(s[0], s[1:3]).w

    def grad(s):
        ev = eval_constraint(s[0], s[1:3])
        return np.concatenate([[ev.grad_lambda], ev.grad_u])

    def hess(s):
        ev = eval_constraint(s[0], s[1:3])
        H = np.zeros((3, 3))
        H[0, 1:3] = ev.h_ulambda
        H[1:3, 0] = ev.h_ulambda
        H[1:3, 1:3] = ev.h_uu
        return H

    state = np.concatenate([[rng.uniform(-2.0, 2.0)], _random_orvec(rng)])
    return CaseInstance(value, grad, hess, state, _CON_GRAD_BLOCKS, _CON_HESS_BLOCKS)


# Registry of every derivative case the library ships.  Keys are stable
# API: the CLI exposes them and tests select by name.
CASES = {
    "translation": _case_translation,
    "distance": _case_distance,
    "rotation-first-t0": _case_rotation("first", 0),
    "rotation-first-t1": _case_rotation("first", 1),
    "rotation-second": _case_rotation("second", 1),
    "compass-first-t0": _case_compass("first", 0),
    "compass-first-t1": _case_compass("first", 1),
    "compass-second": _case_compass("second", 1),
    "home-first-t0": _case_home("first", 0),
    "home-first-t1": _case_home("first", 1),
    "home-second": _case_home("second", 1),
    "constraint": _case_constraint,
}


@dataclass
class CaseResult:
    name: str
    configs: int
    grad_err: float
    hess_err: float
    worst_grad_block: str
    worst_hess_block: str
    grad_tol: float
    hess_tol: float

    @property
    def passed(self):
        return self.grad_err <= self.grad_tol and self.hess_err <= self.hess_tol


@dataclass
class CheckReport:
    results: list

    @property
    def passed(self):
        return all(r.passed for r in self.results)

    def format(self):
        lines = [
            f"{'case':<20} {'configs':>7} {'grad err':>12} {'(block)':<13}"
            f" {'hess err':>12} {'(block)':<13} status"
        ]
        for r in self.results:
            status = "ok" if r.passed else "FAIL"
            lines.append(
                f"{r.name:<20} {r.configs:>7} {r.grad_err:>12.3e} {r.worst_grad_block:<13}"
                f" {r.hess_err:>12.3e} {r.worst_hess_block:<13} {status}"
            )
        return "\n".join(lines)


def run_checks(n_configs=100, seed=0, grad_tol=GRAD_TOL, hess_tol=HESS_TOL, names=None):
    """Run the derivative cases; deterministic for a fixed seed."""
    if n_configs < 1:
        raise ValueError("n_configs must be at least 1")
    chosen = list(names) if names is not None else list(CASES)
    unknown = [n for n in chosen if n not in CASES]
    if unknown:
        raise ValueError(f"unknown derivative cases: {', '.join(unknown)}")
    rng = np.random.default_rng(seed)
    results = []
    for name in chosen:
        factory = CASES[name]
        grad_err = hess_err = 0.0
        grad_blk = hess_blk = "-"
        for _ in range(n_configs):
            case = factory(rng)
            g_fd = fd_gradient(case.value, case.state)
            g_an = case.grad(case.state)
            for blk, sl in case.grad_blocks.items():
                err = _rel_err(g_an[sl], g_fd[sl])
                if err > grad_err:
                    grad_err, grad_blk = err, blk
            h_fd = fd_jacobian(case.grad, case.state)
            h_an = case.hess(case.state)
            for blk, (rows, cols) in case.hess_blocks.items():
                err = _rel_err(h_an[rows, cols], h_fd[rows, cols])
                if err > hess_err:
                    hess_err, hess_blk = err, blk
        results.append(
            CaseResult(name, n_configs, grad_err, hess_err, grad_blk, hess_blk, grad_tol, hess_tol)
        )
    return CheckReport(results)
