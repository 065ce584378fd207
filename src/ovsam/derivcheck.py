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
    RotCostConfig,
    _spd_inverse,
    eval_compass,
    eval_distance,
    eval_home_vector,
    eval_rotation,
    eval_translation,
    term_weight,
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


def _pair_case(rng, kernel):
    """Case over one batched cost kernel(p1, p2, derivs) on [x, u] poses.

    The state is the two poses stacked, so it splits into the kernel's
    arguments directly, a batch of one pair.  The finite differences run
    the kernel's value-only path, the path the merit evaluates.
    """

    def value(s):
        return kernel(s[None, 0:4], s[None, 4:8], False)[0]

    def grad(s):
        ev = kernel(s[None, 0:4], s[None, 4:8], True)
        return np.concatenate([ev.grad1[0], ev.grad2[0]])

    def hess(s):
        ev = kernel(s[None, 0:4], s[None, 4:8], True)
        return np.block([[ev.h11[0], ev.h12[0]], [ev.h21[0], ev.h22[0]]])

    return CaseInstance(
        value, grad, hess, _random_pair_state(rng), _PAIR_GRAD_BLOCKS, _PAIR_HESS_BLOCKS
    )


def _case_translation(rng):
    Tinv = _spd_inverse(_random_spd(rng)[None])
    r = rng.uniform(-1.5, 1.5, (1, 2))
    return _pair_case(rng, lambda p1, p2, derivs: eval_translation(p1, p2, Tinv, r, derivs))


def _case_distance(rng):
    sigma_e = rng.uniform(0.1, 1.0, 1)
    rho = rng.uniform(0.2, 2.0, 1)
    return _pair_case(
        rng, lambda p1, p2, derivs: eval_distance(p1, p2, sigma_e, rho, derivs)
    )


def _rot_cfg(rng, form, t1):
    return RotCostConfig(form=form, t1=t1, gamma=rng.uniform(0.5, 2.0))


def _case_rotational(kernel, form, t1):
    """Case factory for a rotational cost: rotation, compass or home vector.

    The three kernels share the signature kernel(p1, p2, M, w, cfg, derivs),
    M being the measurement's 2x2 orientation matrix.
    """

    def make(rng):
        cfg = _rot_cfg(rng, form, t1)
        M = omega(_random_unit(rng))[None]
        w = np.array([term_weight(cfg.gamma, rng.uniform(0.2, 1.0))])
        return _pair_case(rng, lambda p1, p2, derivs: kernel(p1, p2, M, w, cfg, derivs))

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
    "rotation-first-t0": _case_rotational(eval_rotation, "first", 0),
    "rotation-first-t1": _case_rotational(eval_rotation, "first", 1),
    "rotation-second": _case_rotational(eval_rotation, "second", 1),
    "compass-first-t0": _case_rotational(eval_compass, "first", 0),
    "compass-first-t1": _case_rotational(eval_compass, "first", 1),
    "compass-second": _case_rotational(eval_compass, "second", 1),
    "home-first-t0": _case_rotational(eval_home_vector, "first", 0),
    "home-first-t1": _case_rotational(eval_home_vector, "first", 1),
    "home-second": _case_rotational(eval_home_vector, "second", 1),
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
    """Run the derivative cases; deterministic for a fixed seed.

    The tolerances must be finite and positive: an infinite one passes
    every case, and a NaN or one at or below zero fails every case.
    """
    if n_configs < 1:
        raise ValueError("n_configs must be at least 1")
    for name, tol in (("grad_tol", grad_tol), ("hess_tol", hess_tol)):
        if not 0.0 < tol < math.inf:
            raise ValueError(f"{name} must be finite and positive, got {tol!r}")
    chosen = list(names) if names is not None else list(CASES)
    unknown = [n for n in chosen if n not in CASES]
    if unknown:
        known = ", ".join(CASES)
        raise ValueError(f"unknown derivative cases: {', '.join(unknown)} (known: {known})")
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
