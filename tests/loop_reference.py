"""The per-record loop that evaluated the costs before the batched kernels.

The bitwise reference for ovsam.assembly: scalar cost kernels over one
pose pair each, the walk over the measurements one record at a time
(_record_terms), and loop versions of assemble (gradient and blocks),
total_values (F, L and sum |l_i|, which an assembled system and
EvaluationPlan.totals carry) and init_lambdas that consume it.  tests/test_batched.py requires the
batched code to reproduce every number these produce exactly.

validate is the reference for FactorGraph.validate: its checks one
record at a time, the covariance checks those of the scalar inverse.
tests/test_validate_reference.py requires the column-wise checks to
reject every corrupted graph with the same exception and message.
"""

import math

from dataclasses import dataclass, field

import numpy as np

from ovsam.costs import ORI, POS, _spd_inverse
from ovsam.errors import (
    DegenerateVectorError,
    GraphValidationError,
    InvalidCovarianceError,
    PreconditionError,
)
from ovsam.graph import UNIT_TOL
from ovsam.orvec import DEGENERATE_NORM


def _omega(z):
    z = np.asarray(z, dtype=float)
    return np.array([[z[0], -z[1]], [z[1], z[0]]])


def _omega_bar(z):
    z = np.asarray(z, dtype=float)
    return np.array([[z[0], z[1]], [z[1], -z[0]]])


@dataclass
class CostEval:
    """Value and derivative blocks of one cost term over a pose pair."""

    value: float = 0.0
    grad1: np.ndarray = field(default_factory=lambda: np.zeros(4))
    grad2: np.ndarray = field(default_factory=lambda: np.zeros(4))
    h11: np.ndarray = field(default_factory=lambda: np.zeros((4, 4)))
    h12: np.ndarray = field(default_factory=lambda: np.zeros((4, 4)))
    h22: np.ndarray = field(default_factory=lambda: np.zeros((4, 4)))

    @property
    def h21(self):
        return self.h12.T

    def __iadd__(self, other):
        self.value += other.value
        self.grad1 += other.grad1
        self.grad2 += other.grad2
        self.h11 += other.h11
        self.h12 += other.h12
        self.h22 += other.h22
        return self


def residual(u):
    return 0.5 * (float(u @ u) - 1.0)


def _checked_norm(z, what):
    n = float(np.hypot(z[0], z[1]))
    if n <= DEGENERATE_NORM:
        raise DegenerateVectorError(f"{what} has norm {n!r}, below {DEGENERATE_NORM}")
    return n


def _proj_curvature(a, z0, nz):
    """Curvature matrix S with d/dz [ (I - z0 z0^T)/|z| a ] = -S.

    z0 is z/|z|, nz is |z|, and a is held constant.  S is symmetric.
    """
    return (
        np.outer(a, z0) + np.outer(z0, a) + (z0 @ a) * (np.eye(2) - 3.0 * np.outer(z0, z0))
    ) / nz**2


# ---------------------------------------------------------------------------
# translation and distance


def eval_translation(p, pp, T, r, derivs=True):
    """Mahalanobis translation cost with all derivative blocks.

    Parameters
    ----------
    p, pp : (4,) ndarray
        First and second pose as [x, u]; the orientation of pp does not
        enter.
    T : (2, 2) ndarray
        Symmetric positive definite covariance of r.
    r : (2,) ndarray
        Measured translation expressed in the frame of the first pose.
    derivs : bool
        When false, return only the float value.
    """
    Tinv = _spd_inverse(T[None])[0]
    delta = pp[POS] - p[POS]
    U = _omega(p[ORI])
    e = U.T @ delta - r
    value = 0.5 * float(e @ Tinv @ e)
    if not derivs:
        return value
    D = _omega_bar(delta)
    w = Tinv @ e

    out = CostEval(value=value)
    out.grad1[POS] = -U @ w
    out.grad1[ORI] = D @ w
    out.grad2[POS] = U @ w

    UTinv = U @ Tinv
    core = UTinv @ U.T  # U T^-1 U^T
    Ow = _omega(w)

    out.h11[POS, POS] = core
    out.h11[POS, ORI] = -(UTinv @ D + Ow)
    out.h11[ORI, POS] = out.h11[POS, ORI].T
    out.h11[ORI, ORI] = D @ Tinv @ D
    out.h12[POS, POS] = -core
    out.h12[ORI, POS] = (UTinv @ D + Ow).T
    out.h22[POS, POS] = core
    return out


def eval_distance(p, pp, sigma_e, rho, derivs=True):
    """Scalar traveled-distance cost with all derivative blocks.

    p and pp are [x, u] 4-vectors; weighted by 1/sigma_e.  Orientations
    do not enter.  Raises DegenerateVectorError when the two positions
    (numerically) coincide.  With derivs false, returns only the float
    value.
    """
    if not sigma_e > 0.0:
        raise ValueError(f"sigma_e must be positive, got {sigma_e!r}")
    delta = pp[POS] - p[POS]
    nd = _checked_norm(delta, "pose position difference")
    resid = nd - rho
    value = 0.5 * resid**2 / sigma_e
    if not derivs:
        return value
    d0 = delta / nd
    winv = 1.0 / sigma_e

    out = CostEval(value=value)
    g = winv * resid * d0
    out.grad1[POS] = -g
    out.grad2[POS] = g

    # d^2/d(delta)^2 [0.5 (|delta| - rho)^2] = I - rho (I - d0 d0^T)/|delta|
    P = (np.eye(2) - np.outer(d0, d0)) / nd
    core = winv * (np.eye(2) - rho * P)
    out.h11[POS, POS] = core
    out.h12[POS, POS] = -core
    out.h22[POS, POS] = core
    return out


# ---------------------------------------------------------------------------
# generic rotational kernel over (u, u'); shared by rotation and compass


def eval_generic_rotational(Phi, u, up, cfg, weight=1.0, derivs=True):
    """Rotational cost s (first form) or s-bar (second form), times weight.

    Returns the float value when derivs is false, else a CostEval whose
    position blocks are zero.
    """
    Phiu = Phi @ u
    c = float(Phiu @ up)
    if cfg.form == "second":
        nu = _checked_norm(u, "orientation vector")
        nup = _checked_norm(up, "orientation vector")
        value = 1.0 - c / (nu * nup)
    elif cfg.t1 == 1:
        value = 1.0 - c
    else:
        nu = _checked_norm(u, "orientation vector")
        nup = _checked_norm(up, "orientation vector")
        value = nu * nup - c
    if not derivs:
        return weight * value

    if cfg.form == "second":
        u0 = u / nu
        up0 = up / nup
        Pu = (np.eye(2) - np.outer(u0, u0)) / nu
        Pup = (np.eye(2) - np.outer(up0, up0)) / nup
        gu = -(Pu @ Phi.T @ up0)
        gup = -(Pup @ Phi @ u0)
        huu = _proj_curvature(Phi.T @ up0, u0, nu)
        huup = -Pu @ Phi.T @ Pup
        hupup = _proj_curvature(Phi @ u0, up0, nup)
    else:
        gu = -(Phi.T @ up)
        gup = -Phiu
        huu = hupup = np.zeros((2, 2))
        huup = -Phi.T
        if cfg.t1 == 0:
            u0 = u / nu
            up0 = up / nup
            gu = gu + nup * u0
            gup = gup + nu * up0
            huu = huu + (nup / nu) * (np.eye(2) - np.outer(u0, u0))
            huup = huup + np.outer(u0, up0)
            hupup = hupup + (nu / nup) * (np.eye(2) - np.outer(up0, up0))

    out = CostEval(value=weight * value)
    out.grad1[ORI] = weight * gu
    out.grad2[ORI] = weight * gup
    out.h11[ORI, ORI] = weight * huu
    out.h12[ORI, ORI] = weight * huup
    out.h22[ORI, ORI] = weight * hupup
    return out


def eval_rotation(p, pp, Q, sigma, cfg, derivs=True):
    """Rotational cost against the measured relative rotation matrix Q.

    p and pp are [x, u] 4-vectors.  Q is the orientation matrix of the
    measured unit rotation vector (frame p to frame pp); positions do not
    enter.
    """
    if not sigma > 0.0:
        raise ValueError(f"sigma must be positive, got {sigma!r}")
    return eval_generic_rotational(Q, p[ORI], pp[ORI], cfg, cfg.gamma / sigma**2, derivs)


def eval_compass(p, pp, Psi, sigma_c, cfg, derivs=True):
    """Compass cost against the measured relative orientation matrix Psi.

    Identical functional form to the rotation cost, over the same [x, u]
    4-vectors; Psi comes from a visual compass instead of odometry.
    """
    if not sigma_c > 0.0:
        raise ValueError(f"sigma_c must be positive, got {sigma_c!r}")
    return eval_generic_rotational(Psi, p[ORI], pp[ORI], cfg, cfg.gamma / sigma_c**2, derivs)


# ---------------------------------------------------------------------------
# home vector


def eval_home_vector(p, pp, A, sigma_h, cfg, derivs=True):
    """Home-vector cost with all derivative blocks.

    p and pp are [x, u] 4-vectors.  A is the orientation matrix of the
    measured unit direction from pose p toward pose pp, expressed in
    frame p.  The role of the second orientation vector of the rotational
    form is taken by the normalized position difference, so this cost
    couples x, x' and u; the orientation of pp never enters.  The
    first-form offset is t1 + (1 - t1)|u|.  With derivs false, returns
    only the float value.
    """
    if not sigma_h > 0.0:
        raise ValueError(f"sigma_h must be positive, got {sigma_h!r}")
    u = p[ORI]
    delta = pp[POS] - p[POS]
    nd = _checked_norm(delta, "pose position difference")
    d0 = delta / nd
    w = cfg.gamma / sigma_h**2
    a = A @ u
    c = float(a @ d0)
    if cfg.form == "second":
        nu = _checked_norm(u, "orientation vector")
        value = w * (1.0 - c / nu)
    elif cfg.t1 == 1:
        value = w * (1.0 - c)
    else:
        nu = _checked_norm(u, "orientation vector")
        value = w * (nu - c)
    if not derivs:
        return value
    Pd = (np.eye(2) - np.outer(d0, d0)) / nd

    out = CostEval(value=value)
    if cfg.form == "second":
        u0 = u / nu
        Pu = (np.eye(2) - np.outer(u0, u0)) / nu
        a = A @ u0
        S = _proj_curvature(a, d0, nd)

        out.grad1[POS] = w * (Pd @ a)
        out.grad2[POS] = -w * (Pd @ a)
        out.grad1[ORI] = -w * (Pu @ A.T @ d0)

        out.h11[POS, POS] = w * S
        out.h11[POS, ORI] = w * (Pd @ A @ Pu)
        out.h11[ORI, POS] = out.h11[POS, ORI].T
        out.h11[ORI, ORI] = w * _proj_curvature(A.T @ d0, u0, nu)
        out.h12[POS, POS] = -w * S
        out.h12[ORI, POS] = -w * (Pu @ A.T @ Pd)
        out.h22[POS, POS] = w * S
        return out

    S = _proj_curvature(a, d0, nd)

    out.grad1[POS] = w * (Pd @ a)
    out.grad2[POS] = -w * (Pd @ a)
    out.grad1[ORI] = -w * (A.T @ d0)

    out.h11[POS, POS] = w * S
    out.h11[POS, ORI] = w * (Pd @ A)
    out.h11[ORI, POS] = out.h11[POS, ORI].T
    out.h12[POS, POS] = -w * S
    out.h12[ORI, POS] = -w * (A.T @ Pd)
    out.h22[POS, POS] = w * S

    if cfg.t1 == 0:
        u0 = u / nu
        out.grad1[ORI] += w * u0
        out.h11[ORI, ORI] += w * (np.eye(2) - np.outer(u0, u0)) / nu
    return out


# ---------------------------------------------------------------------------
# the walk over the measurements


def _record_terms(graph, table, cfg, active, use_distance_error, derivs=True):
    """Evaluate the active measurements at the table's poses, one record at a time.

    Yields (i1, i2, terms) in canonical order: odometry in list order
    (translation, the optional distance term, rotation), then active
    homing in list order (home vector, compass).  terms holds one
    CostEval per term, or its float value when derivs is false.
    Degenerate evaluations are re-raised with the offending record named.
    """
    for k, m in enumerate(graph.odometry):
        pa, pb = table[m.i1 - 1], table[m.i2 - 1]
        try:
            terms = [eval_translation(pa, pb, m.T, m.r, derivs)]
            if use_distance_error and active[k]:
                terms.append(eval_distance(pa, pb, m.sigma_e, float(np.hypot(*m.r)), derivs))
            terms.append(eval_rotation(pa, pb, _omega(m.q), m.sigma, cfg, derivs))
        except DegenerateVectorError as exc:
            raise DegenerateVectorError(
                f"odometry record {k + 1} ({m.i1}->{m.i2}): {exc}"
            ) from exc
        yield m.i1, m.i2, terms
    for k, m in enumerate(graph.homing):
        if not active[len(graph.odometry) + k]:
            continue
        pa, pb = table[m.i1 - 1], table[m.i2 - 1]
        try:
            terms = (
                eval_home_vector(pa, pb, _omega(m.alpha), m.sigma_h, cfg, derivs),
                eval_compass(pa, pb, _omega(m.psi), m.sigma_c, cfg, derivs),
            )
        except DegenerateVectorError as exc:
            raise DegenerateVectorError(
                f"homing record {k + 1} ({m.i1}->{m.i2}): {exc}"
            ) from exc
        yield m.i1, m.i2, terms


def _measurement_blocks(graph, table, cfg, active, use_distance_error):
    """(i1, i2, CostEval) per active record, its terms summed in order."""
    out = []
    for i1, i2, terms in _record_terms(graph, table, cfg, active, use_distance_error):
        ev = terms[0]
        for term in terms[1:]:
            ev += term
        out.append((i1, i2, ev))
    return out


def _free_ids(graph):
    """The free pose ids in ascending order, the state order of the loop."""
    return [pid for pid in graph.pose_ids() if pid != graph.fixed_id]


def assemble(graph, cfg, active=None, lambdas=None, use_distance_error=False, table=None):
    """(g, blocks, l_values) with blocks keyed (rank, rank) as 5x5 arrays."""
    free = _free_ids(graph)
    rank = {pid: k for k, pid in enumerate(free)}
    if table is None:
        table = graph.pose_table()
    if active is None:
        active = np.ones(len(graph.odometry) + len(graph.homing), dtype=bool)
    if lambdas is None:
        lambdas = np.zeros(len(free))
    g = np.zeros(5 * len(free))
    blocks = {}

    def block(k, l):
        if (k, l) not in blocks:
            blocks[(k, l)] = np.zeros((5, 5))
        return blocks[(k, l)]

    for i1, i2, ev in _measurement_blocks(graph, table, cfg, active, use_distance_error):
        if i1 in rank:
            r1 = rank[i1]
            g[5 * r1 : 5 * r1 + 4] += ev.grad1
            block(r1, r1)[0:4, 0:4] += ev.h11
        if i2 in rank:
            r2 = rank[i2]
            g[5 * r2 : 5 * r2 + 4] += ev.grad2
            block(r2, r2)[0:4, 0:4] += ev.h22
        if i1 in rank and i2 in rank:
            block(rank[i1], rank[i2])[0:4, 0:4] += ev.h12
            block(rank[i2], rank[i1])[0:4, 0:4] += ev.h21

    l_values = np.zeros(len(free))
    for k, pid in enumerate(free):
        u = table[pid - 1, ORI]
        lam = lambdas[k]
        l = residual(u)
        o = 5 * k
        g[o + 2 : o + 4] += lam * u
        g[o + 4] += l
        d = block(k, k)
        d[2:4, 2:4] += lam * np.eye(2)
        d[2:4, 4] += u
        d[4, 2:4] += u
        l_values[k] = l
    return g, blocks, l_values


def total_values(graph, cfg, active=None, lambdas=None, use_distance_error=False, table=None):
    if table is None:
        table = graph.pose_table()
    if active is None:
        active = np.ones(len(graph.odometry) + len(graph.homing), dtype=bool)
    F = 0.0
    for _, _, terms in _record_terms(graph, table, cfg, active, use_distance_error, False):
        for value in terms:
            F += value

    free = _free_ids(graph)
    if lambdas is None:
        lambdas = np.zeros(len(free))
    w_sum = 0.0
    l1 = 0.0
    for lam, pid in zip(lambdas, free):
        l = residual(table[pid - 1, ORI])
        w_sum += lam * l
        l1 += abs(l)
    return F, F + w_sum, l1


def init_lambdas(graph, cfg, active=None, table=None):
    if table is None:
        table = graph.pose_table()
    for pid, (_, _, u1, u2) in enumerate(table, start=1):
        n = float(np.hypot(u1, u2))
        if abs(n - 1.0) > UNIT_TOL:
            raise PreconditionError(
                f"pose {pid}: initial orientation vector must be unit, got norm {n!r}"
            )
    if active is None:
        active = np.ones(len(graph.odometry) + len(graph.homing), dtype=bool)

    grads = np.zeros((len(table), 2))
    for i1, i2, ev in _measurement_blocks(graph, table, cfg, active, False):
        grads[i1 - 1] += ev.grad1[ORI]
        grads[i2 - 1] += ev.grad2[ORI]
    return np.array(
        [-float(table[pid - 1, ORI] @ grads[pid - 1]) for pid in _free_ids(graph)]
    )


# ---------------------------------------------------------------------------
# structural checks


def _check_spd(T):
    """The checks the scalar inverse of a symmetric positive definite 2x2 matrix made."""
    T = np.asarray(T, dtype=float)
    scale = max(1.0, float(np.abs(T).max()))
    (a, b), (c, d) = T.tolist()
    if not abs(b - c) <= 1e-12 * scale:
        raise InvalidCovarianceError(f"covariance not symmetric: {T!r}")
    det = a * d - b * c
    if not (a > 0.0 and 0.0 < det < math.inf):
        raise InvalidCovarianceError(f"covariance not positive definite: {T!r}")


def validate(graph):
    """Check every structural invariant, one record at a time."""
    n = len(graph.poses)
    if n < 2:
        raise GraphValidationError(f"need at least 2 poses, got {n}")
    if graph.fixed_id not in graph.pose_ids():
        raise GraphValidationError(f"fixed pose id {graph.fixed_id} out of range 1..{n}")
    bad = ~np.isfinite(graph.pose_table()).all(axis=1)
    if bad.any():
        raise GraphValidationError(f"pose {int(bad.argmax()) + 1}: non-finite components")
    for k, m in enumerate(graph.odometry):
        where = f"odometry record {k + 1} ({m.i1}->{m.i2})"
        fields = ("r", "q", "T", "sigma", "sigma_e")
        _check_indices(where, m.i1, m.i2, n)
        _check_unit(where, m, fields, "q")
        try:
            _check_spd(m.T)
        except InvalidCovarianceError as exc:
            _reject(where, m, fields, str(exc))
        if not (0.0 < m.sigma < np.inf and 0.0 < m.sigma_e < np.inf):
            _reject(where, m, fields, "sigma and sigma_e must be positive")
        norm = float(np.hypot(m.r[0], m.r[1]))
        if not norm < np.inf:
            _reject(where, m, fields, f"r must have a finite norm, |r| = {norm!r}")
    for k, m in enumerate(graph.homing):
        where = f"homing record {k + 1} ({m.i1}->{m.i2})"
        fields = ("alpha", "psi", "sigma_h", "sigma_c")
        _check_indices(where, m.i1, m.i2, n)
        _check_unit(where, m, fields, "alpha")
        _check_unit(where, m, fields, "psi")
        if not (0.0 < m.sigma_h < np.inf and 0.0 < m.sigma_c < np.inf):
            _reject(where, m, fields, "sigma_h and sigma_c must be positive")


def _check_indices(where, i1, i2, n):
    ints = (int, np.integer)  # bool is an int subclass, but no pose index
    if not (isinstance(i1, ints) and isinstance(i2, ints) and bool not in (type(i1), type(i2))):
        raise GraphValidationError(f"{where}: pose indices must be integers")
    if not (1 <= i1 <= n and 1 <= i2 <= n):
        raise GraphValidationError(f"{where}: pose index out of range 1..{n}")
    if i1 == i2:
        raise GraphValidationError(f"{where}: measurement connects a pose to itself")


def _reject(where, m, fields, message):
    """Raise for a record that failed a check, naming a non-finite field if any."""
    for name in fields:
        value = getattr(m, name)
        if not np.all(np.isfinite(value)):
            raise GraphValidationError(f"{where}: non-finite {name}: {value!r}")
    raise GraphValidationError(f"{where}: {message}")


def _check_unit(where, m, fields, name):
    v = getattr(m, name)
    norm = float(np.hypot(v[0], v[1]))
    if not abs(norm - 1.0) <= UNIT_TOL:
        _reject(where, m, fields, f"{name} must be a unit vector, |{name}| = {norm!r}")
