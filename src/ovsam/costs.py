"""Cost functions over pose pairs with exact first and second derivatives.

Every kernel evaluates one cost family for a batch of K pose pairs at
once.  A pose enters as the stacked 4-vector [x, u]: position x
(2-vector) and orientation vector u (2-vector, unit length only on the
constraint manifold), so a batch of first poses p is a (K, 4) array read
as p[:, POS] and p[:, ORI]; rows of the pose table are such vectors.
Per-record measurement data comes stacked the same way: (K, 2) vectors,
(K, 2, 2) matrices and (K,) scalars.  Five costs are defined, each over
an ordered pose pair (p, p'):

  translation   Mahalanobis error of the odometry translation r measured
                in frame p:  0.5 (d - r)^T T^-1 (d - r),
                d = Omega(u)^T (x' - x).
  distance      scalar error of the traveled distance against rho = |r|:
                0.5 (1/sigma_e) (|x' - x| - rho)^2.
  rotation      rotational error against the odometry rotation matrix Q.
  compass       rotational error against a measured relative orientation
                Psi (same functional form as rotation).
  home vector   rotational error of the measured direction A from pose p
                toward pose p', expressed in frame p.

The rotational costs come in two functional forms.  With Phi the
orientation matrix of the measurement:

  first   t1 + (1 - t1) |u| |u'| - (Phi u)^T u',   t1 in {0, 1}
  second  1 - (Phi u/|u|)^T (u'/|u'|)

each weighted by gamma/sigma^2 of the respective measurement
(term_weight).  For the home vector the role of u' is taken by the
normalized position difference delta0 = (x' - x)/|x' - x|, and the
first-form offset is t1 + (1 - t1)|u| since |delta0| = 1 identically.

Every kernel returns a CostEval holding the K values together with all
gradient and Hessian blocks over the stacked pose-pair coordinates
[x (2), u (2)]; with derivs=False it returns the (K,) values alone and
skips all derivative work, so the merit and the derivative oracle run
the same value code as assembly.  Blocks are written exactly in the form
in which they were derived (no re-simplification), so each term can be
checked in isolation against the finite-difference oracle.  Only the
forward mixed block d^2 f / (dp dp') is stored; the reverse block is
always its transpose.

Each record's numbers are those of the single-pair formulas: every
product of small matrices is a batched matmul whose operands have the
per-record memory layout of the single-pair operands (a transpose is a
transposed view, never a copy), and squares of norms go through libm pow
(np.float_power) as a float's ** 2 does.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateVectorError, InvalidCovarianceError, PreconditionError
from .orvec import DEGENERATE_NORM, omega, omega_bar, rowdot

# Slices of the stacked per-pose coordinates [x, u].
POS = slice(0, 2)
ORI = slice(2, 4)

_I2 = np.eye(2)


@dataclass(frozen=True)
class RotCostConfig:
    """Shape parameters shared by the rotational costs.

    form selects the functional form ('first' or 'second'), t1 the
    offset variant of the first form (ignored by the second), and gamma
    is a common weight factor on all rotational and homing terms.
    """

    form: str = "first"
    t1: int = 1
    gamma: float = 1.0

    def __post_init__(self):
        if self.form not in ("first", "second"):
            raise ValueError(f"form must be 'first' or 'second', got {self.form!r}")
        if self.t1 not in (0, 1):
            raise ValueError(f"t1 must be 0 or 1, got {self.t1!r}")
        if not 0.0 < self.gamma < math.inf:
            raise ValueError(f"gamma must be finite and positive, got {self.gamma!r}")

    @property
    def uses_norms(self):
        """Whether the form divides by or offsets with orientation norms."""
        return self.form == "second" or self.t1 == 0


@dataclass
class CostEval:
    """Values and derivative blocks of K cost terms over K pose pairs.

    value is (K,); grad1/grad2 (K, 4) are the gradients with respect to
    the stacked coordinates [x, u] of the first/second pose; h11, h12,
    h22 (K, 4, 4) the corresponding Hessian blocks, h12 being
    d^2 f / (dp dp').
    """

    value: np.ndarray
    grad1: np.ndarray
    grad2: np.ndarray
    h11: np.ndarray
    h12: np.ndarray
    h22: np.ndarray

    @property
    def h21(self):
        return np.swapaxes(self.h12, -1, -2)

    def __iadd__(self, other):
        self.value += other.value
        self.grad1 += other.grad1
        self.grad2 += other.grad2
        self.h11 += other.h11
        self.h12 += other.h12
        self.h22 += other.h22
        return self

    @classmethod
    def zeros(cls, value):
        """Values with all-zero derivative blocks of matching batch size."""
        k = len(value)
        return cls(value, *np.zeros((2, k, 4)), *np.zeros((3, k, 4, 4)))


def first_failure(failed):
    """(k, j): the first record k that fails any check and the first check j it fails.

    failed holds a boolean column per check, in check order; None if all pass.
    """
    failed = np.vstack(failed)
    if not failed.any():
        return None
    k = int(failed.any(axis=0).argmax())
    return k, int(failed[:, k].argmax())


def _checked_weight(weight, sigma, failed, messages):
    """weight, unless a position fails a check.

    The checks are failed, then the weight's own: finite and positive.  The
    first failing position raises PreconditionError, indexed by it, with
    the message of its first failing check formatting its sigma.
    """
    hit = first_failure(failed + [~((0.0 < weight) & (weight < math.inf))])
    if hit is None:
        return weight
    k, j = hit
    raise PreconditionError(messages[j].format(float(sigma.flat[k])), index=k)


def term_weight(gamma, sigma):
    """Weights gamma / sigma^2 of rotational, compass or home-vector terms.

    sigma is one standard deviation or an array of them.  Raises
    PreconditionError (a ValueError) unless every weight is finite and
    positive (_checked_weight): sigma**2 underflows to 0 for sigma below
    about 1e-162 and overflows above about 1e154, and a large gamma
    overflows the quotient.
    """
    sigma = np.asarray(sigma, dtype=float)
    with np.errstate(all="ignore"):
        weight = gamma / np.float_power(sigma, 2.0)  # libm pow, as a float's ** 2
    positive = "standard deviation must be positive, got {!r}"
    finite = f"weight gamma / sigma**2 = {gamma!r} / {{!r}}**2 is not finite and positive"
    return _checked_weight(weight, sigma, [~(sigma > 0.0)], [positive, finite])


def distance_weight(sigma_e):
    """Weights 1 / sigma_e of traveled-distance terms, checked as term_weight's.

    1 / sigma_e overflows for sigma_e below about 5.6e-309.
    """
    sigma_e = np.asarray(sigma_e, dtype=float)
    with np.errstate(all="ignore"):
        weight = 1.0 / sigma_e
    finite = "weight 1 / sigma_e = 1 / {!r} is not finite and positive"
    return _checked_weight(weight, sigma_e, [], [finite])


def _spd_inverse(T):
    """Inverses of a (K, 2, 2) stack of symmetric positive definite matrices.

    Raises InvalidCovarianceError, indexed by its position, for the first that is
    not symmetric, or not positive definite with a finite inverse (NaN and inf fail).
    """
    T = np.asarray(T, dtype=float)
    a, b, c, d = T.reshape(-1, 4).T
    with np.errstate(all="ignore"):
        scale = np.fmax(1.0, np.abs(T).max(axis=(1, 2)))  # fmax skips NaN, as max(1.0, x)
        symmetric = np.abs(b - c) <= 1e-12 * scale
        det = a * d - b * c
        Tinv = np.stack((d, -b, -c, a), axis=1).reshape(-1, 2, 2) / det[:, None, None]
    posdef = (a > 0.0) & (0.0 < det) & (det < math.inf) & np.isfinite(Tinv).all(axis=(1, 2))
    hit = first_failure((~symmetric, ~posdef))
    if hit is None:
        return Tinv
    k, j = hit
    what = ("symmetric", "positive definite")[j]
    raise InvalidCovarianceError(f"covariance not {what}: {T[k]!r}", index=k)


# ---------------------------------------------------------------------------
# batched small-matrix algebra, one record per leading index


def _T(M):
    """Per-record transpose, as a view."""
    return M.transpose(0, 2, 1)


def _mv(M, v):
    """Per-record matrix @ vector."""
    return (M @ v[:, :, None])[:, :, 0]


def _outer(a, b):
    return a[:, :, None] * b[:, None, :]


def _col(v):
    """(K,) scalars (or one scalar) shaped to scale (K, 2) vectors."""
    return np.reshape(v, (-1, 1))


def _mat(v):
    """(K,) scalars (or one scalar) shaped to scale (K, 2, 2) matrices."""
    return np.reshape(v, (-1, 1, 1))


def _norms(z):
    return np.hypot(z[:, 0], z[:, 1])


def _check_norms(*checks):
    """Raise DegenerateVectorError, indexed by its batch position, for the
    first record with a zero-length vector, naming the first check it fails.

    checks are (norms, what) pairs in the order the vectors are normalized.
    """
    hit = first_failure([norms <= DEGENERATE_NORM for norms, _ in checks])
    if hit is not None:
        k, j = hit
        norms, what = checks[j]
        raise DegenerateVectorError(
            f"{what} has norm {float(norms[k])!r}, below {DEGENERATE_NORM}", index=k
        )


def _proj_curvature(a, z0, nz):
    """Curvature matrices S with d/dz [ (I - z0 z0^T)/|z| a ] = -S.

    z0 is z/|z|, nz is |z|, and a is held constant.  Each S is symmetric.
    """
    return (
        _outer(a, z0) + _outer(z0, a) + _mat(rowdot(z0, a)) * (_I2 - 3.0 * _outer(z0, z0))
    ) / _mat(np.float_power(nz, 2.0))


# ---------------------------------------------------------------------------
# translation and distance


def eval_translation(p, pp, Tinv, r, derivs=True):
    """Mahalanobis translation cost with all derivative blocks.

    Parameters
    ----------
    p, pp : (K, 4) ndarray
        First and second poses as [x, u]; the orientation of pp does not
        enter.
    Tinv : (K, 2, 2) ndarray
        Inverses of the symmetric positive definite covariances of r
        (_spd_inverse).
    r : (K, 2) ndarray
        Measured translations expressed in the frame of the first pose.
    derivs : bool
        When false, return only the (K,) values.
    """
    delta = pp[:, POS] - p[:, POS]
    U = omega(p[:, ORI])
    e = _mv(_T(U), delta) - r
    value = 0.5 * rowdot((e[:, None, :] @ Tinv)[:, 0, :], e)
    if not derivs:
        return value
    D = omega_bar(delta)
    w = _mv(Tinv, e)

    out = CostEval.zeros(value)
    out.grad1[:, POS] = _mv(-U, w)
    out.grad1[:, ORI] = _mv(D, w)
    out.grad2[:, POS] = _mv(U, w)

    UTinv = U @ Tinv
    core = UTinv @ _T(U)  # U T^-1 U^T
    Ow = omega(w)

    out.h11[:, POS, POS] = core
    out.h11[:, POS, ORI] = -(UTinv @ D + Ow)
    out.h11[:, ORI, POS] = _T(out.h11[:, POS, ORI])
    out.h11[:, ORI, ORI] = D @ Tinv @ D
    out.h12[:, POS, POS] = -core
    out.h12[:, ORI, POS] = _T(UTinv @ D + Ow)
    out.h22[:, POS, POS] = core
    return out


def eval_distance(p, pp, sigma_e, rho, derivs=True):
    """Scalar traveled-distance cost with all derivative blocks.

    p and pp are (K, 4) [x, u] poses; sigma_e and rho are (K,), each term
    weighted by 1/sigma_e.  Orientations do not enter.  Raises
    DegenerateVectorError when two positions (numerically) coincide.
    With derivs false, returns only the (K,) values.
    """
    if not np.all(sigma_e > 0.0):
        raise ValueError(f"sigma_e must be positive, got {sigma_e!r}")
    delta = pp[:, POS] - p[:, POS]
    nd = _norms(delta)
    _check_norms((nd, "pose position difference"))
    resid = nd - rho
    value = 0.5 * np.float_power(resid, 2.0) / sigma_e
    if not derivs:
        return value
    d0 = delta / _col(nd)
    winv = 1.0 / sigma_e

    out = CostEval.zeros(value)
    g = _col(winv * resid) * d0
    out.grad1[:, POS] = -g
    out.grad2[:, POS] = g

    # d^2/d(delta)^2 [0.5 (|delta| - rho)^2] = I - rho (I - d0 d0^T)/|delta|
    P = (_I2 - _outer(d0, d0)) / _mat(nd)
    core = _mat(winv) * (_I2 - _mat(rho) * P)
    out.h11[:, POS, POS] = core
    out.h12[:, POS, POS] = -core
    out.h22[:, POS, POS] = core
    return out


# ---------------------------------------------------------------------------
# generic rotational kernel over (u, u'); shared by rotation and compass


def eval_generic_rotational(Phi, u, up, cfg, weight=1.0, derivs=True):
    """Rotational costs s (first form) or s-bar (second form), times weight.

    Phi is (K, 2, 2), u and up are (K, 2), weight is (K,) or one scalar.
    Returns the (K,) values when derivs is false, else a CostEval whose
    position blocks are zero.
    """
    Phiu = _mv(Phi, u)
    c = rowdot(Phiu, up)
    if cfg.uses_norms:
        nu, nup = _norms(u), _norms(up)
        _check_norms((nu, "orientation vector"), (nup, "orientation vector"))
    if cfg.form == "second":
        value = 1.0 - c / (nu * nup)
    elif cfg.t1 == 1:
        value = 1.0 - c
    else:
        value = nu * nup - c
    if not derivs:
        return weight * value

    PhiT = _T(Phi)
    if cfg.form == "second":
        u0 = u / _col(nu)
        up0 = up / _col(nup)
        Pu = (_I2 - _outer(u0, u0)) / _mat(nu)
        Pup = (_I2 - _outer(up0, up0)) / _mat(nup)
        gu = -_mv(Pu @ PhiT, up0)
        gup = -_mv(Pup @ Phi, u0)
        huu = _proj_curvature(_mv(PhiT, up0), u0, nu)
        huup = -Pu @ PhiT @ Pup
        hupup = _proj_curvature(_mv(Phi, u0), up0, nup)
    else:
        gu = -_mv(PhiT, up)
        gup = -Phiu
        huu = hupup = np.zeros_like(Phi)
        huup = -PhiT
        if cfg.t1 == 0:
            u0 = u / _col(nu)
            up0 = up / _col(nup)
            gu = gu + _col(nup) * u0
            gup = gup + _col(nu) * up0
            huu = huu + _mat(nup / nu) * (_I2 - _outer(u0, u0))
            huup = huup + _outer(u0, up0)
            hupup = hupup + _mat(nu / nup) * (_I2 - _outer(up0, up0))

    out = CostEval.zeros(weight * value)
    out.grad1[:, ORI] = _col(weight) * gu
    out.grad2[:, ORI] = _col(weight) * gup
    out.h11[:, ORI, ORI] = _mat(weight) * huu
    out.h12[:, ORI, ORI] = _mat(weight) * huup
    out.h22[:, ORI, ORI] = _mat(weight) * hupup
    return out


def eval_rotation(p, pp, Phi, weight, cfg, derivs=True):
    """Rotational costs of the orientations of p and pp against Phi.

    p and pp are (K, 4) [x, u] poses, positions do not enter.  Phi holds
    the orientation matrices of the measured unit rotation vectors
    (frame p to frame pp): Omega(q) for odometry, Omega(psi) for the
    visual compass, which has the identical functional form.  weight is
    term_weight(gamma, sigma) per record.
    """
    return eval_generic_rotational(Phi, p[:, ORI], pp[:, ORI], cfg, weight, derivs)


eval_compass = eval_rotation


# ---------------------------------------------------------------------------
# home vector


def eval_home_vector(p, pp, A, weight, cfg, derivs=True):
    """Home-vector costs with all derivative blocks.

    p and pp are (K, 4) [x, u] poses.  A holds the orientation matrices
    of the measured unit directions from pose p toward pose pp, expressed
    in frame p, and weight is term_weight(gamma, sigma_h) per record.
    The role of the second orientation vector of the rotational form is
    taken by the normalized position difference, so this cost couples
    x, x' and u; the orientation of pp never enters.  The first-form
    offset is t1 + (1 - t1)|u|.  With derivs false, returns only the
    (K,) values.
    """
    u = p[:, ORI]
    delta = pp[:, POS] - p[:, POS]
    nd = _norms(delta)
    if cfg.uses_norms:
        nu = _norms(u)
        _check_norms((nd, "pose position difference"), (nu, "orientation vector"))
    else:
        _check_norms((nd, "pose position difference"))
    d0 = delta / _col(nd)
    w = weight
    a = _mv(A, u)
    c = rowdot(a, d0)
    if cfg.form == "second":
        value = w * (1.0 - c / nu)
    elif cfg.t1 == 1:
        value = w * (1.0 - c)
    else:
        value = w * (nu - c)
    if not derivs:
        return value
    Pd = (_I2 - _outer(d0, d0)) / _mat(nd)
    AT = _T(A)
    w1, w2 = _col(w), _mat(w)

    out = CostEval.zeros(value)
    if cfg.uses_norms:
        u0 = u / _col(nu)
    if cfg.form == "second":
        Pu = (_I2 - _outer(u0, u0)) / _mat(nu)
        a = _mv(A, u0)
    S = _proj_curvature(a, d0, nd)

    out.grad1[:, POS] = w1 * _mv(Pd, a)
    out.grad2[:, POS] = -w1 * _mv(Pd, a)
    out.h11[:, POS, POS] = w2 * S
    out.h12[:, POS, POS] = -w2 * S
    out.h22[:, POS, POS] = w2 * S

    if cfg.form == "second":
        out.grad1[:, ORI] = -w1 * _mv(Pu @ AT, d0)
        out.h11[:, POS, ORI] = w2 * (Pd @ A @ Pu)
        out.h11[:, ORI, ORI] = w2 * _proj_curvature(_mv(AT, d0), u0, nu)
        out.h12[:, ORI, POS] = -w2 * (Pu @ AT @ Pd)
    else:
        out.grad1[:, ORI] = -w1 * _mv(AT, d0)
        out.h11[:, POS, ORI] = w2 * (Pd @ A)
        out.h12[:, ORI, POS] = -w2 * (AT @ Pd)
        if cfg.t1 == 0:
            out.grad1[:, ORI] += w1 * u0
            out.h11[:, ORI, ORI] += w2 * (_I2 - _outer(u0, u0)) / _mat(nu)
    out.h11[:, ORI, POS] = _T(out.h11[:, POS, ORI])
    return out
