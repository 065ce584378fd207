"""Cost functions over pose pairs with exact first and second derivatives.

A pose is a position x (2-vector) plus an orientation vector u
(2-vector, unit length only on the constraint manifold).  Five costs are
defined, each over an ordered pose pair (p, p'):

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

each weighted by gamma/sigma^2 of the respective measurement.  For the
home vector the role of u' is taken by the normalized position
difference delta0 = (x' - x)/|x' - x|, and the first-form offset is
t1 + (1 - t1)|u| since |delta0| = 1 identically.

Every evaluator returns the value together with all gradient and
Hessian blocks over the stacked pose-pair coordinates [x (2), u (2)];
with derivs=False it returns the float value alone and skips all
derivative work, so the merit and the derivative oracle run the same
value code as assembly.
Blocks are written exactly in the form in which they were derived (no
re-simplification), so each term can be checked in isolation against
the finite-difference oracle.  Only the forward mixed block
d^2 f / (dp dp') is stored; the reverse block is always its transpose.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateVectorError, InvalidCovarianceError
from .orvec import DEGENERATE_NORM, omega, omega_bar

# Slices of the stacked per-pose coordinates [x, u].
POS = slice(0, 2)
ORI = slice(2, 4)


@dataclass
class Pose:
    """Planar pose: position x and orientation vector u, world frame.

    u need not be unit during optimization; the unit-length requirement
    is enforced by the solver's constraints, not by this type.
    """

    x: np.ndarray
    u: np.ndarray

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float).copy()
        self.u = np.asarray(self.u, dtype=float).copy()
        if self.x.shape != (2,) or self.u.shape != (2,):
            raise ValueError("pose components must be 2-vectors")

    def copy(self):
        return Pose(self.x, self.u)


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
            raise ValueError(f"unknown rotational cost form {self.form!r}")
        if self.t1 not in (0, 1):
            raise ValueError(f"t1 must be 0 or 1, got {self.t1!r}")
        if not self.gamma > 0.0:
            raise ValueError(f"gamma must be positive, got {self.gamma!r}")


@dataclass
class CostEval:
    """Value and derivative blocks of one cost term over a pose pair.

    grad1/grad2 are the gradients with respect to the stacked
    coordinates [x, u] of the first/second pose; h11, h12, h22 the
    corresponding Hessian blocks, h12 being d^2 f / (dp dp').
    """

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


def _checked_norm(z, what):
    n = float(np.hypot(z[0], z[1]))
    if n <= DEGENERATE_NORM:
        raise DegenerateVectorError(f"{what} has norm {n!r}, below {DEGENERATE_NORM}")
    return n


def _spd_inverse(T):
    """Inverse of a symmetric positive definite 2x2 matrix."""
    T = np.asarray(T, dtype=float)
    scale = max(1.0, float(np.abs(T).max()))
    if abs(T[0, 1] - T[1, 0]) > 1e-12 * scale:
        raise InvalidCovarianceError(f"covariance not symmetric: {T!r}")
    det = T[0, 0] * T[1, 1] - T[0, 1] * T[1, 0]
    if T[0, 0] <= 0.0 or det <= 0.0:
        raise InvalidCovarianceError(f"covariance not positive definite: {T!r}")
    return np.array([[T[1, 1], -T[0, 1]], [-T[1, 0], T[0, 0]]]) / det


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
    p, pp : Pose
        First and second pose; the orientation of pp does not enter.
    T : (2, 2) ndarray
        Symmetric positive definite covariance of r.
    r : (2,) ndarray
        Measured translation expressed in the frame of the first pose.
    derivs : bool
        When false, return only the float value.
    """
    Tinv = _spd_inverse(T)
    delta = pp.x - p.x
    U = omega(p.u)
    e = U.T @ delta - r
    value = 0.5 * float(e @ Tinv @ e)
    if not derivs:
        return value
    D = omega_bar(delta)
    w = Tinv @ e

    out = CostEval(value=value)
    out.grad1[POS] = -U @ w
    out.grad1[ORI] = D @ w
    out.grad2[POS] = U @ w

    UTinv = U @ Tinv
    core = UTinv @ U.T  # U T^-1 U^T
    Ow = omega(w)

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

    Weighted by 1/sigma_e.  Orientations do not enter.  Raises
    DegenerateVectorError when the two positions (numerically) coincide.
    With derivs false, returns only the float value.
    """
    if not sigma_e > 0.0:
        raise ValueError(f"sigma_e must be positive, got {sigma_e!r}")
    delta = pp.x - p.x
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

    Q is the orientation matrix of the measured unit rotation vector
    (frame p to frame pp); positions do not enter.
    """
    if not sigma > 0.0:
        raise ValueError(f"sigma must be positive, got {sigma!r}")
    return eval_generic_rotational(Q, p.u, pp.u, cfg, cfg.gamma / sigma**2, derivs)


def eval_compass(p, pp, Psi, sigma_c, cfg, derivs=True):
    """Compass cost against the measured relative orientation matrix Psi.

    Identical functional form to the rotation cost; Psi comes from a
    visual compass instead of odometry.
    """
    if not sigma_c > 0.0:
        raise ValueError(f"sigma_c must be positive, got {sigma_c!r}")
    return eval_generic_rotational(Psi, p.u, pp.u, cfg, cfg.gamma / sigma_c**2, derivs)


# ---------------------------------------------------------------------------
# home vector


def eval_home_vector(p, pp, A, sigma_h, cfg, derivs=True):
    """Home-vector cost with all derivative blocks.

    A is the orientation matrix of the measured unit direction from
    pose p toward pose pp, expressed in frame p.  The role of the
    second orientation vector of the rotational form is taken by the
    normalized position difference, so this cost couples x, x' and u;
    the orientation of pp never enters.  The first-form offset is
    t1 + (1 - t1)|u|.  With derivs false, returns only the float value.
    """
    if not sigma_h > 0.0:
        raise ValueError(f"sigma_h must be positive, got {sigma_h!r}")
    u = p.u
    delta = pp.x - p.x
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
