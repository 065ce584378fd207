"""Planar orientation vectors and the small matrix algebra around them.

An orientation is a plain 2-vector u.  On the constraint manifold it has
unit length and equals (cos t, sin t) for some angle t; away from the
manifold every operation below stays well defined for any nonzero norm,
which is what lets an optimizer treat u as ordinary Euclidean
coordinates and push the unit-length requirement into a constraint.
"""

import numpy as np

from .errors import DegenerateVectorError

# Norms at or below this are treated as zero length.
DEGENERATE_NORM = 1e-9

# Mirror along the first axis.
M = np.array([[1.0, 0.0], [0.0, -1.0]])
M.setflags(write=False)


def omega(z):
    """Orientation matrix Omega(z) = [[z1, -z2], [z2, z1]].

    For unit z this is the rotation matrix with cosine z1 and sine z2.
    Linear in z, and omega(z) @ x == omega(x) @ z for all x, z.
    """
    z = np.asarray(z, dtype=float)
    return np.array([[z[0], -z[1]], [z[1], z[0]]])


def omega_bar(z):
    """Mirrored orientation matrix [[z1, z2], [z2, -z1]] = omega(z) @ M.

    Symmetric, and satisfies omega(z).T @ x == omega_bar(x) @ z, which is
    the Jacobian identity d/dz (omega(z).T @ x) = omega_bar(x).
    """
    z = np.asarray(z, dtype=float)
    return np.array([[z[0], z[1]], [z[1], -z[0]]])


def norm(z):
    """Euclidean length of a 2-vector."""
    return float(np.hypot(z[0], z[1]))


def from_angle(theta):
    """Unit orientation vector (cos theta, sin theta)."""
    return np.array([np.cos(theta), np.sin(theta)])


def to_angle(u):
    """Angle of an orientation vector (any nonzero norm)."""
    if norm(u) <= DEGENERATE_NORM:
        raise DegenerateVectorError("angle of zero-length vector is undefined")
    return float(np.arctan2(u[1], u[0]))
