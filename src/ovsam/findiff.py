"""Central finite differences, the reference for every analytic derivative.

Step sizes are scaled per coordinate as h * max(1, |x_i|) so that the
scheme stays accurate for both small and large coordinate magnitudes.
With the default h = 1e-6 the truncation plus roundoff error of the
gradient is around 1e-9 relative for smooth, well-scaled functions,
comfortably below the 1e-5 tolerance used when validating gradients.
"""

import numpy as np

from .errors import OracleError


def _probe(f, x, i, hi):
    xp = x.copy()
    xm = x.copy()
    xp[i] += hi
    xm[i] -= hi
    fp = np.asarray(f(xp), dtype=float)
    fm = np.asarray(f(xm), dtype=float)
    if not (np.all(np.isfinite(fp)) and np.all(np.isfinite(fm))):
        raise OracleError(f"non-finite function value when probing coordinate {i}")
    return fp, fm


def fd_gradient(f, x, h=1e-6):
    """Central-difference gradient of a scalar function f at x."""
    return fd_jacobian(f, x, h)[0]


def fd_jacobian(F, x, h=1e-6):
    """Central-difference Jacobian of a vector function F at x.

    Returns a (len(F(x)), len(x)) array with J[i, j] = dF_i / dx_j.
    """
    x = np.asarray(x, dtype=float)
    cols = []
    for i in range(x.size):
        hi = h * max(1.0, abs(x[i]))
        fp, fm = _probe(F, x, i, hi)
        cols.append((fp - fm) / (2.0 * hi))
    return np.column_stack(cols)
