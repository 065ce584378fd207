"""Unit-length constraint terms.

Each free pose i carries the constraint l(u_i) = 0.5 (u_i^T u_i - 1) = 0
with multiplier lambda_i; the Lagrangian gains w = lambda_i * l(u_i).
The derivative structure is tiny and fully dense per pose:

  d w / d u       = lambda * u^T
  d w / d lambda  = l
  d2 w / du du    = lambda * I
  d2 w / du dlambda = u
  d2 w / dlambda dlambda = 0   (this zero makes the Hessian a saddle system)
"""

from dataclasses import dataclass

import numpy as np


@dataclass
class ConstraintEval:
    """Derivative pieces of one unit-length constraint term."""

    w: float  # lambda * l, the Lagrangian contribution
    l: float  # 0.5 (u^T u - 1)
    grad_u: np.ndarray  # lambda * u
    grad_lambda: float  # = l
    h_uu: np.ndarray  # lambda * I
    h_ulambda: np.ndarray  # = u


def residual(u):
    """Constraint residual l(u) = 0.5 (u^T u - 1)."""
    return 0.5 * (float(u @ u) - 1.0)


def eval_constraint(lam, u):
    """Evaluate one constraint term and all its derivatives."""
    u = np.asarray(u, dtype=float)
    l = residual(u)
    return ConstraintEval(
        w=lam * l,
        l=l,
        grad_u=lam * u,
        grad_lambda=l,
        h_uu=lam * np.eye(2),
        h_ulambda=u.copy(),
    )
