"""Gradient and bordered-Hessian assembly of the Lagrangian.

The Lagrangian is L = F + sum_i lambda_i l(u_i) over the free poses,
where F sums all active measurement costs.  Every evaluation reads the
poses from a pose table (graph.py), which defaults to the graph's own
poses; the graph supplies the measurements and the anchor.  One walk
over the active measurements (_record_terms) evaluates each record's
cost terms in a fixed order; assembly, the value-only merit and the
multiplier initialization all consume it.  Assembly scatters each
record's summed 4x4/4-vector blocks to the free-pose blocks they touch;
per-pose constraint terms are added afterwards.  The result is a
block-sparse symmetric system whose lambda-lambda diagonal entries are
exactly zero (a bordered saddle system).
"""

from dataclasses import dataclass

import numpy as np
from scipy import sparse as sp

from .constraints import eval_constraint, residual
from .costs import (
    ORI,
    eval_compass,
    eval_distance,
    eval_home_vector,
    eval_rotation,
    eval_translation,
)
from .errors import DegenerateVectorError, PreconditionError
from .graph import UNIT_TOL, StateLayout
from .orvec import omega


@dataclass
class ActiveMask:
    """Flags for measurements not suppressed by the distance threshold.

    homing masks whole homing measurements; distance masks only the
    optional traveled-distance term of odometry measurements (their
    translation and rotation terms are never suppressed).
    """

    homing: np.ndarray
    distance: np.ndarray

    @classmethod
    def all_active(cls, graph):
        return cls(
            homing=np.ones(len(graph.homing), dtype=bool),
            distance=np.ones(len(graph.odometry), dtype=bool),
        )


class SparseSymmetricSystem:
    """Block-sparse bordered Hessian H, gradient g, and the L/F values.

    Blocks are 5x5 per free-pose pair, keyed by (rank, rank) in state
    layout order; only pairs sharing a measurement (plus the diagonal)
    exist.  Row/column order within a block is [x (2), u (2), lambda].
    """

    def __init__(self, layout):
        self.layout = layout
        self.dim = layout.dim
        self.blocks = {}
        self.g = np.zeros(self.dim)
        self.F = 0.0
        self.L = 0.0
        self.l_values = np.zeros(len(layout.free))

    def block(self, k, l):
        b = self.blocks.get((k, l))
        if b is None:
            b = self.blocks[(k, l)] = np.zeros((5, 5))
        return b

    def max_constraint(self):
        return float(np.max(np.abs(self.l_values))) if self.l_values.size else 0.0

    def to_dense(self):
        H = np.zeros((self.dim, self.dim))
        for (k, l), b in self.blocks.items():
            H[5 * k : 5 * k + 5, 5 * l : 5 * l + 5] = b
        return H

    def to_csr(self):
        n = len(self.blocks)
        rows = np.empty(25 * n, dtype=np.int64)
        cols = np.empty(25 * n, dtype=np.int64)
        data = np.empty(25 * n)
        i, j = np.meshgrid(np.arange(5), np.arange(5), indexing="ij")
        for idx, ((k, l), b) in enumerate(self.blocks.items()):
            s = slice(25 * idx, 25 * idx + 25)
            rows[s] = (5 * k + i).ravel()
            cols[s] = (5 * l + j).ravel()
            data[s] = b.ravel()
        return sp.coo_matrix((data, (rows, cols)), shape=(self.dim, self.dim)).tocsr()


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
            if use_distance_error and active.distance[k]:
                terms.append(eval_distance(pa, pb, m.sigma_e, m.rho, derivs))
            terms.append(eval_rotation(pa, pb, omega(m.q), m.sigma, cfg, derivs))
        except DegenerateVectorError as exc:
            raise DegenerateVectorError(
                f"odometry record {k + 1} ({m.i1}->{m.i2}): {exc}"
            ) from exc
        yield m.i1, m.i2, terms
    for k, m in enumerate(graph.homing):
        if not active.homing[k]:
            continue
        pa, pb = table[m.i1 - 1], table[m.i2 - 1]
        try:
            terms = (
                eval_home_vector(pa, pb, omega(m.alpha), m.sigma_h, cfg, derivs),
                eval_compass(pa, pb, omega(m.psi), m.sigma_c, cfg, derivs),
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


def assemble(graph, cfg, active=None, lambdas=None, use_distance_error=False, table=None):
    """Assemble gradient, bordered Hessian, and the L and F values.

    Measurements touching the fixed pose in one slot still contribute
    to the other slot's blocks; the fixed pose's own rows and columns
    are dropped entirely.
    """
    layout = StateLayout(graph)
    if table is None:
        table = graph.pose_table()
    if active is None:
        active = ActiveMask.all_active(graph)
    if lambdas is None:
        lambdas = np.zeros(len(layout.free))
    system = SparseSymmetricSystem(layout)
    free = set(layout.free)

    for i1, i2, ev in _measurement_blocks(graph, table, cfg, active, use_distance_error):
        system.F += ev.value
        if i1 in free:
            o1, r1 = layout.offset(i1), layout.rank(i1)
            system.g[o1 : o1 + 4] += ev.grad1
            system.block(r1, r1)[0:4, 0:4] += ev.h11
        if i2 in free:
            o2, r2 = layout.offset(i2), layout.rank(i2)
            system.g[o2 : o2 + 4] += ev.grad2
            system.block(r2, r2)[0:4, 0:4] += ev.h22
        if i1 in free and i2 in free:
            system.block(layout.rank(i1), layout.rank(i2))[0:4, 0:4] += ev.h12
            system.block(layout.rank(i2), layout.rank(i1))[0:4, 0:4] += ev.h21

    w_sum = 0.0
    for k, pid in enumerate(layout.free):
        ce = eval_constraint(lambdas[k], table[pid - 1, ORI])
        w_sum += ce.w
        o = layout.offset(pid)
        system.g[o + 2 : o + 4] += ce.grad_u
        system.g[o + 4] += ce.grad_lambda
        d = system.block(k, k)
        d[2:4, 2:4] += ce.h_uu
        d[2:4, 4] += ce.h_ulambda
        d[4, 2:4] += ce.h_ulambda
        system.l_values[k] = ce.l

    system.L = system.F + w_sum
    return system


def total_values(graph, cfg, active=None, lambdas=None, use_distance_error=False, table=None):
    """Value-only evaluation of (F, L, sum |l_i|), same masking as assemble."""
    if table is None:
        table = graph.pose_table()
    if active is None:
        active = ActiveMask.all_active(graph)
    F = 0.0
    for _, _, terms in _record_terms(graph, table, cfg, active, use_distance_error, False):
        for value in terms:
            F += value

    free = graph.free_ids()
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
    """Initial multipliers lambda_i = -u_i^T g_i from the cost gradient.

    g_i is the gradient of the total cost (constraints excluded) with
    respect to u_i at the table's poses.  The formula assumes unit
    initial orientation vectors, which is checked here; the distance
    error has no orientation gradient and therefore never contributes.

    Returns one multiplier per free pose, in state-layout order
    (ascending pose id, fixed pose excluded).
    """
    if table is None:
        table = graph.pose_table()
    for pid, (_, _, u1, u2) in enumerate(table, start=1):
        n = float(np.hypot(u1, u2))
        if abs(n - 1.0) > UNIT_TOL:
            raise PreconditionError(
                f"pose {pid}: initial orientation vector must be unit, got norm {n!r}"
            )
    if active is None:
        active = ActiveMask.all_active(graph)

    grads = np.zeros((len(table), 2))
    for i1, i2, ev in _measurement_blocks(graph, table, cfg, active, False):
        grads[i1 - 1] += ev.grad1[ORI]
        grads[i2 - 1] += ev.grad2[ORI]
    return np.array(
        [-float(table[pid - 1, ORI] @ grads[pid - 1]) for pid in graph.free_ids()]
    )


def merit(graph, cfg, active, mu, lambdas=None, use_distance_error=False, table=None):
    """Augmented-Lagrangian merit: L plus mu times the constraint L1 norm."""
    if not mu > 0.0:
        raise ValueError(f"mu must be positive, got {mu!r}")
    _, L, l1 = total_values(graph, cfg, active, lambdas, use_distance_error, table)
    return L + mu * l1
