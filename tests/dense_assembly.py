"""Brute-force dense assembly, the oracle for the sparse scatter.

assemble_dense loops over all free-pose pairs (k, l) and matches each
record's pose rows against them, instead of scattering record-wise as
ovsam.assembly.assemble does.  It takes each active record's full
blocks as the per-record loop sums them (loop_reference, which the
batched sums reproduce bitwise) and adds them in the same per-entry
order, record by record, so the two agree bitwise.  The F, L and
sum |l_i| values have their oracle in loop_reference.total_values.
dense_matrix reads an assembled system's H + R from its values column
by column through the CSC indices and indptr, independently of the
dense scatter (ScatterPlan.flat) that solver.newton_step uses.
"""

import loop_reference as ref
import numpy as np

from ovsam.constraints import eval_constraint
from ovsam.costs import ORI


def record_rows(tables):
    """(K, 2) 0-based pose rows (i1, i2) of the odometry records, then the homing records."""
    return np.column_stack((tables.i1, tables.i2))


def dense_matrix(system, eta_w=0.0, eta_a=0.0):
    """The system's H + R as a dense array, R repeating
    diag(eta_w, eta_w, eta_w, eta_w, -eta_a) per free pose."""
    plan, dim = system.plan, system.dim
    H = np.zeros((dim, dim))
    for col in range(dim):
        stored = slice(plan.indptr[col], plan.indptr[col + 1])
        H[plan.indices[stored], col] = system.values[stored]
    H[np.diag_indices(dim)] += np.tile([eta_w, eta_w, eta_w, eta_w, -eta_a], dim // 5)
    return H


def regularized_values(system, eta_w=0.0, eta_a=0.0):
    """The entries of dense_matrix(system, eta_w, eta_a) at the system's
    stored entries, in the order of its values."""
    plan = system.plan
    cols = np.repeat(np.arange(system.dim), np.diff(plan.indptr))
    return dense_matrix(system, eta_w, eta_a)[plan.indices, cols]


def assemble_dense(graph, cfg, active=None, lambdas=None, use_distance_error=False):
    """Dense (H, g) at the graph's own poses."""
    free = [pid for pid in graph.pose_ids() if pid != graph.fixed_id]
    dim = 5 * len(free)
    table = graph.pose_table()
    if lambdas is None:
        lambdas = np.zeros(len(free))
    if active is None:
        active = np.ones(len(graph.odometry) + len(graph.homing), dtype=bool)
    blocks = ref._measurement_blocks(graph, table, cfg, active, use_distance_error)
    grads = [(ev.grad1, ev.grad2) for _, _, ev in blocks]
    hessians = [((ev.h11, ev.h12), (ev.h21, ev.h22)) for _, _, ev in blocks]
    records = [(j, (i1, i2)) for j, (i1, i2, _) in enumerate(blocks)]

    H = np.zeros((dim, dim))
    g = np.zeros(dim)

    for k, kp in enumerate(free):
        ok = 5 * k
        for j, pair in records:
            for a, ia in enumerate(pair):
                if kp == ia:
                    g[ok : ok + 4] += grads[j][a]
        for l, lp in enumerate(free):
            ol = 5 * l
            h = H[ok : ok + 4, ol : ol + 4]
            for j, pair in records:
                for a, ia in enumerate(pair):
                    for b, ib in enumerate(pair):
                        if kp == ia and lp == ib:
                            h += hessians[j][a][b]

    ce = eval_constraint(lambdas, table[np.subtract(free, 1), ORI])
    for k in range(len(free)):
        o = 5 * k
        g[o + 2 : o + 4] += ce.grad_u[k]
        g[o + 4] += ce.grad_lambda[k]
        H[o + 2 : o + 4, o + 2 : o + 4] += ce.h_uu[k]
        H[o + 2 : o + 4, o + 4] += ce.h_ulambda[k]
        H[o + 4, o + 2 : o + 4] += ce.h_ulambda[k]
    return H, g
