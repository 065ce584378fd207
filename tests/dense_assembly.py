"""Brute-force dense assembly, the oracle for the sparse scatter.

assemble_dense loops over all free-pose pairs (k, l) and matches each
record's pose rows against them, instead of scattering record-wise as
ovsam.assembly.assemble does.  Both consume the same per-record blocks
(record_blocks) and add them in the same per-entry order, so the two
agree bitwise.
"""

import numpy as np

from ovsam.assembly import ActiveMask, measurement_tables, record_blocks
from ovsam.constraints import eval_constraint
from ovsam.costs import ORI
from ovsam.graph import StateLayout


def assemble_dense(graph, cfg, active=None, lambdas=None, use_distance_error=False):
    """Dense (H, g, L, F) at the graph's own poses."""
    layout = StateLayout(graph)
    table = graph.pose_table()
    if active is None:
        active = ActiveMask.all_active(graph)
    if lambdas is None:
        lambdas = np.zeros(len(layout.free))
    tables = measurement_tables(graph, cfg)
    i1s, i2s, ev = record_blocks(tables, table, cfg, active, use_distance_error)
    records = list(enumerate(zip(i1s + 1, i2s + 1)))

    H = np.zeros((layout.dim, layout.dim))
    g = np.zeros(layout.dim)

    for kp in layout.free:
        ok = layout.offset(kp)
        for j, (i1, i2) in records:
            if kp == i1:
                g[ok : ok + 4] += ev.grad1[j]
            if kp == i2:
                g[ok : ok + 4] += ev.grad2[j]
        for lp in layout.free:
            ol = layout.offset(lp)
            h = H[ok : ok + 4, ol : ol + 4]
            for j, (i1, i2) in records:
                if kp == i1 and lp == i1:
                    h += ev.h11[j]
                if kp == i1 and lp == i2:
                    h += ev.h12[j]
                if kp == i2 and lp == i1:
                    h += ev.h21[j]
                if kp == i2 and lp == i2:
                    h += ev.h22[j]

    F = 0.0
    for value in ev.value:
        F += value
    w_sum = 0.0
    ce = eval_constraint(lambdas, table[np.subtract(layout.free, 1), ORI])
    for k, pid in enumerate(layout.free):
        w_sum += ce.w[k]
        o = layout.offset(pid)
        g[o + 2 : o + 4] += ce.grad_u[k]
        g[o + 4] += ce.grad_lambda[k]
        H[o + 2 : o + 4, o + 2 : o + 4] += ce.h_uu[k]
        H[o + 2 : o + 4, o + 4] += ce.h_ulambda[k]
        H[o + 4, o + 2 : o + 4] += ce.h_ulambda[k]
    return H, g, F + w_sum, F
