"""Brute-force dense assembly, the oracle for the sparse scatter.

assemble_dense loops over all free-pose pairs (k, l) and matches each
measurement's slot indices against them, instead of scattering
measurement-wise as ovsam.assembly.assemble does.  Both consume the same
per-measurement blocks (_measurement_blocks) and add them in the same
per-entry order, so the two agree bitwise.
"""

import numpy as np

from ovsam.assembly import ActiveMask, _measurement_blocks
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
    blocks = _measurement_blocks(graph, table, cfg, active, use_distance_error)

    H = np.zeros((layout.dim, layout.dim))
    g = np.zeros(layout.dim)

    for kp in layout.free:
        ok = layout.offset(kp)
        for i1, i2, ev in blocks:
            if kp == i1:
                g[ok : ok + 4] += ev.grad1
            if kp == i2:
                g[ok : ok + 4] += ev.grad2
        for lp in layout.free:
            ol = layout.offset(lp)
            h = H[ok : ok + 4, ol : ol + 4]
            for i1, i2, ev in blocks:
                if kp == i1 and lp == i1:
                    h += ev.h11
                if kp == i1 and lp == i2:
                    h += ev.h12
                if kp == i2 and lp == i1:
                    h += ev.h21
                if kp == i2 and lp == i2:
                    h += ev.h22

    F = 0.0
    for _, _, ev in blocks:
        F += ev.value
    w_sum = 0.0
    for k, pid in enumerate(layout.free):
        ce = eval_constraint(lambdas[k], table[pid - 1, ORI])
        w_sum += ce.w
        o = layout.offset(pid)
        g[o + 2 : o + 4] += ce.grad_u
        g[o + 4] += ce.grad_lambda
        H[o + 2 : o + 4, o + 2 : o + 4] += ce.h_uu
        H[o + 2 : o + 4, o + 4] += ce.h_ulambda
        H[o + 4, o + 2 : o + 4] += ce.h_ulambda
    return H, g, F + w_sum, F
