"""State layout, gradient and bordered-Hessian assembly of the Lagrangian.

The Lagrangian is L = F + sum_i lambda_i l(u_i) over the free poses,
where F sums all active measurement costs.  Every evaluation reads the
poses from a pose table (graph.pose_table), which defaults to the graph's
own poses, and the measurements from MeasurementTables, structure-of-arrays
copies of the graph's measurement data that solve builds once and that
default to being built from the graph on each call.  The tables also hold
the state layout: the flat state stacks one block [x (2), u (2), lambda]
per free pose, in the order tables.free (pack_state, unpack_state).

The records form one sequence, the odometry records then the homing
records, each group in list order, and the distance mask is one flag
per record of it (compute_active_mask): a homing record's flag gates
the whole record, an odometry record's only its distance term.
record_terms evaluates each cost family for all its active records in
one batched kernel call and lists the results as (rows, slot, result)
entries, one per term, in canonical order: translation (slot 0), the
optional distance term (1) and rotation (2) over the odometry records,
then home vector (0) and compass (1) over the active homing records.
Everything downstream walks that one list.  The merit also takes a stack (S, N, 4) of pose tables,
S trial points, whose (S, K, 4) poses the kernels broadcast against the
(K, ...) per-record data; each trial's numbers are those of a call on
its table alone.  The results keep the numbers of a walk over the
records one at a time: F adds each record's slots in order, record by
record, and L and sum |l_i| add the per-pose terms in pose-row order,
for assemble and merit alike (_totals); assembly sums each record's
terms in order into its pose pair's gradients and 2 x 2 Hessian blocks
(record_blocks, which writes nothing it reads), scatters those in
record order by np.bincount straight into the CSC-ordered values of H
at the positions tables.plan fixes, then adds the per-pose constraint
terms.  A measurement couples only its pose pair, and a multiplier
only its own orientation, so the graph fixes H's pattern: the plan
covers every record, and the mask only decides which terms are
evaluated (a slot no term fills is +0.0, which changes no sum).  The
result is a sparse symmetric system, stored once as that CSC pattern
plus values, whose lambda-lambda diagonal entries are exactly zero (a
bordered saddle system); each regularized matrix H + R is H with R
added on its diagonal.  Given no multipliers, assembly
estimates them from the cost gradient it has just scattered,
lambda_i = -u_i^T g_i; this estimate is the solver's start.
"""

import math
import operator
from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from .constraints import eval_constraint, residual
from .costs import (
    ORI,
    POS,
    distance_weight,
    eval_compass,
    eval_distance,
    eval_home_vector,
    eval_rotation,
    eval_translation,
    term_weight,
)
from .errors import DegenerateVectorError, GraphValidationError, PreconditionError
from .graph import record_name
from .orvec import omega, rowdot


@dataclass(frozen=True)
class MeasurementTables:
    """The measurements of a graph as stacked arrays.

    The records form one sequence: the odometry records, then the homing
    records, each group in list order.  i1 and i2 hold the 0-based pose
    rows of every record of it; each other field holds one row per record
    of its group (r to rho odometry, A to w_compass homing), so the
    odometry records are the first len(r).  Per-record constants are
    computed once, with the expressions the kernels use: Tinv by
    _spd_inverse (in validate), Q, A and Psi as Omega(q), Omega(alpha)
    and Omega(psi), and the w_* weights by term_weight for the cost
    configuration the tables were built with.
    """

    rank: np.ndarray  # (N,) state rank of each pose row, -1 for the anchor
    free: np.ndarray  # (N - 1,) pose rows of the free poses, in state order
    i1: np.ndarray
    i2: np.ndarray
    r: np.ndarray
    Tinv: np.ndarray
    Q: np.ndarray
    w_rot: np.ndarray
    sigma_e: np.ndarray
    rho: np.ndarray
    A: np.ndarray
    Psi: np.ndarray
    w_home: np.ndarray
    w_compass: np.ndarray

    @cached_property
    def plan(self):
        """The ScatterPlan of these tables, built on first use."""
        return ScatterPlan(self)


def _weights(group, cols, name, gamma=None):
    """The weights of column cols[name]: term_weight with gamma, else distance_weight.

    A failure is re-raised as GraphValidationError naming record and field.
    """
    try:
        return distance_weight(cols[name]) if gamma is None else term_weight(gamma, cols[name])
    except PreconditionError as exc:
        k = exc.index
        where = record_name(group, k, cols["i1"][k], cols["i2"][k])
        raise GraphValidationError(f"{where}: {name}: {exc}") from exc


def pose_rows(odometry, homing):
    """(i1, i2) of the record sequence from graph.validate()'s columns: 0-based
    pose rows of the odometry records, then of the homing records."""
    return tuple(np.concatenate((odometry[end], homing[end])) - 1 for end in ("i1", "i2"))


def measurement_tables(graph, cfg, use_distance_error=False):
    """MeasurementTables of graph's measurements under the cost configuration cfg.

    Built from the columns that graph.validate() checks and returns.  Then
    raises GraphValidationError, naming the record and the field, for a
    weight that is not finite and positive: gamma / sigma**2 of every
    rotational, home-vector and compass term, and 1 / sigma_e of every
    distance term if use_distance_error.
    """
    odo, hom = graph.validate()
    free = np.delete(np.arange(len(graph)), graph.fixed_id - 1)
    rank = np.full(len(graph), -1)
    rank[free] = np.arange(len(free))
    if use_distance_error:  # only checked: eval_distance divides by sigma_e itself
        _weights("odometry", odo, "sigma_e")
    return MeasurementTables(
        rank,
        free,
        *pose_rows(odo, hom),
        r=odo["r"],
        Tinv=odo["Tinv"],
        Q=omega(odo["q"]),
        w_rot=_weights("odometry", odo, "sigma", cfg.gamma),
        sigma_e=odo["sigma_e"],
        rho=odo["rho"],
        A=omega(hom["alpha"]),
        Psi=omega(hom["psi"]),
        w_home=_weights("homing", hom, "sigma_h", cfg.gamma),
        w_compass=_weights("homing", hom, "sigma_c", cfg.gamma),
    )


def compute_active_mask(graph, threshold, use_distance_error=False, table=None, tables=None):
    """Flag the records whose pose pair (in table) is at least the threshold apart.

    One flag per record of the tables' sequence, shape (K,): a homing
    record's flag gates the whole record, an odometry record's only its
    distance term.  The homing pairs are tested, and the odometry pairs
    too if use_distance_error; otherwise the odometry flags are all
    True.  The pose rows come from tables (MeasurementTables) when
    given, else from graph.validate().  Each decision is that of
    math.hypot: np.hypot can differ from it in the last bit, so
    distances within two ulps of the threshold are re-decided with
    math.hypot.
    """
    if table is None:
        table = graph.pose_table()
    i1, i2 = pose_rows(*graph.validate()) if tables is None else (tables.i1, tables.i2)
    first = 0 if use_distance_error else len(graph.odometry)  # the first record tested
    d = table[i2[first:], POS] - table[i1[first:], POS]
    h = np.hypot(d[:, 0], d[:, 1])
    active = np.ones(len(i1), dtype=bool)
    active[first:] = h >= threshold
    for k in np.flatnonzero(np.abs(h - threshold) <= 2.0 * np.spacing(threshold)):
        active[first + k] = math.hypot(d[k, 0], d[k, 1]) >= threshold
    return active


def _multipliers(tables, lambdas, stack=()):
    """lambdas as a float array of shape stack + (n,), one per free pose,
    else PreconditionError."""
    shape = stack + (len(tables.free),)
    lambdas = np.asarray(lambdas, dtype=float)
    if lambdas.shape != shape:
        raise PreconditionError(f"expected multipliers of shape {shape}, got {lambdas.shape}")
    return lambdas


def pack_state(tables, table, lambdas):
    """The flat state of the pose table's free poses and their multipliers."""
    return np.column_stack((table[tables.free], _multipliers(tables, lambdas))).ravel()


def unpack_state(tables, table, vec):
    """(poses, lambdas) of the flat state vec: a copy of the pose table with
    the free poses' rows taken from vec, and the multipliers, a view of vec.

    A stack (S, dim) of states gives (S, N, 4) tables and (S, N - 1) multipliers.
    """
    vec = np.asarray(vec, dtype=float)
    dim = 5 * len(tables.free)
    if vec.ndim not in (1, 2) or vec.shape[-1] != dim:
        raise PreconditionError(f"expected state of length {dim}, got {vec.shape}")
    blocks = vec.reshape(vec.shape[:-1] + (-1, 5))
    out = np.broadcast_to(table, vec.shape[:-1] + table.shape).copy()
    out[..., tables.free, :] = blocks[..., :4]
    return out, blocks[..., 4]


class ScatterPlan:
    """Where assembly scatters the records of one MeasurementTables (tables.plan).

    The records are those of the tables' one sequence (record_blocks),
    masked or not.  Each record's pose rows
    give its slot pair, its state ranks with the anchor mapped to the
    discarded slot n.  H's structural entries are the 4 x 4 pose part of
    each record's blocks over its slot pair and all 25 entries of each
    diagonal block.  Keyed col * dim + row (dim = 5n), one sort lists
    them once in CSC order; an entry on the anchor's slot is keyed
    dim * dim, so it sorts last.  indices and indptr are the CSC row
    indices and column pointers of the nnz entries (C ints, as SuperLU
    takes them), and flat their positions in a raveled dense (dim, dim)
    H.  grad_bins and hess_bins are the np.bincount targets of
    record_blocks' grads and hessians, raveled: flat positions in a
    (n + 1, 5) gradient and in the CSC-ordered values (nnz + 1,), the
    last slot taking what falls on the anchor.  diag_blocks (n, 5, 5)
    holds the position in the values of each entry of each pose's
    diagonal block.  orders keeps the SuperLU column orders of this
    plan's solve (solver.spsolve), at most two, each with its gather of
    the CSC of A[:, q] from indices and indptr, and orderings counts the
    COLAMD runs that made them.
    """

    def __init__(self, tables):
        n = self.n = len(tables.free)
        ranks = tables.rank[np.column_stack((tables.i1, tables.i2))]
        slots = np.where(ranks < 0, n, ranks)
        first = 5 * slots[..., None] + np.arange(4)  # (K, 2, 4): each slot's pose rows
        self.grad_bins = first.ravel()

        # the keys of each record's (2, 2, 4, 4) pose part, then of each
        # pose's (5, 5) diagonal block
        dim = 5 * n
        row, col = first[:, :, None, :, None], first[:, None, :, None, :]
        pairs = np.where((row < dim) & (col < dim), col * dim + row, dim * dim).ravel()
        block = 5 * np.arange(n)[:, None] + np.arange(5)  # (n, 5)
        diag = (block[:, None, :] * dim + block[:, :, None]).ravel()
        keys, where = np.unique(np.concatenate((pairs, diag)), return_inverse=True)
        col, row = np.divmod(keys[keys < dim * dim], dim)
        self.hess_bins = where[: len(pairs)]
        self.diag_blocks = where[len(pairs) :].reshape(n, 5, 5)
        self.indices = row.astype(np.intc)
        self.indptr = np.searchsorted(col, np.arange(dim + 1)).astype(np.intc)
        self.flat = row * dim + col
        self.orders = {}
        self.orderings = 0


class SparseSymmetricSystem:
    """Sparse bordered Hessian H, gradient g, and the F, L and sum |l_i| values.

    H is stored once, as values: its structural entries in the CSC
    order of the plan's indices and indptr, in state ranks
    (MeasurementTables.rank), +0.0 where only masked records touch.  The
    state stacks [x (2), u (2), lambda] per pose.  Each rung's H + R,
    where R adds diag(eta_w, eta_w, eta_w, eta_w, -eta_a) per pose, is
    H plus R on its true diagonal, whose entries are all structural:
    regularized copies the values and adds R there (solver.spsolve
    gathers its nonzero entries into CSC form), and to_dense copies the
    dense H, scattered from the values on its first call, and adds R.
    """

    def __init__(self, plan, values, g, F, L, l1, l_values, lambdas):
        self.plan = plan
        self.dim = 5 * plan.n
        self.values = values
        self.g = g
        self.F = F
        self.L = L
        self.l1 = l1  # sum |l_i|
        self.l_values = l_values
        self.lambdas = lambdas  # the multipliers it was assembled with
        self._dense = None

    def max_constraint(self):
        return float(np.max(np.abs(self.l_values))) if self.l_values.size else 0.0

    def _diagonal(self, eta_w, eta_a):
        return np.tile([eta_w, eta_w, eta_w, eta_w, -eta_a], self.plan.n)

    def to_dense(self, eta_w=0.0, eta_a=0.0):
        """H + R as a new dense array."""
        if self._dense is None:
            self._dense = np.zeros((self.dim, self.dim))
            self._dense.ravel()[self.plan.flat] = self.values
        H = self._dense.copy()
        H.ravel()[:: self.dim + 1] += self._diagonal(eta_w, eta_a)
        return H

    def regularized(self, eta_w=0.0, eta_a=0.0):
        """The values of H + R: a copy of values with R added on the diagonal."""
        values = self.values.copy()
        diagonal = self.plan.diag_blocks.reshape(-1, 25)[:, ::6].ravel()
        values[diagonal] += self._diagonal(eta_w, eta_a)
        return values


def _running_sum(values):
    """0.0 + v[0] + v[1] + ... over the last axis, added one at a time in order."""
    zero = np.zeros(values.shape[:-1] + (1,))
    return np.add.accumulate(np.concatenate((zero, values), axis=-1), axis=-1)[..., -1]


def record_terms(tables, table, cfg, active, use_distance_error, derivs=True):
    """Evaluate every cost family over its active records at the table's poses.

    active holds one flag per record of the tables' sequence
    (compute_active_mask); another shape raises PreconditionError.
    Returns one (rows, slot, result) entry per term, in canonical order:
    translation (slot 0), distance (slot 1, only if use_distance_error,
    over the active odometry records) and rotation (slot 2) over the
    odometry records, then home vector (slot 0) and compass (slot 1)
    over the active homing records.  rows index the sequence (a slice
    for a whole group); result is a CostEval, or the values when derivs
    is false.  A record's terms are those entries that cover it, in
    slot order.

    A stack (S, N, 4) of tables (derivs false) gives (S, K) values.  If
    any term hits a degenerate vector, re-raises for the first such
    record in the sequence, and within it the first such term, with the
    record named (for a stack, the first failing position of the
    flattened (S, K) values; its trial is not named).
    """
    t = tables
    m = len(t.r)
    shape = (len(t.i1),)
    if np.shape(active) != shape:
        raise PreconditionError(f"expected a mask of shape {shape}, got {np.shape(active)}")

    def poses(rows):
        return np.take(table, t.i1[rows], axis=-2), np.take(table, t.i2[rows], axis=-2)

    odometry = slice(0, m)
    p1, p2 = poses(odometry)
    calls = [(odometry, 0, lambda: eval_translation(p1, p2, t.Tinv, t.r, derivs))]
    if use_distance_error:
        d = np.flatnonzero(active[:m])
        e1, e2 = poses(d)
        calls.append((d, 1, lambda: eval_distance(e1, e2, t.sigma_e[d], t.rho[d], derivs)))
    calls.append((odometry, 2, lambda: eval_rotation(p1, p2, t.Q, t.w_rot, cfg, derivs)))
    h = np.flatnonzero(active[m:])
    homing = m + h
    q1, q2 = poses(homing)
    calls.append((homing, 0, lambda: eval_home_vector(q1, q2, t.A[h], t.w_home[h], cfg, derivs)))
    calls.append((homing, 1, lambda: eval_compass(q1, q2, t.Psi[h], t.w_compass[h], cfg, derivs)))

    terms, failures = [], []
    for pos, (rows, slot, call) in enumerate(calls):
        try:
            terms.append((rows, slot, call()))
        except DegenerateVectorError as exc:
            records = np.arange(len(t.i1))[rows]
            failures.append((int(records[exc.index % len(records)]), pos, exc))
    if failures:
        k, _, exc = min(failures, key=lambda f: f[:2])
        group, j = ("odometry", k) if k < m else ("homing", k - m)
        where = record_name(group, j, t.i1[k] + 1, t.i2[k] + 1)
        raise DegenerateVectorError(f"{where}: {exc}") from exc
    return terms


def record_blocks(tables, terms):
    """(grads, hessians) of every record, each record's terms summed in order.

    terms is record_terms' result, which is only read.  One row per
    record of the tables' sequence, masked records included: grads
    (K, 2, 4) holds each record's gradients [grad1, grad2] and hessians
    (K, 2, 2, 4, 4) its Hessian blocks [[h11, h12], [h21, h22]].  A
    slot-0 term is copied into its rows and later slots add; a row no
    term covers is +0.0.
    """
    k = len(tables.i1)
    grads = np.empty((k, 2, 4))
    hessians = np.empty((k, 2, 2, 4, 4))
    uncovered = np.ones(k, dtype=bool)
    # (rows, slot, results) of each write: a slot-0 term takes in the terms
    # right after it over the same rows, as writing a, then adding b, is a + b
    runs = []
    for rows, slot, ev in terms:
        uncovered[rows] = False
        if slot and runs and runs[-1][0] is rows and runs[-1][1] == 0:
            runs[-1][2].append(ev)
        else:
            runs.append((rows, slot, [ev]))
    grads[uncovered] = 0.0
    hessians[uncovered] = 0.0
    outs = grads[:, 0], grads[:, 1], hessians[:, 0, 0], hessians[:, 0, 1], hessians[:, 1, 1]
    for out, name in zip(outs, ("grad1", "grad2", "h11", "h12", "h22")):
        for rows, slot, evs in runs:
            value = reduce(operator.add, [getattr(ev, name) for ev in evs])
            if slot == 0:
                out[rows] = value
            else:
                out[rows] += value
    hessians[:, 1, 0] = np.swapaxes(hessians[:, 0, 1], -1, -2)
    return grads, hessians


def _totals(tables, l, lambdas, terms):
    """(F, L, sum |l_i|) from record_terms' entries of values and the residuals l.

    F adds each record's slots in order, record by record; a slot no
    term fills is +0.0, which changes no running sum that starts at
    +0.0 (it is never -0.0, and x + 0.0 == x otherwise).  l and lambdas
    (zeros by default) are in state order; the per-pose terms add in
    pose-row order.
    """
    stack = l.shape[:-1]  # () or (S,)
    values = np.zeros(stack + (len(tables.i1), 3))
    for rows, slot, value in terms:
        values[..., rows, slot] = value
    F = _running_sum(values.reshape(stack + (-1,)))
    order = tables.rank[tables.rank >= 0]  # the free poses' ranks in pose-row order
    l = l[..., order]
    if lambdas is None:
        lambdas = np.zeros(l.shape)
    return F, F + _running_sum(l * lambdas[..., order]), _running_sum(np.abs(l))


def _defaults(graph, cfg, active, table, tables, use_distance_error=False):
    if tables is None:
        tables = measurement_tables(graph, cfg, use_distance_error)
    if table is None:
        table = graph.pose_table()
    if active is None:
        active = np.ones(len(tables.i1), dtype=bool)
    return active, table, tables


def assemble(
    graph,
    cfg,
    active=None,
    lambdas=None,
    use_distance_error=False,
    table=None,
    tables=None,
):
    """Assemble gradient, bordered Hessian, and the F, L and sum |l_i| values.

    Measurements touching the fixed pose in one slot still contribute
    to the other slot's blocks; the fixed pose's own rows and columns
    are dropped entirely.  Without lambdas, the multipliers are the
    first-order estimate lambda_i = -u_i^T g_i, g_i the cost gradient
    (constraints excluded) with respect to u_i; it is the least-squares
    multiplier only where u_i is unit.  The records' blocks
    (record_blocks) scatter by np.bincount into the CSC-ordered values
    at the positions of tables.plan, whatever the mask, and the
    constraint terms add at its diagonal blocks' u-u, u-lambda and
    lambda-u positions.  The system carries that plan, the
    multipliers it was built with (lambdas), and F, L and l1 as merit
    sums them, from record_terms' values as they are.  Multipliers not
    of shape (n,) raise PreconditionError.
    """
    active, table, tables = _defaults(graph, cfg, active, table, tables, use_distance_error)
    if lambdas is not None:
        lambdas = _multipliers(tables, lambdas)
    terms = record_terms(tables, table, cfg, active, use_distance_error)
    plan = tables.plan
    n = plan.n
    grads, hessians = record_blocks(tables, terms)

    # np.bincount adds each bin's weights in input order, from 0.0: every
    # sum runs in record order (a record's four blocks differ, as
    # i1 != i2).  Empty input gives ints, hence the cast.
    G = np.bincount(plan.grad_bins, grads.ravel(), 5 * (n + 1)).astype(float, copy=False)
    G = G.reshape(n + 1, 5)
    size = len(plan.indices) + 1
    H = np.bincount(plan.hess_bins, hessians.ravel(), size).astype(float, copy=False)

    u = table[tables.free, ORI]
    lambdas = -rowdot(u, G[:n, ORI]) if lambdas is None else lambdas
    ce = eval_constraint(lambdas, u)
    G[:n, 2:4] += ce.grad_u
    G[:n, 4] += ce.grad_lambda
    d = plan.diag_blocks
    H[d[:, 2:4, 2:4]] += ce.h_uu
    H[d[:, 2:4, 4]] += ce.h_ulambda
    H[d[:, 4, 2:4]] += ce.h_ulambda

    values = [(rows, slot, ev.value) for rows, slot, ev in terms]
    F, L, l1 = map(float, _totals(tables, ce.l, lambdas, values))
    return SparseSymmetricSystem(plan, H[:-1], G[:n].ravel(), F, L, l1, ce.l, lambdas)


def merit(
    graph, cfg, active, mu, lambdas=None, use_distance_error=False, table=None, tables=None
):
    """The l1 exact-penalty merit of the Lagrangian: L + mu * sum |l_i|.

    Value-only, same masking as assemble, zero lambdas by default.  A
    stack (S, N, 4) of tables with lambdas (S, n) gives the (S,) merits
    of its trials.  Multipliers of any other shape raise PreconditionError.
    """
    if not 0.0 < mu < math.inf:
        raise PreconditionError(f"mu must be finite and positive, got {mu!r}")
    active, table, tables = _defaults(graph, cfg, active, table, tables, use_distance_error)
    if lambdas is not None:
        lambdas = _multipliers(tables, lambdas, np.shape(table)[:-2])
    values = record_terms(tables, table, cfg, active, use_distance_error, False)
    l = residual(np.take(table[..., ORI], tables.free, axis=-2))
    _, L, l1 = _totals(tables, l, lambdas, values)
    return L + mu * l1
