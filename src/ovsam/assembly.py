"""State layout, gradient and bordered-Hessian assembly of the Lagrangian.

The Lagrangian is L = F + sum_i lambda_i l(u_i) over the free poses,
where F sums all active measurement costs.  The measurements come from
MeasurementTables, structure-of-arrays copies of the graph's measurement
data that solve builds once; they derive rho = |r| and are the one place
that checks the term weights (measurement_tables).  The tables also hold
the state layout: the flat state stacks one block [x (2), u (2), lambda]
per free pose, in the order tables.free (pack_state, unpack_state).

The records form one sequence, the odometry records then the homing
records, each group in list order, and the distance mask is one flag
per record of it (compute_active_mask): a homing record's flag gates
the whole record, an odometry record's only its distance term.  An
EvaluationPlan holds what evaluating the terms under one mask takes,
for the problem its tables fix (their cost configuration and distance
flag):
each term's pose rows as positions in the flat state with the anchor's
row appended, so one gather gives the poses of every term, the active
records' stacked constants, and one call per kernel function, the
rotation and the compass being one eval_rotation call.  It evaluates a
stack (S, 5n) of trial states as it does one state, and each trial's
numbers are those of a call on its state alone.  Assembly evaluates
and does not judge: EvaluationPlan.totals gives F, L and sum |l_i|,
and the merit formed from them belongs to the step method (solver).  The results keep the
numbers of a walk over the records one at a time: F adds each record's
terms in slot order, record by record, and L and sum |l_i| add the
per-pose terms in pose-row order, for assembly and totals alike;
assembly adds each record's derivative sub-blocks (CostEval) that
share an entry in slot order, scatters the records' sums in record
order by np.bincount straight into the CSC-ordered values of H at the
positions tables.plan fixes, then adds the per-pose constraint terms.
A measurement couples only its pose pair, and a multiplier only its
own orientation, so the graph fixes H's pattern: the scatter plan
covers every record, and the mask only decides which terms are
evaluated (an entry no term reaches is +0.0, and skipping a masked
record or a zero sub-block changes no sum that starts at +0.0).  The
result is a sparse symmetric system, stored once as that CSC pattern
plus values, whose lambda-lambda diagonal entries are exactly zero (a
bordered saddle system); the step method forms each regularized matrix
H + R from it (solver.newton_step).  Given no multipliers, assembly
estimates them from the cost gradient it has just scattered,
lambda_i = -u_i^T g_i; this estimate is the solver's start.  The graph-first assemble
evaluates the graph's own poses through a plan built for the call.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .constraints import eval_constraint, residual
from .costs import (
    ORI,
    PARTS,
    POS,
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
    and Omega(psi), rho as |r|, and the w_* weights by term_weight for
    cost, the cost configuration the tables were built with.  cost and
    use_distance_error fix the problem that EvaluationPlan evaluates.
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
    cost: object  # the RotCostConfig
    use_distance_error: bool

    @cached_property
    def plan(self):
        """The ScatterPlan of these tables, built on first use."""
        return ScatterPlan(self)

    @cached_property
    def anchor(self):
        """The pose row of the anchor, the one pose without a state rank."""
        return int(np.flatnonzero(self.rank < 0)[0])


def _weights(group, cols, name, gamma=None):
    """The weights of column cols[name]: term_weight with gamma, else 1 / sigma_e.

    Raises GraphValidationError, naming record and field, for the first
    weight that is not finite and positive.
    """
    sigma = cols[name]
    with np.errstate(all="ignore"):
        weight = 1.0 / sigma if gamma is None else term_weight(gamma, sigma)
    bad = ~((0.0 < weight) & (weight < math.inf))
    if not bad.any():
        return weight
    k = int(bad.argmax())
    where = record_name(group, k, cols["i1"][k], cols["i2"][k])
    s = repr(float(sigma[k]))
    what = f"1 / sigma_e = 1 / {s}" if gamma is None else f"gamma / sigma**2 = {gamma!r} / {s}**2"
    raise GraphValidationError(f"{where}: {name}: weight {what} is not finite and positive")


def pose_rows(odometry, homing):
    """(i1, i2) of the record sequence from graph.validate()'s (or validate_ids())
    columns: 0-based pose rows of the odometry records, then of the homing records."""
    return tuple(np.concatenate((odometry[end], homing[end])) - 1 for end in ("i1", "i2"))


def measurement_tables(graph, cfg, use_distance_error=False):
    """MeasurementTables of graph's measurements under the cost configuration cfg.

    Built from the columns that graph.validate() checks and returns, rho
    being |r| of each odometry record.  Then raises GraphValidationError,
    naming the record and the field, for a weight that is not finite and
    positive: gamma / sigma**2 of every rotational, home-vector and compass
    term, and 1 / sigma_e of every distance term if use_distance_error.
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
        rho=np.hypot(odo["r"][:, 0], odo["r"][:, 1]),
        A=omega(hom["alpha"]),
        Psi=omega(hom["psi"]),
        w_home=_weights("homing", hom, "sigma_h", cfg.gamma),
        w_compass=_weights("homing", hom, "sigma_c", cfg.gamma),
        cost=cfg,
        use_distance_error=use_distance_error,
    )


def compute_active_mask(graph, threshold, use_distance_error=False, table=None, tables=None):
    """Flag the records whose pose pair (in table) is at least the threshold apart.

    One flag per record of the tables' sequence, shape (K,): a homing
    record's flag gates the whole record, an odometry record's only its
    distance term.  The homing pairs are tested, and the odometry pairs
    too if use_distance_error; otherwise the odometry flags are all
    True.  The pose rows come from tables (MeasurementTables) when
    given, which must be built with the same use_distance_error
    (PreconditionError otherwise), else from the graph's pose ids
    (graph.validate_ids()).  Each decision is that of math.hypot:
    np.hypot can differ from it in the last bit, so distances within two
    ulps of the threshold are re-decided with math.hypot.
    """
    if table is None:
        table = graph.table
    if tables is None:
        i1, i2 = pose_rows(*graph.validate_ids())
    elif use_distance_error == tables.use_distance_error:
        i1, i2 = tables.i1, tables.i2
    else:
        raise PreconditionError(f"tables built with use_distance_error={tables.use_distance_error}")
    first = 0 if use_distance_error else len(graph.odometry)  # the first record tested
    d = table[i2[first:], POS] - table[i1[first:], POS]
    h = np.hypot(d[:, 0], d[:, 1])
    active = np.ones(len(i1), dtype=bool)
    active[first:] = h >= threshold
    for k in np.flatnonzero(np.abs(h - threshold) <= 2.0 * np.spacing(threshold)):
        active[first + k] = math.hypot(d[k, 0], d[k, 1]) >= threshold
    return active


def pack_state(tables, table, lambdas):
    """The flat state (5n,) of the pose table's free poses and their
    multipliers; multipliers not of shape (n,) raise PreconditionError."""
    shape = (len(tables.free),)
    lambdas = np.asarray(lambdas, dtype=float)
    if lambdas.shape != shape:
        raise PreconditionError(f"expected multipliers of shape {shape}, got {lambdas.shape}")
    return np.column_stack((np.asarray(table, dtype=float)[tables.free], lambdas)).ravel()


def unpack_state(tables, table, vec):
    """(poses, lambdas) of the flat state vec: a copy of the pose table with
    the free poses' rows taken from vec, and the multipliers, a view of vec."""
    vec = np.asarray(vec, dtype=float)
    dim = 5 * len(tables.free)
    if vec.shape != (dim,):
        raise PreconditionError(f"expected state of length {dim}, got {vec.shape}")
    blocks = vec.reshape(-1, 5)
    out = table.copy()
    out[tables.free] = blocks[:, :4]
    return out, blocks[:, 4]


class ScatterPlan:
    """Where assembly scatters into H and g, fixed by the graph (tables.plan).

    Each record's pose rows give its slot pair, its state ranks with the
    anchor mapped to the discarded slot n.  H's structural entries are
    the 4 x 4 pose part of each record's blocks over its slot pair,
    masked or not, and all 25 entries of each diagonal block.  Keyed
    col * dim + row (dim = 5n), one sort lists them once in CSC order;
    an entry on the anchor's slot is keyed dim * dim, so it sorts last.
    indices and indptr are the CSC row indices and column pointers of
    the nnz entries (C ints, as SuperLU takes them), and flat their
    positions in a raveled dense (dim, dim) H.  grad_bins and hess_bins,
    raveled from (K, 2, 4) and (K, 2, 2, 4, 4), hold where entry i of
    record k's gradient over its pose a goes, [k, a, i], a position in a
    raveled (n + 1, 5) gradient, and where entry (i, j) of its Hessian
    block (a, b) goes, [k, a, b, i, j], a position in the CSC-ordered
    values (nnz + 1,); the last of each takes what falls on the anchor
    (EvaluationPlan reads them).  diag_blocks (n, 5, 5) holds the
    position in the values of each entry of each pose's diagonal block,
    and diagonal (5n,) that of each entry of H's diagonal.
    orders keeps the SuperLU column orders of this plan's solve
    (solver.spsolve), at most two, each with its gather of the CSC of
    A[:, q] from indices and indptr, and orderings counts the COLAMD
    runs that made them.
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
        pairs = np.where((row < dim) & (col < dim), col * dim + row, dim * dim)
        block = 5 * np.arange(n)[:, None] + np.arange(5)  # (n, 5)
        diag = (block[:, None, :] * dim + block[:, :, None]).ravel()
        keys, where = np.unique(np.concatenate((pairs.ravel(), diag)), return_inverse=True)
        col, row = np.divmod(keys[keys < dim * dim], dim)
        self.hess_bins = where[: pairs.size]
        self.diag_blocks = where[pairs.size :].reshape(n, 5, 5)
        self.diagonal = self.diag_blocks.reshape(n, 25)[:, ::6].ravel()
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
    state stacks [x (2), u (2), lambda] per pose.  H's diagonal entries
    are all structural (plan.diagonal), and the system forms no other
    matrix: the step method adds its regularization there
    (solver.newton_step).
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

    def max_constraint(self):
        return float(np.max(np.abs(self.l_values))) if self.l_values.size else 0.0


def _running_sum(values):
    """0.0 + v[0] + v[1] + ... over the last axis, added one at a time in order."""
    zero = np.zeros(values.shape[:-1] + (1,))
    return np.add.accumulate(np.concatenate((zero, values), axis=-1), axis=-1)[..., -1]


class EvaluationPlan:
    """How the terms of one mask are evaluated and scattered (one per mask).

    active holds one flag per record of the tables' sequence
    (compute_active_mask); another shape raises PreconditionError.  A
    state here is flat, (5n,) or a stack (S, 5n), and the anchor's pose
    row is appended to it, so the poses of every term come from one
    gather, gather (T, 4), into the extended state.  Each kernel
    function runs once per evaluation over all its records, calls
    holding (records, slots, kernel, first, second, data) for each:
    translation (slot 0) over the odometry records, the distance term
    (slot 1, only if tables.use_distance_error) over the active ones,
    the home vector (slot 0) over the active homing records, and
    eval_rotation over the odometry records (rotation, slot 2) and then
    the active homing records (compass, slot 1), one call over
    [Q; Psi[h]] and [w_rot; w_compass[h]].  records index the sequence,
    slots are each record's slot, first and second slice the gathered
    poses, and data are the per-record constants and tables.cost.

    F adds each record's terms in slot order, record by record: f_order
    puts a leading 0.0 and then the calls' values in that order.
    L and sum |l_i| add the per-pose terms in pose-row order
    (rows_u and rows_lambda gather them).  Assembly sums each record's
    derivative sub-blocks (CostEval) that share an entry of H or g in
    slot order, then scatters the records' sums in record order
    (scatter, built on the first assembly from the sub-blocks the
    kernels list).  A record's four blocks differ (i1 != i2), so each
    of H's sums adds its records in order, as a walk over the records
    one at a time does; a masked record or a sub-block no term lists
    adds nothing, which changes no sum that starts at +0.0.
    """

    def __init__(self, tables, active):
        t = tables
        m, n = len(t.r), len(t.free)
        shape = (len(t.i1),)
        if np.shape(active) != shape:
            raise PreconditionError(f"expected a mask of shape {shape}, got {np.shape(active)}")
        self.tables = tables
        self.active = np.array(active, dtype=bool)
        h = np.flatnonzero(self.active[m:])
        d = np.flatnonzero(self.active[:m]) if t.use_distance_error else np.arange(0)
        pairs = np.concatenate((np.arange(m), m + h))  # odometry, then active homing
        rows = np.concatenate((pairs, d))  # the records whose poses are gathered
        w = len(rows)
        slot = np.where(t.rank < 0, n, t.rank)  # the anchor's row is appended at 5n
        ends = np.concatenate((t.i1[rows], t.i2[rows]))  # first poses, then second poses
        self.gather = 5 * slot[ends][:, None] + np.arange(4)

        def call(kernel, records, slots, lo, *data):
            """The call over records, whose pose pairs start at position lo of rows."""
            first = slice(lo, lo + len(records))
            second = slice(w + lo, w + lo + len(records))
            return records, np.broadcast_to(slots, len(records)), kernel, first, second, data

        self.calls = [call(eval_translation, pairs[:m], 0, 0, t.Tinv, t.r)]
        if t.use_distance_error:
            self.calls.append(call(eval_distance, d, 1, len(pairs), t.sigma_e[d], t.rho[d]))
        self.calls.append(call(eval_home_vector, pairs[m:], 0, m, t.A[h], t.w_home[h], t.cost))
        Phi = np.concatenate((t.Q, t.Psi[h]))
        weight = np.concatenate((t.w_rot, t.w_compass[h]))
        slots = np.repeat([2, 1], [m, len(h)])  # rotation, then compass
        self.calls.append(call(eval_rotation, pairs, slots, 0, Phi, weight, t.cost))

        keys = np.concatenate([3 * records + slots for records, slots, *_ in self.calls])
        self.f_order = np.concatenate(([0], 1 + np.argsort(keys)))
        ranks = t.rank[t.rank >= 0]  # the free poses' ranks in pose-row order
        self.ranks = ranks
        self.rows_u = 5 * ranks[:, None] + np.arange(2, 4)
        self.rows_lambda = 5 * ranks + 4
        self.scatter = None  # a _Scatter, from the first assembly

    def evaluate(self, states, anchor, derivs=True):
        """Each call's result at the flat states, anchor the anchor's [x, u]
        row: a CostEval, or with derivs false the values.

        states is (5n,) or a stack (S, 5n), whose values come out (S, K).
        If any term hits a degenerate vector, re-raises for the first
        such record in the sequence, and within it the first such term
        (slot), with the record named; for a stack, each kernel reports
        its first failing position in the flattened (S, K) values, and
        the trial is not named.
        """
        states = np.asarray(states, dtype=float)
        x = np.empty(states.shape[:-1] + (states.shape[-1] + 4,))
        x[..., :-4] = states
        x[..., -4:] = anchor
        poses = x[..., self.gather]
        results, failures = [], []
        for records, slots, kernel, first, second, data in self.calls:
            try:
                results.append(kernel(poses[..., first, :], poses[..., second, :], *data, derivs))
            except DegenerateVectorError as exc:
                j = exc.index % len(records)
                failures.append((int(records[j]), int(slots[j]), exc))
        if failures:
            k, _, exc = min(failures, key=lambda f: f[:2])
            t = self.tables
            m = len(t.r)
            group, j = ("odometry", k) if k < m else ("homing", k - m)
            where = record_name(group, j, t.i1[k] + 1, t.i2[k] + 1)
            raise DegenerateVectorError(f"{where}: {exc}") from exc
        return results

    def _totals(self, values, l, lambdas):
        """(F, L, sum |l_i|) of the calls' values and the residuals l and
        multipliers lambdas, both in pose-row order."""
        terms = np.concatenate((np.zeros(l.shape[:-1] + (1,)), *values), axis=-1)
        F = np.add.accumulate(terms[..., self.f_order], axis=-1)[..., -1]
        return F, F + _running_sum(l * lambdas), _running_sum(np.abs(l))

    def totals(self, states, anchor):
        """(F, L, sum |l_i|) of each flat state, by the value path alone.

        states is (5n,) or a stack (S, 5n), anchor the anchor's [x, u]
        row; a stack gives three (S,) arrays, each trial's numbers those
        of a call on its state alone, and bitwise those of assemble.
        """
        states = np.asarray(states, dtype=float)
        values = self.evaluate(states, anchor, False)
        u, lambdas = states[..., self.rows_u], states[..., self.rows_lambda]
        return self._totals(values, residual(u), lambdas)

    def assemble(self, state, anchor, estimate=False):
        """The SparseSymmetricSystem at the flat state (5n,), anchor its anchor row.

        With estimate, the state's multipliers are replaced by the
        first-order estimate lambda_i = -u_i^T g_i, g_i the cost gradient
        (constraints excluded) with respect to u_i; it is the
        least-squares multiplier only where u_i is unit.
        """
        plan = self.tables.plan
        n = plan.n
        state = np.asarray(state, dtype=float)
        evs = self.evaluate(state, anchor)
        if self.scatter is None:
            self.scatter = _Scatter(plan, self.calls, evs)
        G, H = self.scatter(evs)

        u = state.reshape(n, 5)[:, ORI]
        lambdas = -rowdot(u, G[:n, ORI]) if estimate else state[4::5]
        ce = eval_constraint(lambdas, u)
        G[:n, 2:4] += ce.grad_u
        G[:n, 4] += ce.grad_lambda
        d = plan.diag_blocks
        H[d[:, 2:4, 2:4]] += ce.h_uu
        H[d[:, 2:4, 4]] += ce.h_ulambda
        H[d[:, 4, 2:4]] += ce.h_ulambda

        values = [ev.value for ev in evs]
        r = self.ranks
        F, L, l1 = map(float, self._totals(values, ce.l[r], lambdas[r]))
        return SparseSymmetricSystem(plan, H[:-1], G[:n].ravel(), F, L, l1, ce.l, lambdas)


class _Scatter:
    """The scatter of an EvaluationPlan's derivative sub-blocks into g and H.

    Built from the calls and their first CostEvals.  grads and hess list
    each call's sub-blocks as (call, key), in call order, so each
    record's terms come in slot order, and hess then lists each
    sub-block (a, p, b, q) with a < b again: transposed, it is the
    record's block (b, a).  Each entry of a sub-block goes to one entry
    of g or H for its record (ScatterPlan's grad_bins and hess_bins).
    The first np.bincount adds the entries that share a (record,
    position) pair in input order, the second adds the pairs into g or
    H in record order.
    """

    def __init__(self, plan, calls, evs):
        grad_bins = plan.grad_bins.reshape(-1, 2, 4)
        hess_bins = plan.hess_bins.reshape(-1, 2, 2, 4, 4)
        self.grads = [(c, key) for c, ev in enumerate(evs) for key in ev.grads]
        self.hess = [(c, key) for c, ev in enumerate(evs) for key in ev.hess]
        g = [grad_bins[calls[c][0], a, PARTS[p]] for c, (a, p) in self.grads]
        h = [hess_bins[calls[c][0], a, b, PARTS[p], PARTS[q]] for c, (a, p, b, q) in self.hess]
        mixed = [(c, key) for c, key in self.hess if key[0] != key[2]]
        for c, (a, p, b, q) in mixed:
            h.append(np.swapaxes(hess_bins[calls[c][0], b, a, PARTS[q], PARTS[p]], 1, 2))
        self.hess += mixed
        self.g = _pairs([calls[c][0] for c, _ in self.grads], g, 5 * (plan.n + 1))
        self.h = _pairs([calls[c][0] for c, _ in self.hess], h, len(plan.indices) + 1)

    def __call__(self, evs):
        """(G, H): the gradient (n + 1, 5) and the CSC-ordered values (nnz + 1,)
        of the sub-blocks, the last row and entry taking the anchor's."""
        g = np.concatenate([evs[c].grads[key].ravel() for c, key in self.grads])
        h = np.concatenate([evs[c].hess[key].ravel() for c, key in self.hess])
        return _bincounts(g, *self.g).reshape(-1, 5), _bincounts(h, *self.h)


def _pairs(records, positions, size):
    """(pair_of, position_of, size) of the entries of the positions
    (R, ...) of each array of records (R,): the (record, position) pair
    of each entry, the pairs listed record by record, and the position
    of each pair."""
    keys = [r.reshape((-1,) + (1,) * (p.ndim - 1)) * size + p for r, p in zip(records, positions)]
    pairs, pair_of = np.unique(np.concatenate([k.ravel() for k in keys]), return_inverse=True)
    # A copy, made once np.unique's temporaries are freed: the inverse, made
    # while they were alive, would outlive them above them on the heap, and
    # the holes so left grew warm_10x30's peak RSS by a fifth over 200 solves.
    return pair_of.copy(), pairs % size, size


def _bincounts(weights, pair_of, position_of, size):
    # np.bincount adds each bin's weights in input order, from 0.0.  Empty
    # input gives ints, hence the cast.
    pairs = np.bincount(pair_of, weights, len(position_of))
    return np.bincount(position_of, pairs, size).astype(float, copy=False)


def assemble(graph, cfg, active=None, lambdas=None, use_distance_error=False):
    """Assemble gradient, bordered Hessian, and the F, L and sum |l_i| values.

    Measurements touching the fixed pose in one slot still contribute
    to the other slot's blocks; the fixed pose's own rows and columns
    are dropped entirely.  active defaults to every record, and without
    lambdas the multipliers are the first-order estimate
    (EvaluationPlan.assemble).  The graph's own poses go through an
    EvaluationPlan built for this call, which scatters into
    tables.plan's pattern whatever the mask, and the system carries
    that pattern, the multipliers it was built with (lambdas), and F, L
    and l1 as totals sums them.  Multipliers not of shape (n,) raise
    PreconditionError.
    """
    tables = measurement_tables(graph, cfg, use_distance_error)
    if active is None:
        active = np.ones(len(tables.i1), dtype=bool)
    plan = EvaluationPlan(tables, active)
    given = np.zeros(len(tables.free)) if lambdas is None else lambdas
    state = pack_state(tables, graph.table, given)
    return plan.assemble(state, graph.table[tables.anchor], estimate=lambdas is None)
