"""Gradient and bordered-Hessian assembly of the Lagrangian.

The Lagrangian is L = F + sum_i lambda_i l(u_i) over the free poses,
where F sums all active measurement costs.  Every evaluation reads the
poses from a pose table (graph.py), which defaults to the graph's own
poses, and the measurements from MeasurementTables, structure-of-arrays
copies of the graph's measurement data that solve builds once and that
default to being built from the graph on each call.

Each cost family is evaluated for all its active records in one batched
kernel call (record_terms).  The value-only functions also take a stack
(S, N, 4) of pose tables, S trial points, and evaluate all S K records
in the same kernel calls; each trial's numbers are those of a call on
its table alone.  The results keep the numbers of a walk over the
records one at a time: F adds the term values one by one in the
canonical order (odometry in list order: translation, the optional
distance term, rotation; then active homing in list order: home vector,
compass); assembly sums each record's terms in that order and scatters
the sums record by record to the free-pose blocks they touch; per-pose
constraint terms are added afterwards.  The result is a block-sparse
symmetric system whose lambda-lambda diagonal entries are exactly zero
(a bordered saddle system).
"""

from dataclasses import dataclass

import numpy as np

from .constraints import eval_constraint, residual
from .costs import (
    ORI,
    CostEval,
    distance_weight,
    eval_compass,
    eval_distance,
    eval_home_vector,
    eval_rotation,
    eval_translation,
    term_weight,
)
from .errors import DegenerateVectorError, PreconditionError
from .graph import UNIT_TOL, record_name
from .orvec import omega, rowdot


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


@dataclass(frozen=True)
class MeasurementTables:
    """The measurements of a graph as stacked arrays, one row per record.

    Pose indices are 0-based rows of the pose table.  Per-record
    constants are computed once, with the expressions the kernels use:
    Tinv by _spd_inverse (in validate), Q, A and Psi as Omega(q),
    Omega(alpha) and Omega(psi), and the w_* weights by term_weight for
    the cost configuration the tables were built with.
    """

    rank: np.ndarray  # (N,) state rank of each pose row, -1 for the anchor
    free: np.ndarray  # (N - 1,) pose rows of the free poses, in state order
    odo_i1: np.ndarray
    odo_i2: np.ndarray
    r: np.ndarray
    Tinv: np.ndarray
    Q: np.ndarray
    w_rot: np.ndarray
    sigma_e: np.ndarray
    rho: np.ndarray
    hom_i1: np.ndarray
    hom_i2: np.ndarray
    A: np.ndarray
    Psi: np.ndarray
    w_home: np.ndarray
    w_compass: np.ndarray


def _weights(group, cols, name, gamma=None):
    """The weights of column cols[name]: term_weight with gamma, else distance_weight.

    A failure is re-raised as ValueError naming the record and the field.
    """
    try:
        return distance_weight(cols[name]) if gamma is None else term_weight(gamma, cols[name])
    except PreconditionError as exc:
        k = exc.index
        where = record_name(group, k, cols["i1"][k], cols["i2"][k])
        raise ValueError(f"{where}: {name}: {exc}") from exc


def measurement_tables(graph, cfg, use_distance_error=False):
    """MeasurementTables of graph's measurements under the cost configuration cfg.

    Built from the columns that graph.validate() checks and returns.  Then
    raises ValueError, naming the record and the field, for a weight that
    is not finite and positive: gamma / sigma**2 of every rotational,
    home-vector and compass term, and 1 / sigma_e of every distance term
    if use_distance_error.
    """
    odo, hom = graph.validate()
    free = np.subtract(graph.free_ids(), 1)
    rank = np.full(len(graph), -1)
    rank[free] = np.arange(len(free))
    if use_distance_error:  # only checked: eval_distance divides by sigma_e itself
        _weights("odometry", odo, "sigma_e")
    return MeasurementTables(
        rank=rank,
        free=free,
        odo_i1=odo["i1"] - 1,
        odo_i2=odo["i2"] - 1,
        r=odo["r"],
        Tinv=odo["Tinv"],
        Q=omega(odo["q"]),
        w_rot=_weights("odometry", odo, "sigma", cfg.gamma),
        sigma_e=odo["sigma_e"],
        rho=odo["rho"],
        hom_i1=hom["i1"] - 1,
        hom_i2=hom["i2"] - 1,
        A=omega(hom["alpha"]),
        Psi=omega(hom["psi"]),
        w_home=_weights("homing", hom, "sigma_h", cfg.gamma),
        w_compass=_weights("homing", hom, "sigma_c", cfg.gamma),
    )


class SparseSymmetricSystem:
    """Block-sparse bordered Hessian H, gradient g, and the L/F values.

    H is stored as 5x5 blocks, data[b] at block row/column keys[b] in
    state ranks (MeasurementTables.rank); only pairs sharing an active
    measurement (plus the diagonal) have a block, all 25 entries stored.
    Row/column order within a block is [x (2), u (2), lambda].  to_dense
    and to_csr convert once and return the same read-only matrix on
    every call.
    """

    def __init__(self, dim, keys, data, g, F, L, l_values):
        self.dim = dim
        self.keys = keys
        self.data = data
        self.g = g
        self.F = F
        self.L = L
        self.l_values = l_values
        self._dense = self._csr = None

    @property
    def blocks(self):
        """The blocks as a dict keyed (rank, rank)."""
        return {(int(k), int(l)): b for (k, l), b in zip(self.keys, self.data)}

    def max_constraint(self):
        return float(np.max(np.abs(self.l_values))) if self.l_values.size else 0.0

    def to_dense(self):
        if self._dense is None:
            n = self.dim // 5
            H = np.zeros((n, 5, n, 5))
            H[self.keys[:, 0], :, self.keys[:, 1], :] = self.data
            self._dense = H.reshape(self.dim, self.dim)
            self._dense.flags.writeable = False
        return self._dense

    def to_csr(self):
        if self._csr is None:
            from scipy import sparse as sp  # only the sparse solve path needs it

            i, j = np.meshgrid(np.arange(5), np.arange(5), indexing="ij")
            rows = (5 * self.keys[:, 0, None, None] + i).ravel()
            cols = (5 * self.keys[:, 1, None, None] + j).ravel()
            coo = sp.coo_matrix((self.data.ravel(), (rows, cols)), shape=(self.dim, self.dim))
            self._csr = coo.tocsr()
            self._csr.data.flags.writeable = False
        return self._csr


def _running_sum(values):
    """0.0 + v[0] + v[1] + ... over the last axis, added one at a time in order."""
    zero = np.zeros(values.shape[:-1] + (1,))
    return np.add.accumulate(np.concatenate((zero, values), axis=-1), axis=-1)[..., -1]


def _interleave(a, b):
    """Rows a[0], b[0], a[1], b[1], ..."""
    return np.stack((a, b), axis=1).reshape(-1, *a.shape[1:])


def _evaluate(group, i1, i2, calls):
    """Run one record group's kernel calls, in term order.

    calls holds (rows, call) per term: call() evaluates the term for
    the records rows (None for all records of the group), once per
    trial of a stack.  If any call hits a degenerate vector, re-raises
    for the first such record in list order, and within it the first
    such term, with the record named (for a stack, the first failing
    batch position; its trial is not named).
    """
    outs, failures = [], []
    for pos, (rows, call) in enumerate(calls):
        try:
            outs.append(call())
        except DegenerateVectorError as exc:
            if rows is None:
                k = exc.index % len(i1)
            else:
                k = int(rows[exc.index % len(rows)])
            failures.append((k, pos, exc))
    if failures:
        k, _, exc = min(failures, key=lambda f: f[:2])
        where = record_name(group, k, i1[k] + 1, i2[k] + 1)
        raise DegenerateVectorError(f"{where}: {exc}") from exc
    return outs


def record_terms(tables, table, cfg, active, use_distance_error, derivs=True):
    """Evaluate every cost family over its active records at the table's poses.

    Returns (odometry, drows, homing, hrows).  odometry holds the
    translation, the distance term if use_distance_error (over the
    odometry records drows, those active in active.distance) and the
    rotation; translation and rotation cover all odometry records.
    homing holds the home vector and the compass over the active homing
    records hrows.  Each entry is a CostEval, or the (K,) values when
    derivs is false.

    A stack (S, N, 4) of tables evaluates each term once over S K
    records, trial after trial: the pose rows are gathered from every
    table and the per-record data is tiled S times.
    """
    t = tables
    trials = len(table) if table.ndim == 3 else 1

    def poses(rows):
        return np.take(table, rows, axis=-2).reshape(-1, 4)

    def data(a):
        return np.concatenate((a,) * trials) if trials > 1 else a

    p1, p2 = poses(t.odo_i1), poses(t.odo_i2)
    d = np.flatnonzero(active.distance) if use_distance_error else None
    calls = [(None, lambda: eval_translation(p1, p2, data(t.Tinv), data(t.r), derivs))]
    if use_distance_error:
        e1, e2 = poses(t.odo_i1[d]), poses(t.odo_i2[d])
        sigma_e, rho = data(t.sigma_e[d]), data(t.rho[d])
        calls.append((d, lambda: eval_distance(e1, e2, sigma_e, rho, derivs)))
    calls.append(
        (None, lambda: eval_rotation(p1, p2, data(t.Q), data(t.w_rot), cfg, derivs))
    )
    odometry = _evaluate("odometry", t.odo_i1, t.odo_i2, calls)

    h = np.flatnonzero(active.homing)
    q1, q2 = poses(t.hom_i1[h]), poses(t.hom_i2[h])
    A, Psi = data(t.A[h]), data(t.Psi[h])
    homing = _evaluate(
        "homing",
        t.hom_i1,
        t.hom_i2,
        [
            (h, lambda: eval_home_vector(q1, q2, A, data(t.w_home[h]), cfg, derivs)),
            (h, lambda: eval_compass(q1, q2, Psi, data(t.w_compass[h]), cfg, derivs)),
        ],
    )
    return odometry, d, homing, h


_FIELDS = ("value", "grad1", "grad2", "h11", "h12", "h22")


def record_blocks(tables, table, cfg, active, use_distance_error):
    """(i1, i2, CostEval) over the active records, each record's terms summed in order.

    Records are odometry then active homing, in list order; i1 and i2
    are their 0-based pose rows.
    """
    odometry, d, homing, h = record_terms(tables, table, cfg, active, use_distance_error)
    odo = odometry[0]
    if use_distance_error:
        for name in _FIELDS:
            getattr(odo, name)[d] += getattr(odometry[1], name)
    odo += odometry[-1]
    hom = homing[0]
    hom += homing[1]
    ev = CostEval(*(np.concatenate((getattr(odo, n), getattr(hom, n))) for n in _FIELDS))
    i1 = np.concatenate((tables.odo_i1, tables.hom_i1[h]))
    i2 = np.concatenate((tables.odo_i2, tables.hom_i2[h]))
    return i1, i2, ev


def _defaults(graph, cfg, active, table, tables, use_distance_error=False):
    if tables is None:
        tables = measurement_tables(graph, cfg, use_distance_error)
    if table is None:
        table = graph.pose_table()
    if active is None:
        active = ActiveMask.all_active(graph)
    return active, table, tables


def assemble(
    graph, cfg, active=None, lambdas=None, use_distance_error=False, table=None, tables=None
):
    """Assemble gradient, bordered Hessian, and the L and F values.

    Measurements touching the fixed pose in one slot still contribute
    to the other slot's blocks; the fixed pose's own rows and columns
    are dropped entirely.
    """
    active, table, tables = _defaults(graph, cfg, active, table, tables, use_distance_error)
    n = len(tables.free)
    if lambdas is None:
        lambdas = np.zeros(n)
    i1, i2, ev = record_blocks(tables, table, cfg, active, use_distance_error)
    F = float(_running_sum(ev.value))

    # Contributions to the anchor's rows go to the discarded slot n.
    r1, r2 = tables.rank[i1], tables.rank[i2]
    s1, s2 = np.where(r1 < 0, n, r1), np.where(r2 < 0, n, r2)
    G = np.zeros((n + 1, 5))
    np.add.at(G[:, :4], _interleave(s1, s2), _interleave(ev.grad1, ev.grad2))

    # Each record's blocks h11, h22, h12, h21 at (r1, r1), (r2, r2),
    # (r1, r2), (r2, r1), keyed k * n + l; key n * n (sorting last) is
    # discarded.  One add.at in record order keeps every block's sum in
    # record order.
    k = np.stack((s1, s2, s1, s2), axis=1)
    l = np.stack((s1, s2, s2, s1), axis=1)
    key = np.where((k < n) & (l < n), k * n + l, n * n).ravel()
    diag = np.arange(n) * (n + 1)
    keys, where = np.unique(np.concatenate((key, diag)), return_inverse=True)
    data = np.zeros((len(keys), 5, 5))
    hs = np.stack((ev.h11, ev.h22, ev.h12, ev.h21), axis=1).reshape(-1, 4, 4)
    np.add.at(data[:, :4, :4], where[: len(key)], hs)

    ce = eval_constraint(lambdas, table[tables.free, ORI])
    G[:n, 2:4] += ce.grad_u
    G[:n, 4] += ce.grad_lambda
    d = where[len(key) :]
    data[d, 2:4, 2:4] += ce.h_uu
    data[d, 2:4, 4] += ce.h_ulambda
    data[d, 4, 2:4] += ce.h_ulambda

    nb = np.searchsorted(keys, n * n)
    keys = np.column_stack(np.divmod(keys[:nb], n))
    L = F + float(_running_sum(ce.w))
    return SparseSymmetricSystem(5 * n, keys, data[:nb], G[:n].ravel(), F, L, ce.l)


def total_values(
    graph, cfg, active=None, lambdas=None, use_distance_error=False, table=None, tables=None
):
    """Value-only evaluation of (F, L, sum |l_i|), same masking as assemble.

    For a stack (S, N, 4) of tables, with lambdas (S, n), each value is
    an (S,) array whose row s equals the value of a call on table[s].
    """
    active, table, tables = _defaults(graph, cfg, active, table, tables, use_distance_error)
    odometry, d, homing, _ = record_terms(tables, table, cfg, active, use_distance_error, False)
    stack = table.shape[:-2]  # () or (S,)
    if use_distance_error:
        # Masked distance terms become zeros, which change no running sum
        # that starts at +0.0: it is never -0.0, and x + 0.0 == x otherwise.
        full = np.zeros(stack + (len(tables.odo_i1),))
        full[..., d] = odometry[1].reshape(stack + (-1,))
        odometry[1] = full.ravel()

    def per_trial(terms):
        # each trial's records in order, each record's terms in order
        return np.stack(terms, axis=-1).reshape(stack + (-1,))

    F = _running_sum(np.concatenate((per_trial(odometry), per_trial(homing)), axis=-1))
    free = np.take(table[..., ORI], tables.free, axis=-2)
    l = residual(free.reshape(-1, 2)).reshape(free.shape[:-1])
    if lambdas is None:
        lambdas = np.zeros(l.shape)
    L, l1 = F + _running_sum(l * lambdas), _running_sum(np.abs(l))
    if not stack:
        return float(F), float(L), float(l1)
    return F, L, l1


def init_lambdas(graph, cfg, active=None, table=None, tables=None):
    """Initial multipliers lambda_i = -u_i^T g_i from the cost gradient.

    g_i is the gradient of the total cost (constraints excluded) with
    respect to u_i at the table's poses.  The formula assumes unit
    initial orientation vectors, which is checked here; the distance
    error has no orientation gradient and therefore never contributes.

    Returns one multiplier per free pose, in state order
    (ascending pose id, fixed pose excluded).
    """
    active, table, tables = _defaults(graph, cfg, active, table, tables)
    norms = np.hypot(table[:, 2], table[:, 3])
    bad = np.abs(norms - 1.0) > UNIT_TOL
    if bad.any():
        k = int(np.argmax(bad))
        raise PreconditionError(
            f"pose {k + 1}: initial orientation vector must be unit, got norm {float(norms[k])!r}"
        )

    i1, i2, ev = record_blocks(tables, table, cfg, active, False)
    grads = np.zeros((len(table), 2))
    np.add.at(grads, _interleave(i1, i2), _interleave(ev.grad1[:, ORI], ev.grad2[:, ORI]))
    return -rowdot(table[tables.free, ORI], grads[tables.free])


def merit(
    graph, cfg, active, mu, lambdas=None, use_distance_error=False, table=None, tables=None
):
    """Augmented-Lagrangian merit: L plus mu times the constraint L1 norm.

    A stack (S, N, 4) of tables with lambdas (S, n) gives the (S,)
    merits of its trials.
    """
    if not mu > 0.0:
        raise ValueError(f"mu must be positive, got {mu!r}")
    _, L, l1 = total_values(graph, cfg, active, lambdas, use_distance_error, table, tables)
    return L + mu * l1
