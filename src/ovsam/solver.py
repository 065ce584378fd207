"""Lagrange-Newton descent over the factor graph.

The iterate is the flat state [x, u, lambda] per free pose (assembly.py),
evaluated, with every stack of trial states, through the EvaluationPlan
of the current mask, which is rebuilt only when the mask changes; the
input graph is never copied or written.  The start's multipliers are
the estimate that assembly makes at the start's poses, and that system
serves iteration 1; each later iteration assembles the bordered system
H ds = -g at the current state.  Each iteration walks one constant regularization
ladder, LADDER: each rung solves (H + R) ds = -g (LAPACK's dense
Bunch-Kaufman LDL^T factorization at desk scale, SuperLU for large
graphs) and backtracks on the l1 exact-penalty merit of the Lagrangian,
L + mu sum|l_i|.  R repeats diag(eta_W, eta_W, eta_W, eta_W, -eta_A) per
free pose; the sign flip on the multiplier entry preserves the saddle
structure.  The graph and the distance mask fix the sparsity pattern of
H + R, up to the two classes eta_A = 0 and eta_A != 0, so SuperLU's
fill-reducing column order is computed once per pattern and kept in the
solve's plan (spsolve): the sparse steps are bitwise those of a fresh
COLAMD order on every rung, except where a pivot column ties exactly
for its largest magnitude.  Rung 0 is plain Newton (R = 0); the rungs
after it are the Levenberg-Marquardt zigzag (c, 0), (0, c), (c, c) for
c = 1e-6 ... 1e6.
The first rung whose step decreases the merit is taken.  If none does, a
short emergency step of length EMERGENCY_STEP is taken along the last
solvable direction.  Termination on gradient norm, step norm, iteration
budget, or a divergence guard on the state norm.  Each iteration's
system is checked once to be finite, before any rung of it is formed.

Each rung's line search takes the first of the backtracking factors
LS_ALPHAS whose merit is strictly smaller than at the iterate: the
factor a search trying one at a time would take.  The plan's totals
give each stack of trial points its L and sum|l_i|, and the iterate's
system carries its own; solve forms L + mu sum|l_i| from them in one
place, so a merit call evaluates trial points only.  The first
solvable rung evaluates its factors in chunks of FIRST_CHUNKS trials,
which costs little where plain Newton is accepted early.  A later rung
is reached only after the rung before it failed every factor, so it
tries all 21 factors in one call.  A trial point that collapses a pose
pair has merit inf.

Home-vector and compass measurements (and the optional traveled-
distance term) are masked out for any iteration in which their pose
pair is closer than home_dist_threshold, since the home direction is
discontinuous where the positions coincide: assembly.compute_active_mask
gives one flag per record of the measurement tables' sequence.
SolveReport.phase_seconds splits the solve's wall time into the mask,
assembly, factorization and trial-merit phases.
"""

import itertools
import time
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field, fields

import numpy as np
from scipy.linalg.lapack import get_lapack_funcs

from .assembly import EvaluationPlan, compute_active_mask, measurement_tables
from .assembly import pack_state, unpack_state
from .costs import RotCostConfig
from .errors import DegenerateVectorError, NumericalFailure, PreconditionError, Settings
from .graph import UNIT_TOL, write_text
from .orvec import DEGENERATE_NORM

# Dense factorization below this state dimension, sparse LU at or above
# (dimension 495 corresponds to 100 poses).
SPARSE_SOLVE_DIM = 495

# The regularization ladder of (eta_W, eta_A) pairs, 40 rungs: plain
# Newton, then (c, 0), (0, c), (c, c) for c = 1e-6, 1e-5, ..., 1e6.  The
# c values are the running products 1e-6 * 10 * 10 ..., so rung 4 is
# (9.999999999999999e-06, 0.0), not (1e-05, 0.0).
LADDER = ((0.0, 0.0),) + tuple(
    rung
    for c in itertools.accumulate(range(12), lambda c, _: c * 10.0, initial=1e-6)
    for rung in ((c, 0.0), (0.0, c), (c, c))
)
# Backtracking factors of the merit line search: 1, 1/2, ..., 2**-20.
LS_ALPHAS = tuple(0.5**k for k in range(21))
# Chunk sizes in which the first solvable rung tries LS_ALPHAS.
FIRST_CHUNKS = (1, 2, 4, 8, 6)
# Length of the step taken when no rung of the ladder decreases the merit.
EMERGENCY_STEP = 1e-3
# The phases of SolveReport.phase_seconds.
PHASES = ("mask", "assembly", "factorization", "merits")


@dataclass(frozen=True)
class SolverConfig(Settings):
    max_iters: int = 100
    grad_tol: float = 1e-8
    step_tol: float = 1e-8
    mu: float = 10.0
    home_dist_threshold: float = 0.05
    cost: RotCostConfig = field(default_factory=RotCostConfig)
    use_distance_error: bool = False

    def requirements(self):
        return (
            ("max_iters", self.max_iters >= 1, "at least 1"),
            ("grad_tol", self.grad_tol > 0.0, "positive"),
            ("step_tol", self.step_tol > 0.0, "positive"),
            ("mu", self.mu > 0.0, "positive"),
            ("home_dist_threshold", self.home_dist_threshold >= 0.0, "nonnegative"),
        )


@dataclass
class IterationRecord:
    iteration: int
    L: float
    F: float
    grad_norm: float
    step_norm: float
    max_constraint: float
    lm_escalations: int
    emergency: bool
    alpha: float  # accepted backtracking factor, or the emergency one; 0.0 without a step


@dataclass
class SolveReport:
    reason: str  # grad_tol | step_tol | max_iters | diverged
    trace: list
    graph: object  # FactorGraph holding the final poses
    lambdas: np.ndarray
    merit_calls: int = 0  # EvaluationPlan.totals calls on trial stacks
    merit_states: int = 0  # trial points they evaluated
    factorizations: int = 0  # newton_step calls, one per rung tried
    orderings: int = 0  # COLAMD column orders computed (spsolve), 0 on the dense path
    # wall seconds (time.perf_counter) per phase: "mask" (compute_active_mask
    # and the plan a changed mask rebuilds), "assembly", "factorization"
    # (find_step outside its merit calls: the rungs' newton_step calls and
    # the trial states) and "merits" (the trial merits)
    phase_seconds: dict = field(default_factory=dict)

    @property
    def iterations(self):
        return len(self.trace)

    @property
    def converged(self):
        return self.reason == "grad_tol"

    def write_trace_csv(self, dest=None):
        """The trace as CSV, one column per IterationRecord field: floats as
        repr(float), ints as-is, bools as 0/1.  Returns the text if dest is None."""
        cols = fields(IterationRecord)
        lines = [",".join(f.name for f in cols)]
        for t in self.trace:
            cells = ((f.type, getattr(t, f.name)) for f in cols)
            lines.append(",".join(repr(float(v)) if k is float else str(int(v)) for k, v in cells))
        return write_text("\n".join(lines) + "\n", dest)


@dataclass(frozen=True)
class ColumnOrder:
    """SuperLU's column order for one pattern of H + R (spsolve).

    nonzero marks the pattern: the entries of the plan's values that
    are not zero, the ones SuperLU is handed.  A[:, q] is A Pc, Pc a
    column permutation of a matrix A of that pattern: the identity for
    the natural order, or the one SuperLU chose; data, indices and
    indptr are the CSC of A[:, q], data as positions in the values.
    """

    nonzero: np.ndarray
    q: np.ndarray
    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray


def _column_order(plan, nonzero, q):
    """The ColumnOrder of the column order q for the pattern nonzero of the plan's values."""
    kept = np.flatnonzero(nonzero)
    ptr = np.searchsorted(kept, plan.indptr)  # the column pointers of the kept entries
    starts = ptr[q]
    counts = ptr[q + 1] - starts
    indptr = np.concatenate(([0], np.cumsum(counts))).astype(np.intc)
    data = kept[np.arange(indptr[-1]) + np.repeat(starts - indptr[:-1], counts)]
    return ColumnOrder(nonzero, q, data, plan.indices[data], indptr)


def spsolve(plan, values, b):
    """Sparse LU solve of A x = b by SuperLU (scipy.sparse.linalg).

    A is the matrix of the values in the CSC order of the plan (a
    ScatterPlan), and SuperLU is handed its nonzero entries.  The
    fill-reducing column order (COLAMD) depends on that pattern only,
    so it is computed once per pattern and kept in the plan.  A rung's
    H + R has one of two classes of pattern: H's multiplier diagonal is
    exactly zero and R's -eta_a entries are the only ones on it, so the
    rungs with eta_a = 0 drop that diagonal and the others keep it; the
    class is read from the pattern, as whether the multiplier diagonal
    is nonzero.  plan.orders holds one ColumnOrder per class, and a
    pattern that changes within its class (the mask changed) replaces
    its entry.  Either path hands SuperLU one gather of the values
    (_column_order).  A miss, counted in plan.orderings, gathers A in
    its natural order, factors it by splu with its defaults, the COLAMD
    order spsolve's gssv takes, and keeps the gather for
    q = argsort(perm_c).  A hit gathers the CSC of A[:, q] and solves it
    by spsolve with permc_spec="NATURAL", then x[q] = y;
    splu(permc_spec="NATURAL") would force SymmetricMode, which changes
    the pivots.  SuperLU postorders the column elimination
    tree of A Pc, and an order already postordered maps to itself, so
    the hit factors the same columns with the same row numbering as a
    COLAMD solve.  The one gap: at DiagPivotThresh 1.0, dpivotL prefers
    row iperm_c[jcol] when it ties for the largest magnitude in its
    column, and under NATURAL that row is jcol, not q[jcol], so the
    pivots can differ where a column has an exact tie for its largest
    magnitude at pivot time.  All 108 solves of tools/solve_digest.py
    stay bitwise, and so do 18 sparse solves at 6x20 (seeds 0-5) and
    10x30 (seeds 0-2), from odometry and from the truth: of their 911
    factorizations (678 ladder escalations) one differs from a COLAMD
    solve's, by 1e-10 relative, through such a tie, on a rung whose step
    was rejected.

    Raises NumericalFailure for a singular A; a failed miss keeps no
    order.  scipy.sparse and its solvers are imported here, on the first
    sparse solve: systems below SPARSE_SOLVE_DIM never need them, and
    they add about 2.5 MB to a process that holds only scipy.linalg.
    """
    from scipy import sparse as sp
    from scipy.sparse.linalg import MatrixRankWarning, splu
    from scipy.sparse.linalg import spsolve as superlu_solve

    dim = 5 * plan.n
    nonzero = values != 0.0
    key = bool(nonzero[plan.diagonal[4::5]].any())
    order = plan.orders.get(key)
    miss = order is None or not np.array_equal(order.nonzero, nonzero)
    if miss:
        order = _column_order(plan, nonzero, np.arange(dim))
    A = sp.csc_matrix((values[order.data], order.indices, order.indptr), shape=(dim, dim))
    if miss:
        plan.orderings += 1
        try:
            lu = splu(A)
        except RuntimeError as exc:  # "Factor is exactly singular"
            raise NumericalFailure(f"linear solve failed: {exc}") from exc
        plan.orders[key] = _column_order(plan, nonzero, np.argsort(lu.perm_c))
        return lu.solve(b)
    with warnings.catch_warnings():
        warnings.simplefilter("error", MatrixRankWarning)
        try:
            y = superlu_solve(A, b, permc_spec="NATURAL")
        except MatrixRankWarning as exc:
            raise NumericalFailure(f"linear solve failed: {exc}") from exc
    x = np.empty_like(y)
    x[order.q] = y
    return x


def dense_solve(A, b):
    """Solve the symmetric A x = b by Bunch-Kaufman LDL^T (LAPACK ?sytrf, ?sytrs).

    Only the upper triangle of A is read.  The factorization takes the
    workspace ?sytrf_lwork asks for, as scipy.linalg.solve(A, b,
    assume_a="sym") does (scipy 1.17), so x equals that solve's bitwise;
    unlike it, no condition number is estimated.  A and b must be
    finite.  Raises NumericalFailure for an exactly singular A (a zero
    pivot).
    """
    sytrf, sytrf_lwork, sytrs = get_lapack_funcs(("sytrf", "sytrf_lwork", "sytrs"), (A, b))
    work, _ = sytrf_lwork(A.shape[0], lower=0)
    ldu, piv, info = sytrf(A, lower=0, lwork=int(work))
    if info > 0:
        raise NumericalFailure(f"linear solve failed: zero pivot in column {info}")
    x, _ = sytrs(ldu, piv, b, lower=0)
    return x


def newton_step(system, eta_w=0.0, eta_a=0.0):
    """Solve (H + R) ds = -g for the given regularization factors.

    R repeats diag(eta_w, eta_w, eta_w, eta_w, -eta_a) per free pose.
    Each rung forms H + R afresh: a copy of the system's values with R
    added at H's diagonal positions (plan.diagonal), solved sparse
    (spsolve, which reuses one column order per pattern) at or above
    SPARSE_SOLVE_DIM, and below it scattered into a zeroed dense matrix
    for dense_solve.  The system must be finite (solve checks it once
    per iteration).  Raises NumericalFailure when H + R is singular or
    the step is not finite.
    """
    plan, dim = system.plan, system.dim
    values = system.values.copy()
    values[plan.diagonal] += np.tile([eta_w, eta_w, eta_w, eta_w, -eta_a], plan.n)
    if dim >= SPARSE_SOLVE_DIM:
        delta = spsolve(plan, values, -system.g)
    else:
        A = np.zeros((dim, dim))
        A.ravel()[plan.flat] = values
        delta = dense_solve(A, -system.g)
    if not np.all(np.isfinite(delta)):
        raise NumericalFailure("linear solve produced non-finite step")
    return delta


@contextmanager
def _timed(seconds, phase):
    """Add the wall time of the block to seconds[phase]."""
    start = time.perf_counter()
    try:
        yield
    finally:
        seconds[phase] = seconds.get(phase, 0.0) + time.perf_counter() - start


def _merits(merit_fn, trials):
    """merit_fn over the (S, dim) trials, inf for a trial whose poses degenerate.

    One degenerate trial fails the whole stacked call, so the trials are
    then evaluated one at a time.
    """
    try:
        return merit_fn(trials)
    except DegenerateVectorError:
        if len(trials) == 1:
            return np.array([np.inf])  # the trial collapsed a pose pair; reject it
        return np.concatenate([_merits(merit_fn, trial[None]) for trial in trials])


def find_step(system, merit_fn, state, merit0):
    """Walk LADDER to the first rung whose step decreases the merit.

    merit_fn maps (S, dim) trial states to their (S,) merits.  Each rung
    tries the factors LS_ALPHAS in order and takes the first whose merit
    is strictly smaller than merit0, the iterate's.  The first solvable
    rung evaluates them in chunks of FIRST_CHUNKS trials, each later rung
    in one call.  Returns (direction, alpha, escalations, emergency),
    escalations being the index of the accepted rung (0 for plain
    Newton).  A rung that cannot be solved (a zero pivot, a singular
    sparse matrix, a non-finite step) is skipped.  If no rung yields an
    acceptable step, the emergency result scales the last solvable
    direction to length EMERGENCY_STEP.  Raises NumericalFailure if no
    rung can be solved at all.
    """
    delta = None
    for escalations, (eta_w, eta_a) in enumerate(LADDER):
        chunks = FIRST_CHUNKS if delta is None else (len(LS_ALPHAS),)
        try:
            delta = newton_step(system, eta_w, eta_a)
        except NumericalFailure:
            continue
        start = 0
        for size in chunks:
            alphas = LS_ALPHAS[start : start + size]
            start += size
            merits = _merits(merit_fn, state + np.multiply.outer(alphas, delta))
            accepted = np.flatnonzero(merits < merit0)
            if accepted.size:
                return delta, alphas[accepted[0]], escalations, False
    if delta is None:
        raise NumericalFailure("no rung of the regularization ladder could be solved")
    return delta, EMERGENCY_STEP / float(np.linalg.norm(delta)), escalations, True


def solve(graph, cfg=None):
    """Validate graph and run the full descent on it; returns a SolveReport.

    The input graph is not modified; the report carries a new graph
    holding the final poses.  A start orientation vector u whose norm is
    off 1 by more than UNIT_TOL starts at u/|u|, where the start's
    multiplier estimate is the least-squares one; one of norm at most
    DEGENERATE_NORM raises PreconditionError.  A degenerate start raises
    DegenerateVectorError naming the record; a collapse at a later
    assembly ends the solve as diverged.  An iteration's system whose
    blocks or gradient are not finite raises NumericalFailure.
    """
    if cfg is None:
        cfg = SolverConfig()
    tables = measurement_tables(graph, cfg.cost, cfg.use_distance_error)  # validates graph
    base = graph.pose_table()  # the anchor row is read from here throughout
    norms = np.hypot(base[:, 2], base[:, 3])
    bad = norms <= DEGENERATE_NORM
    if bad.any():
        k = int(np.argmax(bad))
        raise PreconditionError(
            f"pose {k + 1}: initial orientation vector has norm {float(norms[k])!r}, "
            f"below {DEGENERATE_NORM}"
        )
    off = np.abs(norms - 1.0) > UNIT_TOL
    base[off, 2:4] /= norms[off, None]
    anchor = base[tables.anchor]
    seconds = dict.fromkeys(PHASES, 0.0)
    plan = None

    def masked(table):
        """The plan of the mask at the table's poses: the last one unless the mask moved."""
        with _timed(seconds, "mask"):
            mask = compute_active_mask(
                graph, cfg.home_dist_threshold, cfg.use_distance_error, table, tables
            )
            if plan is not None and np.array_equal(mask, plan.active):
                return plan
            return EvaluationPlan(tables, mask)

    plan = masked(base)
    with _timed(seconds, "assembly"):
        start = pack_state(tables, base, np.zeros(len(tables.free)))
        system = plan.assemble(start, anchor, estimate=True)
    state = pack_state(tables, base, system.lambdas)
    guard = 1e6 * max(1.0, float(np.linalg.norm(state)))
    merit_calls = merit_states = factorizations = 0

    def merit(L, l1):
        """The l1 exact-penalty merit of the Lagrangian."""
        return L + cfg.mu * l1

    def merit_at(vecs):
        nonlocal merit_calls, merit_states
        merit_calls += 1
        merit_states += len(vecs)
        with _timed(seconds, "merits"):
            _, L, l1 = plan.totals(vecs, anchor)
            return merit(L, l1)

    trace = []
    reason = "max_iters"
    prev_step_norm = np.inf
    for iteration in range(1, cfg.max_iters + 1):
        if system is None:
            plan = masked(unpack_state(tables, base, state)[0])
            try:
                with _timed(seconds, "assembly"):
                    system = plan.assemble(state, anchor)
            except DegenerateVectorError:
                # Collapsing pose pairs mid-run are a symptom of a diverging
                # state, not a numerical-solver defect.
                reason = "diverged"
                break
        if not (np.isfinite(system.values).all() and np.isfinite(system.g).all()):
            raise NumericalFailure(f"iteration {iteration}: assembled system is not finite")
        grad_norm = float(np.linalg.norm(system.g))
        record = IterationRecord(
            iteration=iteration,
            L=system.L,
            F=system.F,
            grad_norm=grad_norm,
            step_norm=0.0,
            max_constraint=system.max_constraint(),
            lm_escalations=0,
            emergency=False,
            alpha=0.0,
        )
        trace.append(record)
        if grad_norm < cfg.grad_tol:
            reason = "grad_tol"
            break
        if prev_step_norm < cfg.step_tol:
            reason = "step_tol"
            break

        merits = seconds["merits"]
        with _timed(seconds, "factorization"):
            delta, record.alpha, record.lm_escalations, record.emergency = find_step(
                system, merit_at, state, merit(system.L, system.l1)
            )
        seconds["factorization"] -= seconds["merits"] - merits  # the search outside its merits

        system = None  # free it and its matrix before the next is built
        factorizations += record.lm_escalations + 1  # find_step tried rungs 0 .. escalations

        step = record.alpha * delta
        state = state + step
        record.step_norm = prev_step_norm = float(np.linalg.norm(step))
        if not np.all(np.isfinite(state)) or float(np.linalg.norm(state)) > guard:
            reason = "diverged"
            break

    table, lambdas = unpack_state(tables, base, state)
    return SolveReport(
        reason=reason,
        trace=trace,
        graph=graph.with_poses(table),
        lambdas=lambdas.copy(),
        merit_calls=merit_calls,
        merit_states=merit_states,
        factorizations=factorizations,
        orderings=tables.plan.orderings,
        phase_seconds=seconds,
    )
