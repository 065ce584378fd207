"""Lagrange-Newton descent over the factor graph.

The iterate is the flat state [x, u, lambda] per free pose (graph.py),
evaluated through the pose table at that state; the input graph is never
copied or written.  Each iteration assembles the bordered system
H ds = -g at the current state and searches for a step along one
constant regularization ladder, LADDER: each rung solves (H + R) ds = -g
(dense symmetric-indefinite factorization at desk scale, sparse LU for
large graphs) and backtracks on the augmented-Lagrangian merit
L + mu sum|l_i|.  R repeats diag(eta_W, eta_W, eta_W, eta_W, -eta_A) per
free pose; the sign flip on the multiplier entry preserves the saddle
structure.  Rung 0 is plain Newton (R = 0); the rungs after it are the
Levenberg-Marquardt zigzag (c, 0), (0, c), (c, c) for c = 1e-6 ... 1e6.
The first rung whose step decreases the merit is taken.  If none does, a
short emergency step of length EMERGENCY_STEP is taken along the last
solvable direction.  Termination on gradient norm, step norm, iteration
budget, or a divergence guard on the state norm.

Each rung's line search takes the first of the backtracking factors
LS_ALPHAS whose merit is strictly smaller than at the iterate: the
factor a search trying one at a time would take.  A merit call
evaluates a stack of trial points.  The first solvable rung evaluates
its factors in chunks of FIRST_CHUNKS trials, the iterate riding in the
call of the factor-1 trial, which costs little where plain Newton is
accepted early.  A later rung is reached only after the rung before it
failed every factor, so it tries all 21 factors in one call.  A trial
point that collapses a pose pair has merit inf.

Home-vector and compass measurements (and the optional traveled-
distance term) are masked out for any iteration in which their pose
pair is closer than home_dist_threshold, since the home direction is
discontinuous where the positions coincide.
"""

import itertools
import math
import warnings
from dataclasses import dataclass, field, fields

import numpy as np
import scipy.linalg

from .assembly import ActiveMask, assemble, init_lambdas, measurement_tables, merit
from .costs import POS, RotCostConfig
from .errors import DegenerateVectorError, NumericalFailure
from .graph import pack_state, state_table, write_text

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


@dataclass(frozen=True)
class SolverConfig:
    max_iters: int = 100
    grad_tol: float = 1e-8
    step_tol: float = 1e-8
    mu: float = 10.0
    home_dist_threshold: float = 0.05
    cost: RotCostConfig = field(default_factory=RotCostConfig)
    use_distance_error: bool = False

    def __post_init__(self):
        if not (isinstance(self.max_iters, int) and self.max_iters >= 1):
            raise ValueError(f"max_iters must be an integer >= 1, got {self.max_iters!r}")
        for name in ("grad_tol", "step_tol", "mu"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and positive")
        if not self.home_dist_threshold >= 0.0:
            raise ValueError("home_dist_threshold must be a non-negative number")


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
    merit_calls: int = 0  # stacked merit evaluations
    merit_states: int = 0  # states (iterates and trial points) they evaluated

    @property
    def iterations(self):
        return len(self.trace)

    @property
    def converged(self):
        return self.reason in ("grad_tol", "step_tol")

    def write_trace_csv(self, dest=None):
        """The trace as CSV, one column per IterationRecord field: floats as
        repr(float), ints as-is, bools as 0/1.  Returns the text if dest is None."""
        cols = fields(IterationRecord)
        lines = [",".join(f.name for f in cols)]
        for t in self.trace:
            cells = ((f.type, getattr(t, f.name)) for f in cols)
            lines.append(",".join(repr(float(v)) if k is float else str(int(v)) for k, v in cells))
        return write_text("\n".join(lines) + "\n", dest)


def compute_active_mask(graph, threshold, use_distance_error=False, table=None, tables=None):
    """Mask measurements whose pose pair (in table) is closer than the threshold.

    The pose rows of the pairs come from tables (MeasurementTables) when
    given, else from graph.validate().  Each decision is that of math.hypot:
    np.hypot can differ from it in the last bit, so distances within two
    ulps of the threshold are re-decided with math.hypot.
    """
    if table is None:
        table = graph.pose_table()

    if tables is None:
        odo, hom = graph.validate()
        hom, odo = (hom["i1"] - 1, hom["i2"] - 1), (odo["i1"] - 1, odo["i2"] - 1)
    else:
        hom, odo = (tables.hom_i1, tables.hom_i2), (tables.odo_i1, tables.odo_i2)

    def far(pairs):
        i1, i2 = pairs
        d = table[i2, POS] - table[i1, POS]
        h = np.hypot(d[:, 0], d[:, 1])
        out = h >= threshold
        for k in np.flatnonzero(np.abs(h - threshold) <= 2.0 * np.spacing(threshold)):
            out[k] = math.hypot(d[k, 0], d[k, 1]) >= threshold
        return out

    return ActiveMask(
        homing=far(hom),
        distance=far(odo) if use_distance_error else np.ones(len(graph.odometry), dtype=bool),
    )


def spsolve(A, b):
    """Sparse LU solve of A x = b (scipy.sparse.linalg.spsolve).

    Raises NumericalFailure for a singular A.  scipy.sparse and its
    solvers are imported here, on the first sparse solve: systems below
    SPARSE_SOLVE_DIM never need them, and they add about 2.5 MB to a
    process that holds only scipy.linalg.
    """
    from scipy.sparse.linalg import MatrixRankWarning
    from scipy.sparse.linalg import spsolve as superlu_solve

    with warnings.catch_warnings():
        warnings.simplefilter("error", MatrixRankWarning)
        try:
            return superlu_solve(A, b)
        except MatrixRankWarning as exc:
            raise NumericalFailure(f"linear solve failed: {exc}") from exc


def newton_step(system, eta_w=0.0, eta_a=0.0):
    """Solve (H + R) ds = -g for the given regularization factors.

    R repeats diag(eta_w, eta_w, eta_w, eta_w, -eta_a) per free pose.
    Every rung of one system reuses its one matrix conversion.  Raises
    NumericalFailure when the system cannot be solved.
    """
    reg = np.tile([eta_w, eta_w, eta_w, eta_w, -eta_a], system.dim // 5)
    try:
        if system.dim >= SPARSE_SOLVE_DIM:
            from scipy.sparse import diags

            H = system.to_csr()
            if eta_w != 0.0 or eta_a != 0.0:
                H = H + diags(reg)
            delta = spsolve(H.tocsc(), -system.g)
        else:
            H = system.to_dense()
            if eta_w != 0.0 or eta_a != 0.0:
                H = H + np.diag(reg)
            with warnings.catch_warnings():
                # ill-conditioned solves are fine to attempt: the merit
                # line search rejects any step they ruin
                warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
                delta = scipy.linalg.solve(H, -system.g, assume_a="sym")
    except (np.linalg.LinAlgError, scipy.linalg.LinAlgError) as exc:
        raise NumericalFailure(f"linear solve failed: {exc}") from exc
    if not np.all(np.isfinite(delta)):
        raise NumericalFailure("linear solve produced non-finite step")
    return delta


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


def find_step(system, merit_fn, state):
    """Walk LADDER to the first rung whose step decreases the merit.

    merit_fn maps (S, dim) states to their (S,) merits.  Each rung
    tries the factors LS_ALPHAS in order and takes the first whose merit
    is strictly smaller than the iterate's.  The first solvable rung
    evaluates them in chunks of FIRST_CHUNKS trials, the iterate riding
    in the first call; each later rung evaluates all of them in one
    call.  Returns (direction, alpha, escalations, emergency),
    escalations being the index of the accepted rung (0 for plain
    Newton).  A rung whose system cannot be solved is skipped.  If no
    rung yields an acceptable step, the emergency result scales the last
    solvable direction to length EMERGENCY_STEP.  Raises
    NumericalFailure if no rung can be solved at all.
    """
    merit0 = None
    for escalations, (eta_w, eta_a) in enumerate(LADDER):
        try:
            delta = newton_step(system, eta_w, eta_a)
        except NumericalFailure:
            continue
        start = 0
        for size in FIRST_CHUNKS if merit0 is None else (len(LS_ALPHAS),):
            alphas = LS_ALPHAS[start : start + size]
            start += size
            trials = state + np.multiply.outer(alphas, delta)
            if merit0 is None:
                merit0, *merits = _merits(merit_fn, np.vstack((state, trials)))
            else:
                merits = _merits(merit_fn, trials)
            accepted = np.flatnonzero(np.less(merits, merit0))
            if accepted.size:
                return delta, alphas[accepted[0]], escalations, False
    if merit0 is None:
        raise NumericalFailure("no rung of the regularization ladder could be solved")
    return delta, EMERGENCY_STEP / float(np.linalg.norm(delta)), escalations, True


def solve(graph, cfg=None):
    """Validate graph and run the full descent on it; returns a SolveReport.

    The input graph is not modified; the report carries a new graph
    holding the final poses.  Initial orientation vectors must be unit
    (they seed the multiplier initialization, which raises
    PreconditionError otherwise).
    """
    if cfg is None:
        cfg = SolverConfig()
    tables = measurement_tables(graph, cfg.cost, cfg.use_distance_error)  # validates graph
    base = graph.pose_table()  # the anchor row is read from here throughout
    mask = compute_active_mask(
        graph, cfg.home_dist_threshold, cfg.use_distance_error, base, tables
    )
    state = pack_state(graph, init_lambdas(graph, cfg.cost, mask, base, tables))
    guard = 1e6 * max(1.0, float(np.linalg.norm(state)))
    merit_calls = merit_states = 0

    def merit_at(vecs):
        nonlocal merit_calls, merit_states
        merit_calls += 1
        merit_states += len(vecs)
        trials = state_table(base, graph.fixed_id, vecs)
        return merit(
            graph, cfg.cost, mask, cfg.mu, vecs[:, 4::5], cfg.use_distance_error, trials, tables
        )

    trace = []
    reason = "max_iters"
    prev_step_norm = np.inf
    for iteration in range(1, cfg.max_iters + 1):
        table = state_table(base, graph.fixed_id, state)
        mask = compute_active_mask(
            graph, cfg.home_dist_threshold, cfg.use_distance_error, table, tables
        )
        system = None  # free the last system and its matrix before building the next
        try:
            system = assemble(
                graph, cfg.cost, mask, state[4::5], cfg.use_distance_error, table, tables
            )
        except DegenerateVectorError:
            # Collapsing pose pairs mid-run are a symptom of a diverging
            # state, not a numerical-solver defect.
            reason = "diverged"
            break
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

        delta, record.alpha, record.lm_escalations, record.emergency = find_step(
            system, merit_at, state
        )

        step = record.alpha * delta
        state = state + step
        record.step_norm = prev_step_norm = float(np.linalg.norm(step))
        if not np.all(np.isfinite(state)) or float(np.linalg.norm(state)) > guard:
            reason = "diverged"
            break

    final = graph.with_poses(state_table(base, graph.fixed_id, state))
    return SolveReport(
        reason=reason,
        trace=trace,
        graph=final,
        lambdas=state[4::5].copy(),
        merit_calls=merit_calls,
        merit_states=merit_states,
    )
