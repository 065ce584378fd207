"""Lagrange-Newton descent over the factor graph.

Each iteration assembles the bordered system H ds = -g at the current
state, solves it (dense symmetric-indefinite factorization at desk
scale, sparse LU for large graphs), and backtracks on the
augmented-Lagrangian merit L + mu sum|l_i|.  When plain Newton finds no
acceptable step, a Levenberg-Marquardt regularization (H + R) ds = -g
is escalated through a zigzag schedule of (eta_W, eta_A) pairs, where R
repeats diag(eta_W, eta_W, eta_W, eta_W, -eta_A) per free pose; the
sign flip on the multiplier entry preserves the saddle structure.  If
the whole schedule fails, a short emergency step is taken along the
last direction.  Termination on gradient norm, step norm, iteration
budget, or a divergence guard on the state norm.

Home-vector and compass measurements (and the optional traveled-
distance term) are masked out for any iteration in which their pose
pair is closer than home_dist_threshold, since the home direction is
discontinuous where the positions coincide.
"""

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
from scipy.sparse import diags
from scipy.sparse.linalg import MatrixRankWarning, spsolve

from .assembly import ActiveMask, assemble, init_lambdas, merit
from .costs import RotCostConfig
from .errors import DegenerateVectorError, NumericalFailure
from .graph import StateLayout, apply_state, pack_state

# Dense factorization below this state dimension, sparse LU at or above
# (dimension 495 corresponds to 100 poses).
SPARSE_SOLVE_DIM = 495


@dataclass(frozen=True)
class SolverConfig:
    max_iters: int = 100
    grad_tol: float = 1e-8
    step_tol: float = 1e-8
    mu: float = 10.0
    eta0: float = 1e-6
    eta_max: float = 1e6
    ls_alphas: tuple = tuple(0.5**k for k in range(21))
    emergency_alpha: float = 1e-3
    home_dist_threshold: float = 0.05
    cost: RotCostConfig = field(default_factory=RotCostConfig)
    use_distance_error: bool = False

    def __post_init__(self):
        for name in ("grad_tol", "step_tol", "mu", "eta0", "eta_max", "emergency_alpha"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive")
        if len(self.ls_alphas) == 0 or self.ls_alphas[0] != 1.0:
            raise ValueError("ls_alphas must be nonempty and start at 1")


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


@dataclass
class SolveReport:
    reason: str  # grad_tol | step_tol | max_iters | diverged
    trace: list
    graph: object  # FactorGraph holding the final poses
    lambdas: np.ndarray

    @property
    def iterations(self):
        return len(self.trace)

    @property
    def converged(self):
        return self.reason in ("grad_tol", "step_tol")

    def write_trace_csv(self, stream):
        stream.write(
            "iteration,L,F,grad_norm,step_norm,max_constraint,lm_escalations,emergency\n"
        )
        for t in self.trace:
            stream.write(
                f"{t.iteration},{float(t.L)!r},{float(t.F)!r},{float(t.grad_norm)!r},"
                f"{float(t.step_norm)!r},{float(t.max_constraint)!r},"
                f"{t.lm_escalations},{int(t.emergency)}\n"
            )


def compute_active_mask(graph, threshold, use_distance_error=False):
    """Mask measurements whose pose pair is closer than the threshold."""

    def far(m):
        d = graph.pose(m.i2).x - graph.pose(m.i1).x
        return math.hypot(d[0], d[1]) >= threshold

    return ActiveMask(
        homing=np.array([far(m) for m in graph.homing], dtype=bool),
        distance=np.array(
            [far(m) if use_distance_error else True for m in graph.odometry], dtype=bool
        ),
    )


def eta_schedule(eta0, eta_max):
    """Zigzag schedule (c, 0), (0, c), (c, c) for c = eta0, 10 eta0, ..."""
    c = eta0
    while c <= eta_max * (1.0 + 1e-12):
        yield (c, 0.0)
        yield (0.0, c)
        yield (c, c)
        c *= 10.0


def newton_step(system, eta_w=0.0, eta_a=0.0):
    """Solve (H + R) ds = -g for the given regularization factors.

    R repeats diag(eta_w, eta_w, eta_w, eta_w, -eta_a) per free pose.
    Raises NumericalFailure when the system cannot be solved.
    """
    n_free = len(system.layout.free)
    reg = np.tile([eta_w, eta_w, eta_w, eta_w, -eta_a], n_free)
    try:
        if system.dim >= SPARSE_SOLVE_DIM:
            H = system.to_csr()
            if eta_w != 0.0 or eta_a != 0.0:
                H = H + diags(reg)
            with warnings.catch_warnings():
                warnings.simplefilter("error", MatrixRankWarning)
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
    except (np.linalg.LinAlgError, scipy.linalg.LinAlgError, MatrixRankWarning) as exc:
        raise NumericalFailure(f"linear solve failed: {exc}") from exc
    if not np.all(np.isfinite(delta)):
        raise NumericalFailure("linear solve produced non-finite step")
    return delta


def line_search(merit_fn, state, direction, alphas, merit0=None):
    """First backtracking factor that strictly decreases the merit, or None."""
    if merit0 is None:
        merit0 = merit_fn(state)
    for alpha in alphas:
        if merit_fn(state + alpha * direction) < merit0:
            return alpha
    return None


def lm_escalate(system, merit_fn, state, cfg, merit0=None):
    """Walk the regularization schedule after plain Newton failed.

    Returns (direction, alpha, escalations, emergency).  If no schedule
    entry yields an acceptable step, the emergency result scales the
    last solvable direction to length cfg.emergency_alpha.  Raises
    NumericalFailure if no regularized system can be solved at all.
    """
    if merit0 is None:
        merit0 = merit_fn(state)
    escalations = 0
    last = None
    for eta_w, eta_a in eta_schedule(cfg.eta0, cfg.eta_max):
        escalations += 1
        try:
            delta = newton_step(system, eta_w, eta_a)
        except NumericalFailure:
            continue
        last = delta
        alpha = line_search(merit_fn, state, delta, cfg.ls_alphas, merit0)
        if alpha is not None:
            return delta, alpha, escalations, False
    if last is None:
        raise NumericalFailure("no regularized system could be solved")
    return last, cfg.emergency_alpha / float(np.linalg.norm(last)), escalations, True


def solve(graph, cfg=None):
    """Run the full descent on a validated graph; returns a SolveReport.

    The input graph is not modified; the report carries a copy holding
    the final poses.  Initial orientation vectors must be unit (they
    seed the multiplier initialization, which raises PreconditionError
    otherwise).
    """
    if cfg is None:
        cfg = SolverConfig()
    graph.validate()

    work = graph.copy()  # current iterate
    scratch = graph.copy()  # trial states during line search
    layout = StateLayout(work)

    mask = compute_active_mask(work, cfg.home_dist_threshold, cfg.use_distance_error)
    lambdas = init_lambdas(work, cfg.cost, active=mask)
    state = pack_state(work, lambdas)
    guard = 1e6 * max(1.0, float(np.linalg.norm(state)))

    def merit_at(vec):
        lams = apply_state(vec, scratch)
        try:
            return merit(scratch, cfg.cost, mask, cfg.mu, lams, cfg.use_distance_error)
        except DegenerateVectorError:
            return np.inf  # trial state collapsed a pose pair; reject it

    trace = []
    reason = "max_iters"
    prev_step_norm = np.inf
    for iteration in range(1, cfg.max_iters + 1):
        mask = compute_active_mask(work, cfg.home_dist_threshold, cfg.use_distance_error)
        try:
            system = assemble(
                work, cfg.cost, mask, lambdas, cfg.use_distance_error
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
        )
        trace.append(record)
        if grad_norm < cfg.grad_tol:
            reason = "grad_tol"
            break
        if prev_step_norm < cfg.step_tol:
            reason = "step_tol"
            break

        merit0 = merit_at(state)
        alpha = None
        try:
            delta = newton_step(system)
            alpha = line_search(merit_at, state, delta, cfg.ls_alphas, merit0)
        except NumericalFailure:
            pass
        if alpha is None:
            delta, alpha, record.lm_escalations, record.emergency = lm_escalate(
                system, merit_at, state, cfg, merit0
            )

        step = alpha * delta
        state = state + step
        lambdas = apply_state(state, work)
        record.step_norm = prev_step_norm = float(np.linalg.norm(step))
        if not np.all(np.isfinite(state)) or float(np.linalg.norm(state)) > guard:
            reason = "diverged"
            break

    final = graph.copy()
    final_lambdas = apply_state(state, final)
    return SolveReport(reason=reason, trace=trace, graph=final, lambdas=final_lambdas)
