"""Newton/LM stepping machinery and the full descent loop."""

import io
import math
import os
import subprocess
import sys
import time
import types
import warnings
from pathlib import Path

import numpy as np
import pytest
from conftest import (
    coincident_start,
    consistent_graph,
    evaluation,
    random_graph,
    state_of,
    two_pose_graph,
)
from dense_assembly import dense_matrix, regularized_values

import ovsam.assembly as assembly_module
import ovsam.graph as graph_module
import ovsam.solver as solver_module
from ovsam.assembly import EvaluationPlan, measurement_tables
from ovsam.costs import RotCostConfig
from ovsam.errors import (
    DegenerateVectorError,
    GraphValidationError,
    NumericalFailure,
    PreconditionError,
)
from ovsam.graph import (
    FactorGraph,
    HomingMeasurement,
    OdometryMeasurement,
    Pose,
    load_graph,
    save_graph,
)
from ovsam.orvec import from_angle, omega
from ovsam.sim import SimConfig, simulate
from ovsam.solver import (
    EMERGENCY_STEP,
    FIRST_CHUNKS,
    LADDER,
    LS_ALPHAS,
    PHASES,
    SPARSE_SOLVE_DIM,
    SolverConfig,
    compute_active_mask,
    dense_solve,
    find_step,
    newton_step,
    solve,
)


class _StubSystem:
    """Duck-typed stand-in carrying just what newton_step and find_step
    consume on the dense path: g, dim, values and a plan's n, flat and
    diagonal.  It stores every entry of the dense H (dim a multiple of
    5), column by column, as a CSC plan orders them; solve, not
    newton_step, checks that a system is finite."""

    def __init__(self, H, g):
        self.g = np.asarray(g, dtype=float)
        self.dim = dim = len(self.g)
        self.values = np.asarray(H, dtype=float).T.ravel()
        cols, rows = np.divmod(np.arange(dim * dim), dim)
        diagonal = np.arange(dim) * (dim + 1)
        self.plan = types.SimpleNamespace(n=dim // 5, flat=rows * dim + cols, diagonal=diagonal)


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(mu=0.0)
    # an infinite tolerance reports convergence at any state; NaN never does
    for name in ("grad_tol", "step_tol", "mu"):
        for bad in (float("inf"), float("nan"), -1.0):
            with pytest.raises(ValueError, match=name):
                SolverConfig(**{name: bad})
    # no iteration would run; a fraction fails only inside solve
    for bad in (0, -3, 2.5, True):
        with pytest.raises(ValueError, match="max_iters"):
            SolverConfig(max_iters=bad)
    assert SolverConfig(max_iters=np.int64(5)).max_iters == 5
    # NaN would mask every homing record; a negative threshold none
    with pytest.raises(ValueError, match="home_dist_threshold"):
        SolverConfig(home_dist_threshold=float("nan"))
    with pytest.raises(ValueError, match="home_dist_threshold"):
        SolverConfig(home_dist_threshold=-0.1)
    with pytest.raises(ValueError, match="^home_dist_threshold must be finite, got inf$"):
        SolverConfig(home_dist_threshold=float("inf"))
    # an int too large for a float is not finite (math.isfinite overflows on it);
    # a numpy float infinity stays rejected
    for name in ("grad_tol", "step_tol", "mu", "home_dist_threshold"):
        for bad in (10**400, -(10**400), np.float32("inf")):
            with pytest.raises(ValueError, match=f"^{name} must be finite"):
                SolverConfig(**{name: bad})
    # each field is checked against its annotation: no bool for a float, no
    # string for a bool, no form name for the nested config
    for name, bad in (("grad_tol", True), ("use_distance_error", "yes"), ("cost", "second")):
        with pytest.raises(ValueError, match=f"^{name} must be .*, got {bad!r}$"):
            SolverConfig(**{name: bad})
    SolverConfig(max_iters=1, home_dist_threshold=0.0)


def test_newton_step_identity():
    g = np.array([2.0, -1.0, 0.5, 3.0, -4.0])
    delta = newton_step(_StubSystem(np.eye(5), g))
    assert np.max(np.abs(delta + g)) < 1e-14


def test_newton_step_saddle():
    # indefinite bordered system: the step still solves H ds = -g exactly;
    # u_y and lambda form the saddle block [[1, 1], [1, 0]]
    H = np.diag([1.0, 1.0, 1.0, 1.0, 0.0])
    H[3, 4] = H[4, 3] = 1.0
    delta = newton_step(_StubSystem(H, np.array([0.0, 0.0, 0.0, 1.0, 1.0])))
    assert np.max(np.abs(delta - [0.0, 0.0, 0.0, -1.0, 0.0])) < 1e-14


def test_newton_step_singular_raises():
    with pytest.raises(NumericalFailure):
        newton_step(_StubSystem(np.zeros((5, 5)), np.ones(5)))


@pytest.mark.parametrize("lanes,points_per_lane", [(2, 5), (6, 20)], ids=["dense", "sparse"])
@pytest.mark.parametrize("where", ["H", "g"])
def test_solve_rejects_a_non_finite_system(monkeypatch, lanes, points_per_lane, where):
    # solve checks each assembled system once, before any rung of it is
    # formed: the start's system (iteration 1: no rung solved at all) and
    # the third assembly (iteration 3); 6x20 is dim 595, the sparse path
    graph = simulate(SimConfig(lanes=lanes, points_per_lane=points_per_lane))[0]
    assert (5 * (len(graph) - 1) >= SPARSE_SOLVE_DIM) == (lanes == 6)
    assemble, newton_step = EvaluationPlan.assemble, solver_module.newton_step
    steps, assemblies = [], []

    def counted_step(*args):
        steps.append(1)
        return newton_step(*args)

    def poisoned_assemble(*args, **kwargs):
        system = assemble(*args, **kwargs)
        assemblies.append(len(steps))  # the rungs solved before this assembly
        if len(assemblies) == iteration:
            if where == "H":
                system.values[system.plan.diag_blocks[-1, 2, 3]] = np.nan
            else:
                system.g[3] = np.inf
        return system

    monkeypatch.setattr(solver_module, "newton_step", counted_step)
    monkeypatch.setattr(EvaluationPlan, "assemble", poisoned_assemble)
    for iteration in (1, 3):
        steps.clear()
        assemblies.clear()
        with pytest.raises(NumericalFailure) as got:
            solve(graph)
        assert str(got.value) == f"iteration {iteration}: assembled system is not finite"
        assert len(assemblies) == iteration
        assert assemblies[-1] == len(steps)  # no rung of the poisoned system
    assert len(steps) > 0  # iterations 1 and 2 solved theirs


@pytest.mark.parametrize("lanes,points_per_lane", [(2, 5), (3, 10), (4, 15), (5, 19)])
def test_dense_solve_equals_scipy_solve_bitwise(lanes, points_per_lane):
    # dense_solve runs the factorization and triangular solves of
    # scipy.linalg.solve(assume_a="sym"); the blocked factorization's
    # path depends on the dimension, hence four dims below SPARSE_SOLVE_DIM
    import scipy.linalg

    graph = simulate(SimConfig(lanes=lanes, points_per_lane=points_per_lane))[0]
    system = assembly_module.assemble(graph, RotCostConfig())
    assert system.dim == 5 * (lanes * points_per_lane - 1) < SPARSE_SOLVE_DIM
    for rung in LADDER[::3]:
        H = dense_matrix(system, *rung)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
            expected = scipy.linalg.solve(H, -system.g, assume_a="sym")
        assert np.array_equal(dense_solve(H, -system.g), expected), rung


def test_newton_step_regularization_signs(monkeypatch):
    # newton_step forms H + R from the rung's factors: +eta_w on pose
    # coordinates, -eta_a on the multiplier
    rungs = _counting_newton_step(monkeypatch)
    stub = _StubSystem(np.diag([1.0, 1.0, 1.0, 1.0, 2.0]), np.ones(5))
    delta = solver_module.newton_step(stub, eta_w=1.0, eta_a=1.0)
    assert rungs == [(1.0, 1.0)]
    assert np.max(np.abs(delta - [-0.5, -0.5, -0.5, -0.5, -1.0])) < 1e-14
    graph = random_graph(np.random.default_rng(5), n_poses=4, n_homing=3)
    system = assembly_module.assemble(graph, RotCostConfig(), lambdas=np.ones(3))
    H = dense_matrix(system) + np.diag(np.tile([1e-3, 1e-3, 1e-3, 1e-3, -2e-3], 3))
    delta = newton_step(system, eta_w=1e-3, eta_a=2e-3)
    assert np.max(np.abs(H @ delta + system.g)) < 1e-10 * max(1.0, np.max(np.abs(system.g)))


def test_dense_newton_step_hands_over_the_oracle_matrix(monkeypatch):
    # below SPARSE_SOLVE_DIM each rung scatters H + R into a zeroed dense
    # matrix: byte for byte the oracle's, read through the CSC arrays
    system = assembly_module.assemble(simulate(SimConfig())[0], RotCostConfig())
    assert system.dim < SPARSE_SOLVE_DIM
    stored = system.values.copy()
    handed = []

    def spy(A, b):
        handed.append(A.copy())
        return dense_solve(A, b)

    monkeypatch.setattr(solver_module, "dense_solve", spy)
    for rung in LADDER:
        try:
            newton_step(system, *rung)
        except NumericalFailure:
            pass
        assert handed[-1].tobytes() == dense_matrix(system, *rung).tobytes(), rung
    assert len(handed) == len(LADDER)
    assert system.values.tobytes() == stored.tobytes()  # no rung writes the stored H


def test_ladder_rungs():
    assert len(LADDER) == 40
    assert LADDER[0] == (0.0, 0.0)  # plain Newton
    assert LADDER[1:4] == ((1e-6, 0.0), (0.0, 1e-6), (1e-6, 1e-6))
    # the eta values are running products of 10, not decimal literals
    assert LADDER[4][0] == 9.999999999999999e-06
    assert LADDER[-1] == (1e6, 1e6)


def _sq(states):
    return np.array([float(s @ s) for s in states])


def test_line_search_behavior():
    # H = I, so plain Newton steps by -g from e_0 on the merit |s|^2
    state = np.eye(5)[0]

    def search(g):
        return find_step(_StubSystem(np.eye(5), g), _sq, state, 1.0)

    assert search(state)[1:] == (1.0, 0, False)
    assert search(3.0 * state)[1:] == (0.5, 0, False)
    # every rung steps uphill: no factor is accepted
    assert search(-state)[2:] == (len(LADDER) - 1, True)


def _merit_of(merit_fn, vec):
    """merit_fn at one state, inf where its poses degenerate."""
    try:
        return merit_fn(vec[None])[0]
    except DegenerateVectorError:
        return np.inf


def _sequential_find_step(system, merit_fn, state, merit0):
    """Reference step search: LADDER walked one trial point at a time.

    Every trial point is one merit_fn call; newton_step is looked up on
    the solver module, so a patched step applies here too.
    """
    last = None
    for escalations, (eta_w, eta_a) in enumerate(LADDER):
        try:
            delta = solver_module.newton_step(system, eta_w, eta_a)
        except NumericalFailure:
            continue
        last = delta
        for alpha in LS_ALPHAS:
            if _merit_of(merit_fn, state + alpha * delta) < merit0:
                return delta, alpha, escalations, False
    if last is None:
        raise NumericalFailure("no rung of the regularization ladder could be solved")
    return last, EMERGENCY_STEP / float(np.linalg.norm(last)), escalations, True


def _counting_newton_step(monkeypatch, flip_plain=False):
    """Record the rungs newton_step is called with; optionally negate rung 0."""
    rungs = []

    def step(system, eta_w=0.0, eta_a=0.0):
        rungs.append((eta_w, eta_a))
        delta = newton_step(system, eta_w, eta_a)
        return -delta if flip_plain and (eta_w, eta_a) == (0.0, 0.0) else delta

    monkeypatch.setattr(solver_module, "newton_step", step)
    return rungs


def test_find_step_plain_newton_accepted(monkeypatch):
    rungs = _counting_newton_step(monkeypatch)
    system = _StubSystem(np.eye(5), np.ones(5))
    delta, alpha, escalations, emergency = find_step(system, _sq, np.ones(5), 5.0)
    assert (escalations, alpha, emergency) == (0, 1.0, False)
    assert rungs == [(0.0, 0.0)]
    assert np.array_equal(delta, -np.ones(5))


def test_find_step_rejected_plain_step_takes_rung_1(monkeypatch):
    # the plain direction points uphill, so its line search fails
    rungs = _counting_newton_step(monkeypatch, flip_plain=True)
    system = _StubSystem(np.eye(5), np.ones(5))
    delta, alpha, escalations, emergency = find_step(system, _sq, np.ones(5), 5.0)
    assert (escalations, alpha, emergency) == (1, 1.0, False)
    assert rungs == list(LADDER[:2])


def test_find_step_singular_plain_system_falls_through(monkeypatch):
    # H is singular until a rung puts -eta_A on the multiplier entry
    rungs = _counting_newton_step(monkeypatch)
    system = _StubSystem(np.diag([1.0, 1.0, 1.0, 1.0, 0.0]), np.ones(5))

    def pose_merit(states):
        return np.array([float(s[:4] @ s[:4]) for s in states])

    delta, alpha, escalations, emergency = find_step(system, pose_merit, np.ones(5), 4.0)
    assert (escalations, alpha, emergency) == (2, 1.0, False)
    assert LADDER[2] == (0.0, 1e-6)
    assert rungs == list(LADDER[:3])
    assert np.array_equal(delta[:4], -np.ones(4))


def test_find_step_emergency_step_length():
    # the state already minimizes the merit: every line search fails
    system = _StubSystem(np.eye(5), np.array([1.0, 0.0, 0.0, 0.0, 0.0]))
    delta, alpha, escalations, emergency = find_step(system, _sq, np.zeros(5), 0.0)
    assert emergency
    assert escalations == len(LADDER) - 1 == 39
    assert float(np.linalg.norm(alpha * delta)) == pytest.approx(EMERGENCY_STEP)


def test_find_step_nothing_solvable(monkeypatch):
    def always_fail(system, eta_w=0.0, eta_a=0.0):
        raise NumericalFailure("nope")

    monkeypatch.setattr(solver_module, "newton_step", always_fail)
    system = _StubSystem(np.eye(2), np.ones(2))
    with pytest.raises(NumericalFailure):
        find_step(system, lambda states: np.zeros(len(states)), np.zeros(2), 0.0)


def _ladder_stub(monkeypatch, accept, singular=(), degenerate=()):
    """Patch newton_step to step e_0 + r e_1 on rung r; merit_fn over its trials.

    Rung r raises NumericalFailure if r is in singular.  From state 0
    (merit 0.5, given), trial LS_ALPHAS[k] of rung r has merit 0 if k is
    in accept.get(r, ()), else 1; a stack holding (r, k) in degenerate
    raises DegenerateVectorError, and a stack holding the state itself
    fails the test.  Returns merit_fn and the list of its call sizes.
    """
    rung_of = {eta: r for r, eta in enumerate(LADDER)}
    index = {alpha: k for k, alpha in enumerate(LS_ALPHAS)}

    def step(system, eta_w=0.0, eta_a=0.0):
        r = rung_of[(eta_w, eta_a)]
        if r in singular:
            raise NumericalFailure("singular")
        return np.array([1.0, float(r)])

    monkeypatch.setattr(solver_module, "newton_step", step)
    calls = []

    def merit_fn(states):
        calls.append(len(states))
        assert all(s[0] != 0.0 for s in states), "a merit stack holds the iterate"
        trials = [(round(s[1] / s[0]), index[float(s[0])]) for s in states]
        if any(t in degenerate for t in trials):
            raise DegenerateVectorError("trial collapsed a pose pair")
        return np.array([0.0 if k in accept.get(r, ()) else 1.0 for r, k in trials])

    return merit_fn, calls


def _check_find_step(merit_fn, calls):
    """find_step against the sequential reference; returns find_step's call sizes."""
    want = _sequential_find_step(None, merit_fn, np.zeros(2), 0.5)
    calls.clear()
    got = find_step(None, merit_fn, np.zeros(2), 0.5)
    assert got[1:] == want[1:]
    assert np.array_equal(got[0], want[0])
    return got, list(calls)


@pytest.mark.parametrize("first", range(len(LS_ALPHAS)))
def test_find_step_folds_the_iterate_into_the_first_chunk(monkeypatch, first):
    # plain Newton accepts from factor index first on: the iterate's merit
    # is given, so the factor-1 trial is a call of its own, then chunks of
    # 2, 4, 8, 6 factors
    rng = np.random.default_rng(first)
    later = {k for k in range(first + 1, len(LS_ALPHAS)) if rng.random() < 0.5}
    merit_fn, calls = _ladder_stub(monkeypatch, {0: {first} | later, 1: {0}})
    (_, alpha, escalations, emergency), sizes = _check_find_step(merit_fn, calls)
    assert (alpha, escalations, emergency) == (LS_ALPHAS[first], 0, False)
    assert sizes == [1] + [2, 4, 8, 6][: (first + 1).bit_length() - 1]


@pytest.mark.parametrize("k", [0, 1, 2, 17, 38])
def test_find_step_searches_every_later_rung_whole(monkeypatch, k):
    # rung 0 and rungs 1..k fail every factor; rung k + 1 accepts
    rng = np.random.default_rng(k)
    for first in (0, 3, 20):
        later = {j for j in range(first + 1, len(LS_ALPHAS)) if rng.random() < 0.5}
        merit_fn, calls = _ladder_stub(monkeypatch, {k + 1: {first} | later})
        (_, alpha, escalations, emergency), sizes = _check_find_step(merit_fn, calls)
        assert (alpha, escalations, emergency) == (LS_ALPHAS[first], k + 1, False)
        assert sizes == [1, 2, 4, 8, 6] + [21] * k + [21]


def test_find_step_merit_calls_when_no_rung_accepts(monkeypatch):
    merit_fn, calls = _ladder_stub(monkeypatch, {})
    (delta, alpha, escalations, emergency), sizes = _check_find_step(merit_fn, calls)
    assert (escalations, emergency) == (len(LADDER) - 1, True)
    assert np.array_equal(delta, [1.0, len(LADDER) - 1])
    assert sizes == [1, 2, 4, 8, 6] + [21] * (len(LADDER) - 1)


def test_find_step_folds_the_iterate_into_the_first_solvable_rung(monkeypatch):
    # the iterate's merit is given, so no merit stack holds the iterate
    # (_ladder_stub's merit_fn fails on it).  Rungs 0, 1 and 4 cannot be
    # solved: rung 2, the first solvable one, is searched in chunks from
    # its factor-1 trial on, rung 3 whole, rung 4 not at all, and rung 5
    # accepts
    merit_fn, calls = _ladder_stub(monkeypatch, {5: {2}}, singular={0, 1, 4})
    (_, alpha, escalations, emergency), sizes = _check_find_step(merit_fn, calls)
    assert (alpha, escalations, emergency) == (LS_ALPHAS[2], 5, False)
    assert sizes == [1, 2, 4, 8, 6, 21, 21]


@pytest.mark.parametrize("first", [*range(len(LS_ALPHAS)), None])
def test_chunked_line_search_matches_the_sequential_search(monkeypatch, first):
    # first is the index of plain Newton's first acceptable factor; with
    # None rung 0 accepts none and rung 1 accepts factor 1
    rng = np.random.default_rng(len(LS_ALPHAS) if first is None else first)
    head = set() if first is None else {first}
    later = range(len(LS_ALPHAS) if first is None else first + 1, len(LS_ALPHAS))
    for acceptable in (head, head | set(later), head | {k for k in later if rng.random() < 0.5}):
        merit_fn, calls = _ladder_stub(monkeypatch, {0: acceptable, 1: {0}})
        (_, alpha, escalations, _), sizes = _check_find_step(merit_fn, calls)
        assert (alpha, escalations) == ((1.0, 1) if first is None else (LS_ALPHAS[first], 0))
        # the chunk holding trial k is the bit_length(k + 1)-th, and it
        # ends before trial 2 (k + 1) - 1
        chunks = [1, 2, 4, 8, 6]
        assert sizes == (chunks + [21] if first is None else chunks[: (first + 1).bit_length()])


def test_line_search_chunk_sizes(monkeypatch):
    # the first solvable rung tries the factors in FIRST_CHUNKS, a later rung
    # in one call
    assert FIRST_CHUNKS == (1, 2, 4, 8, 6)
    assert sum(FIRST_CHUNKS) == len(LS_ALPHAS)
    merit_fn, calls = _ladder_stub(monkeypatch, {1: {len(LS_ALPHAS) - 1}})
    (_, alpha, escalations, _), sizes = _check_find_step(merit_fn, calls)
    assert (alpha, escalations) == (LS_ALPHAS[-1], 1)
    assert sizes == [1, 2, 4, 8, 6, 21]


def test_degenerate_trial_rejects_only_itself(monkeypatch):
    # trials 3-6 are one chunk; trial 4 degenerates and trial 5 is accepted
    merit_fn, calls = _ladder_stub(monkeypatch, {0: {5, 6}}, degenerate={(0, 4)})
    (_, alpha, escalations, _), sizes = _check_find_step(merit_fn, calls)
    assert (alpha, escalations) == (LS_ALPHAS[5], 0)
    assert sizes == [1, 2, 4, 1, 1, 1, 1]
    # a degenerate trial is never accepted, also when it is the first acceptable one
    merit_fn, calls = _ladder_stub(monkeypatch, {0: {4, 5}}, degenerate={(0, 4)})
    (_, alpha, escalations, _), sizes = _check_find_step(merit_fn, calls)
    assert (alpha, escalations) == (LS_ALPHAS[5], 0)


def test_find_step_degenerate_first_trial_keeps_the_iterate_merit(monkeypatch):
    # the factor-1 trial, alone in the first chunk, degenerates and is
    # rejected against the given iterate merit; a degenerate trial on a
    # later rung rejects only itself
    merit_fn, calls = _ladder_stub(
        monkeypatch, {0: {0}, 1: {0, 1, 3}}, degenerate={(0, 0), (1, 0), (1, 1)}
    )
    (_, alpha, escalations, emergency), sizes = _check_find_step(merit_fn, calls)
    assert (alpha, escalations, emergency) == (LS_ALPHAS[3], 1, False)
    assert sizes == [1, 2, 4, 8, 6, 21] + [1] * 21


# ---------------------------------------------------------------------------
# full solve loop


def test_two_pose_recovers_closed_form_optimum():
    graph = two_pose_graph()
    # displace the free pose off the optimum
    x_opt = graph.pose(2).x.copy()
    u_opt = graph.pose(2).u.copy()
    graph.pose(2).x += [0.1, 0.1]
    graph.pose(2).u[:] = omega(from_angle(0.1)) @ graph.pose(2).u
    report = solve(graph)
    assert report.converged
    assert report.iterations <= 10
    sol = report.graph.pose(2)
    assert np.max(np.abs(sol.x - x_opt)) < 1e-6
    assert np.max(np.abs(sol.u - u_opt)) < 1e-6
    assert report.trace[-1].F < 1e-10


def test_consistent_graph_converges_immediately():
    # multiplier initialization is exact at a consistent graph
    rng = np.random.default_rng(0)
    graph = consistent_graph(rng, n_poses=5)
    report = solve(graph)
    assert report.reason == "grad_tol"
    assert report.iterations == 1


def test_solve_leaves_input_untouched_and_fixes_anchor():
    rng = np.random.default_rng(1)
    graph = random_graph(rng, n_poses=5, n_homing=3, unit_orientations=True)
    before = save_graph(graph)
    report = solve(graph, SolverConfig(max_iters=5))
    assert save_graph(graph) == before
    anchor = report.graph.pose(graph.fixed_id)
    assert np.array_equal(anchor.x, graph.pose(graph.fixed_id).x)
    assert np.array_equal(anchor.u, graph.pose(graph.fixed_id).u)
    assert report.lambdas.shape == (4,)
    assert report.lambdas.flags.owndata  # not a view of the final state


def test_solve_deterministic():
    rng = np.random.default_rng(2)
    graph = random_graph(rng, n_poses=6, n_homing=4, unit_orientations=True)
    cfg = SolverConfig(max_iters=8)
    a = solve(graph, cfg)
    b = solve(graph, cfg)
    assert [t.L for t in a.trace] == [t.L for t in b.trace]
    assert np.array_equal(state_of(a.graph, a.lambdas), state_of(b.graph, b.lambdas))


def test_solve_makes_no_graph_copy(monkeypatch):
    # trial states live in the pose table; no graph copy is needed
    rng = np.random.default_rng(5)
    graph = random_graph(rng, n_poses=6, n_homing=4, unit_orientations=True)
    cfg = SolverConfig(max_iters=8)
    expected = solve(graph, cfg)

    def no_copy(self):
        raise AssertionError("solve copied a graph")

    monkeypatch.setattr(FactorGraph, "copy", no_copy)
    got = solve(graph, cfg)
    assert (got.reason, got.iterations) == (expected.reason, expected.iterations)
    assert got.trace == expected.trace
    assert save_graph(got.graph) == save_graph(expected.graph)
    assert got.lambdas.tobytes() == expected.lambdas.tobytes()


def _truth_start(cfg):
    """The simulated graph of cfg started at the true poses."""
    graph, truth = simulate(cfg)
    poses = [Pose(t[:2], from_angle(t[2])) for t in truth.poses]
    return FactorGraph(poses, graph.odometry, graph.homing, graph.fixed_id)


def test_chunked_line_search_solves_as_the_sequential_search(monkeypatch):
    # the default scenario; a short solve from the truth that escalates on
    # most iterations; and a run whose multipliers diverge.  Each case:
    # reason, escalations, newton_step calls, merit calls and states.
    cases = [
        (simulate(SimConfig())[0], SolverConfig(), ("grad_tol", 95, 109, 130, 2101)),
        (
            _truth_start(SimConfig(seed=34)),
            SolverConfig(max_iters=10),
            ("max_iters", 123, 133, 163, 2737),
        ),
        (
            simulate(SimConfig(seed=12, noise_ang=1e-4))[0],
            SolverConfig(),
            ("diverged", 265, 287, 362, 5951),
        ),
    ]
    for graph, cfg, counts in cases:
        monkeypatch.undo()
        rungs = _counting_newton_step(monkeypatch)
        chunked = solve(graph, cfg)
        steps = len(rungs)
        monkeypatch.setattr(solver_module, "find_step", _sequential_find_step)
        sequential = solve(graph, cfg)
        assert chunked.reason == sequential.reason
        assert chunked.trace == sequential.trace
        assert save_graph(chunked.graph) == save_graph(sequential.graph)
        assert chunked.lambdas.tobytes() == sequential.lambdas.tobytes()
        # every rung searched, none solved speculatively
        escalations = sum(t.lm_escalations for t in chunked.trace)
        assert (chunked.reason, escalations, steps) == counts[:3]
        assert len(rungs) == 2 * steps
        assert (chunked.merit_calls, chunked.merit_states) == counts[3:]
        assert sequential.merit_calls == sequential.merit_states
        assert (chunked.factorizations, chunked.orderings) == (steps, 0)  # dense: no COLAMD


def test_report_counts_merit_calls_and_records_alpha(monkeypatch):
    graph = simulate(SimConfig(lanes=2, points_per_lane=5))[0]
    alphas, stacks = [], []

    def counted_find_step(system, merit_fn, state, merit0):
        out = find_step(system, merit_fn, state, merit0)
        alphas.append(out[1])
        return out

    totals = EvaluationPlan.totals

    def counted_totals(plan, states, anchor):
        stacks.append(len(states))
        return totals(plan, states, anchor)

    monkeypatch.setattr(solver_module, "find_step", counted_find_step)
    monkeypatch.setattr(EvaluationPlan, "totals", counted_totals)
    report = solve(graph)
    assert report.reason == "grad_tol"
    assert [t.alpha for t in report.trace] == alphas + [0.0]
    assert (report.merit_calls, report.merit_states) == (len(stacks), sum(stacks))
    # plain Newton's factor-1 trial is accepted on every step: no call
    # evaluates the iterate, so each step costs one trial point
    assert alphas == [1.0] * 6
    assert report.merit_calls == report.merit_states == len(alphas)


def test_report_splits_the_solve_time_into_phases():
    # every phase is present and nonnegative, and the phases, timed apart,
    # sum to no more than the whole solve
    for graph in (simulate(SimConfig())[0], two_pose_graph()):
        start = time.perf_counter()
        report = solve(graph, SolverConfig(max_iters=5))
        elapsed = time.perf_counter() - start
        seconds = report.phase_seconds
        assert list(seconds) == list(PHASES) == ["mask", "assembly", "factorization", "merits"]
        assert all(s >= 0.0 for s in seconds.values())
        assert sum(seconds.values()) <= elapsed
        assert seconds["assembly"] > 0.0


def test_step_tol_termination():
    graph = two_pose_graph()
    graph.pose(2).x += [0.05, -0.02]
    report = solve(graph, SolverConfig(grad_tol=1e-300, step_tol=10.0))
    assert report.reason == "step_tol"
    assert not report.converged
    assert report.iterations == 2


def test_max_iters_termination():
    rng = np.random.default_rng(3)
    graph = random_graph(rng, n_poses=6, n_homing=4, unit_orientations=True)
    report = solve(graph, SolverConfig(max_iters=2))
    assert report.reason == "max_iters"
    assert not report.converged
    assert report.iterations == 2


def test_solve_projects_a_non_unit_start_orientation():
    # a start u off the unit circle starts at u/|u|; the anchor's too
    rng = np.random.default_rng(4)
    graph = random_graph(rng, n_poses=4, n_homing=2, unit_orientations=True)
    graph.pose(1).u[:] = graph.pose(3).u[:] = [1.0, 0.0]
    want = solve(graph)
    graph.pose(1).u[:] = [3.0, 0.0]
    graph.pose(3).u[:] = [1.1, 0.0]
    got = solve(graph)
    assert (got.reason, got.trace) == (want.reason, want.trace)
    assert save_graph(got.graph) == save_graph(want.graph)
    assert got.lambdas.tobytes() == want.lambdas.tobytes()
    assert np.array_equal(graph.pose(3).u, [1.1, 0.0])  # the input is not written


def test_solve_rejects_a_zero_start_orientation():
    rng = np.random.default_rng(4)
    graph = random_graph(rng, n_poses=4, n_homing=2, unit_orientations=True)
    graph.pose(3).u[:] = [0.0, 0.0]
    with pytest.raises(
        PreconditionError,
        match=r"^pose 3: initial orientation vector has norm 0\.0, below 1e-09$",
    ):
        solve(graph)


@pytest.mark.parametrize(
    "sim, cfg",
    [
        (SimConfig(), SolverConfig()),
        (SimConfig(lanes=6, points_per_lane=20, seed=1), SolverConfig(max_iters=4)),
        (SimConfig(), SolverConfig(cost=RotCostConfig(form="second"))),
        (SimConfig(), SolverConfig(cost=RotCostConfig(t1=0))),
        (SimConfig(), SolverConfig(use_distance_error=True)),
    ],
    ids=["default", "sparse", "second", "t1=0", "distance"],
)
def test_each_iterate_is_evaluated_once(monkeypatch, sim, cfg):
    # the merit find_step compares against is the iterate's system's,
    # bitwise the merit at the iterate, and no merit stack holds the iterate
    searches = []

    def checked_find_step(system, merit_fn, state, merit0):
        stacks = []

        def recorded(states):
            stacks.append(states)
            return merit_fn(states)

        out = find_step(system, recorded, state, merit0)
        assert not any((stack == state).all(axis=1).any() for stack in stacks)
        assert merit_fn(state[None])[0].tobytes() == np.float64(merit0).tobytes()
        searches.append(len(stacks))
        return out

    monkeypatch.setattr(solver_module, "find_step", checked_find_step)
    report = solve(simulate(sim)[0], cfg)
    assert len(searches) == sum(t.alpha > 0.0 for t in report.trace) > 0


def test_solve_rejects_an_invalid_graph_built_in_code():
    # graphs that never went through load_graph: solve runs the checks itself
    graph = two_pose_graph()
    odo = graph.odometry[0]

    def odometry(**changes):
        fields = dict(i1=odo.i1, i2=odo.i2, r=odo.r, q=odo.q, T=odo.T, sigma=0.1, sigma_e=0.1)
        return [OdometryMeasurement(**{**fields, **changes})]

    poses = [graph.pose(1), Pose([np.nan, 0.0], graph.pose(2).u)]
    for bad, match in (
        (FactorGraph(poses, graph.odometry), "pose 2: non-finite"),
        (FactorGraph(graph.poses, odometry(i2=1)), "a pose to itself"),
        (FactorGraph(graph.poses, odometry(q=[1.1, 0.0])), "q must be a unit vector"),
    ):
        with pytest.raises(GraphValidationError, match=match):
            solve(bad)


def test_solve_inverts_the_covariances_in_one_batched_call(monkeypatch):
    # one walk over the records: the validated columns carry the inverses
    # that the measurement tables use, so nothing inverts a covariance twice
    graph, _ = simulate(SimConfig())
    batches = []
    for module in (graph_module, assembly_module):
        inverse = getattr(module, "_spd_inverse", None)
        if inverse is not None:

            def counted(T, inverse=inverse):
                batches.append(np.shape(T))
                return inverse(T)

            monkeypatch.setattr(module, "_spd_inverse", counted)
    solve(graph, SolverConfig(max_iters=1))
    assert batches == [(27, 2, 2)]


def test_collapse_during_assembly_reports_diverged(monkeypatch):
    # the start's assembly serves iteration 1; a collapse at the next one
    # ends the solve as diverged after that one iteration
    calls = []
    assemble = EvaluationPlan.assemble

    def boom_after_the_start(*args, **kwargs):
        calls.append(1)
        if len(calls) > 1:
            raise DegenerateVectorError("odometry record 1 (1->2): collapsed")
        return assemble(*args, **kwargs)

    graph = two_pose_graph()
    graph.pose(2).x += [0.1, 0.1]
    monkeypatch.setattr(EvaluationPlan, "assemble", boom_after_the_start)
    report = solver_module.solve(graph)
    assert report.reason == "diverged"
    assert not report.converged
    assert (len(report.trace), len(calls)) == (1, 2)


@pytest.mark.parametrize(
    "group, field, value, gamma",
    [
        ("odometry", "sigma", 1e200, 1.0),  # sigma**2 overflows
        ("homing", "sigma_h", 1e-200, 1.0),  # sigma**2 underflows to 0
        ("homing", "sigma_c", 1e-170, 1.0),
        ("odometry", "sigma", 0.1, 1e308),  # the quotient overflows
        ("homing", "sigma_h", 1e10, 1e-320),  # the quotient underflows to 0
        ("odometry", "sigma_e", 1e-309, 1.0),  # 1 / sigma_e overflows
        ("odometry", "sigma_e", 5e-324, 1.0),
    ],
)
def test_solve_rejects_a_weight_that_is_not_finite_and_positive(group, field, value, gamma):
    # the graph is rejected as invalid, like every other bad record; the
    # group's other records hold sigma = 1, whose weight gamma or 1 is fine
    graph = simulate(SimConfig())[0]
    records = getattr(graph, group)
    for record in records:
        setattr(record, field, 1.0)
    record = records[3]
    setattr(record, field, value)
    graph.validate()
    cfg = SolverConfig(use_distance_error=field == "sigma_e", cost=RotCostConfig(gamma=gamma))
    with pytest.raises(GraphValidationError) as got:
        solve(graph, cfg)
    named = f"{group} record 4 ({record.i1}->{record.i2}): {field}: "
    assert str(got.value).startswith(named + "weight ")
    assert "is not finite and positive" in str(got.value)


def test_degenerate_start_raises_naming_the_record_for_every_term():
    # a collapsed pair at the start is a bad input, whichever term sees it:
    # the distance term raises as the homing records already did
    plain, homed = coincident_start(), coincident_start(homing=True)
    for graph, cfg, record in (
        (
            plain,
            SolverConfig(use_distance_error=True, home_dist_threshold=0.0),
            "odometry record 1 (1->2)",
        ),
        (homed, SolverConfig(home_dist_threshold=0.0), "homing record 1 (2->1)"),
    ):
        with pytest.raises(DegenerateVectorError) as got:
            solve(graph, cfg)
        assert str(got.value) == f"{record}: pose position difference has norm 0.0, below 1e-09"
    # without the distance term the same start solves
    assert solve(plain, SolverConfig(max_iters=2)).iterations == 2


def test_one_derivative_pass_per_iteration(monkeypatch):
    # the start's assembly, which estimates the multipliers, is iteration 1's
    calls = []
    evaluate = EvaluationPlan.evaluate

    def counted(plan, states, anchor, derivs=True):
        calls.append(derivs)
        return evaluate(plan, states, anchor, derivs)

    monkeypatch.setattr(EvaluationPlan, "evaluate", counted)
    report = solve(simulate(SimConfig())[0])
    assert (report.reason, report.iterations, sum(calls)) == ("grad_tol", 15, 15)

    calls.clear()
    report = solve(_truth_start(SimConfig(seed=34)), SolverConfig(max_iters=10))
    assert (report.reason, report.iterations, sum(calls)) == ("max_iters", 10, 10)


def test_solve_builds_one_plan_whatever_the_mask(monkeypatch):
    # the scatter plan belongs to the solve's tables: the default
    # scenario's mask moves four times, the 10x30 map from the truth keeps
    # one mask, and each solve, dense or sparse, builds one ScatterPlan;
    # the EvaluationPlan is rebuilt exactly when the mask changes, one per
    # run of equal masks, each for the mask of its run
    built, evaluated, masks = [], [], []

    class Counted(assembly_module.ScatterPlan):
        def __init__(self, *args):
            built.append(1)
            super().__init__(*args)

    class CountedEvaluation(EvaluationPlan):
        def __init__(self, tables, active):
            evaluated.append(np.array(active))
            super().__init__(tables, active)

    compute = solver_module.compute_active_mask

    def recorded(*args, **kwargs):
        mask = compute(*args, **kwargs)
        masks.append(mask)
        return mask

    monkeypatch.setattr(assembly_module, "ScatterPlan", Counted)
    monkeypatch.setattr(solver_module, "EvaluationPlan", CountedEvaluation)
    monkeypatch.setattr(solver_module, "compute_active_mask", recorded)
    for graph, cfg, changes in (
        (simulate(SimConfig())[0], SolverConfig(), 4),
        (_truth_start(SimConfig(lanes=10, points_per_lane=30)), SolverConfig(max_iters=40), 0),
    ):
        built.clear()
        evaluated.clear()
        masks.clear()
        report = solve(graph, cfg)
        assert report.reason == "grad_tol" and len(masks) == report.iterations
        moved = [not np.array_equal(a, b) for a, b in zip(masks, masks[1:])]
        assert (sum(moved), len(built)) == (changes, 1)
        runs = [masks[0]] + [b for b, move in zip(masks[1:], moved) if move]
        assert len(evaluated) == len(runs) == changes + 1
        assert all(np.array_equal(a, b) for a, b in zip(evaluated, runs))


def test_compute_active_mask_threshold():
    poses = [
        Pose([0.0, 0.0], [1.0, 0.0]),
        Pose([0.03, 0.0], [1.0, 0.0]),
        Pose([0.6, 0.0], [1.0, 0.0]),
    ]
    homing = [
        HomingMeasurement(2, 1, [1.0, 0.0], [1.0, 0.0], 0.1, 0.1),  # near
        HomingMeasurement(3, 1, [1.0, 0.0], [1.0, 0.0], 0.1, 0.1),  # far
    ]
    odometry = [
        OdometryMeasurement(1, 2, [0.03, 0.0], [1.0, 0.0], np.eye(2), 1.0, 1.0),
    ]
    graph = FactorGraph(poses, odometry, homing)
    # one flag per record of the sequence: the odometry record, then the homing records
    mask = compute_active_mask(graph, 0.05)
    assert mask.tolist() == [True, False, True]  # distance untouched unless enabled
    mask2 = compute_active_mask(graph, 0.05, use_distance_error=True)
    assert mask2.tolist() == [False, False, True]


def test_compute_active_mask_decides_as_math_hypot():
    # pose pairs about the threshold apart, where np.hypot and math.hypot
    # can differ in the last bit: every decision must be math.hypot's
    rng = np.random.default_rng(6)
    threshold = 0.05
    theta = rng.uniform(-np.pi, np.pi, 3000)
    x0 = np.array([0.3, -0.2])
    xs = x0 + threshold * np.column_stack((np.cos(theta), np.sin(theta)))
    poses = [Pose(x0, [1.0, 0.0])] + [Pose(x, [1.0, 0.0]) for x in xs]
    ids = range(2, len(poses) + 1)
    homing = [HomingMeasurement(k, 1, [1.0, 0.0], [1.0, 0.0], 0.1, 0.1) for k in ids]
    odometry = [
        OdometryMeasurement(1, k, [0.05, 0.0], [1.0, 0.0], np.eye(2), 1.0, 1.0) for k in ids
    ]
    graph = FactorGraph(poses, odometry, homing)
    table = graph.pose_table()

    def far(m):
        d = table[m.i2 - 1, :2] - table[m.i1 - 1, :2]
        return math.hypot(d[0], d[1]) >= threshold

    tables = measurement_tables(graph, RotCostConfig())
    for mask in (
        compute_active_mask(graph, threshold, True),
        compute_active_mask(graph, threshold, True, table, tables),
    ):
        assert mask.shape == (len(odometry) + len(homing),)
        assert mask[len(odometry) :].tolist() == [far(m) for m in homing]
        assert mask[: len(odometry)].tolist() == [far(m) for m in odometry]
    # the check is sharp: np.hypot alone decides some of these pairs the other way
    d = x0 - xs
    assert list(np.hypot(d[:, 0], d[:, 1]) >= threshold) != [far(m) for m in homing]


@pytest.mark.parametrize(
    "sim, start, cfg",
    [
        (SimConfig(), "odometry", SolverConfig()),
        (SimConfig(lanes=10, points_per_lane=30), "truth", SolverConfig(max_iters=40)),
    ]
    + [(SimConfig(seed=seed), "truth", SolverConfig(max_iters=10)) for seed in range(3)],
    ids=["cold_3x10", "warm_10x30", "warm_3x10/seed=0", "warm_3x10/seed=1", "warm_3x10/seed=2"],
)
def test_the_graph_first_calls_reproduce_the_last_iterate(sim, start, cfg):
    # the benchmark's output check: compute_active_mask and assemble on
    # the solved graph, as given and reloaded from its text, reproduce
    # the last record's grad_norm, F and L bitwise, so the graph-first
    # calls evaluate as solve does
    from ovsam.assembly import assemble

    graph, truth = simulate(sim)
    if start == "truth":
        poses = [Pose(t[:2], from_angle(t[2])) for t in truth.poses]
        graph = FactorGraph(poses, graph.odometry, graph.homing, graph.fixed_id)
    report = solve(load_graph(io.StringIO(save_graph(graph))), cfg)
    assert report.reason == "grad_tol"
    last = report.trace[-1]
    reloaded = load_graph(io.StringIO(save_graph(report.graph)))
    for solved in (report.graph, reloaded):
        flag = cfg.use_distance_error
        mask = compute_active_mask(solved, cfg.home_dist_threshold, flag)
        system = assemble(solved, cfg.cost, mask, report.lambdas, flag)
        got = (float(np.linalg.norm(system.g)), system.F, system.L)
        assert np.array(got).tobytes() == np.array([last.grad_norm, last.F, last.L]).tobytes()


def test_sparse_solve_path_matches_dense(monkeypatch):
    # 100-pose chain crosses the sparse-dimension threshold (dim 495)
    from ovsam.assembly import assemble

    rng = np.random.default_rng(4)
    n = 100
    poses = [Pose([0.5 * i, 0.0], from_angle(0.0)) for i in range(n)]
    odometry = [
        OdometryMeasurement(
            i1=i,
            i2=i + 1,
            r=[0.5, 0.0],
            q=[1.0, 0.0],
            T=0.01 * np.eye(2),
            sigma=0.1,
            sigma_e=0.1,
        )
        for i in range(1, n)
    ]
    graph = FactorGraph(poses, odometry)
    for pid in range(2, n + 1):  # the free poses
        graph.pose(pid).x += rng.normal(0.0, 0.05, 2)
    lambdas = rng.normal(0.0, 0.1, n - 1)
    system = assemble(graph, RotCostConfig(), lambdas=lambdas)
    assert system.dim == 495

    used = {"spsolve": False}
    orig = solver_module.spsolve

    def spy(*args, **kwargs):
        used["spsolve"] = True
        return orig(*args, **kwargs)

    monkeypatch.setattr(solver_module, "spsolve", spy)
    for rung in (0, 1, 2, 3, 39):
        used["spsolve"] = False
        delta = solver_module.newton_step(system, *LADDER[rung])
        assert used["spsolve"]
        dense = np.linalg.solve(dense_matrix(system, *LADDER[rung]), -system.g)
        scale = max(1.0, float(np.max(np.abs(dense))))
        assert np.max(np.abs(delta - dense)) / scale < 1e-8, rung


def _colamd_solve(system, rung):
    """scipy's spsolve of the CSC of the dense H + R, which runs COLAMD on every call."""
    import scipy.sparse
    from scipy.sparse.linalg import spsolve

    return spsolve(scipy.sparse.csc_matrix(dense_matrix(system, *rung)), -system.g)


def test_sparse_newton_step_is_the_colamd_solve_bitwise():
    # one 6x20 system solved at every rung twice, so each rung of each
    # pattern class misses once or hits, then a system of the same tables
    # with a different homing mask, which changes both classes' patterns,
    # then the first again: every step is the COLAMD solve's bytes
    graph = simulate(SimConfig(lanes=6, points_per_lane=20))[0]
    tables = measurement_tables(graph, RotCostConfig())
    lambdas = np.random.default_rng(2).normal(0.0, 0.1, len(tables.free))
    m = len(graph.odometry)
    everything = np.ones(m + len(graph.homing), dtype=bool)
    masked = everything.copy()
    masked[m:][::3] = False
    masks = (everything, masked)
    evaluations = (evaluation(graph, RotCostConfig(), m, lambdas, tables=tables) for m in masks)
    first, second = (plan.assemble(state, anchor) for plan, state, anchor in evaluations)
    assert first.dim >= SPARSE_SOLVE_DIM
    assert first.plan is second.plan is tables.plan
    assert not np.array_equal(first.values != 0.0, second.values != 0.0)
    plan = tables.plan
    orderings = []
    for system in (first, first, second, first):
        for rung in LADDER:
            want = _colamd_solve(system, rung)
            assert newton_step(system, *rung).tobytes() == want.tobytes(), rung
            assert len(plan.orders) <= 2
        orderings.append(plan.orderings)
    # one COLAMD run per class and pattern: rung 0 and rung 2 miss
    assert orderings == [2, 2, 4, 6]
    assert sorted(plan.orders) == [False, True]


def test_sparse_solve_raises_for_a_singular_matrix_on_miss_and_hit():
    # an all-ones H on a real system's pattern has equal rows (each x pair
    # couples the same poses), so it is singular whatever the ordering:
    # splu raises on a miss, spsolve warns on a hit; a failed miss keeps
    # no order
    from ovsam.assembly import SparseSymmetricSystem, assemble

    graph = random_graph(np.random.default_rng(0))
    system = assemble(graph, RotCostConfig())
    ones = np.where(system.values != 0.0, 1.0, 0.0)
    singular = SparseSymmetricSystem(
        system.plan, ones, system.g, 0.0, 0.0, 0.0, system.l_values, system.lambdas
    )
    plan, b = system.plan, -system.g
    for rung, key in ((LADDER[0], False), (LADDER[2], True)):
        kept = dict(plan.orders)
        with pytest.raises(NumericalFailure, match="Factor is exactly singular"):
            solver_module.spsolve(plan, regularized_values(singular, *rung), b)  # a miss
        assert plan.orders.keys() == kept.keys()
        assert all(plan.orders[k] is order for k, order in kept.items())
        want = _colamd_solve(system, rung)
        got = solver_module.spsolve(plan, regularized_values(system, *rung), b)
        assert got.tobytes() == want.tobytes()
        order = plan.orders[key]
        with pytest.raises(NumericalFailure, match="Matrix is exactly singular"):
            solver_module.spsolve(plan, regularized_values(singular, *rung), b)  # a hit
        assert plan.orders[key] is order
    assert plan.orderings == 4  # the failed misses ran COLAMD too


def test_report_counts_factorizations_and_orderings(monkeypatch):
    # a short 6x20 solve that escalates the ladder: every newton_step call
    # is a factorization, every splu call a COLAMD run
    import scipy.sparse.linalg

    splu, orderings = scipy.sparse.linalg.splu, []

    def counted_splu(A):
        orderings.append(A.nnz)
        return splu(A)

    monkeypatch.setattr(scipy.sparse.linalg, "splu", counted_splu)
    rungs = _counting_newton_step(monkeypatch)
    graph = simulate(SimConfig(lanes=6, points_per_lane=20, seed=1))[0]
    report = solve(graph, SolverConfig(max_iters=4))
    assert sum(t.lm_escalations for t in report.trace) > 0
    assert report.factorizations == len(rungs)
    assert report.orderings == len(orderings)
    assert 2 <= report.orderings < report.factorizations


def test_dense_solves_do_not_import_scipy_sparse():
    # scipy.sparse and its solvers add memory; only the sparse path loads them
    code = (
        "import sys; from ovsam import SimConfig, simulate, solve; "
        "solve(simulate(SimConfig(lanes=2, points_per_lane=4))[0]); "
        "sys.exit('scipy.sparse' in sys.modules)"
    )
    src = str(Path(solver_module.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=120).returncode == 0


def test_trace_csv_format():
    graph = two_pose_graph()
    graph.pose(2).x += [0.1, 0.0]
    report = solve(graph)
    buf = io.StringIO()
    report.write_trace_csv(buf)
    assert report.write_trace_csv() == buf.getvalue()
    lines = buf.getvalue().splitlines()
    assert lines[0] == (
        "iteration,L,F,grad_norm,step_norm,max_constraint,lm_escalations,emergency,alpha"
    )
    assert len(lines) == 1 + report.iterations
    first = lines[1].split(",")
    assert first[0] == "1"
    float(first[1]), float(first[3])  # parseable floats
    assert first[7] in ("0", "1")
    assert float(first[8]) == report.trace[0].alpha
