"""Newton/LM stepping machinery and the full descent loop."""

import io
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import consistent_graph, random_graph, two_pose_graph

import ovsam.assembly as assembly_module
import ovsam.graph as graph_module
import ovsam.solver as solver_module
from ovsam.assembly import measurement_tables, merit
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
    pack_state,
    save_graph,
)
from ovsam.orvec import from_angle, omega
from ovsam.sim import SimConfig, simulate
from ovsam.solver import (
    EMERGENCY_STEP,
    FIRST_CHUNKS,
    LADDER,
    LS_ALPHAS,
    SolverConfig,
    compute_active_mask,
    find_step,
    newton_step,
    solve,
)


class _StubSystem:
    """Duck-typed stand-in carrying just what newton_step consumes."""

    def __init__(self, H, g):
        self._H = np.asarray(H, dtype=float)
        self.g = np.asarray(g, dtype=float)
        self.dim = len(self.g)

    def to_dense(self):
        return self._H.copy()


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(mu=0.0)
    # an infinite tolerance reports convergence at any state; NaN never does
    for name in ("grad_tol", "step_tol", "mu"):
        for bad in (float("inf"), float("nan"), -1.0):
            with pytest.raises(ValueError, match=name):
                SolverConfig(**{name: bad})
    # no iteration would run; a fraction fails only inside solve
    for bad in (0, -3, 2.5):
        with pytest.raises(ValueError, match="max_iters"):
            SolverConfig(max_iters=bad)
    # NaN would mask every homing record; a negative threshold none
    with pytest.raises(ValueError, match="home_dist_threshold"):
        SolverConfig(home_dist_threshold=float("nan"))
    with pytest.raises(ValueError, match="home_dist_threshold"):
        SolverConfig(home_dist_threshold=-0.1)
    SolverConfig(max_iters=1, home_dist_threshold=0.0)


def test_newton_step_identity():
    g = np.array([2.0, -1.0])
    delta = newton_step(_StubSystem(np.eye(2), g))
    assert np.max(np.abs(delta + g)) < 1e-14


def test_newton_step_saddle():
    # indefinite bordered system: the step still solves H ds = -g exactly
    H = np.array([[1.0, 1.0], [1.0, 0.0]])
    delta = newton_step(_StubSystem(H, np.array([1.0, 1.0])))
    assert np.max(np.abs(delta - [-1.0, 0.0])) < 1e-14


def test_newton_step_singular_raises():
    with pytest.raises(NumericalFailure):
        newton_step(_StubSystem(np.zeros((2, 2)), np.ones(2)))


def test_newton_step_regularization_signs():
    # R adds +eta_w on pose coordinates and -eta_a on the multiplier
    H = np.diag([1.0, 1.0, 1.0, 1.0, 2.0])
    g = np.ones(5)
    delta = newton_step(_StubSystem(H, g), eta_w=1.0, eta_a=1.0)
    assert np.max(np.abs(delta - [-0.5, -0.5, -0.5, -0.5, -1.0])) < 1e-14


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
        return find_step(_StubSystem(np.eye(5), g), _sq, state)

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


def _sequential_find_step(system, merit_fn, state):
    """Reference step search: LADDER walked one trial point at a time.

    The iterate's merit is one merit_fn call and every trial point one
    more; newton_step is looked up on the solver module, so a patched
    step applies here too.
    """
    merit0 = _merit_of(merit_fn, state)
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
    delta, alpha, escalations, emergency = find_step(system, _sq, np.ones(5))
    assert (escalations, alpha, emergency) == (0, 1.0, False)
    assert rungs == [(0.0, 0.0)]
    assert np.array_equal(delta, -np.ones(5))


def test_find_step_rejected_plain_step_takes_rung_1(monkeypatch):
    # the plain direction points uphill, so its line search fails
    rungs = _counting_newton_step(monkeypatch, flip_plain=True)
    system = _StubSystem(np.eye(5), np.ones(5))
    delta, alpha, escalations, emergency = find_step(system, _sq, np.ones(5))
    assert (escalations, alpha, emergency) == (1, 1.0, False)
    assert rungs == list(LADDER[:2])


def test_find_step_singular_plain_system_falls_through(monkeypatch):
    # H is singular until a rung puts -eta_A on the multiplier entry
    rungs = _counting_newton_step(monkeypatch)
    system = _StubSystem(np.diag([1.0, 1.0, 1.0, 1.0, 0.0]), np.ones(5))

    def pose_merit(states):
        return np.array([float(s[:4] @ s[:4]) for s in states])

    delta, alpha, escalations, emergency = find_step(system, pose_merit, np.ones(5))
    assert (escalations, alpha, emergency) == (2, 1.0, False)
    assert LADDER[2] == (0.0, 1e-6)
    assert rungs == list(LADDER[:3])
    assert np.array_equal(delta[:4], -np.ones(4))


def test_find_step_emergency_step_length():
    # the state already minimizes the merit: every line search fails
    system = _StubSystem(np.eye(5), np.array([1.0, 0.0, 0.0, 0.0, 0.0]))
    delta, alpha, escalations, emergency = find_step(system, _sq, np.zeros(5))
    assert emergency
    assert escalations == len(LADDER) - 1 == 39
    assert float(np.linalg.norm(alpha * delta)) == pytest.approx(EMERGENCY_STEP)


def test_find_step_nothing_solvable(monkeypatch):
    def always_fail(system, eta_w=0.0, eta_a=0.0):
        raise NumericalFailure("nope")

    monkeypatch.setattr(solver_module, "newton_step", always_fail)
    system = _StubSystem(np.eye(2), np.ones(2))
    with pytest.raises(NumericalFailure):
        find_step(system, lambda states: np.zeros(len(states)), np.zeros(2))


def _ladder_stub(monkeypatch, accept, singular=(), degenerate=()):
    """Patch newton_step to step e_0 + r e_1 on rung r; merit_fn over its trials.

    Rung r raises NumericalFailure if r is in singular.  From state 0
    (merit 0.5), trial LS_ALPHAS[k] of rung r has merit 0 if k is in
    accept.get(r, ()), else 1; a stack holding (r, k) in degenerate
    raises DegenerateVectorError.  Returns merit_fn and the list of its
    call sizes.
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
        trials = [(round(s[1] / s[0]), index[float(s[0])]) for s in states if s[0] != 0.0]
        if any(t in degenerate for t in trials):
            raise DegenerateVectorError("trial collapsed a pose pair")
        merits = iter([0.0 if k in accept.get(r, ()) else 1.0 for r, k in trials])
        return np.array([0.5 if s[0] == 0.0 else next(merits) for s in states])

    return merit_fn, calls


def _check_find_step(merit_fn, calls):
    """find_step against the sequential reference; returns find_step's call sizes."""
    want = _sequential_find_step(None, merit_fn, np.zeros(2))
    calls.clear()
    got = find_step(None, merit_fn, np.zeros(2))
    assert got[1:] == want[1:]
    assert np.array_equal(got[0], want[0])
    return got, list(calls)


@pytest.mark.parametrize("first", range(len(LS_ALPHAS)))
def test_find_step_folds_the_iterate_into_the_first_chunk(monkeypatch, first):
    # plain Newton accepts from factor index first on: the iterate and the
    # factor-1 trial are one call, then chunks of 2, 4, 8, 6 factors
    rng = np.random.default_rng(first)
    later = {k for k in range(first + 1, len(LS_ALPHAS)) if rng.random() < 0.5}
    merit_fn, calls = _ladder_stub(monkeypatch, {0: {first} | later, 1: {0}})
    (_, alpha, escalations, emergency), sizes = _check_find_step(merit_fn, calls)
    assert (alpha, escalations, emergency) == (LS_ALPHAS[first], 0, False)
    assert sizes == [2] + [2, 4, 8, 6][: (first + 1).bit_length() - 1]


@pytest.mark.parametrize("k", [0, 1, 2, 17, 38])
def test_find_step_searches_every_later_rung_whole(monkeypatch, k):
    # rung 0 and rungs 1..k fail every factor; rung k + 1 accepts
    rng = np.random.default_rng(k)
    for first in (0, 3, 20):
        later = {j for j in range(first + 1, len(LS_ALPHAS)) if rng.random() < 0.5}
        merit_fn, calls = _ladder_stub(monkeypatch, {k + 1: {first} | later})
        (_, alpha, escalations, emergency), sizes = _check_find_step(merit_fn, calls)
        assert (alpha, escalations, emergency) == (LS_ALPHAS[first], k + 1, False)
        assert sizes == [2, 2, 4, 8, 6] + [21] * k + [21]


def test_find_step_merit_calls_when_no_rung_accepts(monkeypatch):
    merit_fn, calls = _ladder_stub(monkeypatch, {})
    (delta, alpha, escalations, emergency), sizes = _check_find_step(merit_fn, calls)
    assert (escalations, emergency) == (len(LADDER) - 1, True)
    assert np.array_equal(delta, [1.0, len(LADDER) - 1])
    assert sizes == [2, 2, 4, 8, 6] + [21] * (len(LADDER) - 1)


def test_find_step_folds_the_iterate_into_the_first_solvable_rung(monkeypatch):
    # rungs 0, 1 and 4 cannot be solved: rung 2 is searched in chunks, rung 3
    # whole, rung 4 not at all, and rung 5 accepts
    merit_fn, calls = _ladder_stub(monkeypatch, {5: {2}}, singular={0, 1, 4})
    (_, alpha, escalations, emergency), sizes = _check_find_step(merit_fn, calls)
    assert (alpha, escalations, emergency) == (LS_ALPHAS[2], 5, False)
    assert sizes == [2, 2, 4, 8, 6, 21, 21]


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
        # ends before trial 2 (k + 1) - 1; the first one also holds the iterate
        assert len(sizes) == (6 if first is None else (first + 1).bit_length())
        assert sum(sizes) <= (1 + 2 * len(LS_ALPHAS) if first is None else 2 * (first + 1) + 1)


def test_line_search_chunk_sizes(monkeypatch):
    # the first solvable rung tries the factors in FIRST_CHUNKS, a later rung
    # in one call
    assert FIRST_CHUNKS == (1, 2, 4, 8, 6)
    assert sum(FIRST_CHUNKS) == len(LS_ALPHAS)
    merit_fn, calls = _ladder_stub(monkeypatch, {1: {len(LS_ALPHAS) - 1}})
    (_, alpha, escalations, _), sizes = _check_find_step(merit_fn, calls)
    assert (alpha, escalations) == (LS_ALPHAS[-1], 1)
    assert sizes == [2, 2, 4, 8, 6, 21]


def test_degenerate_trial_rejects_only_itself(monkeypatch):
    # trials 3-6 are one chunk; trial 4 degenerates and trial 5 is accepted
    merit_fn, calls = _ladder_stub(monkeypatch, {0: {5, 6}}, degenerate={(0, 4)})
    (_, alpha, escalations, _), sizes = _check_find_step(merit_fn, calls)
    assert (alpha, escalations) == (LS_ALPHAS[5], 0)
    assert sizes == [2, 2, 4, 1, 1, 1, 1]
    # a degenerate trial is never accepted, also when it is the first acceptable one
    merit_fn, calls = _ladder_stub(monkeypatch, {0: {4, 5}}, degenerate={(0, 4)})
    (_, alpha, escalations, _), sizes = _check_find_step(merit_fn, calls)
    assert (alpha, escalations) == (LS_ALPHAS[5], 0)


def test_find_step_degenerate_first_trial_keeps_the_iterate_merit(monkeypatch):
    # the factor-1 trial degenerates: the folded call is redone one state at a
    # time, and a degenerate trial on a later rung rejects only itself
    merit_fn, calls = _ladder_stub(
        monkeypatch, {0: {0}, 1: {0, 1, 3}}, degenerate={(0, 0), (1, 0), (1, 1)}
    )
    (_, alpha, escalations, emergency), sizes = _check_find_step(merit_fn, calls)
    assert (alpha, escalations, emergency) == (LS_ALPHAS[3], 1, False)
    assert sizes == [2, 1, 1, 2, 4, 8, 6, 21] + [1] * 21


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


def test_solve_deterministic():
    rng = np.random.default_rng(2)
    graph = random_graph(rng, n_poses=6, n_homing=4, unit_orientations=True)
    cfg = SolverConfig(max_iters=8)
    a = solve(graph, cfg)
    b = solve(graph, cfg)
    assert [t.L for t in a.trace] == [t.L for t in b.trace]
    assert np.array_equal(pack_state(a.graph, a.lambdas), pack_state(b.graph, b.lambdas))


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
        (simulate(SimConfig())[0], SolverConfig(), ("grad_tol", 95, 109, 130, 2115)),
        (
            _truth_start(SimConfig(seed=34)),
            SolverConfig(max_iters=10),
            ("max_iters", 123, 133, 163, 2747),
        ),
        (
            simulate(SimConfig(seed=12, noise_ang=1e-4))[0],
            SolverConfig(),
            ("diverged", 265, 287, 362, 5973),
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


def test_report_counts_merit_calls_and_records_alpha(monkeypatch):
    graph = simulate(SimConfig(lanes=2, points_per_lane=5))[0]
    alphas, stacks = [], []

    def counted_find_step(system, merit_fn, state):
        out = find_step(system, merit_fn, state)
        alphas.append(out[1])
        return out

    def counted_merit(graph, cfg, active, mu, lambdas, use_distance_error, table, tables):
        stacks.append(len(table))
        return merit(graph, cfg, active, mu, lambdas, use_distance_error, table, tables)

    monkeypatch.setattr(solver_module, "find_step", counted_find_step)
    monkeypatch.setattr(solver_module, "merit", counted_merit)
    report = solve(graph)
    assert report.reason == "grad_tol"
    assert [t.alpha for t in report.trace] == alphas + [0.0]
    assert (report.merit_calls, report.merit_states) == (len(stacks), sum(stacks))
    assert report.merit_calls < report.merit_states


def test_step_tol_termination():
    graph = two_pose_graph()
    graph.pose(2).x += [0.05, -0.02]
    report = solve(graph, SolverConfig(grad_tol=1e-300, step_tol=10.0))
    assert report.reason == "step_tol"
    assert report.converged
    assert report.iterations == 2


def test_max_iters_termination():
    rng = np.random.default_rng(3)
    graph = random_graph(rng, n_poses=6, n_homing=4, unit_orientations=True)
    report = solve(graph, SolverConfig(max_iters=2))
    assert report.reason == "max_iters"
    assert not report.converged
    assert report.iterations == 2


def test_solve_rejects_non_unit_initial_orientation():
    graph = two_pose_graph()
    graph.pose(2).u *= 1.1
    with pytest.raises(PreconditionError):
        solve(graph)


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
    def boom(*args, **kwargs):
        raise DegenerateVectorError("odometry record 1 (1->2): collapsed")

    monkeypatch.setattr(solver_module, "assemble", boom)
    report = solver_module.solve(two_pose_graph())
    assert report.reason == "diverged"
    assert not report.converged
    assert report.trace == []


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
    mask = compute_active_mask(graph, 0.05)
    assert mask.homing.tolist() == [False, True]
    assert mask.distance.tolist() == [True]  # distance untouched unless enabled
    mask2 = compute_active_mask(graph, 0.05, use_distance_error=True)
    assert mask2.distance.tolist() == [False]


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
        assert mask.homing.tolist() == [far(m) for m in homing]
        assert mask.distance.tolist() == [far(m) for m in odometry]
    # the check is sharp: np.hypot alone decides some of these pairs the other way
    d = x0 - xs
    assert list(np.hypot(d[:, 0], d[:, 1]) >= threshold) != [far(m) for m in homing]


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
    for pid in graph.free_ids():
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
    delta = solver_module.newton_step(system)
    assert used["spsolve"]
    dense = np.linalg.solve(system.to_dense(), -system.g)
    scale = max(1.0, float(np.max(np.abs(dense))))
    assert np.max(np.abs(delta - dense)) / scale < 1e-8


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
