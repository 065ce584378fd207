"""Tests of the benchmark's own output check and tracer.

Run from the repository root:  python3 -m pytest perfbench -q
"""

import dataclasses
import io
import sys
import types
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import bench  # noqa: E402
import ovsam.graph as og  # noqa: E402
import ovsam.solver as solver  # noqa: E402
from tracing import Tracer  # noqa: E402


@pytest.fixture(scope="module")
def solved():
    """A converged warm_3x10 request: (input text, input graph, report, cfg)."""
    wl = bench.WORKLOADS["warm_3x10"]
    inp = bench.make_inputs(bench.Workload(3, 10, "truth", (0,), wl.solver))[0]
    graph = og.load_graph(io.StringIO(inp.text))
    report = solver.solve(graph, wl.solver)
    assert report.reason == "grad_tol"
    return inp.text, graph, report, wl.solver


def test_check_accepts_the_solution(solved):
    text, graph, report, cfg = solved
    assert bench.check_output(text, graph, report, og.save_graph(report.graph), cfg) == []


def test_check_rejects_one_perturbed_pose(solved):
    text, graph, report, cfg = solved
    report = dataclasses.replace(report, graph=report.graph.copy())
    report.graph.pose(7).x[0] += 1e-4
    problems = bench.check_output(text, graph, report, og.save_graph(report.graph), cfg)
    assert len(problems) == 1 and "grad_tol" in problems[0]


def test_check_rejects_a_modified_input(solved):
    text, graph, report, cfg = solved
    graph = graph.copy()
    graph.pose(3).u[:] = -graph.pose(3).u
    problems = bench.check_output(text, graph, report, og.save_graph(report.graph), cfg)
    assert problems == ["solve modified its input graph"]


@pytest.fixture
def fake_module(monkeypatch):
    mod = types.ModuleType("perfbench_fake")

    def inner(x):
        if x < 0:
            raise ValueError(x)
        return None if x == 0 else x

    def outer(x):
        return mod.inner(x) + mod.inner(x)

    mod.inner, mod.outer = inner, outer
    monkeypatch.setitem(sys.modules, "perfbench_fake", mod)
    return mod


def test_tracer_records_nesting_and_outcomes(fake_module):
    tracer = Tracer([("outer", "perfbench_fake:outer"), ("inner", "perfbench_fake:inner")])
    with tracer.installed():
        tracer.request_id = 0
        assert fake_module.outer(2) == 4
        assert fake_module.inner(0) is None
        with pytest.raises(ValueError):
            fake_module.inner(-1)
    rows = tracer.summary([0])
    assert rows["outer"]["calls"] == 1 and rows["inner"]["calls"] == 4
    assert rows["inner"]["no_result"] == 2  # the None return and the raise
    assert 0.0 <= rows["outer"]["self_s"] <= rows["outer"]["total_s"]
    assert rows["inner"]["self_s"] == rows["inner"]["total_s"]
    assert tracer.summary([1])["outer"]["calls"] == 0


def test_tracer_reports_absent_names_and_restores(fake_module):
    original = fake_module.inner
    tracer = Tracer(
        [
            ("inner", "perfbench_fake:inner"),
            ("gone", "perfbench_fake:deleted_function"),
            ("gone", "perfbench_no_such_module:f"),
        ]
    )
    with tracer.installed():
        assert fake_module.inner is not original
        fake_module.outer(1)
    assert fake_module.inner is original and tracer.restored
    assert tracer.absent == ["perfbench_fake:deleted_function", "perfbench_no_such_module:f"]
    assert tracer.summary([-1])["gone"]["calls"] == 0


def test_traced_outputs_equal_untraced(solved):
    wl = bench.Workload(3, 10, "truth", (0, 1), bench.WORKLOADS["warm_3x10"].solver)
    inputs = bench.make_inputs(wl)
    original = solver.solve
    tracer, untraced, traced, problems = bench.traced_run(wl, inputs, [1, 0])
    assert problems == []
    assert [r.text for r in traced] == [r.text for r in untraced]
    assert solver.solve is original and tracer.restored
    assert np.isfinite(tracer.summary([0, 1])["assembly.assemble"]["total_s"])
