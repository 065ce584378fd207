"""The derivative-check harness that cross-validates every cost term."""

import numpy as np
import pytest

import ovsam.derivcheck as derivcheck
from ovsam.derivcheck import CASES, run_checks


def test_case_catalog_is_complete():
    assert sorted(CASES) == [
        "compass-first-t0",
        "compass-first-t1",
        "compass-second",
        "constraint",
        "distance",
        "home-first-t0",
        "home-first-t1",
        "home-second",
        "rotation-first-t0",
        "rotation-first-t1",
        "rotation-second",
        "translation",
    ]


def test_all_cases_pass_quickly():
    report = run_checks(n_configs=10, seed=0)
    assert report.passed
    assert len(report.results) == len(CASES)
    for r in report.results:
        assert r.passed, r.name
        assert r.configs == 10
        assert r.grad_err < 1e-6  # far inside the tolerance
        assert r.hess_err < 1e-5


def test_report_deterministic():
    a = run_checks(n_configs=5, seed=3)
    b = run_checks(n_configs=5, seed=3)
    assert a.format() == b.format()
    c = run_checks(n_configs=5, seed=4)
    assert c.format() != a.format()


def test_name_filter_and_validation():
    report = run_checks(n_configs=5, names=["translation", "constraint"])
    assert [r.name for r in report.results] == ["translation", "constraint"]
    with pytest.raises(ValueError, match="unknown derivative cases"):
        run_checks(n_configs=5, names=["translation", "warp-drive"])
    with pytest.raises(ValueError, match="n_configs"):
        run_checks(n_configs=0)
    # a fraction, a bool, a negative seed and an empty selection name their argument
    for bad in (2.5, True):
        with pytest.raises(ValueError, match="n_configs"):
            run_checks(n_configs=bad)
    for bad in (-1, 1.5, True):
        with pytest.raises(ValueError, match="seed"):
            run_checks(n_configs=1, seed=bad)
    with pytest.raises(ValueError, match="at least one derivative case"):
        run_checks(n_configs=1, names=[])
    assert run_checks(n_configs=1, seed=np.int64(2), names=["distance"]).passed


def test_format_table_shape():
    report = run_checks(n_configs=3, seed=1)
    lines = report.format().splitlines()
    assert len(lines) == 1 + len(CASES)
    assert "grad err" in lines[0]
    assert all(line.rstrip().endswith("ok") for line in lines[1:])


def test_detects_a_broken_gradient(monkeypatch):
    # sabotage one evaluator; the harness must flag exactly that case
    orig = derivcheck.eval_translation

    def broken(p, pp, T, r, derivs=True):
        out = orig(p, pp, T, r, derivs)
        if derivs:
            out.grad1 = out.grad1 + 1e-2
        return out

    monkeypatch.setattr(derivcheck, "eval_translation", broken)
    report = run_checks(n_configs=5, seed=0, names=["translation", "distance"])
    assert not report.passed
    by_name = {r.name: r for r in report.results}
    assert not by_name["translation"].passed
    assert by_name["translation"].worst_grad_block == "grad1"
    assert by_name["distance"].passed


def test_detects_a_broken_hessian(monkeypatch):
    orig = derivcheck.eval_distance

    def broken(p, pp, sigma_e, rho, derivs=True):
        out = orig(p, pp, sigma_e, rho, derivs)
        if derivs:
            out.h12 = out.h12 + 1e-2
        return out

    monkeypatch.setattr(derivcheck, "eval_distance", broken)
    report = run_checks(n_configs=5, seed=0, names=["distance"])
    assert not report.passed
    r = report.results[0]
    assert r.grad_err < 1e-6  # gradient untouched
    assert r.hess_err > 1e-3
    assert r.worst_hess_block == "h12"
