"""FactorGraph.validate's column-wise checks against the per-record reference.

Each case corrupts one field of one or two records of a valid graph and
requires validate to raise the reference's exception with the same
message, or to pass where the reference passes.  The only inputs the
reference accepts and validate rejects are covariances whose inverse
has a non-finite entry.
"""

import dataclasses
import re

import numpy as np
import pytest
from conftest import random_graph
from loop_reference import _check_spd
from loop_reference import validate as reference_validate

from ovsam.costs import _spd_inverse
from ovsam.errors import GraphValidationError, InvalidCovarianceError
from ovsam.graph import FactorGraph

N_POSES = 6
NAN, INF = float("nan"), float("inf")
SCALARS = [NAN, INF, -INF, 0.0, -0.0, -1.0, 5e-324, 1e-300, 1e300, 1.7976931348623157e308]
INDICES = [2.5, 3.0, True, False, np.True_, 0, -1, N_POSES + 1, 10**12, 10**400, -(10**400), "2"]
UNIT = np.array([0.6, 0.8])


def _base():
    return random_graph(np.random.default_rng(7), n_poses=N_POSES, n_homing=5)


def _vectors():
    out = [np.zeros(2), np.array([2.0, 0.0]), np.array([1.0, 1e-8]), -UNIT]
    out.append(UNIT * (1.0 + 5e-10))  # within the unit tolerance
    for v in SCALARS:
        out += [np.array([v, UNIT[1]]), np.array([UNIT[0], v]), np.array([v, v])]
    return out


def _covariances():
    out = [
        np.array([[1.0, 0.5], [0.2, 1.0]]),  # asymmetric
        np.array([[1.0, 2.0], [2.0, 1.0]]),  # indefinite
        -np.eye(2),
        np.zeros((2, 2)),
        1e300 * np.eye(2),  # the determinant overflows
        np.array([[1e200, -1e300], [-1e300, 1e200]]),
        np.diag([1.0, 5e-324]),  # the inverse overflows
        np.diag([5e-324, 1.0]),
        np.eye(2) + 1e-13 * np.array([[0.0, 1.0], [0.0, 0.0]]),  # within the symmetry tolerance
    ]
    for v in SCALARS:
        for entries in ([(0, 0)], [(1, 1)], [(0, 1)], [(0, 1), (1, 0)]):
            T = np.array([[0.5, 0.1], [0.1, 0.4]])
            for e in entries:
                T[e] = v
            out.append(T)
    return out


def _corruptions(group):
    """(field, value) pairs; value None makes the record connect a pose to itself."""
    fields = {
        "odometry": {
            "r": _vectors(),
            "q": _vectors(),
            "T": _covariances(),
            "sigma": SCALARS,
            "sigma_e": SCALARS,
            "rho": SCALARS,
        },
        "homing": {
            "alpha": _vectors(),
            "psi": _vectors(),
            "sigma_h": SCALARS,
            "sigma_c": SCALARS,
        },
    }[group]
    out = [(end, v) for end in ("i1", "i2") for v in INDICES + [np.int64(2), None]]
    out += [(name, v) for name, values in fields.items() for v in values]
    if group == "odometry":
        out += [("r+rho", v) for v in _vectors()]  # r with rho = |r| recomputed
    return out


def _corrupt(graph, group, k, field, value):
    records = list(getattr(graph, group))
    m = records[k]
    if value is None:
        changes = {field: m.i2 if field == "i1" else m.i1}
    elif field == "r+rho":
        changes = {"r": value, "rho": None}
    else:
        changes = {field: value}
    records[k] = dataclasses.replace(m, **changes)
    parts = {"odometry": graph.odometry, "homing": graph.homing, group: records}
    return FactorGraph(graph.poses, parts["odometry"], parts["homing"], graph.fixed_id)


def _outcome(check, graph):
    try:
        check(graph)
    except Exception as exc:  # the exception type is compared too
        return type(exc), str(exc)
    return None


def _newly_rejected(graph, outcome):
    """The record whose covariance outcome rejects for a non-finite inverse, or None."""
    found = re.match(r"odometry record (\d+) .*: covariance not positive definite", outcome[1])
    if outcome[0] is not GraphValidationError or not found:
        return None
    k = int(found.group(1)) - 1
    (a, b), (c, d) = graph.odometry[k].T
    with np.errstate(all="ignore"):
        inverse = np.array([d, -b, -c, a]) / (a * d - b * c)
    return None if np.isfinite(inverse).all() else k


def _mismatches(graphs):
    """The graphs that validate and the reference do not treat alike.

    Where validate rejects a covariance the reference accepts, the two
    must agree once that covariance is replaced by a valid one.
    """
    out = []
    for label, graph in graphs:
        with np.errstate(all="ignore"):  # the reference's np.hypot warns on overflow
            expected = _outcome(reference_validate, graph)
        got = _outcome(FactorGraph.validate, graph)
        if got == expected:
            continue
        k = None if got is None else _newly_rejected(graph, got)
        if k is None or _mismatches([(label, _corrupt(graph, "odometry", k, "T", np.eye(2)))]):
            out.append((label, expected, got))
    return out


@pytest.mark.parametrize("group", ["odometry", "homing"])
def test_one_corrupted_record_is_rejected_as_the_reference_does(group):
    base = _base()
    last = len(getattr(base, group)) - 1
    graphs = [
        ((k, field, value), _corrupt(base, group, k, field, value))
        for field, value in _corruptions(group)
        for k in (0, last // 2, last)
    ]
    assert _mismatches(graphs) == []
    rejected = sum(_outcome(FactorGraph.validate, g) is not None for _, g in graphs)
    assert rejected > 0.7 * len(graphs)  # most corruptions are invalid


def test_two_corrupted_records_are_rejected_as_the_reference_does():
    base = _base()
    rng = np.random.default_rng(0)
    kinds = [(g, f, v) for g in ("odometry", "homing") for f, v in _corruptions(g)]
    graphs = []
    for i, j in rng.integers(len(kinds), size=(400, 2)):
        (g1, f1, v1), (g2, f2, v2) = kinds[i], kinds[j]
        for k1, k2 in ((0, 4), (4, 0), (2, 2)):
            graph = _corrupt(_corrupt(base, g1, k1, f1, v1), g2, k2, f2, v2)
            graphs.append((((g1, k1, f1, v1), (g2, k2, f2, v2)), graph))
    assert _mismatches(graphs) == []


def test_the_reference_accepts_the_valid_graph_and_a_covariance_with_an_overflowing_inverse():
    base = _base()
    assert _mismatches([("valid", base)]) == []
    for T in (np.diag([1.0, 5e-324]), np.diag([5e-324, 1.0])):
        graph = _corrupt(base, "odometry", 2, "T", T)
        reference_validate(graph)
        with pytest.raises(
            GraphValidationError,
            match=r"^odometry record 3 \(3->4\): covariance not positive definite: ",
        ):
            graph.validate()


@pytest.mark.parametrize("group, field", [("odometry", "sigma"), ("homing", "psi")])
def test_each_record_position_names_its_own_record(group, field):
    base = _base()
    value = NAN if field == "sigma" else np.array([2.0, 0.0])
    for k in range(len(getattr(base, group))):
        outcome = _outcome(FactorGraph.validate, _corrupt(base, group, k, field, value))
        assert outcome[1].startswith(f"{group} record {k + 1} ")


def test_the_batched_covariance_checks_match_the_scalar_ones():
    # validate names a non-finite T before any covariance message, so the
    # messages for NaN and inf entries are compared here
    Ts = _covariances()
    for T in Ts:
        with np.errstate(all="ignore"):
            expected = _outcome(_check_spd, T)
        got = _outcome(_spd_inverse, T[None])
        if expected is None and got is not None:  # an inverse that overflows
            assert got[1].startswith("covariance not positive definite")
            (a, b), (c, d) = T
            with np.errstate(all="ignore"):
                assert not np.isfinite(np.array([d, -b, -c, a]) / (a * d - b * c)).all()
        else:
            assert got == expected, T
    # in one batch, the first failing matrix is named and indexed
    batch = np.stack([np.eye(2), np.eye(2), Ts[1], Ts[0]])
    with pytest.raises(InvalidCovarianceError, match="not positive definite") as info:
        _spd_inverse(batch)
    assert info.value.index == 2
