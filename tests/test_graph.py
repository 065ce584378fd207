"""Graph data model, state layout, and the text file format."""

import io

import numpy as np
import pytest
from conftest import random_graph

from ovsam.costs import Pose
from ovsam.errors import GraphFormatError, GraphValidationError, StateLayoutError
from ovsam.graph import (
    FactorGraph,
    HomingMeasurement,
    OdometryMeasurement,
    StateLayout,
    apply_state,
    load_graph,
    pack_state,
    save_graph,
)


def _odom(i1=1, i2=2, **kw):
    base = dict(
        r=np.array([1.0, 0.0]),
        q=np.array([1.0, 0.0]),
        T=np.eye(2),
        sigma=1.0,
        sigma_e=1.0,
    )
    base.update(kw)
    return OdometryMeasurement(i1=i1, i2=i2, **base)


def _home(i1=2, i2=1, **kw):
    base = dict(
        alpha=np.array([1.0, 0.0]),
        psi=np.array([0.0, 1.0]),
        sigma_h=0.1,
        sigma_c=0.1,
    )
    base.update(kw)
    return HomingMeasurement(i1=i1, i2=i2, **base)


def _two_poses():
    return [Pose([0.0, 0.0], [1.0, 0.0]), Pose([1.0, 0.0], [1.0, 0.0])]


def test_rho_defaults_to_translation_norm():
    m = _odom(r=np.array([3.0, 4.0]))
    assert m.rho == 5.0
    m2 = _odom(r=np.array([3.0, 4.0]), rho=5.0)
    assert m2.rho == 5.0


def test_accessors_and_copy():
    g = FactorGraph(_two_poses(), odometry=[_odom()])
    assert len(g) == 2
    assert list(g.pose_ids()) == [1, 2]
    assert g.free_ids() == [2]
    assert g.pose(2).x[0] == 1.0
    c = g.copy()
    c.pose(2).x[0] = 9.0
    assert g.pose(2).x[0] == 1.0
    assert c.odometry is not g.odometry  # list is fresh
    assert c.odometry[0] is g.odometry[0]  # records are shared


def test_with_fixed():
    g = FactorGraph(_two_poses())
    g2 = g.with_fixed(2)
    assert g2.fixed_id == 2 and g.fixed_id == 1
    assert g2.free_ids() == [1]
    with pytest.raises(GraphValidationError):
        g.with_fixed(3)


@pytest.mark.parametrize(
    "make,match",
    [
        (lambda: FactorGraph([Pose([0, 0], [1, 0])]), "at least 2"),
        (lambda: FactorGraph(_two_poses(), fixed_id=5), "out of range"),
        (
            lambda: FactorGraph(
                [Pose([np.nan, 0.0], [1.0, 0.0]), Pose([1, 0], [1, 0])]
            ),
            "pose 1",
        ),
        (lambda: FactorGraph(_two_poses(), odometry=[_odom(i2=7)]), "out of range"),
        (lambda: FactorGraph(_two_poses(), odometry=[_odom(i2=1)]), "itself"),
        (
            lambda: FactorGraph(_two_poses(), odometry=[_odom(q=np.array([1.0, 0.5]))]),
            "q must be a unit vector",
        ),
        (
            lambda: FactorGraph(
                _two_poses(), odometry=[_odom(T=np.array([[1.0, 2.0], [2.0, 1.0]]))]
            ),
            "odometry record 1",
        ),
        (lambda: FactorGraph(_two_poses(), odometry=[_odom(sigma=0.0)]), "positive"),
        (lambda: FactorGraph(_two_poses(), odometry=[_odom(sigma_e=-1.0)]), "positive"),
        (lambda: FactorGraph(_two_poses(), odometry=[_odom(rho=2.5)]), "rho"),
        (lambda: FactorGraph(_two_poses(), homing=[_home(i1=3)]), "homing record 1"),
        (
            lambda: FactorGraph(_two_poses(), homing=[_home(alpha=np.array([2.0, 0.0]))]),
            "alpha must be a unit vector",
        ),
        (
            lambda: FactorGraph(_two_poses(), homing=[_home(psi=np.array([0.0, 0.0]))]),
            "psi must be a unit vector",
        ),
        (lambda: FactorGraph(_two_poses(), homing=[_home(sigma_c=0.0)]), "positive"),
    ],
)
def test_validate_rejects(make, match):
    with pytest.raises(GraphValidationError, match=match):
        make().validate()


def test_validate_accepts_random_graphs():
    rng = np.random.default_rng(0)
    for seed in range(5):
        random_graph(np.random.default_rng(seed)).validate()
    del rng


def test_state_layout_offsets():
    g = FactorGraph(_two_poses())
    lay = StateLayout(g)
    assert lay.dim == 5
    assert lay.free == [2]
    assert lay.x_slice(2) == slice(0, 2)
    assert lay.u_slice(2) == slice(2, 4)
    assert lay.lam_index(2) == 4

    g3 = FactorGraph(_two_poses() + [Pose([2.0, 0.0], [1.0, 0.0])])
    lay3 = StateLayout(g3)
    assert lay3.dim == 10
    assert lay3.offset(3) == 5
    assert lay3.lam_index(3) == 9


def test_state_layout_nondefault_fixed():
    g = FactorGraph(_two_poses() + [Pose([2.0, 0.0], [1.0, 0.0])], fixed_id=2)
    lay = StateLayout(g)
    assert lay.free == [1, 3]
    assert lay.offset(1) == 0
    assert lay.offset(3) == 5
    assert 2 not in lay._rank


def test_pack_apply_round_trip():
    rng = np.random.default_rng(2)
    g = random_graph(rng, n_poses=5, n_homing=3)
    lams = rng.normal(size=4)
    vec = pack_state(g, lams)
    assert vec.shape == (20,)

    target = g.copy()
    for pid in target.free_ids():
        target.pose(pid).x[:] = 0.0
    got = apply_state(vec, target)
    assert np.array_equal(got, lams)
    for pid in g.pose_ids():
        assert np.array_equal(target.pose(pid).x, g.pose(pid).x)
        assert np.array_equal(target.pose(pid).u, g.pose(pid).u)
    assert np.array_equal(pack_state(target, got), vec)


def test_state_layout_errors():
    g = FactorGraph(_two_poses())
    with pytest.raises(StateLayoutError):
        pack_state(g, np.zeros(2))
    with pytest.raises(StateLayoutError):
        apply_state(np.zeros(7), g)


# ---------------------------------------------------------------------------
# text format


MINIMAL = """\
# two poses, one odometry edge
POSE 1 0.0 0.0 1.0 0.0 FIXED
POSE 2 1.0 0.0 1.0 0.0
ODOM 1 2 1.0 0.0 1.0 0.0 1.0 0.0 1.0 0.1 0.1
HOME 2 1 -1.0 0.0 1.0 0.0 0.1 0.2  # trailing comment
"""


def test_load_minimal():
    g = load_graph(io.StringIO(MINIMAL))
    assert len(g) == 2
    assert g.fixed_id == 1
    assert len(g.odometry) == 1 and len(g.homing) == 1
    m = g.odometry[0]
    assert (m.i1, m.i2) == (1, 2)
    assert np.array_equal(m.T, np.eye(2))
    assert m.rho == 1.0
    h = g.homing[0]
    assert h.sigma_c == 0.2


def test_save_load_round_trip_text_identical():
    rng = np.random.default_rng(4)
    g = random_graph(rng, n_poses=6, n_homing=4)
    text = save_graph(g)
    assert save_graph(load_graph(io.StringIO(text))) == text


def test_load_save_preserves_values_exactly():
    g = load_graph(io.StringIO(MINIMAL))
    g2 = load_graph(io.StringIO(save_graph(g)))
    for pid in g.pose_ids():
        assert np.array_equal(g.pose(pid).x, g2.pose(pid).x)
        assert np.array_equal(g.pose(pid).u, g2.pose(pid).u)
    assert np.array_equal(g.odometry[0].r, g2.odometry[0].r)
    assert g.homing[0].sigma_h == g2.homing[0].sigma_h


def test_save_to_stream_and_path(tmp_path):
    g = load_graph(io.StringIO(MINIMAL))
    buf = io.StringIO()
    assert save_graph(g, buf) is None
    path = tmp_path / "g.txt"
    save_graph(g, path)
    assert path.read_text() == buf.getvalue()
    assert save_graph(load_graph(path)) == buf.getvalue()


@pytest.mark.parametrize(
    "text,match",
    [
        ("POSE 1 0 0 1 0 FIXED\nPOSE 2 1 0 1 0\nJUNK 1 2\n", "line 3"),
        ("POSE 1 0 0 1 0 FIXED\nPOSE 2 1 0 1\n", "line 2"),
        ("POSE 1 0 0 1 0 FIXED\nPOSE 1 1 0 1 0\n", "duplicate pose id 1"),
        ("POSE 1 0 0 1 0\nPOSE 2 1 0 1 0\n", "exactly one POSE"),
        ("POSE 1 0 0 1 0 FIXED\nPOSE 2 1 0 1 0 FIXED\n", "exactly one POSE"),
        ("POSE 1 0 0 1 0 FIXED\nPOSE 3 1 0 1 0\n", "contiguous"),
        ("POSE 1 0 0 1 0 FIXED\nPOSE 2 1 0 1 0\nODOM 1 2 1 0 1 0 1 0 1 0.1\n", "line 3"),
        ("POSE 1 0 0 1 0 FIXED\nPOSE 2 1 0 x 0\n", "line 2"),
    ],
)
def test_load_rejects_malformed(text, match):
    with pytest.raises(GraphFormatError, match=match):
        load_graph(io.StringIO(text))


def test_load_rejects_invalid_measurements_by_record():
    text = (
        "POSE 1 0 0 1 0 FIXED\n"
        "POSE 2 1 0 1 0\n"
        "ODOM 1 2 1.0 0.0 0.9 0.0 1.0 0.0 1.0 0.1 0.1\n"
    )
    with pytest.raises(GraphValidationError, match=r"odometry record 1 \(1->2\)"):
        load_graph(io.StringIO(text))


def test_load_blank_and_comment_lines():
    text = "\n# header\n\n" + MINIMAL + "\n   # footer\n"
    g = load_graph(io.StringIO(text))
    assert len(g) == 2
