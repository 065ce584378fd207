"""Graph data model, state layout, and the text file format."""

import io
import math
import warnings

import numpy as np
import pytest
from conftest import random_graph

from ovsam.assembly import measurement_tables, pack_state, unpack_state
from ovsam.costs import RotCostConfig
from ovsam.errors import GraphFormatError, GraphValidationError, PreconditionError
from ovsam.graph import (
    FactorGraph,
    HomingMeasurement,
    OdometryMeasurement,
    Pose,
    load_graph,
    save_graph,
)
from ovsam.sim import SimConfig, simulate


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


def test_accessors_and_copy():
    g = FactorGraph(_two_poses(), odometry=[_odom()])
    assert len(g) == 2
    assert list(g.pose_ids()) == [1, 2]
    assert measurement_tables(g, RotCostConfig()).free.tolist() == [1]
    assert g.pose(2).x[0] == 1.0
    for pid in (0, -1, 3):
        with pytest.raises(PreconditionError, match=rf"^pose id {pid} out of range 1\.\.2$"):
            g.pose(pid)
    c = g.copy()
    c.pose(2).x[0] = 9.0
    assert g.pose(2).x[0] == 1.0
    assert c.odometry is not g.odometry  # list is fresh
    assert c.odometry[0] is g.odometry[0]  # records are shared


def test_with_fixed():
    g = FactorGraph(_two_poses())
    g2 = g.with_fixed(2)
    assert g2.fixed_id == 2 and g.fixed_id == 1
    assert measurement_tables(g2, RotCostConfig()).free.tolist() == [0]
    with pytest.raises(GraphValidationError):
        g.with_fixed(3)


@pytest.mark.parametrize(
    "make,match",
    [
        (lambda: FactorGraph([Pose([0, 0], [1, 0])]), "at least 2"),
        (lambda: FactorGraph(_two_poses(), fixed_id=5), "out of range"),
        (
            lambda: FactorGraph(_two_poses(), fixed_id=2.7),
            r"^fixed pose id must be an integer, got 2\.7$",
        ),
        (
            lambda: FactorGraph(_two_poses(), fixed_id=True),
            r"^fixed pose id must be an integer, got True$",
        ),
        (
            lambda: FactorGraph(
                [Pose([np.nan, 0.0], [1.0, 0.0]), Pose([1, 0], [1, 0])]
            ),
            "pose 1",
        ),
        (lambda: FactorGraph(_two_poses(), odometry=[_odom(i2=7)]), "out of range"),
        (lambda: FactorGraph(_two_poses(), odometry=[_odom(i2=1)]), "itself"),
        (
            lambda: FactorGraph(_two_poses(), homing=[_home(i1=2.5)]),
            r"^homing record 1 \(2\.5->1\): pose indices must be integers$",
        ),
        (
            lambda: FactorGraph(_two_poses(), odometry=[_odom(i1=True)]),
            r"^odometry record 1 \(True->2\): pose indices must be integers$",
        ),
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
        (
            lambda: FactorGraph(_two_poses(), odometry=[_odom(r=np.full(2, 1.5e308))]),
            r"^odometry record 1 \(1->2\): r must have a finite norm, \|r\| = inf$",
        ),
        (
            lambda: FactorGraph(_two_poses(), odometry=[_odom(r=np.array([np.nan, 0.0]))]),
            r"^odometry record 1 \(1->2\): non-finite r: ",
        ),
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


def test_validate_accepts_numpy_integer_indices():
    odom = _odom(i1=np.int64(1), i2=np.int32(2))
    graph = FactorGraph(_two_poses(), [odom], [_home(i1=np.intp(2))], fixed_id=np.int64(2))
    graph.validate()
    assert measurement_tables(graph, RotCostConfig()).free.tolist() == [0]


@pytest.mark.parametrize(
    "make, match",
    [
        (lambda: _odom(T=np.eye(3)), r"^T must have shape \(2, 2\), got \(3, 3\)$"),
        (lambda: _odom(T=[1.0, 1.0]), r"^T must have shape \(2, 2\), got \(2,\)$"),
        (lambda: _odom(r=[1.0, 0.0, 0.0]), r"^r must have shape \(2,\), got \(3,\)$"),
        (lambda: _odom(q=np.ones((2, 1))), r"^q must have shape \(2,\), got \(2, 1\)$"),
        (lambda: _home(alpha=[1.0]), r"^alpha must have shape \(2,\), got \(1,\)$"),
        (lambda: _home(psi=np.zeros((2, 2))), r"^psi must have shape \(2,\), got \(2, 2\)$"),
        (lambda: Pose([0.0, 0.0, 0.0], [1.0, 0.0]), r"^x must have shape \(2,\), got \(3,\)$"),
        (lambda: Pose([0.0, 0.0], 1.0), r"^u must have shape \(2,\), got \(\)$"),
    ],
)
def test_record_arrays_are_shape_checked_at_construction(make, match):
    with pytest.raises(ValueError, match=match):
        make()


def test_records_own_float_copies_of_their_arrays():
    r, T = np.array([3, 4]), np.eye(2)
    m = _odom(r=r, T=T)
    T[0, 0] = 9.0
    assert m.r.dtype == float and m.T[0, 0] == 1.0
    x = np.zeros(2)
    p = Pose(x, [1, 0])
    x[0] = 9.0
    assert p.x[0] == 0.0 and p.u.dtype == float


def test_tables_rho_is_the_translation_norm_of_each_record():
    graph = simulate(SimConfig())[0]
    rho = measurement_tables(graph, RotCostConfig()).rho
    assert rho.tolist() == [float(np.hypot(m.r[0], m.r[1])) for m in graph.odometry]
    g = FactorGraph(_two_poses(), odometry=[_odom(r=np.array([3.0, 4.0]))])
    assert measurement_tables(g, RotCostConfig()).rho.tolist() == [5.0]


ODOM_1 = r"^odometry record 1 \(1->2\): "


@pytest.mark.parametrize(
    "gamma, sigma, message",
    [
        (1.0, 0.0, "sigma and sigma_e must be positive"),
        (1.0, float("nan"), "non-finite sigma: nan"),
        # sigma**2 under- and overflows, then the quotient over- and underflows
        (1.0, 1e-200, r"sigma: weight gamma / sigma\*\*2 = 1\.0 / 1e-200\*\*2 "),
        (1.0, 1e200, r"sigma: weight gamma / sigma\*\*2 = 1\.0 / 1e\+200\*\*2 "),
        (1e308, 0.1, r"sigma: weight gamma / sigma\*\*2 = 1e\+308 / 0\.1\*\*2 "),
        (1e-320, 1e10, r"sigma: weight gamma / sigma\*\*2 = 1e-320 / 10000000000\.0\*\*2 "),
    ],
)
def test_tables_reject_a_term_weight_that_is_not_finite_and_positive(gamma, sigma, message):
    # validate rejects a sigma that is not positive and finite, the tables a weight
    graph = FactorGraph(_two_poses(), odometry=[_odom(sigma=sigma)])
    with pytest.raises(GraphValidationError, match=ODOM_1 + message):
        measurement_tables(graph, RotCostConfig(gamma=gamma))
    graph = FactorGraph(_two_poses(), odometry=[_odom(sigma=0.3)])
    assert measurement_tables(graph, RotCostConfig(gamma=1.7)).w_rot.tolist() == [1.7 / 0.3**2]


@pytest.mark.parametrize(
    "sigma_e, message",
    [
        (1e-320, r"sigma_e: weight 1 / sigma_e = 1 / 1e-320 is not finite and positive$"),
        (5e-324, r"sigma_e: weight 1 / sigma_e = 1 / 5e-324 is not finite and positive$"),
        (0.0, "sigma and sigma_e must be positive$"),
        (-1.0, "sigma and sigma_e must be positive$"),
        (math.inf, "non-finite sigma_e: inf$"),
        (math.nan, "non-finite sigma_e: nan$"),
    ],
)
def test_tables_reject_a_distance_weight_that_is_not_finite_and_positive(sigma_e, message):
    # 1 / sigma_e overflows below about 5.6e-309; only the distance term reads it
    graph = FactorGraph(_two_poses(), odometry=[_odom(sigma_e=sigma_e)])
    with pytest.raises(GraphValidationError, match=ODOM_1 + message):
        measurement_tables(graph, RotCostConfig(), use_distance_error=True)
    graph = FactorGraph(_two_poses(), odometry=[_odom(sigma_e=1e-308)])
    assert measurement_tables(graph, RotCostConfig(), use_distance_error=True).sigma_e == [1e-308]


def test_validate_names_the_lowest_non_finite_pose():
    poses = [Pose([float(k), 0.0], [1.0, 0.0]) for k in range(4)]
    poses[3].x[1] = np.nan
    poses[1].u[0] = np.inf
    with pytest.raises(GraphValidationError, match=r"^pose 2: non-finite components$"):
        FactorGraph(poses).validate()


def test_validate_accepts_random_graphs():
    rng = np.random.default_rng(0)
    for seed in range(5):
        random_graph(np.random.default_rng(seed)).validate()
    del rng


def test_state_layout_offsets():
    # free poses in ascending id order; the state block of rank k starts at 5 k
    g = FactorGraph(_two_poses())
    tables = measurement_tables(g, RotCostConfig())
    assert tables.free.tolist() == [1]
    assert tables.rank.tolist() == [-1, 0]
    assert pack_state(tables, g.pose_table(), np.zeros(1)).shape == (5,)

    g3 = FactorGraph(_two_poses() + [Pose([2.0, 0.0], [1.0, 0.0])])
    tables3 = measurement_tables(g3, RotCostConfig())
    assert tables3.free.tolist() == [1, 2]
    assert tables3.rank.tolist() == [-1, 0, 1]
    vec = pack_state(tables3, g3.pose_table(), np.zeros(2))
    assert np.array_equal(vec[5:9], [2.0, 0.0, 1.0, 0.0])


def test_state_layout_nondefault_fixed():
    g = FactorGraph(_two_poses() + [Pose([2.0, 0.0], [1.0, 0.0])], fixed_id=2)
    tables = measurement_tables(g, RotCostConfig())
    assert tables.free.tolist() == [0, 2]
    assert tables.rank.tolist() == [0, -1, 1]
    assert np.array_equal(pack_state(tables, g.pose_table(), np.zeros(2))[5:9], g.pose_table()[2])


def test_measurement_tables_pose_rows_are_contiguous_intp():
    # every merit call gathers pose rows with np.take, which is slower on
    # strided index arrays such as the columns of a transposed (K, 2) array
    g = random_graph(np.random.default_rng(3), n_poses=5, n_homing=4)
    tables = measurement_tables(g, RotCostConfig())
    for end in ("i1", "i2"):
        rows = getattr(tables, end)
        assert rows.dtype == np.intp and rows.flags.c_contiguous
        assert rows.tolist() == [getattr(m, end) - 1 for m in (*g.odometry, *g.homing)]


def test_pack_state_with_poses_round_trip():
    rng = np.random.default_rng(2)
    g = random_graph(rng, n_poses=5, n_homing=3).with_fixed(3)
    tables = measurement_tables(g, RotCostConfig())
    lams = rng.normal(size=4)
    vec = pack_state(tables, g.pose_table(), lams)
    assert vec.shape == (20,)
    assert np.array_equal(vec[4::5], lams)
    for pid in g.pose_ids():
        assert np.array_equal(g.pose_table()[pid - 1], [*g.pose(pid).x, *g.pose(pid).u])

    blank = np.full((5, 4), 7.0)
    table, unpacked = unpack_state(tables, blank, vec)
    assert np.array_equal(unpacked, lams)
    assert np.array_equal(table[2], blank[2])  # anchor row kept
    table[2] = g.pose_table()[2]
    assert np.array_equal(table, g.pose_table())

    target = g.with_poses(table)
    assert target.fixed_id == 3
    assert target.odometry[0] is g.odometry[0]  # records are shared
    assert target.homing[0] is g.homing[0]
    for pid in g.pose_ids():
        assert np.array_equal(target.pose(pid).x, g.pose(pid).x)
        assert np.array_equal(target.pose(pid).u, g.pose(pid).u)
    assert np.array_equal(pack_state(tables, target.pose_table(), lams), vec)
    table[0] = 9.0  # the new graph owns its poses
    assert target.pose(1).x[0] != 9.0


def test_state_layout_errors():
    g = FactorGraph(_two_poses())
    tables = measurement_tables(g, RotCostConfig())
    with pytest.raises(PreconditionError):
        pack_state(tables, g.pose_table(), np.zeros(2))
    with pytest.raises(PreconditionError):
        unpack_state(tables, g.pose_table(), np.zeros(7))
    with pytest.raises(PreconditionError):
        unpack_state(tables, g.pose_table(), np.zeros((1, 1, 5)))
    with pytest.raises(PreconditionError):  # one state, not a stack
        unpack_state(tables, g.pose_table(), np.zeros((2, 5)))
    with pytest.raises(PreconditionError):
        g.with_poses(np.zeros((3, 4)))


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
    assert measurement_tables(g, RotCostConfig()).rho.tolist() == [1.0]
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


@pytest.mark.parametrize(
    "record,match",
    [
        ("ODOM 1 2 nan nan 1.0 0.0 1.0 0.0 1.0 0.1 0.1", r"odometry record 1 .1->2.: non-finite r"),
        ("ODOM 1 2 1.0 0.0 nan 0.0 1.0 0.0 1.0 0.1 0.1", "odometry record 1.*non-finite q"),
        ("ODOM 1 2 1.0 0.0 1.0 0.0 inf 0.0 1.0 0.1 0.1", "odometry record 1.*non-finite T"),
        ("ODOM 1 2 1.0 0.0 1.0 0.0 1.0 nan 1.0 0.1 0.1", "odometry record 1.*non-finite T"),
        ("ODOM 1 2 1.0 0.0 1.0 0.0 1.0 0.0 1.0 inf 0.1", "odometry record 1.*non-finite sigma:"),
        ("ODOM 1 2 1.0 0.0 1.0 0.0 1.0 0.0 1.0 0.1 nan", "odometry record 1.*non-finite sigma_e"),
        ("HOME 2 1 nan nan 1.0 0.0 0.1 0.2", r"homing record 1 \(2->1\): non-finite alpha"),
        ("HOME 2 1 1.0 0.0 1.0 inf 0.1 0.2", "homing record 1.*non-finite psi"),
        ("HOME 2 1 1.0 0.0 1.0 0.0 inf 0.2", "homing record 1.*non-finite sigma_h"),
        ("HOME 2 1 1.0 0.0 1.0 0.0 0.1 nan", "homing record 1.*non-finite sigma_c"),
    ],
)
def test_load_rejects_non_finite_measurements_by_record(record, match):
    # a NaN passes every comparison-based check, an inf sigma passes > 0
    text = "POSE 1 0 0 1 0 FIXED\nPOSE 2 1 0 1 0\n" + record + "\n"
    with pytest.raises(GraphValidationError, match=match):
        load_graph(io.StringIO(text))


@pytest.mark.parametrize(
    "T", ["1e300 1e300 1e300", "1e300 0.0 1e300", "1e200 -1e300 1e200", "1.0 0.0 5e-324"]
)
def test_load_rejects_an_overflowing_covariance_without_numpy_warnings(T):
    # its determinant overflows to inf, or to inf - inf = nan, or its
    # inverse overflows (1 / 5e-324)
    text = f"POSE 1 0 0 1 0 FIXED\nPOSE 2 1 0 1 0\nODOM 1 2 1.0 0.0 1.0 0.0 {T} 0.1 0.1\n"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(
            GraphValidationError,
            match=r"^odometry record 1 \(1->2\): covariance not positive definite",
        ):
            load_graph(io.StringIO(text))


def test_load_blank_and_comment_lines():
    text = "\n# header\n\n" + MINIMAL + "\n   # footer\n"
    g = load_graph(io.StringIO(text))
    assert len(g) == 2
