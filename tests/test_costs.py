"""Cost terms: pinned values, derivative blocks, structural invariants.

The kernels are batched; the tests call them on batches of one pair
through wrappers with single-pair signatures (sigma in place of the
term weight, T in place of its inverse).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ovsam import costs
from ovsam.costs import (
    ORI,
    POS,
    CostEval,
    RotCostConfig,
    _spd_inverse,
    distance_weight,
    term_weight,
)
from ovsam.errors import DegenerateVectorError, InvalidCovarianceError
from ovsam.graph import Pose
from ovsam.orvec import from_angle, omega

I2 = np.eye(2)


def _cfg(form="first", t1=1, gamma=1.0):
    return RotCostConfig(form=form, t1=t1, gamma=gamma)


def _pose(x, u):
    """The stacked [x, u] 4-vector a cost kernel takes as a pose."""
    return np.array([*x, *u], dtype=float)


def _one(out, derivs=True):
    """The single record of a kernel's output over a batch of one."""
    if not derivs:
        return out[0]
    fields = ("value", "grad1", "grad2", "h11", "h12", "h22")
    return CostEval(*(getattr(out, name)[0] for name in fields))


def eval_translation(p, pp, T, r, derivs=True):
    Tinv, r = _spd_inverse(np.asarray(T)[None]), np.asarray(r)[None]
    return _one(costs.eval_translation(p[None], pp[None], Tinv, r, derivs), derivs)


def eval_distance(p, pp, sigma_e, rho, derivs=True):
    sigma_e, rho = np.array([sigma_e]), np.array([rho])
    return _one(costs.eval_distance(p[None], pp[None], sigma_e, rho, derivs), derivs)


def eval_rotation(p, pp, Q, sigma, cfg, derivs=True):
    w = np.array([term_weight(cfg.gamma, sigma)])
    return _one(costs.eval_rotation(p[None], pp[None], Q[None], w, cfg, derivs), derivs)


def eval_compass(p, pp, Psi, sigma_c, cfg, derivs=True):
    w = np.array([term_weight(cfg.gamma, sigma_c)])
    return _one(costs.eval_compass(p[None], pp[None], Psi[None], w, cfg, derivs), derivs)


def eval_home_vector(p, pp, A, sigma_h, cfg, derivs=True):
    w = np.array([term_weight(cfg.gamma, sigma_h)])
    return _one(costs.eval_home_vector(p[None], pp[None], A[None], w, cfg, derivs), derivs)


def eval_generic_rotational(Phi, u, up, cfg):
    u, up = np.asarray(u)[None], np.asarray(up)[None]
    return _one(costs.eval_generic_rotational(Phi[None], u, up, cfg))


# ---------------------------------------------------------------------------
# containers


def test_pose_copies_inputs():
    x = np.array([1.0, 2.0])
    p = Pose(x, [1.0, 0.0])
    x[0] = 99.0
    assert p.x[0] == 1.0
    q = p.copy()
    q.x[1] = -5.0
    assert p.x[1] == 2.0


def test_pose_shape_validation():
    with pytest.raises(ValueError):
        Pose([1.0, 2.0, 3.0], [1.0, 0.0])
    with pytest.raises(ValueError):
        Pose([1.0, 2.0], [[1.0], [0.0]])


@pytest.mark.parametrize(
    "kwargs",
    [
        {"form": "third"},
        {"t1": 2},
        {"t1": 0.5},
        {"gamma": 0.0},
        {"gamma": -1.0},
        {"gamma": float("inf")},
        {"gamma": float("nan")},
    ],
)
def test_rot_cost_config_rejects(kwargs):
    with pytest.raises(ValueError):
        RotCostConfig(**kwargs)


@pytest.mark.parametrize(
    "gamma, sigma",
    [
        (1.0, 0.0),
        (1.0, float("nan")),
        (1.0, 1e-200),  # sigma**2 underflows to 0
        (1.0, 1e200),  # sigma**2 overflows
        (1e308, 0.1),  # the quotient overflows
        (1e-320, 1e10),  # the quotient underflows to 0
    ],
)
def test_term_weight_rejects_weights_that_are_not_finite_and_positive(gamma, sigma):
    with pytest.raises(ValueError):
        term_weight(gamma, sigma)
    assert term_weight(1.7, 0.3) == 1.7 / 0.3**2


@pytest.mark.parametrize("sigma_e", [1e-320, 5e-324, 0.0, -1.0, math.inf, math.nan])
def test_distance_weight_rejects_weights_that_are_not_finite_and_positive(sigma_e):
    # 1 / sigma_e overflows below about 5.6e-309
    with pytest.raises(ValueError, match="sigma_e"):
        distance_weight(sigma_e)
    assert distance_weight(1e-308) == 1.0 / 1e-308
    assert distance_weight(0.3) == 1.0 / 0.3


def test_cost_eval_accumulates_and_transposes():
    rng = np.random.default_rng(0)
    a = CostEval(
        value=np.array([1.0]),
        grad1=rng.normal(size=(1, 4)),
        grad2=rng.normal(size=(1, 4)),
        h11=rng.normal(size=(1, 4, 4)),
        h12=rng.normal(size=(1, 4, 4)),
        h22=rng.normal(size=(1, 4, 4)),
    )
    b = CostEval.zeros(np.array([2.5]))
    b.grad1[:] = 1.0
    h12_before = a.h12.copy()
    a += b
    assert a.value[0] == 3.5
    assert np.array_equal(a.h12, h12_before)
    assert np.array_equal(a.h21[0], a.h12[0].T)


def test_spd_inverse():
    rng = np.random.default_rng(1)
    B = rng.normal(size=(2, 2))
    T = B @ B.T + 0.1 * I2
    assert np.max(np.abs(T @ _spd_inverse(T[None])[0] - I2)) < 1e-12
    with pytest.raises(InvalidCovarianceError):
        _spd_inverse(np.array([[[1.0, 0.5], [0.2, 1.0]]]))
    with pytest.raises(InvalidCovarianceError):
        _spd_inverse(np.array([[[1.0, 2.0], [2.0, 1.0]]]))  # indefinite
    with pytest.raises(InvalidCovarianceError):
        _spd_inverse(-I2[None])


# ---------------------------------------------------------------------------
# translation


def test_translation_zero_at_consistency():
    p = _pose([0.0, 0.0], [1.0, 0.0])
    pp = _pose([1.0, 2.0], [0.0, 1.0])
    out = eval_translation(p, pp, I2, np.array([1.0, 2.0]))
    assert out.value == 0.0
    assert np.max(np.abs(out.grad1)) == 0.0
    assert np.max(np.abs(out.grad2)) == 0.0


def test_translation_pinned_values():
    p = _pose([0.0, 0.0], [1.0, 0.0])
    pp = _pose([1.0, 0.0], [1.0, 0.0])
    assert eval_translation(p, pp, I2, np.zeros(2), derivs=False) == 0.5
    # rotated frame: u = (0,1) maps world (0,1) onto local (1,0)
    pr = _pose([0.0, 0.0], [0.0, 1.0])
    pp = _pose([0.0, 1.0], [1.0, 0.0])
    assert eval_translation(pr, pp, I2, np.array([1.0, 0.0]), derivs=False) < 1e-15


def test_translation_nonnegative():
    rng = np.random.default_rng(2)
    for _ in range(100):
        B = rng.normal(size=(2, 2))
        T = B @ B.T + 0.05 * I2
        p = _pose(rng.normal(size=2), rng.normal(size=2))
        pp = _pose(rng.normal(size=2), rng.normal(size=2))
        assert eval_translation(p, pp, T, rng.normal(size=2), derivs=False) >= 0.0


def test_translation_second_orientation_unused():
    rng = np.random.default_rng(3)
    p = _pose(rng.normal(size=2), rng.normal(size=2))
    pp = _pose(rng.normal(size=2), rng.normal(size=2))
    out = eval_translation(p, pp, I2, rng.normal(size=2))
    assert np.max(np.abs(out.grad2[ORI])) == 0.0
    assert np.max(np.abs(out.h22[:, ORI])) == 0.0
    assert np.max(np.abs(out.h12[:, ORI])) == 0.0


# ---------------------------------------------------------------------------
# traveled distance


def test_distance_pinned_values():
    p = _pose([0.0, 0.0], [1.0, 0.0])
    pp = _pose([3.0, 4.0], [1.0, 0.0])
    assert eval_distance(p, pp, 1.0, 5.0, derivs=False) == 0.0
    out = eval_distance(p, pp, 1.0, 4.0)
    assert out.value == pytest.approx(0.5, abs=1e-15)
    assert np.max(np.abs(out.grad2[POS] - [0.6, 0.8])) < 1e-15
    assert np.max(np.abs(out.grad1[POS] + [0.6, 0.8])) < 1e-15
    # weight is 1/sigma_e: quadrupling sigma_e quarters the value
    assert eval_distance(p, pp, 4.0, 4.0).value == pytest.approx(0.125, abs=1e-15)


def test_distance_orientation_blocks_zero():
    rng = np.random.default_rng(4)
    p = _pose(rng.normal(size=2), rng.normal(size=2))
    pp = _pose(p[POS] + [0.7, -0.3], rng.normal(size=2))
    out = eval_distance(p, pp, 0.5, 1.2)
    for block in (out.grad1, out.grad2):
        assert np.max(np.abs(block[ORI])) == 0.0
    for block in (out.h11, out.h12, out.h22):
        assert np.max(np.abs(block[ORI, :])) == 0.0
        assert np.max(np.abs(block[:, ORI])) == 0.0


def test_distance_coincident_raises():
    p = _pose([1.0, 1.0], [1.0, 0.0])
    with pytest.raises(DegenerateVectorError):
        eval_distance(p, p.copy(), 1.0, 1.0)
    with pytest.raises(ValueError):
        eval_distance(p, _pose([2.0, 1.0], [1.0, 0.0]), 0.0, 1.0)


# ---------------------------------------------------------------------------
# rotation


def test_rotation_zero_at_consistency():
    p = _pose([0.0, 0.0], [1.0, 0.0])
    pp = _pose([1.0, 0.0], [1.0, 0.0])
    assert eval_rotation(p, pp, I2, 1.0, _cfg(t1=1), derivs=False) == 0.0


def test_rotation_worked_example_all_forms():
    # rotating a 60 degree heading by 30 degrees lands on 90 degrees
    Q = omega(from_angle(math.pi / 6.0))
    p = _pose([0.0, 0.0], from_angle(math.pi / 3.0))
    pp = _pose([1.0, 0.0], from_angle(math.pi / 2.0))
    for cfg in (_cfg(t1=1), _cfg(t1=0), _cfg(form="second")):
        assert abs(eval_rotation(p, pp, Q, 1.0, cfg, derivs=False)) < 1e-12


def test_rotation_scaled_u_distinguishes_forms():
    p = _pose([0.0, 0.0], [2.0, 0.0])
    pp = _pose([1.0, 0.0], [1.0, 0.0])
    assert abs(eval_rotation(p, pp, I2, 1.0, _cfg(form="second"), derivs=False)) < 1e-15
    assert abs(eval_rotation(p, pp, I2, 1.0, _cfg(t1=0), derivs=False)) < 1e-15
    assert eval_rotation(p, pp, I2, 1.0, _cfg(t1=1), derivs=False) == pytest.approx(-1.0)


def test_rotation_position_blocks_zero():
    rng = np.random.default_rng(5)
    p = _pose(rng.normal(size=2), rng.normal(size=2))
    pp = _pose(rng.normal(size=2), rng.normal(size=2))
    Q = omega(from_angle(0.4))
    for cfg in (_cfg(t1=1), _cfg(t1=0), _cfg(form="second")):
        out = eval_rotation(p, pp, Q, 0.7, cfg)
        for block in (out.grad1, out.grad2):
            assert np.max(np.abs(block[POS])) == 0.0
        for block in (out.h11, out.h12, out.h22):
            assert np.max(np.abs(block[POS, :])) == 0.0
            assert np.max(np.abs(block[:, POS])) == 0.0


def test_rotation_weight_scaling():
    p = _pose([0.0, 0.0], from_angle(0.2))
    pp = _pose([1.0, 0.0], from_angle(1.3))
    Q = omega(from_angle(0.5))
    v1 = eval_rotation(p, pp, Q, 0.5, _cfg(gamma=1.0), derivs=False)
    v2 = eval_rotation(p, pp, Q, 1.0, _cfg(gamma=4.0), derivs=False)
    assert v1 == pytest.approx(v2, rel=1e-14)
    with pytest.raises(ValueError):
        eval_rotation(p, pp, Q, 0.0, _cfg())


# ---------------------------------------------------------------------------
# compass


def test_compass_pinned_values():
    p = _pose([0.0, 0.0], [1.0, 0.0])
    pp = _pose([3.0, 1.0], [0.0, 1.0])
    cfg = _cfg(t1=1, gamma=2.0)
    assert eval_compass(p, pp, I2, 0.5, cfg, derivs=False) == pytest.approx(8.0)


def test_compass_second_form_cross_hessian():
    p = _pose([0.0, 0.0], [1.0, 0.0])
    pp = _pose([1.0, 0.0], [1.0, 0.0])
    cfg = _cfg(form="second", gamma=3.0)
    out = eval_compass(p, pp, I2, 0.5, cfg)
    w = 3.0 / 0.25
    expected = -w * np.array([[0.0, 0.0], [0.0, 1.0]])
    assert np.max(np.abs(out.h12[ORI, ORI] - expected)) < 1e-12


# ---------------------------------------------------------------------------
# home vector


def test_home_zero_when_aimed_at_goal():
    p = _pose([0.0, 0.0], [1.0, 0.0])
    pp = _pose([2.0, 0.0], [0.0, 1.0])
    assert eval_home_vector(p, pp, I2, 1.0, _cfg(t1=1), derivs=False) == 0.0


def test_home_pinned_values():
    cfg = _cfg(t1=1, gamma=2.0)
    p = _pose([0.0, 0.0], [1.0, 0.0])
    # goal straight ahead vs. off to the side by 90 degrees
    ahead = _pose([2.0, 0.0], [1.0, 0.0])
    aside = _pose([0.0, 2.0], [1.0, 0.0])
    assert eval_home_vector(p, ahead, I2, 0.5, cfg, derivs=False) < 1e-15
    assert eval_home_vector(p, aside, I2, 0.5, cfg, derivs=False) == pytest.approx(8.0)
    out = eval_home_vector(p, _pose([1.0, 0.0], [1.0, 0.0]), I2, 0.5, cfg)
    assert np.max(np.abs(out.grad1[ORI] + 8.0 * np.array([1.0, 0.0]))) < 1e-12


def test_home_first_form_offset_gradient():
    # with the norm offset active the u-gradient is w (u0 - A^T d0)
    cfg = _cfg(t1=0, gamma=1.0)
    p = _pose([0.0, 0.0], [2.0, 0.0])
    pp = _pose([0.0, 3.0], [1.0, 0.0])
    out = eval_home_vector(p, pp, I2, 1.0, cfg)
    assert np.max(np.abs(out.grad1[ORI] - [1.0, -1.0])) < 1e-12


def test_home_second_pose_orientation_unused():
    rng = np.random.default_rng(6)
    p = _pose(rng.normal(size=2), rng.normal(size=2))
    pp = _pose(p[POS] + [0.4, 0.9], rng.normal(size=2))
    A = omega(from_angle(-0.3))
    for cfg in (_cfg(t1=1), _cfg(t1=0), _cfg(form="second")):
        out = eval_home_vector(p, pp, A, 0.4, cfg)
        assert np.max(np.abs(out.grad2[ORI])) == 0.0
        assert np.max(np.abs(out.h22[:, ORI])) == 0.0
        assert np.max(np.abs(out.h22[ORI, :])) == 0.0
        assert np.max(np.abs(out.h12[:, ORI])) == 0.0


# ---------------------------------------------------------------------------
# structural invariants shared by all cost terms


def _all_evals(rng):
    B = rng.normal(size=(2, 2))
    T = B @ B.T + 0.1 * I2
    p = _pose(rng.normal(size=2), rng.uniform(0.5, 1.5) * from_angle(rng.uniform(-3, 3)))
    pp = _pose(
        p[POS] + rng.uniform(0.3, 1.0) * from_angle(rng.uniform(-3, 3)),
        rng.uniform(0.5, 1.5) * from_angle(rng.uniform(-3, 3)),
    )
    Phi = omega(from_angle(rng.uniform(-3, 3)))
    cfgs = (_cfg(t1=1), _cfg(t1=0), _cfg(form="second"))
    evals = [eval_translation(p, pp, T, rng.normal(size=2)), eval_distance(p, pp, 0.7, 1.1)]
    evals += [eval_rotation(p, pp, Phi, 0.6, c) for c in cfgs]
    evals += [eval_compass(p, pp, Phi, 0.6, c) for c in cfgs]
    evals += [eval_home_vector(p, pp, Phi, 0.6, c) for c in cfgs]
    return evals


def test_diagonal_hessian_blocks_symmetric():
    rng = np.random.default_rng(7)
    for _ in range(20):
        for out in _all_evals(rng):
            assert np.max(np.abs(out.h11 - out.h11.T)) < 1e-10
            assert np.max(np.abs(out.h22 - out.h22.T)) < 1e-10


def test_value_only_matches_full_eval():
    rng = np.random.default_rng(8)
    for _ in range(20):
        B = rng.normal(size=(2, 2))
        T = B @ B.T + 0.1 * I2
        p = _pose(rng.normal(size=2), 1.2 * from_angle(rng.uniform(-3, 3)))
        pp = _pose(p[POS] + [0.8, -0.2], 0.8 * from_angle(rng.uniform(-3, 3)))
        Phi = omega(from_angle(rng.uniform(-3, 3)))
        r = rng.normal(size=2)
        kernels = [
            lambda derivs: eval_translation(p, pp, T, r, derivs),
            lambda derivs: eval_distance(p, pp, 0.7, 1.1, derivs),
        ]
        for cfg in (_cfg(t1=0, gamma=1.5), _cfg(t1=1, gamma=1.5), _cfg(form="second")):
            kernels += [
                lambda derivs, cfg=cfg: eval_rotation(p, pp, Phi, 0.6, cfg, derivs),
                lambda derivs, cfg=cfg: eval_compass(p, pp, Phi, 0.6, cfg, derivs),
                lambda derivs, cfg=cfg: eval_home_vector(p, pp, Phi, 0.6, cfg, derivs),
            ]
        for kernel in kernels:
            # the merit's value path and assembly's F must be the same number
            assert kernel(False) == kernel(True).value


def test_forms_agree_on_unit_vectors():
    rng = np.random.default_rng(9)
    for _ in range(50):
        u = from_angle(rng.uniform(-math.pi, math.pi))
        up = from_angle(rng.uniform(-math.pi, math.pi))
        Phi = omega(from_angle(rng.uniform(-math.pi, math.pi)))
        vals = [
            eval_generic_rotational(Phi, u, up, _cfg(t1=1)).value,
            eval_generic_rotational(Phi, u, up, _cfg(t1=0)).value,
            eval_generic_rotational(Phi, u, up, _cfg(form="second")).value,
        ]
        assert max(vals) - min(vals) < 1e-12


@settings(max_examples=200, deadline=None)
@given(
    au=st.floats(-math.pi, math.pi),
    aup=st.floats(-math.pi, math.pi),
    aphi=st.floats(-math.pi, math.pi),
    nu=st.floats(0.1, 5.0),
    nup=st.floats(0.1, 5.0),
)
def test_first_form_without_offset_nonnegative(au, aup, aphi, nu, nup):
    # |u||u'| dominates (Phi u)^T u' by Cauchy-Schwarz
    out = eval_generic_rotational(
        omega(from_angle(aphi)), nu * from_angle(au), nup * from_angle(aup), _cfg(t1=0)
    )
    assert out.value >= -1e-12


@settings(max_examples=200, deadline=None)
@given(
    au=st.floats(-math.pi, math.pi),
    aup=st.floats(-math.pi, math.pi),
    aphi=st.floats(-math.pi, math.pi),
    c=st.floats(0.1, 10.0),
    cp=st.floats(0.1, 10.0),
)
def test_second_form_scale_invariant(au, aup, aphi, c, cp):
    Phi = omega(from_angle(aphi))
    u, up = from_angle(au), from_angle(aup)
    base = eval_generic_rotational(Phi, u, up, _cfg(form="second")).value
    scaled = eval_generic_rotational(Phi, c * u, cp * up, _cfg(form="second")).value
    assert abs(base - scaled) < 1e-12
    assert -1e-12 <= base <= 2.0 + 1e-12


def test_rotational_degenerate_raises():
    p = _pose([0.0, 0.0], [0.0, 0.0])
    pp = _pose([1.0, 0.0], [1.0, 0.0])
    with pytest.raises(DegenerateVectorError):
        eval_rotation(p, pp, I2, 1.0, _cfg(form="second"))
    with pytest.raises(DegenerateVectorError):
        eval_rotation(p, pp, I2, 1.0, _cfg(t1=0))
