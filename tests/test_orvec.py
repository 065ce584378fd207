"""Orientation-vector algebra: operators, identities, conversions."""

import math

import numpy as np
import pytest

from ovsam.errors import DegenerateVectorError
from ovsam.findiff import fd_jacobian
from ovsam.orvec import (
    M,
    from_angle,
    norm,
    omega,
    omega_bar,
    to_angle,
)


def test_omega_entries():
    assert np.array_equal(omega([3.0, -2.0]), [[3.0, 2.0], [-2.0, 3.0]])


def test_omega_rotates_like_the_angle():
    R = omega(from_angle(0.7))
    c, s = math.cos(0.7), math.sin(0.7)
    assert np.allclose(R, [[c, -s], [s, c]], atol=1e-15)


def test_omega_angle_sum():
    # composing unit orientation vectors adds their angles
    u = from_angle(math.pi / 6)
    v = from_angle(math.pi / 3)
    got = omega(u) @ v
    assert np.max(np.abs(got - from_angle(math.pi / 2))) < 1e-12


def test_omega_bar_entries():
    assert np.array_equal(omega_bar([3.0, -2.0]), [[3.0, -2.0], [-2.0, -3.0]])


def test_mn_matrices():
    assert np.array_equal(M, [[1.0, 0.0], [0.0, -1.0]])
    with pytest.raises(ValueError):
        M[0, 0] = 2.0


def test_operator_identities_random():
    rng = np.random.default_rng(7)
    for _ in range(200):
        z = rng.uniform(-3.0, 3.0, 2)
        x = rng.uniform(-3.0, 3.0, 2)
        y = rng.uniform(-3.0, 3.0, 2)
        assert np.array_equal(omega_bar(z), omega(z) @ M)
        assert np.allclose(omega(x + y), omega(x) + omega(y), atol=1e-15)
        assert np.max(np.abs(omega(z) @ x - omega(x) @ z)) < 1e-12
        assert np.max(np.abs(omega(z).T @ x - omega_bar(x) @ z)) < 1e-12
    for _ in range(50):
        u = from_angle(rng.uniform(-math.pi, math.pi))
        assert np.max(np.abs(omega(u).T @ omega(u) - np.eye(2))) < 1e-12


def test_omega_jacobian_identities_fd():
    # d/dz of omega(z)^T x is omega_bar(x); of omega(z) x is omega(x)
    rng = np.random.default_rng(3)
    for _ in range(50):
        z = rng.uniform(-2.0, 2.0, 2)
        x = rng.uniform(-2.0, 2.0, 2)
        J_t = fd_jacobian(lambda v: omega(v).T @ x, z)
        J = fd_jacobian(lambda v: omega(v) @ x, z)
        assert np.max(np.abs(J_t - omega_bar(x))) < 1e-6
        assert np.max(np.abs(J - omega(x))) < 1e-6


def test_norm():
    assert norm([3.0, 4.0]) == 5.0
    assert norm([0.0, 0.0]) == 0.0


def test_angle_round_trip():
    for theta in (-3.0, -0.5, 0.0, 0.1, 2.9):
        u = from_angle(theta)
        assert abs(norm(u) - 1.0) < 1e-15
        assert abs(to_angle(u) - theta) < 1e-12
    with pytest.raises(DegenerateVectorError):
        to_angle([0.0, 0.0])
