"""Ricci-damped transport profiles: closed values, bounds, identities."""

import numpy as np
import pytest

from pinpath import damped
from pinpath.geom import CurvatureModel

FLAT3 = CurvatureModel("flat", 3)
HYP3 = CurvatureModel("hyperbolic", 3, 1.0)   # c = kappa (d-1) = 2
HYP2 = CurvatureModel("hyperbolic", 2, 1.0)   # c = 1

S_GRID = np.array([0.0, 0.25, 0.5, 0.75, 1.0])


def field(c, s, H):
    """Damped field J(s) = K(s) K(1)^{-1} H."""
    ratio = np.asarray(damped.k_profile(c, s)) / damped.k_profile(c, 1.0)
    return ratio[..., None] * np.asarray(H, dtype=float)


def test_flat_profiles_are_trivial():
    """c = 0: T = 1, K(s) = s, Z(s) = s, J(s) = s H, C = 1."""
    c = damped.ric_scalar(FLAT3)
    assert c == 0.0
    assert np.array_equal(damped.t_profile(c, S_GRID), np.ones(5))
    assert np.array_equal(damped.k_profile(c, S_GRID), S_GRID)
    assert damped.k_profile(c, 0.3) == 0.3
    assert np.array_equal(damped.z_profile(c, S_GRID), S_GRID)
    H = np.array([1.0, -2.0, 0.5])
    assert np.allclose(field(c, 0.3, H), 0.3 * H)
    assert damped.ctilde_scalar(c) == 1.0


def test_transport_value_at_one():
    """kappa=1, d=3: T(1) = e^{-1}, T(1)^{-1} = e."""
    c = damped.ric_scalar(HYP3)
    assert c == 2.0
    assert damped.t_profile(c, 1.0) == pytest.approx(np.exp(-1.0), rel=1e-15)
    assert 1.0 / damped.t_profile(c, 1.0) == pytest.approx(np.e, rel=1e-15)


def test_transport_inverse_identity():
    """T(s)^{-1} is the profile of the opposite Ricci scalar: T_c T_{-c} = 1."""
    c = damped.ric_scalar(HYP3)
    prod = damped.t_profile(c, S_GRID) * damped.t_profile(-c, S_GRID)
    assert np.max(np.abs(prod - 1.0)) < 1e-12


def test_mass_value_at_one():
    """kappa=1, d=3: K(1) = (1 - e^{-2})/2."""
    want = (1.0 - np.exp(-2.0)) / 2.0
    assert damped.k_profile(2.0, 1.0) == pytest.approx(want, rel=1e-14)


def test_mass_integral_definition():
    """K(s) matches the quadrature of T_s T_r^{-1} (T_r^{-1})^* T_1^*."""
    for model in (HYP3, HYP2):
        c = damped.ric_scalar(model)
        for s in (0.3, 0.7, 1.0):
            r = np.linspace(0.0, s, 20001)
            integral = np.trapezoid(np.exp(c * r), r)
            want = np.exp(-0.5 * c * s) * integral * np.exp(-0.5 * c)
            assert damped.k_profile(c, s) == pytest.approx(want, rel=1e-7)


def test_ctilde_value_and_identity():
    """C = c e^{c/2}/(e^c - 1); equivalently K(1)^{-1} = T(1)^{-*} C."""
    c = 2.0
    want = c * np.exp(c / 2) / np.expm1(c)
    assert damped.ctilde_scalar(c) == pytest.approx(want, rel=1e-15)
    # the c = 2 value is also 1/sinh(1)
    assert want == pytest.approx(1.0 / np.sinh(1.0), rel=1e-14)
    K1 = damped.k_profile(c, 1.0)
    assert 1.0 / K1 == pytest.approx(damped.ctilde_scalar(c) / damped.t_profile(c, 1.0),
                                     rel=1e-12)


def test_field_interpolation():
    """J(1) = H exactly; J(1/2) carries the closed profile ratio."""
    H = np.array([0.4, -1.0, 2.0])
    c = damped.ric_scalar(HYP3)
    assert np.allclose(field(c, 1.0, H), H, atol=1e-14)
    ratio = (np.exp(-0.5 * c * 1.5) * np.expm1(0.5 * c)
             / (np.exp(-c) * np.expm1(c)))
    assert np.allclose(field(c, 0.5, H), ratio * H, atol=1e-14)
    assert np.allclose(field(c, 0.0, H), 0.0)
    # on a grid of times the field is one row per time
    assert np.allclose(field(c, S_GRID, H)[2], field(c, 0.5, H), atol=1e-15)


def test_coordinate_field_profile():
    """Z(1) = 2 sinh(c/2)/c: equals sinh(1) at c = 2 and 2 sinh(1/2) at c = 1."""
    assert damped.z_profile(2.0, 1.0) == pytest.approx(np.sinh(1.0), rel=1e-14)
    assert damped.z_profile(1.0, 1.0) == pytest.approx(2.0 * np.sinh(0.5), rel=1e-14)
    # uniformly bounded in s: the profile is increasing, so s = 1 dominates
    grid = np.linspace(0.0, 1.0, 101)
    for model in (HYP2, HYP3):
        c = damped.ric_scalar(model)
        prof = damped.z_profile(c, grid)
        assert np.all(np.diff(prof) > 0.0)
        assert prof.max() <= damped.z_profile(c, 1.0) + 1e-12


def test_norm_bounds():
    """Operator bounds from the curvature scale N = kappa (flat limit 1)."""
    for model in (HYP3, HYP2, FLAT3):
        d, big_n = model.dim, model.curvature_bound
        c = damped.ric_scalar(model)
        env = np.exp((d - 1) * big_n / 2.0) + 1e-8
        t = damped.t_profile(c, S_GRID)
        assert np.all(t <= env)
        assert np.all(1.0 / t <= env)
        K1 = damped.k_profile(c, 1.0)
        assert K1 >= np.exp(-2 * (d - 1) * big_n) - 1e-10
        assert 1.0 / K1 <= np.exp((d - 1) * big_n) + 1e-8
