"""Ricci-damped transport profiles: closed values, bounds, identities."""

import numpy as np
import pytest

from pinpath import damped
from pinpath.damped import DampedTransport
from pinpath.geom import CurvatureModel
from pinpath.jacobi import Partition

FLAT3 = CurvatureModel("flat", 3)
HYP3 = CurvatureModel("hyperbolic", 3, 1.0)   # c = kappa (d-1) = 2
HYP2 = CurvatureModel("hyperbolic", 2, 1.0)   # c = 1

S_GRID = np.array([0.0, 0.25, 0.5, 0.75, 1.0])


def test_flat_profiles_are_trivial():
    """c = 0: T = I, K(s) = s I, Z(s) = s, J(s) = s H."""
    assert np.allclose(damped.damped_T(FLAT3, S_GRID),
                       np.broadcast_to(np.eye(3), (5, 3, 3)))
    K = damped.damped_K(FLAT3, S_GRID)
    for i, s in enumerate(S_GRID):
        assert np.allclose(K[i], s * np.eye(3))
    assert np.allclose(damped.z_alpha(FLAT3, S_GRID), S_GRID)
    H = np.array([1.0, -2.0, 0.5])
    assert np.allclose(damped.damped_J(FLAT3, 0.3, H), 0.3 * H)
    assert np.allclose(damped.ctilde(FLAT3), np.eye(3))


def test_transport_value_at_one():
    """kappa=1, d=3: T(1) = e^{-1} I."""
    assert np.allclose(damped.damped_T(HYP3, 1.0), np.exp(-1.0) * np.eye(3))
    assert np.allclose(damped.damped_T_inv(HYP3, 1.0), np.e * np.eye(3))


def test_transport_inverse_identity():
    """T(s) T(s)^{-1} = I on a grid, to machine precision."""
    T = damped.damped_T(HYP3, S_GRID)
    Tinv = damped.damped_T_inv(HYP3, S_GRID)
    prod = np.einsum("sab,sbc->sac", T, Tinv)
    assert np.max(np.abs(prod - np.eye(3))) < 1e-12


def test_mass_value_at_one():
    """kappa=1, d=3: K(1) = (1 - e^{-2})/2 I."""
    want = (1.0 - np.exp(-2.0)) / 2.0
    assert np.allclose(damped.damped_K(HYP3, 1.0), want * np.eye(3))


def test_mass_integral_definition():
    """K(s) matches the quadrature of T_s T_r^{-1} (T_r^{-1})^* T_1^*."""
    for model in (HYP3, HYP2):
        c = model.kappa * (model.dim - 1)
        for s in (0.3, 0.7, 1.0):
            r = np.linspace(0.0, s, 20001)
            integral = np.trapezoid(np.exp(c * r), r)
            want = np.exp(-0.5 * c * s) * integral * np.exp(-0.5 * c)
            got = damped.damped_K(model, s)[0, 0]
            assert got == pytest.approx(want, rel=1e-7)


def test_ctilde_value_and_identity():
    """C = c e^{c/2}/(e^c - 1); equivalently K(1)^{-1} = T(1)^{-*} C."""
    c = 2.0
    want = c * np.exp(c / 2) / np.expm1(c)
    assert np.allclose(damped.ctilde(HYP3), want * np.eye(3))
    # the c = 2 value is also 1/sinh(1)
    assert want == pytest.approx(1.0 / np.sinh(1.0), rel=1e-14)
    K1 = damped.damped_K(HYP3, 1.0)
    T1inv = damped.damped_T_inv(HYP3, 1.0)
    assert np.allclose(np.linalg.inv(K1), T1inv @ damped.ctilde(HYP3), atol=1e-12)


def test_field_interpolation():
    """J(1) = H exactly; J(1/2) carries the closed profile ratio."""
    H = np.array([0.4, -1.0, 2.0])
    assert np.allclose(damped.damped_J(HYP3, 1.0, H), H, atol=1e-14)
    c = 2.0
    ratio = (np.exp(-0.5 * c * 1.5) * np.expm1(0.5 * c)
             / (np.exp(-c) * np.expm1(c)))
    assert np.allclose(damped.damped_J(HYP3, 0.5, H), ratio * H, atol=1e-14)
    assert np.allclose(damped.damped_J(HYP3, 0.0, H), 0.0)


def test_coordinate_field_profile():
    """Z(1) = 2 sinh(c/2)/c: equals sinh(1) at c = 2; vector form on e_alpha."""
    assert damped.z_alpha(HYP3, 1.0) == pytest.approx(np.sinh(1.0), rel=1e-14)
    vec = damped.z_alpha(HYP3, 1.0, alpha=1)
    assert np.allclose(vec, [0.0, np.sinh(1.0), 0.0])
    assert damped.z_alpha(HYP2, 1.0) == pytest.approx(2.0 * np.sinh(0.5), rel=1e-14)
    # uniformly bounded in s: the profile is increasing, so s = 1 dominates
    grid = np.linspace(0.0, 1.0, 101)
    for model in (HYP2, HYP3):
        prof = np.array([damped.z_alpha(model, s) for s in grid])
        assert np.all(np.diff(prof) > 0.0)
        assert prof.max() <= damped.z_alpha(model, 1.0) + 1e-12


def test_norm_bounds():
    """Operator bounds from the curvature scale N = kappa (flat limit 1)."""
    for model in (HYP3, HYP2, FLAT3):
        d, big_n = model.dim, model.curvature_bound
        env = np.exp((d - 1) * big_n / 2.0) + 1e-8
        for s in S_GRID:
            assert np.linalg.norm(damped.damped_T(model, s), 2) <= env
            assert np.linalg.norm(damped.damped_T_inv(model, s), 2) <= env
        K1 = damped.damped_K(model, 1.0)
        assert np.linalg.eigvalsh(K1).min() >= np.exp(-2 * (d - 1) * big_n) - 1e-10
        assert np.linalg.norm(np.linalg.inv(K1), 2) <= np.exp((d - 1) * big_n) + 1e-8


def test_grid_container():
    """DampedTransport.build: refined grid, profile tables, time lookup."""
    part = Partition(4)
    dt = DampedTransport.build(HYP3, part, refine=4)
    assert len(dt.grid) == 17
    assert np.allclose(dt.grid[::4], part.knots)
    j = dt.partition.knot_index(0.5)
    assert np.allclose(dt.T[j], damped.damped_T(HYP3, 0.5))
    assert np.allclose(dt.K[j], damped.damped_K(HYP3, 0.5))
    assert np.allclose(dt.Tinv[j] @ dt.T[j], np.eye(3), atol=1e-12)
    assert np.allclose(dt.Ctilde, damped.ctilde(HYP3))
    with pytest.raises(ValueError):
        dt.partition.knot_index(0.13)
    with pytest.raises(ValueError):
        DampedTransport.build(HYP3, part, refine=0)
