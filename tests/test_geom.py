"""Geometry kernel: exp/log/transport on the hyperboloid and the curvature quadratic."""

from fractions import Fraction

import numpy as np
import pytest

from pinpath import geom
from pinpath.geom import CurvatureModel

from tests.oracles import curvature_matrix, geodesic_rk4, transport, transport_rk4

FLAT2 = CurvatureModel("flat", 2)
HYP2 = CurvatureModel("hyperbolic", 2, 1.0)
HYP3K2 = CurvatureModel("hyperbolic", 3, 2.0)


def test_model_validation():
    """Kind/dim/kappa combinations that must be rejected or normalized."""
    assert CurvatureModel("flat", 3).curvature_bound == 0.0
    assert CurvatureModel("flat", 3).ambient_dim == 3
    assert HYP2.ambient_dim == 3
    assert HYP3K2.curvature_bound == 2.0
    with pytest.raises(ValueError):
        CurvatureModel("hyperbolic", 2, 0.0)
    with pytest.raises(ValueError):
        CurvatureModel("hyperbolic", 2, -1.0)
    with pytest.raises(ValueError):
        CurvatureModel("sphere", 2, 1.0)
    with pytest.raises(ValueError):
        CurvatureModel("flat", 0)


def test_flat_exp_log_distance():
    """Flat space: exp is addition, log is subtraction, distance is Euclidean."""
    x = np.array([1.0, 2.0])
    v = np.array([3.0, 4.0])
    y = geom.exp_frame(FLAT2, x, geom.base_frame(FLAT2), v)[0]
    assert np.allclose(y, [4.0, 6.0])
    assert np.allclose(geom.log_point(FLAT2, x, y), v)
    assert np.isclose(geom.distance(FLAT2, x, y), 5.0)


def test_hyperbolic_exp_unit_vector():
    """exp_o(e_1) lands at (sinh 1, 0, cosh 1) on the kappa=1 sheet."""
    o = geom.base_point(HYP2)
    y = geom.exp_frame(HYP2, o, geom.base_frame(HYP2), np.array([1.0, 0.0]))[0]
    assert np.allclose(y, [np.sinh(1.0), 0.0, np.cosh(1.0)], atol=1e-12)
    # distance via the Minkowski cosh formula
    assert np.isclose(geom.distance(HYP2, o, y), 1.0, atol=1e-12)
    assert np.isclose(np.arccosh(-geom.minkowski_inner(o, y)), 1.0, atol=1e-12)


def test_hyperbolic_exp_against_geodesic_ode():
    """Closed-form exp agrees with RK4 on the raw geodesic equation."""
    rng = np.random.default_rng(2)
    for kappa, model in ((1.0, HYP2), (2.0, HYP3K2)):
        o = geom.base_point(model)
        frame = geom.base_frame(model)
        v = rng.normal(size=model.dim)
        y = geom.exp_frame(model, o, frame, v)[0]
        y_ode, _ = geodesic_rk4(kappa, o, geom.frame_vector(frame, v), 1.0)
        assert np.allclose(y, y_ode, atol=1e-8)


def test_exp_zero_vector_is_identity():
    """exp_x(0) = x on both models, and the frame stays put."""
    o, base = geom.base_point(HYP2), geom.base_frame(HYP2)
    y, frame = geom.exp_frame(HYP2, o, base, np.zeros(2))
    assert np.allclose(y, o) and np.allclose(frame, base)
    x = np.array([0.3, -0.7])
    assert np.allclose(geom.exp_frame(FLAT2, x, geom.base_frame(FLAT2), np.zeros(2))[0], x)


def test_log_roundtrip_batched():
    """exp then log recovers the tangent vector for 1000 random pairs."""
    rng = np.random.default_rng(7)
    for model in (FLAT2, HYP3K2):
        o, frame = geom.base_point(model), geom.base_frame(model)
        v = rng.normal(size=(1000, model.dim))
        v_amb = geom.frame_vector(frame, v)
        pts = np.broadcast_to(o, (1000, model.ambient_dim))
        y = geom.exp_frame(model, o, frame, v)[0]
        back = geom.log_point(model, pts, y)
        assert np.max(np.abs(back - v_amb)) < 1e-8
        # distance equals the norm of the log vector
        dist = geom.distance(model, pts, y)
        assert np.max(np.abs(dist - np.linalg.norm(v, axis=-1))) < 1e-8


def test_log_map_frame_coordinates():
    """Frame coordinates of log_point invert exp_frame."""
    rng = np.random.default_rng(11)
    o, frame = geom.base_point(HYP2), geom.base_frame(HYP2)
    v = rng.normal(size=2)
    y = geom.exp_frame(HYP2, o, frame, v)[0]

    def log_coords(p):
        return geom.frame_coords(HYP2, frame, geom.log_point(HYP2, o, p))

    assert np.allclose(log_coords(y), v, atol=1e-10)
    # log to the base point itself vanishes, and d(x, x) = 0
    assert np.allclose(log_coords(o), 0.0, atol=1e-12)
    assert geom.distance(HYP2, o, o) == pytest.approx(0.0, abs=1e-12)
    assert geom.distance(HYP2, y, y) == 0.0


def test_distance_of_near_pairs():
    """Pairs 1e-9 to 0.5 apart, at 0 to 6 from o, get the chord distance
    2 asinh(|x - y|_M / 2) of their stored coordinates, evaluated exactly, to
    1e-12 relative.  That floor is reached up to about 4.7 from o; beyond, the
    squares in |x - y|_M, whose Euclidean size is cosh r times their Minkowski
    size, round to eps cosh(r)^2 in double precision."""
    eps = np.finfo(float).eps
    rng = np.random.default_rng(17)
    for model in (HYP2, CurvatureModel("hyperbolic", 3, 1.0)):
        d = model.dim
        r = rng.uniform(0.0, 6.0, 200)
        sep = 10.0 ** rng.uniform(-9.0, np.log10(0.5), 200)
        far = rng.normal(size=(200, d))
        x, u = geom.exp_frame(model, geom.base_point(model), geom.base_frame(model),
                              r[:, None] * far / np.linalg.norm(far, axis=1)[:, None])
        step = rng.normal(size=(200, d))
        y = geom.exp_frame(model, x, u, sep[:, None] * step
                           / np.linalg.norm(step, axis=1)[:, None])[0]
        got = geom.distance(model, x, y)
        for i in range(200):
            q = [(Fraction(a) - Fraction(b)) ** 2 for a, b in zip(x[i], y[i])]
            want = 2.0 * np.arcsinh(0.5 * np.sqrt(float(sum(q[:-1]) - q[-1])))
            tol = max(1e-12, 2 * eps * np.cosh(r[i]) ** 2)
            assert abs(got[i] - want) <= tol * want, (r[i], sep[i])


def test_distance_of_far_pairs_is_arccosh():
    """Beyond the chord's range (12 to 30 apart) distance is the arccosh form."""
    rng = np.random.default_rng(19)
    o, frame = geom.base_point(HYP3K2), geom.base_frame(HYP3K2)
    x, u = geom.exp_frame(HYP3K2, o, frame, rng.normal(size=(50, 3)))
    step = rng.normal(size=(50, 3))
    step *= rng.uniform(12.0, 30.0, 50)[:, None] / np.linalg.norm(step, axis=1)[:, None]
    y = geom.exp_frame(HYP3K2, x, u, step)[0]
    c = -HYP3K2.kappa * geom.minkowski_inner(x, y)
    assert np.array_equal(geom.distance(HYP3K2, x, y), np.arccosh(c) / np.sqrt(HYP3K2.kappa))
    assert np.all(np.abs(geom.distance(HYP3K2, x, y) - np.linalg.norm(step, axis=1))
                  <= 1e-9 * np.linalg.norm(step, axis=1))


def test_transport_against_ode():
    """Closed-form parallel transport matches the transport ODE."""
    rng = np.random.default_rng(3)
    for kappa, model in ((1.0, HYP2), (2.0, HYP3K2)):
        o = geom.base_point(model)
        frame = geom.base_frame(model)
        v = rng.normal(size=model.dim)
        v_amb = geom.frame_vector(frame, v)
        w_amb = geom.frame_vector(frame, rng.normal(size=model.dim))
        y = geom.exp_frame(model, o, frame, v)[0]
        got = transport(kappa, o, y, w_amb)
        want = transport_rk4(kappa, o, v_amb, w_amb, 1.0)
        assert np.allclose(got, want, atol=1e-8)


def test_transport_preserves_inner_product():
    """<w1,w2>_M is invariant under transport; tangency is preserved."""
    rng = np.random.default_rng(5)
    o = geom.base_point(HYP3K2)
    frame = geom.base_frame(HYP3K2)
    v = rng.normal(size=3)
    w1 = geom.frame_vector(frame, rng.normal(size=3))
    w2 = geom.frame_vector(frame, rng.normal(size=3))
    y = geom.exp_frame(HYP3K2, o, frame, v)[0]
    t1 = transport(HYP3K2.kappa, o, y, w1)
    t2 = transport(HYP3K2.kappa, o, y, w2)
    assert np.isclose(geom.minkowski_inner(t1, t2), geom.minkowski_inner(w1, w2),
                      atol=1e-12)
    assert abs(geom.minkowski_inner(y, t1)) < 1e-12


def test_frame_orthonormal_after_many_steps():
    """Frame defect stays below 1e-9 after 64 rolled steps."""
    rng = np.random.default_rng(9)
    x, frame = geom.base_point(HYP3K2), geom.base_frame(HYP3K2)
    for _ in range(64):
        x, frame = geom.exp_frame(HYP3K2, x, frame, 0.125 * rng.normal(size=3))
    assert geom.frame_defect(HYP3K2, x, frame) < 1e-9


def test_curvature_quadratic_examples():
    """A_{e1}(e2) = kappa e2 and A_xi(xi) = 0."""
    e1 = np.array([1.0, 0.0])
    e2 = np.array([0.0, 1.0])
    assert np.allclose(curvature_matrix(HYP2.kappa, e1) @ e2, e2)
    assert np.allclose(curvature_matrix(HYP2.kappa, e1) @ e1, 0.0)
    xi = np.array([0.4, -1.1, 0.6])
    assert np.allclose(curvature_matrix(HYP3K2.kappa, xi) @ xi, 0.0, atol=1e-14)


def test_curvature_matrix_psd_and_bounded():
    """eig(A_xi) in [0, kappa|xi|^2], top eigenvalue attained orthogonally."""
    rng = np.random.default_rng(13)
    for model in (HYP2, HYP3K2):
        kappa, d = model.kappa, model.dim
        for _ in range(50):
            xi = rng.normal(size=d)
            A = curvature_matrix(kappa, xi)
            eigs = np.linalg.eigvalsh(A)
            assert eigs[0] >= -1e-12
            assert eigs[-1] <= kappa * np.dot(xi, xi) + 1e-12
        # orthogonal directions sit exactly at the bound
        xi = np.zeros(d)
        xi[0] = 1.5
        A = curvature_matrix(kappa, xi)
        perp = np.zeros(d)
        perp[1] = 1.0
        assert np.allclose(A @ perp, kappa * 2.25 * perp)


def test_sinhc_small_argument():
    """sinh(a)/a helper is accurate and smooth through zero."""
    assert geom.sinhc(0.0) == 1.0
    a = np.array([1e-9, 1e-7, 1e-3, 0.5])
    assert np.allclose(geom.sinhc(a), np.sinh(a) / a, rtol=1e-12)
