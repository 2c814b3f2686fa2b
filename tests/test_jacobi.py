"""Interval cosine/sine solutions, response families, and volume factors."""

from math import comb

import numpy as np
import pytest

from pinpath import geom, jacobi, measures, paths
from pinpath.geom import CurvatureModel, NumericalError
from pinpath.jacobi import Partition

from tests.oracles import (batch_cs, batch_endpoint_f, batch_mass_matrix, broken_jacobi_rk4,
                           cs_rk4, curvature_matrix, dense_tip_log_factors, det_identity_check,
                           gram_pass, jacobi_from_slopes, log_rho_P, slopes_from_knots,
                           vx_fd_oracle_flat)

FLAT2 = CurvatureModel("flat", 2)
HYP2 = CurvatureModel("hyperbolic", 2, 1.0)
HYP3 = CurvatureModel("hyperbolic", 3, 1.0)

SINH1 = np.sinh(1.0)


def cs(model, xi, h):
    """(C, S) of one interval covered at constant frame velocity xi in time h,
    from the shipped actions on I: C = cosine(I) and S = h sine(I)."""
    iv = jacobi.Intervals(model, h * np.asarray(xi, dtype=float)[None, :, None])
    eye = np.eye(model.dim)[..., None]
    return iv.cosine(0, eye)[..., 0], h * iv.sine(0, eye)[..., 0]


def response_table(model, part, inc):
    """f_i(s_j) of one path as f[i - 1, j], shape (n, n+1, d, d): the basis
    field h_{alpha,i}, whose one nonzero right-slope is sqrt(n) e_alpha on
    interval i, has knot values f_i(s_j) e_alpha / sqrt(n) (jacobi_from_slopes)."""
    n, d = part.n, model.dim
    C, S = batch_cs(model, inc, part.mesh)
    slopes = np.sqrt(n) * np.eye(n * d).reshape(n, d, n, d)        # h_{alpha,i} at [i-1, alpha]
    J = jacobi_from_slopes(C, S, slopes)                            # (n, d, n+1, d)
    return np.sqrt(n) * np.moveaxis(J, 1, -1)


def normal_jacobian(model, part, inc):
    """J_P = sqrt(det K(1)) of one path, through the suffix-pass API."""
    C, S = batch_cs(model, inc, part.mesh)
    K = batch_mass_matrix(batch_endpoint_f(C, S, part.mesh), part.mesh)
    return float(np.sqrt(np.linalg.det(K)))


def rho_P(model, part, inc):
    _, S = batch_cs(model, inc, part.mesh)
    return float(np.exp(log_rho_P(S, part.mesh)))


def volume_change_Vx(model, part, inc, xi_x):
    """V_x as the estimator computes it: body Gram pass, then tip_log_factors."""
    G, head = gram_pass(model, inc[:-1])
    return float(np.exp(jacobi.tip_log_factors(model, G, head, xi_x, part.n)[1]))


def test_intervals_sum_squares_in_one_buffer_at_every_batch_size():
    """Intervals accumulates |xi|^2 into one buffer with the bits of the
    plain generator sum of squares, at batch sizes 1, 7 and 4096: its 1/|xi|
    is the reciprocal of the root of that sum (both correctly rounded), and
    every scalar of a sample has the same bits in every batch."""
    rng = np.random.default_rng(3)
    for d in (1, 2, 3):
        model = CurvatureModel("hyperbolic", d, 1.7)
        xi = rng.normal(size=(5, d, 4096)) * 0.4
        xi[0, :, 0] = 0.0
        full = jacobi.Intervals(model, xi)
        for B in (1, 7, 4096):
            iv = jacobi.Intervals(model, np.ascontiguousarray(xi[..., :B]))
            plain = sum(xi[:, k, :B] * xi[:, k, :B] for k in range(d))
            want = np.ones_like(plain)
            np.divide(1.0, np.sqrt(plain), out=want, where=plain > 0)
            assert np.array_equal(iv.inv, want), (d, B)
            for name in ("inv", "sh", "chm1", "s2"):
                assert np.array_equal(getattr(iv, name), getattr(full, name)[:, :B]), (d, B, name)


@pytest.mark.parametrize("B", [1, 7], ids=["batch1", "batch7"])
def test_interval_actions_match_the_dense_oracle(B):
    """Intervals.cosine and Intervals.sine give the dense oracle's C_j y and
    (S_j / delta) y (batch_cs) within 1e-15 relative to the largest entry, on
    vectors (d, B) and on (d, j, d, B) stacks, for d = 1-3, flat space and
    kappa in {1, 2.5}, with one xi = 0 interval."""
    rng = np.random.default_rng(5)
    n, delta = 4, 0.25
    for d in (1, 2, 3):
        for model in (CurvatureModel("flat", d), CurvatureModel("hyperbolic", d, 1.0),
                      CurvatureModel("hyperbolic", d, 2.5)):
            inc = rng.normal(size=(B, n, d)) * np.sqrt(delta)
            inc[0, 1] = 0.0
            iv = jacobi.Intervals(model, np.ascontiguousarray(inc.transpose(1, 2, 0)))
            C, S = batch_cs(model, inc, delta)
            for y in (rng.normal(size=(d, B)), rng.normal(size=(d, 3, d, B))):
                for j in range(n):
                    for got, M in ((iv.cosine(j, y), C[:, j]), (iv.sine(j, y), S[:, j] / delta)):
                        want = np.einsum("Bab,b...B->a...B", M, y)
                        assert got.shape == want.shape
                        assert np.all(np.abs(got - want) <= 1e-15 * np.abs(want).max()), \
                            (model, y.shape, j)


def test_flat_intervals_are_constant_and_lazy():
    """Flat Intervals: sh and chm1 are 0 and s2 is 1, each (m, ..., B) and
    read-only, and 1/|xi| waits for its first use; gram_pass gives G = m I
    and head = (m - 1) I exactly, cosine and sine return y bit for bit, and
    paths.chart_matrix is M = m I."""
    rng = np.random.default_rng(11)
    m, d, B = 5, 3, 7
    model = CurvatureModel("flat", d)
    iv = jacobi.Intervals(model, rng.normal(size=(m, d, 4, B)))
    assert "inv" not in vars(iv)
    for name, value in (("sh", 0.0), ("chm1", 0.0), ("s2", 1.0)):
        arr = getattr(iv, name)
        assert arr.shape == (m, 4, B) and np.all(arr == value)
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 2.0
    G, head = gram_pass(model, rng.normal(size=(B, m, d)))
    assert np.array_equal(G, np.broadcast_to(m * np.eye(d), G.shape))
    assert np.array_equal(head, np.broadcast_to((m - 1) * np.eye(d), head.shape))
    iv = jacobi.Intervals(model, rng.normal(size=(m, d, B)))
    for y in (rng.normal(size=(d, B)), rng.normal(size=(d, 3, d, B))):
        for j in range(m):
            assert np.array_equal(iv.cosine(j, y), y)
            assert np.array_equal(iv.sine(j, y), y)
    assert "inv" in vars(iv)
    M = paths.chart_matrix(model, iv)
    assert np.array_equal(M, np.broadcast_to(m * np.eye(m * d)[..., None], (m * d, m * d, B)))


def test_partition_basics():
    """Equally spaced knots, mesh 1/n, and validation."""
    p = Partition(4)
    assert np.allclose(p.knots, [0.0, 0.25, 0.5, 0.75, 1.0])
    assert p.mesh == 0.25
    with pytest.raises(ValueError):
        Partition(0)


def test_partition_knot_index():
    """One knot lookup with one tolerance; off-knot and out-of-range times raise."""
    p = Partition(4)
    assert [p.knot_index(t) for t in p.knots] == [0, 1, 2, 3, 4]
    assert p.knot_index(0.5 + 1e-12) == 2
    for t in (0.3, 0.5 + 1e-6, -0.25, 1.25):
        with pytest.raises(ValueError):
            p.knot_index(t)


def test_cs_flat_closed_form():
    """Flat intervals: C = I and S = h I for any xi."""
    xi = np.array([2.0, -1.0])
    C, S = cs(FLAT2, xi, 0.37)
    assert np.allclose(C, np.eye(2))
    assert np.allclose(S, 0.37 * np.eye(2))


def test_cs_hyperbolic_axis_vector():
    """kappa=1, xi=e1: block diagonal cosh/sinh in the orthogonal direction."""
    xi = np.array([1.0, 0.0])
    C, S = cs(HYP2, xi, 0.5)
    assert np.allclose(C @ xi, xi)                      # kernel direction
    assert np.allclose(S @ xi, 0.5 * xi)
    e2 = np.array([0.0, 1.0])
    assert np.isclose((C @ e2)[1], np.cosh(0.5))
    assert np.isclose((S @ e2)[1], np.sinh(0.5))


def test_cs_zero_velocity():
    """xi = 0 collapses to the flat solution on any model."""
    C, S = cs(HYP3, np.zeros(3), 0.25)
    assert np.allclose(C, np.eye(3))
    assert np.allclose(S, 0.25 * np.eye(3))


def test_cs_closed_vs_independent_rk4():
    """Closed form matches an independently coded RK4 of Y'' = A_xi Y."""
    rng = np.random.default_rng(17)
    for model in (HYP2, HYP3):
        for _ in range(5):
            xi = rng.normal(size=model.dim)
            h = float(rng.uniform(0.1, 1.0))
            C, S = cs(model, xi, h)
            C0, S0, _, _ = cs_rk4(model.kappa, xi, h)
            assert np.allclose(C, C0, atol=1e-9)
            assert np.allclose(S, S0, atol=1e-9)


def test_cs_builtin_rk4_matches_closed():
    """A long interval at 1000 RK4 steps agrees with the closed form to 1e-10."""
    xi = np.array([0.7, -0.4, 1.2])
    C, S = cs(HYP3, xi, 0.8)
    C0, S0, _, _ = cs_rk4(1.0, xi, 0.8, steps=1000)
    assert np.allclose(C, C0, atol=1e-10)
    assert np.allclose(S, S0, atol=1e-10)


def test_cs_semigroup_composition():
    """State-transition composition: C(2h) = C^2 + A S^2, S(2h) = 2 C S."""
    rng = np.random.default_rng(23)
    for _ in range(20):
        d = int(rng.integers(1, 4))
        model = CurvatureModel("hyperbolic", d, float(rng.uniform(0.2, 4.0)))
        xi = rng.normal(size=d)
        h = float(rng.uniform(0.05, 0.5))
        A = curvature_matrix(model.kappa, xi)
        C1, S1 = cs(model, xi, h)
        C2, S2 = cs(model, xi, 2 * h)
        assert np.allclose(C2, C1 @ C1 + A @ S1 @ S1, atol=1e-10)
        assert np.allclose(S2, C1 @ S1 + S1 @ C1, atol=1e-10)


def test_cs_eigenvalue_floors():
    """eig(C(h)) >= 1 and eig(S(h)) >= h over 1000 random intervals."""
    rng = np.random.default_rng(29)
    for _ in range(1000):
        d = int(rng.integers(1, 4))
        kappa = float(rng.uniform(0.1, 2.0))
        model = CurvatureModel("hyperbolic", d, kappa)
        xi = rng.normal(size=d) * rng.uniform(0.0, 3.0)
        h = float(rng.uniform(0.01, 1.0))
        C, S = cs(model, xi, h)
        assert np.linalg.eigvalsh(C).min() >= 1.0 - 1e-12
        assert np.linalg.eigvalsh(S).min() >= h - 1e-12


def test_family_flat_is_trivial():
    """Flat family: every response matrix is I, mass matrix is I."""
    rng = np.random.default_rng(31)
    part = Partition(6)
    inc = rng.normal(size=(6, 2)) * np.sqrt(part.mesh)
    f = response_table(FLAT2, part, inc)
    for j in range(1, 7):
        for i in range(1, j + 1):
            assert np.allclose(f[i - 1, j], np.eye(2), atol=1e-12)
    assert np.allclose(sum(f[i, 6] @ f[i, 6].T for i in range(6)) / 6, np.eye(2), atol=1e-12)
    assert normal_jacobian(FLAT2, part, inc) == pytest.approx(1.0, abs=1e-12)
    assert rho_P(FLAT2, part, inc) == pytest.approx(1.0, abs=1e-12)


def test_family_index_conventions():
    """f_i(s_j) = 0 for j < i, and f_i(s_i) = S_i / delta."""
    rng = np.random.default_rng(37)
    part = Partition(4)
    inc = rng.normal(size=(4, 2)) * 0.5
    f = response_table(HYP2, part, inc)
    _, S = batch_cs(HYP2, inc, part.mesh)
    for i in range(1, 5):
        for j in range(i):
            assert np.all(f[i - 1, j] == 0.0)
        assert np.allclose(f[i - 1, i], S[i - 1] / part.mesh, atol=1e-12)
    assert f.shape == (4, 5, 2, 2)


def test_family_single_interval_response():
    """n=1: f_1(1) = S(1) has the sinh profile orthogonal to the velocity."""
    part = Partition(1)
    inc = np.array([[1.0, 0.0]])
    f = response_table(HYP2, part, inc)
    want = np.diag([1.0, SINH1])
    assert np.allclose(f[0, 1], want, atol=1e-12)
    # independent check on the same matrix
    _, S0, _, _ = cs_rk4(1.0, np.array([1.0, 0.0]), 1.0)
    assert np.allclose(f[0, 1], S0, atol=1e-9)
    assert normal_jacobian(HYP2, part, inc) == pytest.approx(SINH1, rel=1e-12)


def test_mass_matrix_running_definition():
    """K(s_j) = (1/n) sum_{i<=j} f_i(s_j) f_i(1)^T applied to c is the knot
    value at s_j of the field with slopes k_{i-1} = f_i(1)^T c (the lift's
    form); K(1) is batch_mass_matrix of the suffix products."""
    rng = np.random.default_rng(41)
    part = Partition(5)
    inc = rng.normal(size=(5, 3)) * np.sqrt(part.mesh)
    f = response_table(HYP3, part, inc)
    C, S = batch_cs(HYP3, inc, part.mesh)
    f_end = batch_endpoint_f(C, S, part.mesh)
    c = rng.normal(size=3)
    J = jacobi_from_slopes(C, S, np.einsum("iab,a->ib", f_end, c))
    for j in range(1, 6):
        K = sum(f[i - 1, j] @ f[i - 1, 5].T for i in range(1, j + 1)) / 5
        assert np.allclose(K @ c, J[j], atol=1e-12)
    K1 = batch_mass_matrix(f_end, part.mesh)
    assert np.allclose(K1, sum(f[i, 5] @ f[i, 5].T for i in range(5)) / 5, atol=1e-12)
    # endpoint mass-matrix eigenvalues sit at or above one
    assert np.linalg.eigvalsh(K1).min() >= 1.0 - 1e-10


def test_jacobi_from_slopes_zero_and_flat():
    """Zero slopes give the zero field; flat constant slopes grow linearly."""
    rng = np.random.default_rng(43)
    part = Partition(4)
    inc = rng.normal(size=(4, 2)) * 0.5
    C, S = batch_cs(HYP2, inc, part.mesh)
    assert np.allclose(jacobi_from_slopes(C, S, np.zeros((4, 2))), 0.0)

    C, S = batch_cs(FLAT2, inc, part.mesh)
    slopes = np.tile([1.0, 0.0], (4, 1))
    J = jacobi_from_slopes(C, S, slopes)
    assert np.allclose(J[:, 0], part.knots, atol=1e-12)
    assert np.allclose(J[:, 1], 0.0)


def test_jacobi_from_slopes_vs_ode():
    """Broken-field knot values agree with interval-by-interval RK4."""
    rng = np.random.default_rng(47)
    part = Partition(2)
    inc = rng.normal(size=(2, 2)) * np.sqrt(part.mesh)
    slopes = rng.normal(size=(2, 2))
    got = jacobi_from_slopes(*batch_cs(HYP2, inc, part.mesh), slopes)
    want = broken_jacobi_rk4(1.0, inc / part.mesh, slopes)
    assert np.allclose(got, want, atol=1e-9)


def test_slopes_from_knots_inverts():
    """The oracle slopes_from_knots is the inverse of jacobi_from_slopes."""
    rng = np.random.default_rng(59)
    part = Partition(8)
    inc = rng.normal(size=(8, 3)) * np.sqrt(part.mesh)
    C, S = batch_cs(HYP3, inc, part.mesh)
    slopes = rng.normal(size=(8, 3))
    J = jacobi_from_slopes(C, S, slopes)
    back = slopes_from_knots(C, S, J)
    assert np.allclose(back, slopes, atol=1e-10)


def test_normal_jacobian_floor_random():
    """sqrt(det K(1)) >= 1 for random curved families."""
    rng = np.random.default_rng(67)
    for _ in range(50):
        n = int(rng.integers(2, 17))
        part = Partition(n)
        inc = rng.normal(size=(n, 2)) * np.sqrt(part.mesh)
        assert normal_jacobian(HYP2, part, inc) >= 1.0 - 1e-12
        assert rho_P(HYP2, part, inc) >= 1.0 - 1e-12


def test_rho_p_closed_value():
    """n=2 with unit first increment: rho_P = det(2 S_1(1/2)) = sinh(1)."""
    part = Partition(2)
    inc = np.array([[1.0, 0.0], [0.1, 0.1]])   # second interval is not counted
    assert rho_P(HYP2, part, inc) == pytest.approx(SINH1, rel=1e-12)
    _, S = batch_cs(HYP2, inc, part.mesh)
    assert log_rho_P(S, part.mesh) == pytest.approx(np.log(SINH1), rel=1e-12)


def test_volume_change_flat_any_target():
    """Flat pinning factor is n^{d/2} regardless of the tip vector."""
    rng = np.random.default_rng(71)
    for n, d in ((2, 1), (4, 2), (8, 3)):
        model = CurvatureModel("flat", d)
        part = Partition(n)
        inc = rng.normal(size=(n, d)) * np.sqrt(part.mesh)
        for _ in range(3):
            xi = rng.normal(size=d)
            vx = volume_change_Vx(model, part, inc, xi)
            assert vx == pytest.approx(n ** (d / 2.0), rel=1e-10)


def test_volume_change_curved_two_intervals():
    """n=2 with zero tip: the curved factor equals the flat value 2^{d/2}."""
    rng = np.random.default_rng(73)
    for model in (HYP2, HYP3):
        part = Partition(2)
        inc = rng.normal(size=(2, model.dim)) * np.sqrt(part.mesh)
        vx = volume_change_Vx(model, part, inc, np.zeros(model.dim))
        assert vx == pytest.approx(2 ** (model.dim / 2.0), rel=1e-10)


def test_volume_change_upper_bound():
    """V_x sits inside the binomial a-priori envelope on random paths.

    bound = sum_k C(d,k) n^{k/2} exp(kappa k |xi|^2 / 2) prod_j exp(kappa k |inc_j|^2)
    with |inc_j| the geodesic segment lengths and |xi| the tip distance.
    """
    rng = np.random.default_rng(311)
    for model in (HYP2, HYP3, CurvatureModel("hyperbolic", 2, 2.0)):
        d, kap = model.dim, model.curvature_bound
        for n in (2, 4, 8):
            part = Partition(n)
            inc = rng.normal(size=(n, d)) * np.sqrt(part.mesh)
            seg_sq = float(np.sum(inc ** 2))
            for _ in range(3):
                xi = rng.normal(size=d)
                vx = volume_change_Vx(model, part, inc, xi)
                bound = sum(comb(d, k) * n ** (k / 2.0)
                            * np.exp(kap * k * (xi @ xi) / 2.0)
                            * np.exp(kap * k * seg_sq)
                            for k in range(d + 1))
                assert 1.0 <= vx <= bound


def test_volume_change_against_fd_oracle():
    """Flat n=2 factor agrees with the finite-difference Gram-ratio oracle."""
    rng = np.random.default_rng(79)
    for d in (1, 2):
        model = CurvatureModel("flat", d)
        part = Partition(2)
        inc = rng.normal(size=(2, d)) * np.sqrt(part.mesh)
        x = rng.normal(size=d)
        want = vx_fd_oracle_flat(d, x)
        got = volume_change_Vx(model, part, inc, x)
        assert got == pytest.approx(want, rel=1e-6)


def test_volume_change_curved_exceeds_flat():
    """Curved bodies only increase the pinning factor (n > 2, zero tip)."""
    rng = np.random.default_rng(83)
    part = Partition(4)
    inc = rng.normal(size=(4, 2)) * np.sqrt(part.mesh)
    vx = volume_change_Vx(HYP2, part, inc, np.zeros(2))
    assert vx >= 4.0 ** (2 / 2.0) - 1e-12


def test_batched_endpoint_products():
    """Batched suffix products match the per-path response table at s = 1."""
    rng = np.random.default_rng(89)
    part = Partition(5)
    inc = rng.normal(size=(7, 5, 2)) * np.sqrt(part.mesh)
    f_end = batch_endpoint_f(*batch_cs(HYP2, inc, part.mesh), part.mesh)
    K = batch_mass_matrix(f_end, part.mesh)
    G, head = gram_pass(HYP2, inc[:, :-1])
    logj = jacobi.tip_log_factors(HYP2, G, head, inc[:, -1], part.n)[0]
    for s in range(7):
        f = response_table(HYP2, part, inc[s])
        K1 = sum(f[i, 5] @ f[i, 5].T for i in range(5)) / 5
        for i in range(1, 6):
            assert np.allclose(f_end[s, i - 1], f[i - 1, 5], atol=1e-12)
        assert np.allclose(K[s], K1, atol=1e-12)
        assert np.isclose(logj[s], 0.5 * np.linalg.slogdet(K1)[1], atol=1e-12)


def test_body_pass_extends_to_full_pass():
    """The body's Gram pass with the tip in closed form (tip_log_factors) gives
    log J_P = log sqrt(det K(1)) of the suffix pass over the whole path, and
    the Gram pass over the whole path gives its K(1) = delta G."""
    rng = np.random.default_rng(103)
    for model in (FLAT2, HYP2, CurvatureModel("hyperbolic", 3, 2.0)):
        for n in (1, 2, 3, 8, 32):
            part = Partition(n)
            inc = rng.normal(size=(6, n, model.dim)) * np.sqrt(part.mesh)
            G, head = gram_pass(model, inc[:, :-1])
            C, S = batch_cs(model, inc, part.mesh)
            K = batch_mass_matrix(batch_endpoint_f(C, S, part.mesh), part.mesh)
            log_jp = jacobi.tip_log_factors(model, G, head, inc[:, -1], n)[0]
            assert np.allclose(log_jp, 0.5 * np.linalg.slogdet(K)[1], rtol=1e-13, atol=1e-13)
            assert np.allclose(part.mesh * gram_pass(model, inc)[0], K,
                               rtol=1e-13, atol=1e-13)


def test_tip_log_factors_match_dense_oracle():
    """The factored tip agrees with the dense tip algebra (K(1) = delta C_x G
    C_x^T + S_x S_x^T / delta and I + L F L^T with L = C_x S_x^{-1}) to
    1e-12 (1 + |value|), for tips up to sqrt(kappa) |xi_x| = 6 and xi_x = 0."""
    rng = np.random.default_rng(109)
    models = [CurvatureModel("flat", d) for d in (1, 2, 3)]
    models += [CurvatureModel("hyperbolic", d, kappa)
               for d in (1, 2, 3) for kappa in (0.5, 1.0, 2.5)]
    for model in models:
        d, scale = model.dim, 1.0 / np.sqrt(max(model.kappa, 1.0))
        for n in (1, 2, 3, 8, 32):
            part = Partition(n)
            inc = rng.normal(size=(24, n, d)) * np.sqrt(part.mesh)
            tips = rng.normal(size=(24, d))
            tips *= (scale * np.linspace(0.0, 6.0, 24) / np.linalg.norm(tips, axis=-1))[:, None]
            G, head = gram_pass(model, inc[:, :-1])
            got = jacobi.tip_log_factors(model, G, head, tips, n)
            want = dense_tip_log_factors(G, head, *batch_cs(model, tips, part.mesh), n)
            for g, w in zip(got, want):
                assert np.all(np.abs(g - w) <= 1e-12 * (1.0 + np.abs(w))), (model, n)


def test_tip_log_factors_far_tips_on_straight_body():
    """Zero body increments give G = (n-1) I and head = (n-2) I, and then
    log J_P = [d log delta + log n + (d-1) log(cosh^2 a (n-1) + sinhc^2 a)] / 2
    and log V_x = [log n + (d-1) log(1 + (n-1) / r^2)] / 2 with
    a = sqrt(kappa) |xi_x| and r = tanh(a) / a; tips up to a = 40, where the
    dense tip algebra loses K(1) to cancellation, agree to 1e-13 relative
    (absolute at a = 0, where the scalar form of log J_P rounds a zero)."""
    a = np.array([0.0, 0.5, 2.0, 6.0, 12.0, 20.0, 30.0, 40.0])
    r = np.concatenate([[1.0], np.tanh(a[1:]) / a[1:]])
    rng = np.random.default_rng(113)
    for d in (1, 2, 3):
        for kappa in (0.5, 1.0, 2.5):
            model = CurvatureModel("hyperbolic", d, kappa)
            unit = rng.normal(size=(a.size, d))
            tips = unit * (a / np.sqrt(kappa) / np.linalg.norm(unit, axis=-1))[:, None]
            for n in (1, 2, 3, 8, 32):
                G, head = gram_pass(model, np.zeros((a.size, n - 1, d)))
                log_jp, log_vx, _ = jacobi.tip_log_factors(model, G, head, tips, n)
                want_jp = 0.5 * (-d * np.log(n) + np.log(n) + (d - 1) * np.log(
                    np.cosh(a) ** 2 * (n - 1) + geom.sinhc(a) ** 2))
                want_vx = 0.5 * (np.log(n) + (d - 1) * np.log(1.0 + (n - 1) / r ** 2))
                assert np.allclose(log_jp, want_jp, rtol=1e-13, atol=1e-13), (d, kappa, n)
                assert np.allclose(log_vx, want_vx, rtol=1e-13, atol=1e-13), (d, kappa, n)


def test_batched_factors_match_batch_of_one():
    """Every batched function gives on a batch what it gives path by path."""
    rng = np.random.default_rng(107)
    model, part = CurvatureModel("hyperbolic", 3, 2.0), Partition(6)
    delta = part.mesh
    inc = rng.normal(size=(5, 6, 3)) * np.sqrt(delta)
    slopes = rng.normal(size=(5, 6, 3))
    tips = rng.normal(size=(5, 3))

    def factors(inc, slopes, tip):
        C, S = batch_cs(model, inc, delta)
        f_end = batch_endpoint_f(C, S, delta)
        G, head = gram_pass(model, inc[..., :-1, :])
        J = jacobi_from_slopes(C, S, slopes)
        return [f_end, batch_mass_matrix(f_end, delta), G, head,
                gram_pass(model, inc)[0],
                *jacobi.tip_log_factors(model, G, head, inc[..., -1, :], part.n)[:2],
                *jacobi.tip_log_factors(model, G, head, tip, part.n)[:2],
                log_rho_P(S, delta), J, slopes_from_knots(C, S, J)]

    batch = factors(inc, slopes, tips)
    for s in range(5):
        for got, want in zip(factors(inc[s], slopes[s], tips[s]), batch):
            assert np.allclose(got, want[s], rtol=1e-12, atol=1e-12)


def test_log_volume_change_counts_ill_conditioned_tips():
    """A tip whose sine factor has condition number above COND_LIMIT is
    counted in tip_log_factors' hits; ordinary tips are not.  Both volume factors of
    every tip stay finite."""
    model = CurvatureModel("hyperbolic", 2, 4.0)
    part = Partition(4)
    body = np.full((3, 3, 2), 0.1)
    # cond(S_x) = sinhc(sqrt(kappa) |xi|), checked on the computed matrix
    _, Sx = batch_cs(model, np.array([1.5, 0.0]), part.mesh)
    assert np.linalg.cond(Sx) == pytest.approx(float(geom.sinhc(3.0)), rel=1e-10)
    tips = np.array([[0.5, 0.0], [20.0, 0.0], [0.0, -1.0]])   # sinhc(40) ~ 3e15
    G, head = gram_pass(model, body)
    log_jp, log_vx, hits = jacobi.tip_log_factors(model, G, head, tips, part.n)
    assert hits == 1
    assert np.all(np.isfinite(log_vx))
    assert np.all(np.isfinite(log_jp))
    assert jacobi.tip_log_factors(model, G[[0, 2]], head[[0, 2]], tips[[0, 2]], part.n)[2] == 0
    assert jacobi.tip_log_factors(FLAT2, *gram_pass(FLAT2, body), tips, part.n)[2] == 0


def test_tip_cond_count_is_sinhc_beyond_the_limit(monkeypatch):
    """tip_log_factors' hits is exactly the number of tips with
    sinhc(a) > COND_LIMIT, a = sqrt(kappa) |xi_x|, for tips within 1e-9 and
    1e-11 relative of the limit on either side, at the shipped limit and at
    one patched in after import (read at call time).  Tips up to a = 700 are
    counted and raise no overflow warning."""
    model, part = CurvatureModel("hyperbolic", 3, 2.5), Partition(4)
    unit = np.array([0.6, 0.0, -0.8])
    G, head = (np.repeat(X, 8, axis=0)
               for X in gram_pass(model, np.full((1, 3, 3), 0.1)))
    for limit in (jacobi.COND_LIMIT, 1e3):
        monkeypatch.setattr(jacobi, "COND_LIMIT", limit)
        lo, hi = 0.0, 40.0                 # bisect for sinhc(a) = limit
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if geom.sinhc(mid) < limit else (lo, mid)
        rel = np.array([-1e-9, -1e-11, 1e-11, 1e-9, -0.5, 0.5, -1.0, 2.0])
        tips = np.outer(lo * (1.0 + rel) / np.sqrt(model.kappa), unit)
        want = geom.sinhc(jacobi._polar(model, tips)[0]) > limit
        assert want.sum() == 4 and not np.all(want[:4]) and np.any(want[:4])
        assert jacobi.tip_log_factors(model, G, head, tips, part.n)[2] == want.sum()
    far = np.outer(np.array([31.0, 100.0, 300.0, 700.0]) / np.sqrt(model.kappa), unit)
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        for n in (1, 4):
            log_jp, log_vx, hits = jacobi.tip_log_factors(model, G[:4], head[:4], far, n)
            assert hits == 4 and np.all(np.isfinite(log_jp)) and np.all(np.isfinite(log_vx))


def test_volume_factors_reject_non_finite_determinants():
    """slogdet of a matrix holding inf gives sign +1 and logdet inf (NaN off
    the diagonal); both tip factors raise NumericalError on an inf in G or in
    head, as on a non-positive determinant, in flat space too, where no tip
    enters them (G + I and 2I + head), and the oracle log rho_P on a NaN."""
    eye = np.stack([np.eye(2)] * 3)
    tips = np.zeros((3, 2))
    for model in (HYP2, FLAT2):
        log_jp, log_vx, _ = jacobi.tip_log_factors(model, 0.0 * eye, 0.0 * eye, tips, 1)
        assert np.array_equal(log_jp, np.zeros(3)) and np.array_equal(log_vx, np.zeros(3))
        for which in (0, 1):
            for entry in [(1, 0, 0), (1, 0, 1)]:
                gram = [eye.copy(), eye.copy()]
                gram[which][entry] = np.inf
                with np.errstate(invalid="ignore"), pytest.raises(NumericalError):
                    jacobi.tip_log_factors(model, *gram, tips, 4)
            gram = [eye.copy(), eye.copy()]
            gram[which] *= np.array([-3.0, 1.0])
            with pytest.raises(NumericalError):
                jacobi.tip_log_factors(model, *gram, tips, 4)
    S = np.stack([np.eye(2)] * 3)[None]
    S[0, 0, 0, 0] = np.nan
    with np.errstate(invalid="ignore"), pytest.raises(NumericalError):
        log_rho_P(S, 0.5)


def _spd_batch(rng, lead, d, cond):
    """Random SPD matrices (*lead, d, d) with condition number cond (1 at
    d = 1), eigenvalues log-uniform between, at a random overall scale."""
    Q = np.linalg.qr(rng.normal(size=lead + (d, d)))[0]
    ev = np.exp(rng.uniform(0.0, np.log(cond), size=lead + (d,)))
    if d > 1:
        ev[..., 0], ev[..., -1] = 1.0, cond
    ev *= np.exp(rng.uniform(-3.0, 3.0, size=lead + (1,)))
    A = (Q * ev[..., None, :]) @ np.swapaxes(Q, -1, -2)
    return 0.5 * (A + np.swapaxes(A, -1, -2))


def _samples_last(A):
    return np.moveaxis(A, (-2, -1), (0, 1))


@pytest.mark.parametrize("lead", [(), (7,), (2, 3)], ids=["single", "7", "2x3"])
def test_positive_logdet_matches_slogdet(lead):
    """The Cholesky log-det kernel, run samples last, agrees with LU's slogdet
    on random SPD batches, d = 1-5, condition numbers 1 to 1e12: within
    2 d cond eps (a backward error E with ||E|| <= eps ||A|| changes log det A
    by tr(A^-1 E) to first order, at most d cond eps) plus 4 eps |log det| for
    rounding the sum."""
    rng = np.random.default_rng(211)
    eps = np.finfo(float).eps
    for d in range(1, 6):
        for cond in (1.0, 1e3, 1e6, 1e9, 1e12):
            A = _spd_batch(rng, lead, d, cond)
            want = np.linalg.slogdet(A)[1]
            got = jacobi._positive_logdet(_samples_last(A), "test matrix")
            assert got.shape == lead
            c = np.linalg.cond(A)
            assert np.all(np.abs(got - want) <= 2 * d * c * eps + 4 * eps * np.abs(want)), (d, cond)


def test_positive_logdet_rejects_non_finite_and_non_positive():
    """The kernel raises NumericalError on a NaN or an inf in the lower
    triangle only or in the upper triangle only (the pivots read only the
    lower one), on a negative or a zero pivot, and returns an empty result on
    an empty batch."""
    A = _samples_last(_spd_batch(np.random.default_rng(223), (5,), 3, 10.0))
    for bad in (np.nan, np.inf, -np.inf):
        for entry in ((2, 0), (2, 1), (1, 0), (0, 2), (1, 2), (0, 1), (1, 1)):
            B = A.copy()
            B[entry + (3,)] = bad
            with pytest.raises(NumericalError, match="lost positivity or finiteness"):
                jacobi._positive_logdet(B, "test matrix")
    indefinite = np.array([[1.0, 2.0], [2.0, 1.0]])[..., None]    # pivots 1, -3
    singular = np.array([[1.0, 1.0], [1.0, 1.0]])[..., None]      # pivots 1, 0
    for M in (indefinite, singular, -np.eye(2)[..., None], np.zeros((1, 1, 4))):
        with pytest.raises(NumericalError, match="lost positivity or finiteness"):
            jacobi._positive_logdet(M, "test matrix")
    for d in (1, 3):
        empty = jacobi._positive_logdet(np.zeros((d, d, 0)), "test matrix")
        assert empty.shape == (0,)
    assert jacobi._positive_logdet(np.zeros((2, 2, 2, 0)), "test matrix").shape == (2, 0)


@pytest.mark.parametrize("batch", [1, 7, 2000])
def test_positive_solve_matches_numpy_solve(batch):
    """The solve on the log-det kernel's factors agrees with LU's
    np.linalg.solve on random SPD batches, d = 1-3, condition numbers 1 to
    100: within 1e-13 of the largest entry of each solution.  The right-hand
    side is not written to."""
    rng = np.random.default_rng(227)
    for d in (1, 2, 3):
        for cond in (1.0, 10.0, 100.0):
            A = _spd_batch(rng, (batch,), d, cond)
            b = rng.normal(size=(d, batch))
            b_copy = b.copy()
            want = np.linalg.solve(A, b.T[..., None])[..., 0].T
            got = jacobi._positive_solve(_samples_last(A), b, "test matrix")
            assert got.shape == (d, batch)
            assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want).max(axis=0)), (d, cond)
            assert np.array_equal(b, b_copy)


def test_positive_solve_rejects_non_finite_and_non_positive():
    """The solve raises NumericalError, as the log-det does, on a NaN entry
    and on a negative or a zero pivot."""
    A = _samples_last(_spd_batch(np.random.default_rng(229), (5,), 2, 10.0))
    b = np.ones((2, 5))
    bad = A.copy()
    bad[1, 0, 2] = np.nan
    indefinite = np.array([[1.0, 2.0], [2.0, 1.0]])[..., None]    # pivots 1, -3
    singular = np.array([[1.0, 1.0], [1.0, 1.0]])[..., None]      # pivots 1, 0
    for M, rhs in ((bad, b), (indefinite, b[:, :1]), (singular, b[:, :1])):
        with pytest.raises(NumericalError, match="test matrix lost positivity or finiteness"):
            jacobi._positive_solve(M, rhs, "test matrix")


def test_pinned_chunks_call_no_numpy_linalg(monkeypatch):
    """The pinned route calls no numpy.linalg routine: one hyp3 n=32 chunk and
    one flat2 n=8 chunk of CHUNK paths complete with every public numpy.linalg
    function raising, with finite log-weights."""
    def forbidden(*a, **k):
        raise AssertionError("numpy.linalg called on the pinned route")

    runs = [(HYP3, Partition(32), [1.0, 0.0, 0.0]), (FLAT2, Partition(8), [1.0, 0.0])]
    targets = [measures._target_point(model, x) for model, _, x in runs]
    for name in np.linalg.__all__:
        if name != "LinAlgError":
            monkeypatch.setattr(np.linalg, name, forbidden)
    for (model, part, _), x_amb in zip(runs, targets):
        log_w, f_vals, _, _ = measures._pinned_chunk(model, part, x_amb, measures.MASS_OBSERVABLE,
                                                     0, 0, paths.CHUNK)
        assert log_w.shape == (paths.CHUNK,) and np.all(np.isfinite(log_w))


def test_det_identity_edge_cases():
    """det(S^T S) = det(I + A A^T): zero, rank-one, and rectangular cases."""
    lhs, rhs, ok = det_identity_check(np.zeros((3, 2)))
    assert ok and np.isclose(lhs, 1.0) and np.isclose(rhs, 1.0)

    a = np.array([[0.7], [-1.2], [0.4]])
    lhs, rhs, ok = det_identity_check(a)
    assert ok
    assert np.isclose(lhs, 1.0 + np.sum(a ** 2), rtol=1e-12)

    rng = np.random.default_rng(97)
    lhs, rhs, ok = det_identity_check(rng.normal(size=(3, 12)))
    assert ok


def test_det_identity_random_sweep():
    """100 random blocks at the shapes the estimator produces, rtol 1e-10."""
    rng = np.random.default_rng(101)
    for _ in range(100):
        d = int(rng.integers(1, 5))
        n = int(rng.integers(2, 9))
        A = rng.normal(size=(d, (n - 1) * d))
        lhs, rhs, ok = det_identity_check(A, rtol=1e-10)
        assert ok, (lhs, rhs)


@pytest.mark.parametrize("m", [1, 2, 7])
def test_scaled_gram_sums_match_the_plain_ones_on_short_bodies(m):
    """On bodies of m steps near o, where the plain Gram sums keep their
    digits, scaled_gram_pass gives G = P H P^T and head = P H_head P^T with
    P^{-1} = R and log det P = sum_j (d - 1) log cosh a_j, within 1e-13
    of G's largest entry; tip_log_factors on the scaled sums gives the plain factors
    within 1e-13, at d = 2 and 3 and kappa in {0.5, 2.5}."""
    rng = np.random.default_rng(17)
    for d in (2, 3):
        for kappa in (0.5, 2.5):
            model = CurvatureModel("hyperbolic", d, kappa)
            n = m + 1
            inc = rng.normal(size=(9, n, d)) / np.sqrt(n)
            iv = jacobi.Intervals(model, np.ascontiguousarray(inc[:, :m].transpose(1, 2, 0)))
            H, H_head, R, log_det_p = jacobi.scaled_gram_pass(iv)
            G, head = gram_pass(model, inc[:, :m])
            P = np.linalg.inv(R.transpose(2, 0, 1))
            for got, want in ((P @ H.transpose(2, 0, 1) @ P.transpose(0, 2, 1), G),
                              (P @ H_head.transpose(2, 0, 1) @ P.transpose(0, 2, 1), head)):
                assert np.all(np.abs(got - want) <= 1e-13 * np.abs(G).max())
            a = np.sqrt(kappa) * np.linalg.norm(inc[:, :m], axis=-1)
            assert np.allclose(log_det_p, (d - 1) * np.log(np.cosh(a)).sum(axis=1),
                               rtol=1e-13, atol=0)
            plain = jacobi.tip_log_factors(model, G, head, inc[:, -1], n)
            scaled = jacobi.tip_log_factors(model, H.transpose(2, 0, 1), H_head.transpose(2, 0, 1),
                                            inc[:, -1], n, (R.transpose(2, 0, 1), log_det_p))
            for got, want in zip(scaled[:2], plain[:2]):
                assert np.all(np.abs(got - want) <= 1e-13 * (1.0 + np.abs(want)))
            assert scaled[2] == plain[2]
