"""Interval cosine/sine solutions, response families, and volume factors."""

from math import comb

import numpy as np
import pytest

from pinpath import geom, jacobi
from pinpath.geom import CurvatureModel, NumericalError
from pinpath.jacobi import Partition

from tests.oracles import broken_jacobi_rk4, cs_rk4, vx_fd_oracle_flat

FLAT2 = CurvatureModel("flat", 2)
HYP2 = CurvatureModel("hyperbolic", 2, 1.0)
HYP3 = CurvatureModel("hyperbolic", 3, 1.0)

SINH1 = np.sinh(1.0)


def normal_jacobian(fam):
    """J_P = sqrt(det K(1)) of a one-path family, through the suffix-pass API."""
    K = jacobi.batch_mass_matrix(fam.f[1:, fam.n], fam.partition.mesh)
    return float(np.exp(jacobi.log_normal_jacobian(K)))


def rho_P(fam):
    return float(np.exp(jacobi.log_rho_P(fam.S, fam.partition.mesh)))


def volume_change_Vx(model, part, inc, xi_x):
    """V_x as the estimator computes it: body Gram pass, then log_volume_change."""
    _, head = jacobi.gram_pass(model, inc[:-1])
    Cx, Sx = jacobi.batch_cs(model, xi_x, part.mesh)
    return float(np.exp(jacobi.log_volume_change(jacobi.pinning_gram(head, part.n), Cx, Sx)))


def test_partition_basics():
    """Equally spaced knots, mesh 1/n, and validation."""
    p = Partition(4)
    assert np.allclose(p.knots, [0.0, 0.25, 0.5, 0.75, 1.0])
    assert p.mesh == 0.25
    assert Partition.from_knots([0.0, 0.5, 1.0]).n == 2
    with pytest.raises(ValueError):
        Partition(0)
    with pytest.raises(ValueError):
        Partition.from_knots([0.0, 0.3, 1.0])


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
    C, S = jacobi.solve_cs_interval(FLAT2, xi, 0.37)
    assert np.allclose(C, np.eye(2))
    assert np.allclose(S, 0.37 * np.eye(2))


def test_cs_hyperbolic_axis_vector():
    """kappa=1, xi=e1: block diagonal cosh/sinh in the orthogonal direction."""
    xi = np.array([1.0, 0.0])
    C, S = jacobi.solve_cs_interval(HYP2, xi, 0.5)
    assert np.allclose(C @ xi, xi)                      # kernel direction
    assert np.allclose(S @ xi, 0.5 * xi)
    e2 = np.array([0.0, 1.0])
    assert np.isclose((C @ e2)[1], np.cosh(0.5))
    assert np.isclose((S @ e2)[1], np.sinh(0.5))


def test_cs_zero_velocity():
    """xi = 0 collapses to the flat solution on any model."""
    C, S = jacobi.solve_cs_interval(HYP3, np.zeros(3), 0.25)
    assert np.allclose(C, np.eye(3))
    assert np.allclose(S, 0.25 * np.eye(3))


def test_cs_closed_vs_independent_rk4():
    """Closed form matches an independently coded RK4 of Y'' = A_xi Y."""
    rng = np.random.default_rng(17)
    for model in (HYP2, HYP3):
        for _ in range(5):
            xi = rng.normal(size=model.dim)
            h = float(rng.uniform(0.1, 1.0))
            C, S = jacobi.solve_cs_interval(model, xi, h)
            C0, S0, _, _ = cs_rk4(model.kappa, xi, h)
            assert np.allclose(C, C0, atol=1e-9)
            assert np.allclose(S, S0, atol=1e-9)


def test_cs_builtin_rk4_matches_closed():
    """The module's own rk4 branch agrees with the closed form."""
    xi = np.array([0.7, -0.4, 1.2])
    Cc, Sc = jacobi.solve_cs_interval(HYP3, xi, 0.8, method="closed")
    Cr, Sr = jacobi.solve_cs_interval(HYP3, xi, 0.8, method="rk4", substeps=1000)
    assert np.allclose(Cc, Cr, atol=1e-10)
    assert np.allclose(Sc, Sr, atol=1e-10)


def test_cs_interval_validation():
    """Bad h, non-finite xi, wrong shape, unknown method all raise."""
    xi = np.array([1.0, 0.0])
    with pytest.raises(ValueError):
        jacobi.solve_cs_interval(HYP2, xi, 0.0)
    with pytest.raises(ValueError):
        jacobi.solve_cs_interval(HYP2, xi, -0.5)
    with pytest.raises(ValueError):
        jacobi.solve_cs_interval(HYP2, xi, np.nan)
    with pytest.raises(ValueError):
        jacobi.solve_cs_interval(HYP2, np.array([np.inf, 0.0]), 0.5)
    with pytest.raises(ValueError):
        jacobi.solve_cs_interval(HYP2, np.zeros(3), 0.5)
    with pytest.raises(ValueError):
        jacobi.solve_cs_interval(HYP2, xi, 0.5, method="euler")


def test_cs_semigroup_composition():
    """State-transition composition: C(2h) = C^2 + A S^2, S(2h) = 2 C S."""
    rng = np.random.default_rng(23)
    for _ in range(20):
        d = int(rng.integers(1, 4))
        model = CurvatureModel("hyperbolic", d, float(rng.uniform(0.2, 4.0)))
        xi = rng.normal(size=d)
        h = float(rng.uniform(0.05, 0.5))
        A = geom.curvature_matrix(model, xi)
        C1, S1 = jacobi.solve_cs_interval(model, xi, h)
        C2, S2 = jacobi.solve_cs_interval(model, xi, 2 * h)
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
        C, S = jacobi.solve_cs_interval(model, xi, h)
        assert np.linalg.eigvalsh(C).min() >= 1.0 - 1e-12
        assert np.linalg.eigvalsh(S).min() >= h - 1e-12


def test_family_flat_is_trivial():
    """Flat family: every response matrix is I, mass matrix is I."""
    rng = np.random.default_rng(31)
    part = Partition(6)
    inc = rng.normal(size=(6, 2)) * np.sqrt(part.mesh)
    fam = jacobi.build_family(FLAT2, part, inc)
    for j in range(1, 7):
        for i in range(1, j + 1):
            assert np.allclose(fam.f[i, j], np.eye(2), atol=1e-12)
    assert np.allclose(fam.K[6], np.eye(2), atol=1e-12)
    assert normal_jacobian(fam) == pytest.approx(1.0, abs=1e-12)
    assert rho_P(fam) == pytest.approx(1.0, abs=1e-12)


def test_family_index_conventions():
    """Row 0 is the identity; f[i, j] = 0 below the diagonal."""
    rng = np.random.default_rng(37)
    part = Partition(4)
    inc = rng.normal(size=(4, 2)) * 0.5
    fam = jacobi.build_family(HYP2, part, inc)
    for j in range(5):
        assert np.allclose(fam.f[0, j], np.eye(2))
    for i in range(1, 5):
        for j in range(i):
            assert np.allclose(fam.f[i, j], 0.0)
    assert fam.f.shape == (5, 5, 2, 2)
    assert fam.K.shape == (5, 2, 2)


def test_family_single_interval_response():
    """n=1: f_1(1) = S(1) has the sinh profile orthogonal to the velocity."""
    part = Partition(1)
    inc = np.array([[1.0, 0.0]])
    fam = jacobi.build_family(HYP2, part, inc)
    want = np.diag([1.0, SINH1])
    assert np.allclose(fam.f[1, 1], want, atol=1e-12)
    # independent check on the same matrix
    _, S0, _, _ = cs_rk4(1.0, np.array([1.0, 0.0]), 1.0)
    assert np.allclose(fam.f[1, 1], S0, atol=1e-9)
    assert normal_jacobian(fam) == pytest.approx(SINH1, rel=1e-12)


def test_mass_matrix_running_definition():
    """K(s_j) = (1/n) sum_{i<=j} f_i(s_j) f_i(1)^T, cross-checked directly."""
    rng = np.random.default_rng(41)
    part = Partition(5)
    inc = rng.normal(size=(5, 3)) * np.sqrt(part.mesh)
    fam = jacobi.build_family(HYP3, part, inc)
    for j in range(1, 6):
        K = sum(fam.f[i, j] @ fam.f[i, 5].T for i in range(1, j + 1)) / 5
        assert np.allclose(fam.K[j], K, atol=1e-12)
    # endpoint mass-matrix eigenvalues sit at or above one
    assert np.linalg.eigvalsh(fam.K[5]).min() >= 1.0 - 1e-10


def test_jacobi_from_slopes_zero_and_flat():
    """Zero slopes give the zero field; flat constant slopes grow linearly."""
    rng = np.random.default_rng(43)
    part = Partition(4)
    inc = rng.normal(size=(4, 2)) * 0.5
    fam = jacobi.build_family(HYP2, part, inc)
    assert np.allclose(jacobi.jacobi_from_slopes(fam, np.zeros((4, 2))), 0.0)

    fam_flat = jacobi.build_family(FLAT2, part, inc)
    slopes = np.tile([1.0, 0.0], (4, 1))
    J = jacobi.jacobi_from_slopes(fam_flat, slopes)
    assert np.allclose(J[:, 0], part.knots, atol=1e-12)
    assert np.allclose(J[:, 1], 0.0)


def test_jacobi_from_slopes_vs_ode():
    """Broken-field knot values agree with interval-by-interval RK4."""
    rng = np.random.default_rng(47)
    part = Partition(2)
    inc = rng.normal(size=(2, 2)) * np.sqrt(part.mesh)
    slopes = rng.normal(size=(2, 2))
    fam = jacobi.build_family(HYP2, part, inc)
    got = jacobi.jacobi_from_slopes(fam, slopes)
    want = broken_jacobi_rk4(1.0, fam.velocities, slopes)
    assert np.allclose(got, want, atol=1e-9)


def test_jacobi_eval_right_slope():
    """jacobi_eval has right-derivative slopes[i] just after each knot."""
    rng = np.random.default_rng(53)
    part = Partition(4)
    inc = rng.normal(size=(4, 2)) * np.sqrt(part.mesh)
    slopes = rng.normal(size=(4, 2))
    fam = jacobi.build_family(HYP2, part, inc)
    J = jacobi.jacobi_from_slopes(fam, slopes)
    eps = 1e-7
    for i in range(4):
        s = part.knots[i]
        right = (fam.jacobi_eval(slopes, s + eps) - J[i]) / eps
        assert np.allclose(right, slopes[i], atol=1e-5)
    # and the values at the knots match the recursion output
    for i in range(1, 5):
        assert np.allclose(fam.jacobi_eval(slopes, part.knots[i]), J[i], atol=1e-12)


def test_slopes_from_knots_inverts():
    """slopes_from_knots is the inverse of jacobi_from_slopes."""
    rng = np.random.default_rng(59)
    part = Partition(8)
    inc = rng.normal(size=(8, 3)) * np.sqrt(part.mesh)
    fam = jacobi.build_family(HYP3, part, inc)
    slopes = rng.normal(size=(8, 3))
    J = jacobi.jacobi_from_slopes(fam, slopes)
    back = jacobi.slopes_from_knots(fam.C, fam.S, J)
    assert np.allclose(back, slopes, atol=1e-10)


def test_f_eval_matches_knot_table():
    """f_eval at the knots reproduces the stored f[i, j] entries."""
    rng = np.random.default_rng(61)
    part = Partition(4)
    inc = rng.normal(size=(4, 2)) * np.sqrt(part.mesh)
    fam = jacobi.build_family(HYP2, part, inc)
    for i in range(5):
        for j in range(1, 5):
            assert np.allclose(fam.f_eval(i, part.knots[j]), fam.f[i, j], atol=1e-12)
    # before its own interval the response vanishes
    assert np.allclose(fam.f_eval(3, 0.3), 0.0)


def test_normal_jacobian_floor_random():
    """sqrt(det K(1)) >= 1 for random curved families."""
    rng = np.random.default_rng(67)
    for _ in range(50):
        n = int(rng.integers(2, 17))
        part = Partition(n)
        inc = rng.normal(size=(n, 2)) * np.sqrt(part.mesh)
        fam = jacobi.build_family(HYP2, part, inc)
        assert normal_jacobian(fam) >= 1.0 - 1e-12
        assert rho_P(fam) >= 1.0 - 1e-12


def test_rho_p_closed_value():
    """n=2 with unit first increment: rho_P = det(2 S_1(1/2)) = sinh(1)."""
    part = Partition(2)
    inc = np.array([[1.0, 0.0], [0.1, 0.1]])   # second interval is not counted
    fam = jacobi.build_family(HYP2, part, inc)
    assert rho_P(fam) == pytest.approx(SINH1, rel=1e-12)
    assert jacobi.log_rho_P(fam.S, part.mesh) == pytest.approx(np.log(SINH1), rel=1e-12)


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
    """Batched suffix products match the per-path family table."""
    rng = np.random.default_rng(89)
    part = Partition(5)
    inc = rng.normal(size=(7, 5, 2)) * np.sqrt(part.mesh)
    f_end = jacobi.batch_endpoint_f(HYP2, inc, part.mesh)
    K = jacobi.batch_mass_matrix(f_end, part.mesh)
    logj = jacobi.log_normal_jacobian(K)
    for s in range(7):
        fam = jacobi.build_family(HYP2, part, inc[s])
        for i in range(1, 6):
            assert np.allclose(f_end[s, i - 1], fam.f[i, 5], atol=1e-12)
        assert np.allclose(K[s], fam.K[5], atol=1e-12)
        assert np.isclose(logj[s], 0.5 * np.linalg.slogdet(fam.K[5])[1], atol=1e-12)


def test_body_pass_extends_to_full_pass():
    """K(1) = delta C_n G(tau) C_n^T + S_n S_n^T / delta from the body's Gram
    pass reproduces the suffix pass over the whole path."""
    rng = np.random.default_rng(103)
    for model in (FLAT2, HYP2, CurvatureModel("hyperbolic", 3, 2.0)):
        for n in (1, 2, 3, 8, 32):
            part = Partition(n)
            inc = rng.normal(size=(6, n, model.dim)) * np.sqrt(part.mesh)
            G, _ = jacobi.gram_pass(model, inc[:, :-1])
            C, S = jacobi.batch_cs(model, inc[:, -1], part.mesh)
            got = jacobi.end_mass_matrix(G, C, S, part.mesh)
            want = jacobi.batch_mass_matrix(jacobi.batch_endpoint_f(model, inc, part.mesh),
                                            part.mesh)
            assert np.allclose(got, want, rtol=1e-13, atol=1e-13)


def test_batched_factors_match_batch_of_one():
    """Every batched function gives on a batch what it gives path by path."""
    rng = np.random.default_rng(107)
    model, part = CurvatureModel("hyperbolic", 3, 2.0), Partition(6)
    delta = part.mesh
    inc = rng.normal(size=(5, 6, 3)) * np.sqrt(delta)
    slopes = rng.normal(size=(5, 6, 3))
    tips = rng.normal(size=(5, 3))

    def factors(inc, slopes, tip):
        C, S = jacobi.batch_cs(model, inc, delta)
        fam = jacobi.build_family(model, part, inc)
        f_end = jacobi.batch_endpoint_f(model, inc, delta)
        G, head = jacobi.gram_pass(model, inc[..., :-1, :])
        K = jacobi.end_mass_matrix(G, C[..., -1, :, :], S[..., -1, :, :], delta)
        Cx, Sx = jacobi.batch_cs(model, tip, delta)
        J = jacobi.jacobi_from_slopes(fam, slopes)
        return [fam.f, fam.K, f_end, G, head, K,
                jacobi.log_normal_jacobian(K), jacobi.log_rho_P(S, delta),
                jacobi.log_volume_change(jacobi.pinning_gram(head, part.n), Cx, Sx), J,
                jacobi.slopes_from_knots(C, S, J)]

    batch = factors(inc, slopes, tips)
    for s in range(5):
        for got, want in zip(factors(inc[s], slopes[s], tips[s]), batch):
            assert np.allclose(got, want[s], rtol=1e-12, atol=1e-12)


def test_log_volume_change_counts_ill_conditioned_tips():
    """A tip whose sine factor has condition number above COND_LIMIT is
    counted in tip_cond_hits; ordinary tips are not."""
    model = CurvatureModel("hyperbolic", 2, 4.0)
    part = Partition(4)
    body = np.full((3, 3, 2), 0.1)
    # cond(S_x) = sinhc(sqrt(kappa) |xi|), checked on the computed matrix
    _, Sx = jacobi.batch_cs(model, np.array([1.5, 0.0]), part.mesh)
    assert np.linalg.cond(Sx) == pytest.approx(float(geom.sinhc(3.0)), rel=1e-10)
    tips = np.array([[0.5, 0.0], [20.0, 0.0], [0.0, -1.0]])   # sinhc(40) ~ 3e15
    _, head = jacobi.gram_pass(model, body)
    Cx, Sx = jacobi.batch_cs(model, tips, part.mesh)
    log_vx = jacobi.log_volume_change(jacobi.pinning_gram(head, part.n), Cx, Sx)
    assert jacobi.tip_cond_hits(model, tips) == 1
    assert np.all(np.isfinite(log_vx))
    assert jacobi.tip_cond_hits(model, tips[[0, 2]]) == 0
    assert jacobi.tip_cond_hits(FLAT2, tips) == 0


def test_volume_factors_reject_non_finite_determinants():
    """slogdet of a K(1) holding inf gives sign +1 and logdet inf (NaN off the
    diagonal); every volume factor raises NumericalError on a non-finite
    determinant as it does on a non-positive one."""
    K = np.stack([np.eye(2)] * 3)
    assert np.array_equal(jacobi.log_normal_jacobian(K), np.zeros(3))
    for entry in [(1, 0, 0), (1, 0, 1)]:
        bad = K.copy()
        bad[entry] = np.inf
        with np.errstate(invalid="ignore"), pytest.raises(NumericalError):
            jacobi.log_normal_jacobian(bad)
    with pytest.raises(NumericalError):
        jacobi.log_normal_jacobian(K * np.array([1.0, -1.0]))
    S = np.stack([np.eye(2)] * 3)[None]
    S[0, 0, 0, 0] = np.nan
    with np.errstate(invalid="ignore"), pytest.raises(NumericalError):
        jacobi.log_rho_P(S, 0.5)
    F = K.copy()
    F[2, 1, 1] = np.inf
    with np.errstate(invalid="ignore"), pytest.raises(NumericalError):
        jacobi.log_volume_change(F, K, K)


def test_det_identity_edge_cases():
    """det(S^T S) = det(I + A A^T): zero, rank-one, and rectangular cases."""
    lhs, rhs, ok = jacobi.det_identity_check(np.zeros((3, 2)))
    assert ok and np.isclose(lhs, 1.0) and np.isclose(rhs, 1.0)

    a = np.array([[0.7], [-1.2], [0.4]])
    lhs, rhs, ok = jacobi.det_identity_check(a)
    assert ok
    assert np.isclose(lhs, 1.0 + np.sum(a ** 2), rtol=1e-12)

    rng = np.random.default_rng(97)
    lhs, rhs, ok = jacobi.det_identity_check(rng.normal(size=(3, 12)))
    assert ok


def test_det_identity_random_sweep():
    """100 random blocks at the shapes the estimator produces, rtol 1e-10."""
    rng = np.random.default_rng(101)
    for _ in range(100):
        d = int(rng.integers(1, 5))
        n = int(rng.integers(2, 9))
        A = rng.normal(size=(d, (n - 1) * d))
        lhs, rhs, ok = jacobi.det_identity_check(A, rtol=1e-10)
        assert ok, (lhs, rhs)
