"""Lifts, convergence reports, integration by parts, property sweeps."""

import io
import tracemalloc

import numpy as np
import pytest

from pinpath import damped, diagnostics, geom, jacobi, paths
from pinpath.diagnostics import (ConvergenceReport, convergence_suite, ibp_check,
                                 field_direction, property_sweep)
from pinpath.geom import CurvatureModel
from pinpath.jacobi import Partition
from pinpath.measures import MASS_OBSERVABLE, CylinderObservable

from tests.oracles import (_directional_derivative, batch_cs, batch_endpoint_f,
                           batch_mass_matrix, chart_residual_trace,
                           damped_pairing_per_axis, endpoint_map_matrix, full_chart_slopes,
                           jacobi_from_slopes, lift_competitor_deficit, lift_orthogonality,
                           log_rho_P, mp_endpoint_coords, residual_divergence,
                           resolved_velocity_divergence, roll_lift, suffix_lift)

FLAT1 = CurvatureModel("flat", 1)
FLAT2 = CurvatureModel("flat", 2)
HYP1 = CurvatureModel("hyperbolic", 1, 1.0)
HYP2 = CurvatureModel("hyperbolic", 2, 1.0)
HYP3 = CurvatureModel("hyperbolic", 3, 2.5)


class LinearEnd:
    """a0 + a1 * sigma(1), flat d=1 only (duck-typed observable)."""

    def __init__(self, name, a0, a1):
        self.name = name
        self.a0, self.a1 = a0, a1
        self.times = (1.0,)

    def evaluate(self, model, points):
        return self.a0 + self.a1 * points[..., 0, 0]

    def derivative(self, model, points, vectors):
        return self.a1 * vectors[..., 0, 0]


class Recorded:
    """An observable that records the derivatives asked of it."""

    def __init__(self, obs):
        self.obs, self.name, self.times, self.rates = obs, obs.name, obs.times, []

    def evaluate(self, model, points):
        return self.obs.evaluate(model, points)

    def derivative(self, model, points, vectors):
        self.rates.append(self.obs.derivative(model, points, vectors))
        return self.rates[-1]


def endpoint_f(model, part, inc):
    """f_i(1) of paths (..., n, d), the input of the lift audits."""
    return batch_endpoint_f(*batch_cs(model, inc, part.mesh), part.mesh)


def lift(model, part, inc, x_vector):
    """The lift along paths inc (N, n, d): slopes (N, n, d), endpoint
    coordinates (N, d) and knot values (N, n+1, d) by jacobi_from_slopes."""
    slopes, coords, _ = diagnostics._lift(model, diagnostics._intervals(model, inc), x_vector)
    slopes, coords = slopes.transpose(2, 0, 1), coords.T
    return slopes, coords, jacobi_from_slopes(*batch_cs(model, inc, part.mesh), slopes)


def relative_gap(got, want, axes):
    """Per-sample largest gap relative to the largest entry of want."""
    return np.abs(got - want).max(axis=axes) / np.abs(want).max(axis=axes)


@pytest.mark.parametrize("model", [FLAT2, HYP2, HYP3], ids=["flat2", "hyp2", "hyp3"])
def test_lift_on_interval_scalars_matches_the_oracles(model):
    """The lift from one Intervals (Gram pass, vector pull-back, backward
    slope pass), for n <= 8 and per sample, within 1e-12 relative:
    - its slopes are those of the dense K(1) of the suffix products ending
      at the same endpoint coordinates (suffix_lift);
    - its endpoint coordinates are the vector's 60-digit pull-back (every
      10th sample) within 1e-13, and exactly the vector in flat space;
    - on flat2 and hyp2 the whole lift is the roll's (roll_lift).  On hyp3,
      kappa = 2.5 the rolled frame itself is off by up to 3e-10 relative on
      the far draws, while the pull-back stays within 1e-14 of 60 digits."""
    field = field_direction(model)
    for n in (1, 2, 4, 8):
        part = Partition(n)
        inc = paths.sample_increments(model, part, 200, seed=n)
        slopes, coords, _ = lift(model, part, inc, field)
        want = suffix_lift(model, part, inc, coords)
        assert np.all(relative_gap(slopes, want, (1, 2)) <= 1e-12), (model, n)
        if model.kind == "flat":
            assert np.array_equal(coords, np.broadcast_to(field, coords.shape))
        else:
            exact = np.array([mp_endpoint_coords(model.kappa, inc[i], field)
                              for i in range(0, 200, 10)])
            assert np.all(relative_gap(coords[::10], exact, 1) <= 1e-13), (model, n)
        if model is not HYP3:
            want_slopes, want_coords = roll_lift(model, part, inc, field)
            assert np.all(relative_gap(coords, want_coords, 1) <= 1e-12), (model, n)
            assert np.all(relative_gap(slopes, want_slopes, (1, 2)) <= 1e-12), (model, n)


def test_lift_flat_grows_linearly():
    """Flat lift of an endpoint vector: equal slopes, linear knot values."""
    rng = np.random.default_rng(15)
    part = Partition(4)
    inc = rng.normal(size=(1, 4, 2)) * 0.5
    vec = np.array([0.7, -0.3])
    slopes, coords, knots = lift(FLAT2, part, inc, vec)
    assert np.allclose(coords[0], vec)
    assert np.allclose(slopes[0], np.tile(vec, (4, 1)), atol=1e-12)
    assert np.allclose(knots[0], np.outer(part.knots, vec), atol=1e-12)
    assert np.max(np.abs(knots[0, -1] - coords[0])) < 1e-14


def test_batched_lift_is_the_minimal_norm_solution():
    """The lift's slopes are the least-norm solution of the endpoint map
    applied to the slopes = the endpoint coordinates, path by path."""
    part = Partition(5)
    inc = paths.sample_increments(HYP2, part, 6, seed=3)
    slopes, coords, _ = lift(HYP2, part, inc, field_direction(HYP2))
    f_end = endpoint_f(HYP2, part, inc)
    for i in range(6):
        want = np.linalg.lstsq(endpoint_map_matrix(f_end[i]), coords[i], rcond=None)[0]
        assert np.allclose(slopes[i].ravel(), want, rtol=1e-12, atol=1e-12)


def test_lift_zero_field():
    """The zero field lifts to the zero path-space vector."""
    part = Partition(3)
    inc = paths.sample_increments(HYP2, part, 1, seed=6)
    slopes, coords, knots = lift(HYP2, part, inc, np.zeros(HYP2.ambient_dim))
    assert np.allclose(slopes, 0.0)
    assert np.allclose(knots, 0.0)
    assert np.max(np.abs(knots[:, -1] - coords)) == 0.0


def test_lift_endpoint_residual_random():
    """Lift hits the endpoint coordinates to 1e-10 on 200 curved paths."""
    part = Partition(8)
    inc = paths.sample_increments(HYP2, part, 200, seed=0)
    _, coords, knots = lift(HYP2, part, inc, field_direction(HYP2))
    assert np.max(np.abs(knots[:, -1] - coords)) < 1e-10


def test_lift_orthogonality_flat_two_intervals():
    """Flat n=2, d=1: null space is span{(1,-1)}, lift has equal slopes."""
    part = Partition(2)
    inc = np.array([[0.4], [-0.1]])
    slopes = lift(FLAT1, part, inc[None], np.array([1.0]))[0][0]
    assert np.allclose(slopes, 1.0)
    out = lift_orthogonality(endpoint_f(FLAT1, part, inc), slopes)
    assert out["null_dim"] == 1
    basis = out["basis"][:, 0]
    assert np.allclose(np.abs(basis), np.array([1.0, 1.0]) / np.sqrt(2))
    assert basis[0] * basis[1] < 0
    assert out["residual"] < 1e-14


def test_lift_orthogonality_and_minimality_random():
    """Orthogonal to the null space (1e-8) and beats all competitors."""
    part = Partition(6)
    inc = paths.sample_increments(HYP2, part, 30, seed=1)
    slopes = lift(HYP2, part, inc, field_direction(HYP2))[0]
    f_end = endpoint_f(HYP2, part, inc)
    for i in range(30):
        out = lift_orthogonality(f_end[i], slopes[i])
        assert out["null_dim"] == (part.n - 1) * 2
        assert out["residual"] < 1e-8
        deficit = lift_competitor_deficit(f_end[i], slopes[i], count=50, seed=i)
        assert deficit >= -1e-10


def knot_sups_case(rng, d, n, B):
    """Intervals of random hyperbolic paths (kappa = 2, increments (B, n, d),
    one of them zero) and their dense oracle solutions C, S (B, n, d, d)."""
    model, delta = CurvatureModel("hyperbolic", d, 2.0), 1.0 / n
    inc = rng.normal(size=(B, n, d)) * np.sqrt(delta)
    inc[0, -1] = 0.0
    return diagnostics._intervals(model, inc), *batch_cs(model, inc, delta)


def test_knot_sups_match_prefix_suffix_passes():
    """The samples-last forward stack and backward [c | I] pass of
    convergence_suite give, within 1e-12 relative, the sups over knots j of
    |f_i(s_j) - ratio[i, j] I| (i <= j), |K(s_j) - k[j] I| and
    |K(s_j) c - p[j] x|, with f_i(s_j) taken from the dense oracle suffix
    pass over [0, s_j] and K(s_j) = delta sum_{i<=j} f_i(s_j) f_i(1)^T; at
    (d, n) = (3, 6), (1, 5) and (2, 1)."""
    rng = np.random.default_rng(19)
    for d, n in ((3, 6), (1, 5), (2, 1)):
        B, delta = 5, 1.0 / n
        iv, C, S = knot_sups_case(rng, d, n, B)
        coeff, coords = rng.normal(size=(B, d)), rng.normal(size=(B, d))
        ratio, k, p = rng.uniform(0.5, 2.0, size=(n + 1, n + 1)), rng.uniform(size=n + 1), \
            rng.uniform(size=n + 1)
        f_end = batch_endpoint_f(C, S, delta)
        got = diagnostics._knot_sups(iv, coeff.T, coords.T, ratio, k, p)
        want = {name: np.zeros(B) for name in ("f", "K", "J")}
        for j in range(1, n + 1):
            f_j = batch_endpoint_f(C[:, :j], S[:, :j], delta)     # f_i(s_j), i <= j
            K = delta * np.einsum("niab,nicb->nac", f_j, f_end[:, :j])
            gap_f = np.max([np.linalg.norm(f_j[:, i] - ratio[i + 1, j] * np.eye(d), axis=(1, 2))
                            for i in range(j)], axis=0)
            gaps = {"f": gap_f, "K": np.linalg.norm(K - k[j] * np.eye(d), axis=(1, 2)),
                    "J": np.linalg.norm(np.einsum("nab,nb->na", K, coeff) - p[j] * coords, axis=1)}
            for name in want:
                want[name] = np.maximum(want[name], gaps[name])
        for name in want:
            assert np.allclose(got[name], want[name], rtol=1e-12, atol=0.0), (name, d, n)


def test_knot_sups_J_is_the_lift_at_interior_knots():
    """The J statistic is the sup over knots of |J(s_j) - p[j] x| for the
    lift's knot values J(s_j) = K(s_j) c, built here by jacobi_from_slopes
    from the lift slopes f_i(1)^T c on the dense oracle solutions.  With
    x = K(1) c / p[n] the gap at s_n = 1 vanishes, so the sup comes from
    knots j < n, where K(s_j) is not symmetric; at (d, n) = (3, 6) and
    (1, 5)."""
    rng = np.random.default_rng(29)
    for d, n in ((3, 6), (1, 5)):
        B, delta = 5, 1.0 / n
        iv, C, S = knot_sups_case(rng, d, n, B)
        coeff = rng.normal(size=(B, d))
        ratio, k, p = rng.uniform(0.5, 2.0, size=(n + 1, n + 1)), rng.uniform(size=n + 1), \
            rng.uniform(0.5, 1.0, size=n + 1)
        f_end = batch_endpoint_f(C, S, delta)
        coords = np.einsum("nab,nb->na", batch_mass_matrix(f_end, delta), coeff) / p[n]
        lift = jacobi_from_slopes(C, S, np.einsum("niab,na->nib", f_end, coeff))
        gaps = np.linalg.norm(lift[:, 1:] - p[1:, None] * coords[:, None], axis=-1)  # j = 1..n
        assert np.all(gaps[:, -1] < 1e-12 * gaps.max(axis=1))
        got = diagnostics._knot_sups(iv, coeff.T, coords.T, ratio, k, p)["J"]
        assert np.allclose(got, gaps.max(axis=1), rtol=1e-12, atol=0.0), (d, n)


@pytest.mark.parametrize("model", [FLAT2, HYP2, HYP3], ids=["flat2", "hyp2", "hyp3"])
def test_knot_field_is_the_interval_recursion(model):
    """_knot_field, one forward pass of Intervals.cosine and .sine over the
    lift's slopes, agrees within 1e-13 of each path's largest knot value
    with jacobi_from_slopes on the dense oracle solutions, for n in
    {1, 4, 8}: 0 at s = 0, and at s = 1 the endpoint coordinates of X,
    which the lift's field reaches."""
    for n in (1, 4, 8):
        part = Partition(n)
        inc = paths.sample_increments(model, part, 32, seed=n)
        iv = diagnostics._intervals(model, inc)
        slopes, coords, _ = diagnostics._lift(model, iv, field_direction(model))
        got = diagnostics._knot_field(iv, slopes).transpose(2, 0, 1)
        want = jacobi_from_slopes(*batch_cs(model, inc, part.mesh), slopes.transpose(2, 0, 1))
        assert got.shape == want.shape == (32, n + 1, model.dim)
        assert np.all(got[:, 0] == 0.0)
        assert np.all(relative_gap(got, want, (1, 2)) <= 1e-13), (model, n)
        assert np.all(relative_gap(got[:, -1], coords.T, 1) <= 1e-12), (model, n)


def test_lift_back_runs_sine_only_on_the_rows_read(monkeypatch):
    """_lift_back with last = i returns rows 0 to i of the full back pass's
    slopes bit for bit, with the same coordinates and coefficients, and runs
    Intervals.sine on those i + 1 rows only; so at n=4, d=2 the divergence,
    which reads rows <= i of the shifts of increment i, runs 10 sine
    actions, not 16."""
    n, d, N = 4, HYP2.dim, 64
    inc = paths.sample_increments(HYP2, Partition(n), N, seed=4)
    field = field_direction(HYP2)
    iv = diagnostics._intervals(HYP2, inc)
    rows = [(iv, j) for j in range(n)]
    G, vec = diagnostics._lift_forward(HYP2, rows, np.zeros((d, d, N)),
                                       np.repeat(field[:, None], N, axis=1))
    full = diagnostics._lift_back(rows, G, vec[:d])
    sines, sine = [], jacobi.Intervals.sine
    monkeypatch.setattr(jacobi.Intervals, "sine", lambda *a: sines.append(1) or sine(*a))
    for last in range(n):
        sines.clear()
        got = diagnostics._lift_back(rows, G, vec[:d], last=last)
        assert got[0].shape == (last + 1, d, N)
        assert got[0].tobytes() == full[0][:last + 1].tobytes()
        assert got[1].tobytes() == full[1].tobytes() and got[2].tobytes() == full[2].tobytes()
        assert len(sines) == last + 1
    M_inv = diagnostics._chart_velocity(HYP2, inc, field)[4]
    sines.clear()
    diagnostics._divergence(HYP2, inc, M_inv, field)
    assert len(sines) == n * (n + 1) // 2


def test_fit_slope_recovers_exact_rate():
    """Least-squares slope on an exact n^{-1/2} curve is 0.5."""
    ns = [8, 16, 32, 64, 128]
    vals = [n ** -0.5 for n in ns]
    assert diagnostics._fit_slope(ns, vals) == pytest.approx(0.5, abs=1e-12)
    assert diagnostics._fit_slope(ns, np.zeros(5)) == float("inf")
    assert np.isnan(diagnostics._fit_slope([8, 16, 32], [1, 2, 3]))


def test_report_csv_layout():
    """Report CSV: schema line, header, one row per n, repr round-trip."""
    rep = ConvergenceReport("f", [8, 16, 32, 64], np.array([1, 2, 3, 4.0]) / 100,
                            np.array([2, 3, 4, 5.0]) / 100,
                            np.array([3, 4, 5, 6.0]) / 100,
                            np.array([2, 3, 4, 5.0]) / 100, 0.5, True)
    buf = io.StringIO()
    rep.to_csv(buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "schema=1"
    assert lines[1] == "n,q05,q50,q95,mean,slope,pass"
    assert len(lines) == 6
    row = lines[2].split(",")
    assert int(row[0]) == 8 and float(row[1]) == 0.01 and row[6] == "True"
    assert "slope=0.500" in rep.table()


def test_convergence_flat_is_identically_zero():
    """Flat model: every statistic vanishes, reports pass with slope inf."""
    reps = convergence_suite(FLAT2, [4, 8, 16, 32], samples=20, seed=0)
    assert set(reps) == {"f", "K", "J", "adjoint"}
    for rep in reps.values():
        assert rep.notes["identically_zero"]
        assert rep.passed
        assert rep.slope == float("inf")
        assert np.all(rep.q50 <= 1e-13)


def test_convergence_hyperbolic_medians_fall():
    """Curved statistics decrease strictly in n on the canonical window."""
    reps = convergence_suite(HYP2, [8, 16, 32, 64, 128], samples=200, seed=0)
    for name, rep in reps.items():
        assert np.all(np.diff(rep.q50) < 0), name
        assert rep.q50[-1] < 0.75 * rep.q50[0], name
        assert rep.passed or name in ("K", "J"), name   # quarter rule is tighter
    assert 0.4 <= reps["f"].slope <= 1.1
    single = convergence_suite(HYP2, [8, 16, 32, 64], samples=50, seed=2,
                               statistics=("f",))["f"]
    assert np.all(np.diff(single.q50) < 0)


def test_adjoint_gap_vanishes_for_zero_field():
    """X = 0: both martingale pairings are exactly zero on every sample."""
    rep = convergence_suite(HYP2, [4, 8], samples=10, seed=0, statistics=("adjoint",),
                            x_vector=np.zeros(HYP2.ambient_dim))["adjoint"]
    assert np.all(rep.q50 == 0.0)
    assert np.all(rep.q95 == 0.0)


def test_ibp_flat_linear_closed_form():
    """Flat d=1 linear f, g: both sides estimate a1 * b0 = -0.14."""
    f = LinearEnd("f_lin", 0.3, 0.7)
    g = LinearEnd("g_lin", -0.2, 1.1)
    res = ibp_check(FLAT1, Partition(2), f, g, n_samples=4000, seed=5)
    want = f.a1 * g.a0
    assert res.passed
    assert abs(res.lhs_mean - want) < 3 * res.lhs_stderr
    assert abs(res.rhs_mean - want) < 3 * res.rhs_stderr
    assert res.n_aborted == 0
    assert res.scalar_gap["median_abs_gap"] < 1e-8


def test_ibp_constant_f_is_degenerate():
    """f = 1 kills the left side exactly; the pairing still balances."""
    g = CylinderObservable("exp_end", (1.0,), 1.0, "exp_radial2",
                           {"times": [1.0], "scales": [2.0]})
    res = ibp_check(FLAT2, Partition(2), MASS_OBSERVABLE, g,
                    n_samples=2000, seed=6)
    assert res.lhs_mean == 0.0
    assert res.passed


def test_ibp_curved_small():
    """Curved integration by parts balances at module scale."""
    f = CylinderObservable("exp_r2_end", (1.0,), 1.0, "exp_radial2",
                           {"times": [1.0], "scales": [2.0]})
    g = CylinderObservable("exp_r2_mid_end", (0.5, 1.0), 1.0, "exp_radial2",
                           {"times": [0.5, 1.0], "scales": [4.0, 4.0]})
    res = ibp_check(HYP2, Partition(4), f, g, n_samples=4000, seed=0)
    assert res.passed
    assert res.n_used + res.n_aborted == 4000
    assert res.scalar_gap["median_abs_gap"] < 1e-4
    assert "pass=True" in res.summary()


def test_ibp_rolls_without_finite_difference_columns(monkeypatch):
    """ibp_check at n=4, d=2 rolls nothing and moves no frame: the knots
    and the fields at them come from point and vector boosts, Xf and Xg
    from the lift's knot field and gradient_gap's pairing from the damped
    field, all exact, so there is no paths.roll_batch and no geom.exp_frame
    call.  The chart matrix comes from paths.chart_slopes and the lift from
    the interval scalars, and neither rolls (the check rolled 3 batches when
    Xf, Xg and the pairing were central differences, 32 when the lift read
    the rolled frame, and a finite-difference M made 309)."""
    calls, moves = [], []
    roll, move = paths.roll_batch, geom.exp_frame
    monkeypatch.setattr(paths, "roll_batch", lambda *a, **k: calls.append(1) or roll(*a, **k))
    monkeypatch.setattr(geom, "exp_frame", lambda *a, **k: moves.append(1) or move(*a, **k))
    f = CylinderObservable("exp_r2_end", (1.0,), 1.0, "exp_radial2",
                           {"times": [1.0], "scales": [2.0]})
    ibp_check(HYP2, Partition(4), f, MASS_OBSERVABLE, n_samples=64, seed=0)
    assert len(calls) == 0
    assert len(moves) == 0


@pytest.mark.parametrize("model", [HYP2, FLAT2, HYP3], ids=["hyp2", "flat2", "hyp3"])
def test_ibp_derivatives_match_the_finite_difference_oracle(model):
    """ibp_check's Xf and Xg, exact derivatives along the chart velocity V
    from the lift's knot field, agree within 1e-8 of max |Xf| (and of
    max |Xg|) with central differences of rolled paths along V
    (_directional_derivative, step FD_STEP), at n=4 and 200 samples, for
    the `ibp` command's observables (hyp3 is kappa = 2.5)."""
    part, N = Partition(4), 200
    f = Recorded(CylinderObservable("exp_r2_end", (1.0,), 1.0, "exp_radial2",
                                    {"times": [1.0], "scales": [2.0]}))
    g = Recorded(CylinderObservable("exp_r2_mid_end", (0.5, 1.0), 1.0, "exp_radial2",
                                    {"times": [0.5, 1.0], "scales": [4.0, 4.0]}))
    res = ibp_check(model, part, f, g, n_samples=N, seed=0)
    assert res.n_aborted == 0
    inc = paths.sample_increments(model, part, N, seed=0)
    velocity = diagnostics._chart_velocity(model, inc, field_direction(model))[0]
    want = _directional_derivative(model, part, inc, velocity.T.reshape(N, part.n, model.dim),
                                   (f.obs, g.obs))
    for got, ref in zip((f.rates[0], g.rates[0]), want):
        assert got.shape == ref.shape == (N,)
        assert np.abs(ref).max() > 0.1
        assert np.all(np.abs(got - ref) <= 1e-8 * np.abs(ref).max())


def test_ibp_check_inverts_and_solves_no_chart_matrix(monkeypatch):
    """ibp_check takes V and M^{-1} by block forward substitution and the
    lift's K(1) on the Cholesky factors of jacobi._positive_solve: it calls
    neither np.linalg.inv nor np.linalg.solve, and solves each chart
    velocity once (one _chart_velocity call)."""
    calls, velocity = [], []
    chart_velocity = diagnostics._chart_velocity
    for name in ("inv", "solve"):
        monkeypatch.setattr(np.linalg, name, lambda *a, name=name, **k: calls.append(name))
    monkeypatch.setattr(diagnostics, "_chart_velocity",
                        lambda *a: velocity.append(1) or chart_velocity(*a))
    f = CylinderObservable("exp_r2_end", (1.0,), 1.0, "exp_radial2",
                           {"times": [1.0], "scales": [2.0]})
    ibp_check(HYP2, Partition(4), f, MASS_OBSERVABLE, n_samples=64, seed=0)
    assert calls == []
    assert velocity == [1]


@pytest.mark.parametrize("model", [FLAT2, HYP2, HYP3], ids=["flat2", "hyp2", "hyp3"])
def test_chart_matrix_is_the_full_recursion_bit_for_bit(model):
    """chart_slopes starts each column at the first interval it varies; M
    (the identity stack), M of the identity stack with its columns in
    reverse order (the state then spans every column from the first
    interval on) and M v of one direction field agree with the recursion
    over every column from the first interval (full_chart_slopes) bit for
    bit, signs of zeros included, for n in {1, 2, 4, 8}."""
    for n in (1, 2, 4, 8):
        d = model.dim
        inc = paths.sample_increments(model, Partition(n), 64, seed=n)
        iv = diagnostics._intervals(model, inc)
        eye = np.eye(n * d).reshape(n, d, n * d, 1)
        field = np.random.default_rng(n).normal(size=(n, d, 64))
        for v in (eye, eye[:, :, ::-1], field):
            got, want = paths.chart_slopes(model, iv, v), full_chart_slopes(model, iv, v)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes(), (n, v.shape)


def test_median_is_numpys_bit_for_bit():
    """diagnostics._median equals np.median bit for bit at sizes 1, 2, 3 and
    256, with ties and with a NaN."""
    rng = np.random.default_rng(233)
    for size in (1, 2, 3, 256):
        x = np.abs(rng.standard_cauchy(size))
        ties = np.round(x * 2.0) / 3.0                     # many equal values
        for values in (x, ties, np.full(size, 0.1)):
            got, want = diagnostics._median(values), float(np.median(values))
            assert np.float64(got).tobytes() == np.float64(want).tobytes(), size
        x[size // 2] = np.nan
        assert np.isnan(diagnostics._median(x)) and np.isnan(np.median(x))


def test_quantile_is_numpys_bit_for_bit():
    """diagnostics._quantile equals np.quantile bit for bit at q in
    {0.05, 0.5, 0.95} and sizes 1, 2, 3, 20 and 256, with ties and with a
    NaN."""
    rng = np.random.default_rng(19)
    for size in (1, 2, 3, 20, 256):
        x = np.abs(rng.standard_cauchy(size))
        ties = np.round(x * 2.0) / 3.0                     # many equal values
        for q in (0.05, 0.5, 0.95):
            for values in (x, ties, np.full(size, 0.1)):
                got, want = diagnostics._quantile(values, q), float(np.quantile(values, q))
                assert np.float64(got).tobytes() == np.float64(want).tobytes(), (size, q)
        x[size // 2] = np.nan
        for q in (0.05, 0.5, 0.95):
            assert np.isnan(diagnostics._quantile(x, q)) and np.isnan(np.quantile(x, q))


@pytest.mark.parametrize("model", [FLAT2, HYP1, HYP2, HYP3],
                         ids=["flat2", "hyp1", "hyp2", "hyp3"])
def test_divergence_matches_the_resolved_velocity_oracle(model):
    """div V = tr(M^{-1} dk), from differences of the lift alone, agrees
    within 1e-6 of max |div| with central differences of V re-solved at
    every shifted point, which never drops the chart part of k - M V, for
    n <= 8 (hyp3 is kappa = 2.5)."""
    field = field_direction(model)
    for n in (1, 2, 4, 8):
        inc = paths.sample_increments(model, Partition(n), 64, seed=n)
        M_inv = diagnostics._chart_velocity(model, inc, field)[4]
        got = diagnostics._divergence(model, inc, M_inv, field)
        want = resolved_velocity_divergence(model, Partition(n), inc, field,
                                            diagnostics.DIV_STEP)
        assert np.all(np.abs(got - want) <= 1e-6 * np.abs(want).max()), (model, n)


def _divergence_batches(model, n):
    """64 draws at n intervals with one increment exactly zero (the xi = 0
    branch of Intervals), and two batches of 1 taken from them."""
    inc = paths.sample_increments(model, Partition(n), 64, seed=n)
    inc[3, n // 2] = 0.0
    return inc, inc[3:4], inc[5:6]


@pytest.mark.parametrize("model", [FLAT1, FLAT2, HYP1, HYP2, HYP3],
                         ids=["flat1", "flat2", "hyp1", "hyp2", "hyp3"])
def test_divergence_matches_the_per_residual_oracle(model):
    """The grouped divergence tr(M^{-1} dk) (one pass per varied increment,
    its 2d shifts stacked, each starting from the base's state at that
    knot, only rows <= i of dk contracted) is within 1e-13 of max |div| of
    the per-residual reruns of the lift (residual_divergence) for n in
    {1, 2, 4, 8}, also on a batch of 1 and with an increment exactly zero;
    on flat space both are 0."""
    field = field_direction(model)
    for n in (1, 2, 4, 8):
        for batch in _divergence_batches(model, n):
            M_inv = diagnostics._chart_velocity(model, batch, field)[4]
            got = diagnostics._divergence(model, batch, M_inv, field)
            want = residual_divergence(model, batch, M_inv, field, diagnostics.DIV_STEP)
            assert got.shape == want.shape == (len(batch),)
            assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want).max()), (model, n)


@pytest.mark.parametrize("model", [FLAT1, FLAT2, HYP1, HYP2, CurvatureModel("hyperbolic", 3, 1.0),
                                   HYP3],
                         ids=["flat1", "flat2", "hyp1", "hyp2", "hyp3-kappa1", "hyp3"])
def test_chart_residual_adds_nothing_to_the_divergence(model):
    """The chart part tr(M^{-1} d(M V)) of the residual k - M V, V held
    (chart_residual_trace, from per-shift chart_slopes reruns), is what the
    divergence drops: a shift of increment i moves M V only on intervals
    >= i, M^{-1}'s diagonal blocks are I / n, and the (i, i) block
    n Omega_i e_a has zero trace since Omega_i is antisymmetric.  It is
    exactly 0 on flat space and at d = 1, and at most 1e-12 of max |div|
    on the curved models at d >= 2, for n in {1, 2, 4, 8}."""
    field = field_direction(model)
    exact = model.kind == "flat" or model.dim == 1
    for n in (1, 2, 4, 8):
        for batch in _divergence_batches(model, n):
            velocity, _, _, _, M_inv = diagnostics._chart_velocity(model, batch, field)
            chart = chart_residual_trace(model, batch, velocity, M_inv, diagnostics.DIV_STEP)
            div = diagnostics._divergence(model, batch, M_inv, field)
            assert chart.shape == div.shape == (len(batch),)
            bound = 0.0 if exact else 1e-12 * np.abs(div).max()
            assert np.all(np.abs(chart) <= bound), (model, n, np.abs(chart).max())


def test_divergence_reuses_prefixes_and_stays_small(monkeypatch):
    """At n=4, d=2 the divergence makes at most n(n+3)/2 = 14 gram_step
    calls (n base steps and n - i steps for the shifts of increment i; the
    per-residual reruns made 2 n^2 d = 64) and runs no chart recursion
    (no paths.chart_slopes call: tr(M^{-1} dk) needs the lift alone), and
    at N=2000 its traced allocations peak under 4 MB, so the shifts of one
    increment at a time are stacked, not all 2 n d of them."""
    inc = paths.sample_increments(HYP2, Partition(4), 2000, seed=0)
    field = field_direction(HYP2)
    M_inv = diagnostics._chart_velocity(HYP2, inc, field)[4]
    calls, charts, step, slopes = [], [], jacobi.gram_step, paths.chart_slopes
    monkeypatch.setattr(jacobi, "gram_step", lambda *a: calls.append(1) or step(*a))
    monkeypatch.setattr(paths, "chart_slopes", lambda *a: charts.append(1) or slopes(*a))
    tracemalloc.start()
    try:
        div = diagnostics._divergence(HYP2, inc, M_inv, field)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert div.shape == (2000,) and np.all(np.isfinite(div))
    assert len(calls) <= 14
    assert charts == []
    assert peak < 4e6


def test_condition_screen_keeps_the_svd_mask(monkeypatch):
    """The Frobenius screen keeps exactly the samples with
    np.linalg.cond(M) <= CHART_COND_LIMIT, and runs the SVD only on those
    whose bound |M|_F |M^{-1}|_F exceeds half the limit; with the limit at
    the median condition number both branches decide samples."""
    inc = paths.sample_increments(HYP3, Partition(8), 400, seed=0)
    _, _, _, M, M_inv = diagnostics._chart_velocity(HYP3, inc, field_direction(HYP3))
    cond = np.linalg.cond(M.transpose(2, 0, 1))
    limit = float(np.median(cond))
    monkeypatch.setattr(diagnostics, "CHART_COND_LIMIT", limit)
    svd_sizes, cond_fn = [], np.linalg.cond
    monkeypatch.setattr(np.linalg, "cond", lambda A: svd_sizes.append(len(A)) or cond_fn(A))
    keep = diagnostics._well_conditioned(M, M_inv)
    assert np.array_equal(keep, cond <= limit)
    assert 0 < keep.sum() < keep.size
    assert len(svd_sizes) == 1 and 0 < svd_sizes[0] < keep.size


def test_gradient_compare_reports():
    """ibp_check's chart-vs-damped gradient report, on its first 32 kept
    samples, returns finite, small medians."""
    obs = CylinderObservable("exp_end", (1.0,), 1.0, "exp_radial2",
                             {"times": [1.0], "scales": [2.0]})
    out = ibp_check(HYP2, Partition(4), MASS_OBSERVABLE, obs, n_samples=64, seed=0).gradient_gap
    assert out["n_samples"] == 32
    assert np.isfinite(out["median_abs_gap"])
    assert out["median_abs_gap"] < 0.05 * out["median_abs_chart"]


def test_gradient_gap_pairing_matches_per_axis_differences():
    """_gradient_gap's pairing, one central difference along the damped field
    with every knot of f moved at once, agrees per sample within 1e-7
    relative with the per-axis differences of one knot at a time
    (tests/oracles.py), for an observable at s = 0, 1/2 and 1."""
    part = Partition(4)
    obs = CylinderObservable("exp_three", (0.0, 0.5, 1.0), 1.0, "exp_radial2",
                             {"times": [0.0, 0.5, 1.0], "scales": [1.0, 2.0, 3.0]})
    for model in (FLAT2, HYP2, CurvatureModel("hyperbolic", 3, 2.5)):
        inc = paths.sample_increments(model, part, 12, seed=6)
        points, frames = paths.roll_batch(model, inc)
        coords = lift(model, part, inc, field_direction(model))[1]
        k_prof = damped.k_profile(damped.ric_scalar(model), part.knots)
        field = (k_prof / k_prof[-1])[None, :, None] * coords[:, None, :]
        want = damped_pairing_per_axis(model, part, obs, points, frames, field,
                                       diagnostics.FD_STEP)
        assert np.all(np.abs(want) > 0)
        for i in range(want.size):
            row = slice(i, i + 1)
            gap = diagnostics._gradient_gap(model, part, obs, want[row], inc[row],
                                            coords[row])["median_abs_gap"]
            assert gap <= 1e-7 * abs(want[i]), (model, i)


def test_property_sweep_clean():
    """No violations of the pathwise inequalities at module scale."""
    models = [HYP2, CurvatureModel("hyperbolic", 3, 2.0), FLAT2]
    rep = property_sweep(models, 60, n=16, seed=0)
    assert rep.total_violations == 0
    assert rep.n_paths == 60
    assert "violations=0" in rep.summary()
    # worst margins are recorded for every check
    assert set(rep.worst) == {"mass_eig", "normal_jacobian", "slope_det",
                              "response_bound", "volume_bound"}
    assert list(rep.stage_s) == list(diagnostics.PROPS_STAGES)


def test_response_bound_margin_matches_svd_norms(monkeypatch):
    """The response audit's margin, from the interval scalars alone (no
    eigvalsh), equals the margin built from the SVD norms of the dense oracle
    C, S - hI and C - I within 1e-13 relative to |C| >= 1 (the margins
    themselves cancel down to roundoff), on props-sized paths of flat and
    hyperbolic d = 1-3."""
    part = Partition(64)
    h = part.mesh
    calls, eigvalsh = [], np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda X: calls.append(1) or eigvalsh(X))
    for d in (1, 2, 3):
        for model in (CurvatureModel("flat", d), CurvatureModel("hyperbolic", d, 1.0),
                      CurvatureModel("hyperbolic", d, 2.5)):
            inc = paths.sample_increments(model, part, 30, seed=d)
            C, S = batch_cs(model, inc, h)
            big_n, eye = model.curvature_bound, np.eye(d)
            speed = np.linalg.norm(inc / h, axis=-1)
            grow = np.exp(big_n * speed ** 2 * h ** 2 / 2.0)
            norm = lambda X: np.linalg.norm(X, 2, axis=(-2, -1))
            want = np.minimum.reduce([
                np.cosh(np.sqrt(big_n) * speed * h) - norm(C),
                big_n * speed ** 2 * h ** 3 / 6.0 * grow - norm(S - h * eye),
                big_n * speed ** 2 * h ** 2 / 2.0 * grow - norm(C - eye),
            ]).min(axis=-1)
            calls.clear()
            got = diagnostics._response_bound_margin(inc, diagnostics._intervals(model, inc), h,
                                                     big_n)
            assert len(calls) == 0
            assert np.all(np.abs(got - want) <= 1e-13 * norm(C).max(axis=-1)), (model, d)


def test_slope_det_matches_the_dense_log_rho_P():
    """property_sweep's slope_det margin, rho_P - 1 with log rho_P =
    (d-1)/2 sum_{i<n} log sinhc^2 a_i, is within 1e-13 of the dense oracle
    log_rho_P of the same draws (the worst path of each model), for n = 1, 2
    and 64 and kappa up to 2.5; at n = 1 there is no body and rho_P = 1."""
    for d in (1, 2, 3):
        for kappa in (1.0, 2.5):
            model = CurvatureModel("hyperbolic", d, kappa)
            for n in (1, 2, 64):
                part = Partition(n)
                inc = paths.sample_increments(model, part, 40, seed=0)
                want = np.exp(log_rho_P(batch_cs(model, inc, part.mesh)[1], part.mesh)) - 1.0
                got = property_sweep([model], 40, n=n, seed=0).worst["slope_det"]
                assert abs(got - want.min()) <= 1e-13, (d, kappa, n)
