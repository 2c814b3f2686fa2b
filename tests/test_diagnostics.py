"""Lifts, convergence reports, integration by parts, property sweeps."""

import io

import numpy as np
import pytest

from pinpath import diagnostics, geom, jacobi, paths
from pinpath.diagnostics import (ConvergenceReport, convergence_suite,
                                 gradient_compare,
                                 ibp_check, lift_build, lift_competitor_deficit,
                                 lift_orthogonality, projected_constant_field,
                                 property_sweep, zero_field)
from pinpath.geom import CurvatureModel
from pinpath.jacobi import Partition
from pinpath.measures import MASS_OBSERVABLE, CylinderObservable

FLAT1 = CurvatureModel("flat", 1)
FLAT2 = CurvatureModel("flat", 2)
HYP2 = CurvatureModel("hyperbolic", 2, 1.0)


class LinearEnd:
    """a0 + a1 * sigma(1), flat d=1 only (duck-typed observable)."""

    def __init__(self, name, a0, a1):
        self.name = name
        self.a0, self.a1 = a0, a1
        self.times = (1.0,)

    def evaluate(self, model, partition, points):
        return self.a0 + self.a1 * points[..., -1, 0]


def test_lift_flat_grows_linearly():
    """Flat lift of an endpoint vector: equal slopes, linear knot values."""
    rng = np.random.default_rng(15)
    part = Partition(4)
    inc = rng.normal(size=(4, 2)) * 0.5
    path = paths.roll(FLAT2, part, inc)
    fam = jacobi.build_family(FLAT2, part, inc)
    vec = np.array([0.7, -0.3])
    lift = lift_build(path, fam, vec)
    assert np.allclose(lift.endpoint_coords, vec)
    assert np.allclose(lift.slopes, np.tile(vec, (4, 1)), atol=1e-12)
    assert np.allclose(lift.knot_values, np.outer(part.knots, vec), atol=1e-12)
    assert lift.endpoint_residual < 1e-14


def test_batched_lift_matches_lift_build():
    """The batched lift used by IBP equals lift_build path by path."""
    part = Partition(5)
    inc = paths.sample_increments(HYP2, part, 6, seed=3)
    field = projected_constant_field(HYP2)
    slopes, coords, _, _ = diagnostics._batched_lift_slopes(HYP2, part, inc, field)
    for i in range(6):
        lift = lift_build(paths.roll(HYP2, part, inc[i]),
                          jacobi.build_family(HYP2, part, inc[i]), field)
        assert np.allclose(lift.slopes, slopes[i], rtol=1e-12, atol=1e-12)
        assert np.allclose(lift.endpoint_coords, coords[i], rtol=1e-12, atol=1e-14)


def test_lift_zero_field():
    """The zero field lifts to the zero path-space vector."""
    part = Partition(3)
    inc = paths.sample_increments(HYP2, part, 1, seed=6)[0]
    path = paths.roll(HYP2, part, inc)
    fam = jacobi.build_family(HYP2, part, inc)
    lift = lift_build(path, fam, zero_field(HYP2))
    assert np.allclose(lift.slopes, 0.0)
    assert np.allclose(lift.knot_values, 0.0)
    assert lift.endpoint_residual == 0.0


def test_lift_endpoint_residual_random():
    """Lift hits the endpoint coordinates to 1e-10 on 200 curved paths."""
    part = Partition(8)
    inc = paths.sample_increments(HYP2, part, 200, seed=0)
    field = projected_constant_field(HYP2)
    worst = 0.0
    for i in range(200):
        path = paths.roll(HYP2, part, inc[i])
        fam = jacobi.build_family(HYP2, part, inc[i])
        lift = lift_build(path, fam, field)
        worst = max(worst, lift.endpoint_residual)
    assert worst < 1e-10


def test_lift_orthogonality_flat_two_intervals():
    """Flat n=2, d=1: null space is span{(1,-1)}, lift has equal slopes."""
    part = Partition(2)
    inc = np.array([[0.4], [-0.1]])
    path = paths.roll(FLAT1, part, inc)
    fam = jacobi.build_family(FLAT1, part, inc)
    lift = lift_build(path, fam, np.array([1.0]))
    assert np.allclose(lift.slopes, 1.0)
    out = lift_orthogonality(fam, lift.slopes)
    assert out["null_dim"] == 1
    basis = out["basis"][:, 0]
    assert np.allclose(np.abs(basis), np.array([1.0, 1.0]) / np.sqrt(2))
    assert basis[0] * basis[1] < 0
    assert out["residual"] < 1e-14


def test_lift_orthogonality_and_minimality_random():
    """Orthogonal to the null space (1e-8) and beats all competitors."""
    part = Partition(6)
    inc = paths.sample_increments(HYP2, part, 30, seed=1)
    field = projected_constant_field(HYP2)
    for i in range(30):
        path = paths.roll(HYP2, part, inc[i])
        fam = jacobi.build_family(HYP2, part, inc[i])
        lift = lift_build(path, fam, field)
        out = lift_orthogonality(fam, lift.slopes)
        assert out["null_dim"] == (part.n - 1) * 2
        assert out["residual"] < 1e-8
        deficit = lift_competitor_deficit(fam, lift.slopes, count=50, seed=i)
        assert deficit >= -1e-10


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
                            x_field=zero_field(HYP2))["adjoint"]
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
    """ibp_check at n=4, d=2 rolls at most 40 batches: the chart matrix comes
    from paths.knot_jacobian, not from 2nd rolls per chart velocity (a
    finite-difference M made 309)."""
    calls = []
    roll = paths.roll_batch
    monkeypatch.setattr(paths, "roll_batch", lambda *a, **k: calls.append(1) or roll(*a, **k))
    f = CylinderObservable("exp_r2_end", (1.0,), 1.0, "exp_radial2",
                           {"times": [1.0], "scales": [2.0]})
    ibp_check(HYP2, Partition(4), f, MASS_OBSERVABLE, n_samples=64, seed=0)
    assert 0 < len(calls) <= 40


def test_gradient_compare_reports():
    """Chart-vs-damped gradient diagnostic returns finite, small medians."""
    obs = CylinderObservable("exp_end", (1.0,), 1.0, "exp_radial2",
                             {"times": [1.0], "scales": [2.0]})
    out = gradient_compare(HYP2, Partition(4), obs, n_samples=32, seed=0)
    assert out["n_samples"] == 32
    assert np.isfinite(out["median_abs_gap"])
    assert out["median_abs_gap"] < 0.05 * out["median_abs_chart"]


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
