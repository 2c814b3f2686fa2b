"""Free/pinned path measures, heat kernels, and the quadrature oracles."""

import numpy as np
import pytest
from scipy import stats

from pinpath import geom, jacobi, measures, paths
from pinpath.geom import CurvatureModel
from pinpath.jacobi import Partition
from pinpath.measures import (MASS_OBSERVABLE, CylinderObservable, _pinned_chunk,
                              heat_kernel_exact, pinned_estimate, radial_observable)

from tests.oracles import (flat_bridge_abs_moment_1d, flat_bridge_second_moment,
                           pinned_fdd_oracle, radial_pde_kernel)

FLAT1 = CurvatureModel("flat", 1)
FLAT2 = CurvatureModel("flat", 2)
HYP2 = CurvatureModel("hyperbolic", 2, 1.0)
HYP3 = CurvatureModel("hyperbolic", 3, 1.0)
E1 = np.array([1.0, 0.0])

# frozen regression values (computed once with the shipped settings)
H3_KERNEL_AT_1 = 0.019875748452065724
PDE_KERNEL_REGRESSION = [0.032609159087367126, 0.019875300386726864,
                         0.00287397600960093]
FDD_MIDPOINT_R = 0.018378317218229277


def test_heat_kernel_flat_values():
    """Flat kernel: Gaussian normalization and decay."""
    assert heat_kernel_exact(FLAT2, 1.0, rho=0.0) == pytest.approx(1 / (2 * np.pi))
    want = (2 * np.pi) ** (-0.5) * np.exp(-0.5)
    assert heat_kernel_exact(FLAT1, 1.0, rho=1.0) == pytest.approx(want, rel=1e-14)


def test_heat_kernel_hyperbolic_closed_form():
    """d=3, kappa=1 radial kernel at rho=1 (frozen) and its formula."""
    got = heat_kernel_exact(HYP3, 1.0, rho=1.0)
    assert got == pytest.approx(H3_KERNEL_AT_1, rel=1e-12)
    want = (2 * np.pi) ** (-1.5) * (1.0 / np.sinh(1.0)) * np.exp(-1.0)
    assert got == pytest.approx(want, rel=1e-12)


def test_heat_kernel_rejects_unsupported():
    """Hyperbolic closed form outside d=3/kappa=1, bad t, and a missing or
    positional rho must raise."""
    with pytest.raises(ValueError):
        heat_kernel_exact(HYP2, 1.0, rho=1.0)
    with pytest.raises(ValueError):
        heat_kernel_exact(CurvatureModel("hyperbolic", 3, 2.0), 1.0, rho=1.0)
    with pytest.raises(ValueError):
        heat_kernel_exact(HYP3, 0.0, rho=1.0)
    with pytest.raises(TypeError):
        heat_kernel_exact(HYP3, 1.0)
    with pytest.raises(TypeError):
        heat_kernel_exact(HYP3, 1.0, 1.0)


def test_radial_pde_kernel_regression():
    """Crank-Nicolson oracle: frozen values and closed-form agreement."""
    got = radial_pde_kernel([0.5, 1.0, 2.0])
    assert np.allclose(got, PDE_KERNEL_REGRESSION, rtol=1e-9)
    closed = [heat_kernel_exact(HYP3, 1.0, rho=r) for r in (0.5, 1.0, 2.0)]
    assert np.allclose(got, closed, rtol=1e-3)


def test_fdd_oracle_mass_is_chapman_kolmogorov():
    """g = 1 collapses the split integral to p_1(o, x)."""
    val, err = pinned_fdd_oracle(HYP3, 1.0, lambda r: np.ones_like(r))
    assert err < 1e-4
    assert val == pytest.approx(heat_kernel_exact(HYP3, 1.0, rho=1.0), rel=1e-5)
    # flat version of the same collapse
    x = np.array([0.7, -0.2])
    val, _ = pinned_fdd_oracle(FLAT2, np.linalg.norm(x), lambda r: np.ones_like(r))
    assert val == pytest.approx(heat_kernel_exact(FLAT2, 1.0, rho=np.linalg.norm(x)),
                                rel=1e-5)


def test_fdd_oracle_flat_bridge_moments():
    """Flat split integrals match Gaussian bridge algebra for g = r^2 and r."""
    for d, xv in ((1, np.array([0.8])), (2, np.array([1.0, 0.5])),
                  (3, np.array([0.3, -0.6, 1.1]))):
        model = CurvatureModel("flat", d)
        val, _ = pinned_fdd_oracle(model, np.linalg.norm(xv), lambda r: r * r, tol=1e-7)
        assert val == pytest.approx(flat_bridge_second_moment(d, xv), rel=1e-6)
    val, _ = pinned_fdd_oracle(FLAT1, 1.3, lambda r: r, tol=1e-7)
    assert val == pytest.approx(flat_bridge_abs_moment_1d(1.3), rel=1e-6)


def test_fdd_oracle_midpoint_r_frozen():
    """Frozen value used by the acceptance run (hyperbolic, g = r)."""
    val, err = pinned_fdd_oracle(HYP3, 1.0, lambda r: r)
    assert err < 1e-4
    assert val == pytest.approx(FDD_MIDPOINT_R, rel=1e-9)
    with pytest.raises(ValueError):
        pinned_fdd_oracle(HYP2, 0.0, lambda r: r)


def free_knots(model, part, count, seed):
    """Knots (count, n+1, D) of free paths: N(0, 1/n) increments rolled from o."""
    return paths.roll_batch(model, paths.sample_increments(model, part, count, seed))[0]


def test_observable_evaluation_and_bounds():
    """Cylinder observables: kinds, knot-time validation, bound check."""
    part = Partition(4)
    points = free_knots(FLAT2, part, 50, seed=2)
    assert np.all(MASS_OBSERVABLE.evaluate(FLAT2, part, points) == 1.0)

    obs = radial_observable(0.5, "r2")
    vals = obs.evaluate(FLAT2, part, points)
    want = np.sum(points[:, 2, :] ** 2, axis=-1)
    assert np.allclose(vals, want)

    with pytest.raises(ValueError):
        radial_observable(0.3).evaluate(FLAT2, part, points)

    tight = radial_observable(0.5, "r2", bound=1e-6)
    with pytest.raises(ValueError):
        tight.evaluate(FLAT2, part, points)

    gauss = CylinderObservable("exp_end", (1.0,), 1.0, "exp_radial2",
                               {"times": [1.0], "scales": [2.0]})
    vals = gauss.evaluate(FLAT2, part, points)
    assert np.all((vals > 0.0) & (vals <= 1.0))


def test_nu1p_flat_marginals():
    """Flat endpoint coordinates are standard normal (KS at 1e4 samples)."""
    part = Partition(8)
    end = free_knots(FLAT2, part, 10000, seed=1)[:, -1, :]
    for coord in range(2):
        pval = stats.kstest(end[:, coord], "norm").pvalue
        assert pval > 0.01
    # independence of the two endpoint coordinates (at MC accuracy)
    assert abs(np.corrcoef(end[:, 0], end[:, 1])[0, 1]) < 0.05


def test_nu1p_single_interval():
    """n=1 free paths land at exp_o of one increment."""
    part = Partition(1)
    inc = paths.sample_increments(HYP2, part, 8, seed=4)
    points = paths.roll_batch(HYP2, inc)[0]
    o, frame = geom.base_point(HYP2), geom.base_frame(HYP2)
    for i in range(8):
        want = geom.exp_frame(HYP2, o, frame, inc[i, 0])[0]
        assert np.allclose(points[i, 1], want, atol=1e-12)


def test_nu1p_seed_stability():
    """E[d(o, sigma(1))^2] agrees across seeds within combined error bars."""
    part = Partition(16)
    vals = []
    for seed in (11, 12):
        end = free_knots(HYP2, part, 4000, seed=seed)[:, -1, :]
        d2 = geom.distance(HYP2, geom.base_point(HYP2), end) ** 2
        vals.append((d2.mean(), d2.std(ddof=1) / np.sqrt(len(d2))))
    gap = abs(vals[0][0] - vals[1][0])
    assert gap < 3 * (vals[0][1] + vals[1][1])


def test_target_point_forms():
    """Frame coordinates at o land on the geodesic along them; ambient input
    passes through; off-sheet and wrong-length input is rejected."""
    a = measures._target_point(HYP2, 0.8 * E1)
    assert np.allclose(a, [np.sinh(0.8), 0.0, np.cosh(0.8)], atol=1e-12)
    c = measures._target_point(HYP2, a)       # ambient passthrough
    assert np.array_equal(a, c)
    with pytest.raises(ValueError):
        measures._target_point(HYP2, np.array([1.0, 0.0, 0.0]))  # off the sheet
    with pytest.raises(ValueError):
        measures._target_point(FLAT2, np.zeros(3))


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("kappa", [1.0, 2.0])
def test_far_target_point_keeps_its_distance(d, kappa):
    """A target along an axis lands at its distance to 1e-12 relative, also
    where the sheet constraint cancels catastrophically in the ambient
    coordinates (sqrt(kappa) rho >= 19), and passes the ambient re-check."""
    model = CurvatureModel("hyperbolic", d, kappa)
    e1 = np.eye(d)[0]
    for rho in (1.0, 10.0, 19.0, 20.0, 40.0):
        x = measures._target_point(model, rho * e1)
        dist = geom.distance(model, geom.base_point(model), x)
        assert abs(dist - rho) <= 1e-12 * rho
        assert np.array_equal(measures._target_point(model, x), x)


def test_pinned_estimate_flat_unbiased():
    """Flat mass estimate hits the Gaussian kernel within 3 stderr."""
    x = np.array([1.0, 0.0])
    res = pinned_estimate(FLAT2, Partition(4), x, MASS_OBSERVABLE,
                          n_samples=20000, seed=3)
    oracle = heat_kernel_exact(FLAT2, 1.0, rho=1.0)
    assert abs(res.mean - oracle) < 3 * res.stderr
    assert res.stderr < 0.02 * oracle
    assert np.all(np.isfinite(res.log_weights))
    assert np.isfinite(res.weight_summary()["log_w_var"])
    assert res.meta["tip_cond_hits"] == 0


def test_pinned_estimate_hyperbolic_bounded_and_converges():
    """f == 1: one constant bounds every (x, n); d=3, n=32 hits the kernel."""
    for rho in (0.0, 1.0, 2.0):
        for n in (4, 16):
            xa = measures._target_point(HYP2, rho * E1)
            r = pinned_estimate(HYP2, Partition(n), xa, MASS_OBSERVABLE,
                                n_samples=4000, seed=9)
            assert r.mean + 3 * r.stderr < 0.2
    x0 = measures._target_point(HYP3, np.zeros(3))
    res = pinned_estimate(HYP3, Partition(32), x0, MASS_OBSERVABLE,
                          n_samples=60000, seed=2)
    p0 = heat_kernel_exact(HYP3, 1.0, rho=0.0)
    assert abs(res.mean - p0) < 3 * res.stderr


def test_pinned_estimate_single_interval():
    """n = 1 leaves an empty body: every sample is the one geodesic o -> x, so
    the estimate is exact with stderr 0.  Flat, it is the heat kernel; on
    hyperbolic d=3 it is the Gaussian over the exp_o Jacobian sinhc(rho)^2."""
    x = np.array([1.0, 0.3])
    res = pinned_estimate(FLAT2, Partition(1), x, n_samples=100, seed=1)
    assert abs(res.mean - heat_kernel_exact(FLAT2, 1.0, rho=np.hypot(1.0, 0.3))) <= 1e-14
    assert res.stderr == 0.0
    rho = 0.8
    res = pinned_estimate(HYP3, Partition(1), rho * np.eye(3)[0], n_samples=100, seed=1)
    assert np.all(np.isfinite(res.log_weights)) and res.stderr == 0.0
    want = (2 * np.pi) ** -1.5 * np.exp(-0.5 * rho * rho) / geom.sinhc(rho) ** 2
    assert res.mean == pytest.approx(want, rel=1e-12)


def test_pinned_estimate_sums_tip_cond_hits(monkeypatch):
    """meta["tip_cond_hits"] adds up the ill-conditioned tips of every chunk."""
    # a low limit makes ordinary tips count: cond(S_x) = sinhc(|xi|) at kappa=1
    limit = float(geom.sinhc(1.5))
    monkeypatch.setattr(jacobi, "COND_LIMIT", limit)
    count, part = paths.CHUNK + 100, Partition(2)
    x = measures._target_point(HYP2, 1.5 * E1)
    res = pinned_estimate(HYP2, part, x, n_samples=count, seed=4)
    # the tips: log from the one-interval body's end to x, in its rolled frame
    body = paths.sample_increments(HYP2, part, count, seed=4)[:, :1]
    pts, frs = paths.roll_batch(HYP2, body)
    tips = geom.frame_coords(HYP2, frs[:, -1], geom.log_point(HYP2, pts[:, -1], x))
    hit = geom.sinhc(np.linalg.norm(tips, axis=1)) > limit
    for start, size in ((0, paths.CHUNK), (paths.CHUNK, 100)):
        hits = _pinned_chunk(HYP2, part, x, MASS_OBSERVABLE, 4, start, size)[2]
        assert 0 < hits == int(hit[start:start + size].sum())
    assert res.meta["tip_cond_hits"] == int(hit.sum())


def test_pinned_estimate_validation():
    """Too-few samples and off-knot observable times are rejected."""
    with pytest.raises(ValueError):
        pinned_estimate(FLAT2, Partition(4), np.zeros(2), n_samples=1)
    with pytest.raises(ValueError):
        pinned_estimate(FLAT2, Partition(4), np.zeros(2),
                        observable=radial_observable(0.3), n_samples=16)


def test_pinned_estimate_worker_invariance():
    """Worker count does not change the result bits."""
    x = np.array([0.5, 0.0])
    a = pinned_estimate(FLAT2, Partition(4), x, n_samples=6000, seed=9, workers=1)
    b = pinned_estimate(FLAT2, Partition(4), x, n_samples=6000, seed=9, workers=2)
    assert a.mean == b.mean
    assert a.stderr == b.stderr


class EndGap:
    """Largest ambient coordinate gap between sigma(1) and x on each path,
    checking the knot array's shape (duck-typed observable)."""

    name, times = "end_gap", (1.0,)

    def __init__(self, x):
        self.x = x

    def evaluate(self, model, partition, points):
        assert points.shape[1:] == (partition.n + 1, model.ambient_dim)
        return np.max(np.abs(points[:, -1] - self.x), axis=-1)


def test_pinned_samples_container():
    """A pinned chunk ends every path at x, with finite weights of one per path."""
    x_amb = measures._target_point(HYP2, E1)
    log_w, f_vals, hits = _pinned_chunk(HYP2, Partition(4), x_amb, EndGap(x_amb),
                                        seed=8, start=0, count=5)
    assert log_w.shape == f_vals.shape == (5,)
    assert np.all(np.isfinite(log_w))
    assert np.allclose(f_vals, 0.0, atol=1e-9)
    assert hits == 0


def test_pinned_samples_match_the_estimator(monkeypatch):
    """A pinned chunk at any (start, count) rolls its batch once and returns the
    estimator's own log-weights and observable values at the same seed."""
    x = measures._target_point(HYP2, E1)
    obs = radial_observable(0.5, "r")
    res = pinned_estimate(HYP2, Partition(6), x, obs, n_samples=300, seed=12)
    calls = []
    roll = paths.roll_batch
    monkeypatch.setattr(paths, "roll_batch", lambda *a, **k: calls.append(1) or roll(*a, **k))
    for start, count in ((0, 300), (170, 40)):
        log_w, f_vals, _ = _pinned_chunk(HYP2, Partition(6), x, obs, 12, start, count)
        assert log_w.tolist() == res.log_weights[start:start + count].tolist()
        assert f_vals.tolist() == res.f_values[start:start + count].tolist()
    assert len(calls) == 2
