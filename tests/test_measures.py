"""Free/pinned path measures, heat kernels, and the quadrature oracles."""

import tracemalloc

import numpy as np
import pytest
from scipy import stats

from pinpath import geom, jacobi, measures, paths
from pinpath.geom import CurvatureModel
from pinpath.jacobi import Partition
from pinpath.measures import (MASS_OBSERVABLE, CylinderObservable, _pinned_chunk,
                              heat_kernel_exact, pinned_estimate, radial_observable)

from tests.oracles import (flat_bridge_abs_moment_1d, flat_bridge_second_moment,
                           frame_coords, frame_roll_tip, free_log_weights,
                           free_pinned_estimate, gram_pass, knots_at, log_point,
                           exp_frame, mp_bridged_tip, mp_gram_log_dets, pinned_fdd_oracle,
                           radial_pde_kernel, roll_batch, scaled_tip_log_factors)

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
    return roll_batch(model, paths.sample_increments(model, part, count, seed))[0]


def pinned_draw(model, part, count, seed, x_amb):
    """The increments (count, n, d) that pinned chunks at seed use, their
    body bridged toward x_amb by measures._body_pass (the last row as
    drawn), and the raw draw they came from."""
    raw = paths.sample_increments(model, part, count, seed)
    body = raw.transpose(1, 2, 0)[:part.n - 1].copy()
    measures._body_pass(model, body, x_amb)
    inc = raw.copy()
    inc[:, :part.n - 1] = body.transpose(2, 0, 1)
    return inc, raw


def test_observable_evaluation_and_bounds():
    """Cylinder observables: kinds, knot-time validation, bound check."""
    part = Partition(4)
    points = free_knots(FLAT2, part, 50, seed=2)

    def at(obs):
        return knots_at(part, obs.times, points)

    assert np.all(MASS_OBSERVABLE.evaluate(FLAT2, at(MASS_OBSERVABLE)) == 1.0)

    obs = radial_observable(0.5, "r2")
    assert at(obs).shape == (50, 1, 2)
    vals = obs.evaluate(FLAT2, at(obs))
    want = np.sum(points[:, 2, :] ** 2, axis=-1)
    assert np.allclose(vals, want)

    with pytest.raises(ValueError):
        at(radial_observable(0.3))

    tight = radial_observable(0.5, "r2", bound=1e-6)
    with pytest.raises(ValueError):
        tight.evaluate(FLAT2, at(tight))

    gauss = CylinderObservable("exp_end", (1.0,), 1.0, "exp_radial2",
                               {"times": [1.0], "scales": [2.0]})
    vals = gauss.evaluate(FLAT2, at(gauss))
    assert np.all((vals > 0.0) & (vals <= 1.0))
    # two times: each scale reads the knot at its own time
    two = CylinderObservable("exp_mid_end", (0.5, 1.0), 1.0, "exp_radial2",
                             {"times": [1.0, 0.5], "scales": [2.0, 4.0]})
    want = np.exp(-np.sum(points[:, 4] ** 2, axis=-1) / 2.0
                  - np.sum(points[:, 2] ** 2, axis=-1) / 4.0)
    assert np.allclose(two.evaluate(FLAT2, at(two)), want, rtol=1e-14)


@pytest.mark.parametrize("model", [FLAT1, FLAT2, HYP2, CurvatureModel("hyperbolic", 3, 2.5)],
                         ids=["flat1", "flat2", "hyp2", "hyp3-kappa2.5"])
def test_observable_derivative_matches_central_differences(model):
    """CylinderObservable.derivative along ambient tangent vectors at its
    knots agrees per sample, within 1e-7 of 1 + |difference|, with central
    differences (step 1e-5) of evaluate along the geodesics exp_x(+-h v)
    of all its knots at once, for every kind: const_one (exactly 0), radial
    r and r2 at s = 1/2, and exp_radial2 with a knot at s = 0, which sits
    at o (where r is not differentiable but r^2 is).  The vectors are
    random frame coordinates at the knots of rolled paths."""
    part, N, step = Partition(4), 64, 1e-5
    inc = paths.sample_increments(model, part, N, seed=3)
    points, frames = roll_batch(model, inc)
    coords = np.random.default_rng(7).normal(size=(N, part.n + 1, model.dim))
    observables = [MASS_OBSERVABLE, radial_observable(0.5, "r"), radial_observable(0.5, "r2"),
                   CylinderObservable("exp_three", (0.0, 0.5, 1.0), 1.0, "exp_radial2",
                                      {"times": [0.0, 0.5, 1.0], "scales": [1.0, 2.0, 3.0]})]
    for obs in observables:
        index = [part.knot_index(t) for t in obs.times]
        x, u, v = points[:, index], frames[:, index], coords[:, index]
        got = obs.derivative(model, x, np.einsum("NkDa,Nka->NkD", u, v))
        moved = [obs.evaluate(model, exp_frame(model, x, u, sign * step * v)[0])
                 for sign in (1.0, -1.0)]
        want = (moved[0] - moved[1]) / (2 * step)
        assert got.shape == want.shape == (N,)
        if obs.kind == "const_one":
            assert np.all(got == 0.0)
            continue
        assert np.abs(want).max() > 0.1
        assert np.all(np.abs(got - want) <= 1e-7 * (1 + np.abs(want))), (obs.name, model)


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
    points = roll_batch(HYP2, inc)[0]
    o, frame = geom.base_point(HYP2), geom.base_frame(HYP2)
    for i in range(8):
        want = exp_frame(HYP2, o, frame, inc[i, 0])[0]
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


@pytest.mark.parametrize("d", [1, 2, 3])
def test_tangent_target_is_the_oracle_exp_at_o(d):
    """Tangent coordinates at o land on exp_o in closed form, bit for bit
    the point that the oracle exp_frame reaches from o and its frame, for
    kappa from 0.25 to 100, at o and at rho from 1e-7 to 40 along an axis,
    the diagonal and a random direction, wherever the point is a double.
    (A coordinate -0.0 keeps its sign, which exp_frame's frame sum drops.)"""
    rng = np.random.default_rng(d)
    directions = [np.eye(d)[0], np.ones(d) / np.sqrt(d), rng.normal(size=d)]
    for kappa in (0.25, 1.0, 2.5, 16.0, 100.0):
        model = CurvatureModel("hyperbolic", d, kappa)
        o, frame = geom.base_point(model), geom.base_frame(model)
        targets = [np.zeros(d)] + [rho * u / np.linalg.norm(u)
                                   for rho in (1e-7, 0.3, 1.0, 5.0, 19.0, 20.0, 40.0)
                                   for u in directions
                                   if np.sqrt(kappa) * rho <= 350.0]   # cosh^2 a double
        for x in targets:
            got = measures._target_point(model, x)
            assert got.tobytes() == exp_frame(model, o, frame, x)[0].tobytes(), (kappa, x)


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


def test_unrepresentable_target_is_rejected():
    """A target whose point is not finite is a ValueError that names it: the
    tangent target at rho = 700 (d = 2) lands at infinity, from rho = 720 its
    point is NaN, and an ambient NaN point passes the sheet test's
    comparison."""
    with np.errstate(all="ignore"):
        for rho in (700.0, 720.0):
            with pytest.raises(ValueError, match=r"target \[%r, 0.0\]" % rho):
                measures._target_point(HYP2, rho * E1)
    with pytest.raises(ValueError, match="nan"):
        measures._target_point(HYP2, np.array([np.nan, 0.0, 1.0]))


def test_pinned_estimate_flat_unbiased():
    """Flat mass estimate hits the Gaussian kernel within 3 stderr."""
    x = np.array([1.0, 0.0])
    res = pinned_estimate(FLAT2, Partition(4), x, MASS_OBSERVABLE,
                          n_samples=20000, seed=3)
    oracle = heat_kernel_exact(FLAT2, 1.0, rho=1.0)
    assert abs(res.mean - oracle) < 3 * res.stderr
    assert res.stderr < 0.02 * oracle
    assert np.all(np.isfinite(res.log_weights))
    assert np.isfinite(res.meta["weights"]["log_w_var"])
    assert res.meta["tip_cond_hits"] == 0


def test_pinned_estimate_hyperbolic_bounded_and_converges():
    """f == 1: one constant bounds every (x, n); d=3, n=32 hits the kernel
    within the CLI's gate, max(2% p_0, 3 stderr): the bridge's stderr
    (0.1%) is below the O(mesh) bias (+1.8% at n = 32), which the gate's
    floor takes."""
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
    assert abs(res.mean - p0) <= max(0.02 * p0, 3 * res.stderr)


@pytest.mark.parametrize("model, n, rho", [(HYP3, 2, 1.0), (HYP3, 4, 1.0),
                                           (CurvatureModel("hyperbolic", 2, 2.5), 4, 0.8)],
                         ids=["hyp3-n2", "hyp3-n4", "hyp2_k2.5-n4"])
def test_bridge_estimate_agrees_with_the_free_proposal(model, n, rho):
    """The bridge is importance sampling of the same pinned measure nu^1_P as
    the free proposal (tests/oracles.py): the two mass estimates at one n
    agree within 3 combined stderr, O(mesh) bias and all, at seeds that
    share no Philox key.  The free route's stderr per path is 4-8x the
    bridge's, so it runs 10x the paths; the bridge's stderr stays lower."""
    x = measures._target_point(model, rho * np.eye(model.dim)[0])
    res = pinned_estimate(model, Partition(n), x, n_samples=4 * paths.CHUNK, seed=11)
    free_mean, free_stderr = free_pinned_estimate(model, Partition(n), x, MASS_OBSERVABLE,
                                                  40 * paths.CHUNK, seed=12)
    assert abs(res.mean - free_mean) <= 3 * np.hypot(res.stderr, free_stderr)
    assert res.stderr < free_stderr


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
    # the tips: log from the one-interval body's end to x, in its rolled
    # frame, for the body the chunks bridged
    body = pinned_draw(HYP2, part, count, 4, x)[0][:, :1]
    pts, frs = roll_batch(HYP2, body)
    tips = frame_coords(HYP2, frs[:, -1], log_point(HYP2, pts[:, -1], x))
    hit = geom.sinhc(np.linalg.norm(tips, axis=1)) > limit
    for start, size in ((0, paths.CHUNK), (paths.CHUNK, 100)):
        hits = _pinned_chunk(HYP2, part, x, MASS_OBSERVABLE, 4, start, size)[2]
        assert 0 < hits == int(hit[start:start + size].sum())
    assert res.meta["tip_cond_hits"] == int(hit.sum())


@pytest.mark.parametrize("model, n, x", [(HYP3, 8, [1.0, 0.0, 0.0]), (FLAT2, 4, [1.0, 0.5])],
                         ids=["hyp3", "flat2"])
def test_weight_summary_matches_direct_formulas(model, n, x):
    """meta["weights"] holds the spread of log w, ESS/N and the largest
    weight's share, each within 1e-12 relative of its direct formula on the
    returned log-weights, over two chunks."""
    res = pinned_estimate(model, Partition(n), np.array(x), n_samples=paths.CHUNK + 904, seed=2)
    lw = res.log_weights
    w = np.exp(lw - lw.max())
    want = {"log_w_min": lw.min(), "log_w_max": lw.max(), "log_w_mean": np.mean(lw),
            "log_w_var": np.var(lw), "ess_frac": w.sum() ** 2 / (lw.size * np.sum(w * w)),
            "max_weight_share": w.max() / w.sum()}
    assert list(res.meta["weights"]) == list(want)
    for key, value in want.items():
        assert res.meta["weights"][key] == pytest.approx(value, rel=1e-12), key


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

    def evaluate(self, model, points):
        assert points.shape[1:] == (len(self.times), model.ambient_dim)
        return np.max(np.abs(points[:, 0] - self.x), axis=-1)


def test_pinned_samples_container():
    """A pinned chunk ends every path at x, with finite weights of one per path."""
    x_amb = measures._target_point(HYP2, E1)
    log_w, f_vals, hits, stage_s = _pinned_chunk(HYP2, Partition(4), x_amb, EndGap(x_amb),
                                                 seed=8, start=0, count=5)
    assert log_w.shape == f_vals.shape == (5,)
    assert np.all(np.isfinite(log_w))
    assert np.allclose(f_vals, 0.0, atol=1e-9)
    assert hits == 0
    assert set(stage_s) == set(measures.STAGES)


def test_pinned_samples_match_the_estimator():
    """A pinned chunk at any (start, count) returns the estimator's own
    log-weights and observable values at the same seed."""
    x = measures._target_point(HYP2, E1)
    obs = radial_observable(0.5, "r")
    res = pinned_estimate(HYP2, Partition(6), x, obs, n_samples=300, seed=12)
    for start, count in ((0, 300), (170, 40)):
        log_w, f_vals, _, _ = _pinned_chunk(HYP2, Partition(6), x, obs, 12, start, count)
        assert log_w.tolist() == res.log_weights[start:start + count].tolist()
        assert f_vals.tolist() == res.f_values[start:start + count].tolist()


def _tip_tolerance(reach):
    """1e-12, or the frame-roll reference's own roundoff 1e-14 cosh^2(reach)
    where that is larger (reach: sqrt(kappa) times the body end's distance
    from o; the reference cancels ambient coordinates of size cosh(reach))."""
    return np.maximum(1e-12, 1e-14 * np.cosh(reach) ** 2)


@pytest.mark.parametrize("kind, d, kappa", [("flat", d, 0.0) for d in (1, 2, 3)]
                         + [("hyperbolic", d, k) for d in (1, 2, 3) for k in (0.5, 1.0, 2.5)])
def test_pulled_back_tip_matches_the_frame_roll(kind, d, kappa):
    """The tip log_o(g^{-1} x) of the body pass equals the frame-roll tip
    log_{x_{n-1}}(x) in the rolled end frame of the body it used (bridged
    on the hyperboloid), and the chunk's log-weights the ones assembled from
    that tip plus the pass's proposal log-ratio, for n in {1, 2, 8, 32, 64}
    and targets out to rho = 16 off the axes.  The tips agree within 1e-12
    relative to 1 + |xi_x| (or the reference's own roundoff,
    _tip_tolerance), and the log-weights within (n + 4d) (1 + |xi_x|)^2
    times that, the tip's leverage on -n |xi_x|^2 / 2 and the two tip
    factors.  The roll's roundoff grows with the body's farthest knot, and
    the bridge carries bodies out toward the target and at times back: a
    tip that misses the roll by more than that bound, or whose body reaches
    where the bound passes 1 (the roll's ambient coordinates, of size
    cosh(reach), cancel to nothing), must instead equal the 60-digit bridge
    of the same draw (tests/oracles.mp_bridged_tip) within 1e-12.  The
    reference factors come from the body's Gram sums as gram_pass forms
    them, or held scaled (tests/oracles.scaled_tip_log_factors) where the
    pass's roundoff scale passes jacobi.GROWTH_LIMIT.
    """
    model = CurvatureModel(kind, d, kappa)
    direction = np.ones(d) / np.sqrt(d)
    for n in (1, 2, 8, 32, 64):
        part = Partition(n)
        for rho in (0.0, 1.0, 4.0, 16.0):
            x = measures._target_point(model, rho * direction)
            draw = paths.sample_increments(model, part, 64, seed=3).transpose(1, 2, 0)[:n - 1]
            body = draw.copy()
            tip, log_q, growth = measures._body_pass(model, body, x)[2:]   # body: bridged
            with np.errstate(over="ignore", invalid="ignore"):
                want, reach, farthest = frame_roll_tip(model, body.transpose(2, 0, 1), x)
                bound = _tip_tolerance(reach)
                missed = ~(np.linalg.norm(tip.T - want, axis=1)
                           <= bound * (1.0 + np.linalg.norm(want, axis=1)))
            exact = missed | (_tip_tolerance(farthest) >= 1.0)
            for i in np.flatnonzero(exact):
                want[i] = mp_bridged_tip(kappa, draw[..., i], x, n)[0]
            bound[exact] = 1e-12
            tol = bound * (1.0 + np.linalg.norm(want, axis=1))
            assert np.all(np.linalg.norm(tip.T - want, axis=1) <= tol)

            inc, log_jp, log_vx = body.transpose(2, 0, 1), np.empty(64), np.empty(64)
            scaled = np.zeros(64, dtype=bool) if growth is None else growth > jacobi.GROWTH_LIMIT
            G, head = gram_pass(model, inc[~scaled])
            log_jp[~scaled], log_vx[~scaled] = jacobi.tip_log_factors(model, G, head,
                                                                      want[~scaled], n)[:2]
            if scaled.any():
                log_jp[scaled], log_vx[scaled] = scaled_tip_log_factors(model, inc[scaled],
                                                                        want[scaled], n)
            ref = (-0.5 * d * measures.LOG_2PI - 0.5 * n * np.sum(want * want, axis=1)
                   + log_vx - log_jp + log_q)
            log_w = _pinned_chunk(model, part, x, MASS_OBSERVABLE, 3, 0, 64)[0]
            lever = (n + 4 * d) * (1.0 + np.linalg.norm(want, axis=1))
            assert np.all(np.abs(log_w - ref) <= lever * tol)


@pytest.mark.parametrize("model", [HYP3, CurvatureModel("hyperbolic", 2, 2.5),
                                   CurvatureModel("hyperbolic", 1, 0.5)],
                         ids=["hyp3", "hyp2_k2.5", "hyp1_k0.5"])
def test_log_weight_is_the_free_weight_plus_the_proposal_ratio(model):
    """A chunk's log-weight is the free weight of the increments it used
    (tests/oracles.free_log_weights, by the frame roll) plus log p / q of
    the bridge, summed over the body: p = N(0, I / n) and q = N(v_j / k,
    (k - 1) / (k n) I) with k = n - j intervals left and v_j = log_{x_j}(x)
    in the rolled frame at knot j.  Each bridged increment is v_j / k +
    sqrt((k - 1) / k) z_j for the drawn z_j.  n in {2, 8, 32}, targets at
    rho in {0, 1.5}; within 1e-12 (1 + |log w|) (6.4e-14 measured)."""
    d = model.dim
    for n in (2, 8, 32):
        part = Partition(n)
        for rho in (0.0, 1.5):
            x = measures._target_point(model, rho * np.ones(d) / np.sqrt(d))
            xi, z = pinned_draw(model, part, 64, 5, x)
            ratio = np.zeros(64)
            for j in range(n - 1):
                k = n - j
                v = frame_roll_tip(model, xi[:, :j], x)[0]
                scale = np.sqrt((k - 1) / k)
                assert np.allclose((xi[:, j] - v / k) / scale, z[:, j], rtol=0, atol=1e-12)
                ratio += (stats.norm.logpdf(xi[:, j], 0.0, np.sqrt(1.0 / n)).sum(axis=1)
                          - stats.norm.logpdf(xi[:, j], v / k, scale / np.sqrt(n)).sum(axis=1))
            want = free_log_weights(model, n, xi, x) + ratio
            got = _pinned_chunk(model, part, x, MASS_OBSERVABLE, 5, 0, 64)[0]
            assert np.all(np.abs(got - want) <= 1e-12 * (1.0 + np.abs(want))), (n, rho)


def test_bridge_ess_stays_high_at_hyp3_n32():
    """The bridge keeps the pinned weights even: ESS/N >= 0.85 at hyperbolic
    d = 3, n = 32, rho = 1 over 40960 paths at seed 0 (0.91 measured; the
    free proposal read 0.0045)."""
    res = pinned_estimate(HYP3, Partition(32), np.array([1.0, 0.0, 0.0]),
                          n_samples=40960, seed=0)
    assert res.meta["weights"]["ess_frac"] >= 0.85


@pytest.mark.parametrize("d, kappa, n, rho", [(3, 2.5, 8, r) for r in (4.0, 8.0, 10.0, 12.0, 16.0)]
                         + [(3, 1.0, 8, 16.0), (2, 1.0, 2, 40.0)],
                         ids=lambda v: str(v))
def test_far_bridged_weights_match_50_digit_log_dets(d, kappa, n, rho):
    """The bridge runs the body out toward the target, and the Gram sums of
    a body of few long steps grow across its direction with each step, so
    in plain form the roundoff of their large entries swamps their smallest
    eigenvalue, along it (at d = 3, kappa = 2.5, n = 8: log-dets off by 1e-5
    at rho = 8 and by O(1) at rho = 10, positivity lost from rho = 12).
    Those paths take their factors from the scaled sums
    (jacobi.scaled_gram_pass), and every log-weight of a 64-path chunk is
    the one assembled from the 50-digit log-dets of its own body and tip
    (tests/oracles.mp_gram_log_dets) within 1e-10 (1 + |log w|)."""
    model = CurvatureModel("hyperbolic", d, kappa)
    part = Partition(n)
    x = measures._target_point(model, rho * np.ones(d) / np.sqrt(d))
    log_w = _pinned_chunk(model, part, x, MASS_OBSERVABLE, 3, 0, 64)[0]
    body = paths.sample_increments(model, part, 64, seed=3).transpose(1, 2, 0)[:n - 1]
    tip, log_q, growth = measures._body_pass(model, body, x)[2:]
    assert np.any(growth > jacobi.GROWTH_LIMIT)
    for i in range(64):
        log_k, log_v = mp_gram_log_dets(kappa, body[..., i], tip[:, i])
        a = np.sqrt(kappa) * np.linalg.norm(tip[:, i])
        log_r = np.log(np.tanh(a) / a)
        log_jp = -0.5 * d * np.log(n) + (d - 1) * np.log(np.cosh(a)) + 0.5 * log_k
        log_vx = 0.5 * log_v - (d - 1) * log_r
        want = (-0.5 * d * measures.LOG_2PI - 0.5 * n * tip[:, i] @ tip[:, i]
                + log_vx - log_jp + log_q[i])
        assert abs(log_w[i] - want) <= 1e-10 * (1.0 + abs(want)), i


@pytest.mark.parametrize("d", [2, 3])
def test_pulled_back_tip_matches_a_60_digit_boost_composition(d):
    """On 36 paths over kappa in {0.5, 1, 2.5} and rho in {1, 16} at n = 32,
    the tip of the body pass is the 60-digit mpmath bridge and boost
    composition of the same draw (tests/oracles.mp_bridged_tip), rounded,
    within 1e-14 relative."""
    part = Partition(32)
    for kappa in (0.5, 1.0, 2.5):
        model = CurvatureModel("hyperbolic", d, kappa)
        for rho in (1.0, 16.0):
            x = measures._target_point(model, rho * np.eye(d)[0])
            draw = paths.sample_increments(model, part, 6, seed=21).transpose(1, 2, 0)[:-1]
            tip = measures._body_pass(model, draw.copy(), x)[2].T
            for i, got in enumerate(tip):
                want = mp_bridged_tip(kappa, draw[..., i], x, part.n)[0]
                assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)


@pytest.mark.parametrize("kind, d, kappa", [("flat", 2, 0.0), ("hyperbolic", 2, 1.0),
                                             ("hyperbolic", 3, 1.0), ("hyperbolic", 3, 2.5)])
def test_pinned_knots_match_the_roll(kind, d, kappa):
    """Every interior knot of a pinned path from its boost chain
    B(xi_1)(... B(xi_j) o) equals roll_batch's knot of the body the pass
    used (bridged on the hyperboloid) within 1e-12 relative; s = 0 is o and
    s = 1 is x, exactly."""
    model = CurvatureModel(kind, d, kappa)
    for n in (2, 8, 32):
        part = Partition(n)
        x = measures._target_point(model, np.eye(d)[0])
        body = paths.sample_increments(model, part, 256, seed=5).transpose(1, 2, 0)[:-1]
        measures._body_pass(model, body, x)
        knots = measures._pinned_knots(model, part, tuple(part.knots), body, x)
        want = roll_batch(model, body.transpose(2, 0, 1))[0]
        scale = np.max(np.abs(want), axis=-1)
        assert np.all(np.max(np.abs(knots[:, :-1] - want), axis=-1) <= 1e-12 * scale)
        assert np.array_equal(knots[:, 0], np.broadcast_to(want[0, 0], knots[:, 0].shape))
        assert np.array_equal(knots[:, -1], np.broadcast_to(x, knots[:, -1].shape))


def test_hyp3_chunk_rolls_nothing_and_stays_small():
    """One hyperbolic d=3, n=32 chunk of 4096 paths has finite log-weights
    and its traced allocations peak under 30 MB (a frame roll of the body
    peaks at about 36 MB)."""
    x = measures._target_point(HYP3, np.array([1.0, 0.0, 0.0]))
    tracemalloc.start()
    try:
        log_w = _pinned_chunk(HYP3, Partition(32), x, MASS_OBSERVABLE, 0, 0, paths.CHUNK)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert log_w.shape == (paths.CHUNK,) and np.all(np.isfinite(log_w))
    assert peak < 30e6


@pytest.mark.parametrize("model, n", [(HYP3, 32), (CurvatureModel("hyperbolic", 2, 2.5), 8),
                                      (FLAT2, 8)], ids=["hyp3", "hyp2_k2.5", "flat2"])
def test_pinned_rows_are_independent_of_the_chunk(model, n):
    """Rows of a pinned chunk of 1, 2 or 3 samples equal the same rows of a
    full chunk bit for bit, log-weights and observable values, so a sample's
    weight cannot depend on how many samples share its chunk (the pinned
    counterpart of test_roll_rows_are_independent_of_the_batch)."""
    part = Partition(n)
    x = measures._target_point(model, np.eye(model.dim)[0])
    obs = radial_observable(0.5, "r2")
    full_w, full_f = _pinned_chunk(model, part, x, obs, 0, 0, paths.CHUNK)[:2]
    for start in (0, 1, paths.CHUNK - 3):
        for count in (1, 2, 3):
            log_w, f_vals = _pinned_chunk(model, part, x, obs, 0, start, count)[:2]
            assert np.array_equal(log_w, full_w[start:start + count]), (start, count)
            assert np.array_equal(f_vals, full_f[start:start + count]), (start, count)


def test_scaled_pinned_rows_are_independent_of_the_chunk():
    """At d = 3, kappa = 2.5, n = 8, rho = 5 about half of the paths take
    their factors from the scaled Gram sums (growth past
    jacobi.GROWTH_LIMIT) and the rest from the plain ones; the rows of a
    chunk of 1, 2 or 3 samples still equal those of a full chunk bit for
    bit, whichever route each takes."""
    model, part = CurvatureModel("hyperbolic", 3, 2.5), Partition(8)
    x = measures._target_point(model, np.array([5.0, 0.0, 0.0]))
    body = paths.sample_increments(model, part, paths.CHUNK, seed=0).transpose(1, 2, 0)[:7]
    scaled = measures._body_pass(model, body, x)[4] > jacobi.GROWTH_LIMIT
    assert 0.25 < scaled.mean() < 0.75
    full = _pinned_chunk(model, part, x, MASS_OBSERVABLE, 0, 0, paths.CHUNK)[0]
    for start in (0, 1, paths.CHUNK - 3):
        for count in (1, 2, 3):
            log_w = _pinned_chunk(model, part, x, MASS_OBSERVABLE, 0, start, count)[0]
            assert np.array_equal(log_w, full[start:start + count]), (start, count)


def test_pinned_chunk_takes_the_tip_norms_once(monkeypatch):
    """One pinned chunk calls jacobi._polar once: the tip count comes from
    tip_log_factors' own norms, not from a second pass over the tips."""
    calls, polar = [], jacobi._polar
    monkeypatch.setattr(jacobi, "_polar", lambda *a: calls.append(1) or polar(*a))
    x = measures._target_point(HYP3, np.array([1.0, 0.0, 0.0]))
    _pinned_chunk(HYP3, Partition(8), x, MASS_OBSERVABLE, 0, 0, 256)
    assert len(calls) == 1


def test_pinned_estimate_worker_invariance_hyperbolic():
    """A hyperbolic run of 2 CHUNK + 17 samples gives the same bits at one
    and at two workers: the pool's chunks merge in chunk order."""
    x = measures._target_point(HYP3, np.array([0.8, 0.0, 0.0]))
    N = 2 * paths.CHUNK + 17
    a = pinned_estimate(HYP3, Partition(8), x, radial_observable(0.5), n_samples=N, seed=3)
    b = pinned_estimate(HYP3, Partition(8), x, radial_observable(0.5), n_samples=N, seed=3,
                        workers=2)
    assert (a.mean, a.stderr) == (b.mean, b.stderr)
    assert np.array_equal(a.log_weights, b.log_weights)
    assert np.array_equal(a.f_values, b.f_values)
    assert a.meta["tip_cond_hits"] == b.meta["tip_cond_hits"]
    assert a.meta["weights"] == b.meta["weights"]


def test_flat_body_pass_computes_no_interval_scalar(monkeypatch):
    """A flat _body_pass keeps the free draw, builds no Intervals and no Gram
    sum (G and head are None), and returns the tip x - xi_1 - ... - xi_m
    subtracted in order, bit for bit; its log proposal ratio is 0, and it
    has no roundoff scale to check."""
    made, intervals = [], jacobi.Intervals
    monkeypatch.setattr(jacobi, "Intervals", lambda *a: made.append(intervals(*a)) or made[-1])
    inc = paths.sample_increments(FLAT2, Partition(8), 50, seed=2)
    drawn, x = inc.copy(), np.array([1.0, 0.0])
    G, head, tip, log_q, growth = measures._body_pass(FLAT2, inc.transpose(1, 2, 0)[:7], x)
    assert made == [] and G is None and head is None
    assert np.array_equal(inc, drawn) and log_q == 0.0 and growth is None
    want = np.repeat(x[:, None], 50, axis=1)
    for j in range(7):
        want = want - inc[:, j].T
    assert tip.tobytes() == want.tobytes()


def test_flat_pinned_chunk_takes_no_tip_norm(monkeypatch):
    """A flat pinned chunk builds no Intervals and calls neither
    jacobi._polar nor jacobi._positive_factor: V_x / J_P = n^{d/2} is a
    per-run constant, not per-path arithmetic."""
    calls = []
    for name in ("Intervals", "_polar", "_positive_factor"):
        monkeypatch.setattr(jacobi, name, lambda *a, name=name: calls.append(name))
    log_w = _pinned_chunk(FLAT2, Partition(8), np.array([1.0, 0.0]), MASS_OBSERVABLE,
                          0, 0, 256)[0]
    assert log_w.shape == (256,) and np.all(np.isfinite(log_w))
    assert calls == []


@pytest.mark.parametrize("d", [1, 2, 3])
def test_flat_log_weight_is_the_gaussian_term(d):
    """In flat space V_x / J_P = n^{d/2} for every path, so a chunk's
    log-weight is -(d/2) log 2 pi - (n/2) |x - sum_{i<n} xi_i|^2
    + (d/2) log n, recomputed here from the increments alone."""
    model = CurvatureModel("flat", d)
    x = np.linspace(0.7, -0.4, d)
    for n in (1, 2, 8):
        inc = paths.sample_increments(model, Partition(n), 300, seed=4)
        xi_x = x - inc[:, :n - 1].sum(axis=1)
        want = (-0.5 * d * np.log(2 * np.pi) - 0.5 * n * np.sum(xi_x * xi_x, axis=1)
                + 0.5 * d * np.log(n))
        got = _pinned_chunk(model, Partition(n), x, MASS_OBSERVABLE, 4, 0, 300)[0]
        assert np.all(np.abs(got - want) <= 1e-13 * (1.0 + np.abs(want))), (d, n)
