"""Acceptance gates: one test (and one printed pass/fail line) per criterion.

These run the full-size configurations, so the file takes a few minutes;
everything is seeded and deterministic at a fixed worker count.
"""

import json
import os
import time

import numpy as np
from click.testing import CliRunner

from pinpath import cli, diagnostics, geom, jacobi, measures, paths
from pinpath.geom import CurvatureModel
from pinpath.jacobi import Partition

from tests.oracles import (cs_rk4, det_identity_check, lift_competitor_deficit,
                           lift_orthogonality, pinned_fdd_oracle)

HYP2 = CurvatureModel("hyperbolic", 2, 1.0)
HYP3 = CurvatureModel("hyperbolic", 3, 1.0)

E1_3 = np.array([1.0, 0.0, 0.0])


def report(name, ok, detail):
    line = "criterion %s: %s — %s" % (name, "PASS" if ok else "FAIL", detail)
    print(line)
    return ok


def test_criterion_01_flat_exactness():
    """Flat mass estimates hit the Gaussian kernel to 3 stderr, 27 cells."""
    worst = 0.0
    slowest = 0.0
    for d in (1, 2, 3):
        model = CurvatureModel("flat", d)
        for n in (2, 4, 8):
            for r in (0.0, 1.0, 2.0):
                x = np.zeros(d)
                x[0] = r
                t0 = time.perf_counter()
                res = measures.pinned_estimate(model, Partition(n), x,
                                               measures.MASS_OBSERVABLE,
                                               200000, seed=0)
                slowest = max(slowest, time.perf_counter() - t0)
                oracle = (2 * np.pi) ** (-d / 2) * np.exp(-r * r / 2)
                worst = max(worst, abs(res.mean - oracle) / res.stderr)
    ok = worst <= 3.0 and slowest < 60.0
    assert report("1 (flat exactness)", ok,
                  "worst %.2f sigma over 27 cells, slowest cell %.1fs"
                  % (worst, slowest)), (worst, slowest)


def test_criterion_02_hyperbolic_refinement():
    """d=3 kernel error shrinks with n and ends below max(2%, 3 stderr)."""
    p1 = measures.heat_kernel_exact(HYP3, 1.0, rho=1.0)
    t0 = time.perf_counter()
    rows = []
    for n in (4, 8, 16, 32):
        res = measures.pinned_estimate(HYP3, Partition(n), E1_3,
                                       measures.MASS_OBSERVABLE, 200000, seed=0)
        rows.append((n, res.stderr, abs(res.mean - p1)))
    wall = time.perf_counter() - t0
    mono = all(b[2] <= a[2] + 2 * (a[1] + b[1]) for a, b in zip(rows, rows[1:]))
    final_ok = rows[-1][2] <= max(0.02 * p1, 3 * rows[-1][1])
    ok = mono and final_ok and wall < 600.0
    assert report("2 (hyperbolic refinement)", ok,
                  "errors %s, final rel %.2f%%, %.0fs"
                  % (["%.2e" % r[2] for r in rows],
                     100 * rows[-1][2] / p1, wall)), rows


def test_criterion_03_midpoint_observable():
    """Midpoint g(r) = r at n=32 matches the split-time quadrature oracle."""
    obs = measures.radial_observable(0.5, "r")
    res = measures.pinned_estimate(HYP3, Partition(32), E1_3, obs,
                                   200000, seed=0)
    oracle, err_est = pinned_fdd_oracle(HYP3, 1.0, lambda r: r)
    gate = max(0.03 * abs(oracle), 3 * res.stderr)
    gap = abs(res.mean - oracle)
    ok = gap <= gate and err_est < 1e-4
    assert report("3 (midpoint observable)", ok,
                  "est %.6g vs oracle %.6g, gap %.2e <= gate %.2e"
                  % (res.mean, oracle, gap, gate)), (res.mean, oracle)


def test_criterion_04_interval_solver_cross_check():
    """Closed interval solutions vs 1000-substep RK4 on 100 random draws."""
    rng = np.random.default_rng(107)
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(1, 4))
        kappa = float(rng.uniform(0.1, 4.0))
        model = CurvatureModel("hyperbolic", d, kappa)
        xi = rng.normal(size=d)
        h = float(rng.uniform(0.05, 1.0))
        Cc, Sc = jacobi.batch_cs(model, h * xi, h)
        Cr, Sr, _, _ = cs_rk4(kappa, xi, h, steps=1000)
        worst = max(worst, float(np.max(np.abs(Cc - Cr))),
                    float(np.max(np.abs(Sc - Sr))))
    ok = worst <= 1e-8
    assert report("4 (interval solver)", ok,
                  "max |closed - rk4| = %.2e over 100 draws" % worst), worst


def test_criterion_05_property_suites():
    """Pathwise inequality sweep: 1000 paths, n=64, kappa <= 2, d <= 3."""
    models = [CurvatureModel("hyperbolic", d, k)
              for d in (1, 2, 3) for k in (1.0, 2.0)]
    models += [CurvatureModel("flat", d) for d in (1, 2, 3)]
    rep = diagnostics.property_sweep(models, 1000, n=64, seed=0)
    ok = rep.total_violations == 0
    assert report("5 (property suites)", ok,
                  "%d violations over %d paths" % (rep.total_violations,
                                                   rep.n_paths)), rep.summary()


def test_criterion_06_exponential_moment():
    """E[exp(0.2 sum |db|^2)] matches (1 - 0.4/n)^{-n} at n=8, d=2."""
    part = Partition(8)
    inc = paths.sample_increments(CurvatureModel("flat", 2), part, 200000, seed=0)
    stat = np.exp(0.2 * np.sum(inc ** 2, axis=(1, 2)))
    want = (1.0 - 0.4 / 8.0) ** (-8.0)
    se = stat.std(ddof=1) / np.sqrt(len(stat))
    gap = abs(stat.mean() - want)
    ok = gap <= 3 * se
    assert report("6 (exponential moment)", ok,
                  "mean %.6f vs %.6f (%.2f sigma)"
                  % (stat.mean(), want, gap / se)), (stat.mean(), want, se)


def test_criterion_07_convergence_suite():
    """Medians fall strictly in n and the response-rate fit is >= 0.4."""
    reps = diagnostics.convergence_suite(HYP2, [8, 16, 32, 64, 128], 200, seed=0)
    mono = {k: bool(np.all(np.diff(r.q50) < 0)) for k, r in reps.items()}
    slope = reps["f"].slope
    ok = all(mono.values()) and slope >= 0.4
    assert report("7 (convergence suite)", ok,
                  "monotone %s, f slope %.3f" % (mono, slope)), (mono, slope)


def test_criterion_08_lift_identities():
    """Endpoint, orthogonality, and minimality of 1000 lifts (100 competitors)."""
    part = Partition(8)
    inc = paths.sample_increments(HYP2, part, 1000, seed=0)
    field = diagnostics.projected_constant_field(HYP2)
    C, S = jacobi.batch_cs(HYP2, inc, part.mesh)
    f_end = jacobi.batch_endpoint_f(C, S, part.mesh)
    slopes, coords = diagnostics._batched_lift_slopes(HYP2, part, inc, field, C, S)[:2]
    knots = jacobi.jacobi_from_slopes(C, S, slopes)
    worst_res = float(np.max(np.abs(knots[:, -1] - coords)))
    worst_orth, worst_def = 0.0, np.inf
    for i in range(1000):
        worst_orth = max(worst_orth, lift_orthogonality(f_end[i], slopes[i])["residual"])
        worst_def = min(worst_def,
                        lift_competitor_deficit(f_end[i], slopes[i], count=100, seed=i))
    ok = worst_res <= 1e-10 and worst_orth <= 1e-8 and worst_def >= -1e-10
    assert report("8 (lift identities)", ok,
                  "endpoint %.1e, orthogonality %.1e, min deficit %.1e"
                  % (worst_res, worst_orth, worst_def)), (worst_res, worst_orth,
                                                          worst_def)


def test_criterion_09_integration_by_parts():
    """Paired IBP difference within 3 stderr at n=4, d=2, N=1e5."""
    f_obs = measures.CylinderObservable(
        "exp_r2_end", (1.0,), 1.0, "exp_radial2", {"times": [1.0], "scales": [2.0]})
    g_obs = measures.CylinderObservable(
        "exp_r2_mid_end", (0.5, 1.0), 1.0, "exp_radial2",
        {"times": [0.5, 1.0], "scales": [4.0, 4.0]})
    res = diagnostics.ibp_check(HYP2, Partition(4), f_obs, g_obs, 100000, seed=0)
    ok = res.passed
    assert report("9 (integration by parts)", ok, res.summary()), res.summary()


def test_criterion_10_determinism(tmp_path):
    """Identical configs give identical CSVs; algebraic identities hold."""
    runner = CliRunner()
    cfg_path = str(tmp_path / "cfg.json")
    with open(cfg_path, "w") as fh:
        json.dump({"model": "flat", "d": 2, "n": "4,8", "N": 4096,
                   "x": [1.0, 0.0], "seed": 5}, fh)
    csvs = []
    for tag in ("a", "b"):
        out = str(tmp_path / tag)
        r = runner.invoke(cli.main, ["pinned", "--config", cfg_path, "--out", out],
                          catch_exceptions=False)
        assert r.exit_code == 0, r.output
        with open(os.path.join(out, "pinned_results.csv")) as fh:
            csvs.append(fh.read())
    same_csv = csvs[0] == csvs[1]

    conv = []
    for tag in ("ca", "cb"):
        out = str(tmp_path / tag)
        r = runner.invoke(cli.main, ["converge", "--model", "hyperbolic", "--d", "2",
                                     "--kappa", "1", "--n", "8,16,32,64",
                                     "--samples", "50", "--seed", "1", "--out", out],
                          catch_exceptions=False)
        with open(os.path.join(out, "converge_f.csv")) as fh:
            conv.append(fh.read())
    same_conv = conv[0] == conv[1]

    part = Partition(16)
    inc = paths.sample_increments(HYP2, part, 100, seed=9)
    pts, _ = paths.roll_batch(HYP2, inc)
    roll_gap = float(np.max(np.abs(paths.anti_roll(HYP2, pts) - inc)))

    rng = np.random.default_rng(113)
    det_ok = True
    for _ in range(100):
        d = int(rng.integers(1, 5))
        n = int(rng.integers(2, 9))
        _, _, okk = det_identity_check(rng.normal(size=(d, (n - 1) * d)), rtol=1e-10)
        det_ok = det_ok and okk
    ok = same_csv and same_conv and roll_gap <= 1e-9 and det_ok
    assert report("10 (determinism & identities)", ok,
                  "csv identical %s/%s, roll roundtrip %.1e, det identity %s"
                  % (same_csv, same_conv, roll_gap, det_ok)), (same_csv, same_conv,
                                                               roll_gap, det_ok)
