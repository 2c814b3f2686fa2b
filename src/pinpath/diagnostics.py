"""Lifts, convergence-rate reports, and integration-by-parts checks.

Everything here consumes batches of increments and their rolled knots
(paths.py) together with their interval response matrices (jacobi.py) and
compares discrete objects against the damped closed forms (damped.py).  All
report objects are CSV-serializable and carry explicit pass/fail gates so the
CLI can turn them into exit codes.
"""

from dataclasses import dataclass, field
from math import comb

import numpy as np

from . import damped, geom, jacobi, measures, paths
from .geom import CurvatureModel, NumericalError
from .jacobi import COND_LIMIT, Partition

FD_STEP = 1e-5    # central-difference step for chart perturbations
DIV_STEP = 1e-3   # larger outer step for divergence-of-velocity differences
FLAT_FLOOR = 1e-13  # below this a statistic counts as identically zero
TABLE_FLOATS = 2 ** 16  # convergence_suite carries n d^2 numbers per path in blocks of this many
# ibp_check drops samples whose chart matrix M is worse conditioned
CHART_COND_LIMIT = COND_LIMIT / 100
SCALAR_SUBSAMPLE = 256   # ibp_check's scalar_gap compares this many samples
GRADIENT_SUBSAMPLE = 32  # and its gradient_gap this many


# ---------------------------------------------------------------------------
# endpoint vector fields
# ---------------------------------------------------------------------------

def projected_constant_field(model):
    """Return X(p) = tangent projection of a fixed ambient vector.

    Smooth and bounded on the whole space; the direction is a fixed unit
    vector so reports are reproducible.  Works on batched points.
    """
    direction = np.arange(1.0, model.ambient_dim + 1.0)
    direction /= np.linalg.norm(direction)

    def field(p):
        p = np.asarray(p, dtype=float)
        return geom.project_tangent(model, p, np.broadcast_to(direction, p.shape))

    return field


# ---------------------------------------------------------------------------
# lift of an endpoint vector field through the pinning map
# ---------------------------------------------------------------------------

def _endpoint_coords(model, point, frame, x_vector):
    """Frame coordinates of the tangent projection of X at the endpoint(s).

    x_vector is an ambient vector or a callable point -> vector; point (..., D),
    frame (..., D, d).
    """
    vec = x_vector(point) if callable(x_vector) else np.asarray(x_vector, dtype=float)
    return geom.frame_coords(model, frame, geom.project_tangent(model, point, vec))


def _lift_slopes(f_end, delta, coords):
    """The lift's core: coefficients K(1)^{-1} coords and slopes k_i = f_{i+1}(1)^T coeff.

    f_end (..., n, d, d) holds f_i(1); coords (..., d).  Returns (coeff, slopes).
    """
    mass = jacobi.batch_mass_matrix(f_end, delta)
    coeff = np.linalg.solve(mass, coords[..., None])[..., 0]
    return coeff, np.einsum("...iab,...a->...ib", f_end, coeff)


def _batched_lift_slopes(model, part, inc, x_field, C, S):
    """Slopes of the lift for a batch of increment charts with interval
    solutions C, S (jacobi.batch_cs of inc).

    Returns (slopes (N,n,d), endpoint coords (N,d), points, frames).
    """
    pts, frs = paths.roll_batch(model, inc)
    coords = _endpoint_coords(model, pts[:, -1], frs[:, -1], x_field)
    f_end = jacobi.batch_endpoint_f(C, S, part.mesh)
    return _lift_slopes(f_end, part.mesh, coords)[1], coords, pts, frs


# ---------------------------------------------------------------------------
# convergence reports
# ---------------------------------------------------------------------------

@dataclass
class ConvergenceReport:
    statistic: str
    n_values: list
    q05: np.ndarray
    q50: np.ndarray
    q95: np.ndarray
    mean: np.ndarray
    slope: float
    passed: bool
    notes: dict = field(default_factory=dict)

    def to_csv(self, fh):
        fh.write("schema=1\n")
        fh.write("n,q05,q50,q95,mean,slope,pass\n")
        for k, n in enumerate(self.n_values):
            fh.write(",".join([
                repr(n), repr(float(self.q05[k])), repr(float(self.q50[k])),
                repr(float(self.q95[k])), repr(float(self.mean[k])),
                repr(float(self.slope)), str(self.passed),
            ]) + "\n")

    def table(self):
        lines = ["statistic: %s   slope=%.3f   pass=%s"
                 % (self.statistic, self.slope, self.passed)]
        lines.append("%6s %12s %12s %12s %12s" % ("n", "q05", "q50", "q95", "mean"))
        for k, n in enumerate(self.n_values):
            lines.append("%6d %12.4e %12.4e %12.4e %12.4e"
                         % (n, self.q05[k], self.q50[k], self.q95[k], self.mean[k]))
        return "\n".join(lines)


def _fit_slope(n_values, values):
    """Least-squares slope of log(values) against log(n), sign-flipped.

    Needs >= 4 points; all-zero values give +inf (exactly converged).
    """
    n_values = np.asarray(n_values, dtype=float)
    values = np.asarray(values, dtype=float)
    if len(n_values) < 4:
        return float("nan")
    if np.all(values <= FLAT_FLOOR):
        return float("inf")
    good = values > 0
    if good.sum() < 4:
        return float("inf")
    coeff = np.polyfit(np.log(n_values[good]), np.log(values[good]), 1)
    return float(-coeff[0])


def _decreasing(medians):
    """Strictly decreasing, or identically zero."""
    m = np.asarray(medians, dtype=float)
    return bool(np.all(m <= FLAT_FLOOR) or np.all(np.diff(m) < 0))


def _report(statistic, n_values, stats_per_n, gate):
    """Assemble a ConvergenceReport from per-n sample arrays.

    The monotone / quarter-rule gates act on medians (robust against the
    heavy tails of the sup statistics); the fitted rate uses the mean curve,
    whose small-window fit tracks the asymptotic rate much closer than the
    median's (the medians lag the CLT scale on coarse partitions).

    gate: "slope" (medians decreasing and slope >= 0.4),
          "quarter" (strictly decreasing and final < initial / 4),
          "decreasing" (medians decreasing).
    """
    q05 = np.array([np.quantile(s, 0.05) for s in stats_per_n])
    q50 = np.array([np.quantile(s, 0.50) for s in stats_per_n])
    q95 = np.array([np.quantile(s, 0.95) for s in stats_per_n])
    mean = np.array([np.mean(s) for s in stats_per_n])
    slope = _fit_slope(n_values, mean)
    zero = bool(np.all(q50 <= FLAT_FLOOR) and np.all(mean <= FLAT_FLOOR))
    if gate == "slope":
        passed = zero or (_decreasing(q50)
                          and (slope >= 0.4 or slope == float("inf")))
    elif gate == "quarter":
        passed = zero or (_decreasing(q50) and q50[-1] < q50[0] / 4)
    else:
        passed = zero or _decreasing(q50)
    return ConvergenceReport(statistic, list(n_values), q05, q50, q95, mean,
                             slope, passed, notes={"identically_zero": zero})


def convergence_suite(model, n_values, samples, seed=0, statistics=("f", "K", "J", "adjoint"),
                      x_field=None):
    """Compute the requested convergence statistics over shared sample paths.

    Sample paths use common random drivers: one batch of increments is drawn
    at the finest n and coarse-grained (consecutive sums) for every coarser n
    that divides it, so the per-n statistics are positively coupled and the
    monotone-in-n comparisons are made on refinements of the same underlying
    Brownian path.  n values that do not divide the finest one fall back to
    independent draws.  Each statistic is the per-path sup over knots of the
    named discrepancy against the damped closed form.  Returns
    {name: ConvergenceReport}.

    Orientation note: the interval response matrices have eigenvalues >= 1 and
    their products grow, so the transported profile they approach is the
    *inverse* transport ratio t(s_i)/t(s_j) (these are scalars here and
    commute), and the mass-matrix limit is the undressed profile
    e^c * K-profile; the lift ratio K(s)/K(1) is dressing-invariant.  The
    stored damped module keeps the decaying normalization, which is what the
    scalar example values pin down.
    """
    if x_field is None:
        x_field = projected_constant_field(model)
    n_values = [int(n) for n in n_values]
    ric = damped.ric_scalar(model)
    collected = {name: [] for name in statistics}

    n_fine = max(n_values)
    inc_fine = paths.sample_increments(model, Partition(n_fine), samples, seed)

    for n in n_values:
        part = Partition(n)
        knots = part.knots
        t_prof = damped.t_profile(ric, knots)             # (n+1,) decaying
        k_prof = damped.k_profile(ric, knots)             # (n+1,)
        k_cmp = np.exp(ric) * k_prof                      # undressed profile
        ctil = damped.ctilde_scalar(ric)
        # family row i carries one S-factor (-> identity in the limit) and
        # C-products over (s_i, s_j], so its transport ratio is
        # t(s_i) / t(s_j) = e^{+c (s_j - s_i)/2}
        ratio = t_prof[:, None] / t_prof[None, :]

        if n_fine % n == 0:
            group = n_fine // n
            inc = inc_fine.reshape(samples, n, group, model.dim).sum(axis=2)
        else:
            inc = paths.sample_increments(model, part, samples, seed + 7 * n)
        pts, frs = paths.roll_batch(model, inc)
        coords = _endpoint_coords(model, pts[:, -1], frs[:, -1], x_field)  # (samples, d)

        # blocks of samples bound the n d^2 numbers per path of each stack
        block = max(1, TABLE_FLOATS // (n * model.dim ** 2))
        per_stat = {name: [] for name in statistics}
        for lo in range(0, samples, block):
            b_inc, b_coords = inc[lo:lo + block], coords[lo:lo + block]
            C, S = jacobi.batch_cs(model, b_inc, part.mesh)
            f_end = jacobi.batch_endpoint_f(C, S, part.mesh)
            coeff, slopes = _lift_slopes(f_end, part.mesh, b_coords)
            found = (_knot_sups(C, S, f_end, coeff, b_coords, ratio, k_cmp,
                                k_prof / k_prof[-1])
                     if set(statistics) - {"adjoint"} else {})
            discrete = np.einsum("nid,nid->n", slopes, b_inc)
            weights = (b_inc * t_prof[:-1, None]).sum(axis=1)
            limit = ctil * np.einsum("nd,nd->n", b_coords, weights)
            found["adjoint"] = np.abs(discrete - limit)
            for name in statistics:
                per_stat[name].append(found[name])
        for name in statistics:
            collected[name].append(np.concatenate(per_stat[name]))

    gates = {"f": "slope", "K": "quarter", "J": "quarter", "adjoint": "decreasing"}
    return {name: _report(name, n_values, collected[name], gates[name])
            for name in statistics}


def _knot_sups(C, S, f_end, coeff, coords, ratio, k_cmp, j_prof):
    """Per-path sups over the knots s_j of the f, K and J discrepancies.

    One forward pass carries the stack [f_1(s_j) ... f_j(s_j)] as a (d, j d)
    block, so f <- C_j f is one product per knot and f_j(s_j) = S_j / delta
    is the new column block; K(s_j) = delta sum_{i<=j} f_i(s_j) f_i(1)^T is
    that block times the one of f_end (f_i(1), from the suffix pass), and
    the lift's knot value is J(s_j) = K(s_j) c for its coefficients c.
    """
    B, n, d = f_end.shape[:3]
    delta = 1.0 / n
    stack = np.zeros((B, d, n * d))
    ends = np.swapaxes(f_end, 1, 2).reshape(B, d, n * d)
    eye = np.eye(d)
    sups = {name: np.zeros(B) for name in ("f", "K", "J")}
    for j in range(1, n + 1):
        old, new = slice(0, (j - 1) * d), slice((j - 1) * d, j * d)
        stack[:, :, old] = C[:, j - 1] @ stack[:, :, old]
        stack[:, :, new] = S[:, j - 1] / delta
        f_j = stack[:, :, :j * d].reshape(B, d, j, d)
        f_gap = f_j - ratio[1:j + 1, j, None] * eye[:, None, :]
        K = delta * (stack[:, :, :j * d] @ np.swapaxes(ends[:, :, :j * d], 1, 2))
        lift_J = np.einsum("nab,nb->na", K, coeff)
        gaps = {"f": np.linalg.norm(f_gap, axis=(1, 3)).max(axis=1),
                "K": np.linalg.norm(K - k_cmp[j] * eye, axis=(-2, -1)),
                "J": np.linalg.norm(lift_J - j_prof[j] * coords, axis=-1)}
        for name, gap in gaps.items():
            np.maximum(sups[name], gap, out=sups[name])
    return sups


# ---------------------------------------------------------------------------
# chart-level integration by parts
# ---------------------------------------------------------------------------

def _chart_velocity(model, part, inc, x_field):
    """Solve M v = k for the increment-chart velocity of the lift.

    M's columns are the slopes of the fields of unit chart perturbations
    (paths.chart_slopes); M is block lower triangular with diagonal blocks
    n I, and n I in flat space.  Returns (velocity (N, n*d), slopes k
    (N, n, d), M (N, nd, nd), and the knots (N, n+1, D) and frames
    (N, n+1, D, d) of the roll of inc).
    """
    N, nd = inc.shape[0], part.n * model.dim
    M = paths.chart_slopes(model, inc).reshape(N, nd, nd)
    C, S = jacobi.batch_cs(model, inc, part.mesh)
    slopes, _, base_pts, base_frs = _batched_lift_slopes(model, part, inc, x_field, C, S)
    velocity = np.linalg.solve(M, slopes.reshape(N, nd)[..., None])[..., 0]
    return velocity, slopes, M, base_pts, base_frs


def _central_difference(fn, inc, direction, step):
    """Derivative along direction of fn, a map from (N, n, d) arrays (chart
    increments, or steps at knots) to arrays whose last axis runs over the
    samples, by a central difference of size step along the unit direction
    rescaled by its norm, so large directions stay safe.  direction is
    (N, n, d), one per sample, or (1, n, d), one for all.
    """
    norms = np.linalg.norm(direction.reshape(direction.shape[0], -1), axis=1)
    shift = direction / np.where(norms > 0, norms, 1.0)[:, None, None]
    shift *= step
    return norms * (fn(inc + shift) - fn(inc - shift)) / (2 * step)


def _directional_derivative(model, part, inc, direction, observables):
    """Central differences of cylinder observables along a chart direction
    (N, n, d); one pair of rolls serves every observable.  Returns
    (len(observables), N).
    """
    def observe(z):
        pts = paths.roll_batch(model, z)[0]
        return np.stack([obs.evaluate(model, paths.knots_at(part, obs.times, pts))
                         for obs in observables])

    return _central_difference(observe, inc, direction, FD_STEP)


@dataclass
class IbpResult:
    lhs_mean: float
    lhs_stderr: float
    rhs_mean: float
    rhs_stderr: float
    diff_mean: float
    diff_stderr: float
    n_used: int
    n_aborted: int
    passed: bool
    scalar_gap: dict
    gradient_gap: dict

    def summary(self):
        return ("ibp lhs=%.6g+-%.2g rhs=%.6g+-%.2g diff=%.3g+-%.2g "
                "used=%d aborted=%d pass=%s"
                % (self.lhs_mean, self.lhs_stderr, self.rhs_mean, self.rhs_stderr,
                   self.diff_mean, self.diff_stderr, self.n_used, self.n_aborted,
                   self.passed))


def ibp_check(model, partition, f_obs, g_obs, n_samples, seed=0):
    """Gaussian integration by parts in the increment chart.

    Compares E[(Xf) g] with E[f (-Xg + m g)] where X differentiates along the
    chart velocity of the lift of projected_constant_field and
    m = n * <z, V> - div_z V with the divergence taken by outer central
    differences of the velocity field.  Samples whose chart matrix M has
    condition number above CHART_COND_LIMIT are dropped (counted in
    n_aborted).  Pass gate: paired difference within 3 stderr.

    Two ungated reports ride along.  scalar_gap compares the chart
    multiplication scalar with the slope-pairing-minus-divergence form
    computed directly on path space (on the first SCALAR_SUBSAMPLE samples);
    gradient_gap compares Xg with the damped-field pairing, the lift's
    continuum limit (on the first GRADIENT_SUBSAMPLE samples).
    """
    if n_samples < 2:
        raise ValueError("need at least 2 samples")
    x_field = projected_constant_field(model)
    part = partition
    n, d = part.n, model.dim
    nd = n * d
    inc = paths.sample_increments(model, part, n_samples, seed)

    velocity, slopes, M, base_pts, base_frs = _chart_velocity(model, part, inc, x_field)
    keep = np.linalg.cond(M) <= CHART_COND_LIMIT
    n_aborted = int((~keep).sum())
    # gradient_gap reads only its subsample's frames; the rest are not held on
    base_frs = base_frs[np.flatnonzero(keep)[:GRADIENT_SUBSAMPLE]]
    inc, velocity, slopes, M, base_pts = (a[keep] for a in (inc, velocity, slopes, M, base_pts))
    N = inc.shape[0]
    if N < 2:
        raise NumericalError("all but %d samples aborted on conditioning" % N)

    f_vals = f_obs.evaluate(model, paths.knots_at(part, f_obs.times, base_pts))
    g_vals = g_obs.evaluate(model, paths.knots_at(part, g_obs.times, base_pts))
    xf, xg = _directional_derivative(model, part, inc, velocity.reshape(N, n, d),
                                     (f_obs, g_obs))

    # divergence of the chart velocity by outer central differences
    div = np.zeros(N)
    for col in range(nd):
        axis = np.eye(nd)[col].reshape(1, n, d)
        div += _central_difference(
            lambda z: _chart_velocity(model, part, z, x_field)[0][:, col], inc, axis, DIV_STEP)

    mult = n * np.einsum("nc,nc->n", inc.reshape(N, nd), velocity) - div
    lhs = xf * g_vals
    rhs = f_vals * (-xg + mult * g_vals)
    diff = lhs - rhs

    lhs_mean = float(np.mean(lhs))
    lhs_err = float(np.std(lhs, ddof=1) / np.sqrt(N))
    rhs_mean = float(np.mean(rhs))
    rhs_err = float(np.std(rhs, ddof=1) / np.sqrt(N))
    diff_mean = float(np.mean(diff))
    diff_err = float(np.std(diff, ddof=1) / np.sqrt(N))
    passed = abs(diff_mean) <= 3 * diff_err if diff_err > 0 else abs(diff_mean) < 1e-12

    sub = slice(SCALAR_SUBSAMPLE)
    scalar = _scalar_gap(model, part, inc[sub], slopes[sub], M[sub], mult[sub], x_field)
    sub = slice(GRADIENT_SUBSAMPLE)
    gradient = _gradient_gap(model, part, g_obs, xg[sub], base_pts[sub], base_frs, x_field)
    return IbpResult(lhs_mean, lhs_err, rhs_mean, rhs_err, diff_mean, diff_err,
                     N, n_aborted, passed, scalar, gradient)


def _scalar_gap(model, part, inc, slopes, M, mult, x_field):
    """Ungated comparison of the two multiplication scalars on a subsample.

    Chart form: n <z, V> - div_z V (already in `mult`).  Path-space form:
    sum_i <slope_i, increment_i> minus the divergence over the
    slope-orthonormal directions, the latter by central differences of the
    lift slopes along chart velocities that realize those directions
    (columns of M^{-1}).  The pairing needs no extra scale factor: the chart
    velocity is the increment representation of the slope list, so
    n <z, V> is already the slope/increment pairing.
    """
    N = inc.shape[0]
    n, d = part.n, model.dim
    nd = n * d
    # chart velocities realizing the orthonormal slope directions sqrt(n) e_col
    basis_vel = np.linalg.solve(M, np.sqrt(n) * np.broadcast_to(np.eye(nd), (N, nd, nd)))
    div_path = np.zeros(N)
    for col in range(nd):
        i, a = divmod(col, d)
        dslope = _central_difference(
            lambda z: _batched_lift_slopes(model, part, z, x_field,
                                           *jacobi.batch_cs(model, z, part.mesh))[0][:, i, a],
            inc, basis_vel[:, :, col].reshape(N, n, d), FD_STEP)
        div_path += dslope / np.sqrt(n)
    pairing = np.einsum("nid,nid->n", slopes, inc)
    path_scalar = pairing - div_path
    gap = mult - path_scalar
    return {
        "median_abs_gap": float(np.median(np.abs(gap))),
        "mean_gap": float(np.mean(gap)),
        "subsample": int(N),
    }


def _gradient_gap(model, part, observable, chart_side, points, frames, x_field):
    """Ungated comparison of a chart derivative with the damped-gradient pairing.

    chart_side (N,) is Xf for the observable f along the chart velocity of the
    lift (as in ibp_check); the pairing takes the damped closed-form field
    k(s_j) / k(1) X at each knot time s_j of f with the frame-coordinate
    gradient of f at that knot.  It is linear in the field, so it is one
    central difference along it: every knot of f moves at once by exp_frame
    (the knot at s = 0, where the field is 0, stays).  points (N, n+1, D) and frames (N, n+1, D, d) are the knots
    and frames of the paths' roll: a geodesic step split into sub-steps is the
    same geodesic with the same transport, so they are also those of the
    continuum development.  The gap mixes discretization effects and is
    reported, not gated.
    """
    coords = _endpoint_coords(model, points[:, -1], frames[:, -1], x_field)
    k_prof = damped.k_profile(damped.ric_scalar(model), part.knots)
    knots = [part.knot_index(t) for t in observable.times]
    damped_field = (k_prof[knots] / k_prof[-1])[None, :, None] * coords[:, None, :]

    def observe(v):
        return observable.evaluate(
            model, geom.exp_frame(model, points[:, knots], frames[:, knots], v)[0])

    pair_side = _central_difference(observe, np.zeros_like(damped_field), damped_field,
                                    FD_STEP)
    gap = chart_side - pair_side
    return {
        "median_abs_gap": float(np.median(np.abs(gap))),
        "median_abs_chart": float(np.median(np.abs(chart_side))),
        "n_samples": chart_side.shape[0],
    }


# ---------------------------------------------------------------------------
# pathwise property sweep (positivity / bounds audit)
# ---------------------------------------------------------------------------

PROPS_STAGES = ("draw", "intervals", "gram_and_tip", "margins")


@dataclass
class PropertyReport:
    n_paths: int
    violations: dict
    worst: dict
    stage_s: dict       # seconds of each of PROPS_STAGES, summed over models

    @property
    def total_violations(self):
        return int(sum(self.violations.values()))

    def summary(self):
        parts = ["paths=%d" % self.n_paths]
        for key in sorted(self.violations):
            parts.append("%s: violations=%d worst=%.3e"
                         % (key, self.violations[key], self.worst[key]))
        return "\n".join(parts)


def property_sweep(model_list, n_paths, n=64, seed=0):
    """Audit pathwise inequalities over random broken geodesics.

    For each model in model_list, draws paths and checks: mass-matrix
    eigenvalues >= 1, normal Jacobian >= 1, slope-determinant product >= 1,
    interval response bounds (|C| below the curvature cosh envelope, |S - sI|
    and |C - I| below their envelopes), and the endpoint volume factor below
    its combinatorial envelope.  Returns a PropertyReport counting violations
    (tolerances: 1e-10 on eigenvalues, 1e-12 on determinants), with the
    seconds of each of PROPS_STAGES: the draw, the interval solutions
    (batch_cs), the Gram pass with the tip factors, and the margins.
    """
    tolerance = {"mass_eig": 1e-10, "normal_jacobian": 1e-12, "slope_det": 1e-12,
                 "response_bound": 1e-10, "volume_bound": 1e-8}
    violations = {c: 0 for c in tolerance}
    worst = {c: np.inf for c in tolerance}
    per_model = max(1, n_paths // max(1, len(model_list)))
    part = Partition(n)
    h = part.mesh
    clock = measures._StageClock(PROPS_STAGES)

    for m_idx, model in enumerate(model_list):
        inc = paths.sample_increments(model, part, per_model, seed + 101 * m_idx)
        big_n = model.curvature_bound
        clock.lap("draw")
        C, S = jacobi.batch_cs(model, inc, h)
        clock.lap("intervals")
        # the estimator's route: Gram pass over the body, the last increment as tip
        G, head = jacobi.gram_pass(model, inc[:, :-1])
        log_jp, log_vx, _ = jacobi.tip_log_factors(model, G, head, inc[:, -1], n)
        clock.lap("gram_and_tip")
        # K(1) = h (C_n G C_n^T + (S_n/h)(S_n/h)^T), one Gram step past the body
        C_n, S_n = C[:, -1], S[:, -1] / h
        K = h * (C_n @ G @ np.swapaxes(C_n, -1, -2) + S_n @ np.swapaxes(S_n, -1, -2))
        margins = {
            "mass_eig": np.linalg.eigvalsh(K).min(axis=-1) - 1.0,
            "normal_jacobian": np.exp(log_jp) - 1.0,
            "slope_det": np.exp(jacobi.log_rho_P(S, h)) - 1.0,
            "response_bound": _response_bound_margin(inc, C, S, h, big_n),
            "volume_bound": _volume_bound_margin(log_vx, inc, big_n),
        }
        for c, margin in margins.items():
            worst[c] = min(worst[c], float(margin.min()))
            violations[c] += int(np.sum(margin < -tolerance[c]))
        clock.lap("margins")
    return PropertyReport(per_model * len(model_list), violations, worst, clock.seconds)


def _response_bound_margin(inc, C, S, h, big_n):
    """Per path, the smallest slack in the interval response envelopes.

    inc (N, n, d); C, S (N, n, d, d) from batch_cs at step h, symmetric, so
    the spectral norms of C, C - I and S - hI are the largest |eigenvalue| of
    C, minus 0 and 1, and of S minus h: one eigvalsh of each.
    """
    speed = np.linalg.norm(inc / h, axis=-1)                  # (N, n)
    lam_c, lam_s = np.linalg.eigvalsh(C), np.linalg.eigvalsh(S)
    grow = np.exp(big_n * speed ** 2 * h ** 2 / 2.0)
    margin = np.minimum.reduce([
        np.cosh(np.sqrt(big_n) * speed * h) - np.abs(lam_c).max(axis=-1),
        big_n * speed ** 2 * h ** 3 / 6.0 * grow - np.abs(lam_s - h).max(axis=-1),
        big_n * speed ** 2 * h ** 2 / 2.0 * grow - np.abs(lam_c - 1.0).max(axis=-1),
    ])
    return margin.min(axis=-1)


def _volume_bound_margin(log_vx, inc, big_n):
    """Per path, the slack of V_x under its combinatorial envelope.

    x is the path's own endpoint, so the tip is the last increment of inc
    (N, n, d); log_vx (N,) from tip_log_factors.
    """
    N, n, d = inc.shape
    if n < 2:
        return np.zeros(N)
    dist_tip = np.linalg.norm(inc[:, -1], axis=-1)
    log_leg_sum = big_n * np.sum(np.linalg.norm(inc, axis=-1) ** 2, axis=-1)
    bound = sum(comb(d, k) * n ** (k / 2.0)
                * np.exp(k * big_n * dist_tip ** 2 / 2.0 + k * log_leg_sum)
                for k in range(d + 1))
    return bound - np.exp(log_vx)
