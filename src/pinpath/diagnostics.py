"""Lifts, convergence-rate reports, and integration-by-parts checks.

Everything here consumes batches of increments, with their interval
solutions as the scalars and actions of jacobi.Intervals and, where an
observable reads them, their rolled knots (paths.py), and compares discrete
objects against the damped closed forms (damped.py).  All report objects are
CSV-serializable and carry explicit pass/fail gates so the CLI can turn them
into exit codes.
"""

from dataclasses import dataclass, field
from math import comb

import numpy as np

from . import damped, geom, jacobi, measures, paths
from .geom import CurvatureModel, NumericalError
from .jacobi import COND_LIMIT, Partition

FD_STEP = 1e-5    # central-difference step of scalar_gap's lift slopes
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

def field_direction(model):
    """The endpoint field X of the lift audits as a fixed unit ambient vector,
    so reports are reproducible; the field is its tangent projection.  Frame
    coordinates read only a vector's tangent part, so X is never projected:
    at a far point that would cancel digits."""
    direction = np.arange(1.0, model.ambient_dim + 1.0)
    return direction / np.linalg.norm(direction)


# ---------------------------------------------------------------------------
# lift of an endpoint vector field through the pinning map
# ---------------------------------------------------------------------------

def _intervals(model, inc):
    """jacobi.Intervals of increments (N, n, d), taken samples last."""
    return jacobi.Intervals(model, np.ascontiguousarray(inc.transpose(1, 2, 0)))


def _lift(model, iv, x_vector):
    """The lift of the endpoint field with ambient vector x_vector (D,)
    along the paths whose increments (n, d, B) have Intervals iv.  Returns,
    samples last, the slopes k (n, d, B), the frame coordinates (d, B) of X
    at the endpoint and the coefficients c = K(1)^{-1} coords (d, B)."""
    n, d, B = iv.xi.shape
    rows = [(iv, j) for j in range(n)]
    G, vec = _lift_forward(model, rows, np.zeros((d, d, B)),
                           np.repeat(np.asarray(x_vector, dtype=float)[:, None], B, axis=1))
    return _lift_back(rows, G, vec[:d])


def _lift_forward(model, rows, G, vec):
    """The lift's forward recursions, advanced in place over rows ((Intervals,
    index) pairs): the Gram sum G (d, d, ..., B), K(1) = delta G, and X's
    ambient vector vec (D, ..., B) pulled back through each B(-xi_j): the
    endpoint frame is o's moved by the isometry B(xi_1) ... B(xi_n)."""
    for iv, j in rows:
        jacobi.gram_step(G, iv, j)
        paths.boost_rows(model, vec, iv, j, -1.0, vector=True)
    return G, vec


def _lift_back(rows, G, coords, last=None):
    """(slopes k (last + 1, d, ..., B), coords, c = K(1)^{-1} coords) of the
    lift on the n intervals rows with Gram sum G (d, d, ..., B) and endpoint
    coordinates (d, ..., B): k_i = (S_i / delta) C_{i+1} ... C_n c from one
    backward pass of Intervals.sine and .cosine (C_i, S_i are symmetric),
    K(1) solved by jacobi._positive_solve (NumericalError unless SPD).  The
    slopes are those of rows 0 to last (every row when None), the rows a
    caller reads; the rows past last run only cosine."""
    n = len(rows)
    last = n - 1 if last is None else last
    coeff = n * jacobi._positive_solve(G, coords, "mass matrix K(1)")
    slopes, y = np.empty((last + 1,) + coeff.shape), coeff
    for j in range(n - 1, -1, -1):
        iv, k = rows[j]
        along = iv.along(k, y)
        if j <= last:
            slopes[j] = iv.sine(k, y, along)
        if j:
            y = iv.cosine(k, y, along)
    return slopes, coords, coeff


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
    q05 = np.array([_quantile(s, 0.05) for s in stats_per_n])
    q50 = np.array([_quantile(s, 0.50) for s in stats_per_n])
    q95 = np.array([_quantile(s, 0.95) for s in stats_per_n])
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


CONVERGE_STAGES = ("draw", "lift", "sups", "report")


def convergence_suite(model, n_values, samples, seed=0, statistics=("f", "K", "J", "adjoint"),
                      x_vector=None, clock=None):
    """Compute the requested convergence statistics over shared sample paths.

    Sample paths use common random drivers: one batch of increments is drawn
    at the finest n and coarse-grained (consecutive sums) for every coarser n
    that divides it, so the per-n statistics are positively coupled and the
    monotone-in-n comparisons are made on refinements of the same underlying
    Brownian path.  n values that do not divide the finest one fall back to
    independent draws.  Each statistic is the per-path sup over knots of the
    named discrepancy against the damped closed form.  Returns
    {name: ConvergenceReport}.  clock, a measures._StageClock of
    CONVERGE_STAGES (a fresh one when None), collects the seconds of the
    draws, the lifts, the per-path sups and the reports.

    Orientation note: the interval response matrices have eigenvalues >= 1 and
    their products grow, so the transported profile they approach is the
    *inverse* transport ratio t(s_i)/t(s_j) (these are scalars here and
    commute), and the mass-matrix limit is the undressed profile
    e^c * K-profile; the lift ratio K(s)/K(1) is dressing-invariant.  The
    stored damped module keeps the decaying normalization, which is what the
    scalar example values pin down.
    """
    if x_vector is None:
        x_vector = field_direction(model)
    clock = measures._StageClock(CONVERGE_STAGES) if clock is None else clock
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
        clock.lap("draw")

        # blocks of samples bound the n d^2 numbers per path of each stack
        block = max(1, TABLE_FLOATS // (n * model.dim ** 2))
        per_stat = {name: [] for name in statistics}
        for lo in range(0, samples, block):
            b_inc = inc[lo:lo + block]
            iv = _intervals(model, b_inc)
            slopes, b_coords, coeff = _lift(model, iv, x_vector)
            clock.lap("lift")
            found = {}
            if set(statistics) - {"adjoint"}:
                found = _knot_sups(iv, coeff, b_coords, ratio, k_cmp, k_prof / k_prof[-1])
            discrete = np.einsum("idn,nid->n", slopes, b_inc)
            weights = (b_inc * t_prof[:-1, None]).sum(axis=1)
            limit = ctil * np.einsum("dn,nd->n", b_coords, weights)
            found["adjoint"] = np.abs(discrete - limit)
            for name in statistics:
                per_stat[name].append(found[name])
            clock.lap("sups")
        for name in statistics:
            collected[name].append(np.concatenate(per_stat[name]))

    gates = {"f": "slope", "K": "quarter", "J": "quarter", "adjoint": "decreasing"}
    reports = {name: _report(name, n_values, collected[name], gates[name])
               for name in statistics}
    clock.lap("report")
    return reports


def _knot_sups(iv, coeff, coords, ratio, k_cmp, j_prof):
    """Per-path sups over the knots s_j of the f, K and J discrepancies of the
    paths with Intervals iv, lift coefficients c and endpoint coordinates
    coords (d, B), samples last.

    One forward pass carries the stack f_i(s_j), i <= j, as (d, j, d, B):
    f <- C_j f (Intervals.cosine), the new block f_j(s_j) = S_j / delta is
    Intervals.sine of I, and G_j = sum_{i<=j} f_i(s_j) f_i(s_j)^T comes from
    jacobi.gram_step.  Since f_i(1) = C_n ... C_{j+1} f_i(s_j) and each C is
    symmetric, K(s_j) = delta sum_{i<=j} f_i(s_j) f_i(1)^T = delta G_j
    C_{j+1} ... C_n and the lift's knot value is J(s_j) = K(s_j) c, so one
    backward cosine pass over the stack [c | I] gives every suffix.
    """
    n, d, B = iv.xi.shape
    eye = np.eye(d)
    tail = np.empty((n, d, d + 1, B))           # tail[j - 1] = C_{j+1} ... C_n [c | I]
    tail[-1, :, 0], tail[-1, :, 1:] = coeff, eye[..., None]
    for j in range(n - 1, 0, -1):
        tail[j - 1] = iv.cosine(j, tail[j])
    stack, G = np.empty((d, n, d, B)), np.zeros((d, d, B))
    sups = {name: np.zeros(B) for name in ("f", "K", "J")}
    for j in range(n):                          # knot s_{j+1}
        stack[:, :j] = iv.cosine(j, stack[:, :j])
        stack[:, j] = iv.sine(j, eye[..., None])
        jacobi.gram_step(G, iv, j)
        JK = np.einsum("abB,bcB->acB", G, tail[j]) / n         # [J(s_{j+1}) | K(s_{j+1})]
        f_gap = stack[:, :j + 1] - ratio[1:j + 2, j + 1, None, None] * eye[:, None, :, None]
        gaps = {"f": np.linalg.norm(f_gap, axis=(0, 2)).max(axis=0),
                "K": np.linalg.norm(JK[:, 1:] - k_cmp[j + 1] * eye[..., None], axis=(0, 1)),
                "J": np.linalg.norm(JK[:, 0] - j_prof[j + 1] * coords, axis=0)}
        for name, gap in gaps.items():
            np.maximum(sups[name], gap, out=sups[name])
    return sups


# ---------------------------------------------------------------------------
# chart-level integration by parts
# ---------------------------------------------------------------------------

def _chart_velocity(model, inc, x_vector):
    """Solve M V = k for the increment-chart velocity V of the lift along
    increments inc (N, n, d).

    M's columns are the slopes of the fields of unit chart perturbations
    (paths.chart_slopes on the identity stack) and k the lift's slopes, both
    on one jacobi.Intervals.  Returns, samples last, V (nd, N), k (n, d, N),
    the endpoint coordinates (d, N) of X, and M and M^{-1} (nd, nd, N).
    """
    N, n, d = inc.shape
    eye, iv = np.eye(n * d), _intervals(model, inc)
    M = paths.chart_slopes(model, iv, eye.reshape(n, d, n * d, 1)).reshape(n * d, n * d, N)
    slopes, coords, _ = _lift(model, iv, x_vector)
    velocity = _block_solve(M, slopes.reshape(n * d, N), n)
    return velocity, slopes, coords, M, _block_solve(M, eye[..., None], n)


def _block_solve(M, rhs, n):
    """M^{-1} rhs for chart matrices M (nd, nd, B) and rhs (nd, ..., B or 1),
    by block forward substitution: M is block lower triangular with diagonal
    blocks n I, so x_j = (rhs_j - sum_{i<j} M_ji x_i) / n."""
    d = M.shape[0] // n
    x = np.empty(rhs.shape[:-1] + M.shape[-1:])
    for j in range(n):
        rows = slice(j * d, (j + 1) * d)
        x[rows] = rhs[rows] - np.einsum("rcB,c...B->r...B", M[rows, :j * d], x[:j * d])
        x[rows] /= n
    return x


def _well_conditioned(M, M_inv):
    """Mask (B,) of the chart matrices M (nd, nd, B), with inverses M_inv,
    whose condition number cond_2 is at most CHART_COND_LIMIT.  The SVD runs
    only where the bound |M|_F |M^{-1}|_F >= cond_2 exceeds half the limit."""
    bound = np.sqrt(np.sum(M * M, axis=(0, 1)) * np.sum(M_inv * M_inv, axis=(0, 1)))
    keep = bound <= CHART_COND_LIMIT / 2
    check = np.flatnonzero(~keep)
    keep[check] = np.linalg.cond(M[..., check].transpose(2, 0, 1)) <= CHART_COND_LIMIT
    return keep


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


def _knot_field(iv, slopes):
    """The values J(s_j) (n+1, d, B) at the knots, in the frame coordinates
    there, of the field with slopes k (n, d, B) and J(0) = 0 along the
    paths with Intervals iv: J(s_{j+1}) = C_j J(s_j) + delta (S_j / delta) k_j,
    one forward pass of Intervals.cosine and .sine.  The chart variation
    V = M^{-1} k has slopes M V = k, so on the lift's slopes these are the
    knots' velocities along V."""
    n = len(slopes)
    field = np.zeros((n + 1,) + slopes.shape[1:])
    for j in range(n):
        field[j + 1] = iv.sine(j, slopes[j]) / n
        if j:
            field[j + 1] += iv.cosine(j, field[j])
    return field


def _at_knots(model, iv, part, observables, field):
    """For each observable, its knots (B, len(times), D) on the paths with
    Intervals iv and there the ambient vectors of field (n+1, d, B), frame
    coordinates at every knot.  Each knot any of them reads is carried from
    o once, points and vectors by paths.boost_to_knots, so no frame is
    rolled."""
    index = sorted({part.knot_index(t) for obs in observables for t in obs.times}, reverse=True)
    points = np.empty((model.ambient_dim, len(index), field.shape[-1]))
    points[:] = geom.base_point(model)[:, None, None]
    vectors = np.zeros_like(points)
    vectors[:model.dim] = field[index].transpose(1, 0, 2)
    paths.boost_to_knots(model, points, iv, index)
    paths.boost_to_knots(model, vectors, iv, index, vector=True)
    points, vectors = points.transpose(2, 1, 0), vectors.transpose(2, 1, 0)
    cols = [[index.index(part.knot_index(t)) for t in obs.times] for obs in observables]
    return [(points[:, c], vectors[:, c]) for c in cols]


IBP_STAGES = ("draw", "velocity", "condition", "derivatives", "divergence",
              "scalar_gap", "gradient_gap")


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
    stage_s: dict       # seconds of each of IBP_STAGES

    def summary(self):
        return ("ibp lhs=%.6g+-%.2g rhs=%.6g+-%.2g diff=%.3g+-%.2g "
                "used=%d aborted=%d pass=%s"
                % (self.lhs_mean, self.lhs_stderr, self.rhs_mean, self.rhs_stderr,
                   self.diff_mean, self.diff_stderr, self.n_used, self.n_aborted,
                   self.passed))


def ibp_check(model, partition, f_obs, g_obs, n_samples, seed=0):
    """Gaussian integration by parts in the increment chart.

    Compares E[(Xf) g] with E[f (-Xg + m g)] where X differentiates along the
    chart velocity V of the lift of field_direction, solved once
    (_chart_velocity).  Xf and Xg are exact: the knots move along V with
    the field of the lift's slopes (_knot_field), carried to the
    observables' knots by point and vector boosts (_at_knots) and read by
    each observable's derivative, so the check rolls no path and moves no
    frame.  m = n * <z, V> - div_z V with the divergence tr(M^{-1} dk) from
    central differences of the lift alone (_divergence; the chart part of
    k - M V adds no trace, as Omega_i is antisymmetric and M^{-1}'s
    diagonal blocks are I / n).  Samples whose chart matrix M has condition
    number above CHART_COND_LIMIT are dropped (counted in n_aborted).  Pass
    gate: paired difference within 3 stderr.

    Two ungated reports ride along.  scalar_gap compares the chart
    multiplication scalar with the slope-pairing-minus-divergence form
    computed directly on path space (on the first SCALAR_SUBSAMPLE samples);
    gradient_gap compares Xg with g's derivative along the damped field,
    the lift's continuum limit (on the first GRADIENT_SUBSAMPLE samples).
    stage_s holds the seconds of each of IBP_STAGES.
    """
    if n_samples < 2:
        raise ValueError("need at least 2 samples")
    clock = measures._StageClock(IBP_STAGES)
    x_vector = field_direction(model)
    part = partition
    n, d = part.n, model.dim
    inc = paths.sample_increments(model, part, n_samples, seed)
    clock.lap("draw")
    velocity, slopes, coords, M, M_inv = _chart_velocity(model, inc, x_vector)
    clock.lap("velocity")
    keep = _well_conditioned(M, M_inv)
    del M       # nd nd N floats that nothing past the mask reads
    n_aborted = int((~keep).sum())
    if n_aborted:       # copies of the kept samples only when some are dropped
        inc = inc[keep]
        velocity, slopes, coords, M_inv = (a[..., keep] for a in (velocity, slopes, coords, M_inv))
    N = inc.shape[0]
    if N < 2:
        raise NumericalError("all but %d samples aborted on conditioning" % N)
    clock.lap("condition")

    iv = _intervals(model, inc)
    knots = _at_knots(model, iv, part, (f_obs, g_obs), _knot_field(iv, slopes))
    (f_vals, xf), (g_vals, xg) = [(obs.evaluate(model, p), obs.derivative(model, p, v))
                                  for obs, (p, v) in zip((f_obs, g_obs), knots)]
    del iv, knots       # not held through the divergence, the check's peak
    clock.lap("derivatives")

    mult = n * np.einsum("cN,Nc->N", velocity, inc.reshape(N, n * d))
    mult -= _divergence(model, inc, M_inv, x_vector)
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
    clock.lap("divergence")

    sub = slice(SCALAR_SUBSAMPLE)
    scalar = _scalar_gap(model, inc[sub], slopes[..., sub], M_inv[..., sub], mult[sub], x_vector)
    clock.lap("scalar_gap")
    sub = slice(GRADIENT_SUBSAMPLE)
    gradient = _gradient_gap(model, part, g_obs, xg[sub], inc[sub], coords[:, sub].T)
    clock.lap("gradient_gap")
    return IbpResult(lhs_mean, lhs_err, rhs_mean, rhs_err, diff_mean, diff_err,
                     N, n_aborted, passed, scalar, gradient, clock.seconds)


def _divergence(model, inc, M_inv, x_vector):
    """div V (N,) of the chart velocity V = M^{-1} k at increments inc
    (N, n, d), given M^{-1} (nd, nd, N) there: tr(M^{-1} dk), from
    differences of the lift alone.  With V held, d(k - M V) = M dV, and the
    chart part d(M V) adds no trace: a shift of increment i moves it only
    on intervals >= i, M^{-1} is block lower triangular, so only its block
    (i, i) = I / n meets n Omega_i e_a, and the Killing-field derivative
    Omega_i is antisymmetric.  Column (i, a) of dk is one central
    difference (DIV_STEP) of the lift along e_a of increment i; the 2d
    shifts of increment i are one stack before the samples axis, only row
    i's scalars are new, the forward part starts from the base's state at
    knot i, and only rows j <= i meet M^{-1}'s nonzero blocks."""
    N, n, d = inc.shape
    iv = _intervals(model, inc)
    rows = [(iv, j) for j in range(n)]
    shifts = DIV_STEP * np.concatenate([np.eye(d), -np.eye(d)], axis=1)[..., None]
    # the base state at knot i: Gram sum and pulled-back X
    G, vec = np.zeros((d, d, N)), np.repeat(np.asarray(x_vector, dtype=float)[:, None], N, axis=1)
    div = np.zeros(N)
    for i in range(n):
        group = list(rows)
        group[i] = (jacobi.Intervals(model, (iv.xi[i][:, None] + shifts)[None]), 0)
        G_s, vec_s = _lift_forward(model, group[i:], np.repeat(G[:, :, None], 2 * d, axis=2),
                                   np.repeat(vec[:, None], 2 * d, axis=1))
        k = _lift_back(group, G_s, vec_s[:d], last=i)[0]
        dk = (k[:, :, :d] - k[:, :, d:]) / (2 * DIV_STEP)
        div += np.einsum("arN,raN->N", M_inv[i * d:(i + 1) * d, :(i + 1) * d],
                         dk.reshape((i + 1) * d, d, N))
        _lift_forward(model, rows[i:i + 1], G, vec)
    return div


def _scalar_gap(model, inc, slopes, M_inv, mult, x_vector):
    """Ungated comparison of the two multiplication scalars on a subsample
    with increments inc (N, n, d), lift slopes (n, d, N) and inverse chart
    matrices M^{-1} (nd, nd, N).

    Chart form: n <z, V> - div_z V (already in `mult`).  Path-space form:
    sum_i <slope_i, increment_i> minus the divergence over the
    slope-orthonormal directions, the latter by central differences of the
    lift slopes along the chart velocities sqrt(n) M^{-1} e_c that realize
    those directions, all nd of them in one stacked pair of lifts.  The
    pairing needs no extra scale factor: the chart velocity is the increment
    representation of the slope list, so n <z, V> is already the
    slope/increment pairing.
    """
    N, n, d = inc.shape
    nd = n * d
    # row c N + s: sample s shifted along the velocity that realizes sqrt(n) e_c
    basis_vel = np.sqrt(n) * M_inv.transpose(1, 2, 0).reshape(nd * N, n, d)
    dslope = _central_difference(
        lambda z: _lift(model, _intervals(model, z), x_vector)[0].reshape(nd, -1),
        np.tile(inc, (nd, 1, 1)), basis_vel, FD_STEP)
    div_path = np.einsum("ccN->N", dslope.reshape(nd, nd, N)) / np.sqrt(n)
    pairing = np.einsum("idN,Nid->N", slopes, inc)
    gap = mult - (pairing - div_path)
    return {
        "median_abs_gap": _median(np.abs(gap)),
        "mean_gap": float(np.mean(gap)),
        "subsample": int(N),
    }


def _gradient_gap(model, part, observable, chart_side, inc, coords):
    """Ungated comparison of a chart derivative with the damped-gradient pairing.

    chart_side (N,) is Xf for the observable f along the chart velocity of the
    lift (as in ibp_check) on the paths with increments inc (N, n, d); the
    pairing is f's derivative along the damped closed-form field
    k(s_j) / k(1) X at each knot time s_j of f, in the frame there, X with
    frame coordinates coords (N, d) at the endpoint (_lift's), its knots and
    ambient vectors from _at_knots (the field is 0 at s = 0).  A geodesic
    step split into sub-steps is the same geodesic with the same transport,
    so the knots and frames of the broken geodesic are also those of the
    continuum development.  The gap mixes discretization effects and is
    reported, not gated.
    """
    k_prof = damped.k_profile(damped.ric_scalar(model), part.knots)
    damped_field = (k_prof / k_prof[-1])[:, None, None] * coords.T
    [(points, vectors)] = _at_knots(model, _intervals(model, inc), part, (observable,),
                                    damped_field)
    gap = chart_side - observable.derivative(model, points, vectors)
    return {
        "median_abs_gap": _median(np.abs(gap)),
        "median_abs_chart": _median(np.abs(chart_side)),
        "n_samples": chart_side.shape[0],
    }


def _median(x) -> float:
    """The median of the values x (...) by numpy's own arithmetic: the
    middle value, or 0.5 (a + b) of the two middle ones (the same bits as
    numpy's mean, (a + b) / 2), and NaN when any value is.  It needs only
    np.partition: numpy's median imports numpy.ma on its first call, 12 ms
    in a fresh interpreter."""
    x = np.ravel(x)
    half = x.size // 2
    part = np.partition(x, [half - 1, half, -1] if x.size % 2 == 0 else [half, -1])
    if np.isnan(part[-1]):
        return float("nan")
    return float(part[half] if x.size % 2 else 0.5 * (part[half - 1] + part[half]))


def _quantile(x, q: float) -> float:
    """The q-quantile of the values x by np.quantile's default linear
    arithmetic, NaN when any value is, from np.partition alone (numpy's
    quantile imports numpy.ma on its first call, 18 ms in a fresh process)."""
    x = np.ravel(x)
    virtual = (x.size - 1) * q
    lo, hi = (int(virtual), int(virtual) + 1) if virtual < x.size - 1 else (-1, -1)
    part = np.partition(x, [lo, hi, -1])
    if np.isnan(part[-1]):
        return float(part[-1])
    a, b, t = part[lo], part[hi], virtual - lo
    return float(b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t)


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
    seconds of each of PROPS_STAGES: the draw, the interval solutions (one
    jacobi.Intervals of the whole path), the Gram pass over the body on that
    Intervals with the tip factors, and the margins.  The Gram sums are per
    path in flat space too.  K(1) = h G_n, one gram_step past the body's G, and
    det(S_i / h) = sinhc^(d-1) a, so log rho_P is (d-1)/2 sum_{i<n} log s2_i.
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
        iv = _intervals(model, inc)
        clock.lap("intervals")
        # the estimator's route: Gram pass over the body, the last increment as tip
        G = np.zeros((model.dim, model.dim, per_model))
        for j in range(n - 1):
            jacobi.gram_step(G, iv, j)
        log_jp, log_vx, _ = jacobi.tip_log_factors(
            model, G.transpose(2, 0, 1), jacobi.gram_head(G, iv, n - 1).transpose(2, 0, 1),
            inc[:, -1], n)
        clock.lap("gram_and_tip")
        jacobi.gram_step(G, iv, n - 1)
        margins = {
            "mass_eig": np.linalg.eigvalsh(h * G.transpose(2, 0, 1)).min(axis=-1) - 1.0,
            "normal_jacobian": np.exp(log_jp) - 1.0,
            "slope_det": np.exp(0.5 * (model.dim - 1) * np.log(iv.s2[:-1]).sum(axis=0)) - 1.0,
            "response_bound": _response_bound_margin(inc, iv, h, big_n),
            "volume_bound": _volume_bound_margin(log_vx, inc, big_n),
        }
        for c, margin in margins.items():
            worst[c] = min(worst[c], float(margin.min()))
            violations[c] += int(np.sum(margin < -tolerance[c]))
        clock.lap("margins")
    return PropertyReport(per_model * len(model_list), violations, worst, clock.seconds)


def _response_bound_margin(inc, iv, h, big_n):
    """Per path, the smallest slack in the interval response envelopes.

    inc (N, n, d) at step h, with Intervals iv.  C = I + (cosh a - 1) Q and
    S / h = I + (sinhc a - 1) Q, Q the projector orthogonal to the
    increment, so |C| = cosh a, |C - I| = cosh a - 1 and
    |S - hI| = h (sinhc a - 1); at d = 1, Q = 0 and C = S / h = I.
    """
    speed = np.linalg.norm(inc / h, axis=-1)                  # (N, n)
    rank = float(inc.shape[-1] > 1)                           # of Q
    chm1, sc = rank * iv.chm1.T, np.sqrt(iv.s2).T
    grow = np.exp(big_n * speed ** 2 * h ** 2 / 2.0)
    margin = np.minimum.reduce([
        np.cosh(np.sqrt(big_n) * speed * h) - (1.0 + chm1),
        big_n * speed ** 2 * h ** 3 / 6.0 * grow - rank * h * (sc - 1.0),
        big_n * speed ** 2 * h ** 2 / 2.0 * grow - chm1,
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
