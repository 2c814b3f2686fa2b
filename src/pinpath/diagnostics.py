"""Lift construction, convergence-rate reports, and integration-by-parts checks.

Everything here consumes broken geodesics (paths.py) together with their
interval response matrices (jacobi.py) and compares discrete objects against
the damped closed forms (damped.py).  All report objects are CSV-serializable
and carry explicit pass/fail gates so the CLI can turn them into exit codes.
"""

from dataclasses import dataclass, field
from math import comb

import numpy as np
from scipy.linalg import null_space

from . import damped, geom, jacobi, paths
from .geom import CurvatureModel, NumericalError
from .jacobi import COND_LIMIT, Partition

FD_STEP = 1e-5    # central-difference step for chart perturbations
DIV_STEP = 1e-3   # larger outer step for divergence-of-velocity differences
FLAT_FLOOR = 1e-13  # below this a statistic counts as identically zero
TABLE_FLOATS = 2 ** 18  # dense Jacobi tables are built for this many numbers at a time
VARIATION_FLOATS = 2 ** 16  # and the chart matrix's knot variations for this many
# ibp_check and gradient_compare drop samples whose chart matrix M is worse conditioned
CHART_COND_LIMIT = COND_LIMIT / 100


# ---------------------------------------------------------------------------
# endpoint vector fields
# ---------------------------------------------------------------------------

def projected_constant_field(model, direction=None):
    """Return X(p) = tangent projection of a fixed ambient vector.

    Smooth and bounded on the whole space; the default direction is a fixed
    unit vector so reports are reproducible.  Works on batched points.
    """
    if direction is None:
        direction = np.arange(1.0, model.ambient_dim + 1.0)
    direction = np.asarray(direction, dtype=float)
    direction = direction / np.linalg.norm(direction)

    def field(p):
        p = np.asarray(p, dtype=float)
        return geom.project_tangent(model, p, np.broadcast_to(direction, p.shape))

    return field


def zero_field(model):
    def field(p):
        return np.zeros_like(np.asarray(p, dtype=float))

    return field


# ---------------------------------------------------------------------------
# lift of an endpoint vector field through the pinning map
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Lift:
    """Minimal-norm path-space representative of an endpoint vector.

    slopes[i] is the right-hand slope on interval i in the rolled frame;
    knot_values[j] collects the induced field at knot j.  endpoint_residual
    is |knot_values[n] - endpoint_coords| (should be ~1e-15, gated 1e-10).
    """

    endpoint_coords: np.ndarray   # (d,) frame coordinates of X at the endpoint
    coefficients: np.ndarray      # (d,) mass-matrix inverse applied to them
    slopes: np.ndarray            # (n, d)
    knot_values: np.ndarray       # (n+1, d)
    endpoint_residual: float


def lift_build(path, family, x_vector):
    """Build the lift of an endpoint tangent vector along a broken geodesic.

    x_vector: ambient vector at path.endpoint (or a callable point -> vector);
    it is tangent-projected before use.  Returns a Lift.
    """
    n = family.partition.n
    coords = _endpoint_coords(family.model, path.points[-1], path.frames[-1], x_vector)
    cond = np.linalg.cond(family.K[n])
    if cond > COND_LIMIT:
        raise NumericalError(f"mass matrix condition number {cond:.3e} exceeds "
                             f"{COND_LIMIT:.1e}")
    coeff, slopes = _lift_slopes(family.f[1:, n], family.partition.mesh, coords)
    knot_values = jacobi.jacobi_from_slopes(family, slopes)
    residual = float(np.max(np.abs(knot_values[n] - coords)))
    return Lift(coords, coeff, slopes, knot_values, residual)


def _endpoint_coords(model, point, frame, x_vector):
    """Frame coordinates of the tangent projection of X at the endpoint(s).

    x_vector is an ambient vector or a callable point -> vector; point (..., D),
    frame (..., D, d).
    """
    vec = x_vector(point) if callable(x_vector) else np.asarray(x_vector, dtype=float)
    return geom.frame_coords(model, frame, geom.project_tangent(model, point, vec))


def _lift_slopes(f_end, delta, coords):
    """Lift core: coefficients K(1)^{-1} coords and slopes k_i = f_{i+1}(1)^T coeff.

    f_end (..., n, d, d) holds f_i(1); coords (..., d).  Returns (coeff, slopes).
    """
    mass = jacobi.batch_mass_matrix(f_end, delta)
    coeff = np.linalg.solve(mass, coords[..., None])[..., 0]
    return coeff, np.einsum("...iab,...a->...ib", f_end, coeff)


def endpoint_map_matrix(family):
    """(d, n*d) matrix sending stacked slopes to the endpoint value / n."""
    n = family.partition.n
    d = family.model.dim
    cols = np.transpose(family.f[1:, n], (1, 0, 2)).reshape(family.model.dim, n * d)
    return cols / n


def lift_orthogonality(family, lift_slopes):
    """Residual of the lift against the null space of the endpoint map.

    Returns dict with the worst normalized inner product ("residual"),
    the null-space dimension, and the basis used (stacked slope vectors).
    """
    n = family.partition.n
    d = family.model.dim
    basis = null_space(endpoint_map_matrix(family))  # (n*d, q), euclidean-ON
    if basis.size == 0:
        return {"residual": 0.0, "null_dim": 0, "basis": basis}
    worst = 0.0
    flat_lift = np.asarray(lift_slopes, dtype=float).reshape(n * d)
    for q in range(basis.shape[1]):
        z = basis[:, q]
        # G1 inner product of slope lists = (euclidean dot) / n
        val = abs(float(flat_lift @ z)) / n
        znorm = float(np.linalg.norm(z)) / np.sqrt(n)
        worst = max(worst, val / znorm)
    return {"residual": worst, "null_dim": basis.shape[1], "basis": basis}


def lift_competitor_deficit(family, lift_slopes, count=100, seed=0):
    """Max norm deficit of random same-endpoint competitors vs the lift.

    Competitors are lift + null-space elements; returns min over draws of
    (competitor norm - lift norm), which must be >= -1e-10 when the lift is
    minimal.
    """
    n = family.partition.n
    d = family.model.dim
    basis = null_space(endpoint_map_matrix(family))
    flat_lift = np.asarray(lift_slopes, dtype=float).reshape(n * d)
    lift_norm = np.linalg.norm(flat_lift) / np.sqrt(n)
    if basis.size == 0:
        return 0.0
    rng = np.random.default_rng(seed)
    worst = np.inf
    for _ in range(count):
        coeffs = rng.standard_normal(basis.shape[1])
        comp = flat_lift + basis @ coeffs
        worst = min(worst, np.linalg.norm(comp) / np.sqrt(n) - lift_norm)
    return float(worst)


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


def _decreasing(medians, strict):
    m = np.asarray(medians, dtype=float)
    if np.all(m <= FLAT_FLOOR):
        return True
    if strict:
        return bool(np.all(np.diff(m) < 0))
    return bool(np.all(np.diff(m) <= 0))


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
        passed = zero or (_decreasing(q50, strict=True)
                          and (slope >= 0.4 or slope == float("inf")))
    elif gate == "quarter":
        passed = zero or (_decreasing(q50, strict=True) and q50[-1] < q50[0] / 4)
    else:
        passed = zero or _decreasing(q50, strict=True)
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
        eye = np.eye(model.dim)

        if n_fine % n == 0:
            group = n_fine // n
            inc = inc_fine.reshape(samples, n, group, model.dim).sum(axis=2)
        else:
            inc = paths.sample_increments(model, part, samples, seed + 7 * n)
        pts, frs = paths.roll_batch(model, inc)
        coords = _endpoint_coords(model, pts[:, -1], frs[:, -1], x_field)  # (samples, d)

        iu = np.triu_indices(n)       # pairs (i-1, j-1) with 1 <= i <= j <= n
        # the dense family holds (n+1)^2 d^2 numbers per path: build it in blocks
        block = max(1, TABLE_FLOATS // ((n + 1) ** 2 * model.dim ** 2))
        per_stat = {name: [] for name in statistics}
        for lo in range(0, samples, block):
            b_inc, b_coords = inc[lo:lo + block], coords[lo:lo + block]
            fam = jacobi.build_family(model, part, b_inc)
            coeff, slopes = _lift_slopes(fam.f[:, 1:, n], part.mesh, b_coords)
            if "f" in statistics:
                diff = fam.f[:, 1:, 1:] - ratio[1:, 1:, None, None] * eye
                per_stat["f"].append(
                    np.linalg.norm(diff, axis=(-2, -1))[:, iu[0], iu[1]].max(axis=1))
            if "K" in statistics:
                kdiff = fam.K[:, 1:] - k_cmp[1:, None, None] * eye
                per_stat["K"].append(np.linalg.norm(kdiff, axis=(-2, -1)).max(axis=1))
            if "J" in statistics:
                lift_J = np.einsum("njab,na->njb", fam.K, coeff)
                damped_J = (k_prof / k_prof[-1])[None, :, None] * b_coords[:, None, :]
                per_stat["J"].append(np.linalg.norm(lift_J - damped_J, axis=-1).max(axis=1))
            if "adjoint" in statistics:
                discrete = np.einsum("nid,nid->n", slopes, b_inc)
                weights = (b_inc * t_prof[:-1, None]).sum(axis=1)
                limit = ctil * np.einsum("nd,nd->n", b_coords, weights)
                per_stat["adjoint"].append(np.abs(discrete - limit))
        for name in statistics:
            collected[name].append(np.concatenate(per_stat[name]))

    gates = {"f": "slope", "K": "quarter", "J": "quarter", "adjoint": "decreasing"}
    return {name: _report(name, n_values, collected[name], gates[name])
            for name in statistics}


# ---------------------------------------------------------------------------
# chart-level integration by parts
# ---------------------------------------------------------------------------

def _batched_lift_slopes(model, part, inc, x_field):
    """Slopes of the lift for a batch of increment charts.

    Returns (slopes (N,n,d), endpoint coords (N,d), points, frames).
    """
    pts, frs = paths.roll_batch(model, inc)
    coords = _endpoint_coords(model, pts[:, -1], frs[:, -1], x_field)
    f_end = jacobi.batch_endpoint_f(model, inc, part.mesh)
    return _lift_slopes(f_end, part.mesh, coords)[1], coords, pts, frs


def _chart_velocity(model, part, inc, x_field, want_cond=True):
    """Solve M v = k for the increment-chart velocity of the lift.

    M's columns are the slope representations of unit chart perturbations, the
    exact knot variations (paths.knot_jacobian) through slopes_from_knots; M is
    block lower triangular with diagonal blocks n I, and n I in flat space.
    Returns (velocity (N, n*d), slopes k (N, n, d), cond (N,), M (N, nd, nd),
    base_pts (N, n+1, D)).  want_cond=False skips the SVD (used inside
    divergence differences).
    """
    N = inc.shape[0]
    n, d = part.n, model.dim
    nd = n * d
    slopes, _, base_pts = _batched_lift_slopes(model, part, inc, x_field)[:3]
    C, S = jacobi.batch_cs(model, inc, part.mesh)
    M = np.empty((N, nd, nd))
    # knot values (block, nd, n+1, d), one list per column (i, a), in bounded blocks
    block = max(1, VARIATION_FLOATS // ((n + 1) * d * nd))
    for lo in range(0, N, block):
        sl = slice(lo, lo + block)
        dknots = paths.knot_jacobian(model, inc[sl]).reshape(-1, n + 1, d, nd)
        cols = jacobi.slopes_from_knots(C[sl, None], S[sl, None], np.moveaxis(dknots, -1, 1))
        np.swapaxes(M, 1, 2)[sl] = cols.reshape(-1, nd, nd)

    cond = np.linalg.cond(M) if want_cond else np.full(N, np.nan)
    velocity = np.linalg.solve(M, slopes.reshape(N, nd)[..., None])[..., 0]
    return velocity, slopes, cond, M, base_pts


def _directional_derivative(model, part, inc, direction, observable, step=FD_STEP):
    """Central difference of a cylinder observable along a chart direction.

    direction: (N, n, d), not necessarily unit; the step is applied along the
    normalized direction and rescaled, so per-sample magnitudes stay safe.
    """
    norms = np.linalg.norm(direction.reshape(direction.shape[0], -1), axis=1)
    safe = np.where(norms > 0, norms, 1.0)
    unit = direction / safe[:, None, None]
    pts_plus, _ = paths.roll_batch(model, inc + step * unit)
    pts_minus, _ = paths.roll_batch(model, inc - step * unit)
    f_plus = observable.evaluate(model, part, pts_plus)
    f_minus = observable.evaluate(model, part, pts_minus)
    return norms * (f_plus - f_minus) / (2 * step)


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
    scalar_gap: dict = field(default_factory=dict)

    def summary(self):
        return ("ibp lhs=%.6g+-%.2g rhs=%.6g+-%.2g diff=%.3g+-%.2g "
                "used=%d aborted=%d pass=%s"
                % (self.lhs_mean, self.lhs_stderr, self.rhs_mean, self.rhs_stderr,
                   self.diff_mean, self.diff_stderr, self.n_used, self.n_aborted,
                   self.passed))


def ibp_check(model, partition, f_obs, g_obs, n_samples, seed=0, x_field=None,
              scalar_subsample=256):
    """Gaussian integration by parts in the increment chart.

    Compares E[(Xf) g] with E[f (-Xg + m g)] where X differentiates along the
    chart velocity of the lift and m = n * <z, V> - div_z V with the divergence
    taken by outer central differences of the velocity field.  Samples whose
    chart matrix M has condition number above CHART_COND_LIMIT are dropped
    (counted in n_aborted).  Pass gate: paired difference within 3 stderr.

    scalar_gap reports the ungated per-sample comparison of the chart
    multiplication scalar against the slope-pairing-minus-divergence form
    computed directly on path space (on a subsample).
    """
    if n_samples < 2:
        raise ValueError("need at least 2 samples")
    if x_field is None:
        x_field = projected_constant_field(model)
    part = partition
    n, d = part.n, model.dim
    nd = n * d
    inc = paths.sample_increments(model, part, n_samples, seed)

    velocity, slopes, cond, M, base_pts = _chart_velocity(model, part, inc, x_field)
    keep = cond <= CHART_COND_LIMIT
    n_aborted = int((~keep).sum())
    inc = inc[keep]
    velocity = velocity[keep]
    slopes = slopes[keep]
    M = M[keep]
    base_pts = base_pts[keep]
    N = inc.shape[0]
    if N < 2:
        raise NumericalError("all but %d samples aborted on conditioning" % N)

    f_vals = f_obs.evaluate(model, part, base_pts)
    g_vals = g_obs.evaluate(model, part, base_pts)
    vel_paths = velocity.reshape(N, n, d)
    xf = _directional_derivative(model, part, inc, vel_paths, f_obs)
    xg = _directional_derivative(model, part, inc, vel_paths, g_obs)

    # divergence of the chart velocity by outer central differences
    div = np.zeros(N)
    for col in range(nd):
        i, a = divmod(col, d)
        shift = np.zeros((n, d))
        shift[i, a] = DIV_STEP
        v_plus = _chart_velocity(model, part, inc + shift, x_field, want_cond=False)[0]
        v_minus = _chart_velocity(model, part, inc - shift, x_field, want_cond=False)[0]
        div += (v_plus[:, col] - v_minus[:, col]) / (2 * DIV_STEP)

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

    scalar = _scalar_gap(model, part, inc[:scalar_subsample],
                         velocity[:scalar_subsample], slopes[:scalar_subsample],
                         M[:scalar_subsample], mult[:scalar_subsample], x_field)
    return IbpResult(lhs_mean, lhs_err, rhs_mean, rhs_err, diff_mean, diff_err,
                     N, n_aborted, passed, scalar)


def _scalar_gap(model, part, inc, velocity, slopes, M, mult, x_field):
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
    if N == 0:
        return {}
    n, d = part.n, model.dim
    nd = n * d
    # chart velocities realizing the orthonormal slope directions sqrt(n) e_col
    basis_vel = np.linalg.solve(M, np.sqrt(n) * np.broadcast_to(np.eye(nd), (N, nd, nd)))
    div_path = np.zeros(N)
    for col in range(nd):
        i, a = divmod(col, d)
        direction = basis_vel[:, :, col].reshape(N, n, d)
        norms = np.linalg.norm(direction.reshape(N, -1), axis=1)
        safe = np.where(norms > 0, norms, 1.0)
        unit = direction / safe[:, None, None]
        s_plus = _batched_lift_slopes(model, part, inc + FD_STEP * unit, x_field)[0]
        s_minus = _batched_lift_slopes(model, part, inc - FD_STEP * unit, x_field)[0]
        dslope = norms * (s_plus[:, i, a] - s_minus[:, i, a]) / (2 * FD_STEP)
        div_path += dslope / np.sqrt(n)
    pairing = np.einsum("nid,nid->n", slopes, inc)
    path_scalar = pairing - div_path
    gap = mult - path_scalar
    return {
        "median_abs_gap": float(np.median(np.abs(gap))),
        "mean_gap": float(np.mean(gap)),
        "subsample": int(N),
    }


def gradient_compare(model, partition, observable, n_samples=64, seed=0,
                     x_field=None, refine=8):
    """Ungated diagnostic: chart derivative vs damped-gradient pairing.

    Left: Xf via the chart velocity (as in ibp_check).  Right: the damped
    closed-form field paired with frame-coordinate gradients of the
    observable at its knot times; gradients use frames from a refinement-8
    re-roll of the same path as a stand-in for the continuum development.
    Returns per-sample medians; the gap mixes discretization effects and is
    reported, not gated.
    """
    if x_field is None:
        x_field = projected_constant_field(model)
    part = partition
    n, d = part.n, model.dim
    ric = damped.ric_scalar(model)
    inc = paths.sample_increments(model, part, n_samples, seed)
    velocity, slopes, cond, M, base_pts = _chart_velocity(model, part, inc, x_field)
    keep = cond <= CHART_COND_LIMIT
    inc, velocity, base_pts = inc[keep], velocity[keep], base_pts[keep]
    N = inc.shape[0]
    vel_paths = velocity.reshape(N, n, d)
    chart_side = _directional_derivative(model, part, inc, vel_paths, observable)

    # refined roll: same increments split across `refine` sub-steps
    fine_inc = np.repeat(inc / refine, refine, axis=1)
    fine_pts, fine_frs = paths.roll_batch(model, fine_inc)
    idx = np.arange(0, n * refine + 1, refine)
    frames = fine_frs[:, idx]          # (N, n+1, D, d)
    points = fine_pts[:, idx]

    # endpoint coords in the refined frame, damped profile along knots
    coords = _endpoint_coords(model, points[:, -1], frames[:, -1], x_field)
    k_prof = damped.k_profile(ric, part.knots)
    damped_field = (k_prof / k_prof[-1])[None, :, None] * coords[:, None, :]

    times = observable.times
    knot_idx = [part.knot_index(t) for t in times]
    pair_side = np.zeros(N)
    for j in knot_idx:
        if j == 0:
            continue
        for a in range(d):
            moved_plus = points.copy()
            moved_minus = points.copy()
            step_vec = FD_STEP * frames[:, j, :, a]
            moved_plus[:, j] = geom.exp_point(model, points[:, j], step_vec)
            moved_minus[:, j] = geom.exp_point(model, points[:, j], -step_vec)
            f_plus = observable.evaluate(model, part, moved_plus)
            f_minus = observable.evaluate(model, part, moved_minus)
            grad_a = (f_plus - f_minus) / (2 * FD_STEP)
            pair_side += damped_field[:, j, a] * grad_a
    gap = chart_side - pair_side
    return {
        "median_abs_gap": float(np.median(np.abs(gap))),
        "median_abs_chart": float(np.median(np.abs(chart_side))),
        "n_samples": int(N),
        "refine": int(refine),
        "note": "refined-roll frames stand in for the continuum development",
    }


# ---------------------------------------------------------------------------
# pathwise property sweep (positivity / bounds audit)
# ---------------------------------------------------------------------------

@dataclass
class PropertyReport:
    n_paths: int
    violations: dict
    worst: dict

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
    (tolerances: 1e-10 on eigenvalues, 1e-12 on determinants).
    """
    tolerance = {"mass_eig": 1e-10, "normal_jacobian": 1e-12, "slope_det": 1e-12,
                 "response_bound": 1e-10, "volume_bound": 1e-8}
    violations = {c: 0 for c in tolerance}
    worst = {c: np.inf for c in tolerance}
    per_model = max(1, n_paths // max(1, len(model_list)))
    part = Partition(n)
    h = part.mesh

    for m_idx, model in enumerate(model_list):
        inc = paths.sample_increments(model, part, per_model, seed + 101 * m_idx)
        big_n = model.curvature_bound
        C, S = jacobi.batch_cs(model, inc, h)
        # the estimator's route: Gram pass over the body, the last interval as tip
        G, head = jacobi.gram_pass(model, inc[:, :-1])
        K = jacobi.end_mass_matrix(G, C[:, -1], S[:, -1], h)
        eig = np.linalg.eigvalsh(0.5 * (K + np.swapaxes(K, -1, -2)))
        margins = {
            "mass_eig": eig.min(axis=-1) - 1.0,
            "normal_jacobian": np.exp(jacobi.log_normal_jacobian(K)) - 1.0,
            "slope_det": np.exp(jacobi.log_rho_P(S, h)) - 1.0,
            "response_bound": _response_bound_margin(model, inc, C, S, h, big_n),
            "volume_bound": _volume_bound_margin(head, inc, C, S, big_n),
        }
        for c, margin in margins.items():
            worst[c] = min(worst[c], float(margin.min()))
            violations[c] += int(np.sum(margin < -tolerance[c]))
    return PropertyReport(per_model * len(model_list), violations, worst)


def _response_bound_margin(model, inc, C, S, h, big_n):
    """Per path, the smallest slack in the interval response envelopes.

    inc (N, n, d); C, S (N, n, d, d) from batch_cs at step h.
    """
    speed = np.linalg.norm(inc / h, axis=-1)                  # (N, n)
    eye = np.eye(model.dim)

    def spectral(X):
        return np.linalg.norm(X, 2, axis=(-2, -1))

    grow = np.exp(big_n * speed ** 2 * h ** 2 / 2.0)
    margin = np.minimum.reduce([
        np.cosh(np.sqrt(big_n) * speed * h) - spectral(C),
        big_n * speed ** 2 * h ** 3 / 6.0 * grow - spectral(S - h * eye),
        big_n * speed ** 2 * h ** 2 / 2.0 * grow - spectral(C - eye),
    ])
    return margin.min(axis=-1)


def _volume_bound_margin(head, inc, C, S, big_n):
    """Per path, the slack of V_x under its combinatorial envelope.

    x is the path's own endpoint, so the tip is the last interval: its
    solutions are C, S (N, n, d, d) at index n-1; head is the body's
    gram_pass head.
    """
    N, n, d = inc.shape
    if n < 2:
        return np.zeros(N)
    tip = inc[:, -1]
    log_vx = jacobi.log_volume_change(jacobi.pinning_gram(head, n), C[:, -1], S[:, -1])
    dist_tip = np.linalg.norm(tip, axis=-1)
    log_leg_sum = big_n * np.sum(np.linalg.norm(inc, axis=-1) ** 2, axis=-1)
    bound = sum(comb(d, k) * n ** (k / 2.0)
                * np.exp(k * big_n * dist_tip ** 2 / 2.0 + k * log_leg_sum)
                for k in range(d + 1))
    return bound - np.exp(log_vx)
