"""Pinned-path sampling and the importance-weighted endpoint estimator.

A free path is n Gaussian increments xi_1, ..., xi_n developed from o: its
knots are x_j = g_j o with g_j = B(xi_1) ... B(xi_j), where B(xi) is the
boost (a translation in flat space) that moves o along xi and carries the
frame by parallel transport.  The pinned version keeps the first n-1
intervals (the body), replaces the last interval by the geodesic from the
body's end x_{n-1} to the target x, and weights the sample by

    w = (2 pi)^{-d/2} exp(-(n/2) |xi_x|^2) * V_x / J_P,

where xi_x is log_{x_{n-1}}(x) in the body's end frame, J_P the endpoint
normal Jacobian of the full pinned path and V_x the volume factor of the
pinning map.  The frames themselves are never needed.  The boosts lie in
SO+(d,1) and so preserve the Minkowski form, g^T eta g = eta; hence
g = g_{n-1} is an isometry taking o and its frame to x_{n-1} and its frame,
and the tip is the same vector at o,

    xi_x = log_o(g^{-1} x),   g^{-1} x = B(-xi_{n-1}) ... B(-xi_1) x,

the target pulled back along the body one boost at a time.  One samples-last
loop over the body (_body_pass) advances this pull-back and the Gram
recursion of jacobi.gram_step together, from the interval scalars
(jacobi.Intervals); J_P and V_x follow from the Gram sums with the tip
factored out in closed form (jacobi.tip_log_factors).

Drawn from the free law, the body would land near x with probability of
order n^{-d/2}.  On the hyperboloid it is therefore drawn from a guided
bridge: the modified diffusion bridge (Durham-Gallant 2002; Delyon-Hu 2006)
with its drift tilted by the curvature factor of the heat kernel it steers
toward, (sqrt(kappa) rho / sinh(sqrt(kappa) rho))^{(d-1)/2} = exp(-psi(rho)),
as guided proposals take their drift from the gradient of the log of a
tractable transition density (Schauer, van der Meulen and van Zanten,
Bernoulli 2017), and its step's covariance from the same kernel's Hessian.
With k = n - j + 1 intervals left at step j, tip included, delta = 1/n,
tau = (k - 1) / n, v_j = log_o(w_{j-1}) the target seen from x_{j-1} in its
frame (the loop's own pull-back), rho_j = |v_j|, u = v_j / rho_j, r =
rho_j (k - 1) / k the target's distance from the step's mean and
psi'(r) = ((d - 1) / 2)(sqrt(kappa) coth(sqrt(kappa) r) - 1 / r),

    xi_j = v_j / k + ((k - 1) / k) delta psi'(r) u
           + sqrt((k - 1) / k) (a_perp z_j + (a_par - a_perp) <z_j, u> u),

z_j ~ N(0, I / n): the flat bridge's step, its mean tilted by the curvature
factor linearised at the step's mean, and its precision (n + 1 / tau) I
there replaced by n I + Hess f, f = r^2 / (2 tau) + psi(r) = -log p_tau:
f'' along the geodesic and f' sqrt(kappa) coth(sqrt(kappa) r) across it
(Hess r on H^d(-kappa)).  So a = sqrt((n + 1 / tau) / p), p_par =
n + 1 / tau + psi''(r) and p_perp = n + sqrt(kappa) coth(sqrt(kappa) r)
(r / tau + psi'(r)): the true bridge spreads less across the geodesic where
sinh grows.  Drift and scales read only the past, so the weight gains the
ratio of the free law to the proposal's,
sum_j [(n/2)(|z_j|^2 - |xi_j|^2) + log(a_par a_perp^{d-1})] - (d/2) log n,
since prod_k (k - 1) / k = 1 / n; importance sampling with full support
keeps the estimate on the same pinned measure.  At rho_j = 0
both precisions are n + 1 / tau + ((d - 1) / 2) kappa / 3 and the step needs
no u; at d = 1 a_par = 1 and the step is the modified diffusion bridge's.
The tip, the tip factors and the Gaussian term read the bridged body as they
read a free one.  The bridge runs the body out toward x, and two steps keep
their digits there: paths.boost_rows carries a far target toward o in
light-cone form (and returns the |w_s|^2 of w as stored, which the drift
divides by), and where a body's Gram sums have grown past
jacobi.GROWTH_LIMIT (a few long steps in one direction), its factors come
from the sums held scaled by the product of the cosine solutions
(jacobi.scaled_gram_pass, _tip_factors).
In flat space the bridge is exact and every weight equal, so the body keeps
the free draw and builds no Intervals and no Gram sum: V_x / J_P = n^{d/2}
is a per-run constant, and a path pays for its draw,
xi_x = x - sum_{i<n} xi_i and |xi_x|^2.

An observable reads only the knots at its own times: s = 1 is x, s = 0 is o,
and an interior knot s_j is B(xi_1)(... B(xi_j) o), j point boosts on the
body the paths used.  The weighted mean of an observable estimates its
integral against the *unnormalized* pinned measure, whose total mass is the
heat kernel p_1(o, x); in flat space that identity is exact for every n, and
on the hyperboloid it holds in the limit of fine partitions, with an O(mesh)
bias at each n.  The closed heat kernels the estimator is gated against live
here too; the numerical oracles that check them (radial PDE, split-time
quadrature) and the free-proposal estimator are in tests/oracles.py.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from . import geom, jacobi, paths
from .geom import CurvatureModel, NumericalError
from .jacobi import Partition

LOG_2PI = float(np.log(2.0 * np.pi))


# ---------------------------------------------------------------------------
# Observables
# ---------------------------------------------------------------------------

def _radial_g(name):
    return {"r": lambda r: r, "r2": lambda r: r * r}[name]


@dataclass(frozen=True)
class CylinderObservable:
    """A function of finitely many knot values, with a declared sup bound.

    kind "const_one"   : F = 1
    kind "radial"      : F = g(dist(o, sigma(t))), params {"time": t, "g": name}
    kind "exp_radial2" : F = exp(-sum_t dist(o, sigma(t))^2 / a_t),
                         params {"times": [...], "scales": [...]}
    """

    name: str
    times: tuple
    bound: float
    kind: str = "const_one"
    params: dict = field(default_factory=dict)

    def evaluate(self, model: CurvatureModel, points) -> np.ndarray:
        """Values (...,) from the knots points (..., len(times), D) at this
        observable's own times."""
        o = geom.base_point(model)
        if self.kind == "const_one":
            vals = np.ones(points.shape[:-2])
        elif self.kind == "radial":
            k = self.times.index(self.params["time"])
            r = geom.distance(model, o, points[..., k, :])
            vals = _radial_g(self.params["g"])(r)
        elif self.kind == "exp_radial2":
            expo = 0.0
            for t, a in zip(self.params["times"], self.params["scales"]):
                r = geom.distance(model, o, points[..., self.times.index(t), :])
                expo = expo - r * r / a
            vals = np.exp(expo)
        else:
            raise ValueError(f"unknown observable kind {self.kind!r}")
        if np.isfinite(self.bound) and np.any(np.abs(vals) > self.bound * (1 + 1e-12)):
            raise ValueError(f"observable {self.name} exceeded its declared bound")
        return vals

    def derivative(self, model: CurvatureModel, points, vectors) -> np.ndarray:
        """Derivatives (...,) of evaluate's value at the knots points
        (..., len(times), D) along ambient tangent vectors there, vectors
        (..., len(times), D), exactly: through r dr of each radius
        (_radius_rate), so exp_radial2 stays smooth at o; radial "r" reads
        dr = r dr / r, taken as 0 at o itself."""
        if self.kind == "const_one":
            return np.zeros(points.shape[:-2])
        if self.kind == "radial":
            k = self.times.index(self.params["time"])
            r, r_dr = _radius_rate(model, points[..., k, :], vectors[..., k, :])
            if self.params["g"] == "r2":
                return 2.0 * r_dr
            return np.divide(r_dr, r, out=np.zeros_like(r), where=r > 0)
        if self.kind == "exp_radial2":
            expo, rate = 0.0, 0.0
            for t, a in zip(self.params["times"], self.params["scales"]):
                k = self.times.index(t)
                r, r_dr = _radius_rate(model, points[..., k, :], vectors[..., k, :])
                expo = expo - r * r / a
                rate = rate - 2.0 * r_dr / a
            return np.exp(expo) * rate
        raise ValueError(f"unknown observable kind {self.kind!r}")


def _radius_rate(model: CurvatureModel, x, v):
    """(r, r dr) for r = dist(o, x) at points x (..., D) along tangent
    vectors v (..., D): r dr = <x, v> in flat space; on the hyperboloid
    dr = <x_s, v_s> / (sqrt(kappa) |x_s| x_t), since <x, v>_M = 0 and
    sqrt(kappa) |x_s| = sinh(sqrt(kappa) r), so
    r dr = <x_s, v_s> / (sqrt(kappa) x_t sinhc(sqrt(kappa) r)), which reads
    no direction and is 0 at o."""
    r = geom.distance(model, geom.base_point(model), x)
    if model.kind == "flat":
        return r, np.sum(x * v, axis=-1)
    rk = np.sqrt(model.kappa)
    return r, np.sum(x[..., :-1] * v[..., :-1], axis=-1) / (rk * x[..., -1] * geom.sinhc(rk * r))


MASS_OBSERVABLE = CylinderObservable("mass", (1.0,), 1.0, "const_one")


def radial_observable(time: float, g: str = "r", bound: float = np.inf,
                      name: str | None = None) -> CylinderObservable:
    return CylinderObservable(name or f"radial_{g}_at_{time}", (time,), bound,
                              "radial", {"time": time, "g": g})


# ---------------------------------------------------------------------------
# Pinned samples and the estimator
# ---------------------------------------------------------------------------

def _target_point(model: CurvatureModel, x) -> np.ndarray:
    """Accept x as ambient coordinates or as tangent coordinates at o.

    Raises ValueError for a wrong length, a point off the sheet, or a target
    with no finite point (tangent coordinates past the double range of cosh).
    """
    x = np.asarray(x, dtype=float)
    ambient = model.kind == "hyperbolic" and x.shape == (model.ambient_dim,)
    if model.kind == "flat":
        if x.shape != (model.dim,):
            raise ValueError("x must be a length-d vector")
        point = x
    elif x.shape == (model.dim,):          # frame coordinates at o, exp_o in closed form
        a = np.sqrt(model.kappa * np.sum(x * x))
        point = geom._renormalize_point(model, np.append(geom.sinhc(a) * x, 0.0))
    elif ambient:
        point = x
    else:
        raise ValueError("x must be ambient (d+1) or tangent (d) coordinates")
    if not np.all(np.isfinite(point)):
        raise ValueError(f"target {x.tolist()} has no finite point on the {model.kind} model")
    if ambient:
        # relative: a far point carries roundoff of order kappa |x|^2
        defect = abs(model.kappa * geom.minkowski_inner(x, x) + 1.0) / (1 + model.kappa * x @ x)
        if defect > 1e-8 or x[-1] <= 0:
            raise ValueError("x is not on the hyperboloid sheet")
    return point


STAGES = ("draw", "body_pass", "tip_factors", "observable", "reduction")


class _StageClock:
    """Seconds per stage (the estimator's STAGES unless given), from one
    perf_counter stamp per lap."""

    def __init__(self, stages=STAGES):
        self.seconds = dict.fromkeys(stages, 0.0)
        self._last = time.perf_counter()

    def lap(self, stage: str) -> None:
        now = time.perf_counter()
        self.seconds[stage] += now - self._last
        self._last = now


def _langevin(y):
    """(L, M) (2, B) for y >= 0 (B,): L(y) = coth(y) - 1/y and M = L(y) / y,
    0 and 1/3 at 0.  Below y = 0.15, where the difference has cancelled more
    digits than six terms of the Taylor series of M, sum_{i>=1} 2^{2i} B_{2i}
    y^{2i-2} / (2i)!, drop, M is that series and L = y M."""
    L, M = out = np.empty((2,) + y.shape)
    safe = np.maximum(y, 0.15)
    np.divide(1.0, np.tanh(safe, out=L), out=L)
    L -= np.divide(1.0, safe, out=M)
    M *= L
    small = np.nonzero(y < 0.15)[0]
    if small.size:
        ys = y[small]
        y2 = ys * ys
        M[small] = ms = 1 / 3 - y2 * (1 / 45 - y2 * (2 / 945 - y2 * (
            1 / 4725 - y2 * (2 / 93555 - y2 * (1382 / 638512875)))))
        L[small] = ys * ms
    return out


def _guide(model: CurvatureModel, sq, k: int, n: int):
    """The guided step with k intervals left (tip included) on n, for the
    target w pulled back so far with sq = |w_s|^2 (module docstring): coef
    (B,), the drift's coefficient on w_s, and the scales (2, B) across w_s
    and along it, times sqrt((k - 1) / k).  With zeta = sqrt(kappa)|w_s|,
    A = asinh(zeta), x = A (k - 1) / k = sqrt(kappa) r, tau = (k - 1) / n,
    phi = n + 1 / tau, h = ((d - 1) / 2) kappa and L, M = _langevin(x),

        coef = [A / k + (tau / k) h L] / zeta,     a = sqrt(phi / p),
        p_par = phi + h (1 - L^2 - 2 M),  p_perp = phi + x L / tau + h (L^2 + M),

    as x coth x = 1 + x L, psi' = h L / sqrt(kappa) and psi'' = h (1 / x^2 -
    1 / sinh^2 x); over h, as rows of L and M, the scales are
    sqrt((n / h) / (p / h)).  zeta is floored at the smallest normal double:
    it is 0 only where w_s = 0 and coef comes out 0, and below the floor w_s
    and the drift are below 1e-308.  At d = 1 the curvature term is 0 and the
    step is the plain bridge's: coef = A / (k zeta), scales sqrt((k - 1) / k)."""
    zeta = np.sqrt(model.kappa * sq)
    a = np.arcsinh(zeta)
    x = a * ((k - 1) / k)
    L, M = scales = _langevin(x)
    h = 0.5 * (model.dim - 1) * model.kappa
    coef = a * (1.0 / k)
    coef += (h * (k - 1) / (k * n)) * L
    coef /= np.maximum(zeta, np.finfo(float).tiny)
    if model.dim == 1:
        scales[...] = np.sqrt((k - 1) / k)
        return coef, scales
    c = k * n / ((k - 1) * h)                         # phi / h
    x *= (c / k) * L                                  # x L / (tau h)
    t = L * L + M                                     # L^2 + M
    np.subtract(c + 1.0, t + M, M)                    # p_par / h
    np.add(t + c, x, L)                               # p_perp / h
    np.divide(n / h, scales, scales)                  # (k - 1) / k a^2
    return coef, np.sqrt(scales, scales)


def _body_pass(model: CurvatureModel, body, x_amb):
    """One samples-last pass over the body increments (m, d, B), the free
    draw z, which on the hyperboloid it turns into the bridge's xi in place.

    Returns the Gram sums (G, head), each (d, d, B), None in flat space,
    where they are m I and (m - 1) I for every path; the tip xi_x
    (d, B) in the frame at the body's end; the log-ratio of the free law to
    the proposal, (B,) on the hyperboloid and 0.0 in flat space; and the
    scale growth (B,) of the Gram sums' roundoff, sum_j tr(G_j)
    prod_{i>j} cosh^2 a_i, since step j rounds at the size of G_j and each
    later C_i stretches that by at most cosh a_i on each side (None in flat
    space and at d = 1, where every C_i is I and nothing grows; _tip_factors
    reads it).  Row j (k = m + 1 - j intervals left, tip included) becomes
    xi_j = mu_j + sqrt((k - 1) / k) (a_perp z_j + (a_par - a_perp) <z_j, u> u),
    u = w_s / |w_s|, from _guide(...) of the target pulled back so far, w
    (module docstring; the projection is folded into the drift's coefficient
    on w_s, over |w_s|^2 floored as _guide floors zeta); only then is that
    row's jacobi.Intervals built, the Gram recursion advanced and the target
    pulled back by B(-xi_j) (paths.boost_rows, which also returns the |w_s|^2
    of the moved w that the next step reads).  The tip is log_o(w) at the
    end.  Flat space keeps the free draw: the tip is x - xi_1 - ... - xi_m.
    """
    m, d, B = body.shape
    w = np.repeat(np.asarray(x_amb, dtype=float)[:, None], B, axis=1)
    if model.kind == "flat":
        for j in range(m):
            w -= body[j]
        return None, None, w, 0.0, None
    n, G, work = m + 1, np.zeros((d, d, B)), np.empty((d, d, B))
    growth = None if d == 1 else np.zeros(B)
    drawn, bridged = np.zeros((d, B)), np.zeros(B)   # sum_j z_j^2 per axis, sum_j |xi_j|^2
    det, log_det, tiny = np.ones((2, B)), np.zeros(B), np.finfo(float).tiny   # prod_j scales
    buf, iv, sq = work[0], jacobi.Intervals(model, body[:0]), jacobi._square_norm(w[:-1])
    for j in range(m):
        k, z, ws = n - j, body[j], w[:-1]
        drawn += np.square(z, buf)
        coef, scales = _guide(model, sq, k, n)
        across, along = scales
        det *= scales
        if j % 8 == 7 or j == m - 1:                  # 8 d factors in (0, 1] at most per log
            log_det += np.log(det[1] * det[0] ** (d - 1))
            det[...] = 1.0
        along -= across                               # the fold: along - across times <z, u> u
        along *= np.add.reduce(np.multiply(z, ws, buf), 0)   # <z, w_s>, summed in order
        along /= np.maximum(sq, tiny)
        coef += along
        z *= across
        z += np.multiply(ws, coef, buf)               # xi_j, in place
        sq_xi = jacobi._square_norm(z, buf[0])
        bridged += sq_xi
        iv = jacobi.Intervals(model, body[j:j + 1], sq_xi[None])
        e = iv.unit(0)
        stretch = jacobi.gram_step(G, iv, 0, e, work)
        if growth is not None:
            growth *= stretch
            for g in jacobi._diagonal(G):
                growth += g
        sq = paths.boost_rows(model, w, iv, 0, -1.0, p=e)
    log_q = drawn[0].copy()
    for a in range(1, d):
        log_q += drawn[a]
    log_q -= bridged
    log_q *= 0.5 * n
    log_q += log_det if d > 1 else -0.5 * np.log(n)   # prod_j (k - 1) / k = 1 / n
    return G, jacobi.gram_head(G, iv), geom.log_o_rows(model, w, sq), log_q, growth


def _pinned_knots(model: CurvatureModel, partition: Partition, times, body, x_amb):
    """Knots (B, len(times), D) of pinned paths at the given times, for the
    body increments (m, d, B): x at s = 1, and the knots s_j before it
    carried from o by paths.boost_to_knots, j point boosts and no frame.
    The jacobi.Intervals of the body's first rows are built only when some
    time is an interior knot, and only as far as the latest one."""
    index = [partition.knot_index(t) for t in times]
    interior = sorted({j for j in index if j < partition.n}, reverse=True)
    if interior:
        knots = paths.boost_to_knots(model, jacobi.Intervals(model, body[:interior[0]]), interior)
    out = np.empty((len(times), model.ambient_dim, body.shape[-1]))
    for k, j in enumerate(index):
        out[k] = x_amb[:, None] if j == partition.n else knots[:, interior.index(j)]
    return out.transpose(2, 0, 1)


def _tip_factors(model: CurvatureModel, body, G, head, tip, n: int, growth):
    """(log J_P, log V_x, hits) of jacobi.tip_log_factors for the tips
    (B, d) of the body (m, d, B) with Gram sums (G, head) from _body_pass,
    in flat space the per-run constants (0, (d/2) log n, 0).  Where the
    sums' roundoff scale growth passes jacobi.GROWTH_LIMIT (or is not
    finite), they may have lost digits, and those paths' factors come from
    jacobi.scaled_gram_pass of their body instead.  The transposed views
    hand tip_log_factors the samples-last arrays themselves, uncopied."""
    if model.kind == "flat":
        return 0.0, 0.5 * model.dim * np.log(n), 0
    far = np.zeros(len(tip), dtype=bool) if growth is None else ~(growth <= jacobi.GROWTH_LIMIT)
    if not far.any():
        return jacobi.tip_log_factors(model, G.transpose(2, 0, 1), head.transpose(2, 0, 1),
                                      tip, n)
    near, log_jp, log_vx = ~far, np.empty(len(tip)), np.empty(len(tip))
    log_jp[near], log_vx[near], hits = jacobi.tip_log_factors(
        model, G[..., near].transpose(2, 0, 1), head[..., near].transpose(2, 0, 1), tip[near], n)
    H, H_head, R, log_det_p = jacobi.scaled_gram_pass(jacobi.Intervals(model, body[..., far]))
    log_jp[far], log_vx[far], more = jacobi.tip_log_factors(
        model, H.transpose(2, 0, 1), H_head.transpose(2, 0, 1), tip[far], n,
        (R.transpose(2, 0, 1), log_det_p))
    return log_jp, log_vx, hits + more


def _pinned_chunk(model: CurvatureModel, partition: Partition, x_amb,
                  observable: CylinderObservable, seed: int, start: int,
                  count: int):
    """Pinned samples [start, start+count): log-weights (N,), observable
    values (N,), tip_cond_hits and the seconds of each of STAGES (the
    reduction is pinned_estimate's)."""
    clock = _StageClock()
    n, d = partition.n, model.dim
    inc = paths.sample_increments(model, partition, count, seed, start)
    body = inc.transpose(1, 2, 0)[:n - 1]          # (n-1, d, B), contiguous, no copy
    clock.lap("draw")
    G, head, xi_x, log_q, growth = _body_pass(model, body, x_amb)   # body as the paths use it
    clock.lap("body_pass")
    log_jp, log_vx, hits = _tip_factors(model, body, G, head, xi_x.T, n, growth)
    log_w = (-0.5 * d * LOG_2PI - 0.5 * n * np.sum(xi_x * xi_x, axis=0) + log_vx - log_jp
             + log_q)
    clock.lap("tip_factors")
    knots = _pinned_knots(model, partition, observable.times, body, x_amb)
    f_vals = np.asarray(observable.evaluate(model, knots), dtype=float)
    clock.lap("observable")
    return log_w, f_vals, hits, clock.seconds


@dataclass
class EstimateResult:
    mean: float
    stderr: float
    n_samples: int
    log_weights: np.ndarray
    f_values: np.ndarray
    meta: dict


def pinned_estimate(model: CurvatureModel, partition: Partition, x,
                    observable: CylinderObservable = MASS_OBSERVABLE,
                    n_samples: int = 10000, seed: int = 0, workers: int = 1) -> EstimateResult:
    """Importance-weighted estimate of the pinned integral of the observable.

    Deterministic for fixed (seed, n_samples) at any worker count: samples are
    generated per fixed-size chunk keyed by index, and chunks are merged in
    index order with pairwise summation.  Non-finite log-weights raise
    NumericalError with the bad samples as its dump; no file is written.
    meta["weights"] summarises the weights w: the spread of log w, the
    effective sample size over N, ESS/N = (sum w)^2 / (N sum w^2), and the
    largest weight's share;
    meta["proposal"] names the body's law, "bridge" on the hyperboloid
    (n > 1) and "free" in flat space or with no body (n = 1).
    """
    if n_samples < 2:
        raise ValueError("need n_samples >= 2 for a standard error")
    x_amb = _target_point(model, x)
    t0 = time.perf_counter()

    spans = [(s, min(paths.CHUNK, n_samples - s))
             for s in range(0, n_samples, paths.CHUNK)]
    tasks = [(model, partition, x_amb, observable, seed, s, c) for s, c in spans]
    log_w, f_vals = np.empty(n_samples), np.empty(n_samples)
    cond_hits, stage_s = 0, dict.fromkeys(STAGES, 0.0)
    parallel = workers > 1 and len(tasks) > 1
    if parallel:
        from concurrent.futures import ProcessPoolExecutor   # only pool runs import it
    with ProcessPoolExecutor(max_workers=workers) if parallel else nullcontext() as pool:
        # map yields in task order, whichever chunk finishes first; each
        # chunk's arrays are copied out and dropped as it arrives
        results = (pool.map(_pinned_chunk, *zip(*tasks), chunksize=1) if parallel
                   else (_pinned_chunk(*t) for t in tasks))
        for (s, c), (chunk_w, chunk_f, hits, seconds) in zip(spans, results):
            log_w[s:s + c], f_vals[s:s + c] = chunk_w, chunk_f
            cond_hits += hits
            for k, v in seconds.items():
                stage_s[k] += v

    t_reduce = time.perf_counter()
    if not np.all(np.isfinite(log_w)):
        bad = np.flatnonzero(~np.isfinite(log_w))[:16]
        # the increments the first bad sample used: rows do not depend on the
        # chunk, so its one-sample body pass bridges it as its chunk did
        inc = paths.sample_increments(model, partition, 1, seed, int(bad[0]))
        _body_pass(model, inc.transpose(1, 2, 0)[:partition.n - 1], x_amb)
        raise NumericalError(f"{bad.size}+ non-finite log-weights", dump={
            "bad_indices": bad.tolist(), "seed": seed, "x": np.asarray(x_amb).tolist(),
            "first_bad_increments": inc[0].tolist()})

    m, mean_lw = float(np.max(log_w)), log_w.mean()
    scaled = log_w - mean_lw    # then in place: the one temporary of N floats
    scaled *= scaled            # np.var's arithmetic, without its temporary
    weights = {"log_w_min": float(log_w.min()), "log_w_max": m,
               "log_w_mean": float(mean_lw), "log_w_var": float(scaled.mean())}
    np.subtract(log_w, m, out=scaled)
    np.exp(scaled, out=scaled)  # the weights over the largest, exp(0) = 1
    total = scaled.sum()
    weights.update(ess_frac=float(total ** 2 / (n_samples * np.dot(scaled, scaled))),
                   max_weight_share=float(1.0 / total))
    scaled *= f_vals
    mean_scaled = np.mean(scaled)
    mean = float(np.exp(m) * mean_scaled)
    scaled -= mean_scaled       # np.std(ddof=1)'s arithmetic, without its temporary
    scaled *= scaled
    stderr = float(np.exp(m) * np.sqrt(np.sum(scaled) / (n_samples - 1)) / np.sqrt(n_samples))
    stage_s["reduction"] = time.perf_counter() - t_reduce
    bridged = model.kind == "hyperbolic" and partition.n > 1
    meta = {"seed": seed, "n": partition.n, "observable": observable.name,
            "proposal": "bridge" if bridged else "free",
            "tip_cond_hits": cond_hits, "weights": weights, "stage_s": stage_s,
            "wall_time_s": time.perf_counter() - t0}
    return EstimateResult(mean, stderr, n_samples, log_w, f_vals, meta)


# ---------------------------------------------------------------------------
# Exact heat kernels
# ---------------------------------------------------------------------------

def heat_kernel_exact(model: CurvatureModel, t: float, *, rho) -> float:
    """Unit-time-diffusion heat kernel p_t at geodesic distance rho (scalar
    or array).

    Flat: Gaussian in any dimension.  Hyperbolic: closed radial form, d=3 and
    kappa=1 only (checked against the radial-PDE oracle in tests/oracles.py); other
    hyperbolic dimensions are rejected.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    rho = np.asarray(rho, dtype=float)
    if model.kind == "flat":
        d = model.dim
        val = (2 * np.pi * t) ** (-0.5 * d) * np.exp(-rho * rho / (2 * t))
        return float(val) if val.ndim == 0 else val
    if model.dim != 3 or not np.isclose(model.kappa, 1.0):
        raise ValueError("hyperbolic closed form is only available for d=3, kappa=1")
    val = ((2 * np.pi * t) ** (-1.5) / geom.sinhc(rho)
           * np.exp(-rho * rho / (2 * t) - 0.5 * t))
    return float(val) if val.ndim == 0 else val
