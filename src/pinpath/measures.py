"""Pinned-path sampling and the importance-weighted endpoint estimator.

A free path is n Gaussian increments rolled from o.  The pinned version keeps
the first n-1 intervals (the body), replaces the last interval by the geodesic
from the body's endpoint to the target x, and weights the sample by

    w = (2 pi)^{-d/2} exp(-(n/2) dist(body_end, x)^2) * V_x / J_P,

where J_P is the endpoint normal Jacobian of the full pinned path and V_x the
volume factor of the pinning map.  The weighted mean of an observable
estimates its integral against the *unnormalized* pinned measure, whose total
mass is the heat kernel p_1(o, x); in flat space that identity is exact for
every n.  Closed heat kernels, the radial-PDE oracle, and the split-time
quadrature oracle used to cross-check the estimator live here too.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_banded

from . import geom, jacobi, paths
from .geom import CurvatureModel, NumericalError
from .jacobi import Partition

LOG_2PI = float(np.log(2.0 * np.pi))


# ---------------------------------------------------------------------------
# Observables
# ---------------------------------------------------------------------------

def _radial_g(name):
    return {"r": lambda r: r, "r2": lambda r: r * r, "one": lambda r: np.ones_like(r)}[name]


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

    def evaluate(self, model: CurvatureModel, partition: Partition, points) -> np.ndarray:
        o = geom.base_point(model)
        n = partition.n
        if self.kind == "const_one":
            vals = np.ones(points.shape[:-2])
        elif self.kind == "radial":
            j = partition.knot_index(self.params["time"])
            r = geom.distance(model, o, points[..., j, :])
            vals = _radial_g(self.params["g"])(r)
        elif self.kind == "exp_radial2":
            expo = 0.0
            for t, a in zip(self.params["times"], self.params["scales"]):
                j = partition.knot_index(t)
                r = geom.distance(model, o, points[..., j, :])
                expo = expo - r * r / a
            vals = np.exp(expo)
        else:
            raise ValueError(f"unknown observable kind {self.kind!r}")
        if np.isfinite(self.bound) and np.any(np.abs(vals) > self.bound * (1 + 1e-12)):
            raise ValueError(f"observable {self.name} exceeded its declared bound")
        return vals


MASS_OBSERVABLE = CylinderObservable("mass", (1.0,), 1.0, "const_one")


def radial_observable(time: float, g: str = "r", bound: float = np.inf,
                      name: str | None = None) -> CylinderObservable:
    return CylinderObservable(name or f"radial_{g}_at_{time}", (time,), bound,
                              "radial", {"time": time, "g": g})


# ---------------------------------------------------------------------------
# Free-path sampling (the finite-dimensional measure itself)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PathBatch:
    """Batched rolled paths: increments (N, n, d), knots (N, n+1, D)."""

    model: CurvatureModel
    partition: Partition
    increments: np.ndarray
    points: np.ndarray
    frames: np.ndarray

    def path(self, i: int) -> paths.BrokenGeodesic:
        return paths.BrokenGeodesic(self.model, self.partition, self.increments[i],
                                    self.points[i], self.frames[i])


def sample_nu1P(model: CurvatureModel, partition: Partition, count: int,
                seed: int, start: int = 0) -> PathBatch:
    """Sample free broken geodesics: N(0, 1/n) increments rolled from o."""
    inc = paths.sample_increments(model, partition, count, seed, start)
    pts, frs = paths.roll_batch(model, inc)
    return PathBatch(model, partition, inc, pts, frs)


# ---------------------------------------------------------------------------
# Pinned samples and the estimator
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PinnedSample:
    """One pinned path: body increments, tip increment, weight, f value."""

    body_increments: np.ndarray   # (n-1, d)
    tip_increment: np.ndarray     # (d,)
    points: np.ndarray            # (n+1, D) knots, last = x
    log_weight: float
    f_value: float

    @property
    def weight(self) -> float:
        return float(np.exp(self.log_weight))

    @property
    def increments(self) -> np.ndarray:
        return np.vstack([self.body_increments, self.tip_increment[None, :]])


def _target_point(model: CurvatureModel, x) -> np.ndarray:
    """Accept x as ambient coordinates or ("dir", distance) along an axis."""
    if isinstance(x, tuple) and len(x) == 2 and np.ndim(x[0]) == 1:
        direction, dist = np.asarray(x[0], dtype=float), float(x[1])
        direction = direction / np.linalg.norm(direction)
        o = geom.base_frame_point(model)
        return geom.exp_map(model, o, direction * dist).point
    x = np.asarray(x, dtype=float)
    if model.kind == "flat":
        if x.shape != (model.dim,):
            raise ValueError("x must be a length-d vector")
        return x
    if x.shape == (model.dim,):          # frame coordinates at o
        o = geom.base_frame_point(model)
        return geom.exp_map(model, o, x).point
    if x.shape != (model.ambient_dim,):
        raise ValueError("x must be ambient (d+1) or tangent (d) coordinates")
    # relative: a far point carries roundoff of order kappa |x|^2
    defect = abs(model.kappa * geom.minkowski_inner(x, x) + 1.0) / (1 + model.kappa * x @ x)
    if defect > 1e-8 or x[-1] <= 0:
        raise ValueError("x is not on the hyperboloid sheet")
    return x


def _pinned_paths(model: CurvatureModel, partition: Partition, x_amb, seed: int,
                  start: int, count: int):
    """Pinned samples [start, start+count) before any observable.

    Returns (body increments (N, n-1, d), knots (N, n+1, D) ending at x,
    tip vectors xi_x (N, d), log-weights (N,), tip_cond_hits).
    """
    n, d, delta = partition.n, model.dim, partition.mesh
    inc = paths.sample_increments(model, partition, count, seed, start)
    body = inc[:, :n - 1, :]
    pts, frs = paths.roll_batch(model, body)
    body_end = pts[:, -1, :]
    x_knot = np.broadcast_to(x_amb, body_end.shape)
    xi_x = geom.frame_coords(model, frs[:, -1, :, :], geom.log_point(model, body_end, x_knot))
    dist2 = np.sum(xi_x * xi_x, axis=-1)

    # one forward pass over the body gives K(1) and the V_x Gram matrix F;
    # the tip's closed-form solutions serve both
    G, head = jacobi.gram_pass(model, body)
    Cx, Sx = jacobi.batch_cs(model, xi_x, delta)
    log_jp = jacobi.log_normal_jacobian(jacobi.end_mass_matrix(G, Cx, Sx, delta))
    log_vx = jacobi.log_volume_change(jacobi.pinning_gram(head, n), Cx, Sx)

    log_w = -0.5 * d * LOG_2PI - 0.5 * n * dist2 + log_vx - log_jp
    full_pts = np.concatenate([pts, x_knot[:, None, :]], axis=1)
    return body, full_pts, xi_x, log_w, jacobi.tip_cond_hits(model, xi_x)


def _pinned_chunk(model: CurvatureModel, partition: Partition, x_amb,
                  observable: CylinderObservable, seed: int, start: int,
                  count: int):
    """Log-weights and observable values for samples [start, start+count)."""
    _, full_pts, _, log_w, tip_cond_hits = _pinned_paths(model, partition, x_amb,
                                                         seed, start, count)
    f_vals = observable.evaluate(model, partition, full_pts)
    return log_w, np.asarray(f_vals, dtype=float), tip_cond_hits


@dataclass
class EstimateResult:
    mean: float
    stderr: float
    n_samples: int
    log_weights: np.ndarray
    f_values: np.ndarray
    meta: dict

    def weight_summary(self) -> dict:
        """Spread of the log-weights, the effective sample size over N,
        ESS/N = (sum w)^2 / (N sum w^2), and the largest weight's share."""
        lw = self.log_weights
        w = np.exp(lw - lw.max())
        return {"log_w_min": float(lw.min()), "log_w_max": float(lw.max()),
                "log_w_mean": float(lw.mean()), "log_w_var": float(lw.var()),
                "ess_frac": float(w.sum() ** 2 / (w.size * np.sum(w * w))),
                "max_weight_share": float(w.max() / w.sum())}


def _estimate_task(args):
    return _pinned_chunk(*args)


def pinned_estimate(model: CurvatureModel, partition: Partition, x,
                    observable: CylinderObservable = MASS_OBSERVABLE,
                    n_samples: int = 10000, seed: int = 0, workers: int = 1,
                    nan_dump_path: str = "pinned_nan_dump.json") -> EstimateResult:
    """Importance-weighted estimate of the pinned integral of the observable.

    Deterministic for fixed (seed, n_samples) at any worker count: samples are
    generated per fixed-size chunk keyed by index, and chunks are merged in
    index order with pairwise summation.
    """
    if n_samples < 2:
        raise ValueError("need n_samples >= 2 for a standard error")
    x_amb = _target_point(model, x)
    t0 = time.perf_counter()

    spans = [(s, min(paths.CHUNK, n_samples - s))
             for s in range(0, n_samples, paths.CHUNK)]
    tasks = [(model, partition, x_amb, observable, seed, s, c) for s, c in spans]
    if workers > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            # map yields in task order, whichever chunk finishes first
            results = list(pool.map(_estimate_task, tasks, chunksize=1))
    else:
        results = [_pinned_chunk(*t) for t in tasks]

    log_w = np.concatenate([r[0] for r in results])
    f_vals = np.concatenate([r[1] for r in results])
    cond_hits = int(sum(r[2] for r in results))
    del results   # free the per-chunk arrays before the reductions below

    if not np.all(np.isfinite(log_w)):
        bad = np.flatnonzero(~np.isfinite(log_w))[:16]
        inc = paths.sample_increments(model, partition, 1, seed, int(bad[0]))
        with open(nan_dump_path, "w") as fh:
            json.dump({"bad_indices": bad.tolist(), "seed": seed,
                       "x": np.asarray(x_amb).tolist(),
                       "first_bad_increments": inc[0].tolist()}, fh, indent=2)
        raise NumericalError(
            f"{bad.size}+ non-finite log-weights; diagnostics in {nan_dump_path}")

    m = float(np.max(log_w))
    scaled = np.exp(log_w - m) * f_vals
    mean = float(np.exp(m) * np.mean(scaled))
    stderr = float(np.exp(m) * np.std(scaled, ddof=1) / np.sqrt(n_samples))
    meta = {"seed": seed, "n": partition.n, "observable": observable.name,
            "tip_cond_hits": cond_hits,
            "wall_time_s": time.perf_counter() - t0}
    return EstimateResult(mean, stderr, n_samples, log_w, f_vals, meta)


def pinned_samples(model: CurvatureModel, partition: Partition, x, count: int,
                   seed: int, observable: CylinderObservable = MASS_OBSERVABLE,
                   start: int = 0) -> list:
    """Materialized PinnedSample objects (diagnostic-scale counts)."""
    x_amb = _target_point(model, x)
    body, pts, xi_x, log_w, _ = _pinned_paths(model, partition, x_amb, seed, start, count)
    f_vals = observable.evaluate(model, partition, pts)
    return [PinnedSample(body[i], xi_x[i], pts[i], float(log_w[i]), float(f_vals[i]))
            for i in range(count)]


# ---------------------------------------------------------------------------
# Exact heat kernels
# ---------------------------------------------------------------------------

def heat_kernel_exact(model: CurvatureModel, t: float, x=None, y=None,
                      rho: float | None = None) -> float:
    """Unit-time-diffusion heat kernel p_t(x, y).

    Flat: Gaussian in any dimension.  Hyperbolic: closed radial form, d=3 and
    kappa=1 only (validated once against the radial-PDE oracle); other
    hyperbolic dimensions are rejected.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    if rho is None:
        if x is None or y is None:
            raise ValueError("give either rho or both x and y")
        rho = float(geom.distance(model, np.asarray(x, float), np.asarray(y, float)))
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


# ---------------------------------------------------------------------------
# Radial-PDE oracle (hyperbolic d=3, kappa=1)
# ---------------------------------------------------------------------------

def _cn_evolve(v, dr, dt, steps):
    """Crank-Nicolson for v_t = (v_rr - v)/2, Dirichlet ends; v is interior."""
    m = v.size
    lam = dt / (4.0 * dr * dr)
    # A v = (v_rr - v)/2 ; banded forms of I -/+ (dt/2) A
    main_minus = np.full(m, 1.0 + 2.0 * lam + 0.25 * dt)
    off_minus = np.full(m - 1, -lam)
    main_plus = np.full(m, 1.0 - 2.0 * lam - 0.25 * dt)
    off_plus = np.full(m - 1, lam)
    ab = np.zeros((3, m))
    ab[0, 1:] = off_minus
    ab[1, :] = main_minus
    ab[2, :-1] = off_minus
    for _ in range(steps):
        rhs = main_plus * v
        rhs[1:] += off_plus * v[:-1]
        rhs[:-1] += off_plus * v[1:]
        v = solve_banded((1, 1), ab, rhs)
    return v


def radial_pde_kernel(rho_eval, t: float = 1.0, cells: int = 10000,
                      r_max: float = 30.0, t0: float = 0.02,
                      dt: float = 5e-4, richardson: bool = True):
    """Numerical p_t(o, rho) on the d=3, kappa=1 hyperboloid via a radial PDE.

    In v = sinh(rho) * p the radial heat flow becomes v_t = (v_rr - v)/2 on
    (0, r_max) with Dirichlet ends.  Start from the short-time asymptotic
    profile v(t0) ~ (2 pi t0)^{-3/2} rho exp(-rho^2/(2 t0)) and evolve by
    Crank-Nicolson; Richardson over t0 removes the O(t0) launch error.
    """
    rho_eval = np.atleast_1d(np.asarray(rho_eval, dtype=float))
    grid = np.linspace(0.0, r_max, cells + 1)
    dr = grid[1] - grid[0]
    interior = grid[1:-1]

    def run(t_start):
        v = (2 * np.pi * t_start) ** (-1.5) * interior * np.exp(
            -interior * interior / (2 * t_start))
        steps = int(np.ceil((t - t_start) / dt))
        return _cn_evolve(v, dr, (t - t_start) / steps, steps)

    v1 = run(t0)
    v = 2.0 * run(t0 / 2.0) - v1 if richardson else v1
    p = v / np.sinh(interior)
    return np.interp(rho_eval, interior, p)


# ---------------------------------------------------------------------------
# Split-time quadrature oracle
# ---------------------------------------------------------------------------

def _pair_density(model: CurvatureModel, t1, t2, rho_target, r, costh):
    """p_t1(o, y) p_t2(y, x) for y at radius r, polar angle acos(costh)."""
    if model.kind == "flat":
        d2 = r * r + rho_target * rho_target - 2.0 * r * rho_target * costh
        rho2 = np.sqrt(np.maximum(d2, 0.0))
    else:
        ch = (np.cosh(r) * np.cosh(rho_target)
              - np.sinh(r) * np.sinh(rho_target) * costh)
        rho2 = np.arccosh(np.maximum(ch, 1.0))
    return (heat_kernel_exact(model, t1, rho=r)
            * heat_kernel_exact(model, t2, rho=rho2))


def pinned_fdd_oracle(model: CurvatureModel, x, g, t_split: float = 0.5,
                      tol: float = 1e-4, m0: int = 128, m_max: int = 4096):
    """Quadrature value of  int g(d(o,y)) p_t(o,y) p_{1-t}(y,x) dvol(y).

    Midpoint rule on a polar grid, doubled until the Richardson error estimate
    drops below tol (absolute); returns (value, error_estimate).  Supports
    flat d in {1,2,3} and hyperbolic d=3 (kappa=1).  g is a vectorized
    callable of the radius.
    """
    x_amb = _target_point(model, x)
    rho_t = float(geom.distance(model, geom.base_point(model), x_amb))
    t1, t2 = t_split, 1.0 - t_split
    r_max = max(8.0, rho_t + 8.0)
    d = model.dim
    if model.kind == "hyperbolic" and d != 3:
        raise ValueError("hyperbolic quadrature oracle needs d=3")

    def integral(m):
        r = (np.arange(m) + 0.5) * (r_max / m)
        if model.kind == "flat" and d == 1:
            y = np.concatenate([-r[::-1], r])
            vals = (g(np.abs(y)) * heat_kernel_exact(model, t1, rho=np.abs(y))
                    * heat_kernel_exact(model, t2, rho=np.abs(y - rho_t)))
            return float(np.sum(vals) * (r_max / m))
        th = (np.arange(m) + 0.5) * (np.pi / m)
        R, TH = np.meshgrid(r, th, indexing="ij")
        dens = _pair_density(model, t1, t2, rho_t, R, np.cos(TH))
        if model.kind == "flat" and d == 2:
            elem = R                     # r dr dth, doubled for th in (pi, 2pi)
            total = 2.0
        elif model.kind == "flat":
            elem = 2.0 * np.pi * R * R * np.sin(TH)
            total = 1.0
        else:
            elem = 2.0 * np.pi * np.sinh(R) ** 2 * np.sin(TH)
            total = 1.0
        vals = g(R) * dens * elem
        return float(total * np.sum(vals) * (r_max / m) * (np.pi / m))

    prev = integral(m0)
    m = 2 * m0
    while m <= m_max:
        cur = integral(m)
        err = abs(cur - prev) / 3.0
        if err <= tol:
            return cur + (cur - prev) / 3.0, err
        prev = cur
        m *= 2
    raise NumericalError(f"quadrature did not reach tol={tol} by m={m_max}")
