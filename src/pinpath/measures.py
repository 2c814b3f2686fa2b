"""Pinned-path sampling and the importance-weighted endpoint estimator.

A free path is n Gaussian increments rolled from o.  The pinned version keeps
the first n-1 intervals (the body), replaces the last interval by the geodesic
from the body's endpoint to the target x, and weights the sample by

    w = (2 pi)^{-d/2} exp(-(n/2) dist(body_end, x)^2) * V_x / J_P,

where J_P is the endpoint normal Jacobian of the full pinned path and V_x the
volume factor of the pinning map.  Both come from one Gram pass over the body,
with the tip (the last interval) factored out in closed form
(jacobi.tip_log_factors), so far tips cost no accuracy.  The weighted mean of
an observable estimates its integral against the *unnormalized* pinned
measure, whose total mass is the heat kernel p_1(o, x); in flat space that
identity is exact for every n.  The closed heat kernels the estimator is gated against live here
too; the numerical oracles that check them (radial PDE, split-time
quadrature) are in tests/oracles.py.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ProcessPoolExecutor
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
    elif x.shape == (model.dim,):          # frame coordinates at o
        point = geom.exp_frame(model, geom.base_point(model), geom.base_frame(model), x)[0]
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


def _pinned_chunk(model: CurvatureModel, partition: Partition, x_amb,
                  observable: CylinderObservable, seed: int, start: int,
                  count: int):
    """Pinned samples [start, start+count): log-weights (N,), observable
    values (N,) and tip_cond_hits."""
    n, d = partition.n, model.dim
    inc = paths.sample_increments(model, partition, count, seed, start)
    body = inc[:, :n - 1, :]
    pts, frs = paths.roll_batch(model, body)
    body_end = pts[:, -1, :]
    x_knot = np.broadcast_to(x_amb, body_end.shape)
    xi_x = geom.frame_coords(model, frs[:, -1, :, :], geom.log_point(model, body_end, x_knot))
    dist2 = np.sum(xi_x * xi_x, axis=-1)

    # one forward pass over the body; the tip enters both factors in closed form
    G, head = jacobi.gram_pass(model, body)
    log_jp, log_vx = jacobi.tip_log_factors(model, G, head, xi_x, n)

    log_w = -0.5 * d * LOG_2PI - 0.5 * n * dist2 + log_vx - log_jp
    full_pts = np.concatenate([pts, x_knot[:, None, :]], axis=1)
    f_vals = observable.evaluate(model, partition, full_pts)
    return log_w, np.asarray(f_vals, dtype=float), jacobi.tip_cond_hits(model, xi_x)


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
            results = list(pool.map(_pinned_chunk, *zip(*tasks), chunksize=1))
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
