"""Constant-curvature geometry: the two models, o and its frame, distance
and the log at o.

Two models: flat R^d, and the hyperboloid sheet of sectional curvature -kappa
embedded in Minkowski space R^{d,1}.  The Minkowski form uses the *last*
ambient coordinate as the timelike one,

    <x, y>_M = sum_{i<d} x_i y_i - x_d y_d,

points satisfy <x,x>_M = -1/kappa with x_d > 0.  All point arrays are
ambient, D = d coordinates for flat and d+1 for hyperbolic.  distance and
minkowski_inner broadcast over leading batch axes (points ``(..., D)``);
log_o_rows and _renormalize_point take coordinates first, samples last, as
does the one point boost that moves paths (paths.boost_rows).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

class NumericalError(RuntimeError):
    """Raised when a guarded numerical operation leaves its trust region."""


@dataclass(frozen=True)
class CurvatureModel:
    """Which space we work on.

    kind  : "flat" or "hyperbolic"
    dim   : intrinsic dimension d >= 1
    kappa : curvature magnitude (sectional curvature is -kappa); flat forces 0
    """

    kind: str
    dim: int
    kappa: float = 1.0

    def __post_init__(self):
        if self.kind not in ("flat", "hyperbolic"):
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.kind == "flat":
            object.__setattr__(self, "kappa", 0.0)
        elif not (self.kappa > 0 and np.isfinite(self.kappa)):
            raise ValueError("hyperbolic model needs kappa > 0")

    @property
    def ambient_dim(self) -> int:
        return self.dim if self.kind == "flat" else self.dim + 1

    @property
    def curvature_bound(self) -> float:
        """N = sup |sectional curvature| = kappa."""
        return self.kappa


# ---------------------------------------------------------------------------
# Minkowski helpers (hyperbolic model)
# ---------------------------------------------------------------------------

def minkowski_inner(x, y):
    """<x,y>_M with the last coordinate timelike; broadcasts."""
    s = np.sum(x[..., :-1] * y[..., :-1], axis=-1)
    return s - x[..., -1] * y[..., -1]


def sinhc(a):
    """sinh(a)/a, safe at a = 0."""
    a = np.asarray(a, dtype=float)
    small = np.abs(a) < 1e-6
    safe = np.where(small, 1.0, a)
    out = np.where(small, 1.0 + a * a / 6.0, np.sinh(safe) / safe)
    return out


def base_point(model: CurvatureModel) -> np.ndarray:
    """Reference point o: the origin (flat) or the sheet apex (hyperbolic)."""
    if model.kind == "flat":
        return np.zeros(model.dim)
    o = np.zeros(model.dim + 1)
    o[-1] = 1.0 / np.sqrt(model.kappa)
    return o


def base_frame(model: CurvatureModel) -> np.ndarray:
    """Standard orthonormal frame at o: the first d ambient axes."""
    return np.eye(model.ambient_dim, model.dim)


# ---------------------------------------------------------------------------
# Core point operations (batched over leading axes)
# ---------------------------------------------------------------------------

def distance(model: CurvatureModel, x, y):
    """Geodesic distance between ambient points; broadcasts."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if model.kind == "flat":
        return np.linalg.norm(x - y, axis=-1)
    c = -model.kappa * minkowski_inner(x, y)
    rk = np.sqrt(model.kappa)
    # arccosh loses half the digits as c -> 1; the chord |x - y|_M keeps them
    # there, but cancels for pairs far apart, so it serves only where c < 2
    chord = rk * np.sqrt(np.maximum(minkowski_inner(x - y, x - y), 0.0))
    return np.where(c < 2.0, 2.0 * np.arcsinh(0.5 * chord), np.arccosh(np.maximum(c, 1.0))) / rk


def log_o_rows(model: CurvatureModel, w, sq=None):
    """Coordinates (d, ...) in the base frame at o of log_o(w) for points
    w (D, ...) samples last: w itself in flat space, and on the hyperboloid
    (asinh(z) / z) w_s with w_s the spatial part of w and
    z = sqrt(kappa)|w_s|, which reads only w_s and so keeps full relative
    precision near o and far from it.  sq (...), where given, is |w_s|^2,
    which the caller holds."""
    if model.kind == "flat":
        return w
    ws = w[:-1]
    z = np.sqrt(model.kappa * (np.sum(ws * ws, axis=0) if sq is None else sq))
    ratio = np.ones_like(z)
    np.divide(np.arcsinh(z), z, out=ratio, where=z > 0)
    return ws * ratio


def _renormalize_point(model: CurvatureModel, x):
    """Put x (D, ...) on the upper sheet <x,x>_M = -1/kappa in place: keep its spatial
    part, set its timelike one to sqrt(1/kappa + |x_spatial|^2); no cancellation."""
    x[-1] = np.sqrt(1.0 / model.kappa + np.sum(x[:-1] ** 2, axis=0))
    return x
