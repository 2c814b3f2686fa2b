"""Constant-curvature geometry with moving frames.

Two models: flat R^d, and the hyperboloid sheet of sectional curvature -kappa
embedded in Minkowski space R^{d,1}.  The Minkowski form uses the *last*
ambient coordinate as the timelike one,

    <x, y>_M = sum_{i<d} x_i y_i - x_d y_d,

points satisfy <x,x>_M = -1/kappa with x_d > 0.  All point/tangent arrays are
ambient; functions broadcast over leading batch axes (points ``(..., D)``,
frames ``(..., D, d)`` with D = d for flat and d+1 for hyperbolic).  The
rolled step itself, _exp_frame_rows, takes coordinates first (points
``(D, ...)``, frames ``(D, d, ...)``): paths.roll_batch calls it with samples
last, and exp_frame is its batch-first face.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# points return to the sheet every step, frames on a schedule
# (paths.roll_batch); drift beyond this is a bug
CONSTRAINT_DRIFT_TOL = 1e-10


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


def log_point(model: CurvatureModel, x, y):
    """Inverse of the exponential map: ambient tangent v at x with exp_x(v) = y."""
    if model.kind == "flat":
        return y - x
    kappa = model.kappa
    c = np.maximum(-kappa * minkowski_inner(x, y), 1.0)
    a = np.arccosh(c)                       # = sqrt(kappa) * distance
    u = y - c[..., None] * x                # <u,u>_M = sinh(a)^2 / kappa
    return u / sinhc(a)[..., None]


def project_tangent(model: CurvatureModel, x, w):
    """Project an ambient vector onto the tangent space at x."""
    if model.kind == "flat":
        return w
    return w + (model.kappa * minkowski_inner(x, w))[..., None] * x


def _renormalize_point(model: CurvatureModel, x):
    """Put x (D, ...) on the upper sheet <x,x>_M = -1/kappa in place: keep its spatial
    part, set its timelike one to sqrt(1/kappa + |x_spatial|^2); no cancellation."""
    x[-1] = np.sqrt(1.0 / model.kappa + np.sum(x[:-1] ** 2, axis=0))
    return x


def renormalize_frame(model: CurvatureModel, x, frame):
    """Tangent-project + Minkowski Gram-Schmidt the frame columns at x."""
    if model.kind == "flat":
        return frame
    cols = []
    for j in range(frame.shape[-1]):
        v = project_tangent(model, x, frame[..., j])
        for u in cols:
            v = v - minkowski_inner(u, v)[..., None] * u
        v = v / np.sqrt(np.maximum(minkowski_inner(v, v), 1e-300))[..., None]
        cols.append(v)
    return np.stack(cols, axis=-1)


def frame_defect(model: CurvatureModel, x, frame) -> float:
    """Max deviation of the frame Gram matrix from identity (plus sheet drift)."""
    if model.kind == "flat":
        g = np.einsum("...ia,...ib->...ab", frame, frame)
        return float(np.max(np.abs(g - np.eye(frame.shape[-1]))))
    eta = np.ones(model.ambient_dim)
    eta[-1] = -1.0
    g = np.einsum("...ia,i,...ib->...ab", frame, eta, frame)
    gd = float(np.max(np.abs(g - np.eye(frame.shape[-1]))))
    sheet = float(np.max(np.abs(model.kappa * minkowski_inner(x, x) + 1.0)))
    tang = float(np.max(np.abs(minkowski_inner(x[..., None, :], np.moveaxis(frame, -1, -2)))))
    return max(gd, sheet, tang)


def frame_coords(model: CurvatureModel, frame, w):
    """Coordinates of ambient tangent w in the (orthonormal) frame."""
    if model.kind == "flat":
        return np.einsum("...ia,...i->...a", frame, w)
    eta = np.ones(model.ambient_dim)
    eta[-1] = -1.0
    return np.einsum("...ia,i,...i->...a", frame, eta, w)


def frame_vector(frame, v):
    """Ambient tangent vector with frame coordinates v."""
    return np.einsum("...ia,...a->...i", frame, v)


# ---------------------------------------------------------------------------
# The single exp-with-frame step everything else uses
# ---------------------------------------------------------------------------

def exp_frame(model: CurvatureModel, x, frame, v_frame):
    """One rolled step: move along exp and carry the frame by parallel transport.

    x        : (..., D) points
    frame    : (..., D, d), orthonormal and tangent at x
    v_frame  : (..., d) step in frame coordinates
    returns  : (y, new_frame)

    The batch-first face of _exp_frame_rows, which holds the step itself.
    """
    x, frame, v_frame = (np.asarray(a, dtype=float) for a in (x, frame, v_frame))
    batch = np.broadcast_shapes(x.shape[:-1], frame.shape[:-2], v_frame.shape[:-1])
    y, u = _exp_frame_rows(
        model, np.moveaxis(np.broadcast_to(x, batch + x.shape[-1:]), -1, 0),
        np.moveaxis(np.broadcast_to(frame, batch + frame.shape[-2:]), (-2, -1), (0, 1)),
        np.moveaxis(np.broadcast_to(v_frame, batch + v_frame.shape[-1:]), -1, 0))
    return np.moveaxis(y, 0, -1), np.moveaxis(u, (0, 1), (-2, -1))


def _exp_frame_rows(model: CurvatureModel, x, frame, v_frame):
    """exp_frame on coordinates-first arrays: x (D, ...), frame (D, d, ...),
    v_frame (d, ...), so that with samples last every operation is on
    contiguous rows.

    For an orthonormal frame <y, u_alpha>_M = sinhc(a) v_alpha with
    a = sqrt(kappa)|v_frame|, so the per-vector transport
    w + kappa <y, w>_M / (1 + cosh a) (x + y) becomes the rank-one boost
    u' = u + kappa sinhc(a)/(1 + cosh a) (x + y) v_frame^T, exact for an
    orthonormal frame.  It is not re-orthonormalised here, so roundoff drift
    accumulates over many steps until the caller applies renormalize_frame
    (paths.roll_batch does so on a fixed schedule).
    """
    v_amb = np.sum(frame * v_frame, axis=1)
    if model.kind == "flat":
        return x + v_amb, frame
    # |v_amb|_M = |v_frame| for an orthonormal frame
    a = np.sqrt(model.kappa * np.sum(v_frame * v_frame, axis=0))
    ch, sc = np.cosh(a), sinhc(a)
    y = _renormalize_point(model, ch * x + sc * v_amb)
    return y, frame + (model.kappa * sc / (1.0 + ch) * (x + y))[:, None] * v_frame
