"""Constant-curvature geometry with moving frames.

Two models: flat R^d, and the hyperboloid sheet of sectional curvature -kappa
embedded in Minkowski space R^{d,1}.  The Minkowski form uses the *last*
ambient coordinate as the timelike one,

    <x, y>_M = sum_{i<d} x_i y_i - x_d y_d,

points satisfy <x,x>_M = -1/kappa with x_d > 0.  All point/tangent arrays are
ambient; functions broadcast over leading batch axes (points ``(..., D)``,
frames ``(..., D, d)`` with D = d for flat and d+1 for hyperbolic).
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


@dataclass(frozen=True)
class FramePoint:
    """A point with an orthonormal tangent frame (columns of ``frame``)."""

    point: np.ndarray   # (D,)
    frame: np.ndarray   # (D, d)

    def __post_init__(self):
        p = np.array(self.point, dtype=float)
        f = np.array(self.frame, dtype=float)
        p.setflags(write=False)
        f.setflags(write=False)
        object.__setattr__(self, "point", p)
        object.__setattr__(self, "frame", f)


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


def base_frame_point(model: CurvatureModel) -> FramePoint:
    return FramePoint(base_point(model), base_frame(model))


# ---------------------------------------------------------------------------
# Core point operations (batched over leading axes)
# ---------------------------------------------------------------------------

def distance(model: CurvatureModel, x, y):
    """Geodesic distance; accepts FramePoints or ambient arrays."""
    x = x.point if isinstance(x, FramePoint) else np.asarray(x, dtype=float)
    y = y.point if isinstance(y, FramePoint) else np.asarray(y, dtype=float)
    if model.kind == "flat":
        return np.linalg.norm(x - y, axis=-1)
    c = -model.kappa * minkowski_inner(x, y)
    # roundoff can push the cosh slightly below 1
    return np.arccosh(np.maximum(c, 1.0)) / np.sqrt(model.kappa)


def exp_point(model: CurvatureModel, x, v):
    """Geodesic step: exp_x(v) for an ambient tangent vector v at x."""
    if model.kind == "flat":
        return x + v
    sk = np.sqrt(model.kappa)
    nrm = np.sqrt(np.maximum(minkowski_inner(v, v), 0.0))
    a = sk * nrm
    y = np.cosh(a)[..., None] * x + sinhc(a)[..., None] * v
    return _renormalize_point(model, y)


def log_point(model: CurvatureModel, x, y):
    """Inverse of exp_point: ambient tangent v at x with exp_x(v) = y."""
    if model.kind == "flat":
        return y - x
    kappa = model.kappa
    c = np.maximum(-kappa * minkowski_inner(x, y), 1.0)
    a = np.arccosh(c)                       # = sqrt(kappa) * distance
    u = y - c[..., None] * x                # <u,u>_M = sinh(a)^2 / kappa
    return u / sinhc(a)[..., None]


def transport(model: CurvatureModel, x, y, w):
    """Parallel transport of ambient tangent w along the geodesic x -> y."""
    if model.kind == "flat":
        return w
    kappa = model.kappa
    c = np.maximum(-kappa * minkowski_inner(x, y), 1.0)
    coef = kappa * minkowski_inner(y, w) / (1.0 + c)
    return w + coef[..., None] * (x + y)


def project_tangent(model: CurvatureModel, x, w):
    """Project an ambient vector onto the tangent space at x."""
    if model.kind == "flat":
        return w
    return w + (model.kappa * minkowski_inner(x, w))[..., None] * x


def _renormalize_point(model: CurvatureModel, x):
    """Put x on the upper sheet <x,x>_M = -1/kappa: keep its spatial part, set its
    timelike one to sqrt(1/kappa + |x_spatial|^2); nothing cancels far from o."""
    y = x.copy()
    y[..., -1] = np.sqrt(1.0 / model.kappa + np.sum(x[..., :-1] ** 2, axis=-1))
    return y


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
# Frame transport / the single exp-with-frame step everything else uses
# ---------------------------------------------------------------------------

def exp_frame(model: CurvatureModel, x, frame, v_frame):
    """One rolled step: move along exp and carry the frame by parallel transport.

    x        : (..., D) points
    frame    : (..., D, d), orthonormal and tangent at x
    v_frame  : (..., d) step in frame coordinates
    returns  : (y, new_frame)

    The frame moves by the closed-form update of transport_frame, exact for
    an orthonormal frame; it is not re-orthonormalised here, so roundoff
    drift accumulates over many steps until the caller applies
    renormalize_frame (paths.roll_batch does so on a fixed schedule).
    """
    v_amb = frame_vector(frame, v_frame)
    if model.kind == "flat":
        return x + v_amb, frame
    # |v_amb|_M = |v_frame| for an orthonormal frame
    a = np.sqrt(model.kappa * np.sum(v_frame * v_frame, axis=-1))
    ch, sc = np.cosh(a), sinhc(a)
    y = _renormalize_point(model, ch[..., None] * x + sc[..., None] * v_amb)
    return y, _boost_frame(model, x, y, frame, v_frame, ch, sc)


def transport_frame(model: CurvatureModel, x, y, frame, v_frame):
    """Parallel transport of an orthonormal frame at x along the geodesic to
    y = exp_x(frame v_frame); v_frame (..., d) in frame coordinates.

    Equal to transport applied column by column: for an orthonormal frame
    <y, u_alpha>_M = sinhc(a) v_alpha with a = sqrt(kappa)|v_frame|, so the
    frame moves by the rank-one boost
    u' = u + kappa sinhc(a)/(1 + cosh a) (x + y) v_frame^T.
    """
    if model.kind == "flat":
        return frame
    a = np.sqrt(model.kappa * np.sum(v_frame * v_frame, axis=-1))
    return _boost_frame(model, x, y, frame, v_frame, np.cosh(a), sinhc(a))


def _boost_frame(model, x, y, frame, v_frame, ch, sc):
    """The rank-one frame update of transport_frame, given cosh a and sinhc a."""
    coef = model.kappa * sc / (1.0 + ch)
    return frame + (coef[..., None] * (x + y))[..., :, None] * v_frame[..., None, :]


def exp_map(model: CurvatureModel, fp: FramePoint, v) -> FramePoint:
    """Geodesic exponential of frame-coordinate vector v, frame carried along."""
    v = np.asarray(v, dtype=float)
    y, f = exp_frame(model, fp.point, fp.frame, v)
    return FramePoint(y, f)


def log_map(model: CurvatureModel, fp: FramePoint, y) -> np.ndarray:
    """Frame coordinates of log_{fp.point}(y); inverse of exp_map on points."""
    y = y.point if isinstance(y, FramePoint) else np.asarray(y, dtype=float)
    v_amb = log_point(model, fp.point, y)
    return frame_coords(model, fp.frame, v_amb)


# ---------------------------------------------------------------------------
# Curvature in frame coordinates (frame-independent for these models)
# ---------------------------------------------------------------------------

def curvature_apply(model: CurvatureModel, a, b, c):
    """R(a,b)c in orthonormal-frame coordinates: -kappa(<b,c>a - <a,c>b)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    if model.kind == "flat":
        return np.zeros(np.broadcast(a, b, c).shape)
    bc = np.sum(b * c, axis=-1)[..., None]
    ac = np.sum(a * c, axis=-1)[..., None]
    return -model.kappa * (bc * a - ac * b)


def curvature_quadratic(model: CurvatureModel, xi, v):
    """A_xi(v) = R(xi, v)xi = kappa(|xi|^2 v - <v,xi> xi); PSD with kernel xi."""
    xi = np.asarray(xi, dtype=float)
    v = np.asarray(v, dtype=float)
    if model.kind == "flat":
        return np.zeros(np.broadcast(xi, v).shape)
    n2 = np.sum(xi * xi, axis=-1)[..., None]
    vx = np.sum(v * xi, axis=-1)[..., None]
    return model.kappa * (n2 * v - vx * xi)


def curvature_matrix(model: CurvatureModel, xi):
    """Matrix of A_xi acting on frame coordinates; shape (..., d, d)."""
    xi = np.asarray(xi, dtype=float)
    d = model.dim
    eye = np.eye(d)
    if model.kind == "flat":
        return np.zeros(xi.shape[:-1] + (d, d))
    n2 = np.sum(xi * xi, axis=-1)[..., None, None]
    outer = xi[..., :, None] * xi[..., None, :]
    return model.kappa * (n2 * eye - outer)


def ricci_apply(model: CurvatureModel, v):
    """Ricci operator: kappa (d-1) Identity applied to v."""
    v = np.asarray(v, dtype=float)
    return model.kappa * (model.dim - 1) * v
