"""Matrix Jacobi flows along broken geodesics.

Each interval of an equally spaced partition carries a constant frame velocity
xi_i; the second-order matrix system Y'' = A_i Y (A_i the curvature quadratic
of xi_i) has cosine/sine-type solutions C_i, S_i.  Products of these assemble
the interval response matrices f_i(s_j), the positive mass matrix K(s), the
endpoint normal Jacobian, and the two volume factors used by the pinned
estimator.  Every function takes leading sample axes (one path is a batch of
one): the scalar factors come from one forward Gram pass over the path's body
(gram_pass), the suffix products f_i(1) serve the lift, and the dense table
of all f_i(s_j) is built only where every pair is needed.
Closed forms are the production route; a fixed-step RK4 integrator provides
the independent oracle behind the same interface.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geom
from .geom import CurvatureModel, NumericalError

COND_LIMIT = 1e12   # refuse or count beyond this condition number


@dataclass(frozen=True)
class Partition:
    """Equally spaced partition {0, 1/n, ..., 1} of the unit interval."""

    n: int

    def __post_init__(self):
        if not (isinstance(self.n, (int, np.integer)) and self.n >= 1):
            raise ValueError("partition needs an integer n >= 1")

    @property
    def knots(self) -> np.ndarray:
        return np.arange(self.n + 1) / self.n

    @property
    def mesh(self) -> float:
        """|P| = max interval length = 1/n."""
        return 1.0 / self.n

    def knot_index(self, t: float) -> int:
        """Index j of the knot s_j = t; raises ValueError when t is not a knot."""
        j = int(round(t * self.n))
        if abs(t * self.n - j) > 1e-9 or not 0 <= j <= self.n:
            raise ValueError(f"time {t} is not a knot of the partition")
        return j

    @classmethod
    def from_knots(cls, knots) -> "Partition":
        knots = np.asarray(knots, dtype=float)
        n = len(knots) - 1
        if n < 1 or not np.allclose(knots, np.arange(n + 1) / n, atol=1e-12):
            raise ValueError("knots must be 0, 1/n, ..., 1 (equal spacing)")
        return cls(n)


# ---------------------------------------------------------------------------
# One-interval cosine/sine solutions of Y'' = A_xi Y
# ---------------------------------------------------------------------------

def _interval_scalars(model: CurvatureModel, xi):
    """(cosh a, sinhc a, xi / |xi|) with a = sqrt(kappa) |xi|; xi (..., d).

    The closed-form interval solutions are C = cosh a I + (1 - cosh a) P and
    S / s = sinhc a I + (1 - sinhc a) P with P the projector onto xi; flat
    space (a = 0) gives C = I, S = s I exactly, and xi = 0 a zero direction.
    """
    nrm = np.sqrt(np.sum(xi * xi, axis=-1))
    unit = xi / np.where(nrm > 0, nrm, 1.0)[..., None]
    a = np.sqrt(model.kappa) * nrm
    return np.cosh(a), geom.sinhc(a), unit


def _cs_closed(model: CurvatureModel, xi, s):
    """Closed-form (C_xi(s), S_xi(s)); xi (..., d), s scalar or (...,).

    Constant curvature: with omega = sqrt(kappa)|xi| and P the projector onto
    xi,  C = P + cosh(omega s) (I-P)  and  S = s P + sinh(omega s)/omega (I-P);
    flat (or xi = 0) degenerates to C = I, S = s I.
    """
    xi = np.asarray(xi, dtype=float)
    s = np.asarray(s, dtype=float)
    ch, sc, unit = _interval_scalars(model, s[..., None] * xi)
    eye = np.eye(model.dim)
    proj = unit[..., :, None] * unit[..., None, :]
    C = ch[..., None, None] * eye + (1.0 - ch)[..., None, None] * proj
    S = s[..., None, None] * (sc[..., None, None] * eye + (1.0 - sc)[..., None, None] * proj)
    return C, S


def _cs_rk4(model: CurvatureModel, xi, h, substeps):
    """Fixed-step RK4 for Y'' = A_xi Y on [0, h]; returns (C, S, C', S')."""
    d = model.dim
    A = geom.curvature_matrix(model, xi)
    Y = np.hstack([np.eye(d), np.zeros((d, d))])     # values   of (C, S)
    V = np.hstack([np.zeros((d, d)), np.eye(d)])     # slopes   of (C, S)
    dt = h / substeps

    def rhs(y, v):
        return v, A @ y

    for _ in range(substeps):
        k1y, k1v = rhs(Y, V)
        k2y, k2v = rhs(Y + 0.5 * dt * k1y, V + 0.5 * dt * k1v)
        k3y, k3v = rhs(Y + 0.5 * dt * k2y, V + 0.5 * dt * k2v)
        k4y, k4v = rhs(Y + dt * k3y, V + dt * k3v)
        Y = Y + dt / 6.0 * (k1y + 2 * k2y + 2 * k3y + k4y)
        V = V + dt / 6.0 * (k1v + 2 * k2v + 2 * k3v + k4v)
    return Y[:, :d], Y[:, d:], V[:, :d], V[:, d:]


def solve_cs_interval(model: CurvatureModel, xi, h, method="closed", substeps=100):
    """Cosine/sine matrix pair (C_xi(h), S_xi(h)) for one interval.

    method "closed" is the production route; "rk4" integrates the same system
    with `substeps` fixed RK4 steps and exists as an independent check.
    """
    xi = np.asarray(xi, dtype=float)
    if not np.all(np.isfinite(xi)):
        raise ValueError("xi must be finite")
    try:
        h = float(h)
    except (TypeError, ValueError):
        raise ValueError("interval length h must be a scalar") from None
    if not np.isfinite(h) or h <= 0:
        raise ValueError("interval length h must be a positive finite scalar")
    if xi.shape != (model.dim,):
        raise ValueError(f"xi must have shape ({model.dim},)")
    if method == "closed":
        C, S = _cs_closed(model, xi, float(h))
        return C, S
    if method == "rk4":
        C, S, _, _ = _cs_rk4(model, xi, float(h), int(substeps))
        return C, S
    raise ValueError(f"unknown method {method!r}")


# ---------------------------------------------------------------------------
# The forward Gram pass and the scalar factors of the family (leading sample axes)
# ---------------------------------------------------------------------------

def batch_cs(model: CurvatureModel, increments, delta: float):
    """(C_i(delta), S_i(delta)) for increments (..., d), e.g. (..., n, d)."""
    velocities = np.asarray(increments, dtype=float) / delta
    return _cs_closed(model, velocities, delta)


def batch_endpoint_f(model: CurvatureModel, increments, delta: float) -> np.ndarray:
    """f_i evaluated at the right end of the covered span, i = 1..m.

    increments (..., m, d); returns (..., m, d, d) where entry i-1 is
    C_m ... C_{i+1} S_i / delta (suffix products).  The pinned estimator
    needs only Gram sums of these (gram_pass); the lift needs each f_i.
    """
    C, S = batch_cs(model, increments, delta)
    m, d = C.shape[-3], C.shape[-1]
    out = np.empty_like(C)
    suffix = np.broadcast_to(np.eye(d), C.shape[:-3] + (d, d)).copy()
    for a in range(m - 1, -1, -1):
        out[..., a, :, :] = suffix @ (S[..., a, :, :] / delta)
        suffix = suffix @ C[..., a, :, :]
    return out


def gram_pass(model: CurvatureModel, increments):
    """Gram sums G = sum_{i<=m} f_i f_i^T at the end of increments (..., m, d).

    One forward pass of G_j = C_j G_{j-1} C_j^T + (S_j/delta)(S_j/delta)^T
    from G_0 = 0, without dense products: with c = cosh a, s = sinhc a and e
    the unit increment, C = c I + (1 - c) e e^T and (S/delta)(S/delta)^T =
    s^2 I + (1 - s^2) e e^T, so G_j = c^2 G + s^2 I + e k^T + k e^T with
    k = c (1 - c) G e + ((1 - c)^2 e^T G e + 1 - s^2) e / 2.  Neither term
    depends on delta.  Returns (G, head), both (..., d, d) and zero when
    m = 0: G = G_m, and head = G_m without its last term, C_m G_{m-1} C_m^T =
    sum_{i<=m-1} f_i f_i^T.  K at the end of the span is delta * G.
    """
    # samples last: each entry of the (d, d) recursion is a contiguous vector
    inc = np.ascontiguousarray(np.moveaxis(np.asarray(increments, dtype=float),
                                           (-2, -1), (0, 1)))          # (m, d, ...)
    (m, d), batch = inc.shape[:2], inc.shape[2:]
    ch, sc, unit = _interval_scalars(model, np.moveaxis(inc, 1, -1))
    unit = np.moveaxis(unit, -1, 1)
    s2 = sc * sc
    cc, alpha, beta, gam = ch * ch, ch * (1.0 - ch), 0.5 * (1.0 - ch) ** 2, 0.5 * (1.0 - s2)
    G = np.zeros((d, d) + batch)
    diag = _diagonal(G)
    for j in range(m):
        e = unit[j]
        g = (G * e).sum(axis=1)
        k = alpha[j] * g + (beta[j] * (g * e).sum(axis=0) + gam[j]) * e
        ek = e[:, None] * k
        G *= cc[j]
        G += ek
        G += ek.swapaxes(0, 1)
        diag += s2[j]
    head = G.copy()
    if m:
        head -= (1.0 - s2[-1]) * unit[-1][:, None] * unit[-1]
        _diagonal(head)[...] -= s2[-1]
    return np.moveaxis(G, (0, 1), (-2, -1)), np.moveaxis(head, (0, 1), (-2, -1))


def _diagonal(A):
    """Writable view (d, ...) of the diagonal of a contiguous (d, d, ...) array."""
    d = A.shape[0]
    return A.reshape((d * d,) + A.shape[2:])[::d + 1]


def end_mass_matrix(G, Cx, Sx, delta: float) -> np.ndarray:
    """K(1) = delta C_x G C_x^T + S_x S_x^T / delta of a path whose body
    (ending at tau = 1 - delta) has Gram sum G and whose tip has solutions
    C_x, S_x (..., d, d): the last step of gram_pass, with dense matrices."""
    return (delta * Cx @ G @ np.swapaxes(Cx, -1, -2)
            + Sx @ np.swapaxes(Sx, -1, -2) / delta)


def pinning_gram(head, n: int) -> np.ndarray:
    """F = (I + sum_{i=1}^{n-2} f_i(tau) f_i(tau)^T) / n^2 from the body's
    gram_pass head; F = 0 when n = 1 (no body to perturb, V_x = 1)."""
    if n == 1:
        return np.zeros_like(head)
    return (np.eye(head.shape[-1]) + head) / n ** 2


def batch_mass_matrix(f_end, delta: float) -> np.ndarray:
    """K(end) = delta * sum_i f_i f_i^T from stacked f_i (..., m, d, d)."""
    return delta * np.einsum("...iab,...icb->...ac", f_end, f_end)


def _positive_logdet(A, what: str) -> np.ndarray:
    """log det A over the leading axes of A (..., d, d).

    Raises NumericalError unless every determinant is positive and finite
    (slogdet passes a NaN or infinite logdet with sign +1).
    """
    sign, logdet = np.linalg.slogdet(A)
    if not np.all((sign > 0) & np.isfinite(logdet)):
        raise NumericalError(f"{what} lost positivity or finiteness")
    return logdet


def log_normal_jacobian(K) -> np.ndarray:
    """log sqrt(det K(1)) from the mass matrix K(1) (..., d, d); J_P >= 1.

    Raises NumericalError if det K(1) is not positive and finite on any sample.
    """
    return 0.5 * _positive_logdet(K, "mass matrix K(1)")


def log_rho_P(S, delta: float) -> np.ndarray:
    """log rho_P: sum over the first n-1 of the intervals in S of log det(S_i / delta).

    S (..., n, d, d) as from batch_cs; the last interval is not counted.
    rho_P >= 1.
    """
    logdet = _positive_logdet(S[..., :-1, :, :] / delta, "sine-type solution")
    return np.sum(logdet, axis=-1)


def log_volume_change(F, Cx, Sx) -> np.ndarray:
    """log V_x, the volume factor of pinning the free endpoint to x.

    F      : (..., d, d) pinning_gram of the body
    Cx, Sx : (..., d, d) batch_cs of the tip vector xi_x (frame coordinates
             at tau of the log towards x, covered in time delta)
    V_x = sqrt(det(I + L F L^T)), L = C_x S_x^{-1}.  Raises NumericalError
    if the determinant is not positive and finite on any sample.
    """
    L = np.swapaxes(np.linalg.solve(np.swapaxes(Sx, -1, -2), np.swapaxes(Cx, -1, -2)),
                    -1, -2)
    gram = np.eye(F.shape[-1]) + L @ F @ np.swapaxes(L, -1, -2)
    return 0.5 * _positive_logdet(gram, "pinning volume factor")


def tip_cond_hits(model: CurvatureModel, xi_x) -> int:
    """Number of tips whose sine factor S_x has condition number
    sinhc(sqrt(kappa) |xi_x|) (exact in constant curvature) above COND_LIMIT."""
    a = np.sqrt(model.kappa * np.sum(np.square(xi_x), axis=-1))
    return int(np.sum(geom.sinhc(a) > COND_LIMIT))


# ---------------------------------------------------------------------------
# The dense family f_i(s_j) and the running mass matrix K(s_j)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class JacobiFamily:
    """All interval response matrices of broken geodesics.

    Arrays carry the leading sample axes (...) of the increments they were
    built from; a single path has none.
    velocities : (..., n, d) constant frame velocity per interval (n * increment)
    C, S       : (..., n, d, d) interval solutions at full step 1/n; index
                 i - 1 is interval [s_{i-1}, s_i] (the batch_cs layout)
    f          : (..., n+1, n+1, d, d); f[..., i, j, :, :] = f_i(s_j).  Row 0
                 is the identity convention; f_i(s_j) = 0 for j < i.
    K          : (..., n+1, d, d); K[..., j, :, :] = K(s_j), the running mass
                 matrix
    """

    model: CurvatureModel
    partition: Partition
    velocities: np.ndarray
    C: np.ndarray
    S: np.ndarray
    f: np.ndarray
    K: np.ndarray

    @property
    def n(self) -> int:
        return self.partition.n

    def f_eval(self, i: int, s: float) -> np.ndarray:
        """f_i(s) at arbitrary s (piecewise between stored knot values)."""
        n, delta = self.n, self.partition.mesh
        if i == 0:
            return self.f[..., 0, 0, :, :].copy()
        if s <= (i - 1) * delta:
            return np.zeros_like(self.f[..., 0, 0, :, :])
        j = min(int(np.ceil(s / delta - 1e-12)), n)   # interval index holding s
        local = s - (j - 1) * delta
        if j == i:
            _, S = _cs_closed(self.model, self.velocities[..., i - 1, :], local)
            return S / delta
        C, _ = _cs_closed(self.model, self.velocities[..., j - 1, :], local)
        return C @ self.f[..., i, j - 1, :, :]

    def jacobi_eval(self, slopes, s: float) -> np.ndarray:
        """Piecewise field with value 0 at s=0 and right-slope k_i at s_i."""
        slopes = np.asarray(slopes, dtype=float)
        n, delta = self.n, self.partition.mesh
        j = min(max(int(np.ceil(s / delta - 1e-12)), 1), n)
        J = jacobi_from_slopes(self, slopes)[..., j - 1, :]
        C, S = _cs_closed(self.model, self.velocities[..., j - 1, :], s - (j - 1) * delta)
        return (np.einsum("...ab,...b->...a", C, J)
                + np.einsum("...ab,...b->...a", S, slopes[..., j - 1, :]))


def build_family(model: CurvatureModel, partition: Partition, increments) -> JacobiFamily:
    """Assemble the dense family from anti-developed increments (..., n, d).

    Holds (n+1)^2 d^2 numbers per path: the reference the suffix pass is
    tested against, and the input of the convergence statistics, which need
    f_i(s_j) and K(s_j) at every knot.
    """
    increments = np.asarray(increments, dtype=float)
    n, d = partition.n, model.dim
    if increments.shape[-2:] != (n, d):
        raise ValueError(f"increments must have shape (..., {n}, {d})")
    if not np.all(np.isfinite(increments)):
        raise ValueError("increments must be finite")
    delta = partition.mesh
    velocities = increments / delta
    C, S = _cs_closed(model, velocities, delta)

    f = np.zeros(increments.shape[:-2] + (n + 1, n + 1, d, d))
    f[..., 0, :, :, :] = np.eye(d)
    for j in range(1, n + 1):
        f[..., j, j, :, :] = S[..., j - 1, :, :] / delta
        f[..., 1:j, j, :, :] = C[..., j - 1, None, :, :] @ f[..., 1:j, j - 1, :, :]

    # K(s_j) = (1/n) sum_{i <= j} f_i(s_j) f_i(1)^T; rows i > j of f vanish
    K = np.einsum("...ijab,...icb->...jac", f[..., 1:, :, :, :], f[..., 1:, n, :, :]) / n
    return JacobiFamily(model, partition, velocities, C, S, f, K)


def jacobi_from_slopes(family: JacobiFamily, slopes) -> np.ndarray:
    """Knot values (..., n+1, d) of the field with right-slopes k_i at the knots.

    Identical to (1/n) sum_i f_{i+1}(s_j) k_i; evaluated by the two-term
    interval recursion J(s_j) = C_j J(s_{j-1}) + S_j k_{j-1}.
    """
    slopes = np.asarray(slopes, dtype=float)
    n, d = family.n, family.model.dim
    if slopes.shape[-2:] != (n, d):
        raise ValueError(f"slopes must have shape (..., {n}, {d})")
    C, S = family.C, family.S
    J = np.zeros(np.broadcast_shapes(slopes.shape[:-2], C.shape[:-3]) + (n + 1, d))
    for j in range(1, n + 1):
        J[..., j, :] = (np.einsum("...ab,...b->...a", C[..., j - 1, :, :], J[..., j - 1, :])
                        + np.einsum("...ab,...b->...a", S[..., j - 1, :, :],
                                    slopes[..., j - 1, :]))
    return J


def slopes_from_knots(C, S, knot_values) -> np.ndarray:
    """Invert jacobi_from_slopes: right-slopes (..., n, d) from knot values.

    C, S (..., n, d, d) in the batch_cs layout, knot_values (..., n+1, d);
    k_{j-1} = S_j^{-1} (J(s_j) - C_j J(s_{j-1})) for every j at once.  C, S
    may broadcast against more leading axes (many fields along one path).
    """
    knot_values = np.asarray(knot_values, dtype=float)
    rhs = knot_values[..., 1:, :] - _matvec(C, knot_values[..., :-1, :])
    return _matvec(np.linalg.inv(S), rhs)


def _matvec(A, v):
    """A v over the last axes; A (..., d, d) broadcasts against v (..., d)."""
    out = np.zeros(np.broadcast_shapes(A.shape[:-1], v.shape))
    for a, b in np.ndindex(A.shape[-2:]):
        out[..., a] += A[..., a, b] * v[..., b]
    return out


def det_identity_check(A, rtol=1e-10):
    """Evaluate det(S^T S) against det(I + A A^T) for the stack S = [I; A].

    A : (k, m) block mapping the m-dim identity slot to k extra rows.
    Returns (lhs, rhs, ok); the two dets agree to rtol in exact arithmetic.
    """
    A = np.asarray(A, dtype=float)
    k, m = A.shape
    S = np.vstack([np.eye(m), A])
    lhs = float(np.linalg.det(S.T @ S))
    rhs = float(np.linalg.det(np.eye(k) + A @ A.T))
    ok = abs(lhs - rhs) <= rtol * max(abs(lhs), abs(rhs), 1.0)
    return lhs, rhs, ok
