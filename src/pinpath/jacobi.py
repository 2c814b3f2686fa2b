"""Matrix Jacobi flows along broken geodesics.

Each interval of an equally spaced partition carries a constant frame velocity
xi_i; the second-order matrix system Y'' = A_i Y (A_i the curvature quadratic
of xi_i) has cosine/sine-type solutions C_i = I + (cosh a - 1) Q and
S_i / delta = I + (sinhc a - 1) Q in closed form (a = sqrt(kappa)|xi_i|, Q
the projector orthogonal to xi_i).  The family is stored as (C_i, S_i) alone:
the scalars of Intervals, applied as C_i y and (S_i / delta) y by its cosine
and sine, so no dense C_i or S_i is formed (flat space: no scalar either).  The
pinned weight and the lift read Gram sums, the convergence audit f_i(s_j).

The scalar factors of the pinned estimator come from one forward Gram pass
over the body (gram_step, run by the estimator's own body loop or by the
property sweep over one Intervals of the whole path: the Gram sum G of the
first n-1 intervals and head, the same sum without its last term,
gram_head) and the tip, the last interval, in closed form
(tip_log_factors).  Write a = sqrt(kappa) |xi_x| for the tip vector xi_x,
e = xi_x / |xi_x|, P = e e^T, Q = I - P, r = tanh(a) / a in (0, 1] and
T = r^2 I + (1 - r^2) P.  Then C_x = cosh a Q + P and S_x = delta (sinhc a Q
+ P) commute with P, and
  K(1) = delta C_x G C_x^T + S_x S_x^T / delta = delta C_x (G + T) C_x,
so log J_P = (d/2) log delta + (d-1) log cosh a + (1/2) log det(G + T); and
with F = (I + head) / n^2 and L = C_x S_x^{-1} = n (Q / r + P) = n M,
  I + L F L^T = M (I + head + T) M,
so log V_x = (1/2) log det(I + head + T) - (d-1) log r (V_x = 1 at n = 1).
T has entries in [-1, 1], so G + T and I + head + T stay within 2 of G and
head entrywise: no large tip matrix is formed and nothing cancels, however far
the tip.  In flat space every C_i and S_i / delta is I: G = (n-1) I,
head = (n-2) I, a = 0 and T = I for every path, so V_x / J_P = n^{d/2} is a
per-run constant (measures._tip_factors) and only the Gaussian term varies.

A body of a few long steps in one direction spreads the eigenvalues of G by
cosh^2 of its length, and G's smallest one, along the steps, is then lost to
the roundoff of its largest.  scaled_gram_pass holds such sums as
G = P H P^T with P = C_m ... C_1, accumulating H from contractions only, and
tip_log_factors takes them that way too (its scale argument);
measures._tip_factors sends there the paths whose roundoff scale passes
GROWTH_LIMIT.

Every determinant here is of a symmetric positive definite (SPD) matrix: G
and head are Gram sums, positive semidefinite, and T = r^2 Q + P has
eigenvalues r^2 > 0 and 1, so G + T and I + head + T are SPD.  Their
log-dets come from one kernel, the square-root-free Cholesky factorization
run samples last on (d, d, ...) arrays (_positive_factor): the log-det is the
sum of the logs of its pivots (_positive_logdet), and the lift's solve with
the mass matrix K(1) = delta G runs on the same factors (_positive_solve).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .geom import CurvatureModel, NumericalError

COND_LIMIT = 1e12   # refuse or count beyond this condition number
GROWTH_LIMIT = 1e6  # Gram sums whose roundoff grew past this are rebuilt scaled


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


# ---------------------------------------------------------------------------
# One-interval cosine/sine solutions of Y'' = A_xi Y: scalars and actions
# ---------------------------------------------------------------------------

def _polar(model: CurvatureModel, xi):
    """(a, xi / |xi|) with a = sqrt(kappa) |xi| for xi (..., d); xi = 0 has a
    zero direction and flat space a = 0."""
    xi = np.asarray(xi, dtype=float)
    nrm = np.sqrt(np.sum(xi * xi, axis=-1))
    unit = xi / np.where(nrm > 0, nrm, 1.0)[..., None]
    return np.sqrt(model.kappa) * nrm, unit


def _square_norm(v, out=None):
    """|v|^2 (...) of v (d, ...), summed over d in order, so that a sample's
    bits do not depend on how many samples share its chunk; out, where
    given, is a buffer like v[0] that takes the squares."""
    total = v[0] * v[0]
    for a in range(1, len(v)):
        total += np.multiply(v[a], v[a], out=out)
    return total


class Intervals:
    """Scalars of the intervals of increments xi (m, d, ...), samples last,
    computed once over the whole span and read by every recursion over it:
    the Gram step (gram_step), the point boost B(+-xi_j) (paths.boost_rows)
    and the actions C_j y (cosine) and (S_j / delta) y (sine), which share
    the projection <e, y> e (along) when both act on one y.  With
    a = sqrt(kappa)|xi| (0 in flat space), each (m, ...): inv = 1/|xi| (1 at
    xi = 0), so that the unit increment is xi_j inv_j (unit); sh = sinh a;
    chm1 = cosh a - 1; and s2 = sinhc^2 a.  All three come from one expm1,
    E = e^a - 1: sinh a = E (E + 2) / 2(E + 1) and cosh a - 1 = E^2 / 2(E + 1),
    neither of which cancels at small a.  flat records whether the model is
    flat, where every C_j and S_j / delta is I (sh = chm1 = 0, s2 = 1, read
    only; inv on first use).
    """

    def __init__(self, model: CurvatureModel, xi, sq=None):
        # in place where possible: at a 4096-path chunk each array is 1 MB,
        # and fresh pages cost more than the arithmetic.  sq, where given, is
        # |xi|^2 (m, ...) summed over d in order, which the caller holds.
        self.xi, self.flat = xi, model.kind == "flat"
        if self.flat:
            self.sh, self.chm1, self.s2 = (np.broadcast_to(v, xi.shape[:1] + xi.shape[2:])
                                           for v in (0.0, 0.0, 1.0))
            return
        a, self.inv = self._norms(sq)
        a *= np.sqrt(model.kappa)
        E = np.expm1(a)
        half = E + 1.0
        np.divide(0.5, half, out=half)
        self.sh = E + 2.0
        self.sh *= E
        self.sh *= half
        E *= E
        E *= half
        self.chm1 = E
        self.s2 = np.ones_like(a)
        np.divide(self.sh, a, out=self.s2, where=a > 0)
        self.s2 *= self.s2

    inv = cached_property(lambda self: self._norms()[1])   # flat space: on first use

    def _norms(self, sq=None):
        """(|xi|, 1/|xi|), each (m, ...), from |xi|^2 when given."""
        xi = self.xi
        inv = np.empty(xi.shape[:1] + xi.shape[2:])
        if sq is None:
            nrm = _square_norm(xi.swapaxes(0, 1), inv)    # squares in inv's buffer
            np.sqrt(nrm, out=nrm)
        else:
            nrm = np.sqrt(sq)
        inv[...] = 1.0
        np.divide(1.0, nrm, out=inv, where=nrm > 0)
        return nrm, inv

    def unit(self, j: int, like=None):
        """The unit increments (d, ...) of interval j (zero where xi_j = 0),
        shaped to broadcast against a stack like (d, ..., B) when given."""
        e = self.xi[j] * self.inv[j]
        return e if like is None else e[(slice(None),) + (None,) * (like.ndim - e.ndim)]

    def along(self, j: int, y, e=None):
        """<e, y> e for y (d, ..., B), e = unit(j, y) unless given: the part
        of y along the increment, which cosine and sine of one y share."""
        e = self.unit(j, y) if e is None else e
        return np.sum(e * y, axis=0) * e

    def cosine(self, j: int, y, along=None):
        """C_j y = y + (cosh a - 1)(y - <e, y> e), y (d, ..., B); along is
        <e, y> e (self.along) when the caller holds it."""
        along = self.along(j, y) if along is None else along
        return y + self.chm1[j] * (y - along)

    def sine(self, j: int, y, along=None):
        """(S_j / delta) y = sinhc a y + (1 - sinhc a) <e, y> e, y (d, ..., B);
        along as in cosine."""
        along = self.along(j, y) if along is None else along
        sc = np.sqrt(self.s2[j])
        return sc * y + (1.0 - sc) * along


# ---------------------------------------------------------------------------
# The forward Gram pass and the scalar factors of the family
# ---------------------------------------------------------------------------

def gram_step(G, iv: Intervals, j: int, e=None, work=None):
    """G <- C_j G C_j^T + (S_j/delta)(S_j/delta)^T in place, for a contiguous
    G (d, d, ...) samples last, without dense products: with
    c = cosh a, u = c - 1, s = sinhc a and e the unit increment,
    C = c I - u e e^T and (S/delta)(S/delta)^T = s^2 I + (1 - s^2) e e^T, so
    the update is c^2 G + s^2 I + e k^T + k e^T with
    k = -c u G e + (u^2 e^T G e + 1 - s^2) e / 2.  Neither term depends on
    delta.  Flat space has C = I and S/delta = I: the step adds I.  G may
    have more axes than iv's increments (Intervals.unit).  e, where given,
    is iv.unit(j, G[0]), and work an array shaped like G for the products,
    for a caller that holds them.  Returns c^2 (1.0 in flat space).
    """
    if iv.flat:
        _diagonal(G)[...] += 1.0
        return 1.0
    e = iv.unit(j, G[0]) if e is None else e
    u, s2 = iv.chm1[j], iv.s2[j]
    c = 1.0 + u
    g = np.multiply(G, e, out=work).sum(axis=1)
    k = (-c * u) * g + ((0.5 * u * u) * (g * e).sum(axis=0) + 0.5 * (1.0 - s2)) * e
    ek = np.multiply(e[:, None], k, out=work)
    c *= c
    G *= c
    G += ek
    G += ek.swapaxes(0, 1)
    _diagonal(G)[...] += s2
    return c


def scaled_gram_pass(iv: Intervals):
    """The Gram sums of the hyperbolic paths with increments iv (m, d, B),
    m >= 1, held scaled by P = C_m ... C_1 so that nothing cancels:
    G = P H P^T and head = P H_head P^T.  Returns (H, H_head, R, log det P),
    H, H_head and R = P^{-1} (d, d, B), log det P (B,).

    Every C_j stretches by cosh a_j across xi_j, so a long straight body
    spreads the eigenvalues of G by cosh^2 of its length and gram_step loses
    the smallest to the roundoff of the largest.  Here each term enters as
    (R_{j-1} C_j^{-1} S_j)(...)^T with C^{-1} S / delta = t Q + e e^T,
    t = tanh(a) / a, and every C_j^{-1} = Q / cosh a + e e^T contracts, so H
    has entries of order m and eigenvalues at least those of its first term,
    t_1^2 and 1.  With f = R_{j-1} e_j and W = R R^T:
    H += t^2 W + (1 - t^2) f f^T, W <- W / c^2 + (1 - 1/c^2) f f^T and
    R <- R / c + (1 - 1/c) f e^T, c = cosh a_j; det P = prod_j c_j^{d-1}.
    """
    m, d, B = iv.xi.shape
    R = np.zeros((d, d, B))
    _diagonal(R)[...] = 1.0
    W, H, log_det_p = R.copy(), np.zeros((d, d, B)), np.zeros(B)
    for j in range(m):
        e, c = iv.unit(j), iv.chm1[j] + 1.0
        c2 = c * c
        t2 = iv.s2[j] / c2
        f = (R * e).sum(axis=1)
        ff = f[:, None] * f
        if j == m - 1:
            head = H.copy()
        H += t2 * W
        H += (1.0 - t2) * ff
        W /= c2
        W += (1.0 - 1.0 / c2) * ff
        R /= c
        R += (1.0 - 1.0 / c) * f[:, None] * e
        log_det_p += np.log(c)
    return H, head, R, (d - 1) * log_det_p


def gram_head(G, iv: Intervals, m: int | None = None):
    """head (d, d, ...): the Gram sum G (d, d, ...) at the end of the first m
    intervals of iv (all of them by default) without its last term
    (S_m/delta)(S_m/delta)^T (I in flat space); G itself when m = 0."""
    m = iv.xi.shape[0] if m is None else m
    head = G.copy()
    if m:
        if not iv.flat:
            e = iv.unit(m - 1)
            head -= (1.0 - iv.s2[m - 1]) * e[:, None] * e
        _diagonal(head)[...] -= 1.0 if iv.flat else iv.s2[m - 1]
    return head


def _diagonal(A):
    """Writable view (d, ...) of the diagonal of a contiguous (d, d, ...) array."""
    d = A.shape[0]
    return A.reshape((d * d,) + A.shape[2:])[::d + 1]


def _congruence(R, A=None):
    """R A R^T (d, d, ...), or R R^T without A, for R and A (d, d, ...),
    samples last, with no product routine that would round by batch size."""
    RA = R if A is None else (R[:, :, None] * A[None]).sum(axis=1)
    return (RA[:, None] * R[None]).sum(axis=2)


def _positive_factor(A, what: str):
    """The square-root-free Cholesky factorization of symmetric positive
    definite A (d, d, ...), samples last: A = L D L^T = L U, U = D L^T.
    Returns, step by step, the pivots s_j = D_jj (d arrays (...,)), the rest
    w_j of each pivot column, row j of U past its diagonal, and the
    multipliers l_j = w_j / s_j, column j of L below its diagonal (d arrays
    (d-j-1, ...) each).

    Step j works on contiguous rows of samples: its pivot s_j is the first
    diagonal entry of the trailing block W, w_j the rest of W's first column,
    and W becomes the Schur complement W[1:, 1:] - l_j w_j^T (s_j = L_jj^2 of
    the Cholesky factor with square roots).  Only the lower triangle is read,
    so finiteness is checked on every entry first.  A pivot never exceeds
    its diagonal entry, so finite entries and positive pivots give a finite
    factorization.  Raises NumericalError unless every entry is finite and
    every pivot positive.
    """
    if not np.isfinite(A).all():
        raise NumericalError(f"{what} lost positivity or finiteness")
    pivots, cols, mults, W = [], [], [], A
    for _ in range(A.shape[0]):
        pivot = W[0, 0]
        if not (pivot > 0).all():
            raise NumericalError(f"{what} lost positivity or finiteness")
        col = W[1:, 0]
        mult = col / pivot
        W = W[1:, 1:] - mult[:, None] * col
        pivots.append(pivot)
        cols.append(col)
        mults.append(mult)
    return pivots, cols, mults


def _positive_logdet(A, what: str) -> np.ndarray:
    """log det A (...,) of symmetric positive definite A (d, d, ...), samples
    last, as the sum of the logs of its pivots (_positive_factor, which
    raises NumericalError unless A is finite and its pivots positive)."""
    logdet = np.zeros(A.shape[2:])
    for pivot in _positive_factor(A, what)[0]:
        logdet += np.log(pivot)
    return logdet


def _positive_solve(A, b, what: str) -> np.ndarray:
    """A^{-1} b (d, ...) for symmetric positive definite A (d, d, ...) and b
    (d, ...), samples last, on the factors A = L U of _positive_factor
    (which raises NumericalError unless A is finite and its pivots
    positive): forward through L, y_{j+1:} -= l_j y_j, then back through U,
    x_j = (y_j - <w_j, x_{j+1:}>) / s_j.  b is not written to."""
    pivots, cols, mults = _positive_factor(A, what)
    x = np.array(b, dtype=float)
    for j, mult in enumerate(mults):
        x[j + 1:] -= mult * x[j]
    for j in range(len(pivots) - 1, -1, -1):
        x[j] -= np.sum(cols[j] * x[j + 1:], axis=0)
        x[j] /= pivots[j]
    return x


def tip_log_factors(model: CurvatureModel, G, head, tip, n: int, scale=None):
    """(log J_P, log V_x, hits) of paths on n intervals whose body (the first
    n-1) has Gram sums (G, head), each (..., d, d) (gram_step, gram_head),
    and whose tip, the last interval, covers the vector tip (..., d) in time
    delta = 1/n; the tip is factored out in closed form (module docstring).
    With scale = (R (..., d, d), log det P (...,)), G and head are the scaled
    sums H and H_head of scaled_gram_pass, R = P^{-1}, and the log-dets run
    on P^{-1}(G + T)P^{-T} = H + R T R^T and
    P^{-1}(I + head + T)P^{-T} = H_head + R R^T + R T R^T, plus 2 log det P.
    The log-factors have the tips' batch shape; hits counts the tips whose
    sine factor S_x has condition number sinhc a = r cosh a (exact in
    constant curvature) above COND_LIMIT, compared in logs so that no tip
    overflows.  The arithmetic runs samples last on views of the arguments,
    so samples-last arrays passed as transposed views are not copied.  In
    flat space the same arithmetic gives a = 0, r = 1 and T = I, so the
    log-dets are of G + I and 2I + head and hits is 0 (the pinned estimator
    needs no call there: measures._tip_factors).

    Raises NumericalError unless every determinant is positive and finite.
    """
    d = model.dim
    G, head = (np.moveaxis(X, (-2, -1), (0, 1)) for X in (G, head))
    a, unit = _polar(model, tip)
    unit = np.moveaxis(unit, -1, 0)                        # (d, ...)
    safe = np.where(a > 0, a, 1.0)
    r = np.where(a > 0, np.tanh(safe) / safe, 1.0)
    r2 = r * r
    # T = r^2 I + (1 - r^2) P, samples last
    T = np.empty((d, d) + a.shape)
    np.multiply(unit[:, None], unit, out=T)
    T *= 1.0 - r2
    _diagonal(T)[...] += r2
    log_r = np.log(r)
    log_cosh = a + np.log1p(0.5 * np.expm1(-2.0 * a))      # no overflow at large a
    hits = int(np.count_nonzero(log_r + log_cosh > np.log(COND_LIMIT)))
    bare, log_det_p = T, 0.0
    if scale is not None:
        R, log_det_p = np.moveaxis(scale[0], (-2, -1), (0, 1)), scale[1]
        T = _congruence(R, bare)
    log_jp = (-0.5 * d * np.log(n) + (d - 1) * log_cosh + log_det_p
              + 0.5 * _positive_logdet(G + T, "mass matrix K(1)"))
    if n == 1:      # no body to perturb
        return log_jp, np.zeros(a.shape), hits
    if scale is not None:
        # R R^T + R T R^T keeps the small eigenvalues only where H_head holds
        # them; a one-interval body has head = 0, and I + T needs no scale
        T += head
        T += _congruence(R)
        one = ~head.any(axis=(0, 1))
        _diagonal(bare)[...] += 1.0
        T, log_det_p = np.where(one, bare, T), np.where(one, 0.0, log_det_p)
    else:
        T += head                                         # I + head + T, in place
        _diagonal(T)[...] += 1.0
    log_vx = (0.5 * _positive_logdet(T, "pinning volume factor") + log_det_p
              - (d - 1) * log_r)
    return log_jp, log_vx, hits

