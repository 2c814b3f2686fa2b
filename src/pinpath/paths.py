"""Broken geodesics: Gaussian increments developed by boosts.

A path is determined by its anti-developed increments (Delta_1 b, ...,
Delta_n b) in frame coordinates: each interval is a geodesic segment of
initial velocity frame * increment / Delta.  Its development is the product
of transvections g_j = B(xi_1) ... B(xi_j), the boosts along the
increments (translations in flat space): knot j is g_j o, and g_j carries
o's frame to the knot's by parallel transport.  Sampling is counter-based
(Philox keyed by master seed and a fixed-size chunk index) so that sample
i's increments are a function of (seed, i) alone -- independent of batch
size, ordering, or worker count.
"""

from __future__ import annotations

import numpy as np
from numpy.random import Generator, Philox

from . import geom
from .geom import CurvatureModel
from .jacobi import Intervals, Partition

CHUNK = 4096   # fixed RNG block size; do not change (breaks reproducibility)
FAR_POINT = 10.0    # sqrt(kappa) e^a y_t past which boost_rows goes light-cone
_DRAW_ROWS = 256    # rows of a Philox block per standard_normal call


# ---------------------------------------------------------------------------
# Counter-based sampling
# ---------------------------------------------------------------------------

def sample_increments(model: CurvatureModel, partition: Partition, count: int,
                      seed: int, start: int = 0) -> np.ndarray:
    """Draw increments for samples [start, start+count); shape (count, n, d).

    Each interval increment is N(0, (1/n) I_d).  Sample index i always maps to
    Philox key (seed, i // CHUNK), row i % CHUNK of that key's standard-normal
    block (CHUNK, n, d), so draws are bit-reproducible per (seed, i) and
    chunks can be generated in any order or in parallel.  A block is drawn
    _DRAW_ROWS rows at a time into one small buffer (standard_normal fills in
    order, so the rows are those of one call) up to its last needed row, and
    each needed row is copied samples last.  The increments are stored as
    (n, d, count), and the result is a view of that buffer: its
    transpose(1, 2, 0) is contiguous, so the samples-last recursions over it
    copy nothing.
    """
    n, d = partition.n, model.dim
    if count < 0 or start < 0:
        raise ValueError("count and start must be non-negative")
    out = np.empty((n, d, count))
    buf = np.empty((min(_DRAW_ROWS, start % CHUNK + count), n, d))
    scale = np.sqrt(partition.mesh)
    pos = 0
    while pos < count:
        chunk_id, offset = divmod(start + pos, CHUNK)
        end = min(CHUNK, offset + count - pos)       # rows [offset, end) needed
        rng = Generator(Philox(key=np.array([seed, chunk_id], dtype=np.uint64)))
        for row in range(0, end, len(buf)):
            block = buf[:min(len(buf), end - row)]       # chunk rows [row, stop)
            rng.standard_normal(out=block)
            first, stop = max(row, offset), row + len(block)
            if first < stop:
                np.multiply(block[first - row:].transpose(1, 2, 0), scale,
                            out=out[..., pos + first - offset:pos + stop - offset])
        pos += end - offset
    return out.transpose(2, 0, 1)


# ---------------------------------------------------------------------------
# Development
# ---------------------------------------------------------------------------

def boost_rows(model: CurvatureModel, y, iv: Intervals, j: int, sign: float,
               vector: bool = False, p=None):
    """y <- B(sign xi_j) y in place for points y (D, ...) samples last, the
    boost B(xi) in SO+(d,1) that moves o along xi (iv the Intervals of the
    increments; a translation in flat space).  Returns |y_s|^2 (...) of
    the moved hyperbolic points as stored, else None; p, where given, is
    iv.unit(j, y).  With a = sqrt(kappa)|xi_j| and q = -sign p, y_s moves by
    ((cosh a - 1) <q, y_s> - sinh a y_t) q and y_t comes back on the sheet
    from |y_s|^2.  That cancels terms of size e^a y_t down to a result up
    to e^{-2a} smaller where a long step carries a far y toward o; so wherever
    sqrt(kappa) e^a y_t passes FAR_POINT, sample by sample, the point moves
    in light-cone form instead (_light_cone_boost).  With vector, y holds
    ambient vectors and y_t moves linearly, by (cosh a - 1) y_t +
    sign sinh a <p, y_s>; a translation leaves a vector unchanged.  The
    stack may have more axes than iv's increments.
    """
    if model.kind == "flat":
        if not vector:
            xi = iv.xi[j]
            np.add(y, sign * xi[(slice(None),) + (None,) * (y.ndim - xi.ndim)], out=y)
        return
    p = iv.unit(j, y) if p is None else p
    ys = y[:-1]
    if vector:
        along = np.sum(p * ys, axis=0)
        ys += (iv.chm1[j] * along + sign * iv.sh[j] * y[-1]) * p
        y[-1] += iv.chm1[j] * y[-1] + sign * iv.sh[j] * along
        return
    q = p if sign < 0 else -p
    grow = iv.chm1[j] + iv.sh[j]
    grow += 1.0                                       # e^a
    far = np.nonzero(grow * y[-1] > FAR_POINT / np.sqrt(model.kappa))
    at = (slice(None),) + far
    if far[0].size:
        y_far = y[at]
        sq_far = _light_cone_boost(model, y_far, np.broadcast_to(q, ys.shape)[at],
                                   np.broadcast_to(grow, y[-1].shape)[far])
    along = np.sum(q * ys, axis=0)
    along *= iv.chm1[j]
    along -= iv.sh[j] * y[-1]
    ys += along * q
    sq = np.sum(ys * ys, axis=0)
    np.sqrt(sq + 1.0 / model.kappa, out=y[-1])
    if far[0].size:
        y[at], sq[far] = y_far, sq_far
    return sq


def _light_cone_boost(model: CurvatureModel, y, q, grow):
    """boost_rows' light-cone form for points y (D, B), grow = e^a: with
    y_q = <q, y_s>, y_perp = y_s - y_q q and a the step, the coordinates
    y_t +- y_q scale by e^{-+a} and y_perp stays.  The larger of the two is
    y_t + |y_q|, a sum of non-negative terms, and the smaller is
    (1/kappa + |y_perp|^2) over it, since their product is y_t^2 - y_q^2;
    so both new ones come to full relative precision, and
    y'_q = ((y'_t + y'_q) - (y'_t - y'_q)) / 2 cancels only as far as y'
    itself lies near o.  y'_t is the half sum, on the sheet to rounding.
    Returns |y'_s|^2 of y'_s as stored: y_perp keeps a part along q of the
    size of y_q's roundoff, so |y_perp|^2 + y'_q^2 can miss it by more than
    the stored point's own rounding, and the pinned bridge's drift scales
    the stored y'_s by a function of its norm."""
    ys = y[:-1]
    along = np.sum(q * ys, axis=0)
    ys -= along * q                                   # y_perp
    perp2 = np.sum(ys * ys, axis=0)
    big = np.abs(along) + y[-1]
    small = (perp2 + 1.0 / model.kappa) / big
    ahead = along >= 0.0
    plus = np.where(ahead, big, small) / grow         # y'_t + y'_q
    minus = np.where(ahead, small, big) * grow        # y'_t - y'_q
    new_q = 0.5 * (plus - minus)
    ys += new_q * q
    y[-1] = 0.5 * (plus + minus)
    return np.sum(ys * ys, axis=0)


def boost_to_knots(model: CurvatureModel, iv: Intervals, index, vectors=None):
    """The points (D, K, B) at the knots index (K,), non-increasing, of the
    paths whose increments have Intervals iv: knot j is
    B(xi_1) ... B(xi_j) o, carried from o by j calls of boost_rows,
    innermost first, one call per interval on the columns that reach past
    it.  With vectors (d, K, ..., B), frame coordinates at o, also returns
    them as ambient vectors at their knots (the boosts carry o's frame to
    the knot's), advanced in the same loop.  No frame is held."""
    points = np.empty((model.ambient_dim, len(index), iv.xi.shape[-1]))
    points[:] = geom.base_point(model)[:, None, None]
    if vectors is not None:
        ambient = np.zeros((model.ambient_dim,) + vectors.shape[1:])
        ambient[:model.dim] = vectors
    for i in range(max(index, default=0) - 1, -1, -1):
        reach = sum(j > i for j in index)
        boost_rows(model, points[:, :reach], iv, i, 1.0)
        if vectors is not None:
            boost_rows(model, ambient[:, :reach], iv, i, 1.0, vector=True)
    return points if vectors is None else (points, ambient)


def chart_matrix(model: CurvatureModel, iv: Intervals):
    """The chart matrix M (n d, n d, B) of the paths whose increments
    (n, d, B) have Intervals iv: entry [(j, b), (i, a)] is the slope, along
    e_b on interval j, of the field that the chart variation along e_a of
    increment i induces.

    M's blocks are n I at j = i and 0 at j < i.  Past interval i the
    variation moves the rest of the path by one isometry, so its field there
    is a Killing field, held at each knot as tau = sqrt(kappa) J and the
    antisymmetric omega = nabla J; its slope on interval j is n omega xi_j.
    With p the unit increment, a = sqrt(kappa)|xi|, c = cosh a - 1,
    s = sinh a and R(u, v) = u v^T - v u^T, the field of e_a leaves interval
    i with tau = sqrt(kappa) (S_i / delta) e_a (Intervals.sine) and
    omega = -sqrt(kappa) (cosh a - 1) / a R(p, e_a), and boost j carries it
    on: w = omega p, u = c w + s tau, tau += c (tau - <p, tau> p) + s w,
    omega += R(u, p).  One state (tau, omega) per column, samples last:
    interval j carries on the j d columns of the earlier increments and
    starts the d of its own.  Flat space has c = s = kappa = 0: M = n I.

    The IBP check reads it only for M^{-1} and its condition screen
    (ibp_check says why its pairing and divergence need no M).
    """
    n, d, B = iv.xi.shape
    eye = np.eye(d)[..., None]
    out = np.zeros((n, d, n * d, B))
    tau, om = np.zeros((d, n * d, B)), np.zeros((d, d, n * d, B))
    for j in range(n):
        p, c, s = iv.unit(j, tau), iv.chm1[j], iv.sh[j]
        t, o = tau[:, :j * d], om[:, :, :j * d]
        w = np.sum(o * p, axis=1)
        out[j, :, :j * d] += w * (n / iv.inv[j])   # n |xi_j| omega p; += keeps 0 as +0.0
        out[j, :, j * d:(j + 1) * d] = n * eye
        u = c * w + s * t
        t += c * (t - iv.along(j, t, p)) + s * w
        o += u[:, None] * p - p[:, None] * u
        t, o = tau[:, j * d:(j + 1) * d], om[:, :, j * d:(j + 1) * d]
        t += np.sqrt(model.kappa) * iv.sine(j, eye, iv.along(j, eye, p))
        o += (-c * iv.inv[j]) * (p[:, None] * eye - eye[:, None] * p)
    return out.reshape(n * d, n * d, B)
