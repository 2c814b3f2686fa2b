"""Broken geodesics: Gaussian increments rolled through the frame bundle.

A path is determined by its anti-developed increments (Delta_1 b, ...,
Delta_n b) in frame coordinates: each interval is a geodesic segment of
initial velocity frame * increment / Delta, and the frame rides along by
parallel transport.  Sampling is counter-based (Philox keyed by master seed
and a fixed-size chunk index) so that sample i's increments are a function of
(seed, i) alone -- independent of batch size, ordering, or worker count.
"""

from __future__ import annotations

import numpy as np
from numpy.random import Generator, Philox

from . import geom
from .geom import CurvatureModel
from .jacobi import Intervals, Partition

CHUNK = 4096   # fixed RNG block size; do not change (breaks reproducibility)
RENORM_EVERY = 32   # rolled steps between Gram-Schmidt passes on the frame
FAR_POINT = 10.0    # sqrt(kappa) e^a y_t past which pull_back_rows goes light-cone
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
# Rolling (development)
# ---------------------------------------------------------------------------

def roll_batch(model: CurvatureModel, increments):
    """Roll batched increments (..., n, d) into knots from o and its frame.

    Returns (points (..., n+1, D), frames (..., n+1, D, d)).  Each step moves
    the frame by the exact closed-form transport; Gram-Schmidt runs every
    RENORM_EVERY steps and at the last knot, which keeps every stored frame
    within CONSTRAINT_DRIFT_TOL of orthonormal.  The roll runs samples last,
    on knots (n+1, D, B) and frames (n+1, D, d, B); the results are views of
    those buffers.
    """
    increments = np.asarray(increments, dtype=float)
    batch, (n, d) = increments.shape[:-2], increments.shape[-2:]
    B, D = int(np.prod(batch)), model.ambient_dim
    xi = np.ascontiguousarray(np.moveaxis(increments.reshape((B, n, d)), 0, -1))
    points = np.empty((n + 1, D, B))
    frames = np.empty((n + 1, D, d, B))
    points[0] = geom.base_point(model)[:, None]
    frames[0] = geom.base_frame(model)[..., None]
    for i in range(n):
        x, u = geom._exp_frame_rows(model, points[i], frames[i], xi[i])
        if _renormalize_due(i, n):
            u = geom.renormalize_frame(model, x.T, u.transpose(2, 0, 1)).transpose(1, 2, 0)
        points[i + 1], frames[i + 1] = x, u
    return (np.moveaxis(points, -1, 0).reshape(batch + (n + 1, D)),
            np.moveaxis(frames, -1, 0).reshape(batch + (n + 1, D, d)))


def boost_rows(model: CurvatureModel, y, iv: Intervals, j: int, sign: float,
               vector: bool = False):
    """y <- B(sign xi_j) y in place for points y (D, ...) samples last, where
    B(xi) in SO+(d,1) is the boost exp_frame applies at o and iv the
    Intervals of the increments; a translation by sign xi_j in flat space.
    With p the unit increment and a = sqrt(kappa)|xi_j|, the spatial part
    moves by ((cosh a - 1) <p, y_s> + sign sinh a y_t) p and the timelike
    part is put back on the sheet.  With vector, y holds ambient vectors
    and the timelike part moves linearly, by (cosh a - 1) y_t +
    sign sinh a <p, y_s>; a translation leaves a vector unchanged.  The
    stack may have more axes than iv's increments.
    """
    if model.kind == "flat":
        if vector:
            return y
        xi = iv.xi[j]
        return np.add(y, sign * xi[(slice(None),) + (None,) * (y.ndim - xi.ndim)], out=y)
    p = iv.unit(j, y)
    along = np.sum(p * y[:-1], axis=0)
    y[:-1] += (iv.chm1[j] * along + sign * iv.sh[j] * y[-1]) * p
    if vector:
        y[-1] += iv.chm1[j] * y[-1] + sign * iv.sh[j] * along
        return y
    return geom._renormalize_point(model, y)


def boost_to_knots(model: CurvatureModel, y, iv: Intervals, index, vector: bool = False):
    """y[:, k] <- B(xi_1) ... B(xi_{index[k]}) y[:, k] in place for points
    y (D, K, ...) at o and knot indices index (K,), non-increasing: each
    column carried to its knot s_j of the paths whose increments have
    Intervals iv by j calls of boost_rows, innermost first, one call per
    interval on the columns that reach past it.  With vector, y holds
    ambient vectors at o, and frame coordinates there become frame
    coordinates at s_j (the boosts carry o's frame to the knot's).  No
    frame is held."""
    for i in range(max(index, default=0) - 1, -1, -1):
        boost_rows(model, y[:, :sum(j > i for j in index)], iv, i, 1.0, vector)
    return y


def pull_back_rows(model: CurvatureModel, y, iv: Intervals, j: int, p=None):
    """y <- B(-xi_j) y in place for hyperbolic points y (D, B) samples last,
    as boost_rows with sign -1; returns |y_s|^2 (B,) of the result.  p,
    where given, is iv.unit(j, y), for a caller that holds it.

    boost_rows moves the part along p by (cosh a - 1) y_p - sinh a y_t,
    which cancels terms of size e^a y_t: an absolute error of eps e^a y_t,
    harmless near o and for short steps, but where a long step carries a
    far y toward o the new part is smaller by up to e^{-2a}.  So where
    sqrt(kappa) e^a y_t passes FAR_POINT the point is carried in light-cone
    form instead (_light_cone_pull_back), and y_t of the rest comes back on
    the sheet from |y_s|^2.
    """
    p = iv.unit(j, y) if p is None else p
    grow = iv.chm1[j] + iv.sh[j]
    grow += 1.0                                       # e^a
    far = np.flatnonzero(grow * y[-1] > FAR_POINT / np.sqrt(model.kappa))
    if far.size:
        y_far = y[:, far]
        sq_far = _light_cone_pull_back(model, y_far, p[:, far], grow[far])
    ys = y[:-1]
    along = np.sum(p * ys, axis=0)
    along *= iv.chm1[j]
    along -= iv.sh[j] * y[-1]
    ys += along * p
    sq = np.sum(ys * ys, axis=0)
    np.sqrt(sq + 1.0 / model.kappa, out=y[-1])
    if far.size:
        y[:, far], sq[far] = y_far, sq_far
    return sq


def _light_cone_pull_back(model: CurvatureModel, y, p, grow):
    """pull_back_rows' light-cone form for points y (D, B), grow = e^a: with
    y_p = <p, y_s>, y_perp = y_s - y_p p and a the step, the coordinates
    y_t +- y_p scale by e^{-+a} and y_perp stays.  The larger of the two is
    y_t + |y_p|, a sum of non-negative terms, and the smaller is
    (1/kappa + |y_perp|^2) over it, since their product is y_t^2 - y_p^2;
    so both new ones come to full relative precision, and
    y'_p = ((y'_t + y'_p) - (y'_t - y'_p)) / 2 cancels only as far as y'
    itself lies near o.  y'_t is the half sum, on the sheet to rounding.
    Returns |y'_s|^2."""
    ys = y[:-1]
    along = np.sum(p * ys, axis=0)
    ys -= along * p                                   # y_perp
    perp2 = np.sum(ys * ys, axis=0)
    big = np.abs(along) + y[-1]
    small = (perp2 + 1.0 / model.kappa) / big
    ahead = along >= 0.0
    plus = np.where(ahead, big, small) / grow         # y'_t + y'_p
    minus = np.where(ahead, small, big) * grow        # y'_t - y'_p
    new_p = 0.5 * (plus - minus)
    ys += new_p * p
    y[-1] = 0.5 * (plus + minus)
    return perp2 + new_p * new_p


def chart_slopes(model: CurvatureModel, iv: Intervals, v):
    """Right-slopes M v (n, d, ..., B) of the field that the chart variation
    along the directions v (n, d, ..., B) induces on the paths whose
    increments (n, d, B) have Intervals iv; v's samples axis may be 1, and
    on the identity stack np.eye(n d).reshape(n, d, n d, 1) this is the
    chart matrix M, entry [j, :, (i, a)] the slope on interval j of the
    variation along e_a of increment i.

    M's blocks are n I at j = i and 0 at j < i.  Past interval i the
    variation moves the rest of the path by one isometry, so its field there
    is a Killing field, held at each knot as tau = sqrt(kappa) J and the
    antisymmetric omega = nabla J; its slope on interval j is n omega xi_j.
    With p the unit increment, a = sqrt(kappa)|xi|, c = cosh a - 1,
    s = sinh a and R(u, v) = u v^T - v u^T, the field of v_i leaves interval
    i with tau = sqrt(kappa) (S_i / delta) v_i (Intervals.sine) and
    omega = -sqrt(kappa) (cosh a - 1) / a R(p, v_i), and boost j carries it
    on: w = omega p, u = c w + s tau, tau += c (tau - <p, tau> p) + s w,
    omega += R(u, p).  The recursion is linear, so one state (tau, omega)
    per column of v carries the sum of its fields, samples last.  A column
    (an index of v's axes between d and the samples) has no field before
    the first interval it varies, so interval j carries on only the states
    of the columns up to the last one begun before it, and adds sources
    only to the columns from the first to the last one that varies at j:
    on the identity stack, the j d columns of the first j intervals and the
    d of interval j.  Flat space has c = s = kappa = 0: M v = n v.

    The IBP divergence needs none of it: M^{-1}'s diagonal blocks I / n
    meet only the (i, i) block n omega_i e_a of d(M V), whose trace is 0.
    """
    n, d = iv.xi.shape[:2]
    shape = np.broadcast_shapes(v.shape[2:], iv.xi.shape[2:])
    v = v.reshape((n, d, -1, v.shape[-1]))                # columns in one axis
    varies = np.any(v, axis=(1, 3))                       # (n, C)
    # interval j varies columns first[j]:last[j]; begun[j] = max_{i<j} last[i]
    first = varies.argmax(axis=1)
    last = np.where(varies, np.arange(1, varies.shape[1] + 1), 0).max(axis=1)
    begun = np.concatenate([[0], np.maximum.accumulate(last)])
    out = np.empty((n, d) + varies.shape[1:] + shape[-1:])
    tau, om = np.zeros(out.shape[1:]), np.zeros((d,) + out.shape[1:])
    for j in range(n):
        p, c, s = iv.unit(j, tau), iv.chm1[j], iv.sh[j]
        np.multiply(n, v[j], out=out[j])                  # n v_j + n |xi_j| omega p
        t, o = tau[:, :begun[j]], om[:, :, :begun[j]]
        w = np.sum(o * p, axis=1)
        out[j, :, :begun[j]] += w * (n / iv.inv[j])
        u = c * w + s * t
        t += c * (t - iv.along(j, t, p)) + s * w
        o += u[:, None] * p - p[:, None] * u
        src = slice(first[j], last[j])
        vj, t, o = v[j, :, src], tau[:, src], om[:, :, src]
        t += np.sqrt(model.kappa) * iv.sine(j, vj, iv.along(j, vj, p))
        o += (-c * iv.inv[j]) * (p[:, None] * vj - vj[:, None] * p)
    return out.reshape((n, d) + shape)


def _renormalize_due(i: int, n: int) -> bool:
    """Whether the frame at knot i+1 of an n-step roll is re-orthonormalised."""
    return (i + 1) % RENORM_EVERY == 0 or i + 1 == n


# ---------------------------------------------------------------------------
# CSV dump
# ---------------------------------------------------------------------------

def dump_paths_csv(increments, points, frames, fh) -> None:
    """Write knot-level rows of rolled paths to an open file: increments
    (N, n, d) and the knots (N, n+1, D) and frames (N, n+1, D, d) of
    roll_batch."""
    N, n, d = increments.shape
    D = points.shape[-1]
    cols = (["sample_id", "i", "s_i"]
            + [f"p{a}" for a in range(D)]
            + [f"f{a}{b}" for a in range(D) for b in range(d)]
            + [f"inc{a}" for a in range(d)])
    fh.write("schema=1\n")
    fh.write(",".join(cols) + "\n")
    for sid in range(N):
        for i in range(n + 1):
            inc = np.zeros(d) if i == 0 else increments[sid, i - 1]
            row = ([str(sid), str(i), repr(i / n)]
                   + [repr(float(v)) for v in points[sid, i]]
                   + [repr(float(v)) for v in frames[sid, i].ravel()]
                   + [repr(float(v)) for v in inc])
            fh.write(",".join(row) + "\n")
