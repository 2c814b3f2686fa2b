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
from .jacobi import Partition

CHUNK = 4096   # fixed RNG block size; do not change (breaks reproducibility)
RENORM_EVERY = 32   # rolled steps between Gram-Schmidt passes on the frame


# ---------------------------------------------------------------------------
# Counter-based sampling
# ---------------------------------------------------------------------------

def sample_increments(model: CurvatureModel, partition: Partition, count: int,
                      seed: int, start: int = 0) -> np.ndarray:
    """Draw increments for samples [start, start+count); shape (count, n, d).

    Each interval increment is N(0, (1/n) I_d).  Sample index i always maps to
    Philox key (seed, i // CHUNK), row i % CHUNK, so draws are bit-reproducible
    per (seed, i) and chunks can be generated in any order or in parallel.
    """
    n, d = partition.n, model.dim
    if count < 0 or start < 0:
        raise ValueError("count and start must be non-negative")
    out = np.empty((count, n, d))
    scale = np.sqrt(partition.mesh)
    pos = 0
    idx = start
    while pos < count:
        chunk_id = idx // CHUNK
        offset = idx % CHUNK
        take = min(CHUNK - offset, count - pos)
        block = _chunk_normals(seed, chunk_id, n, d)
        out[pos:pos + take] = block[offset:offset + take]
        pos += take
        idx += take
    out *= scale
    return out


def _chunk_normals(seed: int, chunk_id: int, n: int, d: int) -> np.ndarray:
    """Standard-normal block (CHUNK, n, d) for one Philox key."""
    key = np.array([seed, chunk_id], dtype=np.uint64)
    rng = Generator(Philox(key=key))
    return rng.standard_normal((CHUNK, n, d))


# ---------------------------------------------------------------------------
# Rolling (development) and its inverse
# ---------------------------------------------------------------------------

def roll_batch(model: CurvatureModel, increments, start_point=None, start_frame=None):
    """Roll batched increments (..., n, d) into knots.

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
    x = geom.base_point(model) if start_point is None else start_point
    u = geom.base_frame(model) if start_frame is None else start_frame
    points = np.empty((n + 1, D, B))
    frames = np.empty((n + 1, D, d, B))
    points[0] = np.moveaxis(np.broadcast_to(x, batch + (D,)).reshape((B, D)), 0, -1)
    frames[0] = np.moveaxis(np.broadcast_to(u, batch + (D, d)).reshape((B, D, d)), 0, -1)
    for i in range(n):
        x, u = geom._exp_frame_rows(model, points[i], frames[i], xi[i])
        if _renormalize_due(i, n):
            u = geom.renormalize_frame(model, x.T, u.transpose(2, 0, 1)).transpose(1, 2, 0)
        points[i + 1], frames[i + 1] = x, u
    return (np.moveaxis(points, -1, 0).reshape(batch + (n + 1, D)),
            np.moveaxis(frames, -1, 0).reshape(batch + (n + 1, D, d)))


def knot_jacobian(model: CurvatureModel, increments):
    """Exact derivative of the knots of a roll from o by its increments (..., n, d).

    Returns (..., n+1, d, n, d): entry [j, :, i, a] is u_j^T eta dx_j/d xi_{i,a},
    knot j's variation in its rolled frame; zero unless j > i, e_a in flat
    space.  The roll is g_j = B(xi_1) ... B(xi_j) in SO+(d,1), B the boost
    exp_frame applies at o, so the entry is [I 0] Q^{-1} Omega_a(xi_i) Q e_d /
    sqrt(kappa) with Q = B(xi_{i+1}) ... B(xi_j) and Omega_a = B^{-1} dB/dxi_a.
    For each i, Q's frame columns U and last column w advance knot by knot by
    the rank-two boost update.  With p the unit increment, a = sqrt(kappa)|xi|,
    K(v) = [[0, v], [v^T, 0]], R(q, r) = q r^T - r q^T, P = I - p p^T and
    cm = (cosh a - 1)/a, Omega_a / sqrt(kappa) = p_a K(p) + sinhc a K(P e_a)
    - cm R(p, P e_a) sends w = (w_s, w_t) to the spatial part p beta_a + alpha e_a
    and the timelike part p_a <p, w_s> + sinhc a (P w_s)_a, with
    alpha = sinhc a w_t + cm <p, w_s> and beta_a = p_a (w_t - alpha) - cm (P w_s)_a.
    """
    inc = np.asarray(increments, dtype=float)
    batch, (n, d) = inc.shape[:-2], inc.shape[-2:]
    xi = np.moveaxis(inc.reshape((-1, n, d)), 0, -1)      # (n, d, B): samples last
    nrm = np.sqrt(np.sum(xi * xi, axis=1))
    p = xi / np.where(nrm > 0, nrm, 1.0)[:, None]         # unit increments
    a = np.sqrt(model.kappa) * nrm                        # 0 in flat space: Q = I
    ch, sh, sc = np.cosh(a), np.sinh(a), geom.sinhc(a)
    cm = 0.5 * a * geom.sinhc(0.5 * a) ** 2               # (cosh a - 1) / a, stable at 0
    B = xi.shape[-1]
    out = np.zeros((n + 1, d, n, d, B))
    for i in range(n):
        U, w = np.zeros((n - i, d + 1, d, B)), np.zeros((n - i, d + 1, B))
        U[0, :d], w[0, d] = np.eye(d)[..., None], 1.0
        for m, j in enumerate(range(i + 1, n)):
            Up = np.sum(U[m] * p[j], axis=1)
            U[m + 1] = U[m] + (sh[j] * w[m] + (ch[j] - 1.0) * Up)[:, None] * p[j]
            w[m + 1] = ch[j] * w[m] + sh[j] * Up
        ps = np.sum(p[i] * w[:, :d], axis=1)              # (n-i, B)
        perp_w = w[:, :d] - p[i] * ps[:, None]
        alpha = sc[i] * w[:, d] + cm[i] * ps
        beta = p[i] * (w[:, d] - alpha)[:, None] - cm[i] * perp_w
        z_t = p[i] * ps[:, None] + sc[i] * perp_w
        # entry [b, a] = (U_s^T p)_b beta_a + U_s[a, b] alpha - U_t[b] z_t[a]
        Utp = np.sum(U[:, :d] * p[i][:, None], axis=1)
        out[i + 1:, :, i, :] = (Utp[:, :, None] * beta[:, None]
                                + np.swapaxes(U[:, :d], 1, 2) * alpha[:, None, None]
                                - U[:, d, :, None] * z_t[:, None])
    return np.moveaxis(out, -1, 0).reshape(batch + out.shape[:-1])


def _renormalize_due(i: int, n: int) -> bool:
    """Whether the frame at knot i+1 of an n-step roll is re-orthonormalised."""
    return (i + 1) % RENORM_EVERY == 0 or i + 1 == n


def anti_roll(model: CurvatureModel, points, start_frame=None) -> np.ndarray:
    """Recover increments (..., n, d) from knot points (..., n+1, D), the
    inverse of roll_batch; the frame is rebuilt by transport from the start
    frame, so only knot positions are needed.
    """
    points = np.asarray(points, dtype=float)
    n = points.shape[-2] - 1
    batch = points.shape[:-2]
    D, d = model.ambient_dim, model.dim
    u = np.broadcast_to(geom.base_frame(model) if start_frame is None else start_frame,
                        batch + (D, d)).copy()
    out = np.empty(batch + (n, d))
    for i in range(n):
        x, y = points[..., i, :], points[..., i + 1, :]
        v = geom.frame_coords(model, u, geom.log_point(model, x, y))
        out[..., i, :] = v
        u = geom.exp_frame(model, x, u, v)[1]
        if _renormalize_due(i, n):
            u = geom.renormalize_frame(model, y, u)
    return out


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
