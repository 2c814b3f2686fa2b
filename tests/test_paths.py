"""Path sampling, the knots and frames carried from o by boosts (and the
oracle roll and anti-roll), the basis fields and sample's paths.csv."""

import itertools

import numpy as np
import pytest
from click.testing import CliRunner

from pinpath import cli, geom, jacobi, paths
from pinpath.geom import CurvatureModel
from pinpath.jacobi import Partition

from tests import oracles
from tests.oracles import (RENORM_EVERY, anti_roll, batch_cs, batch_endpoint_f, exp_frame,
                           jacobi_from_slopes, one_call_normals, renormalize_frame, roll_batch)

FLAT2 = CurvatureModel("flat", 2)
HYP2 = CurvatureModel("hyperbolic", 2, 1.0)
HYP3 = CurvatureModel("hyperbolic", 3, 1.0)


def carried(model, inc):
    """Knots (..., n+1, D) and frames (..., n+1, D, d) of the paths with
    increments (..., n, d), as sample takes them: paths.boost_to_knots
    carries o and the base frame's columns to the knots n, ..., 0 over one
    jacobi.Intervals of the increments."""
    inc = np.asarray(inc, dtype=float)
    batch, (n, d) = inc.shape[:-2], inc.shape[-2:]
    B, D = int(np.prod(batch)), model.ambient_dim
    iv = jacobi.Intervals(model, np.moveaxis(inc.reshape((B, n, d)), 0, -1))
    frames = np.broadcast_to(np.eye(d)[:, None, :, None], (d, n + 1, d, B))
    points, frames = paths.boost_to_knots(model, iv, range(n, -1, -1), frames)
    return (points.transpose(2, 1, 0)[:, ::-1].reshape(batch + (n + 1, D)),
            frames.transpose(3, 1, 0, 2)[:, ::-1].reshape(batch + (n + 1, D, d)))


def test_increments_scale_and_moments():
    """Increments are N(0, I/n): mean and variance at Monte Carlo accuracy."""
    part = Partition(8)
    inc = paths.sample_increments(FLAT2, part, 12500, seed=0)
    flat = inc.reshape(-1)            # 12500 * 8 * 2 = 2e5 scalar draws
    assert abs(flat.mean()) < 4.0 / np.sqrt(flat.size) / np.sqrt(8)
    assert np.isclose(flat.var() * 8, 1.0, atol=0.02)


def test_increments_reproducible_and_order_free():
    """Same (seed, sample index) gives identical draws, any start offset."""
    part = Partition(4)
    full = paths.sample_increments(HYP2, part, 20, seed=11)
    again = paths.sample_increments(HYP2, part, 20, seed=11)
    assert np.array_equal(full, again)
    tail = paths.sample_increments(HYP2, part, 15, seed=11, start=5)
    assert np.array_equal(full[5:], tail)
    other = paths.sample_increments(HYP2, part, 20, seed=12)
    assert not np.array_equal(full, other)


def test_increments_chunk_boundary():
    """Draws spanning a chunk boundary match the start-offset slices."""
    part = Partition(2)
    span = paths.sample_increments(FLAT2, part, 12, seed=3, start=paths.CHUNK - 6)
    head = paths.sample_increments(FLAT2, part, 6, seed=3, start=paths.CHUNK - 6)
    tail = paths.sample_increments(FLAT2, part, 6, seed=3, start=paths.CHUNK)
    assert np.array_equal(span, np.concatenate([head, tail]))
    with pytest.raises(ValueError):
        paths.sample_increments(FLAT2, part, -1, seed=0)


@pytest.mark.parametrize("rows", [1, 5, 64, 4095])
@pytest.mark.parametrize("n, d", [(64, 1), (4, 2), (32, 3)])
def test_short_chunk_draw_is_a_prefix(rows, n, d):
    """The first rows samples of a chunk are the first rows rows of its full
    CHUNK draw in one call, scaled by sqrt(1/n), bit for bit, so
    sample_increments draws only what it returns."""
    model, part = CurvatureModel("flat", d), Partition(n)
    for seed, chunk in ((0, 0), (5, 3)):
        full = one_call_normals(seed, chunk, paths.CHUNK, n, d)
        got = paths.sample_increments(model, part, rows, seed, chunk * paths.CHUNK)
        assert np.array_equal(got, full[:rows] * np.sqrt(part.mesh))


@pytest.mark.parametrize("n, d", [(32, 3), (8, 2), (1, 1)])
def test_blocked_draw_matches_one_call_reference(n, d):
    """sample_increments draws a Philox block _DRAW_ROWS rows at a time; at
    offsets 0, 5 and 4095 of a chunk, over several blocks and across a chunk
    boundary, its samples are the one-call draw's, bit for bit."""
    model, part = CurvatureModel("flat", d), Partition(n)
    base = 2 * paths.CHUNK
    ref = np.concatenate([one_call_normals(7, c, paths.CHUNK, n, d) for c in (2, 3)])
    ref *= np.sqrt(part.mesh)
    for offset, count in ((0, paths.CHUNK), (5, 700), (4095, 1), (4095, 600),
                          (300, paths.CHUNK + 200)):
        got = paths.sample_increments(model, part, count, 7, base + offset)
        assert np.array_equal(got, ref[offset:offset + count]), (offset, count)


def test_exponential_moment_identity():
    """E[exp(lambda sum |db|^2)] = (1 - 2 lambda / n)^{-nd/2} at Monte Carlo
    accuracy (lambda = 0.2, n = 8, d = 2)."""
    part = Partition(8)
    inc = paths.sample_increments(FLAT2, part, 20000, seed=0)
    stat = np.exp(0.2 * np.sum(inc ** 2, axis=(1, 2)))
    want = (1.0 - 0.4 / 8.0) ** (-8.0)    # nd/2 = 8
    se = stat.std(ddof=1) / np.sqrt(len(stat))
    assert abs(stat.mean() - want) < 3 * se


def test_roll_flat_is_cumsum():
    """Flat rolling and the boosts out of o are a cumulative sum of
    increments from the origin (the boosts sum xi_j + ... + xi_1, innermost
    first, so not bit for bit)."""
    rng = np.random.default_rng(21)
    part = Partition(6)
    inc = rng.normal(size=(6, 2)) * np.sqrt(part.mesh)
    for develop in (roll_batch, carried):
        points, frames = develop(FLAT2, inc)
        assert np.allclose(points[1:], np.cumsum(inc, axis=0), atol=1e-14)
        assert np.allclose(points[0], 0.0)
        assert np.allclose(frames, np.broadcast_to(np.eye(2), (7, 2, 2)))


def test_roll_zero_increments():
    """Zero increments stay at the base point with the base frame."""
    o = geom.base_point(HYP3)
    for develop in (roll_batch, carried):
        points, frames = develop(HYP3, np.zeros((3, 3)))
        for i in range(4):
            assert np.allclose(points[i], o, atol=1e-14)
            assert np.allclose(frames[i], geom.base_frame(HYP3), atol=1e-14)


def test_roll_segment_lengths():
    """Each rolled segment is a geodesic of length |increment|."""
    rng = np.random.default_rng(25)
    part = Partition(8)
    inc = rng.normal(size=(8, 3)) * np.sqrt(part.mesh)
    points, _ = roll_batch(HYP3, inc)
    for i in range(8):
        dist = geom.distance(HYP3, points[i], points[i + 1])
        assert np.isclose(dist, np.linalg.norm(inc[i]), atol=1e-9)


def test_roll_anti_roll_roundtrip():
    """anti_roll recovers the increments of 1000 rolled paths to 1e-9."""
    part = Partition(16)
    inc = paths.sample_increments(HYP2, part, 1000, seed=5)
    pts, _ = roll_batch(HYP2, inc)
    back = anti_roll(HYP2, pts)
    assert np.max(np.abs(back - inc)) < 1e-9


def test_roll_of_no_steps_is_the_start():
    """Increments (..., 0, d), an empty body, roll and carry to o and its
    frame alone."""
    for model, develop in itertools.product((HYP3, FLAT2), (roll_batch, carried)):
        D, d = model.ambient_dim, model.dim
        for batch in ((), (5,), (2, 3)):
            points, frames = develop(model, np.zeros(batch + (0, d)))
            assert points.shape == batch + (1, D) and frames.shape == batch + (1, D, d)
            assert np.array_equal(points[..., 0, :],
                                  np.broadcast_to(geom.base_point(model), batch + (D,)))
            assert np.array_equal(frames[..., 0, :, :],
                                  np.broadcast_to(geom.base_frame(model), batch + (D, d)))


@pytest.mark.parametrize("sign", [-1.0, 1.0])
def test_boost_returns_the_square_norm_of_the_points_it_stores(sign):
    """paths.boost_rows returns |y_s|^2 of the moved points as it stores
    them, bit for bit, near o and far from it (light-cone form, which ran
    on some of these 256 points at d = 2, kappa = 2.5, out to 12 from o):
    the pinned bridge's drift scales the stored w_s by a function of that
    norm, and a norm held apart from the stored point (|y_perp|^2 + y'_q^2,
    which the light-cone form used to return) put the worst 60-digit tip
    check of the bridged body 1.8x past its 1e-12 bound."""
    model, B = CurvatureModel("hyperbolic", 2, 2.5), 256
    rng = np.random.default_rng(7)
    rk, r, angle = np.sqrt(model.kappa), rng.uniform(0.0, 12.0, B), rng.uniform(0.0, 6.3, B)
    y = np.empty((3, B))
    y[:2] = np.sinh(rk * r) / rk * np.array([np.cos(angle), np.sin(angle)])
    geom._renormalize_point(model, y)
    iv = jacobi.Intervals(model, 1.5 * rng.standard_normal((1, 2, B)))
    far = (iv.chm1[0] + iv.sh[0] + 1.0) * y[-1] > paths.FAR_POINT / rk
    assert 0 < far.sum() < B
    sq = paths.boost_rows(model, y, iv, 0, sign)
    assert np.array_equal(sq, np.sum(y[:-1] * y[:-1], axis=0))


def test_roll_rows_are_independent_of_the_batch():
    """Row i of a 4096-path roll or of its knots and frames carried from o
    is bit-identical to that row alone or inside a (64, 64) batch, so
    estimates cannot depend on how samples are grouped."""
    inc = paths.sample_increments(HYP3, Partition(40), 4096, seed=4)
    for develop in (roll_batch, carried):
        points, frames = develop(HYP3, inc)
        grid_points, grid_frames = develop(HYP3, inc.reshape((64, 64, 40, 3)))
        assert np.array_equal(grid_points.reshape(points.shape), points)
        assert np.array_equal(grid_frames.reshape(frames.shape), frames)
        for i in (0, 1, 2047, 4095):
            row_points, row_frames = develop(HYP3, inc[i])
            assert np.array_equal(row_points, points[i])
            assert np.array_equal(row_frames, frames[i])


def test_roll_matches_a_chain_of_exp_frame_steps():
    """From o, the roll is exp_frame step by step with renormalize_frame on
    the roll's schedule: every RENORM_EVERY steps and at the last knot."""
    rng = np.random.default_rng(45)
    n = RENORM_EVERY + 8
    inc = rng.normal(size=(64, n, 3)) / np.sqrt(n)
    points, frames = roll_batch(HYP3, inc)
    x = np.broadcast_to(geom.base_point(HYP3), (64, 4))
    frame = np.broadcast_to(geom.base_frame(HYP3), (64, 4, 3))
    for i in range(n):
        x, frame = exp_frame(HYP3, x, frame, inc[:, i])
        if (i + 1) % RENORM_EVERY == 0 or i + 1 == n:
            frame = renormalize_frame(HYP3, x, frame)
        assert np.max(np.abs(points[:, i + 1] - x)) <= 1e-12 * np.max(np.abs(x))
        assert np.max(np.abs(frames[:, i + 1] - frame)) <= 1e-10 * np.max(np.abs(frame))


@pytest.mark.parametrize("model", [HYP2, CurvatureModel("hyperbolic", 3, 2.0)],
                         ids=["hyp2", "hyp3-kappa2"])
@pytest.mark.parametrize("n", [4, 6])
def test_roll_of_equal_sub_steps_is_the_same_path(monkeypatch, model, n):
    """Each increment split into k = 8 equal sub-steps rolls the same broken
    geodesic: the sub-steps follow one geodesic and transport the frame along
    it, so the coarse knots match within 1e-12 relative, and so do the frames
    as transported.  Gram-Schmidt, which runs at the last knot (and mid-path
    in the fine roll at n = 6), rounds Minkowski products of entries of size
    R at R^2 eps, so the renormalised frames match within 1e-12 R relative.
    The boosts out of o transport the frames, with no Gram-Schmidt: their
    coarse knots and frames match within 1e-12 relative."""
    k = 8
    inc = paths.sample_increments(model, Partition(n), 32, seed=7)
    fine = np.repeat(inc / k, k, axis=1)
    points, frames = carried(model, inc)
    fine_points, fine_frames = carried(model, fine)
    assert np.max(np.abs(fine_points[:, ::k] - points)) <= 1e-12 * np.max(np.abs(points))
    assert np.max(np.abs(fine_frames[:, ::k] - frames)) <= 1e-12 * np.max(np.abs(frames))
    points, frames = roll_batch(model, inc)
    fine_points, fine_frames = roll_batch(model, fine)
    scale = np.max(np.abs(frames))
    assert np.max(np.abs(fine_points[:, ::k] - points)) <= 1e-12 * np.max(np.abs(points))
    assert np.max(np.abs(fine_frames[:, ::k] - frames)) <= 1e-12 * scale * scale
    monkeypatch.setattr(oracles, "_renormalize_due", lambda i, n: False)
    transported = roll_batch(model, inc)[1]
    assert np.max(np.abs(roll_batch(model, fine)[1][:, ::k] - transported)) \
        <= 1e-12 * np.max(np.abs(transported))


def test_frame_field_matches_response_matrix():
    """The basis field's knot values are f_i(s_j) e_alpha / sqrt(n): the
    forward recursion of its slopes matches the suffix products
    f_i(s_j) = C_j ... C_{i+1} S_i / delta over the span [0, s_j]."""
    rng = np.random.default_rng(39)
    part = Partition(6)
    inc = rng.normal(size=(6, 2)) * np.sqrt(part.mesh)
    C, S = batch_cs(HYP2, inc, part.mesh)
    for alpha in range(2):
        for i in range(1, 7):
            slopes = np.zeros((6, 2))           # h_{alpha,i}: sqrt(n) e_alpha on interval i
            slopes[i - 1, alpha] = np.sqrt(6)
            J = jacobi_from_slopes(C, S, slopes)
            for j in range(7):
                f_ij = (batch_endpoint_f(C[:j], S[:j], part.mesh)[i - 1]
                        if j >= i else np.zeros((2, 2)))
                assert np.allclose(J[j], f_ij[:, alpha] / np.sqrt(6), atol=1e-10)


def test_csv_dump_layout(tmp_path):
    """sample's paths.csv, written by the CLI: schema line, header, row count,
    repr round-trip."""
    res = CliRunner().invoke(cli.main, ["sample", "--model", "hyperbolic", "--d", "2",
                                        "--kappa", "1", "--n", "3", "--N", "2", "--seed", "1",
                                        "--out", str(tmp_path)], catch_exceptions=False)
    assert res.exit_code == 0, res.output
    inc = paths.sample_increments(HYP2, Partition(3), 2, seed=1)
    points, frames = carried(HYP2, inc)
    lines = (tmp_path / "paths.csv").read_text().strip().split("\n")
    assert lines[0] == "schema=1"
    header = lines[1].split(",")
    assert header[:3] == ["sample_id", "i", "s_i"]
    assert len(lines) == 2 + 2 * 4          # two paths, four knots each
    first = lines[2].split(",")
    assert float(first[3 + 2]) == pytest.approx(1.0)   # apex timelike coord
    # repr round-trips the endpoint coordinate and frame bit-exactly
    last = lines[-1].split(",")
    assert float(last[3]) == points[1, 3, 0]
    assert [float(v) for v in last[6:12]] == frames[1, 3].ravel().tolist()
