"""Path sampling, rolling/anti-rolling, the basis fields and the CSV dump."""

import io

import numpy as np
import pytest

from pinpath import geom, jacobi, paths
from pinpath.geom import CurvatureModel
from pinpath.jacobi import Partition

FLAT2 = CurvatureModel("flat", 2)
HYP2 = CurvatureModel("hyperbolic", 2, 1.0)
HYP3 = CurvatureModel("hyperbolic", 3, 1.0)


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
    """Flat rolling is a cumulative sum of increments from the origin."""
    rng = np.random.default_rng(21)
    part = Partition(6)
    inc = rng.normal(size=(6, 2)) * np.sqrt(part.mesh)
    points, frames = paths.roll_batch(FLAT2, inc)
    assert np.allclose(points[1:], np.cumsum(inc, axis=0), atol=1e-14)
    assert np.allclose(points[0], 0.0)
    assert np.allclose(frames, np.broadcast_to(np.eye(2), (7, 2, 2)))


def test_roll_zero_increments():
    """Zero increments stay at the base point with the base frame."""
    points, frames = paths.roll_batch(HYP3, np.zeros((3, 3)))
    o = geom.base_point(HYP3)
    for i in range(4):
        assert np.allclose(points[i], o, atol=1e-14)
        assert np.allclose(frames[i], geom.base_frame(HYP3), atol=1e-14)


def test_roll_segment_lengths():
    """Each rolled segment is a geodesic of length |increment|."""
    rng = np.random.default_rng(25)
    part = Partition(8)
    inc = rng.normal(size=(8, 3)) * np.sqrt(part.mesh)
    points, _ = paths.roll_batch(HYP3, inc)
    for i in range(8):
        dist = geom.distance(HYP3, points[i], points[i + 1])
        assert np.isclose(dist, np.linalg.norm(inc[i]), atol=1e-9)


def test_roll_anti_roll_roundtrip():
    """anti_roll recovers the increments of 1000 rolled paths to 1e-9."""
    part = Partition(16)
    inc = paths.sample_increments(HYP2, part, 1000, seed=5)
    pts, _ = paths.roll_batch(HYP2, inc)
    back = paths.anti_roll(HYP2, pts)
    assert np.max(np.abs(back - inc)) < 1e-9


def test_roll_from_custom_start():
    """Rolling from a moved point and frame starts there and stays on the sheet."""
    rng = np.random.default_rng(33)
    x, frame = geom.exp_frame(HYP2, geom.base_point(HYP2), geom.base_frame(HYP2),
                              np.array([0.4, -0.2]))
    inc = rng.normal(size=(4, 2)) * 0.5
    points, frames = paths.roll_batch(HYP2, inc, x, frame)
    assert np.allclose(points[0], x)
    defect = max(geom.frame_defect(HYP2, points[i], frames[i]) for i in range(5))
    assert defect < 1e-10
    back = paths.anti_roll(HYP2, points, start_frame=frame)
    assert np.allclose(back, inc, atol=1e-10)


def test_roll_of_no_steps_is_the_start():
    """Increments (..., 0, d), an empty body, roll to the start knot and frame alone."""
    x, frame = geom.exp_frame(HYP3, geom.base_point(HYP3), geom.base_frame(HYP3),
                              np.array([0.3, 0.1, -0.5]))
    for model, start in ((HYP3, (None, None)), (HYP3, (x, frame)), (FLAT2, (None, None))):
        D, d = model.ambient_dim, model.dim
        want_x = geom.base_point(model) if start[0] is None else x
        want_u = geom.base_frame(model) if start[1] is None else frame
        for batch in ((), (5,), (2, 3)):
            points, frames = paths.roll_batch(model, np.zeros(batch + (0, d)), *start)
            assert points.shape == batch + (1, D) and frames.shape == batch + (1, D, d)
            assert np.array_equal(points[..., 0, :], np.broadcast_to(want_x, batch + (D,)))
            assert np.array_equal(frames[..., 0, :, :],
                                  np.broadcast_to(want_u, batch + (D, d)))


def test_roll_rows_are_independent_of_the_batch():
    """Row i of a 4096-path roll is bit-identical to rolling that row alone or
    inside a (64, 64) batch, so estimates cannot depend on how samples are
    grouped."""
    inc = paths.sample_increments(HYP3, Partition(40), 4096, seed=4)
    points, frames = paths.roll_batch(HYP3, inc)
    grid_points, grid_frames = paths.roll_batch(HYP3, inc.reshape((64, 64, 40, 3)))
    assert np.array_equal(grid_points.reshape(points.shape), points)
    assert np.array_equal(grid_frames.reshape(frames.shape), frames)
    for i in (0, 1, 2047, 4095):
        row_points, row_frames = paths.roll_batch(HYP3, inc[i])
        assert np.array_equal(row_points, points[i])
        assert np.array_equal(row_frames, frames[i])


def test_roll_matches_a_chain_of_exp_frame_steps():
    """From a given start, the roll is exp_frame step by step with
    renormalize_frame on the roll's schedule: every RENORM_EVERY steps and at
    the last knot."""
    rng = np.random.default_rng(45)
    n = paths.RENORM_EVERY + 8
    x, frame = geom.exp_frame(HYP3, geom.base_point(HYP3), geom.base_frame(HYP3),
                              rng.normal(size=(64, 3)))
    inc = rng.normal(size=(64, n, 3)) / np.sqrt(n)
    points, frames = paths.roll_batch(HYP3, inc, x, frame)
    for i in range(n):
        x, frame = geom.exp_frame(HYP3, x, frame, inc[:, i])
        if (i + 1) % paths.RENORM_EVERY == 0 or i + 1 == n:
            frame = geom.renormalize_frame(HYP3, x, frame)
        assert np.max(np.abs(points[:, i + 1] - x)) <= 1e-12 * np.max(np.abs(x))
        assert np.max(np.abs(frames[:, i + 1] - frame)) <= 1e-10 * np.max(np.abs(frame))


def test_frame_field_matches_response_matrix():
    """The basis field's knot values are f_i(s_j) e_alpha / sqrt(n): the
    forward recursion of its slopes matches the suffix products
    f_i(s_j) = C_j ... C_{i+1} S_i / delta over the span [0, s_j]."""
    rng = np.random.default_rng(39)
    part = Partition(6)
    inc = rng.normal(size=(6, 2)) * np.sqrt(part.mesh)
    C, S = jacobi.batch_cs(HYP2, inc, part.mesh)
    for alpha in range(2):
        for i in range(1, 7):
            slopes = np.zeros((6, 2))           # h_{alpha,i}: sqrt(n) e_alpha on interval i
            slopes[i - 1, alpha] = np.sqrt(6)
            J = jacobi.jacobi_from_slopes(C, S, slopes)
            for j in range(7):
                f_ij = (jacobi.batch_endpoint_f(C[:j], S[:j], part.mesh)[i - 1]
                        if j >= i else np.zeros((2, 2)))
                assert np.allclose(J[j], f_ij[:, alpha] / np.sqrt(6), atol=1e-10)


def test_csv_dump_layout():
    """dump_paths_csv: schema line, header, row count, repr round-trip."""
    part = Partition(3)
    inc = paths.sample_increments(HYP2, part, 2, seed=1)
    points, frames = paths.roll_batch(HYP2, inc)
    buf = io.StringIO()
    paths.dump_paths_csv(inc, points, frames, buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "schema=1"
    header = lines[1].split(",")
    assert header[:3] == ["sample_id", "i", "s_i"]
    assert len(lines) == 2 + 2 * 4          # two paths, four knots each
    first = lines[2].split(",")
    assert float(first[3 + 2]) == pytest.approx(1.0)   # apex timelike coord
    # repr round-trips the endpoint coordinate bit-exactly
    last = lines[-1].split(",")
    assert float(last[3]) == points[1, 3, 0]
