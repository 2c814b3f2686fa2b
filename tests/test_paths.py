"""Path sampling, rolling/anti-rolling, energy, and the tangent basis."""

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
    path = paths.roll(FLAT2, part, inc)
    assert np.allclose(path.points[1:], np.cumsum(inc, axis=0), atol=1e-14)
    assert np.allclose(path.points[0], 0.0)
    assert np.allclose(path.frames, np.broadcast_to(np.eye(2), (7, 2, 2)))


def test_roll_zero_increments():
    """Zero increments stay at the base point with the base frame."""
    part = Partition(3)
    path = paths.roll(HYP3, part, np.zeros((3, 3)))
    o = geom.base_point(HYP3)
    for i in range(4):
        assert np.allclose(path.knot(i).point, o, atol=1e-14)
        assert np.allclose(path.knot(i).frame, geom.base_frame(HYP3), atol=1e-14)


def test_roll_segment_lengths():
    """Each rolled segment is a geodesic of length |increment|."""
    rng = np.random.default_rng(25)
    part = Partition(8)
    inc = rng.normal(size=(8, 3)) * np.sqrt(part.mesh)
    path = paths.roll(HYP3, part, inc)
    for i in range(8):
        dist = geom.distance(HYP3, path.points[i], path.points[i + 1])
        assert np.isclose(dist, np.linalg.norm(inc[i]), atol=1e-9)


def test_roll_anti_roll_roundtrip():
    """anti_roll recovers the increments of 1000 rolled paths to 1e-9."""
    part = Partition(16)
    inc = paths.sample_increments(HYP2, part, 1000, seed=5)
    pts, _ = paths.roll_batch(HYP2, inc)
    back = paths.anti_roll(HYP2, part, pts)
    assert np.max(np.abs(back - inc)) < 1e-9


def test_roll_from_custom_start():
    """Rolling from a moved frame point starts there and stays on the sheet."""
    rng = np.random.default_rng(33)
    start = geom.exp_map(HYP2, geom.base_frame_point(HYP2), np.array([0.4, -0.2]))
    part = Partition(4)
    inc = rng.normal(size=(4, 2)) * 0.5
    path = paths.roll(HYP2, part, inc, start=start)
    assert np.allclose(path.points[0], start.point)
    defect = max(geom.frame_defect(HYP2, path.points[i], path.frames[i])
                 for i in range(5))
    assert defect < 1e-10
    back = paths.anti_roll(HYP2, part, path.points, start_frame=start.frame)
    assert np.allclose(back, inc, atol=1e-10)


def test_endpoint_accessor():
    """knot() and endpoint expose frame points at the right indices."""
    part = Partition(2)
    inc = np.array([[0.3, 0.0], [0.1, 0.2]])
    path = paths.roll(FLAT2, part, inc)
    assert np.allclose(path.endpoint.point, inc.sum(axis=0))
    assert np.allclose(path.knot(1).point, inc[0])


def test_energy_values():
    """energy = n sum |db|^2: zero, single-interval, and constant cases."""
    assert paths.energy(Partition(3), np.zeros((3, 2))) == 0.0
    v = np.array([[0.3, -0.4]])
    assert paths.energy(Partition(1), v) == pytest.approx(0.25)
    inc = np.tile([0.5, 0.0], (4, 1))
    assert paths.energy(Partition(4), inc) == pytest.approx(4.0)


def test_g1p_inner_products():
    """Slope inner product: zero field, constant slopes, basis orthonormality."""
    part = Partition(2)
    z = np.zeros((2, 2))
    assert paths.g1p_inner(part, z, z) == 0.0
    ones = np.tile([1.0, 0.0], (2, 1))
    assert paths.g1p_inner(part, ones, ones) == pytest.approx(1.0)

    part = Partition(5)
    for alpha in range(2):
        for i in range(1, 6):
            ha = paths.frame_field_slopes(part, 2, alpha, i)
            for beta in range(2):
                for j in range(1, 6):
                    hb = paths.frame_field_slopes(part, 2, beta, j)
                    want = 1.0 if (alpha, i) == (beta, j) else 0.0
                    assert paths.g1p_inner(part, ha, hb) == pytest.approx(want)


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
            slopes = paths.frame_field_slopes(part, 2, alpha, i)
            J = jacobi.jacobi_from_slopes(C, S, slopes)
            for j in range(7):
                f_ij = (jacobi.batch_endpoint_f(C[:j], S[:j], part.mesh)[i - 1]
                        if j >= i else np.zeros((2, 2)))
                assert np.allclose(J[j], f_ij[:, alpha] / np.sqrt(6), atol=1e-10)


def test_csv_dump_layout():
    """dump_paths_csv: schema line, header, row count, repr round-trip."""
    part = Partition(3)
    inc = paths.sample_increments(HYP2, part, 2, seed=1)
    batch = [paths.roll(HYP2, part, inc[i]) for i in range(2)]
    buf = io.StringIO()
    paths.dump_paths_csv(batch, buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "schema=1"
    header = lines[1].split(",")
    assert header[:3] == ["sample_id", "i", "s_i"]
    assert len(lines) == 2 + 2 * 4          # two paths, four knots each
    first = lines[2].split(",")
    assert float(first[3 + 2]) == pytest.approx(1.0)   # apex timelike coord
    # repr round-trips the endpoint coordinate bit-exactly
    last = lines[-1].split(",")
    assert float(last[3]) == batch[1].points[3][0]
