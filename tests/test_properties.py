"""Property-based checks of the closed-form frame transport, the Gram pass and
the exact chart slopes behind the IBP chart matrix.

Hypothesis runs derandomised (a fixed example sequence, no example database),
so the suite is reproducible run to run.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from pinpath import geom, jacobi, paths  # noqa: E402
from pinpath.geom import CurvatureModel  # noqa: E402
from pinpath.jacobi import Partition  # noqa: E402

from tests.oracles import (CONSTRAINT_DRIFT_TOL, anti_roll, batch_cs,  # noqa: E402
                           batch_endpoint_f, batch_mass_matrix, exp_frame, frame_coords,
                           frame_defect, frame_vector, gram_pass, jacobi_from_slopes,
                           log_point, roll_batch, slopes_from_knots, transport)

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=40)

dims = st.integers(min_value=1, max_value=3)
kappas = st.floats(min_value=0.1, max_value=4.0)
seeds = st.integers(min_value=0, max_value=2 ** 32 - 1)


def step_of_length(rng, d, kappa, a):
    """A frame-coordinate step of random direction with sqrt(kappa)|v| = a."""
    v = rng.normal(size=d)
    return a * v / (np.linalg.norm(v) * np.sqrt(kappa))


def boosted_frame_point(model, seed, spread):
    """The rng, then a point and its frame at sqrt(kappa)-distance `spread`
    from o, reached by exp_frame."""
    rng = np.random.default_rng(seed)
    return (rng, *exp_frame(model, geom.base_point(model), geom.base_frame(model),
                            step_of_length(rng, model.dim, model.kappa, spread)))


@PROPERTY
@given(d=dims, kappa=kappas, seed=seeds, spread=st.floats(0.0, 3.0),
       step=st.floats(0.0, 3.0))
def test_frame_update_matches_columnwise_transport(d, kappa, seed, spread, step):
    """exp_frame's rank-one boost equals the per-vector transport of every frame column,
    from a point sqrt(kappa)-distance `spread` from o, for a step of
    sqrt(kappa)-length `step`."""
    model = CurvatureModel("hyperbolic", d, kappa)
    rng, x, frame = boosted_frame_point(model, seed, spread)
    y, got = exp_frame(model, x, frame, step_of_length(rng, d, kappa, step))
    want = np.stack([transport(kappa, x, y, frame[:, a]) for a in range(d)], axis=-1)
    # roundoff of a boost grows like the square of its entries
    tol = 1e-13 * max(1.0, float(np.max(np.abs(want)))) ** 2
    assert np.allclose(got, want, rtol=0.0, atol=tol)


@PROPERTY
@given(kind=st.sampled_from(["flat", "hyperbolic"]), d=dims, kappa=kappas,
       n=st.integers(min_value=1, max_value=70), seed=seeds,
       scale=st.floats(0.05, 1.5))
def test_roll_anti_roll_round_trip(kind, d, kappa, n, seed, scale):
    """anti_roll recovers the increments of a roll, across the Gram-Schmidt
    schedule (n beyond RENORM_EVERY); paths reach sqrt(kappa)-distance
    of order scale * sqrt(d)."""
    model = CurvatureModel(kind, d, kappa)
    rng = np.random.default_rng(seed)
    inc = scale * rng.normal(size=(3, n, d)) / np.sqrt(n * kappa)
    pts, frames = roll_batch(model, inc)
    back = anti_roll(model, pts)
    assert np.allclose(back, inc, rtol=0.0, atol=1e-8)
    assert frame_defect(model, pts[:, -1], frames[:, -1]) < CONSTRAINT_DRIFT_TOL


@PROPERTY
@given(kind=st.sampled_from(["flat", "hyperbolic"]), d=dims, kappa=kappas,
       n=st.integers(min_value=1, max_value=12), seed=seeds,
       scale=st.floats(0.1, 2.0))
@example(kind="hyperbolic", d=3, kappa=4.0, n=1, seed=0, scale=1.0)
@example(kind="hyperbolic", d=2, kappa=0.1, n=2, seed=1, scale=1.0)
@example(kind="flat", d=1, kappa=1.0, n=2, seed=2, scale=1.0)
def test_gram_pass_matches_suffix_products(kind, d, kappa, n, seed, scale):
    """G = sum_i f_i f_i^T and head = sum_{i<=n-1} f_i f_i^T at the end of the
    span agree with the suffix products f_i = batch_endpoint_f, and so does
    the forward recursion: the basis field h_{alpha,i} ends at f_i e_alpha / sqrt(n)."""
    model, part = CurvatureModel(kind, d, kappa), Partition(n)
    delta = part.mesh
    inc = scale * np.sqrt(delta) * np.random.default_rng(seed).normal(size=(4, n, d))
    G, head = gram_pass(model, inc)
    C, S = batch_cs(model, inc, delta)
    f_end = batch_endpoint_f(C, S, delta)
    want_G = batch_mass_matrix(f_end, delta) / delta
    want_head = np.einsum("...iab,...icb->...ac", f_end[:, :-1], f_end[:, :-1])
    tol = 1e-12 * max(1.0, float(np.max(np.abs(want_G))))
    assert np.allclose(G, want_G, rtol=0.0, atol=tol)
    assert np.allclose(head, want_head, rtol=0.0, atol=tol)
    slopes = np.sqrt(n) * np.eye(n * d).reshape(n, d, n, d)        # h_{alpha,i} at [i-1, alpha]
    J = jacobi_from_slopes(C[:, None, None], S[:, None, None], slopes)
    got = np.sqrt(n) * np.swapaxes(J[..., -1, :], -1, -2)           # (4, n, d, d)
    assert np.allclose(got, f_end, rtol=0.0,
                       atol=1e-12 * max(1.0, float(np.max(np.abs(f_end)))))


wide_kappas = st.floats(min_value=0.1, max_value=10.0)


@PROPERTY
@given(d=dims, kappa=wide_kappas, seed=seeds, spread=st.floats(0.0, 6.0),
       step=st.floats(0.0, 6.0))
@example(d=3, kappa=10.0, seed=0, spread=2.0, step=6.0)
@example(d=1, kappa=0.1, seed=1, spread=2.0, step=6.0)
@example(d=2, kappa=1.0, seed=4, spread=6.0, step=6.0)
@example(d=2, kappa=1.0, seed=2, spread=2.0, step=1e-9)
@example(d=2, kappa=1.0, seed=3, spread=0.0, step=0.0)
def test_exp_log_round_trip(d, kappa, seed, spread, step):
    """log_point inverts exp_frame in frame coordinates, for steps of
    sqrt(kappa)-length up to 6 from points within sqrt(kappa)-distance 6 of o.

    The point entries grow like cosh(spread), and log_point's Minkowski
    product cancels by about eps cosh(spread)^2: the tolerance
    1e-14 max(100, cosh(spread)^2) / sqrt(kappa) is 1e-12 / sqrt(kappa) up to
    spread 3 and widens beyond it.
    """
    model = CurvatureModel("hyperbolic", d, kappa)
    rng, x, frame = boosted_frame_point(model, seed, spread)
    v = step_of_length(rng, d, kappa, step)
    y = exp_frame(model, x, frame, v)[0]
    back = frame_coords(model, frame, log_point(model, x, y))
    tol = 1e-14 * max(100.0, np.cosh(spread) ** 2) / np.sqrt(kappa)
    assert np.allclose(back, v, rtol=0.0, atol=tol)


@PROPERTY
@given(d=dims, kappa=wide_kappas, seed=seeds, spread=st.floats(0.0, 6.0),
       step=st.floats(0.0, 6.0))
@example(d=3, kappa=10.0, seed=0, spread=6.0, step=6.0)
@example(d=1, kappa=0.1, seed=1, spread=0.0, step=6.0)
def test_transport_is_an_isometry(d, kappa, seed, spread, step):
    """transport along a step of sqrt(kappa)-length up to 6, from points
    within sqrt(kappa)-distance 6 of o, keeps Minkowski inner products and
    lands tangent at the new point.

    Ambient entries of the points and vectors grow like E = cosh of the larger
    sqrt(kappa)-distance of x and y from o (up to cosh 12, about 8e4), and
    Minkowski products of such vectors cancel, so the roundoff is about
    eps E^2 relative: the tolerance 1e-14 E^2 holds over the whole range.
    """
    model = CurvatureModel("hyperbolic", d, kappa)
    rng, x, frame = boosted_frame_point(model, seed, spread)
    y = exp_frame(model, x, frame, step_of_length(rng, d, kappa, step))[0]
    w = frame_vector(frame, rng.normal(size=(3, d)))
    t = transport(kappa, x, y, w)
    gram = geom.minkowski_inner(w[:, None], w[None])
    scale = np.sqrt(np.max(np.abs(gram)))
    tol = 1e-14 * max(1.0, float(np.max(np.abs([x, y]))) * np.sqrt(kappa)) ** 2
    assert np.allclose(geom.minkowski_inner(t[:, None], t[None]), gram, rtol=0.0,
                       atol=tol * scale ** 2)
    assert np.allclose(np.sqrt(kappa) * geom.minkowski_inner(y, t), 0.0, rtol=0.0,
                       atol=tol * scale)


@settings(derandomize=True, database=None, deadline=None, max_examples=4)
@given(d=st.integers(min_value=2, max_value=3), seed=seeds)
def test_long_roll_frames_stay_orthonormal(d, seed):
    """Every stored frame of a 1024-step roll at kappa = 1 stays within
    CONSTRAINT_DRIFT_TOL of orthonormal and tangent."""
    model, part = CurvatureModel("hyperbolic", d, 1.0), Partition(1024)
    inc = paths.sample_increments(model, part, 32, seed % 2 ** 31)
    pts, frames = roll_batch(model, inc)
    assert frame_defect(model, pts, frames) < CONSTRAINT_DRIFT_TOL


def knot_coords_relative(model, base_pts, base_frs, other_pts):
    """Frame coordinates of log(base knot -> other knot) at every knot:
    knots (..., n+1, D), frames (..., n+1, D, d); zero at knot 0."""
    return frame_coords(model, base_frs, log_point(model, base_pts, other_pts))


def central_difference_knots(model, inc, h):
    """Knot variations (..., n+1, d, n, d) by central differences of rolls at
    inc +/- h e_(i, a), compared with the base roll knot by knot in its
    rolled frames; the reference for paths.chart_matrix."""
    n, d = inc.shape[-2:]
    pts, frs = roll_batch(model, inc)
    out = np.zeros(inc.shape[:-2] + (n + 1, d, n, d))
    for i in range(n):
        for a in range(d):
            shift = np.zeros((n, d))
            shift[i, a] = h
            plus = roll_batch(model, inc + shift)[0]
            minus = roll_batch(model, inc - shift)[0]
            out[..., i, a] = (knot_coords_relative(model, pts, frs, plus)
                              - knot_coords_relative(model, pts, frs, minus)) / (2 * h)
    return out


def path_of_length(kind, d, kappa, n, seed, length):
    """Increments (3, n, d) whose steps add up to sqrt(kappa)-length `length`."""
    model = CurvatureModel(kind, d, kappa)
    inc = np.random.default_rng(seed).normal(size=(3, n, d))
    steps = np.sqrt(model.kappa or 1.0) * np.linalg.norm(inc, axis=-1).sum(axis=-1)
    return model, inc * (length / steps)[:, None, None]


@PROPERTY
@given(kind=st.sampled_from(["flat", "hyperbolic"]), d=dims, kappa=kappas,
       n=st.integers(min_value=1, max_value=6), seed=seeds,
       length=st.floats(0.0, 5.99))
@example(kind="hyperbolic", d=3, kappa=2.0, n=6, seed=0, length=5.99)
@example(kind="hyperbolic", d=2, kappa=1.0, n=4, seed=1, length=0.0)
def test_chart_slopes_match_slopes_of_central_differences(kind, d, kappa, n, seed, length):
    """The chart slopes agree with the slopes (oracle slopes_from_knots) of
    the central-difference knot variations of the roll, and vanish on
    intervals j < i; every knot stays within sqrt(kappa)-distance
    `length` < 6 of o."""
    model, inc = path_of_length(kind, d, kappa, n, seed, length)
    iv = jacobi.Intervals(model, np.ascontiguousarray(inc.transpose(1, 2, 0)))
    got = np.moveaxis(paths.chart_matrix(model, iv).reshape(n, d, n, d, 3), -1, 0)
    knots = central_difference_knots(model, inc, 1e-5 / np.sqrt(model.kappa or 1.0))
    C, S = batch_cs(model, inc, 1.0 / n)
    columns = np.moveaxis(knots.reshape(3, n + 1, d, n * d), -1, 1)   # (3, nd, n+1, d)
    want = np.moveaxis(slopes_from_knots(C[:, None], S[:, None], columns), 1, -1)
    want = want.reshape(got.shape)
    assert np.allclose(got, want, rtol=0.0, atol=1e-6 * float(np.max(np.abs(got))))
    for i in range(n):
        assert np.all(got[:, :i, :, i, :] == 0.0)       # intervals before i do not move


@PROPERTY
@given(kind=st.sampled_from(["flat", "hyperbolic"]), d=dims, kappa=kappas,
       n=st.integers(min_value=1, max_value=6), seed=seeds,
       length=st.floats(0.0, 5.99))
def test_chart_matrix_closed_form_blocks(kind, d, kappa, n, seed, length):
    """The chart matrix M is block lower triangular: its diagonal blocks are
    n I, its blocks above the diagonal exactly 0, and flat M is n I."""
    model, inc = path_of_length(kind, d, kappa, n, seed, length)
    iv = jacobi.Intervals(model, np.ascontiguousarray(inc.transpose(1, 2, 0)))
    M = paths.chart_matrix(model, iv).transpose(2, 0, 1)
    blocks = M.reshape(3, n, d, n, d)
    for i in range(n):
        assert np.allclose(blocks[:, i, :, i, :], n * np.eye(d), rtol=0.0, atol=1e-12)
        assert np.all(blocks[:, i, :, i + 1:, :] == 0.0)
    if kind == "flat":
        assert np.allclose(M, n * np.eye(n * d), rtol=0.0, atol=1e-12)
