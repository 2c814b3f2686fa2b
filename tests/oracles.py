"""Independent numerical oracles used by the test suite.

Everything here is deliberately written against the raw defining ODEs /
closed-form densities, without importing the production solvers, so that
agreement between the two is meaningful:

- RK4 integrators of the geodesic, transport and Jacobi equations;
- the dense interval solutions C_i, S_i (``batch_cs``), their suffix
  products f_i(1) (``batch_endpoint_f``) and the log slope determinant
  log rho_P (``log_rho_P``): the reference for the package's one form of
  them, the actions of ``jacobi.Intervals``;
- the frame roll (``roll_batch``), the package's development of free
  paths until boosts out of o (``paths.boost_to_knots``) replaced it: a
  rank-one exp step that carries the frame by parallel transport
  (``exp_frame``, ``_exp_frame_rows``), Minkowski Gram-Schmidt every
  ``RENORM_EVERY`` steps (``renormalize_frame``, ``project_tangent``) and
  the frame's orthonormality defect (``frame_defect``, bounded by
  ``CONSTRAINT_DRIFT_TOL``); and the forward boost chain of a path's knots
  and frames in 60-digit mpmath arithmetic (``mp_development``);
- the per-vector closed form of parallel transport (``transport``), the
  curvature quadratic A_xi as a matrix (``curvature_matrix``), the ambient
  vector of given frame coordinates (``frame_vector``), the inverse of the
  exponential map (``log_point``) and the frame coordinates of an ambient
  vector (``frame_coords``);
- the radial-PDE heat kernel on the d=3, kappa=1 hyperboloid
  (``radial_pde_kernel``, Crank-Nicolson in ``_cn_evolve``);
- the split-time quadrature of the pinned marginal (``pinned_fdd_oracle``,
  ``_pair_density``).  It multiplies closed-form heat kernels taken from
  ``pinpath.measures.heat_kernel_exact``, which stays in the package because
  the ``pinned`` command gates on it;
- the tip's dense algebra for the two volume factors of a pinned path
  (``dense_tip_log_factors``), the same factors from dense Gram sums held
  scaled by the product of the cosine solutions
  (``scaled_tip_log_factors``), and the Gram sums of whole paths
  (``gram_pass``: the package's step kernels over one ``jacobi.Intervals``
  of the increments, (..., m, d) in and (..., d, d) out);
- two routes to a pinned path's tip other than the estimator's pull-back:
  rolling the body's frames (``frame_roll_tip``, the estimator's route until
  the pull-back replaced it) and the bridge and boost composition in
  60-digit mpmath arithmetic (``mp_bridged_tip``); the two log-dets of a
  path's weight in 50-digit arithmetic (``mp_gram_log_dets``);
- the free-proposal pinned estimator (``free_body_pass``,
  ``free_pinned_chunk``, ``free_pinned_estimate``): the body drawn from the
  free law and pinned by its weight alone, the estimator's route on the
  hyperboloid until the diffusion bridge replaced it, and the free weight
  of given increments by the frame roll (``free_log_weights``);
- the knots of rolled paths at an observable's times (``knots_at``), the
  central differences of observables along a chart direction, one pair of
  rolls for all of them (``_directional_derivative``): the IBP check's
  route to Xf and Xg before the lift's knot field, and the damped-field
  pairing of an observable's gradient one knot and one frame axis at a
  time (``damped_pairing_per_axis``);
- the knot values of a broken Jacobi field from its right-slopes, by the
  interval recursion (``jacobi_from_slopes``), and the slopes from the knot
  values, by a dense inverse of each sine-type solution
  (``slopes_from_knots``), the reference for ``paths.chart_matrix``;
- the increments of rolled knots, by logs and transport (``anti_roll``);
- the lift by the roll and the suffix products (``roll_lift``,
  ``suffix_lift``, with the dense mass matrix ``batch_mass_matrix``), the
  endpoint coordinates of a vector by 60-digit boosts
  (``mp_endpoint_coords``), and the divergence of the chart
  velocity by differences of the velocity re-solved at each shifted point
  (``resolved_velocity_divergence``): the routes of the IBP check before
  the lift ran on the interval scalars;
- the divergence tr(M^{-1} dk) of the chart velocity from one full rerun
  of the interval scalars and the lift per shifted point
  (``residual_divergence``), the reference for the grouped pass that
  reuses each shift's unshifted prefix, and the chart part
  tr(M^{-1} d(M V)) of the residual k - M V from one rerun of
  ``full_chart_slopes`` per shifted point (``chart_residual_trace``),
  0 in exact arithmetic;
- the chart-slope recursion M v for any chart directions v, with every
  column carried from the first interval (``full_chart_slopes``), the
  reference for ``paths.chart_matrix`` on the identity stack;
- the null space of the lift's endpoint map (``endpoint_map_matrix``,
  ``lift_orthogonality``, ``lift_competitor_deficit``) and the determinant
  identity det(S^T S) = det(I + A A^T) (``det_identity_check``);
- finite-difference and Gaussian-algebra references for flat space;
- a chunk's standard-normal block drawn in one call (``one_call_normals``).
"""

import mpmath
import numpy as np
from scipy.linalg import null_space, solve_banded

from pinpath import diagnostics, geom, jacobi, paths
from pinpath.geom import NumericalError, minkowski_inner
from pinpath.measures import LOG_2PI, _pinned_knots, heat_kernel_exact


def rk4(f, y0, t1, steps):
    """Fixed-step classical RK4 for y' = f(t, y) on [0, t1]."""
    y = np.array(y0, dtype=float)
    h = t1 / steps
    t = 0.0
    for _ in range(steps):
        k1 = f(t, y)
        k2 = f(t + h / 2, y + h / 2 * k1)
        k3 = f(t + h / 2, y + h / 2 * k2)
        k4 = f(t + h, y + h * k3)
        y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        t += h
    return y


def geodesic_rk4(kappa, x0, v0, t1, steps=2000):
    """Integrate the hyperboloid geodesic equation x'' = kappa <x',x'>_M x."""
    D = len(x0)

    def rhs(_, y):
        x, v = y[:D], y[D:]
        return np.concatenate([v, kappa * minkowski_inner(v, v) * x])

    y = rk4(rhs, np.concatenate([x0, v0]), t1, steps)
    return y[:D], y[D:]


def transport_rk4(kappa, x0, v0, w0, t1, steps=2000):
    """Parallel transport w along the geodesic with initial data (x0, v0)."""
    D = len(x0)

    def rhs(_, y):
        x, v, w = y[:D], y[D:2 * D], y[2 * D:]
        return np.concatenate([v,
                               kappa * minkowski_inner(v, v) * x,
                               kappa * minkowski_inner(w, v) * x])

    y = rk4(rhs, np.concatenate([x0, v0, w0]), t1, steps)
    return y[2 * D:]


def transport(kappa, x, y, w):
    """Closed-form parallel transport of ambient tangent w at x along the
    hyperboloid geodesic to y: w + kappa <y, w>_M / (1 + c) (x + y) with
    c = -kappa <x, y>_M = cosh of the sqrt(kappa)-distance."""
    c = np.maximum(-kappa * minkowski_inner(x, y), 1.0)
    coef = kappa * minkowski_inner(y, w) / (1.0 + c)
    return w + coef[..., None] * (x + y)


def frame_vector(frame, v):
    """Ambient tangent vector with frame coordinates v."""
    return np.einsum("...ia,...a->...i", frame, v)


def log_point(model, x, y):
    """Inverse of the exponential map: ambient tangent v at x with exp_x(v) = y."""
    if model.kind == "flat":
        return y - x
    kappa = model.kappa
    c = np.maximum(-kappa * minkowski_inner(x, y), 1.0)
    a = np.arccosh(c)                       # = sqrt(kappa) * distance
    u = y - c[..., None] * x                # <u,u>_M = sinh(a)^2 / kappa
    return u / geom.sinhc(a)[..., None]


def frame_coords(model, frame, w):
    """Coordinates of ambient tangent w in the (orthonormal) frame."""
    if model.kind == "flat":
        return np.einsum("...ia,...i->...a", frame, w)
    eta = np.ones(model.ambient_dim)
    eta[-1] = -1.0
    return np.einsum("...ia,i,...i->...a", frame, eta, w)


# ---------------------------------------------------------------------------
# The frame roll: the development by exp steps and Gram-Schmidt
# ---------------------------------------------------------------------------

# points return to the sheet every step, frames on a schedule (roll_batch);
# drift beyond this is a bug
CONSTRAINT_DRIFT_TOL = 1e-10
RENORM_EVERY = 32   # rolled steps between Gram-Schmidt passes on the frame


def project_tangent(model, x, w):
    """Project an ambient vector onto the tangent space at x."""
    if model.kind == "flat":
        return w
    return w + (model.kappa * minkowski_inner(x, w))[..., None] * x


def renormalize_frame(model, x, frame):
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


def frame_defect(model, x, frame) -> float:
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


def exp_frame(model, x, frame, v_frame):
    """One rolled step: move along exp and carry the frame by parallel transport.

    x        : (..., D) points
    frame    : (..., D, d), orthonormal and tangent at x
    v_frame  : (..., d) step in frame coordinates
    returns  : (y, new_frame)

    The batch-first face of _exp_frame_rows, which holds the step itself.
    """
    x, frame, v_frame = (np.asarray(a, dtype=float) for a in (x, frame, v_frame))
    batch = np.broadcast_shapes(x.shape[:-1], frame.shape[:-2], v_frame.shape[:-1])
    y, u = _exp_frame_rows(
        model, np.moveaxis(np.broadcast_to(x, batch + x.shape[-1:]), -1, 0),
        np.moveaxis(np.broadcast_to(frame, batch + frame.shape[-2:]), (-2, -1), (0, 1)),
        np.moveaxis(np.broadcast_to(v_frame, batch + v_frame.shape[-1:]), -1, 0))
    return np.moveaxis(y, 0, -1), np.moveaxis(u, (0, 1), (-2, -1))


def _exp_frame_rows(model, x, frame, v_frame):
    """exp_frame on coordinates-first arrays: x (D, ...), frame (D, d, ...),
    v_frame (d, ...), so that with samples last every operation is on
    contiguous rows.

    For an orthonormal frame <y, u_alpha>_M = sinhc(a) v_alpha with
    a = sqrt(kappa)|v_frame|, so the per-vector transport
    w + kappa <y, w>_M / (1 + cosh a) (x + y) becomes the rank-one boost
    u' = u + kappa sinhc(a)/(1 + cosh a) (x + y) v_frame^T, exact for an
    orthonormal frame.  It is not re-orthonormalised here, so roundoff drift
    accumulates over many steps until the caller applies renormalize_frame
    (roll_batch does so on a fixed schedule).
    """
    v_amb = np.sum(frame * v_frame, axis=1)
    if model.kind == "flat":
        return x + v_amb, frame
    # |v_amb|_M = |v_frame| for an orthonormal frame
    a = np.sqrt(model.kappa * np.sum(v_frame * v_frame, axis=0))
    ch, sc = np.cosh(a), geom.sinhc(a)
    y = geom._renormalize_point(model, ch * x + sc * v_amb)
    return y, frame + (model.kappa * sc / (1.0 + ch) * (x + y))[:, None] * v_frame


def roll_batch(model, increments):
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
        x, u = _exp_frame_rows(model, points[i], frames[i], xi[i])
        if _renormalize_due(i, n):
            u = renormalize_frame(model, x.T, u.transpose(2, 0, 1)).transpose(1, 2, 0)
        points[i + 1], frames[i + 1] = x, u
    return (np.moveaxis(points, -1, 0).reshape(batch + (n + 1, D)),
            np.moveaxis(frames, -1, 0).reshape(batch + (n + 1, D, d)))


def _renormalize_due(i: int, n: int) -> bool:
    """Whether the frame at knot i+1 of an n-step roll is re-orthonormalised."""
    return (i + 1) % RENORM_EVERY == 0 or i + 1 == n


def curvature_matrix(kappa, xi):
    """A_xi = R(xi, .)xi = kappa (|xi|^2 I - xi xi^T) on frame coordinates;
    PSD with kernel xi, and zero for kappa = 0 (flat)."""
    xi = np.asarray(xi, dtype=float)
    return kappa * (np.dot(xi, xi) * np.eye(len(xi)) - np.outer(xi, xi))


def cs_rk4(kappa, xi, h, steps=2000):
    """(C, S, C', S') for Y'' = A_xi Y with A_xi = kappa(|xi|^2 I - xi xi^T),
    from the first-order system Z' = [[0, I], [A_xi, 0]] Z, Z(0) = I, whose
    solution is Z = [[C, S], [C', S']]."""
    d = len(xi)
    A = curvature_matrix(kappa, xi)
    M = np.block([[np.zeros((d, d)), np.eye(d)], [A, np.zeros((d, d))]])
    Z = rk4(lambda _, z: M @ z, np.eye(2 * d), h, steps)
    return Z[:d, :d], Z[:d, d:], Z[d:, :d], Z[d:, d:]


def batch_cs(model, increments, delta):
    """(C_i(delta), S_i(delta)) (..., d, d) for increments (..., d), e.g.
    (..., n, d).

    An interval covers its increment xi in time delta.  With a = sqrt(kappa)|xi|
    and P the projector onto xi,  C = cosh a I + (1 - cosh a) P  and
    S / delta = sinhc a I + (1 - sinhc a) P; flat space (or xi = 0) gives
    C = I, S = delta I exactly.
    """
    xi = np.asarray(increments, dtype=float)
    nrm = np.sqrt(np.sum(xi * xi, axis=-1))
    unit = xi / np.where(nrm > 0, nrm, 1.0)[..., None]
    a = np.sqrt(model.kappa) * nrm
    ch, sc = np.cosh(a), geom.sinhc(a)
    eye = np.eye(model.dim)
    proj = unit[..., :, None] * unit[..., None, :]
    C = ch[..., None, None] * eye + (1.0 - ch)[..., None, None] * proj
    S = delta * (sc[..., None, None] * eye + (1.0 - sc)[..., None, None] * proj)
    return C, S


def batch_endpoint_f(C, S, delta):
    """f_i evaluated at the right end of the covered span, i = 1..m.

    C, S (..., m, d, d) from batch_cs; returns (..., m, d, d) where entry i-1
    is C_m ... C_{i+1} S_i / delta (suffix products).
    """
    m, d = C.shape[-3], C.shape[-1]
    out = np.empty_like(C)
    suffix = np.broadcast_to(np.eye(d), C.shape[:-3] + (d, d)).copy()
    for a in range(m - 1, -1, -1):
        out[..., a, :, :] = suffix @ (S[..., a, :, :] / delta)
        suffix = suffix @ C[..., a, :, :]
    return out


def log_rho_P(S, delta):
    """log rho_P: sum over the first n-1 of the intervals in S of log det(S_i / delta).

    S (..., n, d, d) as from batch_cs; the last interval is not counted.
    Each S_i / delta is SPD with eigenvalues sinhc a >= 1 and 1, so
    rho_P >= 1; the determinants come from jacobi._positive_logdet, which
    raises NumericalError on a non-finite entry.
    """
    body = np.moveaxis(S[..., :-1, :, :], (-2, -1), (0, 1)) / delta
    return np.sum(jacobi._positive_logdet(body, "sine-type solution"), axis=-1)


def scaled_tip_log_factors(model, body, tips, n):
    """(log J_P, log V_x) (B,) of hyperbolic pinned paths on n intervals with
    body (B, m, d), m >= 1, and tips (B, d), from their Gram sums held
    scaled by P = C_m ... C_1 in dense matrices (batch_cs), so that no
    entry grows: R = P^{-1} = C_1^{-1} ... C_m^{-1} by np.linalg.inv of each
    C_j, H = sum_j (R_j S_j/delta)(R_j S_j/delta)^T with R_j the product of
    the first j inverses, and log det P from slogdet.  With T = r^2 I +
    (1 - r^2) e e^T of the tip (r = tanh(a) / a, e its direction),
    log det(G + T) = 2 log det P + log det(H + R T R^T) and
    log det(I + head + T) = 2 log det P + log det(H_{m-1} + R (I + T) R^T),
    except at m = 1, where head = 0 and I + T is taken as it is; then
    log J_P = -(d/2) log n + (d-1) log cosh a + log det(G + T) / 2 and
    log V_x = log det(I + head + T) / 2 - (d-1) log r (jacobi's module
    docstring)."""
    B, m, d = np.shape(body)
    C, S = batch_cs(model, body, 1.0 / n)
    eye = np.eye(d)
    R, H, log_det_p = np.broadcast_to(eye, (B, d, d)), np.zeros((B, d, d)), np.zeros(B)
    for j in range(m):
        inv = np.linalg.inv(C[:, j])
        M = R @ inv @ (S[:, j] * n)
        head, H = H, H + M @ M.transpose(0, 2, 1)
        R = R @ inv
        log_det_p += np.linalg.slogdet(C[:, j])[1]
    nrm = np.linalg.norm(tips, axis=1)
    a, e = np.sqrt(model.kappa) * nrm, tips / nrm[:, None]
    r2 = (np.tanh(a) / a) ** 2
    T = r2[:, None, None] * eye + (1.0 - r2)[:, None, None] * e[:, :, None] * e[:, None, :]
    Rt = R.transpose(0, 2, 1)
    log_k = 2.0 * log_det_p + np.linalg.slogdet(H + R @ T @ Rt)[1]
    if m == 1:
        log_v = np.linalg.slogdet(eye + T)[1]
    else:
        log_v = 2.0 * log_det_p + np.linalg.slogdet(head + R @ (eye + T) @ Rt)[1]
    log_jp = -0.5 * d * np.log(n) + (d - 1) * np.log(np.cosh(a)) + 0.5 * log_k
    return log_jp, 0.5 * log_v - 0.5 * (d - 1) * np.log(r2)


def dense_tip_log_factors(G, head, Cx, Sx, n):
    """(log J_P, log V_x) of paths on n intervals with dense tip matrices.

    The body's Gram sums G = sum_{i<=n-1} f_i f_i^T and head (the same sum
    without its last term) at tau = 1 - delta, and the tip's solutions Cx, Sx
    (..., d, d):  K(1) = delta Cx G Cx^T + Sx Sx^T / delta,  J_P = sqrt(det K(1));
    F = (I + head) / n^2,  L = Cx Sx^{-1},  V_x = sqrt(det(I + L F L^T)), and
    V_x = 1 when n = 1.  No guards: a lost determinant comes back as it is.
    """
    delta = 1.0 / n
    K = delta * Cx @ G @ np.swapaxes(Cx, -1, -2) + Sx @ np.swapaxes(Sx, -1, -2) / delta
    log_jp = 0.5 * np.linalg.slogdet(K)[1]
    if n == 1:
        return log_jp, np.zeros_like(log_jp)
    eye = np.eye(G.shape[-1])
    L = np.swapaxes(np.linalg.solve(np.swapaxes(Sx, -1, -2), np.swapaxes(Cx, -1, -2)), -1, -2)
    gram = eye + L @ ((eye + head) / n ** 2) @ np.swapaxes(L, -1, -2)
    return log_jp, 0.5 * np.linalg.slogdet(gram)[1]


def gram_pass(model, increments):
    """Gram sums G = sum_{i<=m} f_i f_i^T at the end of increments (..., m, d).

    One forward pass of G_j = C_j G_{j-1} C_j^T + (S_j/delta)(S_j/delta)^T
    from G_0 = 0 (jacobi.gram_step).  Returns (G, head), both (..., d, d) and
    zero when m = 0: G = G_m, and head = G_m without its last term,
    C_m G_{m-1} C_m^T = sum_{i<=m-1} f_i f_i^T.  K at the end of the span is
    delta * G.
    """
    inc = np.ascontiguousarray(np.moveaxis(np.asarray(increments, dtype=float),
                                           (-2, -1), (0, 1)))          # (m, d, ...)
    (m, d), batch = inc.shape[:2], inc.shape[2:]
    iv = jacobi.Intervals(model, inc)
    G = np.zeros((d, d) + batch)
    for j in range(m):
        jacobi.gram_step(G, iv, j)
    return (np.moveaxis(G, (0, 1), (-2, -1)),
            np.moveaxis(jacobi.gram_head(G, iv), (0, 1), (-2, -1)))


def frame_roll_tip(model, body, x):
    """Tips (N, d) of pinned paths with body increments (N, m, d) and target
    x (D,): roll the body's knots and frames, then take log_{x_m}(x) in the
    frame at the body's end.  Returns (tips, the sqrt(kappa)-distance of each
    body end from o, the largest such distance of any knot).  Its roundoff
    grows like eps cosh^2 of that distance, the size of the ambient
    coordinates it cancels, at the end of a body that heads outward, and at
    the farthest knot of one that turns back."""
    pts, frs = roll_batch(model, body)
    end = pts[:, -1]
    tips = frame_coords(model, frs[:, -1],
                        log_point(model, end, np.broadcast_to(x, end.shape)))
    reach = np.sqrt(model.kappa) * geom.distance(model, geom.base_point(model), pts)
    return tips, reach[:, -1], reach.max(axis=1)


def mp_bridged_tip(kappa, draw, x, n, dps=60):
    """The tip (d,) of one hyperbolic pinned path on n intervals in
    dps-digit arithmetic, and its body (m, d) rounded: each drawn row z_j of
    draw (m, d) is bridged as measures._body_pass bridges it,
    xi_j = v_j / k + sqrt((k - 1) / k) z_j with k = n - j intervals left
    and v_j = log_o(w), then w <- B(-xi_j) w by the full Lorentz boost's
    action, from w = x; the tip is log_o(w) at the end, with
    log_o(w) = asinh(sqrt(kappa)|w_s|) w_s / (sqrt(kappa)|w_s|).  draw and
    the spatial part of x are taken as exact; x's timelike part is
    recomputed on the sheet.  The bridge steers each step by the target it
    sees, so the tip is a well-conditioned function of the draw even where
    the pull-back along given increments is not (the far point w carries
    cosh(sqrt(kappa) |w|) times any perturbation of them)."""
    with mpmath.workdps(dps):
        k = mpmath.mpf(kappa)
        rk = mpmath.sqrt(k)

        def log_o(ws):
            z = rk * mpmath.sqrt(sum(v * v for v in ws))
            scale = mpmath.asinh(z) / z if z > 0 else mpmath.mpf(1)
            return [scale * v for v in ws]

        ws = [mpmath.mpf(float(v)) for v in x[:-1]]
        wt = mpmath.sqrt(1 / k + sum(v * v for v in ws))
        body = []
        for j, row in enumerate(np.asarray(draw, dtype=float)):
            left = n - j
            root = mpmath.sqrt(mpmath.mpf(left - 1) / left)
            xi = [v / left + root * mpmath.mpf(float(z)) for v, z in zip(log_o(ws), row)]
            body.append([float(v) for v in xi])
            nrm = mpmath.sqrt(sum(v * v for v in xi))
            if nrm == 0:
                continue
            p = [v / nrm for v in xi]
            ch, sh = mpmath.cosh(rk * nrm), mpmath.sinh(rk * nrm)
            ps = sum(a * b for a, b in zip(p, ws))
            ws, wt = ([w + ((ch - 1) * ps - sh * wt) * q for w, q in zip(ws, p)],
                      ch * wt - sh * ps)
        return np.array([float(v) for v in log_o(ws)]), np.array(body).reshape(np.shape(draw))


def mp_gram_log_dets(kappa, body, tip, dps=50):
    """(log det(G + T), log det(I + head + T)) of one hyperbolic pinned path
    in dps-digit arithmetic: G and head from the dense recursion
    G_j = C_j G_{j-1} C_j^T + (S_j/delta)(S_j/delta)^T over the body (m, d),
    with C = I + (cosh a - 1) Q and S/delta = I + (sinhc a - 1) Q, and
    T = r^2 I + (1 - r^2) e e^T of the tip (d,), r = tanh(a) / a (the
    factors of jacobi.tip_log_factors).  body and tip are taken as exact."""
    d = np.shape(body)[1]
    with mpmath.workdps(dps):
        rk = mpmath.sqrt(mpmath.mpf(kappa))
        eye = mpmath.eye(d)

        def polar(v):
            v = [mpmath.mpf(float(c)) for c in v]
            nrm = mpmath.sqrt(sum(c * c for c in v))
            e = mpmath.matrix(v) / nrm
            return rk * nrm, e * e.T

        G = head = mpmath.zeros(d)
        for row in body:
            a, P = polar(row)
            C = eye + (mpmath.cosh(a) - 1) * (eye - P)
            S = eye + (mpmath.sinh(a) / a - 1) * (eye - P)
            head = C * G * C.T
            G = head + S * S.T
        a, P = polar(tip)
        r2 = (mpmath.tanh(a) / a) ** 2
        T = r2 * eye + (1 - r2) * P
        return (float(mpmath.log(mpmath.det(G + T))),
                float(mpmath.log(mpmath.det(eye + head + T))))


def free_body_pass(model, body, x_amb):
    """The free route's body pass over increments body (m, d, B), as drawn:
    one jacobi.Intervals of the whole body, then per step the Gram step and
    the pull-back of the target by B(-xi_j).  Returns (G, head, tip), the
    Gram sums (d, d, B) and the tip (d, B) at o."""
    m, d, B = body.shape
    iv = jacobi.Intervals(model, body)
    G = np.zeros((d, d, 1 if iv.flat else B))
    w = np.repeat(np.asarray(x_amb, dtype=float)[:, None], B, axis=1)
    for j in range(m):
        jacobi.gram_step(G, iv, j)
        paths.boost_rows(model, w, iv, j, -1.0)
    return G, jacobi.gram_head(G, iv), geom.log_o_rows(model, w)


def free_pinned_chunk(model, partition, x_amb, observable, seed, start, count):
    """Log-weights and observable values (count,) of the free proposal: the
    body is the free draw of paths.sample_increments, the same Philox rows
    the estimator bridges, and the weight is (2 pi)^{-d/2}
    exp(-(n/2)|xi_x|^2) V_x / J_P alone."""
    n, d = partition.n, model.dim
    inc = paths.sample_increments(model, partition, count, seed, start)
    body = inc.transpose(1, 2, 0)[:n - 1]
    G, head, tip = free_body_pass(model, body, x_amb)
    log_jp, log_vx, _ = jacobi.tip_log_factors(model, G.transpose(2, 0, 1),
                                               head.transpose(2, 0, 1), tip.T, n)
    log_w = -0.5 * d * LOG_2PI - 0.5 * n * np.sum(tip * tip, axis=0) + log_vx - log_jp
    knots = _pinned_knots(model, partition, observable.times, body, x_amb)
    return log_w, np.asarray(observable.evaluate(model, knots), dtype=float)


def free_pinned_estimate(model, partition, x_amb, observable, n_samples, seed):
    """(mean, stderr) of the free-proposal estimate over n_samples paths,
    chunk by chunk at paths.CHUNK as the estimator draws them."""
    parts = [free_pinned_chunk(model, partition, x_amb, observable, seed, s,
                               min(paths.CHUNK, n_samples - s))
             for s in range(0, n_samples, paths.CHUNK)]
    log_w = np.concatenate([p[0] for p in parts])
    vals = np.exp(log_w - log_w.max()) * np.concatenate([p[1] for p in parts])
    scale = np.exp(log_w.max())
    return scale * vals.mean(), scale * vals.std(ddof=1) / np.sqrt(n_samples)


def free_log_weights(model, n, inc, x_amb):
    """The free weight log((2 pi)^{-d/2} exp(-(n/2)|xi_x|^2) V_x / J_P) (N,)
    of the pinned paths on n intervals whose body is inc[:, :n-1] (N, >= n-1,
    d): the tip from the frame roll (frame_roll_tip), the Gram sums from
    gram_pass."""
    tips = frame_roll_tip(model, inc[:, :n - 1], x_amb)[0]
    G, head = gram_pass(model, inc[:, :n - 1])
    log_jp, log_vx, _ = jacobi.tip_log_factors(model, G, head, tips, n)
    return (-0.5 * model.dim * LOG_2PI - 0.5 * n * np.sum(tips * tips, axis=1)
            + log_vx - log_jp)


def knots_at(partition, times, points):
    """The knots (..., len(times), D) at the given times of paths with knots
    (..., n+1, D); raises ValueError for a time that is not a knot."""
    return points[..., [partition.knot_index(t) for t in times], :]


def _directional_derivative(model, part, inc, direction, observables):
    """Central differences (diagnostics.FD_STEP) of cylinder observables
    along a chart direction (N, n, d): the increments move by the step
    along the unit direction, each side's paths are rolled once for every
    observable, and the difference is rescaled by the direction's norm.
    Returns (len(observables), N)."""
    def observe(z):
        pts = roll_batch(model, z)[0]
        return np.stack([obs.evaluate(model, knots_at(part, obs.times, pts))
                         for obs in observables])

    return diagnostics._central_difference(observe, inc, direction, diagnostics.FD_STEP)


def damped_pairing_per_axis(model, part, observable, points, frames, field, step):
    """Sum over the knot times s_j of the observable and the frame axes a of
    field[:, j, a] times the central difference of size step of f, moving
    only knot j by exp_frame along axis a of its frame.  points (N, n+1, D),
    frames (N, n+1, D, d) and field (N, n+1, d); knot 0 is skipped (the
    field vanishes there).  Returns (N,)."""
    N, d = points.shape[0], model.dim
    knots = knots_at(part, observable.times, points)
    pairing = np.zeros(N)
    for k, j in enumerate(part.knot_index(t) for t in observable.times):
        if j == 0:
            continue
        for a in range(d):
            moved = [knots.copy(), knots.copy()]
            for sign, copy in zip((1.0, -1.0), moved):
                copy[:, k] = exp_frame(model, points[:, j], frames[:, j],
                                       sign * step * np.eye(d)[a])[0]
            grad = (observable.evaluate(model, moved[0])
                    - observable.evaluate(model, moved[1])) / (2 * step)
            pairing += field[:, j, a] * grad
    return pairing


def broken_jacobi_rk4(kappa, velocities, slopes, steps_per_interval=400):
    """Knot values of the broken Jacobi field: J''=A_xi J on each interval,
    continuous at the knots, right-slope reset to slopes[j] at knot j."""
    n, d = velocities.shape
    h = 1.0 / n
    J = np.zeros(d)
    out = [J.copy()]
    for j in range(n):
        A = curvature_matrix(kappa, velocities[j])

        def rhs(_, y, A=A):
            return np.concatenate([y[d:], A @ y[:d]])

        y = rk4(rhs, np.concatenate([J, slopes[j]]), h, steps_per_interval)
        J = y[:d]
        out.append(J.copy())
    return np.array(out)


def jacobi_from_slopes(C, S, slopes):
    """Knot values (..., n+1, d) of the field with right-slopes k_i at the knots.

    C, S (..., n, d, d) in the batch_cs layout, slopes (..., n, d);
    identical to (1/n) sum_i f_{i+1}(s_j) k_i, by the interval recursion
    J(s_j) = C_j J(s_{j-1}) + S_j k_{j-1} from J(0) = 0.  C, S may broadcast
    against more leading axes (many fields along one path).
    """
    slopes = np.asarray(slopes, dtype=float)
    n = slopes.shape[-2]
    J = np.zeros(np.broadcast_shapes(slopes.shape[:-2], C.shape[:-3]) + (n + 1, slopes.shape[-1]))
    for j in range(n):
        J[..., j + 1, :] = (_matvec(C[..., j, :, :], J[..., j, :])
                            + _matvec(S[..., j, :, :], slopes[..., j, :]))
    return J


def _matvec(A, v):
    """A v over the last axes; A (..., d, d) broadcasts against v (..., d)."""
    out = np.zeros(np.broadcast_shapes(A.shape[:-1], v.shape))
    for a, b in np.ndindex(A.shape[-2:]):
        out[..., a] += A[..., a, b] * v[..., b]
    return out


def slopes_from_knots(C, S, knot_values):
    """Right-slopes (..., n, d) of the broken Jacobi field with knot values
    (..., n+1, d), the inverse of jacobi_from_slopes:
    k_{j-1} = S_j^{-1} (J(s_j) - C_j J(s_{j-1})) with a dense inverse of each
    S_j.  C, S (..., n, d, d) from batch_cs may broadcast against more
    leading axes (many fields along one path)."""
    knot_values = np.asarray(knot_values, dtype=float)
    rhs = knot_values[..., 1:, :] - np.einsum("...ab,...b->...a", C, knot_values[..., :-1, :])
    return np.einsum("...ab,...b->...a", np.linalg.inv(S), rhs)


def vx_fd_oracle_flat(d, x, eps=1e-5):
    """Finite-difference Gram-ratio oracle for the n=2 flat pinning factor.

    Body = one free knot at s=1/2 with one Gaussian increment; the pinning
    map sends the knot motion to the constrained-path slope pair.  The
    volume factor is sqrt(det(image Gram) / det(domain Gram)), computed by
    differencing both quadratic forms; flat closed form is 2^{d/2}.
    """
    n = 2
    x = np.asarray(x, dtype=float)
    mid = x / 2.0

    def slope_energy(knot):
        # two intervals of length 1/2; slopes are n * increments
        s1 = n * (knot - 0.0)
        s2 = n * (x - knot)
        return np.concatenate([s1, s2])

    def domain_coord(knot):
        # chart coordinate of the free-measure driver: first increment scaled
        return np.sqrt(n) * knot

    G_dom = np.zeros((d, d))
    G_img = np.zeros((d, d))
    for a in range(d):
        for b in range(d):
            ea, eb = np.eye(d)[a], np.eye(d)[b]
            da = (domain_coord(mid + eps * ea) - domain_coord(mid - eps * ea)) / (2 * eps)
            db = (domain_coord(mid + eps * eb) - domain_coord(mid - eps * eb)) / (2 * eps)
            G_dom[a, b] = np.dot(da, db)
            sa = (slope_energy(mid + eps * ea) - slope_energy(mid - eps * ea)) / (2 * eps)
            sb = (slope_energy(mid + eps * eb) - slope_energy(mid - eps * eb)) / (2 * eps)
            G_img[a, b] = np.dot(sa, sb) / n   # G^1_P inner product weight
    return np.sqrt(np.linalg.det(G_img) / np.linalg.det(G_dom))


def flat_bridge_second_moment(d, x):
    """E over the flat pinned law of |midpoint|^2, times the heat kernel p_1(x).

    Gaussian algebra: midpoint ~ N(x/2, I/4), so the unnormalized value is
    p_1(x) * (|x|^2 + d) / 4.
    """
    x = np.asarray(x, dtype=float)
    p1 = (2 * np.pi) ** (-d / 2) * np.exp(-np.dot(x, x) / 2)
    return p1 * (np.dot(x, x) + d) / 4.0


def flat_bridge_abs_moment_1d(x):
    """d=1 version with g(r) = r: folded-normal mean times p_1(x)."""
    from scipy.stats import norm

    mu, sigma = x / 2.0, 0.5
    folded = sigma * np.sqrt(2 / np.pi) * np.exp(-mu ** 2 / (2 * sigma ** 2)) \
        + mu * (1 - 2 * norm.cdf(-mu / sigma))
    p1 = (2 * np.pi) ** (-0.5) * np.exp(-x ** 2 / 2)
    return p1 * folded


# ---------------------------------------------------------------------------
# Radial-PDE heat kernel (hyperbolic d=3, kappa=1)
# ---------------------------------------------------------------------------

def _cn_evolve(v, dr, dt, steps):
    """Crank-Nicolson for v_t = (v_rr - v)/2, Dirichlet ends; v is interior."""
    m = v.size
    lam = dt / (4.0 * dr * dr)
    # A v = (v_rr - v)/2 ; banded forms of I -/+ (dt/2) A
    main_minus = np.full(m, 1.0 + 2.0 * lam + 0.25 * dt)
    off_minus = np.full(m - 1, -lam)
    main_plus = np.full(m, 1.0 - 2.0 * lam - 0.25 * dt)
    off_plus = np.full(m - 1, lam)
    ab = np.zeros((3, m))
    ab[0, 1:] = off_minus
    ab[1, :] = main_minus
    ab[2, :-1] = off_minus
    for _ in range(steps):
        rhs = main_plus * v
        rhs[1:] += off_plus * v[:-1]
        rhs[:-1] += off_plus * v[1:]
        v = solve_banded((1, 1), ab, rhs)
    return v


def radial_pde_kernel(rho_eval, t=1.0, cells=10000, r_max=30.0, t0=0.02, dt=5e-4,
                      richardson=True):
    """Numerical p_t(o, rho) on the d=3, kappa=1 hyperboloid via a radial PDE.

    In v = sinh(rho) * p the radial heat flow becomes v_t = (v_rr - v)/2 on
    (0, r_max) with Dirichlet ends.  Start from the short-time asymptotic
    profile v(t0) ~ (2 pi t0)^{-3/2} rho exp(-rho^2/(2 t0)) and evolve by
    Crank-Nicolson; Richardson over t0 removes the O(t0) launch error.
    """
    rho_eval = np.atleast_1d(np.asarray(rho_eval, dtype=float))
    grid = np.linspace(0.0, r_max, cells + 1)
    dr = grid[1] - grid[0]
    interior = grid[1:-1]

    def run(t_start):
        v = (2 * np.pi * t_start) ** (-1.5) * interior * np.exp(
            -interior * interior / (2 * t_start))
        steps = int(np.ceil((t - t_start) / dt))
        return _cn_evolve(v, dr, (t - t_start) / steps, steps)

    v1 = run(t0)
    v = 2.0 * run(t0 / 2.0) - v1 if richardson else v1
    p = v / np.sinh(interior)
    return np.interp(rho_eval, interior, p)


# ---------------------------------------------------------------------------
# Split-time quadrature of the pinned marginal
# ---------------------------------------------------------------------------

def _pair_density(model, t1, t2, rho_target, r, costh):
    """p_t1(o, y) p_t2(y, x) for y at radius r, polar angle acos(costh)."""
    if model.kind == "flat":
        d2 = r * r + rho_target * rho_target - 2.0 * r * rho_target * costh
        rho2 = np.sqrt(np.maximum(d2, 0.0))
    else:
        ch = (np.cosh(r) * np.cosh(rho_target)
              - np.sinh(r) * np.sinh(rho_target) * costh)
        rho2 = np.arccosh(np.maximum(ch, 1.0))
    return (heat_kernel_exact(model, t1, rho=r)
            * heat_kernel_exact(model, t2, rho=rho2))


def pinned_fdd_oracle(model, rho, g, t_split=0.5, tol=1e-4, m0=128, m_max=4096):
    """Quadrature value of  int g(d(o,y)) p_t(o,y) p_{1-t}(y,x) dvol(y)
    for a target x at distance rho from o.

    Midpoint rule on a polar grid, doubled until the Richardson error estimate
    drops below tol (absolute); returns (value, error_estimate).  Supports
    flat d in {1,2,3} and hyperbolic d=3 (kappa=1).  g is a vectorized
    callable of the radius.
    """
    rho_t = float(rho)
    t1, t2 = t_split, 1.0 - t_split
    r_max = max(8.0, rho_t + 8.0)
    d = model.dim
    if model.kind == "hyperbolic" and d != 3:
        raise ValueError("hyperbolic quadrature oracle needs d=3")

    def integral(m):
        r = (np.arange(m) + 0.5) * (r_max / m)
        if model.kind == "flat" and d == 1:
            y = np.concatenate([-r[::-1], r])
            vals = (g(np.abs(y)) * heat_kernel_exact(model, t1, rho=np.abs(y))
                    * heat_kernel_exact(model, t2, rho=np.abs(y - rho_t)))
            return float(np.sum(vals) * (r_max / m))
        th = (np.arange(m) + 0.5) * (np.pi / m)
        R, TH = np.meshgrid(r, th, indexing="ij")
        dens = _pair_density(model, t1, t2, rho_t, R, np.cos(TH))
        if model.kind == "flat" and d == 2:
            elem = R                     # r dr dth, doubled for th in (pi, 2pi)
            total = 2.0
        elif model.kind == "flat":
            elem = 2.0 * np.pi * R * R * np.sin(TH)
            total = 1.0
        else:
            elem = 2.0 * np.pi * np.sinh(R) ** 2 * np.sin(TH)
            total = 1.0
        vals = g(R) * dens * elem
        return float(total * np.sum(vals) * (r_max / m) * (np.pi / m))

    prev = integral(m0)
    m = 2 * m0
    while m <= m_max:
        cur = integral(m)
        err = abs(cur - prev) / 3.0
        if err <= tol:
            return cur + (cur - prev) / 3.0, err
        prev = cur
        m *= 2
    raise NumericalError(f"quadrature did not reach tol={tol} by m={m_max}")


def anti_roll(model, points):
    """Recover increments (..., n, d) from knot points (..., n+1, D), the
    inverse of roll_batch; the frame is rebuilt by transport from o's
    frame on the roll's Gram-Schmidt schedule, so only knot positions are
    needed.
    """
    points = np.asarray(points, dtype=float)
    n = points.shape[-2] - 1
    batch = points.shape[:-2]
    D, d = model.ambient_dim, model.dim
    u = np.broadcast_to(geom.base_frame(model), batch + (D, d)).copy()
    out = np.empty(batch + (n, d))
    for i in range(n):
        x, y = points[..., i, :], points[..., i + 1, :]
        v = frame_coords(model, u, log_point(model, x, y))
        out[..., i, :] = v
        u = exp_frame(model, x, u, v)[1]
        if _renormalize_due(i, n):
            u = renormalize_frame(model, y, u)
    return out


# ---------------------------------------------------------------------------
# The lift by the roll, and the divergence of the re-solved chart velocity
# ---------------------------------------------------------------------------

def batch_mass_matrix(f_end, delta):
    """K(end) = delta * sum_i f_i f_i^T from stacked f_i (..., m, d, d), as one
    product of the (d, m d) block [f_1 ... f_m] with its transpose."""
    m, d = f_end.shape[-3], f_end.shape[-1]
    block = np.swapaxes(f_end, -3, -2).reshape(f_end.shape[:-3] + (d, m * d))
    return delta * (block @ np.swapaxes(block, -1, -2))


def suffix_lift(model, part, inc, coords):
    """Slopes (N, n, d) of the lift along increments inc (N, n, d) that ends
    at the endpoint coordinates coords (N, d): f_i(1)^T K(1)^{-1} coords,
    with the suffix products f_i(1) (batch_endpoint_f) and a dense
    solve of K(1)."""
    f_end = batch_endpoint_f(*batch_cs(model, inc, part.mesh), part.mesh)
    coeff = np.linalg.solve(batch_mass_matrix(f_end, part.mesh), coords[..., None])[..., 0]
    return np.einsum("...iab,...a->...ib", f_end, coeff)


def roll_lift(model, part, inc, x_vector):
    """The lift of the endpoint field with ambient vector x_vector along
    increments inc (N, n, d): slopes (N, n, d) (suffix_lift) and the endpoint
    coordinates (N, d), read in the rolled frame at the endpoint (its columns
    are tangent, so the vector's normal part drops out)."""
    frame = roll_batch(model, inc)[1][:, -1]
    coords = frame_coords(model, frame, np.asarray(x_vector, dtype=float))
    return suffix_lift(model, part, inc, coords), coords


def mp_endpoint_coords(kappa, inc, x_vector, dps=60):
    """Coordinates (d,) of the ambient vector x_vector in the frame at the
    endpoint of one hyperbolic path with increments inc (n, d), in
    dps-digit arithmetic: the spatial part of B(-xi_n) ... B(-xi_1) x_vector
    by the full Lorentz boosts' action (increments taken as exact)."""
    with mpmath.workdps(dps):
        rk = mpmath.sqrt(mpmath.mpf(kappa))
        ws, wt = [mpmath.mpf(float(v)) for v in x_vector[:-1]], mpmath.mpf(float(x_vector[-1]))
        for step in np.asarray(inc, dtype=float):
            xi = [mpmath.mpf(float(v)) for v in step]
            nrm = mpmath.sqrt(sum(v * v for v in xi))
            if nrm == 0:
                continue
            p = [v / nrm for v in xi]
            ch, sh = mpmath.cosh(rk * nrm), mpmath.sinh(rk * nrm)
            ps = sum(a * b for a, b in zip(p, ws))
            ws, wt = ([w + ((ch - 1) * ps - sh * wt) * q for w, q in zip(ws, p)],
                      ch * wt - sh * ps)
        return np.array([float(v) for v in ws])


def mp_development(kappa, inc, dps=60):
    """Knots (n+1, D) and frames (n+1, D, d) from o of one hyperbolic path
    with increments inc (n, d), in dps-digit arithmetic: the forward chain
    g_j = g_{j-1} B(xi_j) of full Lorentz boost matrices
    B(xi) = [[I + (cosh a - 1) p p^T, sinh a p], [sinh a p^T, cosh a]],
    with p the unit increment and a = sqrt(kappa)|xi| (increments taken as
    exact); knot j is g_j o and its frame is g_j's first d columns."""
    n, d = np.shape(inc)
    with mpmath.workdps(dps):
        rk = mpmath.sqrt(mpmath.mpf(kappa))
        g = mpmath.eye(d + 1)
        knots, frames = [], []
        for j in range(n + 1):
            if j:
                xi = [mpmath.mpf(float(v)) for v in inc[j - 1]]
                nrm = mpmath.sqrt(sum(v * v for v in xi))
                boost = mpmath.eye(d + 1)
                if nrm != 0:
                    p = [v / nrm for v in xi]
                    ch, sh = mpmath.cosh(rk * nrm), mpmath.sinh(rk * nrm)
                    for a in range(d):
                        boost[a, d] = boost[d, a] = sh * p[a]
                        for b in range(d):
                            boost[a, b] += (ch - 1) * p[a] * p[b]
                    boost[d, d] = ch
                g = g * boost
            knots.append([float(g[k, d] / rk) for k in range(d + 1)])
            frames.append([[float(g[k, a]) for a in range(d)] for k in range(d + 1)])
        return np.array(knots), np.array(frames)


def resolved_velocity_divergence(model, part, inc, x_vector, step):
    """div V (N,) of the chart velocity V = M^{-1} k along increments inc
    (N, n, d), by central differences of size step of V itself, with M
    (full_chart_slopes) and k (roll_lift) rebuilt and V re-solved densely at
    every shifted point."""
    N, n, d = inc.shape
    eye = np.eye(n * d)

    def velocity(z):
        iv = jacobi.Intervals(model, np.ascontiguousarray(z.transpose(1, 2, 0)))
        M = full_chart_slopes(model, iv, eye.reshape(n, d, n * d, 1)).reshape(n * d, n * d, N)
        k = roll_lift(model, part, z, x_vector)[0].reshape(N, n * d)
        return np.linalg.solve(M.transpose(2, 0, 1), k[..., None])[..., 0]

    return sum((velocity(inc + step * e.reshape(n, d)) - velocity(inc - step * e.reshape(n, d)))
               [:, c] / (2 * step) for c, e in enumerate(eye))


def residual_divergence(model, inc, M_inv, x_vector, step):
    """div V (N,) = tr(M^{-1} dk) of the chart velocity V = M^{-1} k at
    increments inc (N, n, d), with M^{-1} (nd, nd, N) there: each column of
    dk is one central difference of size step along one chart axis, and
    each k reruns jacobi.Intervals and the lift over all n intervals of the
    shifted increments."""
    N = inc.shape[0]

    def lift(z):
        iv = jacobi.Intervals(model, np.ascontiguousarray(z.transpose(1, 2, 0)))
        return diagnostics._lift(model, iv, x_vector)[0].reshape(-1, N)

    return _difference_trace(lift, inc, M_inv, step)


def chart_residual_trace(model, inc, velocity, M_inv, step):
    """tr(M^{-1} d(M V)) (N,) with the chart velocity V (nd, N) held at its
    value at increments inc (N, n, d), M^{-1} (nd, nd, N) there: the chart
    part of the residual F = k - M V, whose trace tr(M^{-1} dF) is div V.
    Each column of d(M V) is one central difference of size step along one
    chart axis, and each M V reruns jacobi.Intervals and
    full_chart_slopes over all n intervals of the shifted increments.  In
    exact arithmetic it is 0, which is why the divergence differences the
    lift alone."""
    N, n, d = inc.shape
    held = velocity.reshape(n, d, N)

    def chart(z):
        iv = jacobi.Intervals(model, np.ascontiguousarray(z.transpose(1, 2, 0)))
        return full_chart_slopes(model, iv, held).reshape(-1, N)

    return _difference_trace(chart, inc, M_inv, step)


def _difference_trace(fn, inc, M_inv, step):
    """tr(M^{-1} dfn) (N,) at increments inc (N, n, d) of a map fn from
    increments to (nd, N), each column of dfn one central difference of
    size step along one chart axis."""
    N, n, d = inc.shape
    dfn = np.stack([(fn(inc + step * e.reshape(n, d)) - fn(inc - step * e.reshape(n, d)))
                    / (2 * step) for e in np.eye(n * d)], axis=1)
    return np.einsum("crN,rcN->N", M_inv, dfn)


# ---------------------------------------------------------------------------
# The lift against the null space of the endpoint map
# ---------------------------------------------------------------------------

def full_chart_slopes(model, iv, v):
    """The right-slopes M v (n, d, ..., B) of the field that the chart
    variation along the directions v (n, d, ..., B) induces on the paths
    with Intervals iv (paths.chart_matrix's recursion), the Killing-field
    state carried over every column of v from the first interval on, each
    column's state zero until its source enters: on the identity stack
    np.eye(n d).reshape(n, d, n d, 1) it is M, the reference for
    chart_matrix's start of column (i, a) at interval i."""
    n, d = iv.xi.shape[:2]
    shape = np.broadcast_shapes(v.shape[2:], iv.xi.shape[2:])
    root = np.sqrt(model.kappa)
    out = np.empty((n, d) + shape)
    tau, om = np.zeros((d,) + shape), np.zeros((d, d) + shape)
    for j in range(n):
        p, c, s, vj = iv.unit(j, tau), iv.chm1[j], iv.sh[j], v[j]
        w = np.sum(om * p, axis=1)
        np.add(w * (n / iv.inv[j]), n * vj, out=out[j])
        u = c * w + s * tau
        tau += c * (tau - p * np.sum(p * tau, axis=0)) + s * w
        om += u[:, None] * p - p[:, None] * u
        tau += root * iv.sine(j, vj)
        om += (-c * iv.inv[j]) * (p[:, None] * vj - vj[:, None] * p)
    return out


def endpoint_map_matrix(f_end):
    """(d, n*d) matrix sending stacked slopes to the endpoint value / n;
    f_end (n, d, d) holds f_i(1) (batch_endpoint_f)."""
    n, d = f_end.shape[0], f_end.shape[-1]
    return np.transpose(f_end, (1, 0, 2)).reshape(d, n * d) / n


def lift_orthogonality(f_end, lift_slopes):
    """Residual of the lift against the null space of the endpoint map.

    Returns dict with the worst normalized inner product ("residual"),
    the null-space dimension, and the basis used (stacked slope vectors).
    """
    n, d = f_end.shape[0], f_end.shape[-1]
    basis = null_space(endpoint_map_matrix(f_end))  # (n*d, q), euclidean-ON
    if basis.size == 0:
        return {"residual": 0.0, "null_dim": 0, "basis": basis}
    worst = 0.0
    flat_lift = np.asarray(lift_slopes, dtype=float).reshape(n * d)
    for q in range(basis.shape[1]):
        z = basis[:, q]
        # G1 inner product of slope lists = (euclidean dot) / n
        val = abs(float(flat_lift @ z)) / n
        znorm = float(np.linalg.norm(z)) / np.sqrt(n)
        worst = max(worst, val / znorm)
    return {"residual": worst, "null_dim": basis.shape[1], "basis": basis}


def lift_competitor_deficit(f_end, lift_slopes, count=100, seed=0):
    """Max norm deficit of random same-endpoint competitors vs the lift.

    Competitors are lift + null-space elements; returns min over draws of
    (competitor norm - lift norm), which must be >= -1e-10 when the lift is
    minimal.
    """
    n, d = f_end.shape[0], f_end.shape[-1]
    basis = null_space(endpoint_map_matrix(f_end))
    flat_lift = np.asarray(lift_slopes, dtype=float).reshape(n * d)
    lift_norm = np.linalg.norm(flat_lift) / np.sqrt(n)
    if basis.size == 0:
        return 0.0
    rng = np.random.default_rng(seed)
    worst = np.inf
    for _ in range(count):
        coeffs = rng.standard_normal(basis.shape[1])
        comp = flat_lift + basis @ coeffs
        worst = min(worst, np.linalg.norm(comp) / np.sqrt(n) - lift_norm)
    return float(worst)


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


def one_call_normals(seed, chunk_id, rows, n, d):
    """Rows [0, rows) of the standard-normal block (CHUNK, n, d) of Philox key
    (seed, chunk_id), drawn in one standard_normal call: the draw that
    paths.sample_increments makes in blocks must equal it bit for bit."""
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, chunk_id], dtype=np.uint64)))
    return rng.standard_normal((rows, n, d))
