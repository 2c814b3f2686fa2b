"""Independent numerical oracles used by the test suite.

Everything here is deliberately written against the raw defining ODEs /
closed-form densities, without importing the production solvers, so that
agreement between the two is meaningful.
"""

import numpy as np

from pinpath.geom import minkowski_inner


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


def cs_rk4(kappa, xi, h, steps=2000):
    """(C, S, C', S') for Y'' = A_xi Y with A_xi = kappa(|xi|^2 I - xi xi^T),
    from the first-order system Z' = [[0, I], [A_xi, 0]] Z, Z(0) = I, whose
    solution is Z = [[C, S], [C', S']]."""
    d = len(xi)
    A = kappa * (np.dot(xi, xi) * np.eye(d) - np.outer(xi, xi))
    M = np.block([[np.zeros((d, d)), np.eye(d)], [A, np.zeros((d, d))]])
    Z = rk4(lambda _, z: M @ z, np.eye(2 * d), h, steps)
    return Z[:d, :d], Z[:d, d:], Z[d:, :d], Z[d:, d:]


def broken_jacobi_rk4(kappa, velocities, slopes, steps_per_interval=400):
    """Knot values of the broken Jacobi field: J''=A_xi J on each interval,
    continuous at the knots, right-slope reset to slopes[j] at knot j."""
    n, d = velocities.shape
    h = 1.0 / n
    J = np.zeros(d)
    out = [J.copy()]
    for j in range(n):
        xi = velocities[j]
        A = kappa * (np.dot(xi, xi) * np.eye(d) - np.outer(xi, xi))

        def rhs(_, y, A=A):
            return np.concatenate([y[d:], A @ y[:d]])

        y = rk4(rhs, np.concatenate([J, slopes[j]]), h, steps_per_interval)
        J = y[:d]
        out.append(J.copy())
    return np.array(out)


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
