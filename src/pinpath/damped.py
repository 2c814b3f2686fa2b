"""Ricci-damped parallel transport and its mass/field analogues.

On a space of constant sectional curvature -kappa the Ricci operator is
c * Identity with c = kappa (d - 1), so the damped transport equation
T' = -(1/2) Ric T and everything built from it reduce to scalar profiles
times the identity.  These are the continuum counterparts the broken-path
quantities converge to; they are deterministic (path independent).  The
module works with the scalars only; a matrix is its scalar times I_d:

    T(s) = t_profile(c, s)         damped transport; T(s)^{-1} is 1/t
    K(s) = k_profile(c, s)         mass, T_s [int_0^s T_r^{-1} (T_r^{-1})^* dr] T_1^*
    C    = ctilde_scalar(c)        [int_0^1 (T_r^* T_r)^{-1} dr]^{-1} T_1^{-1}
    J(s) = K(s) / K(1) * H         damped field, exactly H at s = 1
    Z(s) = z_profile(c, s)         damped coordinate field along e_alpha
"""

from __future__ import annotations

import numpy as np

from .geom import CurvatureModel


def ric_scalar(model: CurvatureModel) -> float:
    """c = kappa (d - 1): the Ricci eigenvalue."""
    return model.kappa * (model.dim - 1)


def t_profile(c: float, s):
    """T(s) scalar: e^{-cs/2}; s may be an array."""
    return np.exp(-0.5 * c * np.asarray(s, dtype=float))


def k_profile(c: float, s):
    """K(s) scalar: e^{-c(s+1)/2} (e^{cs} - 1)/c, with the flat limit s."""
    s = np.asarray(s, dtype=float)
    if c == 0.0:
        return s.copy() if s.ndim else float(s)
    return np.exp(-0.5 * c * (s + 1.0)) * np.expm1(c * s) / c


def ctilde_scalar(c: float) -> float:
    """C scalar: c e^{c/2} / (e^c - 1), flat limit 1."""
    if c == 0.0:
        return 1.0
    return c * np.exp(0.5 * c) / np.expm1(c)


def z_profile(c: float, s):
    """Z(s) scalar: (2/c) sinh(cs/2), flat limit s."""
    s = np.asarray(s, dtype=float)
    if c == 0.0:
        return s.copy() if s.ndim else float(s)
    return 2.0 / c * np.sinh(0.5 * c * s)
