"""Ricci-damped parallel transport and its mass/field analogues.

On a space of constant sectional curvature -kappa the Ricci operator is
c * Identity with c = kappa (d - 1), so the damped transport equation
T' = -(1/2) Ric T and everything built from it reduce to scalar profiles
times the identity.  These are the continuum counterparts the broken-path
quantities converge to; they are deterministic (path independent) and are
computed once per (model, grid).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geom import CurvatureModel
from .jacobi import Partition


def _ric_scalar(model: CurvatureModel) -> float:
    """c = kappa (d - 1): the Ricci eigenvalue."""
    return model.kappa * (model.dim - 1)


def _t_profile(c: float, s):
    return np.exp(-0.5 * c * np.asarray(s, dtype=float))


def _k_profile(c: float, s):
    """K(s) scalar: e^{-c(s+1)/2} (e^{cs} - 1)/c, with the flat limit s."""
    s = np.asarray(s, dtype=float)
    if c == 0.0:
        return s.copy() if s.ndim else float(s)
    return np.exp(-0.5 * c * (s + 1.0)) * np.expm1(c * s) / c


def _ctilde_scalar(c: float) -> float:
    """C scalar: c e^{c/2} / (e^c - 1), flat limit 1."""
    if c == 0.0:
        return 1.0
    return c * np.exp(0.5 * c) / np.expm1(c)


def _z_profile(c: float, s):
    """Z(s) scalar: (2/c) sinh(cs/2), flat limit s."""
    s = np.asarray(s, dtype=float)
    if c == 0.0:
        return s.copy() if s.ndim else float(s)
    return 2.0 / c * np.sinh(0.5 * c * s)


def damped_T(model: CurvatureModel, s) -> np.ndarray:
    """Damped transport matrix T(s) = e^{-c s / 2} I; s may be an array."""
    c = _ric_scalar(model)
    prof = np.asarray(_t_profile(c, s), dtype=float)
    return prof[..., None, None] * np.eye(model.dim)


def damped_T_inv(model: CurvatureModel, s) -> np.ndarray:
    c = _ric_scalar(model)
    prof = np.asarray(_t_profile(c, s), dtype=float)
    return (1.0 / prof)[..., None, None] * np.eye(model.dim)


def damped_K(model: CurvatureModel, s) -> np.ndarray:
    """Damped mass matrix K(s) = T_s [int_0^s T_r^{-1} (T_r^{-1})^* dr] T_1^*."""
    c = _ric_scalar(model)
    prof = np.asarray(_k_profile(c, s), dtype=float)
    return prof[..., None, None] * np.eye(model.dim)


def ctilde(model: CurvatureModel) -> np.ndarray:
    """C = [int_0^1 (T_r^* T_r)^{-1} dr]^{-1} T_1^{-1}; equals K_1^{-1} T_1^*."""
    return _ctilde_scalar(_ric_scalar(model)) * np.eye(model.dim)


def damped_J(model: CurvatureModel, s, H) -> np.ndarray:
    """Damped field J(s) = K(s) K(1)^{-1} H; exactly H at s = 1."""
    c = _ric_scalar(model)
    H = np.asarray(H, dtype=float)
    prof = np.asarray(_k_profile(c, s), dtype=float) / _k_profile(c, 1.0)
    return prof[..., None] * H


def z_alpha(model: CurvatureModel, s, alpha: int | None = None):
    """Damped coordinate field profile (2/c) sinh(cs/2) (flat: s).

    With alpha given, returns the vector profile along e_alpha; otherwise the
    scalar profile.
    """
    c = _ric_scalar(model)
    prof = _z_profile(c, s)
    if alpha is None:
        return prof
    e = np.zeros(model.dim)
    e[alpha] = 1.0
    return np.asarray(prof, dtype=float)[..., None] * e


@dataclass(frozen=True)
class DampedTransport:
    """Precomputed damped quantities on a fixed time grid.

    grid : (m+1,) times in [0, 1]; partition knots refined by an integer factor
    T, Tinv, K : (m+1, d, d) profiles at the grid times
    Ctilde : (d, d)
    """

    model: CurvatureModel
    grid: np.ndarray
    T: np.ndarray
    Tinv: np.ndarray
    K: np.ndarray
    Ctilde: np.ndarray

    @classmethod
    def build(cls, model: CurvatureModel, partition: Partition,
              refine: int = 4) -> "DampedTransport":
        if refine < 1:
            raise ValueError("refine must be >= 1")
        m = partition.n * refine
        grid = np.arange(m + 1) / m
        return cls(model, grid, damped_T(model, grid), damped_T_inv(model, grid),
                   damped_K(model, grid), ctilde(model))

    @property
    def partition(self) -> Partition:
        """The grid as a partition; its knot_index looks up a grid time."""
        return Partition(len(self.grid) - 1)
