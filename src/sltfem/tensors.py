"""Mandel-vector algebra for symmetric 2x2 tensors and 4th-order operators.

A symmetric 2x2 tensor t is stored as the orthonormal Mandel vector
(t11, t22, sqrt(2)*t12), so the Frobenius inner product of tensors equals
the Euclidean dot product of their vectors, and the fourth-order stiffness
becomes a symmetric 3x3 matrix whose square root is well defined.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NotPositiveDefinite

SQRT2 = np.sqrt(2.0)

# Mandel vector of the 2x2 identity
IDENTITY_M = np.array([1.0, 1.0, 0.0])


@dataclass(frozen=True)
class Stiffness3:
    """Fourth-order stiffness operator as a symmetric 3x3 Mandel matrix, the
    law's only checked operator. entries become read-only and symmetrized:
    ValueError unless 3x3 and symmetric to 1e-12 relative,
    NotPositiveDefinite unless SPD."""

    entries: np.ndarray = field(repr=False)

    def __post_init__(self):
        mat = np.asarray(self.entries, dtype=float)
        if mat.shape != (3, 3):
            raise ValueError(f"Stiffness3 expects a 3x3 matrix, got shape {mat.shape}")
        if not np.allclose(mat, mat.T, rtol=0.0, atol=1e-12 * abs(mat).max()):
            raise ValueError("Stiffness3 must be symmetric")
        mat = 0.5 * (mat + mat.T)
        mat.setflags(write=False)
        object.__setattr__(self, "entries", mat)
        eigmin = float(np.linalg.eigvalsh(mat).min())
        if eigmin <= 0.0:
            raise NotPositiveDefinite(f"stiffness: smallest eigenvalue {eigmin:.6g} <= 0")


def structural_mandel(fiber_angle: float) -> np.ndarray:
    """Mandel vector of the structural tensor m (x) m for a unit fiber m."""
    c, s = np.cos(fiber_angle), np.sin(fiber_angle)
    return np.array([c * c, s * s, SQRT2 * c * s])


def build_stiffness(lam: float, mu: float, gamma: float, fiber_angle: float = 0.0) -> Stiffness3:
    """Transversely isotropic stiffness 2*mu*eps + lam*tr(eps)*I + gamma*(eps:M)*M.

    Raises NotPositiveDefinite if the parameter set (e.g. a too-negative
    gamma) breaks positive definiteness.
    """
    if mu <= 0.0:
        raise NotPositiveDefinite(f"mu={mu} must be positive")
    v_m = structural_mandel(fiber_angle)
    mat = 2.0 * mu * np.eye(3) + lam * np.outer(IDENTITY_M, IDENTITY_M) + gamma * np.outer(v_m, v_m)
    return Stiffness3(mat)


def energy_norm_m(eps_m: np.ndarray, E_mat: np.ndarray) -> np.ndarray:
    """sqrt(eps : E[eps]) for an array of Mandel vectors, shape (..., 3)."""
    eps_m = np.asarray(eps_m, dtype=float)
    q = np.sum((eps_m @ E_mat) * eps_m, axis=-1)
    return np.sqrt(np.maximum(q, 0.0))

