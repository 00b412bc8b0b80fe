"""Pointwise strain-limiting constitutive law.

Stress from strain:   sigma(eps) = E[eps] / (1 - (b*t)^a)^(1/a),  t = ||E^(1/2)[eps]||
Strain from stress:   eps(sigma) = K[sigma] / (1 + (b*s)^a)^(1/a), s = ||K^(1/2)[sigma]||

The two maps are exact algebraic inverses on the admissible set b*t < 1.
Setting b = 0 recovers classical linear (thermo)elasticity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import hyp2f1

from .errors import InadmissibleStrain, InvalidParameter
from .tensors import (
    Compliance3,
    Stiffness3,
    build_compliance,
    build_stiffness,
    energy_norm_m,
)

# Guard band below the singular surface b*t = 1 of the stress denominator.
DELTA_GUARD = 1e-8


@dataclass(frozen=True)
class MaterialParams:
    """Material constants plus the derived stiffness/compliance pair.

    alpha = alpha_T * (3*lam + 2*mu), kept exactly in the 3D-bulk form the
    governing equations use even though the model is two-dimensional.
    """

    lam: float = 1.0
    mu: float = 1.0
    gamma: float = 1.0
    fiber_angle: float = 0.0
    a: float = 0.5
    b: float = 0.02
    alpha_T: float = 0.01
    k: float = 1.0
    alpha: float = field(init=False)
    E: Stiffness3 = field(init=False, repr=False)
    K: Compliance3 = field(init=False, repr=False)

    def __post_init__(self):
        if self.mu <= 0.0:
            raise InvalidParameter("mu", f"mu={self.mu} must be positive")
        if self.a <= 0.0:
            raise InvalidParameter("a", f"a={self.a} must be positive")
        if self.b < 0.0:
            raise InvalidParameter("b", f"b={self.b} must be nonnegative")
        if self.alpha_T < 0.0:
            raise InvalidParameter("alpha_T", f"alpha_T={self.alpha_T} must be nonnegative")
        if self.k <= 0.0:
            raise InvalidParameter("k", f"k={self.k} must be positive")
        E = build_stiffness(self.lam, self.mu, self.gamma, self.fiber_angle)
        object.__setattr__(self, "E", E)
        object.__setattr__(self, "K", build_compliance(E))
        object.__setattr__(self, "alpha", self.alpha_T * (3.0 * self.lam + 2.0 * self.mu))


def stress_from_strain_m(eps_m: np.ndarray, p: MaterialParams) -> np.ndarray:
    """Vectorized stress law on Mandel vectors, shape (..., 3).

    Raises InadmissibleStrain if any point has b*t >= 1 - DELTA_GUARD.
    """
    eps_m = np.asarray(eps_m, dtype=float)
    lin = eps_m @ p.E.entries  # E symmetric, so right-multiply is fine
    if p.b == 0.0:
        return lin
    t = energy_norm_m(eps_m, p.E.entries)
    bt = p.b * t
    if np.any(bt >= 1.0 - DELTA_GUARD):
        idx = np.unravel_index(int(np.argmax(bt)), np.shape(bt)) if np.ndim(bt) else None
        raise InadmissibleStrain(float(np.max(t)), location=idx)
    phi = (1.0 - bt**p.a) ** (-1.0 / p.a)
    return lin * phi[..., None]


def strain_from_stress_m(sigma_m: np.ndarray, p: MaterialParams) -> np.ndarray:
    """Vectorized strain response on Mandel vectors; defined for every stress."""
    sigma_m = np.asarray(sigma_m, dtype=float)
    lin = sigma_m @ p.K.entries
    if p.b == 0.0:
        return lin
    s = energy_norm_m(sigma_m, p.K.entries)
    psi = (1.0 + (p.b * s) ** p.a) ** (-1.0 / p.a)
    return lin * psi[..., None]


def relaxation_factor_m(t_prev: np.ndarray, p: MaterialParams) -> tuple[np.ndarray, int]:
    """Relaxation multiplier phi(t) = (1 - (b*t)^a)^(-1/a) with clamping.

    Energy norms from intermediate iterates may overshoot the admissible
    set; they are clamped to (1 - DELTA_GUARD)/b so the fixed-point
    iteration stays alive. Returns (phi, number of clamped entries).
    """
    t_prev = np.asarray(t_prev, dtype=float)
    if p.b == 0.0:
        return np.ones_like(t_prev), 0
    t_cap = (1.0 - DELTA_GUARD) / p.b
    clamped = int(np.count_nonzero(t_prev > t_cap))
    t_eff = np.minimum(t_prev, t_cap)
    return (1.0 - (p.b * t_eff) ** p.a) ** (-1.0 / p.a), clamped


def strain_energy_density_m(eps_m: np.ndarray, p: MaterialParams) -> np.ndarray:
    """Hyperelastic energy density W(eps), vectorized over Mandel vectors.

    The radial path integral int_0^1 sigma(s*eps):eps ds collapses to
    int_0^t r*(1-(b*r)^a)^(-1/a) dr with t the energy norm; the substitution
    w = (b*r)^a turns it into 1/2 t^2 2F1(2/a, 1/a; 2/a+1; (b*t)^a).
    """
    eps_m = np.asarray(eps_m, dtype=float)
    t = energy_norm_m(eps_m, p.E.entries)
    if p.b == 0.0:
        return 0.5 * t**2
    if np.any(p.b * t >= 1.0 - DELTA_GUARD):
        raise InadmissibleStrain(float(np.max(t)))
    return 0.5 * t**2 * hyp2f1(2.0 / p.a, 1.0 / p.a, 2.0 / p.a + 1.0, (p.b * t) ** p.a)


def thermal_stress_m(sigma_mech_m: np.ndarray, theta, p: MaterialParams) -> np.ndarray:
    """Total stress sigma_Th = sigma - alpha*theta*I on Mandel vectors."""
    sigma_mech_m = np.asarray(sigma_mech_m, dtype=float)
    out = sigma_mech_m.copy()
    out[..., 0] -= p.alpha * theta
    out[..., 1] -= p.alpha * theta
    return out

