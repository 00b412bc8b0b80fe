from types import SimpleNamespace

import numpy as np
import pytest

from sltfem import (
    MaterialParams,
    NotPositiveDefinite,
    Stiffness3,
    build_stiffness,
    energy_norm_m,
    strain_from_stress_m,
)
from sltfem.postprocess import _principal_values
from sltfem.tensors import SQRT2, structural_mandel


def random_sym(rng, scale=1.0):
    return rng.normal(scale=scale, size=3)


def to_matrix(m):
    """The symmetric 2x2 tensor of a Mandel vector (t11, t22, sqrt(2)*t12)."""
    off = m[2] / SQRT2
    return np.array([[m[0], off], [off, m[1]]])


class TestMandelVector:
    def test_frobenius_equals_mandel_norm(self):
        rng = np.random.default_rng(7)
        for _ in range(10_000):
            m = rng.normal(size=3)
            frob = np.sqrt(np.sum(to_matrix(m) ** 2))
            assert abs(frob - np.linalg.norm(m)) <= 1e-14 * max(1.0, frob)

    def test_double_contraction_is_dot(self):
        rng = np.random.default_rng(8)
        for _ in range(1000):
            a = random_sym(rng)
            b = random_sym(rng)
            ab = np.sum(to_matrix(a) * to_matrix(b))
            assert ab == pytest.approx(float(a @ b), rel=1e-13, abs=1e-13)

    def test_principal_values(self):
        # [[2, 1], [1, 2]] in Mandel form
        pmax, pmin = _principal_values(np.array([2.0, 2.0, SQRT2]))
        assert pmax == pytest.approx(3.0)
        assert pmin == pytest.approx(1.0)


class TestBuildStiffness:
    def test_identity_case(self):
        E = build_stiffness(lam=0.0, mu=0.5, gamma=0.0, fiber_angle=0.3)
        assert np.allclose(E.entries, np.eye(3))

    def test_isotropic_on_identity_strain(self):
        E = build_stiffness(lam=1.0, mu=1.0, gamma=0.0)
        sig = E.entries @ np.array([1.0, 1.0, 0.0])
        assert np.allclose(sig, [4.0, 4.0, 0.0])

    def test_fiber_term(self):
        # 2*eps + tr(eps)*I + (eps:M)*M with eps = e1(x)e1, m = e1
        E = build_stiffness(lam=1.0, mu=1.0, gamma=1.0, fiber_angle=0.0)
        sig = E.entries @ np.array([1.0, 0.0, 0.0])
        assert np.allclose(sig, [4.0, 1.0, 0.0])

    def test_gamma_zero_matches_lame_componentwise(self):
        rng = np.random.default_rng(11)
        E = build_stiffness(lam=1.3, mu=0.8, gamma=0.0)
        for _ in range(200):
            eps = random_sym(rng)
            t = to_matrix(eps)
            expected = 2 * 0.8 * t + 1.3 * np.trace(t) * np.eye(2)
            assert np.allclose(to_matrix(E.entries @ eps), expected, atol=1e-13)

    def test_rejects_non_spd(self):
        with pytest.raises(NotPositiveDefinite):
            build_stiffness(lam=1.0, mu=1.0, gamma=-10.0)
        with pytest.raises(NotPositiveDefinite):
            build_stiffness(lam=1.0, mu=-1.0, gamma=0.0)
        # mu = 0 leaves a rounding-sized smallest eigenvalue (+5.4e-14) that
        # the eigenvalue test alone accepts; the mu check rejects it.
        with pytest.raises(NotPositiveDefinite, match="mu=0.0"):
            build_stiffness(lam=1e-3, mu=0.0, gamma=1e3, fiber_angle=0.7)

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefinite, match="^stiffness: smallest eigenvalue -1 <= 0$"):
            Stiffness3(np.diag([1.0, -1.0, 1.0]))

    def test_fiber_angle_rotation(self):
        # m = e2: structural Mandel vector is (0, 1, 0)
        assert np.allclose(structural_mandel(np.pi / 2), [0.0, 1.0, 0.0], atol=1e-15)


class TestBuildCompliance:
    """The compliance E^-1 that strain_from_stress_m forms from p.E.entries:
    at b = 0 it maps sigma to E^-1 sigma."""

    @staticmethod
    def linear_strain(E, sigma):
        # strain_from_stress_m reads p.E and p.b alone, so E need not come
        # from a Lame triple
        return strain_from_stress_m(sigma, SimpleNamespace(E=E, b=0.0))

    def test_identity(self):
        sigma = np.array([1.0, -2.0, 0.5])
        assert np.allclose(self.linear_strain(Stiffness3(np.eye(3)), sigma), sigma)

    def test_diagonal(self):
        eps = self.linear_strain(Stiffness3(np.diag([4.0, 1.0, 2.0])), np.eye(3))
        assert np.allclose(eps, np.diag([0.25, 1.0, 0.5]))

    def test_product_is_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            lam, mu = rng.uniform(0.1, 5.0, size=2)
            gamma = rng.uniform(-0.5 * mu, 5.0)
            phi = rng.uniform(0, np.pi)
            try:
                p = MaterialParams(lam=lam, mu=mu, gamma=gamma, fiber_angle=phi, b=0.0)
            except NotPositiveDefinite:
                continue
            # rows of E are stresses whose strains are the unit vectors
            assert np.allclose(strain_from_stress_m(p.E.entries, p), np.eye(3), atol=1e-12)

    @pytest.mark.parametrize("cls", [Stiffness3])
    def test_rejects_other_shapes(self, cls):
        with pytest.raises(ValueError, match="^Stiffness3 expects a 3x3 matrix, got shape"):
            cls(np.eye(2))

    @pytest.mark.parametrize("cls", [Stiffness3])
    def test_rejects_asymmetry(self, cls):
        mat = np.eye(3)
        mat[0, 1] = 0.1
        with pytest.raises(ValueError, match="^Stiffness3 must be symmetric$"):
            cls(mat)
        # asymmetry within 1e-12 of the largest entry is averaged away
        mat[0, 1] = 1e-13
        np.testing.assert_array_equal(cls(mat).entries, cls(mat).entries.T)


class TestEnergyNorm:
    def test_zero(self):
        E = build_stiffness(1.0, 1.0, 1.0)
        assert energy_norm_m(np.zeros(3), E.entries) == 0.0

    def test_identity_reduces_to_frobenius(self):
        E = Stiffness3(np.eye(3))
        assert energy_norm_m(np.array([3.0, 4.0, 0.0]), E.entries) == pytest.approx(5.0)

    def test_diagonal_quadratic_form(self):
        E = Stiffness3(np.diag([4.0, 1.0, 2.0]))
        assert energy_norm_m(np.ones(3), E.entries) == pytest.approx(np.sqrt(7.0))

    def test_squared_norm_is_quadratic_form(self):
        rng = np.random.default_rng(5)
        E = build_stiffness(1.0, 1.0, 1.0, 0.4)
        for _ in range(1000):
            eps = random_sym(rng, scale=3.0)
            q = float(eps @ (E.entries @ eps))
            assert float(energy_norm_m(eps, E.entries)) ** 2 == pytest.approx(q, rel=1e-12)

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(6)
        E = build_stiffness(2.0, 0.5, 1.5, 1.0)
        eps = rng.normal(size=(50, 3))
        batch = energy_norm_m(eps, E.entries)
        for m, t in zip(eps, batch):
            assert energy_norm_m(m, E.entries) == pytest.approx(t)
