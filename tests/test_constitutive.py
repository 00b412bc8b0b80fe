import itertools

import numpy as np
import pytest

from sltfem import (
    InadmissibleStrain,
    MaterialParams,
    energy_norm_m,
    relaxation_factor_m,
    strain_energy_density_m,
    strain_from_stress_m,
    stress_from_strain_m,
    thermal_stress_m,
)


def make_params(**kw):
    defaults = dict(lam=1.0, mu=1.0, gamma=1.0, fiber_angle=0.0,
                    a=0.5, b=0.02, alpha_T=0.01, k=1.0)
    defaults.update(kw)
    return MaterialParams(**defaults)


def random_admissible(rng, p, n, bt_max=0.9):
    """Mandel strains with b*t <= bt_max."""
    eps = rng.normal(size=(n, 3))
    t = energy_norm_m(eps, p.E.entries)
    target = rng.uniform(0.0, bt_max, size=n) / p.b
    return eps * (target / t)[:, None]


class TestMaterialParams:
    def test_derived_alpha(self):
        p = make_params(lam=1.0, mu=1.0, alpha_T=0.1)
        assert p.alpha == pytest.approx(0.5)

    def test_compliance_inverse(self):
        p = make_params()
        assert np.allclose(np.linalg.inv(p.E.entries) @ p.E.entries, np.eye(3), atol=1e-12)

    def test_every_spd_material_constructs_and_round_trips(self):
        # A fiber term that dominates shear leaves E^-1 asymmetric by more
        # than 1e-12 relative in rounding; no check of E^-1 may reject it.
        rng = np.random.default_rng(9)
        eps64 = np.finfo(float).eps
        for lam, mu, gamma, angle in itertools.product(
                (1e-3, 1.0, 1e3, 1e6), (1e-3, 1.0, 1e3), (0.0, 1.0, 1e2, 1e3, 1e4, 1e5, 1e6),
                np.linspace(0.0, np.pi, 13)):
            p = make_params(lam=lam, mu=mu, gamma=gamma, fiber_angle=angle)
            sig = rng.normal(size=(20, 3))
            s = energy_norm_m(sig, np.linalg.inv(p.E.entries))
            sig *= (rng.uniform(0.0, 3.0, size=20) / (p.b * s))[:, None]   # b*s up to 3
            back = stress_from_strain_m(strain_from_stress_m(sig, p), p)
            err = np.linalg.norm(back - sig, axis=1) / np.linalg.norm(sig, axis=1)
            assert err.max() <= 100.0 * eps64 * np.linalg.cond(p.E.entries), (lam, mu, gamma, angle)

    def test_invalid_params_rejected(self):
        for kw in (dict(mu=-1.0), dict(a=0.0), dict(b=-0.1), dict(k=0.0),
                   dict(alpha_T=-1.0)):
            with pytest.raises(ValueError):
                make_params(**kw)


class TestStressFromStrain:
    def test_linear_limit(self):
        p = make_params(b=0.0)
        eps = np.array([0.3, -0.1, 0.2])
        assert np.allclose(stress_from_strain_m(eps, p), p.E.entries @ eps)

    def test_zero_strain(self):
        p = make_params()
        assert np.linalg.norm(stress_from_strain_m(np.zeros(3), p)) == 0.0

    def test_scalar_example(self):
        # E = I, a=1, b=0.5, eps=(1,0,0): t=1, phi=(1-0.5)^-1=2
        p = make_params(lam=0.0, mu=0.5, gamma=0.0, a=1.0, b=0.5)
        sig = stress_from_strain_m(np.array([1.0, 0.0, 0.0]), p)
        assert np.allclose(sig, [2.0, 0.0, 0.0])

    def test_inadmissible_raises(self):
        p = make_params(a=1.0, b=1.0, lam=0.0, mu=0.5, gamma=0.0)
        with pytest.raises(InadmissibleStrain):
            stress_from_strain_m(np.array([1.0, 0.0, 0.0]), p)

    def test_linear_consistency_small_b(self):
        # at a=1 the relative perturbation is ~b*t = O(1e-14)
        rng = np.random.default_rng(0)
        eps = rng.normal(size=(100, 3))
        s0 = stress_from_strain_m(eps, make_params(a=1.0, b=0.0))
        s1 = stress_from_strain_m(eps, make_params(a=1.0, b=1e-14))
        assert np.allclose(s0, s1, rtol=1e-10)


class TestStrainFromStress:
    def test_zero(self):
        p = make_params()
        assert np.linalg.norm(strain_from_stress_m(np.zeros(3), p)) == 0.0

    def test_linear_limit(self):
        p = make_params(b=0.0)
        sig = np.array([2.0, 1.0, -0.5])
        assert np.allclose(strain_from_stress_m(sig, p), np.linalg.inv(p.E.entries) @ sig)

    def test_round_trip(self):
        rng = np.random.default_rng(1)
        p = make_params()
        eps = random_admissible(rng, p, 1000)
        back = strain_from_stress_m(stress_from_strain_m(eps, p), p)
        assert np.allclose(back, eps, rtol=1e-12, atol=1e-14)

    def test_boundedness_energy_norm(self):
        rng = np.random.default_rng(2)
        for b in (0.01, 0.1, 1.0):
            p = make_params(b=b)
            sig = rng.normal(size=(10_000, 3)) * rng.uniform(1, 1e6, (10_000, 1))
            eps = strain_from_stress_m(sig, p)
            t = energy_norm_m(eps, p.E.entries)
            assert np.all(t < 1.0 / b)

    def test_strict_monotonicity(self):
        rng = np.random.default_rng(3)
        for a in (0.5, 1.0, 2.0):
            for b in (0.01, 0.1, 1.0):
                p = make_params(a=a, b=b)
                s1 = rng.normal(size=(10_000, 3)) * rng.uniform(0.1, 100, (10_000, 1))
                s2 = rng.normal(size=(10_000, 3)) * rng.uniform(0.1, 100, (10_000, 1))
                d_eps = strain_from_stress_m(s1, p) - strain_from_stress_m(s2, p)
                pairing = np.einsum("ni,ni->n", d_eps, s1 - s2)
                assert np.all(pairing > 0)

    def test_lipschitz_sampling(self):
        rng = np.random.default_rng(4)
        p = make_params()
        s1 = rng.normal(size=(10_000, 3)) * rng.uniform(0.1, 1e4, (10_000, 1))
        s2 = s1 + rng.normal(size=(10_000, 3)) * rng.uniform(1e-6, 10, (10_000, 1))
        num = np.linalg.norm(strain_from_stress_m(s1, p) - strain_from_stress_m(s2, p), axis=1)
        den = np.linalg.norm(s1 - s2, axis=1)
        ratio = num / den
        assert np.all(np.isfinite(ratio))
        # K has max eigenvalue < 1; the ratio must stay of that order
        assert ratio.max() < 10.0

    def test_weak_coercivity(self):
        # F(A):A > 0 for A != 0 (quantified coercivity constant unavailable)
        rng = np.random.default_rng(5)
        p = make_params()
        sig = rng.normal(size=(1000, 3)) * rng.uniform(0.1, 1e3, (1000, 1))
        pairing = np.einsum("ni,ni->n", strain_from_stress_m(sig, p), sig)
        assert np.all(pairing > 0)


class TestRelaxationFactor:
    def test_zero_strain(self):
        phi, _ = relaxation_factor_m(0.0, make_params())
        assert float(phi) == 1.0

    def test_b_zero(self):
        phi, _ = relaxation_factor_m(123.0, make_params(b=0.0))
        assert float(phi) == 1.0

    def test_scalar_example(self):
        p = make_params(a=1.0, b=0.02)
        phi, _ = relaxation_factor_m(25.0, p)
        assert float(phi) == pytest.approx(2.0)

    def test_clamps_instead_of_failing(self):
        p = make_params(a=1.0, b=0.02)
        phi, clamps = relaxation_factor_m(1e6, p)  # far beyond the admissible set
        assert clamps == 1
        assert np.isfinite(phi)
        assert phi >= 1.0


class TestStrainEnergyDensity:
    def test_zero(self):
        assert strain_energy_density_m(np.zeros(3), make_params()) == 0.0

    def test_linear_limit(self):
        p = make_params(b=0.0)
        eps = np.array([0.2, -0.1, 0.05])
        expected = 0.5 * eps @ p.E.entries @ eps
        assert float(strain_energy_density_m(eps, p)) == pytest.approx(expected, abs=1e-10)

    def test_nonnegative(self):
        rng = np.random.default_rng(6)
        p = make_params()
        for _ in range(50):
            eps = rng.normal(size=3)
            assert strain_energy_density_m(eps, p) >= 0.0

    def test_gradient_matches_stress(self):
        rng = np.random.default_rng(7)
        p = make_params()
        h = 1e-5
        for _ in range(100):
            eps = rng.normal(size=3)
            delta = rng.normal(size=3)
            delta /= np.linalg.norm(delta)
            wp = float(strain_energy_density_m(eps + h * delta, p))
            wm = float(strain_energy_density_m(eps - h * delta, p))
            fd = (wp - wm) / (2 * h)
            sig = stress_from_strain_m(eps, p)
            assert fd == pytest.approx(float(sig @ delta), rel=1e-6, abs=1e-8)

    def test_inadmissible_names_the_point_stress_names(self):
        p = make_params(a=1.0, b=1.0, lam=0.0, mu=0.5, gamma=0.0)   # E = I, t = |eps|
        eps = np.zeros((2, 4, 3))
        eps[1, 2] = [2.0, 0.0, 0.0]   # the largest t
        eps[0, 3] = [1.5, 0.0, 0.0]
        for law in (stress_from_strain_m, strain_energy_density_m):
            with pytest.raises(InadmissibleStrain, match="t=2 violates") as raised:
                law(eps, p)
            assert raised.value.t == 2.0 and raised.value.location == (1, 2)


class TestThermalStress:
    def test_zero_theta(self):
        p = make_params()
        sig = np.array([1.0, 2.0, 3.0])
        assert np.array_equal(thermal_stress_m(sig, 0.0, p), sig)

    def test_pure_thermal(self):
        p = make_params(lam=0.2, mu=0.2, alpha_T=1.0)  # alpha = 1.0
        out = thermal_stress_m(np.zeros(3), 2.0, p)
        assert np.allclose(out, [-2.0, -2.0, 0.0])

    def test_derived_alpha_substitution(self):
        p = make_params(lam=1.0, mu=1.0, alpha_T=0.1)  # alpha = 0.5
        out = thermal_stress_m(np.zeros(3), 10.0, p)
        assert np.allclose(out, [-5.0, -5.0, 0.0])
