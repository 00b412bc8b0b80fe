import itertools
import weakref
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import sltfem.solver
from sltfem import (
    InadmissibleStrain,
    MaterialParams,
    SolverBreakdown,
    build_cracked_grid,
    build_grid,
)
from sltfem.assembly import (
    AssemblyPlan,
    FEField,
    FESpace,
    LinearSystem,
    MechanicalBC,
    ThermalBC,
    assemble_thermal,
    l2_norm,
    strains_at_qps,
    thermal_load,
)
from sltfem.constitutive import stress_from_strain_m
from sltfem.mesh import GAMMA1, GAMMA2, GAMMA4
from sltfem.solver import (
    PicardConfig,
    Preconditioner,
    SolveReport,
    build_setup,
    linear_solve,
    newton_solve,
    solve_thermal,
)
from sltfem.tensors import energy_norm_m

from mechanics import mechanical, newton, picard
from reference_geometry import bilinear_geometry


def make_params(**kw):
    defaults = dict(lam=1.0, mu=1.0, gamma=1.0, fiber_angle=0.0,
                    a=0.5, b=0.02, alpha_T=0.01, k=1.0)
    defaults.update(kw)
    return MaterialParams(**defaults)


def cracked_setup(n=4, order=2, Q=100.0, **paramkw):
    mesh = build_cracked_grid(n, n)
    p = make_params(**paramkw)
    theta_space = FESpace(mesh, order=order)
    theta = solve_thermal(theta_space, p, Q_source=Q, bc=ThermalBC(value=100.0))
    u_space = FESpace(mesh, order=order, components=2)
    return u_space, p, theta


def internal_force(u, p):
    """F_int = sum_q B^T sigma detJ w over all dofs, reaction rows included."""
    space = u.space
    _, detJxW, B = bilinear_geometry(space)
    u_local = u.element_values().reshape(space.mesh.n_elements, -1)
    sigma = stress_from_strain_m(np.einsum("eqim,em->eqi", B, u_local), p)
    f_local = np.einsum("eqim,eqi->em", B, sigma * detJxW[..., None])
    dofs = space.vector_dofs(space.element_dofs).ravel()
    return np.bincount(dofs, weights=f_local.ravel(), minlength=space.n_dofs)


def free_residual(u, p, theta, bc):
    """f - F_int(u) on the free dofs, and the free-dof mask."""
    space = u.space
    free = ~AssemblyPlan(space, bc).fixed
    return (thermal_load(space, p, theta) - internal_force(u, p))[free], free


class TestPicardConfig:
    def test_defaults(self):
        cfg = PicardConfig()
        assert cfg.tol == 1e-8 and cfg.max_iter == 100 and cfg.damping == 1.0

    @pytest.mark.parametrize("kw", [dict(tol=0.0), dict(max_iter=0),
                                    dict(damping=0.0), dict(damping=1.5)])
    def test_validation(self, kw):
        with pytest.raises(ValueError):
            PicardConfig(**kw)


class TestLinearSolve:
    def test_identity(self):
        rng = np.random.default_rng(3)
        b = rng.normal(size=10)
        sys = LinearSystem(sp.identity(10, format="csr"), b)
        np.testing.assert_allclose(linear_solve(sys), b, atol=1e-14)

    def test_hand_eliminated_2x2(self):
        A = sp.csr_matrix(np.array([[4.0, 1.0], [1.0, 3.0]]))
        x = linear_solve(LinearSystem(A, np.array([1.0, 2.0])))
        np.testing.assert_allclose(x, [1 / 11, 7 / 11], rtol=1e-14)

    def test_constant_thermal_system(self):
        mesh = build_cracked_grid(4, 4)
        theta = solve_thermal(FESpace(mesh, order=2), make_params(),
                              Q_source=0.0, bc=ThermalBC(value=42.0))
        np.testing.assert_allclose(theta.values, 42.0, atol=1e-10)

    def test_residual_contract(self):
        space, p, theta = cracked_setup(8)
        sys, _ = mechanical(space, p, theta, FEField.zero(space), MechanicalBC())
        x = linear_solve(sys)
        res = np.linalg.norm(sys.matrix @ x - sys.rhs) / np.linalg.norm(sys.rhs)
        assert res <= 1e-12

    def test_mismatched_factor_falls_back_to_a_fresh_one(self):
        space, p, theta = cracked_setup(8)
        sys, _ = mechanical(space, p, theta, FEField.zero(space), MechanicalBC())
        stale = spla.splu(sp.identity(sys.rhs.size, format="csc"))
        precond = Preconditioner(stale)
        report = SolveReport()
        x = linear_solve(sys, report, precond=precond)
        res = np.linalg.norm(sys.matrix @ x - sys.rhs) / np.linalg.norm(sys.rhs)
        assert res <= 1e-12
        assert report.factorizations == 1
        assert precond.lu is not None and precond.lu is not stale
        # The fresh factor is the preconditioner of the next solve.
        x2 = linear_solve(sys, report, x0=np.zeros_like(x), precond=precond)
        assert report.factorizations == 1
        assert np.linalg.norm(sys.matrix @ x2 - sys.rhs) <= 1e-12 * np.linalg.norm(sys.rhs)

    @staticmethod
    def _plate_systems(**paramkw):
        """The b = 0 system of the 8x8 cracked plate and the Newton system at its solution."""
        space, p, theta = cracked_setup(8, **paramkw)
        bc = MechanicalBC()
        sys0, _ = mechanical(space, replace(p, b=0.0), theta, FEField.zero(space), bc)
        u0 = FEField(space, linear_solve(sys0))
        sys1, _ = mechanical(space, p, theta, u0, bc, tangent=True)
        return sys0, sys1, u0.values

    @staticmethod
    def _assert_checked(sys, x, report):
        _, res, floor = sltfem.solver._Residual(sys.matrix.tocsr(), sys.rhs)(x)
        assert report.linear_solve_stats[-1] == res
        assert sltfem.solver._meets_contract(res, floor)

    def test_returns_the_checked_iterate(self):
        sys0, sys1, u0 = self._plate_systems()
        precond, report = Preconditioner(), SolveReport()
        x = linear_solve(sys0, report, precond=precond)   # fresh
        self._assert_checked(sys0, x, report)
        x = linear_solve(sys1, report, x0=u0, precond=precond)   # held
        self._assert_checked(sys1, x, report)
        assert report.factorizations == 1
        identity = spla.splu(sp.identity(sys1.rhs.size, format="csc"))
        x = linear_solve(sys1, report, x0=u0, precond=Preconditioner(identity))   # fallback
        self._assert_checked(sys1, x, report)
        assert report.factorizations == 2

    @staticmethod
    def _rise_on_second_pass(monkeypatch, runs=1):
        """Relative residuals 1, 1e-6 and 1e-3 for each of the first runs
        triples of checks of a solve: the second pass of each of its first
        runs CG runs makes the residual worse."""
        call = sltfem.solver._Residual.__call__
        script = [1.0, 1e-6, 1e-3] * runs

        def scripted(self, x):
            r, res, floor = call(self, x)
            return r, (script.pop(0) if script else res), floor

        monkeypatch.setattr(sltfem.solver._Residual, "__call__", scripted)
        return script

    def test_rising_residual_on_a_held_factor_falls_back(self, monkeypatch):
        sys0, sys1, u0 = self._plate_systems()
        precond = Preconditioner()
        linear_solve(sys0, precond=precond)
        script = self._rise_on_second_pass(monkeypatch)
        splu = spla.splu

        def splu_after_the_rise(*args, **kwargs):
            assert not script   # the held factor's CG saw all three checks
            return splu(*args, **kwargs)

        monkeypatch.setattr(sltfem.solver.spla, "splu", splu_after_the_rise)
        report = SolveReport()
        x = linear_solve(sys1, report, x0=u0, precond=precond)
        assert report.factorizations == 1
        self._assert_checked(sys1, x, report)

    def test_rising_residual_on_a_fresh_factor_raises(self, monkeypatch):
        sys0, _, _ = self._plate_systems()
        script = self._rise_on_second_pass(monkeypatch, runs=2)   # float32, then float64
        precond = Preconditioner()
        with pytest.raises(SolverBreakdown, match="exceeds"):
            linear_solve(sys0, precond=precond)
        assert not script
        assert precond.lu is None

    def test_fresh_factor_is_float32_and_meets_the_contract(self):
        sys0, _, _ = self._plate_systems()
        space = FESpace(build_cracked_grid(8, 8), order=2)
        thermal = assemble_thermal(space, make_params(), 100.0, ThermalBC(value=100.0))
        for sys in (thermal, sys0):
            precond, report = Preconditioner(), SolveReport()
            x = linear_solve(sys, report, precond=precond)
            assert precond.lu.dtype is np.float32 and report.factorizations == 1
            self._assert_checked(sys, x, report)

    def test_missed_float32_factor_falls_back_to_float64(self, monkeypatch):
        sys0, _, _ = self._plate_systems()
        splu, factors = spla.splu, []

        class Factor:   # a SuperLU that can be weakly referenced
            def __init__(self, lu):
                self.lu = lu

            def solve(self, rhs):
                return self.lu.solve(rhs)

        def recording(A, **kwargs):
            assert all(ref() is None for ref in factors)   # one LU alive at a time
            factor = Factor(splu(A, **kwargs))
            factors.append(weakref.ref(factor))
            return factor

        monkeypatch.setattr(sltfem.solver.spla, "splu", recording)
        script = self._rise_on_second_pass(monkeypatch)
        precond, report = Preconditioner(), SolveReport()
        x = linear_solve(sys0, report, precond=precond)
        assert not script and len(factors) == 2
        assert report.factorizations == 2 and precond.lu.dtype is np.float64
        self._assert_checked(sys0, x, report)

    @pytest.mark.parametrize("failure", ["splu raises", "non-finite solve"])
    def test_failed_float32_factor_falls_back_to_float64(self, monkeypatch, failure):
        sys0, _, _ = self._plate_systems()
        splu = spla.splu

        class NaNFactor:
            def solve(self, rhs):
                return np.full_like(rhs, np.nan)

        def failing(A, **kwargs):
            if A.dtype != np.float32:
                return splu(A, **kwargs)
            if failure == "splu raises":
                raise RuntimeError("Factor is exactly singular")
            return NaNFactor()

        monkeypatch.setattr(sltfem.solver.spla, "splu", failing)
        precond, report = Preconditioner(), SolveReport()
        x = linear_solve(sys0, report, precond=precond)
        assert precond.lu.dtype is np.float64
        assert report.factorizations == (1 if failure == "splu raises" else 2)
        self._assert_checked(sys0, x, report)

    def test_early_give_up_judges_by_the_target(self):
        # The b = 0 factor preconditions the a = 0.1 tangent slowly: CG reaches
        # 1e-2 in about 20 steps, and its rate would need far more than the
        # budget to reach 1e-12.
        sys0, sys1, _ = self._plate_systems(a=0.1)
        lu = sltfem.solver._factor(sys0.matrix.tocsr(), np.float64)
        report = SolveReport()
        x = linear_solve(sys1, report, precond=Preconditioner(lu), tol=1e-2)
        A = sys1.matrix.tocsr()
        assert report.factorizations == 0 and report.refine_steps[0] > 10
        # the 1e-2 target is met by the residual of the returned x
        assert sltfem.solver._Residual(A, sys1.rhs)(x)[1] == report.linear_solve_stats[0]
        assert report.linear_solve_stats[0] <= 1e-2
        x, _, iterations = sltfem.solver._preconditioned_cg(
            A, None, lu, sltfem.solver._Residual(A, sys1.rhs), 1e-12)
        assert x is None and iterations < sltfem.solver._CG_BUDGET

    def test_cg_gives_up_before_the_budget(self):
        space, p, theta = cracked_setup(8)
        sys, _ = mechanical(space, p, theta, FEField.zero(space), MechanicalBC())
        identity = spla.splu(sp.identity(sys.rhs.size, format="csc"))
        report = SolveReport()
        x = linear_solve(sys, report, precond=Preconditioner(identity))
        assert report.factorizations == 1
        assert report.refine_steps[0] < sltfem.solver._CG_BUDGET
        # The fresh path ignores the start, so the fallback gives a fresh solve's bits.
        np.testing.assert_array_equal(x, linear_solve(sys))


class TestCopyFreeSolvePath:
    """The factor and the residual work on A's own arrays and give, bit for
    bit, what they gave on whole-matrix copies."""

    @staticmethod
    def _symmetric_systems():
        """The 8x8 plate's thermal and b = 0 systems, symmetric bit for bit."""
        space, p, theta = cracked_setup(8)
        thermal = assemble_thermal(FESpace(space.mesh, order=2), p, 100.0, ThermalBC(value=100.0))
        b0, _ = mechanical(space, replace(p, b=0.0), theta, FEField.zero(space),
                           MechanicalBC())
        return thermal, b0

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_factor_of_the_csr_arrays_is_the_factor_of_the_csc(self, monkeypatch, dtype):
        for sys in self._symmetric_systems():
            A = sys.matrix.tocsr()
            assert (A != A.T).nnz == 0
            want = spla.splu(A.astype(dtype).tocsc(), permc_spec="MMD_AT_PLUS_A")

            def no_copy(*args, **kwargs):
                raise AssertionError("_factor converted the matrix to CSC")

            with monkeypatch.context() as m:
                m.setattr(sp.csr_matrix, "tocsc", no_copy)
                got = sltfem.solver._factor(A, dtype).lu
            np.testing.assert_array_equal(got.perm_r, want.perm_r)
            np.testing.assert_array_equal(got.perm_c, want.perm_c)
            for g, w in ((got.L, want.L), (got.U, want.U)):
                for attr in ("indptr", "indices", "data"):
                    np.testing.assert_array_equal(getattr(g, attr), getattr(w, attr))

    def test_row_blocks_give_the_whole_matrix_residual_and_floor(self, monkeypatch):
        _, sys = self._symmetric_systems()
        A, b = sys.matrix.tocsr(), sys.rhs
        monkeypatch.setattr(sltfem.solver, "_ROW_BLOCK", 97)
        assert A.shape[0] > 3 * 97 and A.shape[0] % 97
        residual = sltfem.solver._Residual(A, b)
        x = linear_solve(sys)   # near the cancellation floor, where rounding shows
        y = x + np.random.default_rng(0).normal(scale=1e-3, size=x.size)
        for z in (x, y):
            r_want = b - A @ z
            floor_want = sltfem.solver._EPS * np.linalg.norm(abs(A) @ abs(z)) / np.linalg.norm(b)
            r, res, floor = residual(z)
            np.testing.assert_array_equal(r, r_want)
            assert res == np.linalg.norm(r_want) / np.linalg.norm(b)
            assert floor == floor_want


class TestPicard:
    def test_b_zero_converges_immediately(self):
        space, p, theta = cracked_setup(4, b=0.0)
        u, report = picard(space, p, theta, MechanicalBC())
        assert report.converged
        assert report.iterations == 1
        assert report.increments == [0.0]
        assert report.clamp_events == 0

    def test_tiny_b_matches_linear(self):
        space, p0, theta = cracked_setup(4, b=0.0, a=1.0)
        u0, _ = picard(space, p0, theta, MechanicalBC())
        p1 = make_params(b=1e-10, a=1.0)
        u1, rep = picard(space, p1, theta, MechanicalBC())
        assert rep.converged
        rel = l2_norm(space, u1.values - u0.values) / l2_norm(space, u0.values)
        assert rel < 1e-6

    def test_default_cracked_run(self):
        space, p, theta = cracked_setup(4)
        u, report = picard(space, p, theta, MechanicalBC())
        assert report.converged
        assert report.iterations <= 100
        assert len(report.increments) == report.iterations
        tail = report.increments[3:]
        assert all(a > b for a, b in zip(tail, tail[1:]))
        assert report.increments[-1] < 1e-8

    def test_fixed_point_consistency(self):
        space, p, theta = cracked_setup(8)
        cfg = PicardConfig(tol=1e-8)
        u, report = picard(space, p, theta, MechanicalBC(), cfg)
        assert report.converged
        sys, _ = mechanical(space, p, theta, u, MechanicalBC())
        x = linear_solve(sys)
        assert l2_norm(space, x - u.values) < 10 * cfg.tol

    def test_deterministic_reports(self):
        runs = []
        for _ in range(2):
            space, p, theta = cracked_setup(4)
            _, report = picard(space, p, theta, MechanicalBC())
            runs.append(report)
        assert runs[0].increments == runs[1].increments
        assert runs[0].linear_solve_stats == runs[1].linear_solve_stats

    def test_iteration_count_stable_under_refinement(self):
        counts = []
        for n in (8, 16):
            space, p, theta = cracked_setup(n)
            _, report = picard(space, p, theta, MechanicalBC())
            assert report.converged
            counts.append(report.iterations)
        assert counts[1] < 2 * counts[0]

    def test_non_convergence_reported_not_raised(self):
        space, p, theta = cracked_setup(4)
        u, report = picard(space, p, theta, MechanicalBC(), PicardConfig(tol=1e-8, max_iter=2))
        assert not report.converged
        assert report.iterations == 2

    def test_damping_reaches_same_fixed_point(self):
        space, p, theta = cracked_setup(4)
        u1, r1 = picard(space, p, theta, MechanicalBC())
        u2, r2 = picard(space, p, theta, MechanicalBC(), PicardConfig(damping=0.7))
        assert r1.converged and r2.converged
        rel = l2_norm(space, u1.values - u2.values) / l2_norm(space, u1.values)
        assert rel < 1e-6

    def test_reused_factor_matches_fresh_factors(self):
        space, p, theta = cracked_setup(8)
        bc = MechanicalBC()
        u, report = picard(space, p, theta, bc)
        assert report.converged
        assert max(report.linear_solve_stats) <= 1e-12

        # Plain Picard: every system factored afresh.
        sys, _ = mechanical(space, replace(p, b=0.0), theta, FEField.zero(space), bc)
        ref = FEField(space, linear_solve(sys))
        increments = []
        for _ in range(PicardConfig().max_iter):
            sys, _ = mechanical(space, p, theta, ref, bc)
            x = linear_solve(sys)
            increments.append(l2_norm(space, x - ref.values))
            ref = FEField(space, x)
            if increments[-1] < PicardConfig().tol:
                break
        assert report.iterations == len(increments)
        inc, inc_ref = np.array(report.increments), np.array(increments)
        assert np.linalg.norm(inc - inc_ref) <= 1e-10 * np.linalg.norm(inc_ref)
        assert np.linalg.norm(u.values - ref.values) <= 1e-10 * np.linalg.norm(ref.values)

    def test_factors_once(self):
        space, p, theta = cracked_setup(8)
        _, report = picard(space, p, theta, MechanicalBC())
        assert report.converged
        assert report.factorizations == 1


class TestBuildSetup:
    def test_set_up_from_a_body_force(self):
        """A set-up built from a load of its own, with no theta: a uniform
        vertical body force on a square clamped on every side."""
        space = FESpace(build_grid(4, 4), order=2, components=2)
        p = make_params(alpha_T=0.0, b=0.5)
        bc = MechanicalBC(extra={tag: (0.0, 0.0) for tag in (GAMMA1, GAMMA2, GAMMA4)})
        weights = np.einsum("qa,eq->ea", space.N, space.detJxW)   # int N_a per element
        f = np.bincount(space.vector_dofs(space.element_dofs)[..., 1].ravel(),
                        weights=-weights.ravel(), minlength=space.n_dofs)
        setup = build_setup(space, p, bc, lambda: (None, f))
        assert setup.theta is None and setup.report.linear_solve_stats[0] <= 1e-12
        for b, iterations in ((0.0, 1), (0.5, 4)):
            u, report = newton_solve(setup, replace(p, b=b))
            assert report.converged and report.iterations == iterations


class TestTangent:
    @pytest.mark.parametrize("a", [0.5, 1.0])
    def test_matches_central_difference_of_internal_force(self, a):
        space, p, theta = cracked_setup(4, a=a, b=0.02)
        bc = MechanicalBC()
        u, _ = newton(space, p, theta, bc)
        u = FEField(space, 1.5 * u.values)   # off equilibrium, 1.5x the strains

        def residual(w):
            sys, _ = mechanical(space, p, theta, w, bc)
            return sys.rhs - sys.matrix @ w.values   # f - F_int on the free dofs

        tangent, _ = mechanical(space, p, theta, u, bc, tangent=True)
        # The Newton system carries the same internal force as the secant one.
        r_newton = tangent.rhs - tangent.matrix @ u.values
        np.testing.assert_allclose(r_newton, residual(u),
                                   atol=1e-12 * np.linalg.norm(residual(u)))

        _, free = free_residual(u, p, theta, bc)
        v = np.where(free, np.random.default_rng(7).normal(size=space.n_dofs), 0.0)
        v *= np.linalg.norm(u.values) / np.linalg.norm(v)
        h = 1e-6
        fd = (residual(FEField(space, u.values - h * v))
              - residual(FEField(space, u.values + h * v))) / (2 * h)
        exact = tangent.matrix @ v
        secant, _ = mechanical(space, p, theta, u, bc)
        # The rank-one term is large enough for a wrong phi' to show.
        assert np.linalg.norm(exact - secant.matrix @ v) > 1e-3 * np.linalg.norm(exact)
        assert np.linalg.norm(fd - exact) <= 1e-6 * np.linalg.norm(exact)

    def test_finite_at_zero_strain(self):
        space, p, theta = cracked_setup(4, a=0.5)
        zero = FEField.zero(space)
        tangent, _ = mechanical(space, p, theta, zero, MechanicalBC(), tangent=True)
        secant, _ = mechanical(space, p, theta, zero, MechanicalBC())
        assert np.all(np.isfinite(tangent.matrix.data))
        np.testing.assert_allclose(tangent.matrix.toarray(), secant.matrix.toarray(),
                                   rtol=0, atol=1e-14)
        np.testing.assert_allclose(tangent.rhs, secant.rhs, rtol=0, atol=1e-14)


def peak_bt(u, p):
    return p.b * float(energy_norm_m(strains_at_qps(u), p.E.entries).max())


class TestNewton:
    def test_matches_picard(self):
        space, p, theta = cracked_setup(8)
        bc = MechanicalBC()
        u, report = newton(space, p, theta, bc)
        u_ref, ref = picard(space, p, theta, bc)
        assert report.converged and ref.converged
        assert report.clamp_events == 0 and report.factorizations == 1
        assert report.iterations < ref.iterations
        assert len(report.residuals) == len(report.increments) == report.iterations
        rel = l2_norm(space, u.values - u_ref.values) / l2_norm(space, u_ref.values)
        assert rel <= 1e-6
        r, free = free_residual(u, p, theta, bc)
        f_free = thermal_load(space, p, theta)[free]
        assert np.linalg.norm(r) <= 1e-10 * np.linalg.norm(f_free)

    def test_b_zero_converges_immediately(self):
        space, p, theta = cracked_setup(4, b=0.0)
        u, report = newton(space, p, theta, MechanicalBC())
        assert report.converged
        assert report.iterations == 1
        assert report.increments == [0.0]
        assert report.clamp_events == 0

    def test_inadmissible_start_is_scaled(self):
        space, p, theta = cracked_setup(8, b=1.0)
        bc = MechanicalBC()
        u0, _ = newton(space, replace(p, b=0.0), theta, bc)
        assert peak_bt(u0, p) > 1.0   # the b = 0 solution violates the limit
        u, report = newton(space, p, theta, bc)
        assert report.converged and report.clamp_events == 0
        assert peak_bt(u, p) < 1.0
        r, _ = free_residual(u, p, theta, bc)
        assert np.linalg.norm(r) <= 1e-8 * np.linalg.norm(internal_force(u, p))

    def test_inadmissible_lift_raises(self):
        space, p, theta = cracked_setup(8, b=0.5)
        with pytest.raises(InadmissibleStrain, match=r"\(x, y\).*top_uy"):
            newton(space, p, theta, MechanicalBC(top_uy=3.0))

    def test_failed_line_search_keeps_last_iterate(self, monkeypatch):
        space, p, theta = cracked_setup(4)
        bc = MechanicalBC()
        energy = sltfem.solver._energy
        calls = []

        def start_only(u, *args):
            calls.append(u)
            return energy(u, *args) if len(calls) == 1 else np.inf

        monkeypatch.setattr(sltfem.solver, "_energy", start_only)
        u, report = newton(space, p, theta, bc)
        assert not report.converged and report.iterations == 1
        # The start and its half (inf, so the start stays), then steps 1, 1/2, ..., 2^-20.
        assert len(calls) == 3 + 20
        # The returned iterate is the (admissible) b = 0 start.
        sys, _ = mechanical(space, replace(p, b=0.0), theta, FEField.zero(space), bc)
        np.testing.assert_array_equal(u.values, linear_solve(sys))

    def test_energy_scaled_start(self):
        # The b = 0 solution overshoots the a = 0.1 law; the start scaled by Pi
        # saves most of the iterations and factorizations (14 and 5 unscaled).
        space, p, theta = cracked_setup(16, a=0.1, b=0.02)
        u, report = newton(space, p, theta, MechanicalBC())
        assert report.converged
        assert report.iterations <= 6 and report.factorizations <= 3

    def test_start_is_the_b_zero_solution_where_pi_rises_toward_the_lift(self, monkeypatch):
        space, p, theta = cracked_setup(8)
        bc = MechanicalBC()
        scaled_start = sltfem.solver._scaled_start
        starts = []

        def keep(*args):
            starts.append(scaled_start(*args))
            return starts[-1]

        monkeypatch.setattr(sltfem.solver, "_scaled_start", keep)
        newton(space, p, theta, bc)
        sys, _ = mechanical(space, replace(p, b=0.0), theta, FEField.zero(space), bc)
        np.testing.assert_array_equal(starts[0][0].values, linear_solve(sys))

    def test_forcing_keeps_the_solution(self, monkeypatch):
        space, p, theta = cracked_setup(16)
        bc = MechanicalBC()
        u, report = newton(space, p, theta, bc)
        monkeypatch.setattr(sltfem.solver, "_ETA_MAX", 0.0)   # every system to 1e-12
        u_exact, exact = newton(space, p, theta, bc)
        assert max(exact.linear_solve_stats) <= 1e-12
        assert report.converged and exact.converged
        assert report.iterations == exact.iterations
        assert (np.linalg.norm(u.values - u_exact.values)
                <= 1e-10 * np.linalg.norm(u_exact.values))

    def test_linear_solves_meet_their_forcing_targets(self, monkeypatch):
        space, p, theta = cracked_setup(16)
        solve = sltfem.solver.linear_solve
        calls = []

        def record(sys, report=None, x0=None, precond=None, tol=1e-12):
            r0 = np.linalg.norm(sys.rhs - sys.matrix @ x0) if x0 is not None else None
            calls.append((tol, r0, np.linalg.norm(sys.rhs)))
            return solve(sys, report, x0=x0, precond=precond, tol=tol)

        monkeypatch.setattr(sltfem.solver, "linear_solve", record)
        _, report = newton(space, p, theta, MechanicalBC())
        stats = report.linear_solve_stats
        assert len(calls) == len(stats) == report.iterations + 1
        assert calls[0][0] == 1e-12 and stats[0] <= 1e-12   # the b = 0 start
        # Eisenstat-Walker choice 2 with eta_max = 0.5 and gamma = 0.9.
        eta, r_prev = 0.5, None
        for (tol, r, rhs), res in zip(calls[1:], stats[1:]):
            if r_prev is not None:
                safeguard = 0.9 * eta**2
                eta = 0.9 * (r / r_prev) ** 2
                eta = min(0.5, max(eta, safeguard) if safeguard > 0.1 else eta)
            assert tol == pytest.approx(max(1e-12, eta * r / rhs), rel=1e-12)
            assert res <= tol
            r_prev = r

    def test_every_solve_meets_its_contract_in_long_double(self, monkeypatch):
        # Each solve is judged by its float64 residual; the residual of the
        # returned x, taken in long double, must meet the same contract, for
        # the 1e-12 targets and the looser forcing targets alike.
        space, p, theta = cracked_setup(16)
        solve, solves = sltfem.solver.linear_solve, []

        def record(sys, report=None, x0=None, precond=None, tol=1e-12):
            solves.append((sys, tol, solve(sys, report, x0=x0, precond=precond, tol=tol)))
            return solves[-1][2]

        monkeypatch.setattr(sltfem.solver, "linear_solve", record)
        newton(space, p, theta, MechanicalBC())
        tols = [tol for _, tol, _ in solves]
        assert min(tols) == 1e-12 and max(tols) > 1e-9
        ld = np.longdouble
        for sys, tol, x in solves:
            A, b = sys.matrix.tocsr(), sys.rhs
            A_ld = sp.csr_matrix((A.data.astype(ld), A.indices, A.indptr), shape=A.shape)
            res = float(np.linalg.norm(b.astype(ld) - A_ld @ x.astype(ld)) / np.linalg.norm(b))
            floor = sltfem.solver._Residual(A, b)(x)[2]
            assert sltfem.solver._meets_contract(res, floor, tol)

    def test_forcing_saves_cg_steps(self):
        # 15 CG steps with the forcing term, 38 with every system solved to 1e-12.
        space, p, theta = cracked_setup(16)
        _, report = newton(space, p, theta, MechanicalBC())
        assert report.converged and report.factorizations == 1
        assert sum(report.refine_steps) <= 20

    def test_robustness_grid(self):
        """Converged with no clamps and a small residual, or an error that says where."""
        mesh = build_cracked_grid(16, 16)
        theta_space = FESpace(mesh, order=2)
        space = FESpace(mesh, order=2, components=2)
        outcomes = {}
        for a, b, Q, top_uy in itertools.product((0.1, 0.5, 3.0), (0.02, 0.5),
                                                  (100.0, 5000.0), (0.0, 3.0)):
            p = make_params(a=a, b=b)
            theta = solve_thermal(theta_space, p, Q_source=Q, bc=ThermalBC(value=100.0))
            bc = MechanicalBC(top_uy=top_uy)
            try:
                u, report = newton(space, p, theta, bc)
            except InadmissibleStrain as exc:
                assert "(x, y) = (" in str(exc)
                outcomes[a, b, Q, top_uy] = "raised"
                continue
            assert report.converged and report.clamp_events == 0, (a, b, Q, top_uy)
            assert peak_bt(u, p) < 1.0
            r, _ = free_residual(u, p, theta, bc)
            assert np.linalg.norm(r) <= 1e-8 * np.linalg.norm(internal_force(u, p))
            outcomes[a, b, Q, top_uy] = "converged"
        # Every case without a prescribed opening converges below the extreme corner
        # (a = 3, b = 0.5, Q = 5000), whose solution needs b t past 1 - DELTA_GUARD.
        for key, outcome in outcomes.items():
            if key[3] == 0.0 and key != (3.0, 0.5, 5000.0, 0.0):
                assert outcome == "converged", key
