from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from sltfem import MaterialParams, build_cracked_grid
from sltfem.assembly import (
    FEField,
    FESpace,
    LinearSystem,
    MechanicalBC,
    ThermalBC,
    assemble_mechanical,
    l2_norm,
)
from sltfem.solver import (
    PicardConfig,
    Preconditioner,
    SolveReport,
    linear_solve,
    picard_solve,
    solve_thermal,
)


def make_params(**kw):
    defaults = dict(lam=1.0, mu=1.0, gamma=1.0, fiber_angle=0.0,
                    a=0.5, b=0.02, alpha_T=0.01, k=1.0)
    defaults.update(kw)
    return MaterialParams(**defaults)


def cracked_setup(n=4, order=2, **paramkw):
    mesh = build_cracked_grid(n, n)
    p = make_params(**paramkw)
    theta_space = FESpace(mesh, order=order)
    theta = solve_thermal(theta_space, p, Q_source=100.0, bc=ThermalBC(value=100.0))
    u_space = FESpace(mesh, order=order, components=2)
    return u_space, p, theta


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
        sys, _ = assemble_mechanical(space, p, theta, FEField.zero(space), MechanicalBC())
        x = linear_solve(sys)
        res = np.linalg.norm(sys.matrix @ x - sys.rhs) / np.linalg.norm(sys.rhs)
        assert res <= 1e-12

    def test_mismatched_factor_falls_back_to_a_fresh_one(self):
        space, p, theta = cracked_setup(8)
        sys, _ = assemble_mechanical(space, p, theta, FEField.zero(space), MechanicalBC())
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


class TestPicard:
    def test_b_zero_converges_immediately(self):
        space, p, theta = cracked_setup(4, b=0.0)
        u, report = picard_solve(space, p, theta, MechanicalBC())
        assert report.converged
        assert report.iterations == 1
        assert report.increments == [0.0]
        assert report.clamp_events == 0

    def test_tiny_b_matches_linear(self):
        space, p0, theta = cracked_setup(4, b=0.0, a=1.0)
        u0, _ = picard_solve(space, p0, theta, MechanicalBC())
        p1 = make_params(b=1e-10, a=1.0)
        u1, rep = picard_solve(space, p1, theta, MechanicalBC())
        assert rep.converged
        rel = l2_norm(space, u1.values - u0.values) / l2_norm(space, u0.values)
        assert rel < 1e-6

    def test_default_cracked_run(self):
        space, p, theta = cracked_setup(4)
        u, report = picard_solve(space, p, theta, MechanicalBC())
        assert report.converged
        assert report.iterations <= 100
        assert len(report.increments) == report.iterations
        tail = report.increments[3:]
        assert all(a > b for a, b in zip(tail, tail[1:]))
        assert report.increments[-1] < 1e-8

    def test_fixed_point_consistency(self):
        space, p, theta = cracked_setup(8)
        cfg = PicardConfig(tol=1e-8)
        u, report = picard_solve(space, p, theta, MechanicalBC(), cfg)
        assert report.converged
        sys, _ = assemble_mechanical(space, p, theta, u, MechanicalBC())
        x = linear_solve(sys)
        assert l2_norm(space, x - u.values) < 10 * cfg.tol

    def test_deterministic_reports(self):
        runs = []
        for _ in range(2):
            space, p, theta = cracked_setup(4)
            _, report = picard_solve(space, p, theta, MechanicalBC())
            runs.append(report)
        assert runs[0].increments == runs[1].increments
        assert runs[0].linear_solve_stats == runs[1].linear_solve_stats

    def test_iteration_count_stable_under_refinement(self):
        counts = []
        for n in (8, 16):
            space, p, theta = cracked_setup(n)
            _, report = picard_solve(space, p, theta, MechanicalBC())
            assert report.converged
            counts.append(report.iterations)
        assert counts[1] < 2 * counts[0]

    def test_non_convergence_reported_not_raised(self):
        space, p, theta = cracked_setup(4)
        u, report = picard_solve(space, p, theta, MechanicalBC(),
                                 PicardConfig(tol=1e-8, max_iter=2))
        assert not report.converged
        assert report.iterations == 2

    def test_damping_reaches_same_fixed_point(self):
        space, p, theta = cracked_setup(4)
        u1, r1 = picard_solve(space, p, theta, MechanicalBC())
        u2, r2 = picard_solve(space, p, theta, MechanicalBC(),
                              PicardConfig(damping=0.7))
        assert r1.converged and r2.converged
        rel = l2_norm(space, u1.values - u2.values) / l2_norm(space, u1.values)
        assert rel < 1e-6

    def test_reused_factor_matches_fresh_factors(self):
        space, p, theta = cracked_setup(8)
        bc = MechanicalBC()
        u, report = picard_solve(space, p, theta, bc)
        assert report.converged
        assert max(report.linear_solve_stats) <= 1e-12

        # Plain Picard: every system factored afresh.
        sys, _ = assemble_mechanical(space, replace(p, b=0.0), theta, FEField.zero(space), bc)
        ref = FEField(space, linear_solve(sys))
        increments = []
        for _ in range(PicardConfig().max_iter):
            sys, _ = assemble_mechanical(space, p, theta, ref, bc)
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
        _, report = picard_solve(space, p, theta, MechanicalBC())
        assert report.converged
        assert report.factorizations == 1
