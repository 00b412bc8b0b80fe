"""Linear solve contract and the Picard driver for the nonlinear mechanics."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import (
    AssemblyPlan,
    FEField,
    FESpace,
    LinearSystem,
    MechanicalBC,
    ThermalBC,
    assemble_mechanical,
    assemble_thermal,
    l2_norm,
    mass_matrix,
    mechanical_dirichlet,
    strain_displacement,
    thermal_load,
)
from .constitutive import MaterialParams
from .errors import SolverBreakdown

_RESIDUAL_TOL = 1e-12
# Preconditioned CG iterations a held factor gets per linear solve before the
# system is factored afresh; one factorization costs 15 to 25 of them.
_CG_BUDGET = 30


@dataclass(frozen=True)
class PicardConfig:
    """Fixed-point iteration controls."""

    tol: float = 1e-8
    max_iter: int = 100
    damping: float = 1.0

    def __post_init__(self):
        if self.tol <= 0.0:
            raise ValueError("tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if not (0.0 < self.damping <= 1.0):
            raise ValueError("damping must lie in (0, 1]")


@dataclass
class SolveReport:
    """Picard iteration history; per linear solve, the relative residual of its
    solution (linear_solve_stats) and its triangular solves beyond one per
    factorization (refine_steps: refinement steps and CG iterations); the
    number of SuperLU factorizations (factorizations)."""

    iterations: int = 0
    increments: list[float] = field(default_factory=list)
    converged: bool = False
    clamp_events: int = 0
    linear_solve_stats: list[float] = field(default_factory=list)
    refine_steps: list[int] = field(default_factory=list)
    factorizations: int = 0


@dataclass
class Preconditioner:
    """The SuperLU factor a Picard solve reuses as its CG preconditioner.

    Build one per solve, like AssemblyPlan, to be freed with it. linear_solve
    holds each fresh factor here and drops the held one before it factors
    again, so at most one LU is alive.
    """

    lu: object = None


class _Residual:
    """Relative residual of A x = b with an extended-precision product, and
    the cancellation floor under it."""

    def __init__(self, A: sp.csr_matrix, b: np.ndarray):
        self.A = A
        bnorm = np.linalg.norm(b)
        self.scale = bnorm if bnorm > 0 else 1.0
        self._Aw = sp.csr_matrix((A.data.astype(np.longdouble), A.indices, A.indptr),
                                 shape=A.shape)
        self._bw = b.astype(np.longdouble)

    def __call__(self, x: np.ndarray) -> tuple[np.ndarray, float]:
        r = np.asarray(self._bw - self._Aw @ x.astype(np.longdouble), dtype=np.float64)
        return r, np.linalg.norm(r) / self.scale

    def floor(self, x: np.ndarray) -> float:
        # A rounded double vector cannot beat the cancellation floor
        # eps * || |A| |x| || / ||b||, however ill-conditioned the mesh.
        A = self.A
        absA = sp.csr_matrix((np.abs(A.data), A.indices, A.indptr), shape=A.shape)
        return np.finfo(np.float64).eps * np.linalg.norm(absA @ np.abs(x)) / self.scale


def _meets_contract(res: float, floor: float) -> bool:
    """A relative residual of 1e-12, or within 10x the cancellation floor."""
    return res <= _RESIDUAL_TOL or res <= 10.0 * floor


def _factored_solve(A: sp.csr_matrix, b: np.ndarray, residual: _Residual):
    """SuperLU solve with long-double iterative refinement.

    Returns x, its relative residual, the refinement steps and the factor.
    """
    try:
        lu = spla.splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A")
        x = lu.solve(b)
    except RuntimeError as exc:
        raise SolverBreakdown(f"sparse factorization failed: {exc}") from exc
    if not np.all(np.isfinite(x)):
        raise SolverBreakdown("non-finite solution from factorization")
    r, res = residual(x)
    steps = 0
    for _ in range(10):
        if res <= _RESIDUAL_TOL:
            break
        x = x + lu.solve(r)
        steps += 1
        r, new_res = residual(x)
        if new_res >= res:
            break
        res = new_res
    if not _meets_contract(res, residual.floor(x)):
        raise SolverBreakdown(f"relative residual {res:.3e} exceeds {_RESIDUAL_TOL}")
    return x, np.linalg.norm(r) / residual.scale, steps, lu


def _preconditioned_cg(A: sp.csr_matrix, x: np.ndarray, lu, residual: _Residual):
    """CG from x, preconditioned by lu, in passes restarted from the true residual.

    A pass stops its recursive residual at max(0.1 tol, floor)·||b||; passes
    go on while the long-double residual falls. Returns x, its relative
    residual and the CG iterations, with x None if the contract is missed
    within _CG_BUDGET iterations.
    """
    r, res = residual(x)
    iterations = 0
    while True:
        floor = residual.floor(x)
        if _meets_contract(res, floor):
            return x, res, iterations
        if iterations >= _CG_BUDGET:
            return None, res, iterations
        stop = max(0.1 * _RESIDUAL_TOL, floor) * residual.scale
        y = x.copy()
        z = lu.solve(r)
        iterations += 1
        p, rz = z, r @ z
        while True:
            q = A @ p
            alpha = rz / (p @ q)
            y += alpha * p
            r -= alpha * q
            if np.linalg.norm(r) <= stop or iterations >= _CG_BUDGET:
                break
            z = lu.solve(r)
            iterations += 1
            rz, rz_prev = r @ z, rz
            p = z + (rz / rz_prev) * p
        r, new_res = residual(y)
        if not new_res < res:
            return None, res, iterations
        x, res = y, new_res


def linear_solve(sys: LinearSystem, report: SolveReport | None = None,
                 x0: np.ndarray | None = None,
                 precond: Preconditioner | None = None) -> np.ndarray:
    """Sparse SPD solve with a relative-residual contract of 1e-12.

    With a factor held in precond, the system is solved by conjugate
    gradients from x0 (default zero), preconditioned by that factor; x0 is
    returned unchanged if it already meets the contract. If CG misses within
    _CG_BUDGET iterations, the held factor is dropped and the system is
    factored afresh. A fresh solve is one SuperLU factorization, ordered by
    minimum degree on A + A^T, plus iterative refinement with an
    extended-precision residual if the first solve misses the tolerance; the
    plain double residual can stall just above the tolerance through
    cancellation. Its factor is held in precond, if given. A returned x has a
    relative residual of at most 1e-12 or 10x the cancellation floor;
    otherwise SolverBreakdown is raised. A given report gets the residual of
    the returned x, the refinement steps plus CG iterations, and each
    factorization.
    """
    A = sys.matrix.tocsr()
    residual = _Residual(A, sys.rhs)
    x, steps = None, 0
    if precond is not None and precond.lu is not None:
        start = np.zeros_like(sys.rhs) if x0 is None else x0
        x, res, steps = _preconditioned_cg(A, start, precond.lu, residual)
        if x is None:
            precond.lu = None
    if x is None:
        x, res, refine, lu = _factored_solve(A, sys.rhs, residual)
        steps += refine
        if precond is not None:
            precond.lu = lu
        if report is not None:
            report.factorizations += 1
    if report is not None:
        report.linear_solve_stats.append(float(res))
        report.refine_steps.append(steps)
    return x


def solve_thermal(space: FESpace, p: MaterialParams, Q_source=0.0,
                  bc: ThermalBC = ThermalBC()) -> FEField:
    """Assemble and solve the linear thermal problem."""
    sys = assemble_thermal(space, p, Q_source, bc)
    return FEField(space, linear_solve(sys))


def picard_solve(space: FESpace, p: MaterialParams, theta: FEField | None,
                 bc: MechanicalBC, cfg: PicardConfig = PicardConfig()
                 ) -> tuple[FEField, SolveReport]:
    """Fixed-point iteration on the Picard-linearized mechanical problem.

    Starts from the b=0 linear solve; each step freezes the nonlinear
    multiplier at the previous iterate. The factor of the b=0 system
    preconditions CG on each later system, started from the previous iterate.
    The increment norm is the L2 norm of the displacement difference
    (consistent mass matrix). Non-convergence is reported, not raised.
    """
    report = SolveReport()
    B = strain_displacement(space)
    M = mass_matrix(space)
    plan = AssemblyPlan(space, 2, mechanical_dirichlet(space, bc))
    f = thermal_load(space, p, theta)
    precond = Preconditioner()

    p_lin = p if p.b == 0.0 else replace(p, b=0.0)
    sys, _ = assemble_mechanical(space, p_lin, theta, FEField.zero(space), bc,
                                 B=B, plan=plan, f=f)
    u = FEField(space, linear_solve(sys, report, precond=precond))

    omega = cfg.damping
    for _ in range(cfg.max_iter):
        sys = None   # freed before the next assembly, while the held LU is alive
        sys, clamps = assemble_mechanical(space, p, theta, u, bc, B=B, plan=plan, f=f)
        report.clamp_events += clamps
        x = linear_solve(sys, report, x0=u.values, precond=precond)
        u_new = omega * x + (1.0 - omega) * u.values
        inc = l2_norm(space, u_new - u.values, M=M)
        report.increments.append(inc)
        report.iterations += 1
        u = FEField(space, u_new)
        if inc < cfg.tol:
            report.converged = True
            break
    return u, report

