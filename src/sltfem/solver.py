"""Linear solve contract and the Picard driver for the nonlinear mechanics."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
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
)
from .constitutive import MaterialParams
from .errors import SolverBreakdown

_RESIDUAL_TOL = 1e-12


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
    solution (linear_solve_stats) and its refinement steps (refine_steps)."""

    iterations: int = 0
    increments: list[float] = field(default_factory=list)
    converged: bool = False
    clamp_events: int = 0
    linear_solve_stats: list[float] = field(default_factory=list)
    refine_steps: list[int] = field(default_factory=list)


def linear_solve(sys: LinearSystem, report: SolveReport | None = None) -> np.ndarray:
    """Direct sparse solve with a relative-residual contract of 1e-12.

    Iterative refinement with an extended-precision residual is applied
    if the first factorized solve misses the tolerance; the plain double
    residual can stall just above the tolerance through cancellation.
    SuperLU orders the SPD matrix by minimum degree on A + A^T. A given
    report gets the residual of the returned x and the refinement steps.
    """
    A = sys.matrix.tocsc()
    b = sys.rhs
    try:
        lu = spla.splu(A, permc_spec="MMD_AT_PLUS_A")
        x = lu.solve(b)
    except RuntimeError as exc:
        raise SolverBreakdown(f"sparse factorization failed: {exc}") from exc
    if not np.all(np.isfinite(x)):
        raise SolverBreakdown("non-finite solution from factorization")
    bnorm = np.linalg.norm(b)
    scale = bnorm if bnorm > 0 else 1.0
    Aw = A.astype(np.longdouble)
    bw = b.astype(np.longdouble)

    def residual(v):
        return np.asarray(bw - Aw @ v.astype(np.longdouble), dtype=np.float64)

    r = residual(x)
    res = np.linalg.norm(r) / scale
    steps = 0
    for _ in range(10):
        if res <= _RESIDUAL_TOL:
            break
        x = x + lu.solve(r)
        steps += 1
        r = residual(x)
        new_res = np.linalg.norm(r) / scale
        if new_res >= res:
            break
        res = new_res
    if res > _RESIDUAL_TOL:
        # A rounded double vector cannot beat the cancellation floor
        # eps * || |A| |x| || / ||b||, however ill-conditioned the mesh.
        # Only treat the miss as a breakdown when it exceeds that floor.
        floor = np.finfo(np.float64).eps * np.linalg.norm(abs(A) @ np.abs(x)) / scale
        if res > 10.0 * floor:
            raise SolverBreakdown(f"relative residual {res:.3e} exceeds {_RESIDUAL_TOL}")
    if report is not None:
        report.linear_solve_stats.append(float(np.linalg.norm(r) / scale))
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
    multiplier at the previous iterate. The increment norm is the L2 norm
    of the displacement difference (consistent mass matrix). Non-convergence
    is reported, not raised.
    """
    report = SolveReport()
    B = strain_displacement(space)
    M = mass_matrix(space)
    plan = AssemblyPlan(space, 2, mechanical_dirichlet(space, bc))

    p_lin = p if p.b == 0.0 else replace(p, b=0.0)
    sys0, _ = assemble_mechanical(space, p_lin, theta, FEField.zero(space), bc, B=B, plan=plan)
    u = FEField(space, linear_solve(sys0, report))

    omega = cfg.damping
    for _ in range(cfg.max_iter):
        sys, clamps = assemble_mechanical(space, p, theta, u, bc, B=B, plan=plan)
        report.clamp_events += clamps
        x = linear_solve(sys, report)
        u_new = omega * x + (1.0 - omega) * u.values
        inc = l2_norm(space, u_new - u.values, M=M)
        report.increments.append(inc)
        report.iterations += 1
        u = FEField(space, u_new)
        if inc < cfg.tol:
            report.converged = True
            break
    return u, report

