"""Linear solve contract and the Newton and Picard drivers for the nonlinear mechanics."""

from __future__ import annotations

import itertools
from collections.abc import Callable
from copy import deepcopy
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
    mass_matrix,  # noqa: F401 -- stays in this namespace for perfbench/tracing.py
    strains_at_qps,
)
from .constitutive import DELTA_GUARD, MaterialParams, strain_energy_density_m
from .errors import InadmissibleStrain, InvalidParameter, SolverBreakdown
from .tensors import energy_norm_m

_RESIDUAL_TOL = 1e-12
_EPS = np.finfo(np.float64).eps
# Rows per block of the floor's |A| |x| product: a block's |A| entries are
# all the pass allocates beyond its vectors.
_ROW_BLOCK = 4096
# Preconditioned CG iterations a held factor gets per linear solve before the
# system is factored afresh; one factorization costs 15 to 25 of them.
_CG_BUDGET = 30
# CG iterations of a pass before its mean contraction rate can end it early.
_CG_JUDGE = 5
# Newton's forcing term eta (Eisenstat & Walker, SIAM J. Sci. Comput. 17, 1996,
# choice 2): its first and largest value, and the factor gamma of
# eta_k = gamma (||r_k|| / ||r_k-1||)^2.
_ETA_MAX = 0.5
_ETA_GAMMA = 0.9
# Shortest step, relative to the first trial, a Newton line search tries.
_MIN_STEP = 2.0**-20
# Largest relative nonlinear residual ||R_free|| / ||F_int|| of a converged
# Newton solve, next to the step tolerance picard.tol.
_FORCE_TOL = 1e-6


@dataclass(frozen=True)
class PicardConfig:
    """Nonlinear iteration controls: increment tolerance, iteration cap, and
    the Picard under-relaxation factor or Newton's first trial step."""

    tol: float = 1e-8
    max_iter: int = 100
    damping: float = 1.0

    def __post_init__(self):
        if self.tol <= 0.0:
            raise InvalidParameter("tol", f"tol={self.tol} must be positive")
        if self.max_iter < 1:
            raise InvalidParameter("max_iter", f"max_iter={self.max_iter} must be >= 1")
        if not (0.0 < self.damping <= 1.0):
            raise InvalidParameter("damping", f"damping={self.damping} must lie in (0, 1]")


@dataclass
class SolveReport:
    """Nonlinear iteration history: per iteration, the L2 increment and, for
    Newton, the nonlinear residual at its iterate relative to the internal
    force (residuals); per linear solve, the float64 relative residual of
    its solution (linear_solve_stats) and its triangular solves beyond one
    per factorization (refine_steps: preconditioned CG iterations); the
    number of SuperLU factorizations (factorizations)."""

    iterations: int = 0
    increments: list[float] = field(default_factory=list)
    residuals: list[float] = field(default_factory=list)
    converged: bool = False
    clamp_events: int = 0
    linear_solve_stats: list[float] = field(default_factory=list)
    refine_steps: list[int] = field(default_factory=list)
    factorizations: int = 0


@dataclass
class Preconditioner:
    """The SuperLU factor that preconditions CG in linear_solve, held across
    the linear systems of a nonlinear solve: a _Factor, or any float64 factor
    with a solve method, such as a SuperLU. With ahead set, lu is instead the
    float32 factor of the next system, computed before that system was
    complete (None if that factorization failed): linear_solve takes it as
    its own float32 factorization.

    Build one per solve, like AssemblyPlan, to be freed with it. linear_solve
    holds each fresh factor here and drops the held one before it factors
    again, so one holder keeps at most one LU alive. The b = 0 factor of a
    set-up (run_single's, shared within a sweep) outlives the fresh() holder
    that newton_solve or picard_solve makes for each solve, so two can be.
    """

    lu: object = None
    ahead: bool = False


@dataclass(frozen=True)
class _Factor:
    """A SuperLU factor computed in dtype and applied to float64 vectors;
    SuperLU.solve refuses a float64 right-hand side on a float32 factor."""

    lu: spla.SuperLU
    dtype: type

    def solve(self, r: np.ndarray) -> np.ndarray:
        return self.lu.solve(r.astype(self.dtype, copy=False)).astype(np.float64, copy=False)


class _Residual:
    """Relative residual of A x = b in float64, which each CG pass restarts
    from, and the cancellation floor under it. The floor's |A| |x| is taken
    over blocks of _ROW_BLOCK rows, so no |A| copy of A is made. x None
    stands for zero, where the residual is b and the floor 0, exactly. A
    call returns r = b - A x, its relative norm and the floor."""

    def __init__(self, A: sp.csr_matrix, b: np.ndarray):
        self.A = A
        bnorm = np.linalg.norm(b)
        self.scale = bnorm if bnorm > 0 else 1.0
        self.b = b

    def __call__(self, x: np.ndarray | None) -> tuple[np.ndarray, float, float]:
        if x is None:
            return self.b.copy(), np.linalg.norm(self.b) / self.scale, 0.0
        A, n = self.A, self.A.shape[0]
        r = self.b - A @ x
        x_abs, abs_Ax = np.abs(x), np.empty(n)
        for lo in range(0, n, _ROW_BLOCK):
            hi = min(lo + _ROW_BLOCK, n)
            start, stop = A.indptr[lo], A.indptr[hi]
            block = sp.csr_matrix((np.abs(A.data[start:stop]), A.indices[start:stop],
                                   A.indptr[lo:hi + 1] - start), shape=(hi - lo, n))
            abs_Ax[lo:hi] = block @ x_abs   # rows lo:hi of |A| |x|
        # A rounded double vector cannot beat the cancellation floor
        # eps * || |A| |x| || / ||b||, however ill-conditioned the mesh.
        return (r, np.linalg.norm(r) / self.scale,
                _EPS * np.linalg.norm(abs_Ax) / self.scale)


def _meets_contract(res: float, floor: float, tol: float = _RESIDUAL_TOL) -> bool:
    """A relative residual of at most tol, or within 10x the cancellation floor."""
    return res <= tol or res <= 10.0 * floor


def _factor(A: sp.csr_matrix, dtype: type) -> _Factor:
    """SuperLU factor of A in dtype, ordered by minimum degree on A + A^T.

    Every system here is symmetric, so SuperLU gets A's CSR arrays, the data
    cast to dtype, as the CSC of A^T = A: no transposed copy is made. A
    matrix symmetric only to rounding, such as a Newton tangent, gets the
    factor of A^T, which preconditions CG on A as well. A is first put in
    canonical form in place, as splu puts its CSC: sorting the shared
    indices there would leave A's own data unsorted."""
    A.sum_duplicates()
    csc = sp.csc_matrix((A.data.astype(dtype, copy=False), A.indices, A.indptr),
                        shape=A.shape)
    try:
        return _Factor(spla.splu(csc, permc_spec="MMD_AT_PLUS_A"), dtype)
    except RuntimeError as exc:
        raise SolverBreakdown(f"sparse factorization failed: {exc}") from exc


def _preconditioned_cg(A: sp.csr_matrix, x: np.ndarray | None, lu,
                       residual: _Residual, tol: float):
    """CG from x (None: zero), preconditioned by lu, in passes restarted from
    the true residual, to the contract for tol.

    A pass stops its recursive residual at max(0.1 tol, floor)·||b||; passes
    go on while the true residual falls. With lu the factor of A and x
    zero, the first step is the factored solve, and each later pass is a
    refinement step of optimal length. Returns x, its relative residual
    and the CG iterations, with x None if the contract is missed within
    _CG_BUDGET iterations, or once a pass of at least _CG_JUDGE iterations,
    contracting at its mean rate so far, would miss it. SolverBreakdown is
    raised if the first triangular solve of a pass is not finite.
    """
    r, res, floor = residual(x)
    if x is None:
        x = np.zeros_like(r)
    iterations = 0
    while True:
        if _meets_contract(res, floor, tol):
            return x, res, iterations
        if iterations >= _CG_BUDGET:
            return None, res, iterations
        stop = max(0.1 * tol, floor) * residual.scale
        goal = max(tol, 10.0 * floor) * residual.scale
        r_start = np.linalg.norm(r)
        y = x.copy()
        z = lu.solve(r)
        if not np.all(np.isfinite(z)):
            raise SolverBreakdown("non-finite solution from factorization")
        iterations += 1
        p, rz = z, r @ z
        for k in itertools.count(1):
            q = A @ p
            alpha = rz / (p @ q)
            y += alpha * p
            r -= alpha * q
            r_norm = np.linalg.norm(r)
            if r_norm <= stop or iterations >= _CG_BUDGET:
                break
            if (k >= _CG_JUDGE and r_norm * (r_norm / r_start)
                    ** ((_CG_BUDGET - iterations) / k) > goal):
                return None, res, iterations
            z = lu.solve(r)
            iterations += 1
            rz, rz_prev = r @ z, rz
            p = z + (rz / rz_prev) * p
        r, new_res, new_floor = residual(y)
        if not new_res < res:
            return None, res, iterations
        x, res, floor = y, new_res, new_floor


def linear_solve(sys: LinearSystem, report: SolveReport | None = None,
                 x0: np.ndarray | None = None,
                 precond: Preconditioner | None = None,
                 tol: float = _RESIDUAL_TOL) -> np.ndarray:
    """Sparse SPD solve with a relative-residual contract of tol (1e-12).

    The system is solved by conjugate gradients preconditioned by a SuperLU
    factor, ordered by minimum degree on A + A^T, in passes restarted from
    the true residual. That residual is taken in float64, with the
    cancellation floor eps || |A| |x| || / ||b|| under it (_Residual): the
    contract admits 10x the floor, which covers the cancellation a double
    product can stall on. A factor is computed from A's own CSR arrays
    (_factor), and neither copies the matrix. A factor only has to
    precondition, so a fresh one is computed in float32: CG restarted from
    the true residual recovers full accuracy (Carson & Higham, SIAM J. Sci.
    Comput. 40, 2018; Langou et al., SC 2006). With a factor held in
    precond, CG starts from x0 (default zero), and x0 is returned unchanged
    if it already meets the contract. Without one, or if CG on the held one
    misses within _CG_BUDGET iterations, the held factor is dropped, the
    system is factored afresh and CG starts from zero; the fresh factor is
    held in precond, if given. A float32 factor of this system computed
    ahead (Preconditioner.ahead) is taken as the fresh float32
    factorization. If the float32 factorization fails, its triangular solve
    is not finite or its CG misses, the system is factored again in
    float64. A returned x has a relative residual of at most tol or 10x the
    cancellation floor; otherwise SolverBreakdown is raised. A given report
    gets the residual of the returned x, the triangular solves beyond one
    per factorization, and each factorization, one computed ahead included.
    """
    A = sys.matrix.tocsr()
    residual = _Residual(A, sys.rhs)
    x, steps = None, 0
    ahead = precond is not None and precond.ahead
    if ahead:
        precond.ahead = False
    elif precond is not None and precond.lu is not None:
        x, res, steps = _preconditioned_cg(A, x0, precond.lu, residual, tol)
        if x is None:
            precond.lu = None
    if x is None:
        for dtype in (np.float32, np.float64):
            lu = None   # a failed float32 LU is freed before the float64 splu
            try:
                if ahead and dtype is np.float32:
                    lu, precond.lu = precond.lu, None
                    if lu is None:   # the factorization ahead failed
                        continue
                else:
                    lu = _factor(A, dtype)
                if report is not None:
                    report.factorizations += 1
                x, res, iterations = _preconditioned_cg(A, None, lu, residual, tol)
            except SolverBreakdown:
                if dtype is np.float64:
                    raise
                continue
            steps += max(iterations - 1, 0)   # no triangular solve for a zero rhs
            if x is not None:
                break
        else:
            raise SolverBreakdown(f"relative residual {res:.3e} exceeds {tol:.3g}")
        if precond is not None:
            precond.lu = lu
    if report is not None:
        report.linear_solve_stats.append(float(res))
        report.refine_steps.append(steps)
    return x


def solve_thermal(space: FESpace, p: MaterialParams, Q_source=0.0,
                  bc: ThermalBC = ThermalBC()) -> FEField:
    """Assemble and solve the linear thermal problem."""
    sys = assemble_thermal(space, p, Q_source, bc)
    return FEField(space, linear_solve(sys))


@dataclass
class _Setup:
    """Everything a solve builds before its nonlinear iteration: theta, the
    b = 0 solution u it starts from (u.space is the displacement space), the
    Dirichlet plan, the load f, and load, the norm of the free part of the
    b = 0 right-hand side (1 if it is zero). report and precond hold the
    b = 0 solve's history and factor. Nothing here depends on a or b (at
    b = 0 the multiplier is 1 for every a), so one set-up serves a sweep:
    newton_solve and picard_solve each work on a fresh() copy."""

    theta: FEField | None
    u: FEField
    plan: AssemblyPlan
    f: np.ndarray
    load: float
    report: SolveReport
    precond: Preconditioner

    def fresh(self) -> "_Setup":
        """This set-up for one more solve: a copy of the b = 0 report, and a
        Preconditioner of its own holding the shared factor, so a fallback
        factorization replaces only that solve's holder."""
        return replace(self, report=deepcopy(self.report),
                       precond=Preconditioner(self.precond.lu))


def build_setup(space: FESpace, p: MaterialParams, bc: MechanicalBC,
                thermal: Callable[[], tuple[FEField | None, np.ndarray]]) -> _Setup:
    """The set-up of newton_solve or picard_solve with the Dirichlet data bc,
    for any a and b; thermal() returns theta and the load f, such as
    (theta, thermal_load(space, p, theta)). The plan and the b = 0 system
    are built and factored in float32 before thermal() is called, as theta
    enters only through the load: a thermal() waiting on another thread
    overlaps that work. f is added on the free dofs (the same sum as a
    system assembled with it), and the system is solved on that factor, or
    in float64 if it failed. If the b = 0 part raises, thermal() is still
    called first, so a thermal error wins. No thread is started here."""
    try:
        plan = AssemblyPlan(space, bc)
        p_lin = p if p.b == 0.0 else replace(p, b=0.0)
        sys, _ = assemble_mechanical(plan, p_lin, np.zeros((space.mesh.n_elements, space.nqp, 3)),
                                     np.zeros(space.n_dofs))
        try:
            lu = _factor(sys.matrix.tocsr(), np.float32)
        except SolverBreakdown:
            lu = None   # linear_solve factors in float64 instead
    except BaseException:
        thermal()
        raise
    theta, f = thermal()
    free = ~plan.fixed
    sys.rhs[free] += f[free]
    report, precond = SolveReport(), Preconditioner(lu, ahead=True)
    u = FEField(space, linear_solve(sys, report, precond=precond))
    load = float(np.linalg.norm(sys.rhs[free]))
    return _Setup(theta, u, plan, f, load or 1.0, report, precond)


def picard_solve(setup: _Setup, p: MaterialParams, cfg: PicardConfig = PicardConfig()
                 ) -> tuple[FEField, SolveReport]:
    """Fixed-point iteration on the Picard-linearized mechanical problem.

    Starts from the b=0 solution of a fresh() copy of setup (build_setup's,
    for any a and b); each step freezes the nonlinear multiplier at the
    previous iterate. The b=0 factor preconditions CG on each later system,
    started from the previous iterate. The increment norm is the L2 norm of
    the displacement difference at the quadrature points (l2_norm).
    Non-convergence is reported, not raised.
    """
    setup = setup.fresh()
    report, u, space = setup.report, setup.u, setup.u.space
    omega = cfg.damping
    for _ in range(cfg.max_iter):
        sys = None   # freed before the next assembly, while the held LU is alive
        sys, clamps = assemble_mechanical(setup.plan, p, strains_at_qps(u), setup.f)
        report.clamp_events += clamps
        x = linear_solve(sys, report, x0=u.values, precond=setup.precond)
        u_new = omega * x + (1.0 - omega) * u.values
        inc = l2_norm(space, u_new - u.values)
        report.increments.append(inc)
        report.iterations += 1
        u = FEField(space, u_new)
        if inc < cfg.tol:
            report.converged = True
            break
    return u, report


def _peak_bt(eps: np.ndarray, p: MaterialParams, space: FESpace) -> tuple[float, tuple]:
    """Peak b*t over the quadrature points of the strains eps, and its (x, y)."""
    t = energy_norm_m(eps, p.E.entries)
    e, q = np.unravel_index(int(np.argmax(t)), t.shape)
    x, y = space.qp_xy[e, q]
    return p.b * float(t[e, q]), (round(float(x), 6), round(float(y), 6))


def _scaled_start(setup: _Setup, p: MaterialParams) -> tuple[FEField, float, np.ndarray]:
    """Newton's start, its energy and its strains: the b = 0 solution u0
    scaled toward the Dirichlet lift, u = lift + s (u0 - lift). From s = 1,
    s is halved, at most 20 times, while the peak b*t of u exceeds 0.9 or Pi
    at s/2 is lower than at s, with Pi = inf where u violates the strain
    limit: a line search on the convex Pi along the ray, which u0 overshoots
    where the law is far stiffer than linear elasticity. If u0 has to be
    scaled, its peak b*t exceeding 0.9, and the lift violates the limit,
    InadmissibleStrain is raised."""
    u0, lift, space = setup.u, setup.plan.lift, setup.u.space
    eps = strains_at_qps(u0)
    bt = _peak_bt(eps, p, space)[0]
    if bt > 0.9:
        lift_bt, xy = _peak_bt(strains_at_qps(FEField(space, lift)), p, space)
        if lift_bt >= 1.0 - DELTA_GUARD:
            raise InadmissibleStrain(
                lift_bt / p.b, location=f"(x, y) = {xy}: the b = 0 start has b t above "
                "0.9, and the Dirichlet lift it would be scaled toward (the prescribed "
                "displacements, zero at every free dof) violates the strain limit; "
                "lower mechanical_bc.top_uy, thermal_bc.Q or material.b")
    u, s = u0, 1.0
    energy = _energy(u0, p, eps, setup.f)
    for _ in range(20):
        half = FEField(space, lift + 0.5 * s * (u0.values - lift))
        half_eps = strains_at_qps(half)
        half_energy = _energy(half, p, half_eps, setup.f)
        if bt <= 0.9 and not half_energy < energy:
            break
        u, s, energy, eps = half, 0.5 * s, half_energy, half_eps
        bt = _peak_bt(eps, p, space)[0]
    return u, energy, eps


def _energy(u: FEField, p: MaterialParams, eps: np.ndarray, f: np.ndarray) -> float:
    """Pi(u) = sum_q W(eps) detJ w - f.u, with eps the strains of u; inf
    where u violates the strain limit."""
    try:
        W = strain_energy_density_m(eps, p)
    except InadmissibleStrain:
        return np.inf
    return float(np.sum(W * u.space.detJxW) - f @ u.values)


def _forcing(eta: float, r_norm: float, r_prev: float | None) -> float:
    """Eisenstat-Walker choice 2 for the forcing term of the next Newton
    system: _ETA_MAX first, then gamma (||r_k|| / ||r_k-1||)^2, kept at least
    gamma eta_k-1^2 while that exceeds 0.1, and at most _ETA_MAX."""
    if r_prev is None:
        return _ETA_MAX
    safeguard = _ETA_GAMMA * eta**2
    eta = _ETA_GAMMA * (r_norm / r_prev) ** 2
    return min(_ETA_MAX, max(eta, safeguard) if safeguard > 0.1 else eta)


def newton_solve(setup: _Setup, p: MaterialParams, cfg: PicardConfig = PicardConfig()
                 ) -> tuple[FEField, SolveReport]:
    """Newton's method on the potential energy Pi(u) = sum W(eps(u)) detJ w - f.u.

    Starts from the b=0 solution of a fresh() copy of setup (build_setup's,
    for any a and b, with any load), scaled toward the Dirichlet lift by Pi
    and the strain limit (see _scaled_start; InadmissibleStrain if the b = 0
    solution and the lift both violate the limit). Each step solves the
    consistent-tangent system, CG preconditioned by the b=0 factor and
    started from the iterate, only as far as an inexact Newton step needs
    (Dembo, Eisenstat & Steihaug, SIAM J. Numer. Anal. 19, 1982): to a
    relative residual of max(1e-12, eta ||r|| / ||rhs||), with r the
    system's residual at the iterate and eta from _forcing. It backtracks
    from step length cfg.damping, halving, until Pi rises by at most
    10 eps |Pi|; a point violating the strain limit has Pi = inf, so every
    iterate is admissible and nothing is clamped. report.residuals holds, at
    each iterate, the relative residual ||f - F_int(u)|| over the free dofs
    divided by ||F_int(u)|| over all dofs, reactions included (by load if
    F_int is zero). The increment is the L2 norm of the full Newton
    direction at the quadrature points (l2_norm), and the solve has converged
    when it is below cfg.tol and the residual at most _FORCE_TOL. If no step of at least
    2^-20 cfg.damping passes, the last iterate is returned unconverged.
    Non-convergence is reported, not raised, unless the last iterate lies
    within 2 DELTA_GUARD of the strain limit: then the load has no solution
    the guarded law can carry, and InadmissibleStrain names where.
    """
    setup = setup.fresh()
    report, space = setup.report, setup.u.space
    u, energy, eps = _scaled_start(setup, p)
    eta, r_prev = 0.0, None
    for _ in range(cfg.max_iter):
        sys = None   # freed before the next assembly, while the held LU is alive
        sys, clamps = assemble_mechanical(setup.plan, p, eps, setup.f, tangent=True)
        report.clamp_events += clamps
        r_norm = np.linalg.norm(sys.rhs - sys.matrix @ u.values)
        force = float(np.linalg.norm(sys.internal_force))
        report.residuals.append(float(r_norm) / (force or setup.load))
        eta, r_prev = _forcing(eta, r_norm, r_prev), r_norm
        tol = max(_RESIDUAL_TOL, eta * r_norm / (np.linalg.norm(sys.rhs) or 1.0))
        d = linear_solve(sys, report, x0=u.values, precond=setup.precond,
                         tol=tol) - u.values
        inc = l2_norm(space, d)
        report.increments.append(inc)
        report.iterations += 1
        step = cfg.damping
        while step >= cfg.damping * _MIN_STEP:
            trial = FEField(space, u.values + step * d)
            trial_eps = strains_at_qps(trial)
            trial_energy = _energy(trial, p, trial_eps, setup.f)
            if trial_energy <= energy + 10.0 * _EPS * abs(energy):
                u, energy, eps = trial, trial_energy, trial_eps
                break
            step *= 0.5
        if inc < cfg.tol and report.residuals[-1] <= _FORCE_TOL:
            report.converged = True
            break
        if step < cfg.damping * _MIN_STEP:
            break
    if not report.converged:
        bt, xy = _peak_bt(eps, p, space)
        if bt >= 1.0 - 2.0 * DELTA_GUARD:
            raise InadmissibleStrain(
                bt / p.b, location=f"(x, y) = {xy}, where the unconverged iterates "
                "press against the strain limit; lower thermal_bc.Q, "
                "mechanical_bc.top_uy or material.b")
    return u, report
