"""Convergence of the nonlinear mechanics to a manufactured solution.

On the uncracked unit square, clamped on every side, the exact field is
u*_x = A sin(pi x) sin(pi y), u*_y = A x cos(pi x / 2) sin(pi y), which is
zero on the boundary. Its body force -div sigma(eps(u*)) is written in closed
form: with sigma = phi(t) E eps, d sigma / dx_k = phi E d_k eps + phi'(t)
(d_k t) E eps, d_k t = (E eps . d_k eps) / t and phi' = b^a t^(a-1)
phi^(1+a). It is integrated at the space's quadrature points and enters the
solve as the set-up's load (method of manufactured solutions: Roache,
Verification and Validation in Computational Science and Engineering, 1998).
Errors are measured with a richer rule, order + 3 points per direction.

The coupled case adds the temperature theta* = T cos(pi x) y (2 - y), zero on
the bottom and of zero normal flux on the other sides, as the thermal BC
requires. theta_h is solved with the heat source -k lap theta*, and the load
is thermal_load(theta_h) plus the closed form -div sigma(eps(u*)) + alpha
grad theta*, so the theta -> load coupling is checked against an oracle of
its own.
"""

import functools
import math
from dataclasses import replace

import numpy as np
import pytest

from sltfem import MaterialParams, build_grid
from sltfem.assembly import FEField, FESpace, MechanicalBC, ThermalBC, strains_at_qps, thermal_load
from sltfem.mesh import GAMMA1, GAMMA2, GAMMA4
from sltfem.solver import PicardConfig, build_setup, newton_solve, solve_thermal
from sltfem.tensors import SQRT2, energy_norm_m

P = MaterialParams(fiber_angle=0.3, a=0.5, b=0.5, alpha_T=0.0)
P_COUPLED = replace(P, alpha_T=0.02)
T = 50.0
CLAMPED = MechanicalBC(extra={tag: (0.0, 0.0) for tag in (GAMMA1, GAMMA2, GAMMA4)})
SIZES = (4, 8, 16, 32)


def exact(A, xy):
    """u* (..., 2), its gradient G[..., c, i] = d_i u*_c and its second
    derivatives H[..., c, i, k] = d_k d_i u*_c at the points xy (..., 2).
    Each u*_c is A X_c(x) Y(y); X[m] and Y[m] hold the m-th derivatives."""
    x, y = xy[..., 0], xy[..., 1]
    pi = math.pi
    sx, sh, ch = np.sin(pi * x), np.sin(0.5 * pi * x), np.cos(0.5 * pi * x)
    X = [(sx, x * ch),
         (pi * np.cos(pi * x), ch - 0.5 * pi * x * sh),
         (-pi**2 * sx, -pi * sh - 0.25 * pi**2 * x * ch)]
    sy = np.sin(pi * y)
    Y = (sy, pi * np.cos(pi * y), -pi**2 * sy)

    def d(m, n):   # d^m/dx^m d^n/dy^n of (u*_x, u*_y)
        return A * np.stack([X[m][0] * Y[n], X[m][1] * Y[n]], axis=-1)

    G = np.stack([d(1, 0), d(0, 1)], axis=-1)
    H = np.stack([np.stack([d(2, 0), d(1, 1)], axis=-1),
                  np.stack([d(1, 1), d(0, 2)], axis=-1)], axis=-2)
    return d(0, 0), G, H


def mandel(g):
    """Mandel strain (..., 3) of a displacement gradient g[..., c, i]."""
    return np.stack([g[..., 0, 0], g[..., 1, 1], (g[..., 0, 1] + g[..., 1, 0]) / SQRT2], axis=-1)


def body_force(A, xy):
    """-div sigma(eps(u*)) at the points xy, (..., 2)."""
    _, G, H = exact(A, xy)
    E, a, b = P.E.entries, P.a, P.b
    eps = mandel(G)
    E_eps = eps @ E
    t = energy_norm_m(eps, E)
    phi = (1.0 - (b * t) ** a) ** (-1.0 / a)
    dsigma = []
    for k in (0, 1):
        d_eps = mandel(H[..., k])
        dphi = b**a * t ** (a - 2.0) * phi ** (1.0 + a) * np.sum(E_eps * d_eps, axis=-1)
        dsigma.append(phi[..., None] * (d_eps @ E) + dphi[..., None] * E_eps)
    dx, dy = dsigma   # d sigma / dx and d sigma / dy, Mandel
    return -np.stack([dx[..., 0] + dy[..., 2] / SQRT2, dx[..., 2] / SQRT2 + dy[..., 1]], axis=-1)


def theta_star(xy):
    """theta* and its gradient (..., 2) at the points xy."""
    x, y = xy[..., 0], xy[..., 1]
    c, w = np.cos(math.pi * x), y * (2.0 - y)
    return T * c * w, T * np.stack([-math.pi * np.sin(math.pi * x) * w, c * (2.0 - 2.0 * y)],
                                   axis=-1)


def heat_source(x, y):
    """-k lap theta* at (x, y)."""
    return P_COUPLED.k * T * math.cos(math.pi * x) * (math.pi**2 * y * (2.0 - y) + 2.0)


@functools.cache
def study(A, order, coupled=False):
    """Per mesh size: the L2 error of u, the energy-norm error of its strain,
    the L2 error of theta_h (None without coupling) and the Newton report."""
    p = P_COUPLED if coupled else P
    out = []
    for n in SIZES:
        mesh = build_grid(n, n)
        space = FESpace(mesh, order=order, components=2)
        force, theta = body_force(A, space.qp_xy), None
        if coupled:
            force += p.alpha * theta_star(space.qp_xy)[1]
            theta = solve_thermal(FESpace(mesh, order=order), p, Q_source=heat_source,
                                  bc=ThermalBC(value=0.0))
        f_local = np.einsum("eqc,qa,eq->eac", force, space.N, space.detJxW)
        f = np.bincount(space.vector_dofs(space.element_dofs).ravel(),
                        weights=f_local.ravel(), minlength=space.n_dofs)
        f += thermal_load(space, p, theta)
        setup = build_setup(space, p, CLAMPED, lambda: (theta, f))
        u, report = newton_solve(setup, p, PicardConfig(tol=1e-12))
        rich = FESpace(mesh, order=order, components=2, n_quad=order + 3)
        u_star, G, _ = exact(A, rich.qp_xy)
        u_h = rich.N @ FEField(rich, u.values).element_values()
        d_eps = strains_at_qps(FEField(rich, u.values)) - mandel(G)
        l2 = math.sqrt(np.sum((u_h - u_star) ** 2 * rich.detJxW[..., None]))
        energy = math.sqrt(np.sum(energy_norm_m(d_eps, P.E.entries) ** 2 * rich.detJxW))
        theta_l2 = None
        if coupled:
            rich_s = FESpace(mesh, order=order, n_quad=order + 3)
            theta_h = np.einsum("ea,qa->eq", FEField(rich_s, theta.values).element_values(),
                                rich_s.N)
            theta_l2 = math.sqrt(np.sum((theta_h - theta_star(rich_s.qp_xy)[0]) ** 2
                                        * rich_s.detJxW))
        out.append((l2, energy, theta_l2, report))
    return out


def rates(errors):
    return [math.log2(coarse / fine) for coarse, fine in zip(errors, errors[1:])]


@pytest.mark.parametrize("A, peak", [(0.1, 0.33), (0.3, 0.98)])
def test_exact_field_is_admissible(A, peak):
    xy = np.stack(np.meshgrid(*2 * [np.linspace(0.0, 1.0, 201)]), axis=-1)
    bt = P.b * energy_norm_m(mandel(exact(A, xy)[1]), P.E.entries)
    assert bt.max() == pytest.approx(peak, abs=0.01)


@pytest.mark.parametrize("order, l2_rate, energy_rate", [(1, (2, 0.15), (1, 0.1)),
                                                         (2, (3, 0.2), (2, 0.15))])
def test_rates_away_from_the_limit(order, l2_rate, energy_rate):
    """A = 0.1, peak b t 0.33: the rates of the linear theory, h^(p+1) in
    L2 and h^p in energy."""
    results = study(0.1, order)
    assert all(report.converged for *_, report in results)
    for k, (rate, tol) in enumerate((l2_rate, energy_rate)):
        assert rates([r[k] for r in results]) == pytest.approx([rate] * 3, abs=tol)


@pytest.mark.parametrize("order", [1, 2])
def test_errors_fall_near_the_limit(order):
    """A = 0.3, peak b t 0.98: every solve converges and each error is below
    the one on the coarser mesh; the rates there are pre-asymptotic."""
    results = study(0.3, order)
    assert all(report.converged for *_, report in results)
    for k in (0, 1):
        assert all(rate > 0.0 for rate in rates([r[k] for r in results]))


@pytest.mark.parametrize("order, l2_rate, energy_rate, theta_rate",
                         [(1, (2, 0.15), (1, 0.1), (2, 0.15)),
                          (2, (3, 0.2), (2, 0.15), (3, 0.2))])
def test_rates_with_the_thermal_load(order, l2_rate, energy_rate, theta_rate):
    """alpha_T = 0.02 at A = 0.1: u keeps the rates of the uncoupled case,
    and theta_h converges at h^(p+1) in L2. A wrong sign or factor of
    thermal_load leaves an error of order one, and the u rates fall to 0."""
    results = study(0.1, order, coupled=True)
    assert all(report.converged for *_, report in results)
    for k, (rate, tol) in enumerate((l2_rate, energy_rate, theta_rate)):
        assert rates([r[k] for r in results]) == pytest.approx([rate] * 3, abs=tol)
