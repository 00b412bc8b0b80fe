"""Traced peak allocations of the solve path, in multiples of the bytes of
the tangent's float64 data.

numpy reports its data allocations to tracemalloc, so these peaks repeat
exactly from run to run. A whole second copy of the system or of the
element matrices shows as about one more multiple: a copy of the
matrix's data is 1 of them, as is its |A|, and the (ne, m, m) element
matrices of a Q2 assembly 1.3.
"""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from sltfem.assembly import (
    AssemblyPlan,
    FEField,
    FESpace,
    assemble_mechanical,
    strains_at_qps,
    thermal_load,
)
from sltfem.cli import scenario_config
from sltfem.solver import Preconditioner, SolveReport, linear_solve, solve_thermal


@pytest.fixture(scope="module")
def plate():
    """The 48x48 Q2 plate's tangent system at its b = 0 solution (a function
    that assembles it), that solution, and the float32 factor of its b = 0
    system."""
    cfg = scenario_config("x", "constant", 48, 48, order=2)
    p, bc = cfg.material(), cfg.mechanical_bc()
    space = FESpace(cfg.build_mesh(), order=2, components=2)
    theta = solve_thermal(FESpace(space.mesh, order=2), p, cfg.Q, cfg.thermal_bc())
    plan = AssemblyPlan(space, bc)
    f = thermal_load(space, p, theta)
    sys0, _ = assemble_mechanical(plan, replace(p, b=0.0),
                                  strains_at_qps(FEField.zero(space)), f)
    precond = Preconditioner()
    u = FEField(space, linear_solve(sys0, precond=precond))
    eps = strains_at_qps(u)

    def tangent():
        return assemble_mechanical(plan, p, eps, f, tangent=True)[0]

    return tangent, u, precond.lu


def traced_peak(fn):
    """fn's result and the peak of the memory traced while it ran."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_tangent_assembly_makes_no_element_matrix_array(plate):
    tangent, _, _ = plate
    sys, peak = traced_peak(tangent)
    assert peak < 3.0 * sys.matrix.data.nbytes


def test_tight_linear_solve_makes_no_copy_of_the_matrix(plate):
    tangent, u, lu = plate
    sys = tangent()
    report = SolveReport()
    x, peak = traced_peak(lambda: linear_solve(sys, report, x0=u.values,
                                               precond=Preconditioner(lu), tol=1e-12))
    assert report.factorizations == 0 and np.all(np.isfinite(x))
    assert peak < 2.0 * sys.matrix.data.nbytes
