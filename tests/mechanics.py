"""The standalone (space, theta, bc) form of the mechanics calls.

newton_solve and picard_solve take a build_setup set-up, and
assemble_mechanical a plan, strains and a load. Most tests start from a
displacement space, a temperature field and a boundary condition; these
helpers build what the library calls take from them, the way run_single
does, so each test states only its inputs.
"""

from sltfem.assembly import AssemblyPlan, assemble_mechanical, strains_at_qps, thermal_load
from sltfem.solver import PicardConfig, build_setup, newton_solve, picard_solve


def setup_of(space, p, theta, bc):
    """The set-up of a solve on space with theta's thermal load."""
    return build_setup(space, p, bc, lambda: (theta, thermal_load(space, p, theta)))


def newton(space, p, theta, bc, cfg=PicardConfig()):
    return newton_solve(setup_of(space, p, theta, bc), p, cfg)


def picard(space, p, theta, bc, cfg=PicardConfig()):
    return picard_solve(setup_of(space, p, theta, bc), p, cfg)


def mechanical(space, p, theta, u, bc, tangent=False):
    """The Picard (or, with tangent, Newton) system linearized at u, with a
    plan of bc and theta's thermal load."""
    return assemble_mechanical(AssemblyPlan(space, bc), p, strains_at_qps(u),
                               thermal_load(space, p, theta), tangent)
