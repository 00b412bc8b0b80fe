"""2D Galerkin FE solver for thermo-elasticity in transversely isotropic
strain-limiting materials: edge-cracked plates under thermal and mechanical
loading, solved sequentially (linear heat conduction, then Newton's method
on the energy of the nonlinear momentum balance)."""

from .assembly import (
    FEField,
    FESpace,
    LinearSystem,
    MechanicalBC,
    ThermalBC,
    assemble_mechanical,
    assemble_thermal,
    scalar_gradients,
    strains_at_qps,
)
from .config import RunConfig, RunResult, parse_config, run_single, serialize_config
from .constitutive import (
    DELTA_GUARD,
    MaterialParams,
    relaxation_factor_m,
    strain_energy_density_m,
    strain_from_stress_m,
    stress_from_strain_m,
    thermal_stress_m,
)
from .errors import (
    EmptyDirichlet,
    InadmissibleStrain,
    InvalidParameter,
    InvariantViolation,
    MisalignedCrack,
    NotPositiveDefinite,
    SltfemError,
    SolverBreakdown,
    TypeMismatch,
    UnknownKey,
)
from .mesh import (
    CrackedMesh,
    CrackSpec,
    build_cracked_grid,
    build_grid,
    dump_mesh,
    refine_uniform,
)
from .postprocess import (
    NodalField,
    SweepRow,
    crack_opening_profile,
    recover_fields,
    run_sweep,
    write_csv,
    write_vtk,
)
from .solver import (
    PicardConfig,
    SolveReport,
    linear_solve,
    newton_solve,
    picard_solve,
    solve_thermal,
)
from .tensors import (
    Compliance3,
    Stiffness3,
    build_compliance,
    build_stiffness,
    energy_norm_m,
)

__version__ = "0.1.0"
