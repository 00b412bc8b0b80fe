"""Run configuration: parsing, validation, orchestration of a full solve.

Config files are line-based `key = value` pairs with `#` comments and
dotted keys (e.g. `material.b = 0.02`). Every omitted key has a documented
default; command-line `--key value` flags override file values.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, replace

from . import solver
from .assembly import FESpace, MechanicalBC, ThermalBC
from .constitutive import MaterialParams
from .errors import InvariantViolation, TypeMismatch, UnknownKey
from .mesh import CrackedMesh, CrackSpec, build_cracked_grid, build_grid
from .solver import (  # noqa: F401 -- picard_solve stays in this namespace for wrappers
    FEField,
    PicardConfig,
    SolveReport,
    _b0_system,
    _loaded_setup,
    newton_solve,
    picard_solve,
    solve_thermal,
)


@dataclass(frozen=True)
class RunConfig:
    """Fully validated configuration of one solve (or sweep)."""

    nx: int = 32
    ny: int = 32
    crack: CrackSpec | None = CrackSpec()
    element_order: int = 2
    lam: float = 1.0
    mu: float = 1.0
    gamma: float = 1.0
    fiber_angle: float = 0.0
    a: float = 0.5
    b: float = 0.02
    alpha_T: float = 0.01
    k: float = 1.0
    thermal_kind: str = "constant"      # constant | parabolic
    theta0: float = 100.0               # constant boundary temperature
    thermal_c: float = 400.0            # parabolic coefficient: c*x*(1-x)
    Q: float = 0.0                      # internal heat source
    top_uy: float = 0.0                 # prescribed vertical displacement d on top
    tol: float = 1e-8
    max_iter: int = 100
    damping: float = 1.0
    vtk_path: str | None = None
    csv_path: str | None = None
    sweep_parameter: str | None = None
    sweep_values: tuple[float, ...] = ()

    def material(self) -> MaterialParams:
        return MaterialParams(lam=self.lam, mu=self.mu, gamma=self.gamma,
                              fiber_angle=self.fiber_angle, a=self.a, b=self.b,
                              alpha_T=self.alpha_T, k=self.k)

    def build_mesh(self) -> CrackedMesh:
        if self.crack is None:
            return build_grid(self.nx, self.ny)
        return build_cracked_grid(self.nx, self.ny, self.crack)

    def thermal_bc(self) -> ThermalBC:
        if self.thermal_kind == "constant":
            return ThermalBC(value=self.theta0)
        c = self.thermal_c
        return ThermalBC(value=lambda x, y: c * x * (1.0 - x))

    def mechanical_bc(self) -> MechanicalBC:
        return MechanicalBC(top_uy=self.top_uy)

    def picard(self) -> PicardConfig:
        return PicardConfig(tol=self.tol, max_iter=self.max_iter, damping=self.damping)


def _parse_bool(s: str) -> bool:
    if s.lower() in ("true", "yes", "1", "on"):
        return True
    if s.lower() in ("false", "no", "0", "off", "none"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _parse_values(s: str) -> tuple[float, ...]:
    return tuple(float(v) for v in s.replace(",", " ").split())


# key -> (attribute, parser); crack.<name> is a field of RunConfig.crack
_KEYS: dict[str, tuple[str, object]] = {
    "mesh.nx": ("nx", int),
    "mesh.ny": ("ny", int),
    "mesh.crack": ("crack", _parse_bool),
    "mesh.crack_y": ("crack.y_line", float),
    "mesh.crack_mouth": ("crack.mouth_edge", str),
    "mesh.crack_tip_x": ("crack.tip_x", float),
    "element_order": ("element_order", int),
    "material.lambda": ("lam", float),
    "material.mu": ("mu", float),
    "material.gamma": ("gamma", float),
    "material.fiber_angle": ("fiber_angle", float),
    "material.a": ("a", float),
    "material.b": ("b", float),
    "material.alpha_T": ("alpha_T", float),
    "material.k": ("k", float),
    "thermal_bc.kind": ("thermal_kind", str),
    "thermal_bc.theta0": ("theta0", float),
    "thermal_bc.c": ("thermal_c", float),
    "thermal_bc.Q": ("Q", float),
    "mechanical_bc.top_uy": ("top_uy", float),
    "picard.tol": ("tol", float),
    "picard.max_iter": ("max_iter", int),
    "picard.damping": ("damping", float),
    "outputs.vtk_path": ("vtk_path", str),
    "outputs.csv_path": ("csv_path", str),
    "sweep.parameter": ("sweep_parameter", str),
    "sweep.values": ("sweep_values", _parse_values),
}


def _validate(cfg: RunConfig, lines: dict[str, int] | None = None) -> RunConfig:
    lines = lines or {}

    def bad(key, msg):
        raise InvariantViolation(key, lines.get(key, 0), msg)

    least = 1 if cfg.crack is None else 2   # a cracked grid needs an interior line
    for key, n in (("mesh.nx", cfg.nx), ("mesh.ny", cfg.ny)):
        if n < least:
            bad(key, f"{n} must be at least {least}" + (" on a cracked mesh" if cfg.crack else ""))
    if cfg.element_order not in (1, 2):
        bad("element_order", f"{cfg.element_order} must be 1 or 2")
    if cfg.thermal_kind not in ("constant", "parabolic"):
        bad("thermal_bc.kind", f"{cfg.thermal_kind!r} must be constant or parabolic")
    if cfg.sweep_parameter not in (None, "a", "b"):
        bad("sweep.parameter", f"{cfg.sweep_parameter!r} must be a or b")
    checks = [
        ("material.mu", cfg.mu > 0, f"mu={cfg.mu} must be positive"),
        ("material.a", cfg.a > 0, f"a={cfg.a} must be positive"),
        ("material.b", cfg.b >= 0, f"b={cfg.b} must be nonnegative"),
        ("material.alpha_T", cfg.alpha_T >= 0, f"alpha_T={cfg.alpha_T} must be nonnegative"),
        ("material.k", cfg.k > 0, f"k={cfg.k} must be positive"),
        ("picard.tol", cfg.tol > 0, f"tol={cfg.tol} must be positive"),
        ("picard.max_iter", cfg.max_iter >= 1, f"max_iter={cfg.max_iter} must be >= 1"),
        ("picard.damping", 0 < cfg.damping <= 1, f"damping={cfg.damping} must lie in (0, 1]"),
    ]
    for key, ok, msg in checks:
        if not ok:
            bad(key, msg)
    try:
        cfg.material()   # SPD check of the stiffness
    except Exception as exc:
        bad("material.gamma", str(exc))
    return cfg


def parse_config(text: str, overrides: dict[str, str] | None = None) -> RunConfig:
    """Parse `key = value` text plus CLI-style overrides into a RunConfig."""
    raw: dict[str, tuple[str, int]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise TypeMismatch(stripped, lineno, "expected 'key = value'")
        key, value = (s.strip() for s in stripped.split("=", 1))
        raw[key] = (value, lineno)
    for key, value in (overrides or {}).items():
        raw[key] = (value, 0)

    fields: dict[str, object] = {}
    crack_extra: dict[str, object] = {}
    crack_on = True
    for key, (value, lineno) in raw.items():
        if key not in _KEYS:
            raise UnknownKey(key, lineno, "not a recognized configuration key")
        attr, parser = _KEYS[key]
        try:
            parsed = parser(value)
        except ValueError as exc:
            raise TypeMismatch(key, lineno, str(exc)) from exc
        if attr == "crack":
            crack_on = parsed
        elif attr.startswith("crack."):
            crack_extra[attr[len("crack."):]] = parsed
        else:
            fields[attr] = parsed

    if not crack_on:
        fields["crack"] = None
    elif crack_extra:
        try:
            fields["crack"] = CrackSpec(**crack_extra)
        except ValueError as exc:
            raise InvariantViolation("mesh.crack_*", 0, str(exc)) from exc

    cfg = RunConfig(**fields)
    return _validate(cfg, lines={k: ln for k, (_, ln) in raw.items()})


_FORMAT = {
    float: "{:.17g}".format,
    _parse_bool: lambda v: "true" if v else "false",
    _parse_values: lambda vs: ",".join(f"{v:.17g}" for v in vs),
}


def _key_value(cfg: RunConfig, attr: str):
    """Value of a _KEYS attribute in cfg, or None if its key is left out:
    an unset output path or sweep parameter, empty sweep values, or the
    crack geometry of an uncracked mesh."""
    if attr == "crack":
        return cfg.crack is not None
    if attr.startswith("crack."):
        return None if cfg.crack is None else getattr(cfg.crack, attr[len("crack."):])
    if attr == "sweep_values":
        return cfg.sweep_values or None
    return getattr(cfg, attr)


def serialize_config(cfg: RunConfig) -> str:
    """Inverse of parse_config: emits every set key so a round trip is identity."""
    lines = []
    for key, (attr, parser) in _KEYS.items():
        value = _key_value(cfg, attr)
        if value is not None:
            lines.append(f"{key} = {_FORMAT.get(parser, str)(value)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Orchestration


@dataclass
class RunResult:
    """Everything produced by one sequential thermo-mechanical solve."""

    config: RunConfig
    mesh: CrackedMesh
    theta: FEField
    u: FEField
    report: SolveReport
    fields: dict


# The set-up of the last solve, keyed by its RunConfig with a and b
# neutralised, while a shared_setup() block is open in this context.
_shared: ContextVar[dict[RunConfig, solver._Setup] | None] = ContextVar("_shared", default=None)


@contextmanager
def shared_setup():
    """Within this block, run_single builds its set-up (mesh, spaces, thermal
    solve, b = 0 start and factor) once and reuses it for each following
    config that differs only in a and b. One entry is kept and dropped on
    exit; a nested block joins the open one."""
    if _shared.get() is not None:
        yield
        return
    token = _shared.set({})
    try:
        yield
    finally:
        _shared.reset(token)


def _thermal_branch(cfg: RunConfig, mesh: CrackedMesh, p: MaterialParams) -> FEField:
    """The scalar space and the thermal solve on it."""
    space = FESpace(mesh, order=cfg.element_order, components=1)
    return solve_thermal(space, p, Q_source=cfg.Q, bc=cfg.thermal_bc())


def _build_setup(cfg: RunConfig) -> solver._Setup:
    """The set-up of cfg. _thermal_branch runs on a second thread while this
    one builds the vector space and the part of the set-up that needs no
    theta; the b = 0 system gets its thermal load and is factored after the
    join, so SuperLU never runs on both threads at once. A thermal error is
    raised first, as if the two ran in sequence."""
    mesh = cfg.build_mesh()
    p = cfg.material()
    with ThreadPoolExecutor(1) as pool:
        thermal = pool.submit(_thermal_branch, cfg, mesh, p)
        try:
            u_space = FESpace(mesh, order=cfg.element_order, components=2)
            b0 = _b0_system(u_space, p, cfg.mechanical_bc())
        except BaseException:
            thermal.result()
            raise
        theta = thermal.result()
    return _loaded_setup(u_space, p, theta, b0)


def _setup(cfg: RunConfig) -> solver._Setup:
    shared = _shared.get()
    if shared is None:
        return _build_setup(cfg)
    key = replace(cfg, a=0.0, b=0.0)
    if key not in shared:
        shared.clear()
        shared[key] = _build_setup(cfg)
    return shared[key]


def run_single(cfg: RunConfig) -> RunResult:
    """Thermal solve, Newton mechanical solve, field recovery; the set-up is
    shared within a shared_setup() block, and dropped on return outside one."""
    from .postprocess import recover_fields

    setup = _setup(cfg)
    p = cfg.material()
    space = setup.u.space
    u, report = newton_solve(space, p, setup.theta, cfg.mechanical_bc(), cfg.picard(),
                             start=setup)
    fields = recover_fields(u, setup.theta, p, B=setup.B)
    return RunResult(config=cfg, mesh=space.mesh, theta=setup.theta, u=u, report=report,
                     fields=fields)
