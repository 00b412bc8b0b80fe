"""Run configuration: parsing, validation, orchestration of a full solve.

Config files are line-based `key = value` pairs with `#` comments and
dotted keys (e.g. `material.b = 0.02`). Every omitted key has a documented
default; command-line `--key value` flags override file values.
"""

from __future__ import annotations

import os
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor, wait
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field, replace

import numpy as np

from . import postprocess, solver
from .assembly import FESpace, MechanicalBC, ThermalBC, thermal_load
from .constitutive import MaterialParams
from .errors import (InvalidParameter, InvariantViolation, NotPositiveDefinite, TypeMismatch,
                     UnknownKey)
from .mesh import CrackedMesh, CrackSpec, build_cracked_grid, build_grid
from .solver import (  # noqa: F401 -- perfbench/tracing.py patches config.picard_solve
    FEField,
    PicardConfig,
    SolveReport,
    build_setup,
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
        if self.thermal_kind != "parabolic":
            raise InvalidParameter("thermal_kind",
                                   f"{self.thermal_kind!r} must be constant or parabolic")
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


# RunConfig attribute -> key; each attribute is named as the field of the
# type that owns it, so an InvalidParameter's field is an attribute here
_KEY_OF = {attr: key for key, (attr, _) in _KEYS.items()}


def _validate(cfg: RunConfig, lines: dict[str, int] | None = None) -> RunConfig:
    """The rules of cfg that read two fields or the mesh; every range of one
    field is checked by the type that owns it, and reported under its key."""
    lines = lines or {}

    def bad(attr, msg):
        key = _KEY_OF[attr]
        raise InvariantViolation(key, lines.get(key, 0), msg)

    least = 1 if cfg.crack is None else 2   # a cracked grid needs an interior line
    for attr, n in (("nx", cfg.nx), ("ny", cfg.ny)):
        if n < least:
            bad(attr, f"{n} must be at least {least}" + (" on a cracked mesh" if cfg.crack else ""))
    off = cfg.crack.misaligned(cfg.nx, cfg.ny) if cfg.crack else None
    if off is not None:   # the crack key if the input sets it, else the mesh key
        attr = "crack." + off[0]
        if _KEY_OF[attr] not in lines:
            attr = {"y_line": "ny", "tip_x": "nx"}[off[0]]
        bad(attr, off[1])
    if cfg.element_order not in (1, 2):
        bad("element_order", f"{cfg.element_order} must be 1 or 2")
    if cfg.sweep_parameter not in (None, "a", "b"):
        bad("sweep_parameter", f"{cfg.sweep_parameter!r} must be a or b")
    try:
        p = cfg.material()
        cfg.picard()
        cfg.thermal_bc()
    except InvalidParameter as exc:
        bad(exc.field, str(exc))
    except NotPositiveDefinite as exc:
        # 2 mu I + lam 1 (x) 1 has the eigenvalue 2 (mu + lam): with lam <= -mu
        # the isotropic part alone is indefinite, else the fiber term is to blame
        bad("lam" if cfg.lam <= -cfg.mu else "gamma", str(exc))
    for v in cfg.sweep_values if cfg.sweep_parameter else ():
        try:
            replace(p, **{cfg.sweep_parameter: v})
        except InvalidParameter as exc:
            bad("sweep_values", str(exc))
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
    crack: dict[str, object] = {}
    for key, (value, lineno) in raw.items():
        if key not in _KEYS:
            raise UnknownKey(key, lineno, "not a recognized configuration key")
        attr, parser = _KEYS[key]
        try:
            parsed = parser(value)
        except ValueError as exc:
            raise TypeMismatch(key, lineno, str(exc)) from exc
        if parser in (float, _parse_values) and not np.all(np.isfinite(parsed)):
            raise InvariantViolation(key, lineno, f"{value} must be finite")
        if attr.startswith("crack."):
            crack[attr.removeprefix("crack.")] = parsed
        else:
            fields[attr] = parsed

    lines = {k: ln for k, (_, ln) in raw.items()}
    try:   # the crack keys are checked whether or not the crack is on
        spec = CrackSpec(**crack)
    except InvalidParameter as exc:
        key = _KEY_OF["crack." + exc.field]
        raise InvariantViolation(key, lines[key], str(exc)) from exc
    fields["crack"] = spec if fields.get("crack", True) else None
    return _validate(RunConfig(**fields), lines)


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
        return None if cfg.crack is None else getattr(cfg.crack, attr.removeprefix("crack."))
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


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:   # no affinity mask on this platform
        return os.cpu_count() or 1


@dataclass
class _Block:
    """An open shared_setup() block: the set-up of its last solve, keyed by
    its RunConfig with a and b neutralised; the started solves run_single
    has not taken yet, per config; and the one pool, a thread per usable
    core, that runs each set-up's thermal branch and every started solve."""

    setups: dict[RunConfig, solver._Setup] = field(default_factory=dict)
    started: dict[RunConfig, deque[Future]] = field(default_factory=dict)
    pool: ThreadPoolExecutor = field(default_factory=lambda: ThreadPoolExecutor(
        _usable_cores(), thread_name_prefix="sltfem"))


_block: ContextVar[_Block | None] = ContextVar("_block", default=None)


@contextmanager
def shared_setup(cfgs: list[RunConfig] = ()):
    """Within this block, run_single builds its set-up (mesh, spaces, thermal
    solve, b = 0 start and factor) once and reuses it for each following
    config that differs only in a and b; a nested block joins the open one.
    The solve of each of cfgs starts here on the block's pool, from the
    set-up built on this thread, with its own fresh() factor holder (scipy's
    SuperLU releases the GIL and keeps its error state per thread). A
    run_single of an equal config then takes one started solve, in order,
    and returns its result or raises its exception. On exit the solves not
    taken are cancelled or waited for, and no thread outlives the outermost
    block."""
    block, token = _block.get(), None
    if block is None:
        block = _Block()
        token = _block.set(block)
    futures = []
    try:
        for cfg in cfgs:
            futures.append(block.pool.submit(_solve, cfg, _setup(cfg)))
            block.started.setdefault(cfg, deque()).append(futures[-1])
        yield
    finally:
        for future in futures:
            future.cancel()
        wait(futures)
        for cfg in cfgs:
            block.started.pop(cfg, None)
        if token is not None:
            _block.reset(token)
            block.pool.shutdown(cancel_futures=True)


def _setup(cfg: RunConfig) -> solver._Setup:
    """The open block's set-up of cfg, built by build_setup if it has none,
    with the thermal branch on the block's pool."""
    block = _block.get()
    shared, key = block.setups, replace(cfg, a=0.0, b=0.0)
    if key not in shared:
        shared.clear()
        p = cfg.material()
        u_space = FESpace(cfg.build_mesh(), order=cfg.element_order, components=2)

        def thermal_branch():
            space = FESpace(u_space.mesh, order=cfg.element_order, components=1)
            theta = solve_thermal(space, p, Q_source=cfg.Q, bc=cfg.thermal_bc())
            return theta, thermal_load(u_space, p, theta)

        shared[key] = build_setup(u_space, p, cfg.mechanical_bc(),
                                  block.pool.submit(thermal_branch).result)
    return shared[key]


def run_single(cfg: RunConfig) -> RunResult:
    """Thermal solve, Newton mechanical solve, field recovery, in the open
    shared_setup() block or one opened here: it takes a solve of an equal
    config started there, or solves from the block's set-up."""
    with shared_setup():
        started = _block.get().started.get(cfg)
        if started:
            return started.popleft().result()
        return _solve(cfg, _setup(cfg))


def _solve(cfg: RunConfig, setup: solver._Setup) -> RunResult:
    """Newton mechanical solve of cfg from its set-up, and field recovery."""
    p = cfg.material()
    u, report = newton_solve(setup, p, cfg.picard())
    fields = postprocess.recover_fields(u, setup.theta, p)
    return RunResult(config=cfg, mesh=u.space.mesh, theta=setup.theta, u=u, report=report,
                     fields=fields)
