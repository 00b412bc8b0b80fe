"""Command-line entry point: solve, sweep, reproduce, mesh-dump.

Exit status: 0 success; 2 the nonlinear iteration did not converge, or a usage
error reported by the argument parser (an unknown command or option, or a sweep
with no parameter or no values); 1 any other error.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path

from .config import RunConfig, RunResult, parse_config, run_single, shared_setup
from .errors import SltfemError, TypeMismatch
from .mesh import dump_mesh
from .postprocess import NodalField, crack_opening_profile, run_sweep, write_csv, write_vtk

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NOT_CONVERGED = 2


def _print_summary(result: RunResult, out=None) -> None:
    out = out or sys.stdout
    rep = result.report
    print("== solve summary ==", file=out)
    print(f"mesh: {result.config.nx}x{result.config.ny}, order {result.config.element_order}, "
          f"crack={'yes' if result.config.crack is not None else 'no'}", file=out)
    print(f"picard: iterations={rep.iterations} converged={rep.converged} "
          f"clamp_events={rep.clamp_events}", file=out)
    if rep.increments:
        inc = " ".join(f"{v:.3e}" for v in rep.increments[-5:])
        print(f"last increments: {inc}", file=out)
    for name in ("stress_norm", "strain_norm"):
        vals = result.fields[name].values
        print(f"{name}: max={vals.max():.6g} min={vals.min():.6g}", file=out)
    for name in ("principal_stress_max", "principal_strain_max"):
        vals = result.fields[name].values
        print(f"{name}: max={vals.max():.6g}", file=out)


def run(config: RunConfig, out=None) -> int:
    """Full sequential run: thermal, mechanical, recovery, outputs, summary."""
    out = out or sys.stdout
    try:
        result = run_single(config)
    except SltfemError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    _print_summary(result, out=out)
    if config.vtk_path:
        fields = dict(result.fields)
        # include the primary solution fields alongside the recovered ones
        n = result.mesh.n_nodes
        fields["displacement"] = NodalField(
            result.mesh, result.u.values[: 2 * n].reshape(n, 2), "displacement")
        fields["temperature"] = NodalField(
            result.mesh, result.theta.values[:n], "temperature")
        write_vtk(fields, result.mesh, config.vtk_path)
        print(f"wrote {config.vtk_path}", file=out)
    if config.csv_path and result.mesh.face_pairs:
        write_csv(crack_opening_profile(result.u, result.mesh), config.csv_path)
        print(f"wrote {config.csv_path}", file=out)
    return EXIT_OK if result.report.converged else EXIT_NOT_CONVERGED


# ---------------------------------------------------------------------------
# Reproduction suite: 2 fiber orientations x 2 thermal loads x {b,a} sweeps


B_SWEEP = (0.0, 0.01, 0.02, 0.03)
A_SWEEP = (0.1, 0.5, 1.0)

# A perfectly uniform temperature produces no thermal gradient and hence no
# mechanical load at all, so the constant-temperature scenarios carry a
# uniform internal heat source; the resulting temperature gradient is the
# thermal driving force, as in the gradient-driven parabolic case.
CONSTANT_THETA_SOURCE = 100.0


def scenario_config(fiber: str, thermal: str, nx: int = 32, ny: int = 32,
                    order: int = 2) -> RunConfig:
    """One of the four edge-cracked-plate scenario cells."""
    if fiber not in ("x", "y"):
        raise ValueError("fiber must be 'x' or 'y'")
    if thermal not in ("constant", "parabolic"):
        raise ValueError("thermal must be 'constant' or 'parabolic'")
    return RunConfig(
        nx=nx, ny=ny, element_order=order,
        fiber_angle=0.0 if fiber == "x" else math.pi / 2.0,
        thermal_kind=thermal,
        Q=CONSTANT_THETA_SOURCE if thermal == "constant" else 0.0,
    )


def _monotone(vals, decreasing: bool) -> bool:
    pairs = zip(vals, vals[1:])
    return all(u > v for u, v in pairs) if decreasing else all(u < v for u, v in pairs)


def run_reproduction_suite(out_dir="reproduction", nx: int = 32, ny: int = 32,
                           order: int = 2, out=None) -> dict:
    """The 2x2x2 grid of scenario sweeps with per-cell trend checks.

    Emits one CSV per cell and returns {cell_name: {'rows': ..., 'trend_ok': bool}}.
    """
    out = out or sys.stdout
    out_path = Path(out_dir)
    out_path.mkdir(parents=True, exist_ok=True)
    report = {}
    failures = 0
    for fiber in ("x", "y"):
        for thermal in ("constant", "parabolic"):
            base = scenario_config(fiber, thermal, nx=nx, ny=ny, order=order)
            with shared_setup():   # its b- and a-sweep share one set-up
                for param, values in (("b", B_SWEEP), ("a", A_SWEEP)):
                    cell = f"fiber_{fiber}_{thermal}_{param}_sweep"
                    cfg = base if param == "b" else replace(base, b=0.02)
                    rows = run_sweep(cfg, param, values)
                    write_csv(rows, out_path / f"{cell}.csv")
                    stresses = [r.max_stress_norm for r in rows]
                    strains = [r.max_strain_norm for r in rows]
                    decreasing = param == "b"
                    strain_ok = (_monotone(strains, decreasing)
                                 and all(r.converged for r in rows))
                    stress_ok = _monotone(stresses, decreasing)
                    failures += not strain_ok
                    report[cell] = {"rows": rows, "trend_ok": strain_ok,
                                    "stress_trend_ok": stress_ok}
                    print(f"{cell}: strain trend {'PASS' if strain_ok else 'FAIL'} "
                          f"(strain {strains[0]:.4g} -> {strains[-1]:.4g}), "
                          f"stress trend {'PASS' if stress_ok else 'FAIL'} "
                          f"(stress {stresses[0]:.4g} -> {stresses[-1]:.4g})", file=out)
    print(f"reproduction suite: {len(report) - failures}/{len(report)} cells pass "
          "(pass/fail tracks the strain trend; the bounded-strain law necessarily "
          "amplifies peak stress as b grows, see README)", file=out)
    return report


# ---------------------------------------------------------------------------
# Argument parsing


def _load_config(path: str | None, overrides: dict[str, str]) -> RunConfig:
    try:
        text = Path(path).read_text(encoding="utf-8") if path else ""
    except UnicodeDecodeError as exc:
        raise SltfemError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    return parse_config(text, overrides=overrides)


# options owned by each subcommand; any other --flag is a config override
_COMMAND_FLAGS = {
    "solve": set(),
    "sweep": {"--param", "--values", "--out"},
    "reproduce": {"--out", "--nx", "--ny", "--order"},
    "mesh-dump": set(),
}


def _split_overrides(argv: list[str]) -> tuple[list[str], dict[str, str]]:
    """Pull `--key value` config overrides out of argv before argparse runs."""
    if not argv or argv[0] not in _COMMAND_FLAGS:
        return argv, {}
    known = _COMMAND_FLAGS[argv[0]]
    kept, pairs = [argv[0]], {}
    i = 1
    while i < len(argv):
        tok = argv[i]
        if tok.startswith("--") and tok not in known and tok != "--help":
            if i + 1 >= len(argv) or argv[i + 1].startswith("--"):
                raise TypeMismatch(tok[2:], 0, "missing value")
            pairs[tok[2:]] = argv[i + 1]
            i += 2
        else:
            kept.append(tok)
            i += 1
    return kept, pairs


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="sltfem",
        description="FE solver for thermo-elastic edge-cracked plates in "
                    "strain-limiting transversely isotropic materials")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run one configuration")
    p_solve.add_argument("config", nargs="?", help="config file (key = value lines)")

    p_sweep = sub.add_parser("sweep", help="parameter sweep over a or b")
    p_sweep.add_argument("config", nargs="?")
    p_sweep.add_argument("--param", choices=("a", "b"),
                         help="swept parameter (overrides sweep.parameter)")
    p_sweep.add_argument("--values",
                         help="comma-separated parameter values (overrides sweep.values)")
    p_sweep.add_argument("--out", default="sweep.csv", help="output CSV path")

    p_rep = sub.add_parser("reproduce", help="run the full scenario-sweep grid")
    p_rep.add_argument("--out", default="reproduction")
    p_rep.add_argument("--nx", type=int, default=32)
    p_rep.add_argument("--ny", type=int, default=32)
    p_rep.add_argument("--order", type=int, default=2, choices=(1, 2))

    p_dump = sub.add_parser("mesh-dump", help="print the mesh as plain text")
    p_dump.add_argument("config", nargs="?")

    try:
        argv, overrides = _split_overrides(list(sys.argv[1:] if argv is None else argv))
        args = parser.parse_args(argv)
        if args.command == "reproduce" and overrides:
            parser.error(f"unrecognized arguments: {' '.join('--' + k for k in overrides)}")
        if args.command == "reproduce" and min(args.nx, args.ny) < 2:
            p_rep.error("--nx and --ny must be at least 2 on a cracked mesh")
        if args.command == "solve":
            cfg = _load_config(args.config, overrides)
            return run(cfg)
        if args.command == "sweep":
            for key, flag in (("sweep.parameter", args.param), ("sweep.values", args.values)):
                if flag is not None:
                    overrides[key] = flag
            cfg = _load_config(args.config, overrides)
            if cfg.sweep_parameter is None or not cfg.sweep_values:
                p_sweep.error("needs --param and --values, or the keys "
                              "sweep.parameter and sweep.values")
            rows = run_sweep(cfg, cfg.sweep_parameter, cfg.sweep_values)
            write_csv(rows, args.out)
            print(f"wrote {args.out}")
            return EXIT_OK if all(r.converged for r in rows) else EXIT_NOT_CONVERGED
        if args.command == "reproduce":
            report = run_reproduction_suite(args.out, nx=args.nx, ny=args.ny,
                                            order=args.order)
            ok = all(cell["trend_ok"] for cell in report.values())
            return EXIT_OK if ok else EXIT_NOT_CONVERGED
        if args.command == "mesh-dump":
            cfg = _load_config(args.config, overrides)
            sys.stdout.write(dump_mesh(cfg.build_mesh()))
            return EXIT_OK
    except (SltfemError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    return EXIT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
