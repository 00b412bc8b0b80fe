"""Derived-field recovery, crack profiles, parameter sweeps, and file output."""

from __future__ import annotations

import csv
import dataclasses
import io
from dataclasses import dataclass, replace

import numpy as np

from . import config
from .assembly import FEField, shape_functions, strains_at_qps
from .constitutive import (
    MaterialParams,
    strain_energy_density_m,
    stress_from_strain_m,
    thermal_stress_m,
)
from .errors import InadmissibleStrain
from .mesh import CrackedMesh
from .tensors import SQRT2


@dataclass
class NodalField:
    """Per-mesh-node values; crack-face duplicates carry independent values."""

    mesh: CrackedMesh
    values: np.ndarray        # (n_nodes,) scalar or (n_nodes, 3) Mandel
    name: str
    units: str = ""

    @property
    def is_tensor(self) -> bool:
        return self.values.ndim == 2


@dataclass
class SweepRow:
    """Headline scalars of one solve in a parameter sweep."""

    parameter: str
    value: float
    max_stress_norm: float
    max_strain_norm: float
    max_principal_stress: float
    min_principal_stress: float
    max_principal_strain: float
    min_principal_strain: float
    converged: bool
    iterations: int


def _principal_values(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (max, min) of an array of Mandel vectors."""
    mean = 0.5 * (m[..., 0] + m[..., 1])
    rad = np.hypot(0.5 * (m[..., 0] - m[..., 1]), m[..., 2] / SQRT2)
    return mean + rad, mean - rad


def _project_to_nodes(space, qp_values: np.ndarray) -> np.ndarray:
    """Volume-weighted average of adjacent quadrature values at each mesh node.

    Each quadrature value enters with weight w*detJ*N_a(qp), the bilinear
    shape value of the node (a lumped L2 projection), so quadrature points
    nearest a node dominate its average. Exact for element-wise constants.
    qp_values has shape (ne, nqp, m); the result (n_nodes, m).
    """
    Ngeo, _ = shape_functions(1, space.qp_ref)          # (nqp, 4)
    w = Ngeo.T[None] * space.detJxW[:, None, :]         # (ne, 4, nqp)
    nodes, n_nodes = space.mesh.elements.ravel(), space.mesh.n_nodes
    values = (w @ qp_values).reshape(nodes.size, -1)
    acc = np.column_stack([np.bincount(nodes, weights=c, minlength=n_nodes) for c in values.T])
    wacc = np.bincount(nodes, weights=w.sum(axis=2).ravel(), minlength=n_nodes)
    return acc / wacc[:, None]


def recover_fields(u: FEField, theta: FEField | None, p: MaterialParams) -> dict[str, NodalField]:
    """Nodal strain, stress, thermal stress, energy density, norms, principals.

    Raises InadmissibleStrain, naming the (x, y) of the peak, if any quadrature
    strain violates the bound, which signals a clamped, non-physical state.
    """
    space = u.space
    mesh = space.mesh
    eps = strains_at_qps(u)                              # (ne, nqp, 3)
    try:
        sig = stress_from_strain_m(eps, p)
    except InadmissibleStrain as exc:
        x, y = space.qp_xy[exc.location]
        raise InadmissibleStrain(exc.t, location=f"(x, y) = ({x:.6g}, {y:.6g})") from None
    theta_qp = (np.einsum("ea,qa->eq", theta.element_values(), theta.space.N)
                if theta is not None else np.zeros(eps.shape[:2]))
    sig_th = thermal_stress_m(sig, theta_qp, p)
    W = strain_energy_density_m(eps, p)
    smax, smin = _principal_values(sig)
    emax, emin = _principal_values(eps)
    qp_fields = [   # (name, quadrature values (ne, nqp) or (ne, nqp, 3), units)
        ("strain", eps, "-"),
        ("stress", sig, "stress"),
        ("thermal_stress", sig_th, "stress"),
        ("energy_density", W, "stress"),
        ("strain_norm", np.linalg.norm(eps, axis=-1), ""),
        ("stress_norm", np.linalg.norm(sig, axis=-1), "stress"),
        ("principal_stress_max", smax, "stress"),
        ("principal_stress_min", smin, "stress"),
        ("principal_strain_max", emax, ""),
        ("principal_strain_min", emin, ""),
    ]
    # One projection of every field's quadrature values, stacked as columns.
    columns = [v if v.ndim == 3 else v[..., None] for _, v, _ in qp_fields]
    nodal = _project_to_nodes(space, np.concatenate(columns, axis=-1))
    out: dict[str, NodalField] = {}
    start = 0
    for (name, v, units), c in zip(qp_fields, columns):
        values = nodal[:, start:start + c.shape[-1]]
        start += c.shape[-1]
        out[name] = NodalField(mesh, values if v.ndim == 3 else values[:, 0], name, units)
    return out


def crack_opening_profile(u: FEField, mesh: CrackedMesh) -> list[tuple[float, float]]:
    """Vertical jump u_y(upper) - u_y(lower) per face pair, mouth to tip."""
    rows = []
    for upper, lower in mesh.face_pairs:
        x = float(mesh.nodes[upper, 0])
        jump = float(u.values[2 * upper + 1] - u.values[2 * lower + 1])
        rows.append((x, jump))
    return rows


def run_sweep(base_config, parameter: str, values) -> list["SweepRow"]:
    """One full solve per parameter value on the identical mesh.

    config.shared_setup(cfgs) builds the one set-up (mesh, spaces, theta,
    b = 0 start and factor) on this thread, its thermal branch on the
    block's pool, and starts every value's solve from it on that pool, one
    worker thread per usable core. Each value's result is then taken by
    config.run_single, looked up per call, once per value in value order on
    this thread; a value's exception is raised at its turn. Returns or
    raises only once every started solve has finished or been cancelled.
    """
    if parameter not in ("a", "b"):
        raise ValueError("sweep parameter must be 'a' or 'b'")
    values = [float(v) for v in values]
    if not values:
        raise ValueError("sweep needs at least one value")
    cfgs = [replace(base_config, **{parameter: v}) for v in values]
    rows = []
    with config.shared_setup(cfgs):
        for v, cfg in zip(values, cfgs):
            result = config.run_single(cfg)
            fields = result.fields
            rows.append(SweepRow(
                parameter=parameter,
                value=v,
                max_stress_norm=float(fields["stress_norm"].values.max()),
                max_strain_norm=float(fields["strain_norm"].values.max()),
                max_principal_stress=float(fields["principal_stress_max"].values.max()),
                min_principal_stress=float(fields["principal_stress_min"].values.min()),
                max_principal_strain=float(fields["principal_strain_max"].values.max()),
                min_principal_strain=float(fields["principal_strain_min"].values.min()),
                converged=result.report.converged,
                iterations=result.report.iterations,
            ))
    return rows


# ---------------------------------------------------------------------------
# File emission


def write_vtk(fields: dict[str, NodalField], mesh: CrackedMesh, path) -> None:
    """Legacy ASCII VTK unstructured grid with per-point data."""
    with open(path, "w") as fh:
        fh.write("# vtk DataFile Version 3.0\n")
        fh.write("sltfem output\n")
        fh.write("ASCII\n")
        fh.write("DATASET UNSTRUCTURED_GRID\n")
        fh.write(f"POINTS {mesh.n_nodes} double\n")
        np.savetxt(fh, mesh.nodes, fmt="%.17g %.17g 0")
        ne = mesh.n_elements
        fh.write(f"CELLS {ne} {5 * ne}\n")
        np.savetxt(fh, mesh.elements, fmt="4 %d %d %d %d")
        fh.write(f"CELL_TYPES {ne}\n")
        fh.write("9\n" * ne)
        fh.write(f"POINT_DATA {mesh.n_nodes}\n")
        for name, fld in fields.items():
            vals = fld.values
            if fld.is_tensor and vals.shape[1] == 3:
                fh.write(f"TENSORS {name} double\n")
                off = vals[:, 2] / SQRT2
                np.savetxt(fh, np.column_stack([vals[:, 0], off, off, vals[:, 1]]),
                           fmt="%.17g %.17g 0\n%.17g %.17g 0\n0 0 0")
            elif vals.ndim == 2 and vals.shape[1] == 2:
                fh.write(f"VECTORS {name} double\n")
                np.savetxt(fh, vals, fmt="%.17g %.17g 0")
            else:
                fh.write(f"SCALARS {name} double 1\n")
                fh.write("LOOKUP_TABLE default\n")
                np.savetxt(fh, vals, fmt="%.17g")


def _fmt(v) -> str:
    if isinstance(v, bool):
        return str(int(v))
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def write_csv(rows, path) -> None:
    """Full-precision CSV. Accepts SweepRow lists or (x, value) pair lists."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if rows and isinstance(rows[0], SweepRow):
        header = [f.name for f in dataclasses.fields(SweepRow)]
        writer.writerow(header)
        for r in rows:
            writer.writerow([_fmt(getattr(r, h)) for h in header])
    else:
        writer.writerow(["x", "value"])
        for x, v in rows:
            writer.writerow([_fmt(float(x)), _fmt(float(v))])
    with open(path, "w", newline="") as fh:
        fh.write(buf.getvalue())
