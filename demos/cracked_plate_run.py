"""Solve the edge-cracked plate once and look at the fields.

A unit-square plate with a horizontal crack from the left edge to the
center is heated through a uniform internal source while the bottom is
held at 100 degrees. The temperature gradient loads the mechanics; the
strain-limiting law keeps strains bounded near the tip.

Run:  python3 demos/cracked_plate_run.py
"""

import numpy as np

from sltfem import RunConfig, crack_opening_profile, run_single, write_vtk

cfg = RunConfig(nx=32, ny=32, Q=100.0, b=0.02, a=0.5)
result = run_single(cfg)

rep = result.report
print(f"Newton: {rep.iterations} iterations, converged={rep.converged}, "
      f"clamp events={rep.clamp_events}")
print("increments:", " ".join(f"{v:.2e}" for v in rep.increments))

mesh = result.mesh
tip = mesh.tip_node
for name in ("stress_norm", "strain_norm", "energy_density"):
    vals = result.fields[name].values
    where = mesh.nodes[int(np.argmax(vals))]
    print(f"{name:16s} max={vals.max():.5f} at ({where[0]:.3f}, {where[1]:.3f})"
          + ("  <- crack tip" if int(np.argmax(vals)) == tip else ""))

# vertical jump across the crack faces, mouth to tip
print("\ncrack opening (x, jump):")
for x, jump in crack_opening_profile(result.u, mesh):
    print(f"  {x:5.3f}  {jump:+.3e}")

write_vtk(result.fields, mesh, "cracked_plate.vtk")
print("\nwrote cracked_plate.vtk (open with ParaView or similar)")
