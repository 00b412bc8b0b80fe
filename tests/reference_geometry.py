"""Per-element geometry from the bilinear map of each element's four corners.

FESpace keeps only the reference element and each element's size. This is
the general isoparametric computation it replaced, kept as the tests'
reference for gradients, weights and strain-displacement matrices, so the
oracles do not share their geometry with the code under test.
"""

import numpy as np

from sltfem.assembly import shape_functions
from sltfem.mesh import build_cracked_grid
from sltfem.tensors import SQRT2


def bilinear_geometry(space):
    """dNdx (ne, nqp, nloc, 2), detJxW (ne, nqp) and the Mandel B-matrices
    (ne, nqp, 3, 2 nloc), eps = B @ u_local, of space's basis at its
    quadrature points, through the Jacobian of each element's bilinear map."""
    _, dN = shape_functions(space.order, space.qp_ref)
    _, dNgeo = shape_functions(1, space.qp_ref)
    X = space.mesh.nodes[space.mesh.elements]               # (ne, 4, 2)
    J = np.einsum("eai,qak->eqik", X, dNgeo)                # d x_i / d xi_k
    detJ = J[..., 0, 0] * J[..., 1, 1] - J[..., 0, 1] * J[..., 1, 0]
    assert np.all(detJ > 0)
    invJ = np.empty_like(J)
    invJ[..., 0, 0] = J[..., 1, 1] / detJ
    invJ[..., 1, 1] = J[..., 0, 0] / detJ
    invJ[..., 0, 1] = -J[..., 0, 1] / detJ
    invJ[..., 1, 0] = -J[..., 1, 0] / detJ
    dNdx = dN @ invJ
    ne, nqp, nloc, _ = dNdx.shape
    B = np.zeros((ne, nqp, 3, 2 * nloc))
    B[:, :, 0, 0::2] = dNdx[..., 0]
    B[:, :, 1, 1::2] = dNdx[..., 1]
    B[:, :, 2, 0::2] = dNdx[..., 1] / SQRT2
    B[:, :, 2, 1::2] = dNdx[..., 0] / SQRT2
    return dNdx, detJ * space.qp_w, B


def graded_cracked_grid(n=8):
    """Cracked n x n grid with node x-coordinates mapped by x -> x^2: still
    axis-aligned rectangles, but of unequal width."""
    mesh = build_cracked_grid(n, n)
    mesh.nodes[:, 0] **= 2
    return mesh
