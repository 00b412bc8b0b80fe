"""Q1/Q2 finite element spaces on quads and system assembly.

Geometry is bilinear (the four mesh corners); Q2 fields add edge-midpoint
and cell-center degrees of freedom on top of the mesh nodes. Crack-face
edges split automatically because the seam duplicates their corner nodes,
which changes the edge keys. Dirichlet conditions are imposed by symmetric
elimination so the reduced matrix stays SPD.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .constitutive import MaterialParams, relaxation_factor_m
from .errors import EmptyDirichlet
from .mesh import GAMMA1, GAMMA3, CrackedMesh
from .tensors import SQRT2, energy_norm_m


# ---------------------------------------------------------------------------
# Reference shape functions on [-1, 1]^2


def _lagrange_1d(order: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Values and derivatives of the 1D Lagrange basis at points x.

    Order 1: nodes {-1, 1}; order 2: nodes {-1, 0, 1}. Returns (vals, ders)
    with shape (npts, order+1).
    """
    x = np.asarray(x, dtype=float)
    if order == 1:
        vals = np.stack([0.5 * (1 - x), 0.5 * (1 + x)], axis=-1)
        ders = np.stack([-0.5 * np.ones_like(x), 0.5 * np.ones_like(x)], axis=-1)
    elif order == 2:
        vals = np.stack([0.5 * x * (x - 1), 1 - x**2, 0.5 * x * (x + 1)], axis=-1)
        ders = np.stack([x - 0.5, -2 * x, x + 0.5], axis=-1)
    else:
        raise ValueError(f"unsupported order {order}")
    return vals, ders


# Local node layout: corners CCW, then edge midpoints (bottom, right, top,
# left), then center. Entries are (i, j) indices into the 1D bases.
_Q1_LAYOUT = [(0, 0), (1, 0), (1, 1), (0, 1)]
_Q2_LAYOUT = [(0, 0), (2, 0), (2, 2), (0, 2), (1, 0), (2, 1), (1, 2), (0, 1), (1, 1)]


def shape_functions(order: int, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Shape values (npts, nloc) and reference gradients (npts, nloc, 2)."""
    pts = np.asarray(pts, dtype=float).reshape(-1, 2)
    vx, dx = _lagrange_1d(order, pts[:, 0])
    vy, dy = _lagrange_1d(order, pts[:, 1])
    layout = _Q1_LAYOUT if order == 1 else _Q2_LAYOUT
    N = np.stack([vx[:, i] * vy[:, j] for i, j in layout], axis=1)
    dN = np.stack(
        [np.stack([dx[:, i] * vy[:, j], vx[:, i] * dy[:, j]], axis=-1) for i, j in layout],
        axis=1,
    )
    return N, dN


def gauss_points(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Tensor-product Gauss rule on [-1,1]^2: points (n*n, 2), weights (n*n,)."""
    x, w = np.polynomial.legendre.leggauss(n)
    X, Y = np.meshgrid(x, x, indexing="ij")
    W = np.outer(w, w)
    return np.column_stack([X.ravel(), Y.ravel()]), W.ravel()


# ---------------------------------------------------------------------------
# FE spaces


@dataclass
class FESpace:
    """Scalar or 2-vector Lagrange space of order 1 or 2 on a quad mesh."""

    mesh: CrackedMesh
    order: int = 2
    components: int = 1
    n_quad: int | None = None

    # filled by __post_init__
    element_dofs: np.ndarray = field(init=False, repr=False)   # (ne, nloc) scalar dofs
    dof_coords: np.ndarray = field(init=False, repr=False)     # (n_scalar_dofs, 2)
    edge_keys: np.ndarray = field(init=False, repr=False)      # sorted lo*n_nodes+hi corner keys
    edge_dof: np.ndarray = field(init=False, repr=False)       # edge dof of each edge_keys entry
    qp_ref: np.ndarray = field(init=False, repr=False)
    qp_w: np.ndarray = field(init=False, repr=False)
    N: np.ndarray = field(init=False, repr=False)              # (nqp, nloc)
    dNdx: np.ndarray = field(init=False, repr=False)           # (ne, nqp, nloc, 2)
    detJxW: np.ndarray = field(init=False, repr=False)         # (ne, nqp)
    qp_xy: np.ndarray = field(init=False, repr=False)          # (ne, nqp, 2)

    def __post_init__(self):
        if self.order not in (1, 2):
            raise ValueError("order must be 1 or 2")
        if self.components not in (1, 2):
            raise ValueError("components must be 1 or 2")
        mesh = self.mesh
        nn = mesh.n_nodes
        if self.order == 1:
            self.element_dofs = mesh.elements.copy()
            self.dof_coords = mesh.nodes.copy()
            self.edge_keys = self.edge_dof = np.zeros(0, dtype=int)
        else:
            # Element edges in (element, local edge) order, keyed by their
            # sorted corner pair; each edge is numbered at its first occurrence.
            corners = np.sort(mesh.elements[:, [0, 1, 1, 2, 2, 3, 3, 0]].reshape(-1, 2), axis=1)
            self.edge_keys, first, inverse = np.unique(
                corners[:, 0] * nn + corners[:, 1], return_index=True, return_inverse=True)
            self.edge_dof = np.empty_like(first)
            self.edge_dof[np.argsort(first)] = nn + np.arange(first.size)
            cells = nn + first.size + np.arange(mesh.n_elements)
            self.element_dofs = np.column_stack(
                [mesh.elements, self.edge_dof[inverse].reshape(-1, 4), cells])
            edge_coords = mesh.nodes[corners[np.sort(first)]].mean(axis=1)
            self.dof_coords = np.vstack(
                [mesh.nodes, edge_coords, mesh.nodes[mesh.elements].mean(axis=1)])

        nq1 = self.n_quad if self.n_quad is not None else self.order + 1
        self.qp_ref, self.qp_w = gauss_points(nq1)
        self.N, dN = shape_functions(self.order, self.qp_ref)
        Ngeo, dNgeo = shape_functions(1, self.qp_ref)
        X = mesh.nodes[mesh.elements]                           # (ne, 4, 2)
        # J[e,q,i,k] = d x_i / d xi_k
        J = np.einsum("eai,qak->eqik", X, dNgeo)
        detJ = J[..., 0, 0] * J[..., 1, 1] - J[..., 0, 1] * J[..., 1, 0]
        if np.any(detJ <= 0):
            raise ValueError("non-positive Jacobian determinant in mesh")
        invJ = np.empty_like(J)
        invJ[..., 0, 0] = J[..., 1, 1] / detJ
        invJ[..., 1, 1] = J[..., 0, 0] / detJ
        invJ[..., 0, 1] = -J[..., 0, 1] / detJ
        invJ[..., 1, 0] = -J[..., 1, 0] / detJ
        # dN/dx_i = dN/dxi_k * (J^-1)[k,i]
        self.dNdx = dN @ invJ
        self.detJxW = detJ * self.qp_w[None, :]
        self.qp_xy = np.einsum("eai,qa->eqi", X, Ngeo)

    @property
    def n_scalar_dofs(self) -> int:
        return self.dof_coords.shape[0]

    @property
    def n_dofs(self) -> int:
        return self.components * self.n_scalar_dofs

    @property
    def nqp(self) -> int:
        return self.qp_w.shape[0]

    def vector_dofs(self, scalar_dofs: np.ndarray) -> np.ndarray:
        """Interleaved (2*sdof + comp) ids for all components, shape (..., 2)."""
        s = np.asarray(scalar_dofs)
        return np.stack([2 * s, 2 * s + 1], axis=-1)

    def boundary_scalar_dofs(self, tag: str) -> np.ndarray:
        """Scalar dofs lying on facets with the given tag (corners + Q2 midpoints)."""
        facets = np.array(self.mesh.facets_with_tag(tag), dtype=int).reshape(-1, 2)
        dofs = [facets.ravel()]
        if self.order == 2:
            facets.sort(axis=1)
            keys = facets[:, 0] * self.mesh.n_nodes + facets[:, 1]
            dofs.append(self.edge_dof[np.searchsorted(self.edge_keys, keys)])
        return np.unique(np.concatenate(dofs))


@dataclass
class FEField:
    """Degree-of-freedom vector bound to its space."""

    space: FESpace
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.space.n_dofs,):
            raise ValueError(
                f"field length {self.values.shape} != space dofs {self.space.n_dofs}")

    @classmethod
    def zero(cls, space: FESpace) -> "FEField":
        return cls(space, np.zeros(space.n_dofs))

    def element_values(self) -> np.ndarray:
        """Per-element dof values: (ne, nloc) scalar or (ne, nloc, 2) vector."""
        ed = self.space.element_dofs
        if self.space.components == 1:
            return self.values[ed]
        return self.values[self.space.vector_dofs(ed)]


@dataclass
class LinearSystem:
    """Reduced sparse system; SPD after Dirichlet elimination. A Newton
    system also carries the internal force F_int at its linearization point,
    over all dofs, reaction rows included."""

    matrix: sp.csr_matrix
    rhs: np.ndarray
    internal_force: np.ndarray | None = None


# ---------------------------------------------------------------------------
# Boundary condition specs


@dataclass(frozen=True)
class ThermalBC:
    """Dirichlet temperature on the bottom boundary; zero flux elsewhere.

    value is a constant or a callable (x, y) -> theta evaluated at dof
    coordinates of the tagged boundary.
    """

    value: object = 100.0
    tag: str = GAMMA1


@dataclass(frozen=True)
class MechanicalBC:
    """Prescribed displacement components per tag; None leaves a component free.

    Defaults: top boundary u = (0, top_uy); bottom boundary u_y = 0.
    """

    top_uy: float = 0.0
    extra: dict = field(default_factory=dict)

    def component_values(self) -> dict[str, tuple]:
        spec = {GAMMA3: (0.0, self.top_uy), GAMMA1: (None, 0.0)}
        spec.update(self.extra)
        return spec


def _evaluate_bc(value, coords: np.ndarray) -> np.ndarray:
    if callable(value):
        return np.array([float(value(x, y)) for x, y in coords])
    return np.full(coords.shape[0], float(value))


# ---------------------------------------------------------------------------
# Assembly plan: global sparsity pattern and Dirichlet elimination


class AssemblyPlan:
    """CSR pattern of a space's global matrix, built once and reused per assembly.

    Element matrices are summed into the CSR data through a scatter index,
    in the order a COO-to-CSR conversion sums them. The pattern is sorted
    from the scalar (row, col) keys. Given Dirichlet data, it is the pattern
    left by symmetric elimination: a fixed row or column keeps only its unit
    diagonal, and the scatter sends each element entry in a fixed row or
    column to one slot past the end, which is discarded. A plan is tied to
    its space and boundary data: build it in the solve that uses it, to be
    freed with it.
    """

    def __init__(self, space: FESpace, block: int,
                 dirichlet: dict[int, float] | None = None):
        ed = space.element_dofs
        ne, m = ed.shape
        ns = space.n_scalar_dofs
        keys = (np.repeat(ed, m, axis=1) * ns + np.tile(ed, (1, m))).ravel()
        keys, scatter = np.unique(keys, return_inverse=True)
        rows, cols = np.divmod(keys, ns)
        self.n = n = block * ns
        self.fixed = np.zeros(n, dtype=bool)
        self.lift = np.zeros(n)
        if dirichlet is not None:
            if not dirichlet:
                raise EmptyDirichlet("no Dirichlet degrees of freedom; system is singular")
            self.fixed[list(dirichlet)] = True
            self.lift[list(dirichlet)] = list(dirichlet.values())
        self.dofs = (block * ed[..., None] + np.arange(block)).reshape(ne, -1)
        # Scalar entry (r, c) stands for entries (block r + i, block c + j). A
        # fixed row holds only its diagonal; the free rows block r + i hold the
        # same columns, each free block c + j of scalar row r in (c, j) order.
        free = ~self.fixed.reshape(ns, block).T
        free_col = [f[cols] for f in free]
        count = np.sum(free_col, axis=0, dtype=np.int32)
        row_first = _row_pointer(rows, ns)[:-1]
        rank = np.cumsum(count, dtype=np.int32) - count
        rank -= rank[row_first][rows]   # free columns before the entry in its row
        lengths = np.where(free, np.add.reduceat(count, row_first), 1).T.ravel()
        indptr = np.cumsum(np.append(0, lengths), dtype=np.int32)
        nnz = int(indptr[-1])
        indices = np.empty(nnz + 1, dtype=np.int32)
        # element entry (e, block a + i, block b + j) is entry (i, j) of scalar entry (e, a, b)
        scatter = scatter.reshape(ne, m, m)
        self.scatter = np.empty((ne, m, block, m, block), dtype=np.int32)
        for i in range(block):
            free_row = free[i][rows]
            slot = indptr[block * rows + i] + rank
            for j in range(block):
                target = np.where(free_row & free_col[j], slot, nnz)
                indices[target] = block * cols + j
                self.scatter[:, :, i, :, j] = target[scatter]
                slot += free_col[j]
        self.scatter = self.scatter.ravel()
        fixed = np.flatnonzero(self.fixed)
        self.unit_diagonal = indptr[fixed]
        indices[self.unit_diagonal] = fixed
        self.pattern = (indices[:nnz], indptr)

    def assemble(self, k_local: np.ndarray) -> sp.csr_matrix:
        """Global matrix of per-element matrices (ne, m, m), reduced by
        symmetric elimination if the plan has Dirichlet data."""
        nnz = self.pattern[0].size
        data = np.bincount(self.scatter, weights=k_local.ravel(), minlength=nnz + 1)[:nnz]
        data[self.unit_diagonal] = 1.0
        return sp.csr_matrix((data, *self.pattern), shape=(self.n, self.n))

    def system(self, k_local: np.ndarray, f: np.ndarray,
               x: np.ndarray | None = None) -> LinearSystem:
        """The reduced system of per-element matrices k_local with the load
        f + K (x - lift) on the free dofs (x None: zero) and the lift on the
        fixed ones, K x summed element by element."""
        d = -self.lift if x is None else x - self.lift
        Kd = (k_local @ d[self.dofs][..., None])[..., 0]
        rhs = f + np.bincount(self.dofs.ravel(), weights=Kd.ravel(), minlength=self.n)
        rhs[self.fixed] = self.lift[self.fixed]
        return LinearSystem(matrix=self.assemble(k_local), rhs=rhs)


def _row_pointer(rows: np.ndarray, n: int) -> np.ndarray:
    return np.searchsorted(rows, np.arange(n + 1)).astype(np.int32)


# ---------------------------------------------------------------------------
# Thermal problem


def thermal_dirichlet(space: FESpace, bc: ThermalBC) -> dict[int, float]:
    dofs = space.boundary_scalar_dofs(bc.tag)
    if dofs.size == 0:
        raise EmptyDirichlet(f"no boundary dofs tagged {bc.tag}")
    vals = _evaluate_bc(bc.value, space.dof_coords[dofs])
    return {int(d): float(v) for d, v in zip(dofs, vals)}


def assemble_thermal(space: FESpace, p: MaterialParams, Q_source=0.0,
                     bc: ThermalBC = ThermalBC()) -> LinearSystem:
    """Steady heat conduction: K_ij = int k grad(phi_i).grad(phi_j), f_i = int Q phi_i."""
    if space.components != 1:
        raise ValueError("thermal problem needs a scalar space")
    k_local = p.k * np.einsum("eqai,eqbi,eq->eab", space.dNdx, space.dNdx, space.detJxW,
                              optimize=True)
    if callable(Q_source):
        Qq = np.vectorize(Q_source)(space.qp_xy[..., 0], space.qp_xy[..., 1])
    else:
        Qq = np.full((space.mesh.n_elements, space.nqp), float(Q_source))
    f_local = np.einsum("eq,qa,eq->ea", Qq, space.N, space.detJxW)
    f = np.bincount(space.element_dofs.ravel(), weights=f_local.ravel(),
                    minlength=space.n_scalar_dofs)
    return AssemblyPlan(space, 1, thermal_dirichlet(space, bc)).system(k_local, f)


def scalar_gradients(field: FEField) -> np.ndarray:
    """Gradient of a scalar field at all quadrature points, (ne, nqp, 2)."""
    vals = field.element_values()
    return np.einsum("ea,eqai->eqi", vals, field.space.dNdx)


# ---------------------------------------------------------------------------
# Mechanical problem


def strain_displacement(space: FESpace) -> np.ndarray:
    """Mandel B-matrices: (ne, nqp, 3, 2*nloc) with eps_mandel = B @ u_local."""
    ne, nqp, nloc, _ = space.dNdx.shape
    B = np.zeros((ne, nqp, 3, 2 * nloc))
    dN = space.dNdx
    B[:, :, 0, 0::2] = dN[..., 0]
    B[:, :, 1, 1::2] = dN[..., 1]
    B[:, :, 2, 0::2] = dN[..., 1] / SQRT2
    B[:, :, 2, 1::2] = dN[..., 0] / SQRT2
    return B


def strains_at_qps(u: FEField, B: np.ndarray | None = None) -> np.ndarray:
    """Mandel strain at every quadrature point, (ne, nqp, 3)."""
    space = u.space
    if B is None:
        B = strain_displacement(space)
    ne, nqp, _, m = B.shape
    u_loc = u.element_values().reshape(ne, m, 1)
    return (B.reshape(ne, -1, m) @ u_loc).reshape(ne, nqp, 3)


def mechanical_dirichlet(space: FESpace, bc: MechanicalBC) -> dict[int, float]:
    dirichlet: dict[int, float] = {}
    for tag, comps in bc.component_values().items():
        sdofs = space.boundary_scalar_dofs(tag)
        for comp, value in enumerate(comps):
            if value is None:
                continue
            vals = _evaluate_bc(value, space.dof_coords[sdofs])
            for d, v in zip(sdofs, vals):
                dirichlet[int(2 * d + comp)] = float(v)
    if not dirichlet:
        raise EmptyDirichlet("mechanical problem needs displacement Dirichlet data")
    return dirichlet


def thermal_load(space: FESpace, p: MaterialParams, theta: FEField | None) -> np.ndarray:
    """Thermal-gradient body force f_i = -alpha int grad(theta) . v_i, before elimination."""
    if theta is None:
        return np.zeros(space.n_dofs)
    grad_t = scalar_gradients(theta)
    f_local = -p.alpha * np.einsum("eqi,qa,eq->eai", grad_t, space.N, space.detJxW)
    vdofs = space.vector_dofs(space.element_dofs)          # (ne, nloc, 2)
    return np.bincount(vdofs.ravel(), weights=f_local.ravel(), minlength=space.n_dofs)


def assemble_mechanical(space: FESpace, p: MaterialParams, theta: FEField | None,
                        u_prev: FEField, bc: MechanicalBC,
                        B: np.ndarray | None = None,
                        plan: AssemblyPlan | None = None,
                        f: np.ndarray | None = None,
                        tangent: bool = False,
                        eps_prev: np.ndarray | None = None) -> tuple[LinearSystem, int]:
    """Elasticity linearized at u_prev, with the thermal-gradient body force.

    By default the Picard system: the multiplier phi is evaluated from u_prev
    at each quadrature point and frozen, and the load is f. With tangent=True,
    the Newton system: the consistent tangent
    dsigma/deps = phi E + (phi'/t)(E eps)(E eps)^T and the load
    f - F_int(u_prev) + K_T u_prev, with F_int = sum_q B^T sigma detJ w, so the
    solution x gives the Newton direction x - u_prev, and the system carries
    F_int as internal_force. Returns the reduced system and the number of
    clamp events. A solve that assembles repeatedly passes B,
    plan = AssemblyPlan(space, 2, mechanical_dirichlet(space, bc)) and
    f = thermal_load(space, p, theta), each built once, and may pass the
    strains of u_prev, strains_at_qps(u_prev, B), as eps_prev.
    """
    if space.components != 2:
        raise ValueError("mechanical problem needs a 2-vector space")
    if B is None:
        B = strain_displacement(space)
    if plan is None:
        plan = AssemblyPlan(space, 2, mechanical_dirichlet(space, bc))
    if f is None:
        f = thermal_load(space, p, theta)

    E = p.E.entries
    if eps_prev is None:
        eps_prev = strains_at_qps(u_prev, B)
    t_prev = energy_norm_m(eps_prev, E)
    phi, clamps = relaxation_factor_m(t_prev, p)
    scale = phi * space.detJxW
    # Per-point material matrix C = phi detJ w E + k n n^T. In the tangent,
    # (phi'/t)(E eps)(E eps)^T detJ w = k n n^T with n = E eps / t and
    # k = (b t)^a phi^(1+a) detJ w, and n = 0 at t = 0, where phi'/t is
    # infinite for a < 2; in the secant system, k n = 0.
    n = kn = np.zeros_like(eps_prev)
    if tangent:
        E_eps = eps_prev @ E
        n = np.divide(E_eps, t_prev[..., None], out=np.zeros_like(E_eps),
                      where=t_prev[..., None] > 0.0)
        kn = ((p.b * t_prev) ** p.a * phi ** (1.0 + p.a) * space.detJxW)[..., None] * n
    C = np.empty(phi.shape + (3, 3))
    for i, j in np.ndindex(3, 3):
        C[..., i, j] = scale * E[i, j] + kn[..., i] * n[..., j]
    # k_e = sum_q B_q^T C_q B_q, one (m, 3 nqp) @ (3 nqp, m) product
    ne, _, _, m = B.shape
    Bt = B.reshape(ne, -1, m).transpose(0, 2, 1)
    CB = (C @ B).reshape(ne, -1, m)
    del C
    k_local = Bt @ CB
    del CB   # freed before the scatter, which holds the global matrix
    if not tangent:
        return plan.system(k_local, f), clamps
    f_int = (Bt @ (E_eps * scale[..., None]).reshape(ne, -1, 1))[..., 0]
    f_int = np.bincount(plan.dofs.ravel(), weights=f_int.ravel(), minlength=space.n_dofs)
    sys = plan.system(k_local, f - f_int, u_prev.values)
    sys.internal_force = f_int
    return sys, clamps


def mass_matrix(space: FESpace) -> sp.csr_matrix:
    """Consistent scalar mass matrix of the space (per component)."""
    m_local = np.einsum("qa,qb,eq->eab", space.N, space.N, space.detJxW, optimize=True)
    return AssemblyPlan(space, 1).assemble(m_local)


def l2_norm(space: FESpace, dof_values: np.ndarray) -> float:
    """L2 norm of a field given by dof values, summed at the space's
    quadrature points: the norm sqrt(sum_c c^T M c) of the consistent mass
    matrix M under the same rule, without building M."""
    v = dof_values.reshape(space.n_scalar_dofs, -1)
    at_qps = space.N @ v[space.element_dofs]                # (ne, nqp, components)
    return float(np.sqrt(np.sum(at_qps**2 * space.detJxW[..., None])))
