"""Q1/Q2 finite element spaces on rectangle meshes and system assembly.

Geometry is the reference square scaled by each element's size; Q2 fields
add edge-midpoint and cell-center degrees of freedom on top of the mesh
nodes. Crack-face edges split automatically because the seam duplicates
their corner nodes, which changes the edge keys. Dirichlet conditions are
imposed by symmetric elimination so the reduced matrix stays SPD.
"""

from __future__ import annotations

from collections.abc import Iterable
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
# Local dofs of element edge k, from corner k to corner (k + 1) mod 4, per
# order: its corners, and at Q2 its midpoint 4 + k.
_EDGE_DOFS = {1: np.array([[0, 1], [1, 2], [2, 3], [3, 0]]),
              2: np.array([[0, 1, 4], [1, 2, 5], [2, 3, 6], [3, 0, 7]])}


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
    """Scalar or 2-vector Lagrange space of order 1 or 2 on a rectangle mesh.

    Elements must be axis-aligned rectangles listed counter-clockwise from
    the lower-left corner (ValueError otherwise), as mesh.py builds them.
    Each element's size h = (h_x, h_y) is then its whole geometry: d/dx =
    (2/h_x) d/dxi, d/dy = (2/h_y) d/deta and detJ = h_x h_y / 4."""

    mesh: CrackedMesh
    order: int = 2
    components: int = 1
    n_quad: int | None = None

    # filled by __post_init__
    element_dofs: np.ndarray = field(init=False, repr=False)   # (ne, nloc) scalar dofs
    dof_coords: np.ndarray = field(init=False, repr=False)     # (n_scalar_dofs, 2)
    qp_ref: np.ndarray = field(init=False, repr=False)
    qp_w: np.ndarray = field(init=False, repr=False)
    N: np.ndarray = field(init=False, repr=False)              # (nqp, nloc)
    dN: np.ndarray = field(init=False, repr=False)             # (nqp, nloc, 2) reference
    grad_table: np.ndarray = field(init=False, repr=False)     # (comp nloc, nqp comp 2)
    h: np.ndarray = field(init=False, repr=False)              # (ne, 2) element sizes
    detJxW: np.ndarray = field(init=False, repr=False)         # (ne, nqp)
    qp_xy: np.ndarray = field(init=False, repr=False)          # (ne, nqp, 2)

    def __post_init__(self):
        if self.order not in (1, 2):
            raise ValueError("order must be 1 or 2")
        if self.components not in (1, 2):
            raise ValueError("components must be 1 or 2")
        mesh = self.mesh
        nn = mesh.n_nodes
        X = mesh.nodes[mesh.elements]                           # (ne, 4, 2)
        self.h = X[:, 2] - X[:, 0]
        # corners 1 and 3 must be (x2, y0) and (x0, y2)
        off = abs(X[:, [1, 1, 3, 3], [0, 1, 0, 1]] - X[:, [2, 0, 0, 2], [0, 1, 0, 1]]).max(axis=1)
        bad = np.flatnonzero((self.h.min(axis=1) <= 0) | (off > 1e-12 * self.h.max(axis=1)))
        if bad.size:
            raise ValueError(f"element {bad[0]} is not an axis-aligned rectangle listed "
                             "counter-clockwise from its lower-left corner")
        if self.order == 1:
            self.element_dofs = mesh.elements.copy()
            self.dof_coords = mesh.nodes.copy()
        else:
            # Element edges in (element, local edge) order, keyed by their
            # sorted corner pair; each edge is numbered at its first occurrence.
            corners = np.sort(mesh.elements[:, _EDGE_DOFS[1]].reshape(-1, 2), axis=1)
            _, first, inverse = np.unique(
                corners[:, 0] * nn + corners[:, 1], return_index=True, return_inverse=True)
            edge_dof = np.empty_like(first)
            edge_dof[np.argsort(first)] = nn + np.arange(first.size)
            cells = nn + first.size + np.arange(mesh.n_elements)
            self.element_dofs = np.column_stack(
                [mesh.elements, edge_dof[inverse].reshape(-1, 4), cells])
            edge_coords = mesh.nodes[corners[np.sort(first)]].mean(axis=1)
            self.dof_coords = np.vstack(
                [mesh.nodes, edge_coords, mesh.nodes[mesh.elements].mean(axis=1)])

        nq1 = self.n_quad if self.n_quad is not None else self.order + 1
        self.qp_ref, self.qp_w = gauss_points(nq1)
        self.N, self.dN = shape_functions(self.order, self.qp_ref)
        # grad_table[(a, c), (q, c', i)] = delta_cc' dN[q, a, i]
        self.grad_table = np.einsum("qai,cd->acqdi", self.dN, np.eye(self.components)
                                    ).reshape(self.components * self.N.shape[1], -1)
        self.detJxW = np.outer(0.25 * self.h[:, 0] * self.h[:, 1], self.qp_w)
        self.qp_xy = X[:, None, 0] + 0.5 * (1.0 + self.qp_ref) * self.h[:, None]

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
        """Scalar dofs on the tag's element edges (corners + Q2 midpoints),
        sorted; ValueError for a tag outside ALL_TAGS (CrackedMesh.edges)."""
        e, k = self.mesh.edges(tag).T
        return np.unique(self.element_dofs[e[:, None], _EDGE_DOFS[self.order][k]])


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
        v = self.values.reshape(self.space.n_scalar_dofs, -1)[self.space.element_dofs]
        return v[..., 0] if self.space.components == 1 else v


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
    """Dirichlet temperature on the tagged boundary (bottom by default), zero
    flux elsewhere; value is a constant or a callable (x, y) -> theta."""

    value: object = 100.0
    tag: str = GAMMA1

    def component_values(self) -> dict[str, tuple]:
        return {self.tag: (self.value,)}


@dataclass(frozen=True)
class MechanicalBC:
    """Prescribed displacement components per tag; None leaves a component free.

    Defaults: top boundary u = (0, top_uy); bottom boundary u_y = 0.
    """

    top_uy: float = 0.0
    extra: dict = field(default_factory=dict)

    def component_values(self) -> dict[str, tuple]:
        return {GAMMA3: (0.0, self.top_uy), GAMMA1: (None, 0.0), **self.extra}


def _evaluate(value, xy: np.ndarray) -> np.ndarray | float:
    """A constant, or a callable of (x, y) at the points xy, shape (..., 2)."""
    if callable(value):
        return np.vectorize(value, otypes=[float])(xy[..., 0], xy[..., 1])
    return float(value)


# ---------------------------------------------------------------------------
# Assembly plan: global sparsity pattern and Dirichlet elimination


class AssemblyPlan:
    """CSR pattern and Dirichlet data of a space and a ThermalBC or
    MechanicalBC, built once and reused per assembly; the dof block is the
    space's component count. In the order of bc.component_values(), so a
    later tag wins at a shared corner, each value that is not None fixes
    component c of the tag's scalar dofs d (dof block d + c) in fixed and
    lift. A tag with a component count other than the space's raises
    ValueError, and fixed dofs that leave a rigid motion free raise
    EmptyDirichlet (_check_pinned). The pattern, sorted from the scalar
    (row, col) keys, is the one left by symmetric elimination: a fixed row
    or column keeps only its unit diagonal. system() sums element matrices
    into the CSR data through a scatter index, in the order a COO-to-CSR
    conversion sums them, and sends each entry in a fixed row or column to
    one slot past the end, which is discarded. A plan is tied to its space
    and boundary data: build it in the solve that uses it, to be freed with it.
    """

    def __init__(self, space: FESpace, bc: ThermalBC | MechanicalBC):
        ed = space.element_dofs
        ne, m = ed.shape
        ns, block = space.n_scalar_dofs, space.components
        keys = (np.repeat(ed, m, axis=1) * ns + np.tile(ed, (1, m))).ravel()
        keys, scatter = np.unique(keys, return_inverse=True)
        rows, cols = np.divmod(keys, ns)
        self.space = space
        self.n = n = space.n_dofs
        self.fixed = np.zeros(n, dtype=bool)
        self.lift = np.zeros(n)
        for tag, comps in bc.component_values().items():
            if len(comps) != block:
                raise ValueError(f"{type(bc).__name__} gives {len(comps)} components on {tag}, "
                                 f"but the space has {block}")
            sdofs = space.boundary_scalar_dofs(tag)
            for comp, value in enumerate(comps):
                if value is not None:
                    self.fixed[block * sdofs + comp] = True
                    self.lift[block * sdofs + comp] = _evaluate(value, space.dof_coords[sdofs])
        _check_pinned(space, self.fixed, bc)
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

    def system(self, k_blocks: Iterable[np.ndarray], f: np.ndarray) -> LinearSystem:
        """The reduced system of per-element matrices: the global matrix K,
        reduced by symmetric elimination, and the load f - K lift on the free
        dofs and the lift on the fixed. k_blocks are (elements, m, m) blocks
        of consecutive elements, in element order; each is summed straight
        into the CSR data and K lift, in the order np.bincount sums one whole
        array, and may be dropped before the next is formed."""
        nnz = self.pattern[0].size
        data, k_lift = np.zeros(nnz + 1), np.zeros(self.n)
        element = entry = 0   # the block's first element and first scatter entry
        for k_local in k_blocks:
            dofs = self.dofs[element:element + len(k_local)]
            np.add.at(data, self.scatter[entry:entry + k_local.size], k_local.ravel())
            np.add.at(k_lift, dofs.ravel(), (k_local @ self.lift[dofs][..., None]).ravel())
            element, entry = element + len(k_local), entry + k_local.size
        data = data[:nnz]
        data[self.unit_diagonal] = 1.0
        rhs = f - k_lift
        rhs[self.fixed] = self.lift[self.fixed]
        return LinearSystem(matrix=sp.csr_matrix((data, *self.pattern), shape=(self.n, self.n)),
                            rhs=rhs)


def _check_pinned(space: FESpace, fixed: np.ndarray, bc: ThermalBC | MechanicalBC) -> None:
    """Raise EmptyDirichlet unless the fixed dofs pin every rigid motion: the
    constant of a scalar plan, and of a vector plan the translations (1, 0),
    (0, 1) and the rotation (-y, x), whose values on the fixed dofs must have
    rank 3. The translations live on disjoint dofs, so that rank is 3 unless
    no u_x or no u_y is fixed, or every fixed u_x lies on one line y = c and
    every fixed u_y on one line x = d, which leaves the rotation about (d, c)
    free: a closed form of the rank, with no LAPACK call."""
    dofs, tags = np.flatnonzero(fixed), ", ".join(bc.component_values())
    if dofs.size == 0:
        raise EmptyDirichlet(f"no Dirichlet dofs on {tags}")
    if space.components == 1:
        return
    on_x = dofs % 2 == 0
    c = space.dof_coords[dofs[on_x] // 2, 1]    # y of each fixed u_x
    d = space.dof_coords[dofs[~on_x] // 2, 0]   # x of each fixed u_y
    line = 1e-12 * np.ptp(space.dof_coords, axis=0).max()   # spread of points on a line
    if c.size == 0 or d.size == 0:
        motion = f"translation along {(1, 0) if c.size == 0 else (0, 1)}"
    elif np.ptp(c) <= line and np.ptp(d) <= line:
        motion = "rotation about ({:g}, {:g})".format(*np.round([d[0], c[0]], 6) + 0.0)
    else:
        return
    raise EmptyDirichlet(f"the Dirichlet dofs on {tags} leave a rigid {motion} free")


def _row_pointer(rows: np.ndarray, n: int) -> np.ndarray:
    return np.searchsorted(rows, np.arange(n + 1)).astype(np.int32)


# ---------------------------------------------------------------------------
# Thermal problem


def assemble_thermal(space: FESpace, p: MaterialParams, Q_source=0.0,
                     bc: ThermalBC = ThermalBC()) -> LinearSystem:
    """Steady heat conduction: K_ij = int k grad(phi_i).grad(phi_j), f_i = int Q phi_i.
    An element's matrix is k (h_y/h_x K_xx + h_x/h_y K_yy), K_xx and K_yy
    the reference products of the xi and eta derivatives."""
    if space.components != 1:
        raise ValueError("thermal problem needs a scalar space")
    K_xx, K_yy = np.einsum("qai,qbi,q->iab", space.dN, space.dN, space.qp_w)
    ratio = (space.h[:, 1] / space.h[:, 0])[:, None, None]
    k_local = p.k * (ratio * K_xx + K_yy / ratio)
    # Equal elements round alike, and a row-sum error they share acts like a
    # source growing as 1/h^2. So entries are rounded to 2^-50 times the power of
    # two above the element's largest, where a row's sum is exact, and each row
    # sum is taken off its diagonal: constants stay in the global kernel.
    quantum = np.ldexp(1.0, np.frexp(abs(k_local).max(axis=(1, 2)))[1] - 50)[:, None, None]
    k_local = np.round(k_local / quantum) * quantum
    k_local[(slice(None), *np.diag_indices(k_local.shape[1]))] -= k_local.sum(axis=2)
    f_local = (_evaluate(Q_source, space.qp_xy) * space.detJxW) @ space.N
    f = np.bincount(space.element_dofs.ravel(), weights=f_local.ravel(),
                    minlength=space.n_scalar_dofs)
    return AssemblyPlan(space, bc).system([k_local], f)


def _gradients(field: FEField) -> np.ndarray:
    """Gradients of a field's components at all quadrature points, (ne, nqp,
    components, 2): element values (ne, components nloc) times grad_table,
    scaled by 2/h."""
    space, ne = field.space, field.space.mesh.n_elements
    g = field.element_values().reshape(ne, -1) @ space.grad_table
    return g.reshape(ne, space.nqp, space.components, 2) * (2.0 / space.h)[:, None, None]


def scalar_gradients(field: FEField) -> np.ndarray:
    """Gradient of a scalar field at all quadrature points, (ne, nqp, 2)."""
    return _gradients(field)[..., 0, :]


# ---------------------------------------------------------------------------
# Mechanical problem

# Displacement gradient component k of (u_x,x, u_x,y, u_y,x, u_y,y) enters
# Mandel strain _MANDEL[k] times _WEIGHT[k]. _K, _L: the 10 entries k <= l of
# a symmetric 4x4 matrix on these components.
_MANDEL = np.array([0, 2, 2, 1])
_WEIGHT = np.array([1.0, 1.0 / SQRT2, 1.0 / SQRT2, 1.0])
_K, _L = np.triu_indices(4)
# Elements per block of assemble_mechanical: a block's element matrices are
# formed and scattered before the next block's, so no (ne, m, m) array exists.
_ELEMENT_BLOCK = 256


def strains_at_qps(u: FEField) -> np.ndarray:
    """Mandel strain at every quadrature point, (ne, nqp, 3)."""
    g = _gradients(u)
    return np.stack([g[..., 0, 0], g[..., 1, 1], (g[..., 0, 1] + g[..., 1, 0]) / SQRT2], axis=-1)


def thermal_load(space: FESpace, p: MaterialParams, theta: FEField | None) -> np.ndarray:
    """Thermal-gradient body force f_i = -alpha int grad(theta) . v_i, before elimination."""
    if theta is None:
        return np.zeros(space.n_dofs)
    grad_t = scalar_gradients(theta)
    f_local = -p.alpha * np.einsum("eqi,qa,eq->eai", grad_t, space.N, space.detJxW)
    vdofs = space.vector_dofs(space.element_dofs)          # (ne, nloc, 2)
    return np.bincount(vdofs.ravel(), weights=f_local.ravel(), minlength=space.n_dofs)


def assemble_mechanical(plan: AssemblyPlan, p: MaterialParams, eps: np.ndarray,
                        f: np.ndarray, tangent: bool = False) -> tuple[LinearSystem, int]:
    """Elasticity on plan's 2-vector space, linearized at a displacement u of
    Mandel strains eps (strains_at_qps(u), (ne, nqp, 3)), with the load f
    over all dofs, before elimination (such as thermal_load).

    By default the Picard system: phi from eps at each quadrature point,
    frozen, and the load f. With tangent=True the Newton system: the tangent
    dsigma/deps = phi E + (phi'/t)(E eps)(E eps)^T and the load
    f - F_int(u) + K_T u, so the solution x gives the Newton direction
    x - u; the system carries F_int as internal_force. Returns the system
    and the number of clamp events. The element matrices of each block of
    _ELEMENT_BLOCK elements are one product of the per-point material
    matrices, on gradients scaled by 2/h, with a fixed table of
    reference-gradient products (as in MILAMIN: Dabrowski, Krotkiewski &
    Schmid, G^3 9, 2008), and are scattered into the plan's CSR data, and
    into K lift, before the next block is formed.
    """
    space = plan.space
    if space.components != 2:
        raise ValueError("mechanical problem needs a 2-vector space")

    E = p.E.entries
    t = energy_norm_m(eps, E)
    phi, clamps = relaxation_factor_m(t, p)
    scale = phi * space.detJxW
    # Per-point C = phi detJ w E + k n n^T at the Mandel entries of the pairs
    # (_K, _L): (phi'/t)(E eps)(E eps)^T detJ w = k n n^T with n = E eps / t,
    # k = (b t)^a phi^(1+a) detJ w, and n = 0 at t = 0, where phi'/t is
    # infinite for a < 2. The secant system has no k n n^T.
    i, j = _MANDEL[_K], _MANDEL[_L]
    C = scale[..., None] * E[i, j]
    if tangent:
        E_eps = eps @ E
        n = np.divide(E_eps, t[..., None], out=np.zeros_like(E_eps), where=t[..., None] > 0.0)
        k = ((p.b * t) ** p.a * phi ** (1.0 + p.a) * space.detJxW)[..., None]
        C += (k * n)[..., i] * n[..., j]
    S = _WEIGHT * (2.0 / space.h)[:, [0, 1, 0, 1]]   # reference component k -> strain
    C *= (S[:, _K] * S[:, _L])[:, None]
    # table row (q, k, l): g_k g_l^T + g_l g_k^T (once if k = l), g at point q
    ne, m = plan.dofs.shape
    g = space.grad_table.reshape(m, space.nqp, 4)
    table = np.einsum("aqp,bqp->qpab", g[..., _K], g[..., _L])
    table += (_K != _L)[:, None, None] * table.transpose(0, 1, 3, 2)
    table = table.reshape(-1, m * m)
    C = C.reshape(ne, -1)
    k_blocks = ((C[s:s + _ELEMENT_BLOCK] @ table).reshape(-1, m, m)
                for s in range(0, ne, _ELEMENT_BLOCK))
    if not tangent:
        return plan.system(k_blocks, f), clamps
    # F_int = sum_q G^T S sigma detJ w, G the reference gradients, and
    # K_T u = F_int + sum_q G^T S k n (n . eps), with n t = E eps: so the
    # load f - F_int + K_T u is f plus the last sum, without cancellation.
    f_int, stiffening = (np.bincount(plan.dofs.ravel(), minlength=space.n_dofs, weights=(
        (v[..., _MANDEL] * S[:, None]).reshape(ne, -1) @ space.grad_table.T).ravel())
        for v in (scale[..., None] * E_eps, k * E_eps))
    sys = plan.system(k_blocks, f + stiffening)
    sys.internal_force = f_int
    return sys, clamps


def mass_matrix(space: FESpace) -> sp.csr_matrix:
    """Consistent scalar mass matrix of the space (per component): each
    element's detJ = h_x h_y / 4 times the reference products of N, summed by
    a COO-to-CSR conversion."""
    m_local = np.multiply.outer(0.25 * space.h[:, 0] * space.h[:, 1],
                                np.einsum("qa,qb,q->ab", space.N, space.N, space.qp_w))
    ed, n = space.element_dofs, space.n_scalar_dofs
    rows, cols = np.repeat(ed, ed.shape[1], axis=1), np.tile(ed, (1, ed.shape[1]))
    return sp.csr_matrix((m_local.ravel(), (rows.ravel(), cols.ravel())), shape=(n, n))


def l2_norm(space: FESpace, dof_values: np.ndarray) -> float:
    """L2 norm of a field given by dof values, summed at the space's
    quadrature points: the norm sqrt(sum_c c^T M c) of the consistent mass
    matrix M under the same rule, without building M."""
    v = dof_values.reshape(space.n_scalar_dofs, -1)
    at_qps = space.N @ v[space.element_dofs]                # (ne, nqp, components)
    return float(np.sqrt(np.sum(at_qps**2 * space.detJxW[..., None])))
