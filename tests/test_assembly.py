import math

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from sltfem import CrackSpec, EmptyDirichlet, MaterialParams, build_cracked_grid, build_grid
from sltfem.assembly import (
    AssemblyPlan,
    FEField,
    FESpace,
    MechanicalBC,
    ThermalBC,
    assemble_mechanical,
    assemble_thermal,
    gauss_points,
    l2_norm,
    mass_matrix,
    mechanical_dirichlet,
    scalar_gradients,
    shape_functions,
    strain_displacement,
    strains_at_qps,
    thermal_dirichlet,
    _row_pointer,
)
from sltfem.mesh import GAMMA1, GAMMA3
from sltfem.solver import linear_solve, solve_thermal


def make_params(**kw):
    defaults = dict(lam=1.0, mu=1.0, gamma=1.0, fiber_angle=0.0,
                    a=0.5, b=0.02, alpha_T=0.01, k=1.0)
    defaults.update(kw)
    return MaterialParams(**defaults)


def interpolate(space, f):
    """Dof vector interpolating a scalar function f(x, y)."""
    return np.array([f(x, y) for x, y in space.dof_coords])


def interpolate_vec(space, fx, fy):
    vals = np.zeros(space.n_dofs)
    vals[0::2] = [fx(x, y) for x, y in space.dof_coords]
    vals[1::2] = [fy(x, y) for x, y in space.dof_coords]
    return vals


class TestShapeFunctions:
    @pytest.mark.parametrize("order", [1, 2])
    def test_partition_of_unity(self, order):
        pts = np.random.default_rng(0).uniform(-1, 1, size=(50, 2))
        N, dN = shape_functions(order, pts)
        np.testing.assert_allclose(N.sum(axis=1), 1.0, atol=1e-14)
        np.testing.assert_allclose(dN.sum(axis=1), 0.0, atol=1e-14)

    def test_kronecker_at_nodes(self):
        nodes1 = np.array([[-1, -1], [1, -1], [1, 1], [-1, 1]], dtype=float)
        N, _ = shape_functions(1, nodes1)
        np.testing.assert_allclose(N, np.eye(4), atol=1e-14)
        nodes2 = np.array([[-1, -1], [1, -1], [1, 1], [-1, 1],
                           [0, -1], [1, 0], [0, 1], [-1, 0], [0, 0]], dtype=float)
        N2, _ = shape_functions(2, nodes2)
        np.testing.assert_allclose(N2, np.eye(9), atol=1e-14)

    def test_gauss_rule_exactness(self):
        pts, w = gauss_points(3)
        # degree-5 polynomial in each variable is integrated exactly
        val = np.sum(w * pts[:, 0] ** 4 * pts[:, 1] ** 2)
        assert val == pytest.approx((2 / 5) * (2 / 3), rel=1e-14)


class TestFESpace:
    def test_q2_dof_count(self):
        mesh = build_grid(2, 2)
        space = FESpace(mesh, order=2)
        # 9 corners + 12 edges + 4 centers
        assert space.n_scalar_dofs == 25

    def test_crack_splits_q2_edge_dofs(self):
        mesh = build_cracked_grid(4, 4)
        cracked = FESpace(mesh, order=2)
        uncracked = FESpace(build_grid(4, 4), order=2)
        # two duplicated corners plus two split edges along the seam
        assert cracked.n_scalar_dofs == uncracked.n_scalar_dofs + 4

    def test_boundary_dofs_include_midpoints(self):
        space = FESpace(build_grid(2, 2), order=2)
        dofs = space.boundary_scalar_dofs(GAMMA1)
        assert dofs.size == 5
        np.testing.assert_allclose(space.dof_coords[dofs][:, 1], 0.0)

    def test_area_from_weights(self):
        space = FESpace(build_grid(5, 3), order=1)
        assert space.detJxW.sum() == pytest.approx(1.0, abs=1e-13)

    def test_field_length_validation(self):
        space = FESpace(build_grid(2, 2), order=1, components=2)
        with pytest.raises(ValueError):
            FEField(space, np.zeros(7))


def loop_q2_numbering(mesh):
    """Q2 element dofs and dof coordinates, numbering each edge at first sight."""
    edge_dof = {}
    coords = []
    elem_dofs = np.zeros((mesh.n_elements, 9), dtype=int)
    elem_dofs[:, :4] = mesh.elements
    next_dof = mesh.n_nodes
    for e, conn in enumerate(mesh.elements):
        for le, (la, lb) in enumerate([(0, 1), (1, 2), (2, 3), (3, 0)]):
            key = tuple(sorted((int(conn[la]), int(conn[lb]))))
            if key not in edge_dof:
                edge_dof[key] = next_dof
                coords.append(0.5 * (mesh.nodes[key[0]] + mesh.nodes[key[1]]))
                next_dof += 1
            elem_dofs[e, 4 + le] = edge_dof[key]
    elem_dofs[:, 8] = np.arange(next_dof, next_dof + mesh.n_elements)
    cells = mesh.nodes[mesh.elements].mean(axis=1)
    return elem_dofs, np.vstack([mesh.nodes, np.array(coords), cells])


class TestQ2EdgeNumbering:
    @pytest.mark.parametrize("mesh", [
        build_grid(3, 2), build_cracked_grid(4, 4), build_cracked_grid(8, 8),
        build_cracked_grid(8, 8, CrackSpec(mouth_edge="right", tip_x=0.25)),
    ])
    def test_vectorized_numbering_equals_loop(self, mesh):
        space = FESpace(mesh, order=2)
        elem_dofs, coords = loop_q2_numbering(mesh)
        np.testing.assert_array_equal(space.element_dofs, elem_dofs)
        np.testing.assert_array_equal(space.dof_coords, coords)


class TestThermalAssembly:
    def test_matrix_symmetric(self):
        space = FESpace(build_cracked_grid(4, 4), order=2)
        sys = assemble_thermal(space, make_params(), 0.0, ThermalBC(value=1.0))
        asym = abs(sys.matrix - sys.matrix.T).max()
        assert asym <= 1e-12 * abs(sys.matrix).max()

    def test_matrix_positive_definite(self):
        space = FESpace(build_cracked_grid(4, 4), order=2)
        sys = assemble_thermal(space, make_params(), 0.0, ThermalBC(value=1.0))
        lam_min = spla.eigsh(sys.matrix, k=1, which="SA", return_eigenvectors=False)[0]
        assert lam_min > 0

    def test_constant_dirichlet_gives_constant_field(self):
        space = FESpace(build_cracked_grid(8, 8), order=2)
        theta = solve_thermal(space, make_params(), Q_source=0.0, bc=ThermalBC(value=100.0))
        np.testing.assert_allclose(theta.values, 100.0, atol=1e-10)

    def test_parabolic_boundary_peaks_at_100(self):
        space = FESpace(build_grid(8, 8), order=2)
        bc = ThermalBC(value=lambda x, y: 400.0 * x * (1.0 - x))
        theta = solve_thermal(space, make_params(), bc=bc)
        bottom = space.boundary_scalar_dofs(GAMMA1)
        vals = theta.values[bottom]
        xs = space.dof_coords[bottom, 0]
        assert vals.max() == pytest.approx(100.0)
        assert xs[np.argmax(vals)] == pytest.approx(0.5)

    def test_manufactured_solution_small_error(self):
        # exact field with zero normal flux on the right, top and left sides
        k = 2.0
        exact = lambda x, y: math.cos(math.pi * x) * (1 - y) ** 2
        source = lambda x, y: k * math.cos(math.pi * x) * (math.pi ** 2 * (1 - y) ** 2 - 2)
        space = FESpace(build_grid(16, 16), order=2)
        theta = solve_thermal(space, make_params(k=k), Q_source=source,
                              bc=ThermalBC(value=lambda x, y: math.cos(math.pi * x)))
        err = theta.values - interpolate(space, exact)
        assert l2_norm(space, err) < 1e-4

    def test_empty_dirichlet_raises(self):
        space = FESpace(build_grid(4, 4), order=1)
        with pytest.raises(EmptyDirichlet):
            assemble_thermal(space, make_params(), 0.0, ThermalBC(value=1.0, tag="nonsense"))

    def test_rejects_vector_space(self):
        space = FESpace(build_grid(2, 2), order=1, components=2)
        with pytest.raises(ValueError):
            assemble_thermal(space, make_params())


class TestThermalGradient:
    def test_constant_field_zero_gradient(self):
        space = FESpace(build_grid(4, 4), order=1)
        grads = scalar_gradients(FEField(space, np.full(space.n_scalar_dofs, 7.0)))
        for e in (0, 5, 15):
            np.testing.assert_allclose(grads[e, 0], 0.0, atol=1e-13)

    def test_linear_field_exact_gradient(self):
        space = FESpace(build_grid(4, 4), order=1)
        grads = scalar_gradients(FEField(space, interpolate(space, lambda x, y: y)))
        for e in range(space.mesh.n_elements):
            for q in range(space.nqp):
                np.testing.assert_allclose(grads[e, q], [0.0, 1.0], atol=1e-13)

    def test_quadratic_field_exact_on_q2(self):
        space = FESpace(build_grid(4, 4), order=2)
        grads = scalar_gradients(
            FEField(space, interpolate(space, lambda x, y: 400 * x * (1 - x))))
        for e in (0, 7):
            for q in range(space.nqp):
                x = space.qp_xy[e, q, 0]
                np.testing.assert_allclose(grads[e, q], [400 - 800 * x, 0.0], atol=1e-10)


class TestStrainEvaluation:
    def test_zero_displacement(self):
        space = FESpace(build_grid(2, 2), order=1, components=2)
        eps = strains_at_qps(FEField.zero(space))[0, 0]
        assert np.linalg.norm(eps) == 0.0

    def test_uniaxial(self):
        space = FESpace(build_grid(3, 3), order=2, components=2)
        u = FEField(space, interpolate_vec(space, lambda x, y: x, lambda x, y: 0.0))
        np.testing.assert_allclose(strains_at_qps(u)[4, 2], [1, 0, 0], atol=1e-12)

    def test_pure_shear(self):
        space = FESpace(build_grid(3, 3), order=2, components=2)
        u = FEField(space, interpolate_vec(space, lambda x, y: y, lambda x, y: x))
        np.testing.assert_allclose(strains_at_qps(u)[0, 0], [0, 0, math.sqrt(2)], atol=1e-12)


class TestMechanicalAssembly:
    def test_zero_data_gives_zero_solution(self):
        space = FESpace(build_cracked_grid(4, 4), order=2, components=2)
        sys, clamps = assemble_mechanical(space, make_params(b=0.0), None,
                                          FEField.zero(space), MechanicalBC())
        assert clamps == 0
        np.testing.assert_allclose(linear_solve(sys), 0.0, atol=1e-14)

    def test_matrix_symmetric(self):
        space = FESpace(build_cracked_grid(4, 4), order=2, components=2)
        sys, _ = assemble_mechanical(space, make_params(b=0.0), None,
                                     FEField.zero(space), MechanicalBC())
        asym = abs(sys.matrix - sys.matrix.T).max()
        assert asym <= 1e-12 * abs(sys.matrix).max()

    def test_matrix_positive_definite(self):
        space = FESpace(build_cracked_grid(4, 4), order=2, components=2)
        sys, _ = assemble_mechanical(space, make_params(b=0.0), None,
                                     FEField.zero(space), MechanicalBC())
        lam_min = spla.eigsh(sys.matrix, k=1, which="SA", return_eigenvectors=False)[0]
        assert lam_min > 0

    def test_constant_multiplier_scales_linear_matrix(self):
        # a uniform-strain previous iterate makes the nonlinear factor
        # constant, so it factors out of every element integral
        space = FESpace(build_grid(1, 1), order=1, components=2)
        p = make_params(a=1.0, b=0.1)
        u_prev = FEField(space, interpolate_vec(space, lambda x, y: 0.3 * x, lambda x, y: 0.0))
        eps = strains_at_qps(u_prev)[0, 0]
        from sltfem.constitutive import relaxation_factor_m
        from sltfem.tensors import energy_norm_m

        phi = float(relaxation_factor_m(energy_norm_m(eps, p.E.entries), p)[0])
        bc = MechanicalBC(extra={GAMMA1: (0.0, 0.0)})
        sys_nl, _ = assemble_mechanical(space, p, None, u_prev, bc)
        sys_lin, _ = assemble_mechanical(space, make_params(b=0.0), None,
                                         FEField.zero(space), bc)
        diff = abs(sys_nl.matrix - phi * sys_lin.matrix).max()
        # Dirichlet diagonals stay at 1 in both, so compare off-eliminated rows
        free = sorted(set(range(space.n_dofs))
                      - set(mechanical_dirichlet(space, bc)))
        sub_nl = sys_nl.matrix[np.ix_(free, free)].toarray()
        sub_lin = sys_lin.matrix[np.ix_(free, free)].toarray()
        np.testing.assert_allclose(sub_nl, phi * sub_lin, rtol=1e-12)
        assert phi > 1.0
        assert diff < 1.0  # eliminated unit diagonals differ by phi-1 at most

    def test_empty_dirichlet_raises(self):
        space = FESpace(build_grid(4, 4), order=1, components=2)
        bc = MechanicalBC(extra={GAMMA1: (None, None), GAMMA3: (None, None)})
        with pytest.raises(EmptyDirichlet):
            assemble_mechanical(space, make_params(), None, FEField.zero(space), bc)

    def test_galerkin_residual_below_solver_tolerance(self):
        space = FESpace(build_cracked_grid(8, 8), order=2, components=2)
        p = make_params(b=0.0)
        theta_space = FESpace(space.mesh, order=2)
        theta = solve_thermal(theta_space, p, Q_source=100.0, bc=ThermalBC(value=100.0))
        sys, _ = assemble_mechanical(space, p, theta, FEField.zero(space), MechanicalBC())
        x = linear_solve(sys)
        res = np.linalg.norm(sys.matrix @ x - sys.rhs) / np.linalg.norm(sys.rhs)
        assert res <= 1e-12


class TestQuadratureExactness:
    @pytest.mark.parametrize("order", [1, 2])
    def test_element_matrices_exact_on_affine_elements(self, order):
        mesh = build_grid(3, 3)
        p = make_params(b=0.0)
        base = FESpace(mesh, order=order, components=2)
        rich = FESpace(mesh, order=order, components=2, n_quad=5)

        def local_matrices(space):
            from sltfem.assembly import strain_displacement
            B = strain_displacement(space)
            return np.einsum("eqim,eq,ij,eqjn->emn", B, space.detJxW,
                             p.E.entries, B, optimize=True)

        np.testing.assert_allclose(local_matrices(base), local_matrices(rich),
                                   rtol=1e-13, atol=1e-13)


class TestMassMatrixAndNorms:
    def test_total_mass_is_area(self):
        space = FESpace(build_grid(4, 4), order=2)
        M = mass_matrix(space)
        assert M.sum() == pytest.approx(1.0, abs=1e-12)

    def test_l2_norm_of_constant(self):
        space = FESpace(build_grid(4, 4), order=2)
        ones = np.ones(space.n_scalar_dofs)
        assert l2_norm(space, 3.0 * ones) == pytest.approx(3.0, abs=1e-12)

    def test_l2_norm_of_linear_field(self):
        # ||x||_L2 over the unit square is 1/sqrt(3)
        space = FESpace(build_grid(8, 8), order=2)
        vals = interpolate(space, lambda x, y: x)
        assert l2_norm(space, vals) == pytest.approx(1 / math.sqrt(3), rel=1e-12)

    def test_vector_l2_norm(self):
        space = FESpace(build_grid(4, 4), order=1, components=2)
        vals = interpolate_vec(space, lambda x, y: 3.0, lambda x, y: 4.0)
        assert l2_norm(space, vals) == pytest.approx(5.0, rel=1e-12)

    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("components", [1, 2])
    def test_l2_norm_matches_mass_matrix(self, order, components):
        # sqrt(sum_c c^T M c) with the consistent mass matrix of the same rule
        space = FESpace(build_cracked_grid(8, 8), order=order, components=components)
        M = mass_matrix(space)
        rng = np.random.default_rng(10 * order + components)
        for _ in range(3):
            vals = rng.normal(size=space.n_dofs)
            cols = vals.reshape(space.n_scalar_dofs, components).T
            want = math.sqrt(sum(c @ (M @ c) for c in cols))
            assert l2_norm(space, vals) == pytest.approx(want, rel=1e-14)


def coo_matrix_oracle(space, k_local, block):
    """Global matrix by COO-to-CSR conversion, the construction AssemblyPlan replaced."""
    dofs = space.element_dofs
    if block == 2:
        dofs = space.vector_dofs(dofs).reshape(dofs.shape[0], -1)
    m = dofs.shape[1]
    rows = np.repeat(dofs, m, axis=1).ravel()
    cols = np.tile(dofs, (1, m)).ravel()
    n = block * space.n_scalar_dofs
    return sp.coo_matrix((k_local.ravel(), (rows, cols)), shape=(n, n)).tocsr()


def eliminate_oracle(K, f, dirichlet):
    """Symmetric Dirichlet elimination by the diagonal product diag @ K @ diag."""
    dofs = np.fromiter(dirichlet.keys(), dtype=int)
    vals = np.fromiter(dirichlet.values(), dtype=float)
    g = np.zeros(f.shape[0])
    g[dofs] = vals
    f = f - K @ g
    f[dofs] = vals
    keep = np.ones(f.shape[0])
    keep[dofs] = 0.0
    K_red = sp.diags(keep) @ K @ sp.diags(keep) + sp.diags(1.0 - keep)
    return K_red.toarray(), f


def assert_close_rel(actual, expected, rtol=1e-14):
    np.testing.assert_allclose(actual, expected, rtol=0,
                               atol=rtol * max(abs(expected).max(), 1e-300))


def sorted_key_plan(space, dirichlet=None):
    """Scatter, pattern and unit diagonal of a vector plan built by sorting
    every vector (row, col) key and masking the full pattern, the
    construction the plan's derivation from the scalar pattern replaced.
    Given Dirichlet data, the pattern is the one left by symmetric
    elimination, and element entries in a fixed row or column scatter to the
    slot past its end."""
    dofs = space.vector_dofs(space.element_dofs).reshape(space.mesh.n_elements, -1)
    n, m = space.n_dofs, dofs.shape[1]
    keys = (np.repeat(dofs, m, axis=1) * n + np.tile(dofs, (1, m))).ravel()
    keys, scatter = np.unique(keys, return_inverse=True)
    rows, cols = np.divmod(keys, n)
    fixed = np.zeros(n, dtype=bool)
    fixed[list(dirichlet or ())] = True
    kept = ~(fixed[rows] | fixed[cols]) | (rows == cols)
    slot = np.where(fixed[rows] | fixed[cols], kept.sum(), np.cumsum(kept) - 1)
    pattern = (cols[kept].astype(np.int32), _row_pointer(rows[kept], n))
    unit_diagonal = np.flatnonzero(fixed[rows[kept]]).astype(np.int32)
    return slot[scatter].astype(np.int32), pattern, unit_diagonal


PLAN_CASES = [(n, order, b) for n in (4, 8) for order in (1, 2) for b in (0.0, 0.02)]


class TestAssemblyPlan:
    """Planned assembly against the COO + diag @ K @ diag construction."""

    @staticmethod
    def thermal(n, order, b):
        space = FESpace(build_cracked_grid(n, n), order=order)
        return space, make_params(b=b)

    @pytest.mark.parametrize("n,order,b", PLAN_CASES)
    def test_thermal_matches_oracle(self, n, order, b):
        space, p = self.thermal(n, order, b)
        bc = ThermalBC(value=lambda x, y: 400.0 * x * (1.0 - x))
        sys = assemble_thermal(space, p, 100.0, bc)
        k_local = p.k * np.einsum("eqai,eqbi,eq->eab", space.dNdx, space.dNdx, space.detJxW)
        f_local = np.einsum("qa,eq->ea", 100.0 * space.N, space.detJxW)
        f = np.zeros(space.n_dofs)
        np.add.at(f, space.element_dofs.ravel(), f_local.ravel())
        K_ref, f_ref = eliminate_oracle(coo_matrix_oracle(space, k_local, 1), f,
                                        thermal_dirichlet(space, bc))
        assert_close_rel(sys.matrix.toarray(), K_ref)
        assert_close_rel(sys.rhs, f_ref)

    @pytest.mark.parametrize("n,order,b", PLAN_CASES)
    def test_mechanical_matches_oracle(self, n, order, b):
        theta_space, p = self.thermal(n, order, b)
        theta = solve_thermal(theta_space, p, Q_source=100.0, bc=ThermalBC(value=100.0))
        space = FESpace(theta_space.mesh, order=order, components=2)
        # a curved previous iterate makes phi differ between quadrature points
        u_prev = FEField(space, interpolate_vec(space, lambda x, y: 5.0 * x * y,
                                                lambda x, y: 3.0 * x * x))
        bc = MechanicalBC(top_uy=0.1)
        sys, _ = assemble_mechanical(space, p, theta, u_prev, bc)

        from sltfem.constitutive import relaxation_factor_m
        from sltfem.tensors import energy_norm_m

        B = strain_displacement(space)
        phi, _ = relaxation_factor_m(energy_norm_m(strains_at_qps(u_prev, B), p.E.entries), p)
        assert (phi.max() > phi.min()) == (b > 0.0)
        k_local = np.einsum("eqim,eq,ij,eqjn->emn", B, phi * space.detJxW, p.E.entries, B,
                            optimize=True)
        f_local = -p.alpha * np.einsum("eqi,qa,eq->eai", np.einsum(
            "ea,eqai->eqi", theta.element_values(), space.dNdx), space.N, space.detJxW)
        f = np.zeros(space.n_dofs)
        np.add.at(f, space.vector_dofs(space.element_dofs).ravel(), f_local.ravel())
        K_ref, f_ref = eliminate_oracle(coo_matrix_oracle(space, k_local, 2), f,
                                        mechanical_dirichlet(space, bc))
        assert_close_rel(sys.matrix.toarray(), K_ref)
        assert_close_rel(sys.rhs, f_ref)

    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("b", [0.0, 0.02])
    @pytest.mark.parametrize("a", [0.5, 2.0])
    def test_tangent_matches_oracle(self, order, b, a):
        theta_space, _ = self.thermal(4, order, b)
        p = make_params(a=a, b=b)
        theta = solve_thermal(theta_space, p, Q_source=100.0, bc=ThermalBC(value=100.0))
        space = FESpace(theta_space.mesh, order=order, components=2)
        u_prev = FEField(space, interpolate_vec(space, lambda x, y: 5.0 * x * y,
                                                lambda x, y: 3.0 * x * x))
        bc = MechanicalBC(top_uy=0.1)
        sys, _ = assemble_mechanical(space, p, theta, u_prev, bc, tangent=True)

        # dsigma/deps = phi E + (phi'/t)(E eps)(E eps)^T at each point,
        # phi' = b^a t^(a-1) (1 - (b t)^a)^(-1/a-1)
        E = p.E.entries
        B = strain_displacement(space)
        eps = np.einsum("eqim,em->eqi", B, u_prev.element_values().reshape(
            space.mesh.n_elements, -1))
        t = np.sqrt(np.einsum("eqi,ij,eqj->eq", eps, E, eps))
        phi = (1.0 - (b * t) ** a) ** (-1.0 / a)
        dphi_t = b**a * t ** (a - 2.0) * (1.0 - (b * t) ** a) ** (-1.0 / a - 1.0)
        E_eps = eps @ E
        D = phi[..., None, None] * E + dphi_t[..., None, None] * np.einsum(
            "eqi,eqj->eqij", E_eps, E_eps)
        k_local = np.einsum("eqim,eq,eqij,eqjn->emn", B, space.detJxW, D, B)
        f_int_local = np.einsum("eqim,eqi,eq->em", B, phi[..., None] * E_eps, space.detJxW)
        vdofs = space.vector_dofs(space.element_dofs).ravel()
        f_int = np.zeros(space.n_dofs)
        np.add.at(f_int, vdofs, f_int_local.ravel())
        f_local = -p.alpha * np.einsum("eqi,qa,eq->eai", np.einsum(
            "ea,eqai->eqi", theta.element_values(), space.dNdx), space.N, space.detJxW)
        f = np.zeros(space.n_dofs)
        np.add.at(f, vdofs, f_local.ravel())
        K = coo_matrix_oracle(space, k_local, 2)
        K_ref, rhs_ref = eliminate_oracle(K, f - f_int + K @ u_prev.values,
                                          mechanical_dirichlet(space, bc))
        assert_close_rel(sys.matrix.toarray(), K_ref)
        assert_close_rel(sys.internal_force, f_int)
        # The load f - F_int + K u_prev cancels its larger terms, so either side
        # rounds at their size.
        terms = max(abs(f_int).max(), abs(K @ u_prev.values).max())
        np.testing.assert_allclose(sys.rhs, rhs_ref, rtol=0, atol=1e-14 * terms)

    @pytest.mark.parametrize("n,order,b", PLAN_CASES)
    def test_mass_matches_oracle(self, n, order, b):
        space, _ = self.thermal(n, order, b)
        m_local = np.einsum("qa,qb,eq->eab", space.N, space.N, space.detJxW)
        assert_close_rel(mass_matrix(space).toarray(),
                         coo_matrix_oracle(space, m_local, 1).toarray())

    @pytest.mark.parametrize("n,order", [(4, 1), (4, 2), (8, 1), (8, 2)])
    def test_vector_plan_matches_sorted_keys(self, n, order):
        space = FESpace(build_cracked_grid(n, n), order=order, components=2)
        m = 2 * space.element_dofs.shape[1]
        k_local = np.random.default_rng(n).normal(size=(space.mesh.n_elements, m, m))
        for dirichlet in (None, mechanical_dirichlet(space, MechanicalBC(top_uy=0.1))):
            plan = AssemblyPlan(space, 2, dirichlet)
            scatter, pattern, unit_diagonal = sorted_key_plan(space, dirichlet)
            assert unit_diagonal.size == len(dirichlet or ())
            for got, want in [(plan.scatter, scatter), *zip(plan.pattern, pattern),
                              (plan.unit_diagonal, unit_diagonal)]:
                assert got.dtype == want.dtype
                np.testing.assert_array_equal(got, want)
            nnz = pattern[0].size
            data = np.bincount(scatter, weights=k_local.ravel(), minlength=nnz + 1)[:nnz]
            data[unit_diagonal] = 1.0
            np.testing.assert_array_equal(plan.assemble(k_local).data, data)

    @pytest.mark.parametrize("order", [1, 2])
    def test_dirichlet_rows_and_columns_hold_unit_diagonal(self, order):
        theta_space, p = self.thermal(8, order, 0.02)
        space = FESpace(theta_space.mesh, order=order, components=2)
        bc = MechanicalBC(top_uy=0.1)
        systems = [
            (assemble_thermal(theta_space, p, 100.0, ThermalBC()),
             thermal_dirichlet(theta_space, ThermalBC())),
            (assemble_mechanical(space, p, None, FEField.zero(space), bc)[0],
             mechanical_dirichlet(space, bc)),
        ]
        for sys, dirichlet in systems:
            dofs = np.fromiter(dirichlet, dtype=int)
            for lines in (sys.matrix.tocsr()[dofs], sys.matrix.tocsc()[:, dofs].T.tocsr()):
                lines = lines.tocoo()
                np.testing.assert_array_equal(dofs[lines.row], lines.col)
                np.testing.assert_array_equal(lines.data, 1.0)
                assert lines.nnz == dofs.size
