import hashlib
import math
import re

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import sltfem.assembly
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
    scalar_gradients,
    shape_functions,
    strains_at_qps,
    _row_pointer,
)
from sltfem.mesh import ALL_TAGS, GAMMA1, GAMMA2, GAMMA3, GAMMA4, GAMMA_C_LOWER, GAMMA_C_UPPER
from sltfem.solver import linear_solve, solve_thermal

from mechanics import mechanical
from reference_geometry import bilinear_geometry, graded_cracked_grid


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


def moved_centre():
    mesh = build_grid(2, 2)
    mesh.nodes[4] = (0.55, 0.5)
    return mesh


def rotated():
    mesh = build_grid(2, 2)
    c, s = math.cos(0.3), math.sin(0.3)
    mesh.nodes = mesh.nodes @ np.array([[c, s], [-s, c]])
    return mesh


def one_clockwise():
    mesh = build_grid(2, 2)
    mesh.elements[1] = mesh.elements[1, ::-1]
    return mesh


# Meshes with an element FESpace rejects; its bilinear map would take the
# first two.
NOT_RECTANGLES = {f.__name__: f for f in (moved_centre, rotated, one_clockwise)}


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

    def test_element_sizes_from_corners(self):
        space = FESpace(graded_cracked_grid(), order=2)
        widths = np.diff(np.linspace(0.0, 1.0, 9) ** 2)
        np.testing.assert_allclose(space.h[:, 0], np.tile(widths, 8), rtol=1e-14)
        np.testing.assert_allclose(space.h[:, 1], 0.125, rtol=1e-14)
        assert space.detJxW.sum() == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("make", NOT_RECTANGLES.values(), ids=NOT_RECTANGLES.keys())
    @pytest.mark.parametrize("order", [1, 2])
    def test_rejects_other_than_rectangles(self, make, order):
        with pytest.raises(ValueError, match="axis-aligned rectangle"):
            FESpace(make(), order=order)

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


def dirichlet_of(plan):
    """{dof: value} of a plan's Dirichlet data."""
    fixed = np.flatnonzero(plan.fixed)
    return dict(zip(fixed.tolist(), plan.lift[fixed].tolist()))


# sha256 of the fixed dofs (int64) and the lift (float64) of a plan: pins which
# dofs a BC fixes, to what value, and which tag wins at a shared corner.
DIRICHLET_DIGESTS = [
    ((lambda: build_cracked_grid(8, 8), 2, MechanicalBC()),
     "662948a3eb3d273a0f1ccb3456b68fc104477d34b6816a7881bd8804353d3195"),
    ((lambda: build_cracked_grid(8, 8), 2, MechanicalBC(top_uy=0.2)),
     "54f7d7acef40f928c69b8e38c3b9474b156d13e3cfad2aae906dc253541d8dcd"),
    ((lambda: build_cracked_grid(6, 4, CrackSpec(mouth_edge="right")), 1,
      MechanicalBC(top_uy=-0.1, extra={GAMMA2: (0.05, None), GAMMA4: (None, 0.3)})),
     "2cf1008e9c1290841b4127a6dbb8c4df30d196ad4d5665506a4b545963147eb9"),
    ((lambda: build_grid(4, 4), 2,
      MechanicalBC(extra={GAMMA1: (lambda x, y: x, 0.0), GAMMA2: (0.0, lambda x, y: y * y),
                          GAMMA4: (0.0, 0.0)})),
     "6ec009922035b72895be4d3533d78335fe4f48f303d0020323aa9ef5e2a31537"),
    ((lambda: build_cracked_grid(8, 8), 2, ThermalBC(value=lambda x, y: 400.0 * x * (1.0 - x))),
     "b57867ed27c6d5813ea9159775221667e068d3483470eaf24c298053586af38a"),
    ((lambda: build_grid(5, 3), 1, ThermalBC(value=7.5, tag=GAMMA3)),
     "86e5c8307a43d0647471986ea5b9889a75d5aebe8a739778b2e9ea99affdc30a"),
]


@pytest.mark.parametrize("case, digest", DIRICHLET_DIGESTS,
                         ids=["8x8-q2-default", "8x8-q2-top0.2", "6x4-q1-right-extra",
                              "4x4-q2-callables", "8x8-q2-thermal-parabolic",
                              "5x3-q1-thermal-top"])
def test_dirichlet_data_pinned(case, digest):
    make_mesh, order, bc = case
    space = FESpace(make_mesh(), order=order,
                    components=1 if isinstance(bc, ThermalBC) else 2)
    plan = AssemblyPlan(space, bc)
    data = np.flatnonzero(plan.fixed).tobytes() + plan.lift.tobytes()
    assert hashlib.sha256(data).hexdigest() == digest


# sha256 of each tag's name and boundary scalar dofs (int64), over ALL_TAGS:
# pins the corner and Q2 midpoint dofs of the outer sides and the crack faces.
BOUNDARY_DOF_DIGESTS = [
    ((3, 5, None, 1), "dcf7df7c117e092390960c724bfc475e0b1224222be2e85a1f8b391ae46722a5"),
    ((3, 5, None, 2), "7dc8a695d49f3c4ceb9add452a0a387c1b410042b8fb2ab5b6aa27dd5e873f2e"),
    ((4, 4, CrackSpec(), 1), "7bfc4bd07b53b0cbb2a9ec187a40533b6b675a3c9f3b576cfaaa42815dfdb228"),
    ((4, 4, CrackSpec(), 2), "f19fdb211da7d5eb836c641b9185aa4fcca916500f9eb9e29742f2e39b10b10d"),
    ((4, 4, CrackSpec(mouth_edge="right"), 1),
     "10302f13c0d944e02fee2bc47646e2a8ccfc4783ce03cf7c7da5c542aea2f2bb"),
    ((4, 4, CrackSpec(mouth_edge="right"), 2),
     "c8cf8a0c1b776798e142588ad85bd129b4c3794a410a59737ed1f81a9e538fd0"),
    ((8, 4, CrackSpec(tip_x=0.75), 1),
     "2b2e93a02a576bc581181d3bb7ac6f8fbf1033c5d1d34dbc144c0c4010e0ab3a"),
    ((8, 4, CrackSpec(tip_x=0.75), 2),
     "afb132ca2837ea6f2045e948e161bea8ee7058480edb820788027f80c15a38fd"),
    ((8, 8, CrackSpec(mouth_edge="right", tip_x=0.25, y_line=0.25), 1),
     "3246ff91cb859903b20b3d81dfd89f0f0e9becd0a199458c40d92ca735729fb7"),
    ((8, 8, CrackSpec(mouth_edge="right", tip_x=0.25, y_line=0.25), 2),
     "a3a5226828ed01a8ee9aa8cc5047302175fc04e4526ac975e1474c88b04e5f83"),
    ((6, 4, CrackSpec(tip_x=1 / 6, y_line=0.75), 1),
     "a673b25f662a970968693b0f98d1782f32426284094ec9aac02f41d8ba6c0495"),
    ((6, 4, CrackSpec(tip_x=1 / 6, y_line=0.75), 2),
     "c32fd8dd6188fb1a12785f67e2b6d5d6faab018d5ba9b3bf66e3002ae4c7d676"),
]


@pytest.mark.parametrize("spec, digest", BOUNDARY_DOF_DIGESTS, ids=[
    f"{mesh}-q{order}" for mesh in ("3x5-uncracked", "4x4-left", "4x4-right", "8x4-left-tip0.75",
                                    "8x8-right-tip0.25-line0.25", "6x4-left-tip1of6-line0.75")
    for order in (1, 2)])
def test_boundary_dofs_pinned(spec, digest):
    nx, ny, crack, order = spec
    mesh = build_grid(nx, ny) if crack is None else build_cracked_grid(nx, ny, crack)
    space = FESpace(mesh, order=order)
    dofs = {tag: space.boundary_scalar_dofs(tag) for tag in ALL_TAGS}
    if crack is None:
        assert dofs[GAMMA_C_UPPER].size == dofs[GAMMA_C_LOWER].size == 0
    data = b"".join(tag.encode() + d.astype(np.int64).tobytes() for tag, d in dofs.items())
    assert hashlib.sha256(data).hexdigest() == digest


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
        with pytest.raises(EmptyDirichlet, match="^no Dirichlet dofs on nonsense$"):
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
        sys, clamps = mechanical(space, make_params(b=0.0), None, FEField.zero(space),
                                 MechanicalBC())
        assert clamps == 0
        np.testing.assert_allclose(linear_solve(sys), 0.0, atol=1e-14)

    def test_matrix_symmetric(self):
        space = FESpace(build_cracked_grid(4, 4), order=2, components=2)
        sys, _ = mechanical(space, make_params(b=0.0), None, FEField.zero(space), MechanicalBC())
        asym = abs(sys.matrix - sys.matrix.T).max()
        assert asym <= 1e-12 * abs(sys.matrix).max()

    def test_matrix_positive_definite(self):
        space = FESpace(build_cracked_grid(4, 4), order=2, components=2)
        sys, _ = mechanical(space, make_params(b=0.0), None, FEField.zero(space), MechanicalBC())
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
        sys_nl, _ = mechanical(space, p, None, u_prev, bc)
        sys_lin, _ = mechanical(space, make_params(b=0.0), None, FEField.zero(space), bc)
        diff = abs(sys_nl.matrix - phi * sys_lin.matrix).max()
        # Dirichlet diagonals stay at 1 in both, so compare off-eliminated rows
        free = np.flatnonzero(~AssemblyPlan(space, bc).fixed)
        sub_nl = sys_nl.matrix[np.ix_(free, free)].toarray()
        sub_lin = sys_lin.matrix[np.ix_(free, free)].toarray()
        np.testing.assert_allclose(sub_nl, phi * sub_lin, rtol=1e-12)
        assert phi > 1.0
        assert diff < 1.0  # eliminated unit diagonals differ by phi-1 at most

    def test_empty_dirichlet_raises(self):
        space = FESpace(build_grid(4, 4), order=1, components=2)
        bc = MechanicalBC(extra={GAMMA1: (None, None), GAMMA3: (None, None)})
        with pytest.raises(EmptyDirichlet, match=f"^no Dirichlet dofs on {GAMMA3}, {GAMMA1}$"):
            AssemblyPlan(space, bc)

    @pytest.mark.parametrize("extra, motion", [
        ({GAMMA3: (None, 0.0)}, "translation along (1, 0)"),
        ({GAMMA3: (0.0, None), GAMMA1: (0.0, None)}, "translation along (0, 1)"),
        ({GAMMA3: (None, None), GAMMA1: (0.0, None), GAMMA4: (None, 0.0)},
         "rotation about (0, 0)"),
    ], ids=["x-translation", "y-translation", "rotation"])
    def test_free_rigid_motion_raises(self, extra, motion):
        # u_y fixed on the top and bottom leaves the plate free to slide along
        # x: the b = 0 system is singular, and the cancellation floor of the
        # linear contract grows with |u|, so its solve would pass at any residual.
        space = FESpace(build_cracked_grid(8, 8), order=2, components=2)
        bc = MechanicalBC(extra=extra)
        tags = ", ".join(bc.component_values())
        with pytest.raises(EmptyDirichlet, match=re.escape(
                f"the Dirichlet dofs on {tags} leave a rigid {motion} free")):
            AssemblyPlan(space, bc)

    @pytest.mark.parametrize("components, bc, given", [
        (1, MechanicalBC(top_uy=0.3), 2), (2, ThermalBC(), 1)], ids=["mechanical", "thermal"])
    def test_plan_rejects_other_component_count(self, components, bc, given):
        # a MechanicalBC on a scalar space would fix dofs off its tags, and a
        # ThermalBC on a vector space would leave u_y free
        space = FESpace(build_grid(2, 2), order=2, components=components)
        tag = next(iter(bc.component_values()))
        with pytest.raises(ValueError, match=re.escape(
                f"{type(bc).__name__} gives {given} components on {tag}, "
                f"but the space has {components}")):
            AssemblyPlan(space, bc)

    def test_rejects_scalar_space(self):
        space = FESpace(build_grid(2, 2), order=1)
        with pytest.raises(ValueError, match="2-vector space"):
            assemble_mechanical(AssemblyPlan(space, ThermalBC()), make_params(),
                                np.zeros((space.mesh.n_elements, space.nqp, 3)),
                                np.zeros(space.n_dofs))

    def test_galerkin_residual_below_solver_tolerance(self):
        space = FESpace(build_cracked_grid(8, 8), order=2, components=2)
        p = make_params(b=0.0)
        theta_space = FESpace(space.mesh, order=2)
        theta = solve_thermal(theta_space, p, Q_source=100.0, bc=ThermalBC(value=100.0))
        sys, _ = mechanical(space, p, theta, FEField.zero(space), MechanicalBC())
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
            _, detJxW, B = bilinear_geometry(space)
            return np.einsum("eqim,eq,ij,eqjn->emn", B, detJxW,
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


def sorted_key_plan(space, dirichlet):
    """Scatter, pattern and unit diagonal of a vector plan built by sorting
    every vector (row, col) key and masking the full pattern, the
    construction the plan's derivation from the scalar pattern replaced.
    The pattern is the one left by symmetric elimination of the Dirichlet
    data, and element entries in a fixed row or column scatter to the slot
    past its end."""
    dofs = space.vector_dofs(space.element_dofs).reshape(space.mesh.n_elements, -1)
    n, m = space.n_dofs, dofs.shape[1]
    keys = (np.repeat(dofs, m, axis=1) * n + np.tile(dofs, (1, m))).ravel()
    keys, scatter = np.unique(keys, return_inverse=True)
    rows, cols = np.divmod(keys, n)
    fixed = np.zeros(n, dtype=bool)
    fixed[list(dirichlet)] = True
    kept = ~(fixed[rows] | fixed[cols]) | (rows == cols)
    slot = np.where(fixed[rows] | fixed[cols], kept.sum(), np.cumsum(kept) - 1)
    pattern = (cols[kept].astype(np.int32), _row_pointer(rows[kept], n))
    unit_diagonal = np.flatnonzero(fixed[rows[kept]]).astype(np.int32)
    return slot[scatter].astype(np.int32), pattern, unit_diagonal


PLAN_CASES = [(n, order, b) for n in (4, 8) for order in (1, 2) for b in (0.0, 0.02)]
# The oracles' cases plus a graded mesh, whose elements differ in width.
ORACLE_CASES = PLAN_CASES + [("graded", order, 0.02) for order in (1, 2)]
TANGENT_CASES = [(a, b, order) for a in (0.5, 2.0) for b in (0.0, 0.02) for order in (1, 2)]


class TestAssemblyPlan:
    """Planned assembly against the COO + diag @ K @ diag construction."""

    @staticmethod
    def thermal(n, order, b):
        mesh = graded_cracked_grid() if n == "graded" else build_cracked_grid(n, n)
        return FESpace(mesh, order=order), make_params(b=b)

    @pytest.mark.parametrize("n,order,b", ORACLE_CASES)
    def test_thermal_matches_oracle(self, n, order, b):
        space, p = self.thermal(n, order, b)
        bc = ThermalBC(value=lambda x, y: 400.0 * x * (1.0 - x))
        sys = assemble_thermal(space, p, 100.0, bc)
        dNdx, detJxW, _ = bilinear_geometry(space)
        k_local = p.k * np.einsum("eqai,eqbi,eq->eab", dNdx, dNdx, detJxW)
        f_local = np.einsum("qa,eq->ea", 100.0 * space.N, detJxW)
        f = np.zeros(space.n_dofs)
        np.add.at(f, space.element_dofs.ravel(), f_local.ravel())
        K_ref, f_ref = eliminate_oracle(coo_matrix_oracle(space, k_local, 1), f,
                                        dirichlet_of(AssemblyPlan(space, bc)))
        assert_close_rel(sys.matrix.toarray(), K_ref)
        assert_close_rel(sys.rhs, f_ref)

    @pytest.mark.parametrize("n,order,b", ORACLE_CASES)
    def test_mechanical_matches_oracle(self, n, order, b):
        theta_space, p = self.thermal(n, order, b)
        theta = solve_thermal(theta_space, p, Q_source=100.0, bc=ThermalBC(value=100.0))
        space = FESpace(theta_space.mesh, order=order, components=2)
        # a curved previous iterate makes phi differ between quadrature points
        u_prev = FEField(space, interpolate_vec(space, lambda x, y: 5.0 * x * y,
                                                lambda x, y: 3.0 * x * x))
        bc = MechanicalBC(top_uy=0.1)
        sys, _ = mechanical(space, p, theta, u_prev, bc)

        from sltfem.constitutive import relaxation_factor_m
        from sltfem.tensors import energy_norm_m

        dNdx, detJxW, B = bilinear_geometry(space)
        eps = np.einsum("eqim,em->eqi", B, u_prev.element_values().reshape(
            space.mesh.n_elements, -1))
        phi, _ = relaxation_factor_m(energy_norm_m(eps, p.E.entries), p)
        assert (phi.max() > phi.min()) == (b > 0.0)
        k_local = np.einsum("eqim,eq,ij,eqjn->emn", B, phi * detJxW, p.E.entries, B,
                            optimize=True)
        f_local = -p.alpha * np.einsum("eqi,qa,eq->eai", np.einsum(
            "ea,eqai->eqi", theta.element_values(), dNdx), space.N, detJxW)
        f = np.zeros(space.n_dofs)
        np.add.at(f, space.vector_dofs(space.element_dofs).ravel(), f_local.ravel())
        K_ref, f_ref = eliminate_oracle(coo_matrix_oracle(space, k_local, 2), f,
                                        dirichlet_of(AssemblyPlan(space, bc)))
        assert_close_rel(sys.matrix.toarray(), K_ref)
        assert_close_rel(sys.rhs, f_ref)

    @pytest.mark.parametrize("a,b,order", TANGENT_CASES)
    def test_tangent_matches_oracle(self, a, b, order):
        self.check_tangent(4, order, b, a)

    @pytest.mark.parametrize("a,b,order", TANGENT_CASES)
    def test_tangent_matches_oracle_on_graded_mesh(self, a, b, order):
        self.check_tangent("graded", order, b, a)

    def check_tangent(self, n, order, b, a):
        theta_space, _ = self.thermal(n, order, b)
        p = make_params(a=a, b=b)
        theta = solve_thermal(theta_space, p, Q_source=100.0, bc=ThermalBC(value=100.0))
        space = FESpace(theta_space.mesh, order=order, components=2)
        u_prev = FEField(space, interpolate_vec(space, lambda x, y: 5.0 * x * y,
                                                lambda x, y: 3.0 * x * x))
        bc = MechanicalBC(top_uy=0.1)
        sys, _ = mechanical(space, p, theta, u_prev, bc, tangent=True)

        # dsigma/deps = phi E + (phi'/t)(E eps)(E eps)^T at each point,
        # phi' = b^a t^(a-1) (1 - (b t)^a)^(-1/a-1). The oracle is evaluated
        # in long double: on the graded mesh, the float64 sums of its load
        # alone round above the tolerance below.
        ld = np.longdouble
        E = p.E.entries.astype(ld)
        dNdx, detJxW, B = (v.astype(ld) for v in bilinear_geometry(space))
        u_ld = u_prev.values.astype(ld)
        eps = np.einsum("eqim,em->eqi", B, u_ld[space.vector_dofs(space.element_dofs)].reshape(
            space.mesh.n_elements, -1))
        t = np.sqrt(np.einsum("eqi,ij,eqj->eq", eps, E, eps))
        phi = (1.0 - (b * t) ** a) ** (-1.0 / a)
        dphi_t = b**a * t ** (a - 2.0) * (1.0 - (b * t) ** a) ** (-1.0 / a - 1.0)
        E_eps = eps @ E
        D = phi[..., None, None] * E + dphi_t[..., None, None] * np.einsum(
            "eqi,eqj->eqij", E_eps, E_eps)
        k_local = np.einsum("eqim,eq,eqij,eqjn->emn", B, detJxW, D, B)
        f_int_local = np.einsum("eqim,eqi,eq->em", B, phi[..., None] * E_eps, detJxW)
        vdofs = space.vector_dofs(space.element_dofs).ravel()
        f_int = np.zeros(space.n_dofs, dtype=ld)
        np.add.at(f_int, vdofs, f_int_local.ravel())
        f_local = -p.alpha * np.einsum("eqi,qa,eq->eai", np.einsum(
            "ea,eqai->eqi", theta.element_values(), dNdx), space.N, detJxW)
        f = np.zeros(space.n_dofs, dtype=ld)
        np.add.at(f, vdofs, f_local.ravel())
        K = coo_matrix_oracle(space, k_local, 2)
        K_ref, rhs_ref = eliminate_oracle(K, f - f_int + K @ u_ld,
                                          dirichlet_of(AssemblyPlan(space, bc)))
        assert_close_rel(sys.matrix.toarray(), K_ref)
        assert_close_rel(sys.internal_force, f_int)
        # The load f - F_int + K u_prev cancels its larger terms, so either side
        # rounds at their size.
        terms = float(max(abs(f_int).max(), abs(K @ u_ld).max()))
        np.testing.assert_allclose(sys.rhs, rhs_ref, rtol=0, atol=1e-14 * terms)

    @pytest.mark.parametrize("n,order,b", PLAN_CASES)
    def test_mass_matches_oracle(self, n, order, b):
        space, _ = self.thermal(n, order, b)
        m_local = np.einsum("qa,qb,eq->eab", space.N, space.N, bilinear_geometry(space)[1])
        assert_close_rel(mass_matrix(space).toarray(),
                         coo_matrix_oracle(space, m_local, 1).toarray())

    @pytest.mark.parametrize("n,order", [(4, 1), (4, 2), (8, 1), (8, 2)])
    def test_vector_plan_matches_sorted_keys(self, n, order):
        space = FESpace(build_cracked_grid(n, n), order=order, components=2)
        m = 2 * space.element_dofs.shape[1]
        k_local = np.random.default_rng(n).normal(size=(space.mesh.n_elements, m, m))
        plan = AssemblyPlan(space, MechanicalBC(top_uy=0.1))
        dirichlet = dirichlet_of(plan)
        scatter, pattern, unit_diagonal = sorted_key_plan(space, dirichlet)
        assert unit_diagonal.size == len(dirichlet)
        for got, want in [(plan.scatter, scatter), *zip(plan.pattern, pattern),
                          (plan.unit_diagonal, unit_diagonal)]:
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)
        nnz = pattern[0].size
        data = np.bincount(scatter, weights=k_local.ravel(), minlength=nnz + 1)[:nnz]
        data[unit_diagonal] = 1.0
        np.testing.assert_array_equal(plan.system([k_local], 0).matrix.data, data)
        # blocks of consecutive elements sum in the same order, bit for bit,
        # into the matrix and into K lift, seen as -rhs on the free dofs (the
        # lift overwrites the fixed)
        sys = plan.system(np.array_split(k_local, 3), 0)
        np.testing.assert_array_equal(sys.matrix.data, data)
        Kd = (k_local @ plan.lift[plan.dofs][..., None]).ravel()
        k_lift = np.bincount(plan.dofs.ravel(), weights=Kd, minlength=plan.n)
        np.testing.assert_array_equal(-sys.rhs[~plan.fixed], k_lift[~plan.fixed])
        assert abs(k_lift[~plan.fixed]).max() > 0.0

    @pytest.mark.parametrize("order", [1, 2])
    def test_element_blocks_match_the_whole_element_array(self, monkeypatch, order):
        theta_space, p = self.thermal(8, order, 0.02)
        theta = solve_thermal(theta_space, p, Q_source=100.0, bc=ThermalBC(value=100.0))
        space = FESpace(theta_space.mesh, order=order, components=2)
        u_prev = FEField(space, interpolate_vec(space, lambda x, y: 5.0 * x * y,
                                                lambda x, y: 3.0 * x * x))
        bc = MechanicalBC(top_uy=0.1)

        def systems():
            return [mechanical(space, p, theta, u_prev, bc, tangent=tangent)[0]
                    for tangent in (False, True)]

        ne = space.mesh.n_elements
        monkeypatch.setattr(sltfem.assembly, "_ELEMENT_BLOCK", ne)
        whole = systems()
        monkeypatch.setattr(sltfem.assembly, "_ELEMENT_BLOCK", 5)
        assert ne % 5
        for got, want in zip(systems(), whole):
            np.testing.assert_array_equal(got.matrix.indices, want.matrix.indices)
            np.testing.assert_array_equal(got.matrix.indptr, want.matrix.indptr)
            assert_close_rel(got.matrix.data, want.matrix.data)
            assert_close_rel(got.rhs, want.rhs)
        np.testing.assert_array_equal(got.internal_force, want.internal_force)

    @pytest.mark.parametrize("order", [1, 2])
    def test_dirichlet_rows_and_columns_hold_unit_diagonal(self, order):
        theta_space, p = self.thermal(8, order, 0.02)
        space = FESpace(theta_space.mesh, order=order, components=2)
        bc = MechanicalBC(top_uy=0.1)
        systems = [
            (assemble_thermal(theta_space, p, 100.0, ThermalBC()),
             dirichlet_of(AssemblyPlan(theta_space, ThermalBC()))),
            (mechanical(space, p, None, FEField.zero(space), bc)[0],
             dirichlet_of(AssemblyPlan(space, bc))),
        ]
        for sys, dirichlet in systems:
            dofs = np.fromiter(dirichlet, dtype=int)
            for lines in (sys.matrix.tocsr()[dofs], sys.matrix.tocsc()[:, dofs].T.tocsr()):
                lines = lines.tocoo()
                np.testing.assert_array_equal(dofs[lines.row], lines.col)
                np.testing.assert_array_equal(lines.data, 1.0)
                assert lines.nnz == dofs.size
