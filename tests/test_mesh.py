import hashlib

import numpy as np
import pytest

from sltfem import CrackSpec, MisalignedCrack, build_cracked_grid, build_grid, dump_mesh, refine_uniform
from sltfem.assembly import FESpace
from sltfem.mesh import (
    ALL_TAGS,
    GAMMA1,
    GAMMA2,
    GAMMA3,
    GAMMA4,
    GAMMA_C_LOWER,
    GAMMA_C_UPPER,
)


class TestBuildGrid:
    def test_2x2_counts(self):
        mesh = build_grid(2, 2)
        assert mesh.n_nodes == 9
        assert mesh.n_elements == 4

    def test_nodes_cover_unit_square(self):
        mesh = build_grid(3, 5)
        assert mesh.nodes[:, 0].min() == 0.0 and mesh.nodes[:, 0].max() == 1.0
        assert mesh.nodes[:, 1].min() == 0.0 and mesh.nodes[:, 1].max() == 1.0

    def test_elements_counterclockwise(self):
        mesh = build_grid(4, 3)
        quads = mesh.nodes[mesh.elements]
        # shoelace area of each quad must be positive
        x, y = quads[..., 0], quads[..., 1]
        area = 0.5 * np.sum(x * np.roll(y, -1, axis=1) - np.roll(x, -1, axis=1) * y, axis=1)
        assert np.all(area > 0)

    def test_boundary_tag_counts(self):
        mesh = build_grid(4, 3)
        assert len(mesh.facets_with_tag(GAMMA1)) == 4
        assert len(mesh.facets_with_tag(GAMMA3)) == 4
        assert len(mesh.facets_with_tag(GAMMA2)) == 3
        assert len(mesh.facets_with_tag(GAMMA4)) == 3

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            build_grid(0, 4)


class TestBuildCrackedGrid:
    def test_4x4_default_crack_counts(self):
        mesh = build_cracked_grid(4, 4)
        # crack-face nodes at x in {0, 0.25} on y=0.5 are duplicated
        assert mesh.n_nodes == 27
        assert len(mesh.face_pairs) == 2
        assert mesh.tip_node is not None
        np.testing.assert_allclose(mesh.nodes[mesh.tip_node], [0.5, 0.5])

    def test_duplicates_coincident(self):
        mesh = build_cracked_grid(8, 8, CrackSpec(tip_x=0.75))
        for upper, lower in mesh.face_pairs:
            np.testing.assert_array_equal(mesh.nodes[upper], mesh.nodes[lower])

    def test_tip_not_duplicated(self):
        mesh = build_cracked_grid(4, 4)
        paired = {n for pair in mesh.face_pairs for n in pair}
        assert mesh.tip_node not in paired

    def test_no_element_bridges_the_seam(self):
        mesh = build_cracked_grid(8, 4)
        for upper, lower in mesh.face_pairs:
            for conn in mesh.elements:
                assert not (upper in conn and lower in conn)

    def test_faces_sorted_mouth_to_tip(self):
        mesh = build_cracked_grid(8, 4)
        xs = [mesh.nodes[up, 0] for up, _ in mesh.face_pairs]
        assert xs == sorted(xs)

    def test_mouth_right(self):
        mesh = build_cracked_grid(4, 4, CrackSpec(mouth_edge="right", tip_x=0.5))
        assert mesh.n_nodes == 27
        xs = [mesh.nodes[up, 0] for up, _ in mesh.face_pairs]
        assert xs == sorted(xs, reverse=True)   # mouth (x=1) first
        np.testing.assert_allclose(mesh.nodes[mesh.tip_node], [0.5, 0.5])

    def test_misaligned_crack_line(self):
        with pytest.raises(MisalignedCrack):
            build_cracked_grid(4, 3)

    def test_misaligned_tip(self):
        with pytest.raises(MisalignedCrack):
            build_cracked_grid(4, 4, CrackSpec(tip_x=0.3))

    def test_crack_spec_validation(self):
        with pytest.raises(ValueError):
            CrackSpec(mouth_edge="top")
        with pytest.raises(ValueError):
            CrackSpec(tip_x=1.0)
        with pytest.raises(ValueError):
            CrackSpec(y_line=0.0)

    def test_crack_face_tags(self):
        mesh = build_cracked_grid(4, 4)
        assert len(mesh.facets_with_tag(GAMMA_C_UPPER)) == 2
        assert len(mesh.facets_with_tag(GAMMA_C_LOWER)) == 2
        upper_nodes = mesh.nodes_with_tag(GAMMA_C_UPPER)
        lower_nodes = mesh.nodes_with_tag(GAMMA_C_LOWER)
        assert mesh.tip_node in upper_nodes and mesh.tip_node in lower_nodes
        np.testing.assert_allclose(mesh.nodes[upper_nodes][:, 1], 0.5)
        np.testing.assert_allclose(mesh.nodes[lower_nodes][:, 1], 0.5)

    @pytest.mark.parametrize("nx, ny, crack", [
        (4, 4, CrackSpec()),
        (4, 4, CrackSpec(mouth_edge="right")),
        (8, 4, CrackSpec(tip_x=0.75)),
        (8, 8, CrackSpec(mouth_edge="right", tip_x=0.25, y_line=0.25)),
        (6, 4, CrackSpec(tip_x=1 / 6, y_line=0.75)),
    ], ids=["left", "right", "left-tip0.75", "right-off-centre", "left-off-centre"])
    def test_every_boundary_facet_tagged_once(self, nx, ny, crack):
        mesh = build_cracked_grid(nx, ny, crack)
        # the tagged facets are the counter-clockwise element edges with no
        # reversed twin, i.e. the edges of one element only
        edges = {(int(a), int(b)) for conn in mesh.elements
                 for a, b in zip(conn, np.roll(conn, -1))}
        facets = [tuple(f) for tag in mesh.boundary for f in mesh.facets_with_tag(tag).tolist()]
        assert len(set(facets)) == len(facets)
        assert set(facets) == {(a, b) for a, b in edges if (b, a) not in edges}
        # 2 (nx + ny) outer facets, plus one per cracked column on each crack face
        assert len(facets) == 2 * (nx + ny) + 2 * len(mesh.face_pairs)
        for tag in mesh.boundary:
            assert tag in ALL_TAGS

    def test_total_area_one(self):
        mesh = build_cracked_grid(8, 8, CrackSpec(tip_x=0.25))
        space = FESpace(mesh, order=2)
        assert space.detJxW.sum() == pytest.approx(1.0, abs=1e-12)


class TestRefineUniform:
    def test_element_count_quadruples(self):
        mesh = build_grid(2, 2)
        fine = refine_uniform(mesh)
        assert fine.n_elements == 16

    def test_crack_pairs_double(self):
        mesh = build_cracked_grid(4, 4)
        fine = refine_uniform(mesh)
        xs = sorted(fine.nodes[up, 0] for up, _ in fine.face_pairs)
        np.testing.assert_allclose(xs, [0.0, 0.125, 0.25, 0.375])

    def test_jacobians_positive_after_refining(self):
        fine = refine_uniform(build_cracked_grid(4, 4))
        space = FESpace(fine, order=1)
        assert np.all(space.detJxW > 0)


# sha256 of dump_mesh text, face_pairs and tip_node: pins the node and
# element numbering, the facet orientation and the mouth-to-tip pair order.
MESH_DIGESTS = [
    ((3, 5, None), "e0ccd32455779d5c34a2627f0e131248e214ee13cc989b92a69281405c91140d"),
    ((4, 4, CrackSpec()), "f1f7afdb7e829b6a1f56bcbee01d35ddb0fc48c0ad3c3427698c18764e7f5f33"),
    ((8, 4, CrackSpec(tip_x=0.75)),
     "eb5364d0d1551b3725a0983aadc0b5d375c92c995d2fb704a1334a237ddcedcc"),
    ((4, 4, CrackSpec(mouth_edge="right")),
     "f5b21388383f58d732601a17f308aee9b12c498f32f0e4aa88c8505d12dfa8ce"),
    ((8, 8, CrackSpec(mouth_edge="right", tip_x=0.25, y_line=0.25)),
     "26cc79a18de8856d432cbcc2fa0f834f7d2d94b89e11890cd5264ebb4fa310da"),
    ((6, 4, CrackSpec(tip_x=1 / 6, y_line=0.75)),
     "5fac67f014dc98c7b6de5c42b595c24d27e237f3d24f406521d773b4dbe0d830"),
]


@pytest.mark.parametrize("spec, digest", MESH_DIGESTS,
                         ids=["3x5-uncracked", "4x4-left", "8x4-left-tip0.75", "4x4-right",
                              "8x8-right-tip0.25-line0.25", "6x4-left-tip1of6-line0.75"])
def test_mesh_numbering_pinned(spec, digest):
    nx, ny, crack = spec
    mesh = build_grid(nx, ny) if crack is None else build_cracked_grid(nx, ny, crack)
    text = dump_mesh(mesh) + f"face_pairs {mesh.face_pairs}\ntip_node {mesh.tip_node}\n"
    assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestDumpMesh:
    def test_line_counts_and_format(self):
        mesh = build_cracked_grid(4, 4)
        text = dump_mesh(mesh)
        lines = text.splitlines()
        n_facets = sum(len(rows) for rows in mesh.boundary.values())
        assert len(lines) == mesh.n_nodes + mesh.n_elements + n_facets
        assert lines[0].split() == ["0", "0", "0"]
        facet_lines = [ln for ln in lines if ln.startswith("facet")]
        assert len(facet_lines) == n_facets
        na, nb, tag = facet_lines[0].split()[1:]
        assert tag in ALL_TAGS
        assert [int(na), int(nb)] in mesh.facets_with_tag(tag).tolist()
        assert text.endswith("\n")
