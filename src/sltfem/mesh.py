"""Structured quadrilateral meshes of the unit square with an edge crack.

The crack is a horizontal seam of duplicated nodes: interior crack-face
nodes (and the mouth node on the outer boundary) exist twice, once for the
elements above the crack line and once for those below, while the tip node
is shared so the faces join there. Boundary facets carry one of six tags.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParameter, MisalignedCrack

# Facet tags
GAMMA1 = "gamma1_bottom"
GAMMA2 = "gamma2_right"
GAMMA3 = "gamma3_top"
GAMMA4 = "gamma4_left"
GAMMA_C_UPPER = "gamma_c_upper"
GAMMA_C_LOWER = "gamma_c_lower"

ALL_TAGS = (GAMMA1, GAMMA2, GAMMA3, GAMMA4, GAMMA_C_UPPER, GAMMA_C_LOWER)


@dataclass(frozen=True)
class CrackSpec:
    """Horizontal edge crack: mouth on an outer edge, tip strictly inside."""

    y_line: float = 0.5
    mouth_edge: str = "left"
    tip_x: float = 0.5

    def __post_init__(self):
        if self.mouth_edge not in ("left", "right"):
            raise InvalidParameter("mouth_edge",
                                   f"mouth_edge must be 'left' or 'right', got {self.mouth_edge!r}")
        if not (0.0 < self.tip_x < 1.0):
            raise InvalidParameter("tip_x", f"tip_x={self.tip_x} must lie strictly inside (0, 1)")
        if not (0.0 < self.y_line < 1.0):
            raise InvalidParameter("y_line",
                                   f"y_line={self.y_line} must lie strictly inside (0, 1)")

    def misaligned(self, nx: int, ny: int) -> tuple[str, str] | None:
        """The field of this crack (y_line or tip_x) that is not an interior
        line of an nx x ny grid, and why; None if both are."""
        for name, what, n, count in (("y_line", "line y", ny, "ny"),
                                     ("tip_x", "tip x", nx, "nx")):
            value = getattr(self, name)
            i = value * n
            if abs(i - round(i)) > 1e-12 or not (0 < round(i) < n):
                return name, f"crack {what}={value} is not an interior mesh line for {count}={n}"
        return None


@dataclass
class CrackedMesh:
    """Quad mesh with optional crack seam and tagged boundary facets.

    elements are counterclockwise (n0, n1, n2, n3); facet_tags maps a facet
    (node id pair, in element-boundary orientation) to its tag.
    """

    nodes: np.ndarray                      # (n_nodes, 2)
    elements: np.ndarray                   # (n_elems, 4) int
    facet_tags: dict[tuple[int, int], str]
    tip_node: int | None = None
    face_pairs: list[tuple[int, int]] = field(default_factory=list)
    nx: int = 0
    ny: int = 0
    crack: CrackSpec | None = None

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def n_elements(self) -> int:
        return self.elements.shape[0]

    def facets_with_tag(self, tag: str) -> list[tuple[int, int]]:
        return [f for f, t in self.facet_tags.items() if t == tag]

    def nodes_with_tag(self, tag: str) -> np.ndarray:
        ids = set()
        for f, t in self.facet_tags.items():
            if t == tag:
                ids.update(f)
        return np.array(sorted(ids), dtype=int)


def _grid_ids(nx: int, ny: int) -> np.ndarray:
    return np.arange((nx + 1) * (ny + 1)).reshape(ny + 1, nx + 1)


def build_grid(nx: int, ny: int) -> CrackedMesh:
    """Uncracked structured grid on the unit square."""
    if nx < 1 or ny < 1:
        raise ValueError("nx, ny must be >= 1")
    xs = np.linspace(0.0, 1.0, nx + 1)
    ys = np.linspace(0.0, 1.0, ny + 1)
    X, Y = np.meshgrid(xs, ys)
    nodes = np.column_stack([X.ravel(), Y.ravel()])
    ids = _grid_ids(nx, ny)
    elems = []
    for j in range(ny):
        for i in range(nx):
            elems.append([ids[j, i], ids[j, i + 1], ids[j + 1, i + 1], ids[j + 1, i]])
    elements = np.array(elems, dtype=int)
    tags = {}
    for i in range(nx):
        tags[(ids[0, i], ids[0, i + 1])] = GAMMA1
        tags[(ids[ny, i + 1], ids[ny, i])] = GAMMA3
    for j in range(ny):
        tags[(ids[j, nx], ids[j + 1, nx])] = GAMMA2
        tags[(ids[j + 1, 0], ids[j, 0])] = GAMMA4
    return CrackedMesh(nodes=nodes, elements=elements, facet_tags=tags, nx=nx, ny=ny)


def build_cracked_grid(nx: int, ny: int, crack: CrackSpec = CrackSpec()) -> CrackedMesh:
    """Structured grid with a duplicated-node crack seam.

    The crack must lie on mesh lines: crack.y_line*ny and crack.tip_x*nx
    must be integers, with the crack row strictly interior.
    """
    if nx < 2 or ny < 2:
        raise ValueError("nx, ny must be >= 2 for a cracked grid")
    off = crack.misaligned(nx, ny)
    if off is not None:
        raise MisalignedCrack(off[1])
    jc, it = round(crack.y_line * ny), round(crack.tip_x * nx)

    mesh = build_grid(nx, ny)
    ids = _grid_ids(nx, ny)
    if crack.mouth_edge == "left":
        crack_cols = list(range(0, it))           # duplicated columns
        elem_cols = list(range(0, it))            # elements whose edge lies on the crack
    else:
        crack_cols = list(range(it + 1, nx + 1))
        elem_cols = list(range(it, nx))

    nodes = mesh.nodes
    elements = mesh.elements.copy()
    # Original node serves the upper face; the appended duplicate the lower.
    dup_of = {}
    new_nodes = []
    for i in crack_cols:
        nid = int(ids[jc, i])
        dup_of[nid] = nodes.shape[0] + len(new_nodes)
        new_nodes.append(nodes[nid])
    nodes = np.vstack([nodes, np.array(new_nodes)])

    # Rewire elements strictly below the crack line onto the duplicates.
    for i in elem_cols:
        e = (jc - 1) * nx + i
        for loc in (2, 3):  # top corners of a below-crack element
            nid = int(elements[e, loc])
            if nid in dup_of:
                elements[e, loc] = dup_of[nid]

    tags = dict(mesh.facet_tags)
    # Crack-face facets, oriented as element boundary edges.
    for i in elem_cols:
        upper = (int(ids[jc, i]), int(ids[jc, i + 1]))          # bottom edge of above element
        lo_a = dup_of.get(upper[0], upper[0])
        lo_b = dup_of.get(upper[1], upper[1])
        tags[upper] = GAMMA_C_UPPER
        tags[(lo_b, lo_a)] = GAMMA_C_LOWER
    # Outer-boundary facets adjacent to the mouth must reference the rewired ids.
    if crack.mouth_edge == "left":
        mouth = int(ids[jc, 0])
        old = (int(ids[jc, 0]), int(ids[jc - 1, 0]))
        tags[(dup_of[mouth], old[1])] = tags.pop(old)
    else:
        mouth = int(ids[jc, nx])
        old = (int(ids[jc - 1, nx]), int(ids[jc, nx]))
        tags[(old[0], dup_of[mouth])] = tags.pop(old)

    face_pairs = [(int(ids[jc, i]), dup_of[int(ids[jc, i])]) for i in crack_cols]
    # Order mouth -> tip.
    if crack.mouth_edge == "right":
        face_pairs = face_pairs[::-1]

    return CrackedMesh(
        nodes=nodes,
        elements=elements,
        facet_tags=tags,
        tip_node=int(ids[jc, it]),
        face_pairs=face_pairs,
        nx=nx,
        ny=ny,
        crack=crack,
    )


def refine_uniform(mesh: CrackedMesh) -> CrackedMesh:
    """Split every quad in four; crack topology and tags are rebuilt."""
    if mesh.crack is None:
        return build_grid(2 * mesh.nx, 2 * mesh.ny)
    return build_cracked_grid(2 * mesh.nx, 2 * mesh.ny, mesh.crack)


def dump_mesh(mesh: CrackedMesh) -> str:
    """Plain-text listing: nodes, elements, then tagged facets."""
    lines = []
    for i, (x, y) in enumerate(mesh.nodes):
        lines.append(f"{i} {x:.17g} {y:.17g}")
    for e, conn in enumerate(mesh.elements):
        lines.append(f"{e} {conn[0]} {conn[1]} {conn[2]} {conn[3]}")
    for (na, nb), tag in sorted(mesh.facet_tags.items()):
        lines.append(f"facet {na} {nb} {tag}")
    return "\n".join(lines) + "\n"
