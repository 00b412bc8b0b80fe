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

    elements are counterclockwise (n0, n1, n2, n3); boundary maps each tag
    to its facets as (n, 2) rows (element, k): edge k of the element, from
    corner k to corner (k + 1) mod 4, in element-boundary orientation.
    """

    nodes: np.ndarray                      # (n_nodes, 2)
    elements: np.ndarray                   # (n_elems, 4) int
    boundary: dict[str, np.ndarray]
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

    def facets_with_tag(self, tag: str) -> np.ndarray:
        """Node pairs (n, 2) of the tag's facets; (0, 2) for a tag the mesh lacks."""
        e, k = self.boundary.get(tag, np.zeros((0, 2), dtype=int)).T
        return self.elements[e[:, None], (k[:, None] + [0, 1]) % 4]

    def nodes_with_tag(self, tag: str) -> np.ndarray:
        return np.unique(self.facets_with_tag(tag))


def _grid(nx: int, ny: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes of the (nx+1) x (ny+1) grid, row by row from the bottom, and
    its counterclockwise quads as an (ny, nx, 4) array of node ids."""
    X, Y = np.meshgrid(np.linspace(0.0, 1.0, nx + 1), np.linspace(0.0, 1.0, ny + 1))
    ids = np.arange(X.size).reshape(X.shape)
    quads = np.stack([ids[:-1, :-1], ids[:-1, 1:], ids[1:, 1:], ids[1:, :-1]], axis=-1)
    return np.column_stack([X.ravel(), Y.ravel()]), quads


def _boundary(cells: np.ndarray, *faces: tuple) -> dict[str, np.ndarray]:
    """Rows (element, k) per tag of the four sides of cells, the (ny, nx)
    grid of element ids, and of each further (tag, cells, k) in faces."""
    edges = ((GAMMA1, cells[0], 0), (GAMMA2, cells[:, -1], 1),
             (GAMMA3, cells[-1], 2), (GAMMA4, cells[:, 0], 3), *faces)
    return {tag: np.column_stack([e.ravel(), np.full(e.size, k)]) for tag, e, k in edges}


def build_grid(nx: int, ny: int) -> CrackedMesh:
    """Uncracked structured grid on the unit square."""
    if nx < 1 or ny < 1:
        raise ValueError("nx, ny must be >= 1")
    nodes, quads = _grid(nx, ny)
    return CrackedMesh(nodes=nodes, elements=quads.reshape(-1, 4),
                       boundary=_boundary(np.arange(nx * ny).reshape(ny, nx)), nx=nx, ny=ny)


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

    nodes, quads = _grid(nx, ny)
    line = jc * (nx + 1) + np.arange(nx + 1)       # crack-line node ids, x increasing
    left = crack.mouth_edge == "left"
    # columns of the quads along the crack, and their crack-line nodes but the tip
    cols, upper = (np.s_[:it], line[:it]) if left else (np.s_[it:], line[it + 1:])
    # The original node serves the upper face, its copy (appended) the lower:
    # the row below the crack takes the copies as its top corners, and the
    # facets, edges of the rewired quads (the mouth one too), follow.
    remap = np.arange(len(nodes))
    remap[upper] = len(nodes) + np.arange(upper.size)
    quads[jc - 1, :, 2:] = remap[quads[jc - 1, :, 2:]]

    cells = np.arange(nx * ny).reshape(ny, nx)
    boundary = _boundary(cells, (GAMMA_C_UPPER, cells[jc, cols], 0),
                         (GAMMA_C_LOWER, cells[jc - 1, cols], 2))
    face_pairs = list(zip(upper.tolist(), remap[upper].tolist()))

    return CrackedMesh(
        nodes=np.vstack([nodes, nodes[upper]]),
        elements=quads.reshape(-1, 4),
        boundary=boundary,
        tip_node=int(line[it]),
        face_pairs=face_pairs if left else face_pairs[::-1],   # mouth -> tip
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
    for na, nb, tag in sorted((na, nb, tag) for tag in mesh.boundary
                              for na, nb in mesh.facets_with_tag(tag).tolist()):
        lines.append(f"facet {na} {nb} {tag}")
    return "\n".join(lines) + "\n"
