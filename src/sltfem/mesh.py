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
        return np.unique(np.array(self.facets_with_tag(tag), dtype=int))


def _grid(nx: int, ny: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes of the (nx+1) x (ny+1) grid, row by row from the bottom, and
    its counterclockwise quads as an (ny, nx, 4) array of node ids."""
    X, Y = np.meshgrid(np.linspace(0.0, 1.0, nx + 1), np.linspace(0.0, 1.0, ny + 1))
    ids = np.arange(X.size).reshape(X.shape)
    quads = np.stack([ids[:-1, :-1], ids[:-1, 1:], ids[1:, 1:], ids[1:, :-1]], axis=-1)
    return np.column_stack([X.ravel(), Y.ravel()]), quads


def _tag_edges(tags: dict, quads: np.ndarray, k: int, tag: str) -> None:
    """Tag edge k (corner k to corner k+1, in element-boundary orientation)
    of each quad in quads."""
    edges = quads[..., [k, (k + 1) % 4]].reshape(-1, 2).tolist()
    tags.update(dict.fromkeys(map(tuple, edges), tag))


def _outer_tags(quads: np.ndarray) -> dict[tuple[int, int], str]:
    tags = {}
    for tag, side, k in ((GAMMA1, quads[0], 0), (GAMMA2, quads[:, -1], 1),
                         (GAMMA3, quads[-1], 2), (GAMMA4, quads[:, 0], 3)):
        _tag_edges(tags, side, k, tag)
    return tags


def build_grid(nx: int, ny: int) -> CrackedMesh:
    """Uncracked structured grid on the unit square."""
    if nx < 1 or ny < 1:
        raise ValueError("nx, ny must be >= 1")
    nodes, quads = _grid(nx, ny)
    return CrackedMesh(nodes=nodes, elements=quads.reshape(-1, 4),
                       facet_tags=_outer_tags(quads), nx=nx, ny=ny)


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
    # facets read off the rewired quads (the mouth one too) follow.
    remap = np.arange(len(nodes))
    remap[upper] = len(nodes) + np.arange(upper.size)
    quads[jc - 1, :, 2:] = remap[quads[jc - 1, :, 2:]]

    tags = _outer_tags(quads)
    _tag_edges(tags, quads[jc, cols], 0, GAMMA_C_UPPER)
    _tag_edges(tags, quads[jc - 1, cols], 2, GAMMA_C_LOWER)
    face_pairs = list(zip(upper.tolist(), remap[upper].tolist()))

    return CrackedMesh(
        nodes=np.vstack([nodes, nodes[upper]]),
        elements=quads.reshape(-1, 4),
        facet_tags=tags,
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
    for (na, nb), tag in sorted(mesh.facet_tags.items()):
        lines.append(f"facet {na} {nb} {tag}")
    return "\n".join(lines) + "\n"
