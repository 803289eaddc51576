"""Tetrahedral meshes of polyhedral domains.

Provides the structured Kuhn subdivision of the unit cube, a reader for
Gmsh MSH 2.2 ASCII files, entity topology (edges, faces, incidence with
orientation signs), the Betti numbers of the meshed domain, spanning
trees of the graph of an edge-node incidence and mesh quality metrics.

Conventions used throughout the package:

* every vertex belongs to a cell and has finite coordinates;
* cell vertex orderings are repaired so every tetrahedron has positive
  volume (ascending vertex indices, last two swapped when needed);
* local edges of a cell are the vertex pairs
  ``[(0,1),(0,2),(0,3),(1,2),(1,3),(2,3)]``;
* local faces are opposite the like-numbered vertex,
  ``[(1,2,3),(0,2,3),(0,1,3),(0,1,2)]``;
* global edges and faces are stored as ascending vertex tuples, sorted
  lexicographically, and their intrinsic orientation (edge direction,
  face normal) is the one induced by ascending global vertex indices.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph


class MeshError(Exception):
    """Raised for malformed or degenerate mesh input."""


class ParseError(MeshError):
    """Raised when a mesh file cannot be parsed; carries the line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


LOCAL_EDGES = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
LOCAL_FACES = ((1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2))


class Mesh:
    """A tetrahedral mesh: vertex coordinates, cells and region tags.

    Attributes
    ----------
    vertices : (nv, 3) float array
    cells : (nc, 4) int array, positively oriented
    cell_tags : (nc,) int array of region tags
    """

    def __init__(self, vertices, cells, cell_tags=None):
        self.vertices = np.ascontiguousarray(vertices, dtype=float)
        cells = np.ascontiguousarray(cells, dtype=np.int64)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 3:
            raise MeshError("vertices must be an (nv, 3) array")
        bad = np.flatnonzero(~np.isfinite(self.vertices).all(axis=1))
        if len(bad):
            raise MeshError(
                f"{len(bad)} vertices have non-finite coordinates (first: vertex {bad[0]})"
            )
        if cells.ndim != 2 or cells.shape[1] != 4:
            raise MeshError("cells must be an (nc, 4) array")
        if cells.size and (cells.min() < 0 or cells.max() >= len(self.vertices)):
            raise MeshError("cell refers to a vertex that does not exist")
        unused = np.flatnonzero(np.bincount(cells.ravel(), minlength=len(self.vertices)) == 0)
        if len(unused):
            # an unused vertex would carry a free P1/P2 dof with an empty row
            raise MeshError(
                f"{len(unused)} vertices belong to no cell (first unused: vertex {unused[0]})"
            )
        self.cells = _repair_orientation(self.vertices, cells)
        if cell_tags is None:
            cell_tags = np.zeros(len(self.cells), dtype=np.int64)
        self.cell_tags = np.asarray(cell_tags, dtype=np.int64)
        if self.cell_tags.shape != (len(self.cells),):
            raise MeshError("cell_tags must have one entry per cell")
        self._cache: dict = {}

    def cached(self, key, build):
        """``build()`` on the first read of ``key``, then that object."""
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_cells(self) -> int:
        return len(self.cells)

    @cached_property
    def cell_coords(self):
        """Vertex coordinates per cell, shape (nc, 4, 3)."""
        return self.vertices[self.cells]

    @cached_property
    def jacobians(self):
        """Edge matrices J with rows v_i - v_0, shape (nc, 3, 3)."""
        X = self.cell_coords
        return X[:, 1:, :] - X[:, :1, :]

    @cached_property
    def det_jacobians(self):
        return np.linalg.det(self.jacobians)

    @cached_property
    def volumes(self):
        return self.det_jacobians / 6.0

    @cached_property
    def grad_lambda(self):
        """Gradients of the four barycentric coordinates, shape (nc, 4, 3)."""
        inv_t = np.linalg.inv(self.jacobians)  # columns are grad lambda_i
        g = np.transpose(inv_t, (0, 2, 1))
        g0 = -g.sum(axis=1, keepdims=True)
        return np.concatenate([g0, g], axis=1)

    @cached_property
    def diameters(self):
        """Cell diameters (longest edge), shape (nc,)."""
        X = self.cell_coords
        d = np.zeros(self.num_cells)
        for a, b in LOCAL_EDGES:
            d = np.maximum(d, np.linalg.norm(X[:, a] - X[:, b], axis=1))
        return d


def _repair_orientation(vertices, cells):
    """Sort each cell's vertices ascending, then swap the last two if the
    resulting tetrahedron is negatively oriented.  Idempotent.  Raises on
    degenerate (zero-volume) cells."""
    cells = np.sort(cells, axis=1)
    X = vertices[cells]
    det = np.linalg.det(X[:, 1:, :] - X[:, :1, :])
    scale = np.maximum(np.abs(det).max() if len(det) else 1.0, 1.0)
    if np.any(np.abs(det) <= 1e-14 * scale):
        bad = int(np.argmin(np.abs(det)))
        raise MeshError(f"cell {bad} is degenerate (volume ~ 0)")
    flip = det < 0
    cells[flip, 2], cells[flip, 3] = cells[flip, 3], cells[flip, 2].copy()
    return cells


def unit_cube_mesh(n: int) -> Mesh:
    """Kuhn triangulation of the unit cube: n^3 subcubes, 6 tets each.

    All six tetrahedra of a subcube share its main diagonal, so the mesh
    is conforming and every cell has diameter sqrt(3)/n.
    """
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
        raise MeshError(f"n must be an integer >= 1, not {n!r}")
    m = n + 1
    grid = np.linspace(0.0, 1.0, m)
    xx, yy, zz = np.meshgrid(grid, grid, grid, indexing="ij")
    vertices = np.stack([xx.ravel(), yy.ravel(), zz.ravel()], axis=1)
    # the corners of each path from (i, j, k) to (i+1, j+1, k+1) that
    # steps along the axes in the order of one permutation, (6, 4, 3)
    perms = np.array(list(itertools.permutations(range(3))))
    paths = np.zeros((len(perms), 4, 3), dtype=np.int64)
    paths[:, 1:] = np.cumsum(np.eye(3, dtype=np.int64)[perms], axis=1)
    idx = np.arange(n)
    base = np.stack(np.meshgrid(idx, idx, idx, indexing="ij"), axis=-1).reshape(-1, 1, 1, 3)
    cells = (base + paths) @ np.array([m * m, m, 1])  # (n^3, 6, 4) vertex ids
    return Mesh(vertices, cells.reshape(-1, 4))


def read_gmsh_msh2(path: str) -> Mesh:
    """Read a Gmsh MSH 2.2 ASCII file.

    Keeps 4-node tetrahedra (element type 4) and their first physical tag;
    all other element types are ignored.  Node ids must be contiguous
    1..N; violations, non-numeric fields and a file that ends early
    raise ParseError with the offending line number.  Nodes that no
    tetrahedron references (geometry points, nodes of surface elements
    only) are dropped, and the rest keep their order.
    """
    with open(path, "r") as fh:
        lines = fh.read().splitlines()

    pos = 0
    nlines = len(lines)

    def line(idx):
        if idx >= nlines:
            raise ParseError("unexpected end of file", idx + 1)
        return lines[idx]

    def number(kind, text, what):
        try:
            value = kind(text)
        except ValueError:
            raise ParseError(f"{what} {text!r} is not a number", pos + 1) from None
        if kind is float and not np.isfinite(value):
            raise ParseError(f"{what} {text!r} is not finite", pos + 1)
        return value

    def expect(tag):
        nonlocal pos
        while pos < nlines and not lines[pos].strip():
            pos += 1
        if pos >= nlines or lines[pos].strip() != tag:
            raise ParseError(f"expected {tag}", pos + 1)
        pos += 1

    expect("$MeshFormat")
    fmt = line(pos).split()
    if len(fmt) != 3 or not fmt[0].startswith("2.2"):
        raise ParseError(f"unsupported mesh format {lines[pos]!r}", pos + 1)
    pos += 1
    expect("$EndMeshFormat")

    expect("$Nodes")
    nnodes = number(int, line(pos), "node count")
    pos += 1
    vertices = []
    for i in range(nnodes):
        t = line(pos).split()
        if len(t) != 4:
            raise ParseError("node line needs 'id x y z'", pos + 1)
        if number(int, t[0], "node id") != i + 1:
            raise ParseError(f"non-contiguous node id {t[0]} (expected {i + 1})", pos + 1)
        vertices.append([number(float, x, "coordinate") for x in t[1:]])
        pos += 1
    expect("$EndNodes")

    expect("$Elements")
    nelem = number(int, line(pos), "element count")
    pos += 1
    cells = []
    tags = []
    for _ in range(nelem):
        t = line(pos).split()
        if len(t) < 3:
            raise ParseError("element line too short", pos + 1)
        etype, ntags = (number(int, x, "element field") for x in t[1:3])
        nodes = t[3 + ntags:]
        if etype == 4:
            if len(nodes) != 4:
                raise ParseError("tetrahedron needs exactly 4 nodes", pos + 1)
            conn = [number(int, s, "node reference") - 1 for s in nodes]
            if any(v < 0 or v >= nnodes for v in conn):
                raise ParseError(f"unknown node reference in {lines[pos]!r}", pos + 1)
            cells.append(conn)
            tags.append(number(int, t[3], "physical tag") if ntags > 0 else 0)
        pos += 1
    expect("$EndElements")

    if not cells:
        raise ParseError("file contains no tetrahedra", pos)
    cells = np.array(cells, dtype=np.int64)
    used, renumbered = np.unique(cells.ravel(), return_inverse=True)
    return Mesh(
        np.array(vertices)[used], renumbered.reshape(cells.shape), np.array(tags, dtype=np.int64)
    )


@dataclass
class MeshTopology:
    """Edge/face tables, boundary flags and signed incidence matrices.

    The incidence matrices are the coefficient-level differential
    operators of the lowest-order complex (integer entries):

    * ``grad_incidence`` (ne, nv): row of edge (a, b) is -1 at a, +1 at b;
    * ``curl_incidence`` (nf, ne): row of face (a, b, c) is +1 at (a, b),
      -1 at (a, c), +1 at (b, c) (Stokes around the ascending-index
      orientation);
    * ``div_incidence`` (nc, nf): +1 where the intrinsic face normal
      points out of the cell, -1 otherwise.

    Their composites curl*grad and div*curl vanish exactly (integer
    arithmetic).
    """

    edges: np.ndarray            # (ne, 2) ascending pairs, lexicographic
    faces: np.ndarray            # (nf, 3) ascending triples, lexicographic
    cell_to_edge: np.ndarray     # (nc, 6)
    cell_to_face: np.ndarray     # (nc, 4)
    boundary_faces: np.ndarray   # (nf,) bool
    boundary_edges: np.ndarray   # (ne,) bool
    boundary_vertices: np.ndarray  # (nv,) bool
    grad_incidence: sp.csr_matrix
    curl_incidence: sp.csr_matrix
    div_incidence: sp.csr_matrix

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @property
    def num_faces(self) -> int:
        return len(self.faces)


def build_topology(mesh: Mesh) -> MeshTopology:
    """Enumerate edges and faces of a mesh and build incidence operators."""
    nv = mesh.num_vertices
    nc = mesh.num_cells
    cells = mesh.cells

    pairs = np.sort(cells[:, LOCAL_EDGES], axis=2).reshape(-1, 2)
    keys = pairs[:, 0] * nv + pairs[:, 1]
    edge_keys, inverse = np.unique(keys, return_inverse=True)
    edges = np.stack([edge_keys // nv, edge_keys % nv], axis=1)
    cell_to_edge = inverse.reshape(nc, 6)

    triples = np.sort(cells[:, LOCAL_FACES], axis=2).reshape(-1, 3)
    fkeys = (triples[:, 0] * nv + triples[:, 1]) * nv + triples[:, 2]
    face_keys, finv = np.unique(fkeys, return_inverse=True)
    faces = np.stack(
        [face_keys // (nv * nv), (face_keys // nv) % nv, face_keys % nv], axis=1
    )
    cell_to_face = finv.reshape(nc, 4)

    counts = np.bincount(cell_to_face.ravel(), minlength=len(faces))
    if counts.max() > 2:
        raise MeshError("a face is shared by more than two cells")
    boundary_faces = counts == 1
    boundary_vertices = np.zeros(nv, dtype=bool)
    boundary_vertices[faces[boundary_faces].ravel()] = True
    edge_on_boundary = np.zeros(len(edges), dtype=bool)
    bf = faces[boundary_faces]
    if len(bf):
        bpairs = np.sort(bf[:, [(0, 1), (0, 2), (1, 2)]], axis=2).reshape(-1, 2)
        bkeys = bpairs[:, 0] * nv + bpairs[:, 1]
        edge_on_boundary[np.searchsorted(edge_keys, np.unique(bkeys))] = True

    grad_inc = _grad_incidence(edges, nv)
    curl_inc = _curl_incidence(faces, edge_keys, nv)
    div_inc = _div_incidence(mesh, faces, cell_to_face)

    return MeshTopology(
        edges=edges,
        faces=faces,
        cell_to_edge=cell_to_edge,
        cell_to_face=cell_to_face,
        boundary_faces=boundary_faces,
        boundary_edges=edge_on_boundary,
        boundary_vertices=boundary_vertices,
        grad_incidence=grad_inc,
        curl_incidence=curl_inc,
        div_incidence=div_inc,
    )


def betti_numbers(mesh: Mesh, topo: MeshTopology) -> tuple[int, int, int]:
    """(b0, b1, b2) of the meshed domain: b0 counts the components of the
    cells joined by shared faces, b2 the boundary components (boundary
    faces joined by shared edges) beyond one per component, and b1
    follows from the Euler characteristic V - E + F - C."""
    cell_face = abs(topo.div_incidence)
    b0 = csgraph.connected_components(cell_face @ cell_face.T, directed=False)[0]
    face_edge = abs(topo.curl_incidence[topo.boundary_faces])
    shells = csgraph.connected_components(face_edge @ face_edge.T, directed=False)[0]
    b2 = shells - b0
    chi = mesh.num_vertices - topo.num_edges + topo.num_faces - mesh.num_cells
    return int(b0), int(b0 + b2 - chi), int(b2)


def cotree_edges(G) -> np.ndarray:
    """Rows of the edge-node incidence G (one row per edge, one column
    per node) that are off a breadth-first spanning tree grown from a
    ground node, the root.

    A row with two nonzeros joins their nodes, a row with one joins its
    node to the ground, and a row with none is a loop, always off the
    tree.  Raises MeshError for a row with more than two nonzeros, and
    when the root does not reach every node."""
    G = sp.csr_matrix(G, copy=True)
    G.eliminate_zeros()
    G.sort_indices()
    ne, root = G.shape
    count = np.diff(G.indptr)
    if count.max(initial=0) > 2:
        raise MeshError(f"row {np.argmax(count)} of the incidence has {count.max()} nonzeros")
    # nodes of each edge, the ground node root where a row has fewer
    ends = np.full((ne, 2), root)
    first = G.indptr[:-1]
    ends[count > 0, 0] = G.indices[first[count > 0]]
    ends[count > 1, 1] = G.indices[first[count > 1] + 1]
    link = ends[:, 0] != ends[:, 1]
    graph = sp.csr_matrix(
        (np.ones(link.sum()), (ends[link, 0], ends[link, 1])), shape=(root + 1, root + 1)
    )
    reached, pred = csgraph.breadth_first_order(graph, root, directed=False)
    if len(reached) <= root:
        raise MeshError(f"{root + 1 - len(reached)} nodes are not connected to the root")
    # the tree edge of node k joins it to pred[k]; pick one of any parallels
    keys = ends[:, 0] * (root + 1) + ends[:, 1]
    order = np.argsort(keys, kind="stable")
    k = np.arange(root)
    tree_keys = np.minimum(k, pred[:root]) * (root + 1) + np.maximum(k, pred[:root])
    on_tree = np.zeros(len(ends), dtype=bool)
    on_tree[order[np.searchsorted(keys[order], tree_keys)]] = True
    return np.flatnonzero(~on_tree)


def _grad_incidence(edges, nv):
    ne = len(edges)
    rows = np.repeat(np.arange(ne), 2)
    cols = edges.ravel()
    data = np.tile(np.array([-1, 1], dtype=np.int64), ne)
    return sp.csr_matrix((data, (rows, cols)), shape=(ne, nv))


def _curl_incidence(faces, edge_keys, nv):
    nf = len(faces)
    sub = faces[:, [(0, 1), (0, 2), (1, 2)]]
    keys = sub[..., 0] * nv + sub[..., 1]
    eidx = np.searchsorted(edge_keys, keys.reshape(-1)).reshape(nf, 3)
    rows = np.repeat(np.arange(nf), 3)
    data = np.tile(np.array([1, -1, 1], dtype=np.int64), nf)
    return sp.csr_matrix((data, (rows, eidx.ravel())), shape=(nf, len(edge_keys)))


def _div_incidence(mesh, faces, cell_to_face):
    nc = mesh.num_cells
    verts = mesh.vertices
    signs = np.zeros((nc, 4), dtype=np.int64)
    for k in range(4):
        f = faces[cell_to_face[:, k]]
        pa, pb, pc = verts[f[:, 0]], verts[f[:, 1]], verts[f[:, 2]]
        normal = np.cross(pb - pa, pc - pa)
        opposite = verts[mesh.cells[:, k]]
        outward = np.einsum("ij,ij->i", normal, pa - opposite)
        if np.any(outward == 0):
            raise MeshError("degenerate cell while orienting faces")
        signs[:, k] = np.sign(outward).astype(np.int64)
    rows = np.repeat(np.arange(nc), 4)
    return sp.csr_matrix(
        (signs.ravel(), (rows, cell_to_face.ravel())), shape=(nc, len(faces))
    )


@dataclass
class MeshMetrics:
    h_max: float
    h_min: float
    shape_ratio: float
    volume: float
    num_vertices: int
    num_cells: int


def mesh_metrics(mesh: Mesh) -> MeshMetrics:
    """Diameters, shape regularity (diameter / inradius), vertex and cell counts."""
    X = mesh.cell_coords
    vol = mesh.volumes
    areas = np.zeros(mesh.num_cells)
    for tri in LOCAL_FACES:
        p0, p1, p2 = X[:, tri[0]], X[:, tri[1]], X[:, tri[2]]
        areas += 0.5 * np.linalg.norm(np.cross(p1 - p0, p2 - p0), axis=1)
    inradius = 3.0 * vol / areas
    diameters = mesh.diameters
    return MeshMetrics(
        h_max=float(diameters.max()),
        h_min=float(diameters.min()),
        shape_ratio=float((diameters / inradius).max()),
        volume=float(vol.sum()),
        num_vertices=mesh.num_vertices,
        num_cells=mesh.num_cells,
    )
