"""Lowest-order discrete de Rham spaces on tetrahedral meshes.

Six space kinds are provided:

* ``lagrange_p1``            scalar vertex elements (H(grad) slot; also
                             the pressure)
* ``nedelec1_lowest``        first-kind edge elements (H(curl) slot)
* ``rt_lowest``              lowest Raviart-Thomas face elements (H(div) slot)
* ``dg0``                    piecewise constants (L^2 slot)
* ``lagrange_p2_vector``     vector quadratic Lagrange (velocity)
* ``lagrange_p2``            scalar quadratic Lagrange (one velocity component)

Each kind is described here and nowhere else: ``make_space`` reads its
dofs (cell-to-dof map, boundary flag per dof) from one table,
``basis_table`` gives the barycentric table of its basis to the forms of
``assembly`` (the velocity forms take ``P2_QUADRATICS`` and
``p2_gradient_table``), and ``integrate_against_basis`` integrates
weighted point values against it for every load.

The velocity space is scalar P2 on three components (dof 3 node + c):
``component_space`` and ``expand_components`` (k kron I_3) say so once.

Edge and face degrees of freedom are oriented by ascending global vertex
index, which makes tangential/normal traces match across cells without
per-cell sign tables.  Basis functions are barycentric (Whitney) forms
evaluated directly on physical cells; on affine tetrahedra this equals
the covariant/contravariant Piola-mapped reference basis.

The Whitney edge and face bases and the gradients of the scalar P2
basis are linear in the barycentric coordinates, phi_a = sum_k lambda_k
T[c, a, k], so each is defined once, by its per-cell coefficient table T
(``edge_table``, ``face_table``, ``p2_gradient_table``).  A field is
evaluated by contracting its coefficients with T, to (nc, 4, 3) per
field, and then one matmul with lambda at the points; loads go the other
way (``integrate_against_basis``, ``integrate_against_gradients``), so no
(nc, nq, nloc, 3) basis table is ever built.  The constant curls and
divergences follow from the same tables (``nedelec_curls``,
``rt_divergences``), and every such table is built once per mesh and
kept on it (``Mesh.cached``).

``bc="essential_zero"`` constrains the boundary trace to zero (vertex
values, edge circulations, face fluxes, or full velocity trace);
``bc="none"`` leaves all degrees of freedom free.  Which fields carry a
zero mean is the driver's choice (``MhdDriver.mean_rows``), not a
property of a space.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .mesh import LOCAL_EDGES, LOCAL_FACES, Mesh, MeshTopology, build_topology


class SpaceError(Exception):
    """Raised for invalid space kind / boundary condition combinations."""


BC_KINDS = ("essential_zero", "none")

# degree-5-exact Gauss rule on [0, 1] for edge circulations
_GAUSS3_X = np.array([0.5 - np.sqrt(15.0) / 10.0, 0.5, 0.5 + np.sqrt(15.0) / 10.0])
_GAUSS3_W = np.array([5.0 / 18.0, 8.0 / 18.0, 5.0 / 18.0])

# degree-4-exact 6-point triangle rule (two symmetric orbits), weights sum to 1
_TRI_A1, _TRI_W1 = 0.445948490915965, 0.223381589678011
_TRI_A2, _TRI_W2 = 0.091576213509771, 0.109951743655322
_TRI_BARY = np.array(
    [
        [1.0 - 2.0 * _TRI_A1, _TRI_A1, _TRI_A1],
        [_TRI_A1, 1.0 - 2.0 * _TRI_A1, _TRI_A1],
        [_TRI_A1, _TRI_A1, 1.0 - 2.0 * _TRI_A1],
        [1.0 - 2.0 * _TRI_A2, _TRI_A2, _TRI_A2],
        [_TRI_A2, 1.0 - 2.0 * _TRI_A2, _TRI_A2],
        [_TRI_A2, _TRI_A2, 1.0 - 2.0 * _TRI_A2],
    ]
)
_TRI_W = np.array([_TRI_W1] * 3 + [_TRI_W2] * 3)


@dataclass
class FeSpace:
    """A finite element space bound to a mesh and its topology."""

    kind: str
    bc: str
    mesh: Mesh
    topology: MeshTopology
    ndof: int
    dofmap: np.ndarray          # (nc, nloc) local-to-global
    constrained: np.ndarray     # (ndof,) bool, essential dofs
    free: np.ndarray = field(init=False)

    def __post_init__(self):
        self.free = np.flatnonzero(~self.constrained)

    @property
    def num_free(self) -> int:
        return len(self.free)

    @property
    def nloc(self) -> int:
        return self.dofmap.shape[1]

    @property
    def value_shape(self) -> tuple:
        """Shape of a field's value at one point: () for the scalar
        kinds, (3,) for the vector kinds."""
        return (3,) if self.kind in _TABLES or self.kind == "lagrange_p2_vector" else ()


@dataclass
class FieldFunction:
    """A finite element field: a space and its full coefficient vector."""

    space: FeSpace
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        if self.coeffs.shape != (self.space.ndof,):
            raise SpaceError(
                f"coefficient vector has length {len(self.coeffs)}, "
                f"space has {self.space.ndof} dofs"
            )

    def copy(self) -> "FieldFunction":
        return FieldFunction(self.space, self.coeffs.copy())

    @classmethod
    def zeros(cls, space: FeSpace) -> "FieldFunction":
        return cls(space, np.zeros(space.ndof))

    @classmethod
    def from_free(cls, space: FeSpace, values: np.ndarray) -> "FieldFunction":
        """The field with the given free-dof values, zero on constrained dofs."""
        coeffs = np.zeros(space.ndof)
        coeffs[space.free] = values
        return cls(space, coeffs)


def _p2_nodes(mesh: Mesh, topology: MeshTopology, copies: int = 1):
    """P2 nodes (vertices, then edge midpoints) on ``copies`` interleaved
    components, dof copies node + c, and the boundary flag of each dof."""
    nodes = np.concatenate([mesh.cells, mesh.num_vertices + topology.cell_to_edge], axis=1)
    boundary = np.concatenate([topology.boundary_vertices, topology.boundary_edges])
    dofs = copies * nodes[:, :, None] + np.arange(copies)
    return dofs.reshape(len(nodes), -1), np.repeat(boundary, copies)


# kind -> (mesh, topology) -> (cell-to-dof map (nc, nloc), boundary flag per dof)
_DOFS = {
    "lagrange_p1": lambda mesh, topo: (mesh.cells, topo.boundary_vertices),
    "nedelec1_lowest": lambda mesh, topo: (topo.cell_to_edge, topo.boundary_edges),
    "rt_lowest": lambda mesh, topo: (topo.cell_to_face, topo.boundary_faces),
    "dg0": lambda mesh, topo: (
        np.arange(mesh.num_cells, dtype=np.int64)[:, None],
        np.zeros(mesh.num_cells, dtype=bool),
    ),
    "lagrange_p2": _p2_nodes,
    "lagrange_p2_vector": functools.partial(_p2_nodes, copies=3),
}


def make_space(
    kind: str,
    bc: str,
    mesh: Mesh,
    topology: MeshTopology | None = None,
) -> FeSpace:
    """Build a finite element space of the given kind on a mesh."""
    if kind not in _DOFS:
        raise SpaceError(f"unknown space kind {kind!r}")
    if bc not in BC_KINDS:
        raise SpaceError(f"unknown boundary condition {bc!r}")
    if topology is None:
        topology = build_topology(mesh)
    if kind == "dg0" and bc != "none":
        raise SpaceError(f"{kind} does not admit essential boundary conditions")

    cell_dofs, boundary = _DOFS[kind](mesh, topology)
    ndof = len(boundary)
    constrained = boundary.copy() if bc == "essential_zero" else np.zeros(ndof, dtype=bool)
    return FeSpace(
        kind=kind,
        bc=bc,
        mesh=mesh,
        topology=topology,
        ndof=ndof,
        dofmap=cell_dofs.copy(),
        constrained=constrained,
    )


def component_space(space: FeSpace) -> FeSpace | None:
    """The scalar P2 space of each component of a velocity space (free dof
    3 i + c is its free node i on component c); None for other kinds."""
    if space.kind != "lagrange_p2_vector":
        return None
    return make_space("lagrange_p2", space.bc, space.mesh, space.topology)


def expand_components(k: sp.spmatrix) -> sp.csr_matrix:
    """k kron I_3, the velocity matrix of a matrix k on ``component_space``."""
    return sp.kron(k, sp.identity(3), format="csr")


# ----------------------------------------------------------------------
# basis tabulation


def _per_mesh(build):
    """A table of the mesh, kept on it under the function's name."""

    @functools.wraps(build)
    def table(mesh: Mesh):
        return mesh.cached(build.__name__, lambda: build(mesh))

    return table


@_per_mesh
def cell_orientations(mesh: Mesh):
    """Per-cell local edge pairs and face triples reordered so global
    vertex indices ascend (the intrinsic orientation of each entity)."""

    def ascending(local):
        local = np.array(local, dtype=np.int64)
        order = np.argsort(mesh.cells[:, local], axis=2)
        return np.take_along_axis(np.broadcast_to(local, order.shape), order, axis=2)

    return ascending(LOCAL_EDGES), ascending(LOCAL_FACES)


@_per_mesh
def edge_table(mesh: Mesh) -> np.ndarray:
    """Barycentric coefficients of the Whitney edge basis, (nc, 6, 4, 3):
    lambda_a grad lambda_b - lambda_b grad lambda_a = sum_k lambda_k T[c, e, k]."""
    ep, _ = cell_orientations(mesh)
    G = mesh.grad_lambda
    c = np.arange(mesh.num_cells)[:, None]
    e = np.arange(6)[None, :]
    a, b = ep[..., 0], ep[..., 1]
    T = np.zeros((mesh.num_cells, 6, 4, 3))
    T[c, e, a] = G[c, b]
    T[c, e, b] = -G[c, a]
    return T


@_per_mesh
def face_table(mesh: Mesh) -> np.ndarray:
    """Barycentric coefficients of the Whitney face basis, (nc, 4, 4, 3):
    2 (lambda_a grad lambda_b x grad lambda_c + cyclic) = sum_k lambda_k T[c, f, k]."""
    _, ft = cell_orientations(mesh)
    G = mesh.grad_lambda
    c = np.arange(mesh.num_cells)[:, None]
    f = np.arange(4)[None, :]
    T = np.zeros((mesh.num_cells, 4, 4, 3))
    for r in range(3):
        a, b, d = (ft[..., (r + s) % 3] for s in range(3))
        T[c, f, a] = 2.0 * np.cross(G[c, b], G[c, d])
    return T


@_per_mesh
def p2_gradient_table(mesh: Mesh) -> np.ndarray:
    """Barycentric coefficients of the scalar P2 basis gradients,
    (nc, 10, 4, 3): (4 lambda_a - 1) grad lambda_a for a vertex and
    4 (lambda_a grad lambda_b + lambda_b grad lambda_a) for an edge (a, b),
    with 1 = sum_k lambda_k."""
    G = mesh.grad_lambda
    T = np.zeros((mesh.num_cells, 10, 4, 3))
    T[:, :4] = -G[:, :, None, :]
    T[:, range(4), range(4)] += 4.0 * G
    for e, (a, b) in enumerate(LOCAL_EDGES):
        T[:, 4 + e, a] = 4.0 * G[:, b]
        T[:, 4 + e, b] = 4.0 * G[:, a]
    return T


# the vertices of the reference cell, where the barycentric coordinates
# are the identity, and the nodes of the scalar P2 basis: the vertices,
# then the midpoints of LOCAL_EDGES
REFERENCE_VERTICES = np.vstack([np.zeros(3), np.eye(3)])
P2_NODES = np.vstack(
    [REFERENCE_VERTICES] + [REFERENCE_VERTICES[[a, b]].mean(axis=0) for a, b in LOCAL_EDGES]
)


def reference_barycentric(points: np.ndarray) -> np.ndarray:
    """Barycentric coordinates (nq, 4) of reference-tet points (nq, 3)."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    lam0 = 1.0 - points.sum(axis=1)
    return np.concatenate([lam0[:, None], points], axis=1)


def p2_scalar_values(points: np.ndarray) -> np.ndarray:
    """Scalar P2 basis values, (nq, 10): 4 vertex + 6 edge functions."""
    lam = reference_barycentric(points)
    return np.einsum("qk,akl,ql->qa", lam, P2_QUADRATICS, lam)


# the scalar P2 basis as homogeneous quadratics, phi_a = sum_kl lambda_k lambda_l Q[a, k, l]:
# lambda_a (2 lambda_a - 1) = 2 lambda_a^2 - sum_l lambda_a lambda_l, and 4 lambda_a lambda_b
P2_QUADRATICS = np.zeros((10, 4, 4))
P2_QUADRATICS[range(4), range(4)] = -1.0
P2_QUADRATICS[range(4), range(4), range(4)] = 1.0
P2_QUADRATICS[range(4, 10), [a for a, _ in LOCAL_EDGES], [b for _, b in LOCAL_EDGES]] = 4.0


@_per_mesh
def nedelec_curls(mesh: Mesh) -> np.ndarray:
    """Curls of the Whitney edge basis (constant per cell), (nc, 6, 3):
    curl(lambda_k T_k) = grad lambda_k x T_k."""
    G = mesh.grad_lambda[:, None, :, :]
    return np.cross(G, edge_table(mesh)).sum(axis=2)


@_per_mesh
def rt_divergences(mesh: Mesh) -> np.ndarray:
    """Divergences of the face basis (constant per cell), (nc, 4):
    div(lambda_k T_k) = grad lambda_k . T_k."""
    return np.einsum("ckd,cfkd->cf", mesh.grad_lambda, face_table(mesh))


# kind -> barycentric coefficient table of its basis, for the kinds whose
# basis differs from cell to cell
_TABLES = {"nedelec1_lowest": edge_table, "rt_lowest": face_table}
# and of the scalar kinds, one for every cell: lambda_a, and 1 = sum_k lambda_k
_SCALAR_TABLES = {"lagrange_p1": np.eye(4)[None, :, :, None], "dg0": np.ones((1, 1, 4, 1))}


def basis_table(space: FeSpace) -> np.ndarray:
    """The barycentric coefficient table of a space's basis, phi_a =
    sum_k lambda_k T[c, a, k]: (nc, nloc, 4, 3) for the edge and face
    kinds, (1, nloc, 4, 1) for the scalar kinds.  The velocity basis is
    quadratic: the scalar P2 basis (``P2_QUADRATICS``) on each component."""
    if space.kind in _SCALAR_TABLES:
        return _SCALAR_TABLES[space.kind]
    if space.kind not in _TABLES:
        raise SpaceError(f"no barycentric table for space kind {space.kind!r}")
    return _TABLES[space.kind](space.mesh)


def basis_values(space: FeSpace, points: np.ndarray) -> np.ndarray:
    """A scalar space's basis at reference points, (nq, nloc), the same
    on every cell; the other kinds are evaluated through their tables."""
    if space.kind == "lagrange_p1":
        return reference_barycentric(points)
    if space.kind == "dg0":
        return np.ones((len(np.atleast_2d(points)), 1))
    raise SpaceError(f"no basis values for space kind {space.kind!r}")


# ----------------------------------------------------------------------
# field evaluation


def _contract_at_points(local: np.ndarray, table: np.ndarray, points) -> np.ndarray:
    """sum_a local[c, a, ...] phi_a at reference points, (nc, nq, ...),
    for a basis with barycentric coefficient table (nc, nloc, 4, 3): the
    coefficients are contracted with the table first, to (nc, 4, ...),
    and then evaluated by one matmul with the barycentric coordinates."""
    nc, nloc = table.shape[:2]
    extra = local.shape[2:]
    by_field = local.reshape(nc, nloc, -1).transpose(0, 2, 1) @ table.reshape(nc, nloc, 12)
    X = by_field.reshape(nc, -1, 4, 3).transpose(0, 2, 1, 3).reshape(nc, 4, -1)
    vals = reference_barycentric(points) @ X
    return vals.reshape((nc, -1) + extra + (3,))


def _integrate_at_points(weighted: np.ndarray, table: np.ndarray, points) -> np.ndarray:
    """The adjoint of ``_contract_at_points``: sum_q weighted[c, q, ...] .
    phi_a(x_q), (nc, nloc, ...), for weighted point values (nc, nq, ..., 3)
    and a basis with barycentric coefficient table (nc, nloc, 4, 3).  One
    matmul with the barycentric coordinates sums over the points, to
    (nc, 4, ..., 3), and one with the table over (k, d), so no
    (nc, nq, nloc, 3) basis table is built."""
    nc, nq = weighted.shape[:2]
    extra = weighted.shape[2:-1]
    by_vertex = reference_barycentric(points).T @ weighted.reshape(nc, nq, -1)
    Y = by_vertex.reshape(nc, 4, -1, 3).transpose(0, 1, 3, 2).reshape(nc, 12, -1)
    out = table.reshape(nc, table.shape[1], 12) @ Y
    return out.reshape((nc, table.shape[1]) + extra)


def evaluate_on_cells(f: FieldFunction, points: np.ndarray) -> np.ndarray:
    """Field values at reference points on every cell: (nc, nq) for
    scalar kinds, (nc, nq, 3) for vector kinds."""
    return evaluate_coefficients(f.space, f.coeffs, points)


def evaluate_coefficients(
    space: FeSpace, coeffs: np.ndarray, points: np.ndarray, cells=slice(None)
) -> np.ndarray:
    """Values at reference points, on the cells ``cells`` (a slice), of
    the fields whose coefficients are the columns of ``coeffs``, (ndof,)
    or (ndof, m): (nc, nq, ...) for scalar kinds, (nc, nq, ..., 3) for
    vector kinds."""
    local = coeffs[space.dofmap[cells]]  # (nc, nloc, ...)
    if space.kind in _TABLES:
        return _contract_at_points(local, _TABLES[space.kind](space.mesh)[cells], points)
    if space.kind == "lagrange_p2_vector":
        # component-interleaved coefficients, (c, 3 a + i, ...) -> (c, a, ..., i)
        nc, extra = len(local), coeffs.shape[1:]
        comps = np.moveaxis(local.reshape((nc, 10, 3) + extra), 2, -1)
        vals = p2_scalar_values(points) @ comps.reshape(nc, 10, -1)
        return vals.reshape((nc, -1) + extra + (3,))
    return np.einsum("qa,ca...->cq...", basis_values(space, points), local)


def evaluate_grad_on_cells(f: FieldFunction, points: np.ndarray) -> np.ndarray:
    """Velocity gradient tensors d_j u_i, (nc, nq, 3, 3)."""
    space = f.space
    if space.kind != "lagrange_p2_vector":
        raise SpaceError("gradient evaluation is for the velocity space")
    comps = f.coeffs[space.dofmap].reshape(space.mesh.num_cells, 10, 3)
    return _contract_at_points(comps, p2_gradient_table(space.mesh), points)


def integrate_against_basis(space: FeSpace, weighted: np.ndarray, points) -> np.ndarray:
    """The adjoint of ``evaluate_coefficients``: local load vectors
    sum_q weighted[c, q] . phi_a(x_q), (nc, nloc), for weighted values
    at reference points, (nc, nq) for scalar kinds and (nc, nq, 3) for
    vector kinds."""
    nc = len(weighted)
    if space.kind in _TABLES:
        return _integrate_at_points(weighted, _TABLES[space.kind](space.mesh), points)
    if space.kind == "lagrange_p2_vector":
        # (c, a, i) is the component-interleaved local dof 3 a + i
        return (p2_scalar_values(points).T @ weighted).reshape(nc, 30)
    return weighted @ basis_values(space, points)


def integrate_against_gradients(space: FeSpace, weighted: np.ndarray, points) -> np.ndarray:
    """The adjoint of ``evaluate_grad_on_cells``: local load vectors
    sum_q weighted[c, q] : grad(phi_a e_i)(x_q), (nc, 30), for weighted
    tensors (nc, nq, 3, 3) at reference points, [c, q, i, j] paired with
    d_j of component i."""
    if space.kind != "lagrange_p2_vector":
        raise SpaceError("gradient integration is for the velocity space")
    local = _integrate_at_points(weighted, p2_gradient_table(space.mesh), points)
    return local.reshape(len(weighted), 30)


def evaluate_curl_on_cells(f: FieldFunction) -> np.ndarray:
    """Curl of an edge-space field (constant per cell), (nc, 3)."""
    if f.space.kind != "nedelec1_lowest":
        raise SpaceError("curl evaluation is for the edge space")
    local = f.coeffs[f.space.dofmap]
    return np.einsum("cad,ca->cd", nedelec_curls(f.space.mesh), local)


def evaluate_div_on_cells(f: FieldFunction) -> np.ndarray:
    """Divergence of a face-space field (constant per cell), (nc,)."""
    if f.space.kind != "rt_lowest":
        raise SpaceError("divergence evaluation is for the face space")
    local = f.coeffs[f.space.dofmap]
    return np.einsum("ca,ca->c", rt_divergences(f.space.mesh), local)


# ----------------------------------------------------------------------
# canonical interpolation


def canonical_interpolate(space: FeSpace, func) -> FieldFunction:
    """Degree-of-freedom interpolation: point values (Lagrange), edge
    circulations (edge space, Gauss rule exact to degree 5), face fluxes
    (face space, triangle rule exact to degree 4), cell means (dg0).

    ``func`` must accept an (N, 3) array of physical points and return
    (N,) for scalar kinds or (N, 3) for vector kinds.  Essential-zero
    constrained dofs are interpolated like any other (callers wanting a
    conforming member should pass a trace-compatible field).
    """
    mesh, topo = space.mesh, space.topology
    kind = space.kind
    if kind == "lagrange_p1":
        return FieldFunction(space, np.asarray(func(mesh.vertices), dtype=float))
    if kind == "dg0":
        from .assembly import quadrature_rule

        rule = quadrature_rule(4)
        xq = physical_points(mesh, rule.points)  # (nc, nq, 3)
        vals = np.asarray(func(xq.reshape(-1, 3)), dtype=float).reshape(xq.shape[:2])
        means = 6.0 * np.einsum("q,cq->c", rule.weights, vals)
        return FieldFunction(space, means)
    if kind == "lagrange_p2_vector":
        mids = 0.5 * (mesh.vertices[topo.edges[:, 0]] + mesh.vertices[topo.edges[:, 1]])
        nodes = np.concatenate([mesh.vertices, mids], axis=0)
        vals = np.asarray(func(nodes), dtype=float)
        return FieldFunction(space, vals.reshape(-1))
    if kind == "nedelec1_lowest":
        pa = mesh.vertices[topo.edges[:, 0]]
        tang = mesh.vertices[topo.edges[:, 1]] - pa
        coeffs = np.zeros(space.ndof)
        for x, w in zip(_GAUSS3_X, _GAUSS3_W):
            fx = np.asarray(func(pa + x * tang), dtype=float)
            coeffs += w * np.einsum("ed,ed->e", fx, tang)
        return FieldFunction(space, coeffs)
    # rt_lowest: flux against the ascending-index area normal
    f = topo.faces
    pa, pb, pc = (mesh.vertices[f[:, k]] for k in range(3))
    area_normal = 0.5 * np.cross(pb - pa, pc - pa)
    coeffs = np.zeros(space.ndof)
    for lam, w in zip(_TRI_BARY, _TRI_W):
        x = lam[0] * pa + lam[1] * pb + lam[2] * pc
        fx = np.asarray(func(x), dtype=float)
        coeffs += w * np.einsum("fd,fd->f", fx, area_normal)
    return FieldFunction(space, coeffs)


def physical_points(mesh: Mesh, ref_points: np.ndarray) -> np.ndarray:
    """Map reference points into every cell, (nc, nq, 3)."""
    ref_points = np.atleast_2d(np.asarray(ref_points, dtype=float))
    X0 = mesh.cell_coords[:, 0, :]
    return X0[:, None, :] + ref_points @ mesh.jacobians
