"""Finite element spaces: dof conventions, interpolation, conformity and
the commuting-diagram property of the canonical interpolants."""

import dataclasses
import inspect

import numpy as np
import pytest

import oracles
from mhdfem import derham
from mhdfem.assembly import quadrature_rule
from mhdfem.derham import (
    FeSpace,
    FieldFunction,
    SpaceError,
    basis_values,
    canonical_interpolate,
    evaluate_curl_on_cells,
    evaluate_div_on_cells,
    evaluate_grad_on_cells,
    evaluate_on_cells,
    make_space,
    physical_points,
)
from mhdfem.mesh import unit_cube_mesh
from oracles import vertex_volume_weights

RNG = np.random.default_rng(7)

REF_POINTS = np.array(
    [[0.25, 0.25, 0.25], [0.1, 0.2, 0.3], [0.6, 0.1, 0.05], [0.0, 0.5, 0.5]]
)


# ----------------------------------------------------------------------
# dof counts and constraint bookkeeping


@pytest.mark.parametrize(
    "kind, ndof, nfree",
    [
        ("lagrange_p1", 8, 0),
        ("nedelec1_lowest", 19, 1),
        ("rt_lowest", 18, 6),
        ("lagrange_p2_vector", 81, 3),
    ],
)
def test_space_counts_essential_n1(mesh1, topo1, kind, ndof, nfree):
    space = make_space(kind, "essential_zero", mesh1, topo1)
    assert space.ndof == ndof
    assert space.num_free == nfree
    assert space.ndof - int(space.constrained.sum()) == nfree


def test_space_counts_unconstrained(mesh2, topo2):
    p = make_space("lagrange_p1", "none", mesh2, topo2)
    assert p.ndof == 27 and p.num_free == 27
    d = make_space("dg0", "none", mesh2, topo2)
    assert d.ndof == 48
    assert d.nloc == 1


def test_make_space_rejects_bad_arguments(mesh1, topo1):
    with pytest.raises(SpaceError):
        make_space("lagrange_p7", "none", mesh1, topo1)
    with pytest.raises(SpaceError):
        make_space("lagrange_p1", "dirichlet", mesh1, topo1)
    with pytest.raises(SpaceError):
        make_space("dg0", "essential_zero", mesh1, topo1)


def test_a_space_has_no_zero_mean_flag():
    # which fields carry a zero mean is the driver's choice (mean_rows)
    assert "mean_constraint" not in inspect.signature(make_space).parameters
    assert "mean_constraint" not in {f.name for f in dataclasses.fields(FeSpace)}


def test_field_function_length_check(mesh1, topo1):
    space = make_space("dg0", "none", mesh1, topo1)
    with pytest.raises(SpaceError):
        FieldFunction(space, np.zeros(7))
    f = FieldFunction.zeros(space)
    g = f.copy()
    g.coeffs[0] = 3.0
    assert f.coeffs[0] == 0.0


# ----------------------------------------------------------------------
# dof conventions, pinned by constant fields with hand-computed dofs


def test_edge_dof_is_circulation_lower_to_higher(mesh2, topo2):
    space = make_space("nedelec1_lowest", "none", mesh2, topo2)
    f = canonical_interpolate(space, lambda x: np.tile([1.0, 0.0, 0.0], (len(x), 1)))
    tang = mesh2.vertices[topo2.edges[:, 1]] - mesh2.vertices[topo2.edges[:, 0]]
    assert f.coeffs == pytest.approx(tang[:, 0], abs=1e-14)


def test_face_dof_is_flux_through_ascending_normal(mesh2, topo2):
    space = make_space("rt_lowest", "none", mesh2, topo2)
    f = canonical_interpolate(space, lambda x: np.tile([0.0, 0.0, 1.0], (len(x), 1)))
    pa = mesh2.vertices[topo2.faces[:, 0]]
    pb = mesh2.vertices[topo2.faces[:, 1]]
    pc = mesh2.vertices[topo2.faces[:, 2]]
    normal = 0.5 * np.cross(pb - pa, pc - pa)
    assert f.coeffs == pytest.approx(normal[:, 2], abs=1e-14)


# ----------------------------------------------------------------------
# in-space fields are reproduced exactly


def test_nedelec_reproduces_a_plus_b_cross_x(mesh2):
    space = make_space("nedelec1_lowest", "none", mesh2)
    a = np.array([0.3, -1.1, 0.7])
    b = np.array([0.5, 0.2, -0.4])
    func = lambda x: a + np.cross(b, x)
    f = canonical_interpolate(space, func)
    vals = evaluate_on_cells(f, REF_POINTS)
    exact = func(physical_points(mesh2, REF_POINTS).reshape(-1, 3)).reshape(vals.shape)
    assert vals == pytest.approx(exact, abs=1e-13)
    assert evaluate_curl_on_cells(f) == pytest.approx(np.tile(2.0 * b, (48, 1)), abs=1e-12)


def test_rt_reproduces_a_plus_cx(mesh2):
    space = make_space("rt_lowest", "none", mesh2)
    a = np.array([-0.2, 0.9, 0.4])
    c = 0.75
    func = lambda x: a + c * x
    f = canonical_interpolate(space, func)
    vals = evaluate_on_cells(f, REF_POINTS)
    exact = func(physical_points(mesh2, REF_POINTS).reshape(-1, 3)).reshape(vals.shape)
    assert vals == pytest.approx(exact, abs=1e-13)
    assert evaluate_div_on_cells(f) == pytest.approx(3.0 * c, abs=1e-12)


def test_p2_vector_reproduces_quadratics(mesh2):
    space = make_space("lagrange_p2_vector", "none", mesh2)

    def func(x):
        return np.stack(
            [
                x[:, 0] ** 2 + x[:, 1] * x[:, 2],
                2.0 * x[:, 1] ** 2 - x[:, 0],
                x[:, 2] ** 2 + 0.5 * x[:, 0] * x[:, 1],
            ],
            axis=1,
        )

    f = canonical_interpolate(space, func)
    vals = evaluate_on_cells(f, REF_POINTS)
    exact = func(physical_points(mesh2, REF_POINTS).reshape(-1, 3)).reshape(vals.shape)
    assert vals == pytest.approx(exact, abs=1e-12)

    grads = evaluate_grad_on_cells(f, REF_POINTS)
    x = physical_points(mesh2, REF_POINTS)
    exact_grad = np.zeros(grads.shape)
    exact_grad[..., 0, 0] = 2.0 * x[..., 0]
    exact_grad[..., 0, 1] = x[..., 2]
    exact_grad[..., 0, 2] = x[..., 1]
    exact_grad[..., 1, 0] = -1.0
    exact_grad[..., 1, 1] = 4.0 * x[..., 1]
    exact_grad[..., 2, 0] = 0.5 * x[..., 1]
    exact_grad[..., 2, 1] = 0.5 * x[..., 0]
    exact_grad[..., 2, 2] = 2.0 * x[..., 2]
    assert grads == pytest.approx(exact_grad, abs=1e-12)


def test_p1_and_dg0_reproduce_affine(mesh2):
    p1 = make_space("lagrange_p1", "none", mesh2)
    func = lambda x: 1.0 + 2.0 * x[:, 0] - x[:, 2]
    f = canonical_interpolate(p1, func)
    vals = evaluate_on_cells(f, REF_POINTS)
    exact = func(physical_points(mesh2, REF_POINTS).reshape(-1, 3)).reshape(vals.shape)
    assert vals == pytest.approx(exact, abs=1e-13)

    dg = make_space("dg0", "none", mesh2)
    g = canonical_interpolate(dg, func)
    centroids = mesh2.cell_coords.mean(axis=1)
    assert g.coeffs == pytest.approx(func(centroids), abs=1e-13)


# ----------------------------------------------------------------------
# conformity: traces agree across interior faces


def _ref_coords(mesh, cell, x):
    """Invert the affine map of one cell for physical points x (nq, 3)."""
    X0 = mesh.cell_coords[cell, 0]
    return np.linalg.solve(mesh.jacobians[cell].T, (x - X0).T).T


def _face_points(mesh, topo, face):
    pa, pb, pc = (mesh.vertices[topo.faces[face, k]] for k in range(3))
    bary = np.array([[2, 2, 2], [4, 1, 1], [1, 4, 1], [1, 1, 4]], dtype=float) / 6.0
    return bary @ np.stack([pa, pb, pc])


@pytest.mark.parametrize("kind", ["nedelec1_lowest", "rt_lowest"])
def test_interior_trace_continuity(mesh2, topo2, kind):
    space = make_space(kind, "none", mesh2, topo2)
    f = FieldFunction(space, RNG.standard_normal(space.ndof))
    interior = np.flatnonzero(~topo2.boundary_faces)
    cells_of = {face: [] for face in interior}
    for c in range(mesh2.num_cells):
        for face in topo2.cell_to_face[c]:
            if face in cells_of:
                cells_of[face].append(c)
    checked = 0
    for face in interior[:: max(1, len(interior) // 10)]:
        c1, c2 = cells_of[face]
        x = _face_points(mesh2, topo2, face)
        pa, pb, pc = (mesh2.vertices[topo2.faces[face, k]] for k in range(3))
        n = np.cross(pb - pa, pc - pa)
        n = n / np.linalg.norm(n)
        traces = []
        basis = oracles.nedelec_values if kind == "nedelec1_lowest" else oracles.rt_values
        for c in (c1, c2):
            vals = basis(mesh2, _ref_coords(mesh2, c, x))[c]
            v = np.einsum("qad,a->qd", vals, f.coeffs[space.dofmap[c]])
            if kind == "nedelec1_lowest":
                traces.append(v - np.outer(v @ n, n))  # tangential part
            else:
                traces.append(v @ n)  # normal part
        assert traces[0] == pytest.approx(traces[1], abs=1e-12)
        checked += 1
    assert checked >= 5


# ----------------------------------------------------------------------
# barycentric coefficient tables against the term-by-term tabulation


def _close(got, want):
    return np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


# brute-force tabulation -> the barycentric table it checks
_TABULATED = {
    "nedelec_values": derham.edge_table,
    "rt_values": derham.face_table,
    "p2_scalar_gradients": derham.p2_gradient_table,
}


@pytest.mark.parametrize("name", ["nedelec_values", "rt_values", "p2_scalar_gradients"])
def test_basis_tables_match_the_brute_force_tabulation(jittered_mesh, name):
    points = quadrature_rule(6).points
    lam = derham.reference_barycentric(points)
    got = np.einsum("qk,cakd->cqad", lam, _TABULATED[name](jittered_mesh))
    assert _close(got, getattr(oracles, name)(jittered_mesh, points))


@pytest.mark.parametrize("kind", ["lagrange_p1", "dg0"])
def test_the_scalar_tables_are_the_scalar_bases(mesh1, topo1, kind):
    space = make_space(kind, "none", mesh1, topo1)
    table = derham.basis_table(space)
    assert table.shape == (1, space.nloc, 4, 1)
    vals = derham.reference_barycentric(REF_POINTS) @ table[0, :, :, 0].T
    assert vals == pytest.approx(basis_values(space, REF_POINTS), abs=1e-15)


def test_the_p2_quadratics_are_the_p2_basis():
    # p2_scalar_values evaluates P2_QUADRATICS
    got = derham.p2_scalar_values(REF_POINTS)
    assert got == pytest.approx(oracles.p2_scalar_values(REF_POINTS), abs=1e-15)


def test_basis_values_rejects_an_unknown_kind(mesh1, topo1):
    space = dataclasses.replace(make_space("dg0", "none", mesh1, topo1), kind="lagrange_p3")
    with pytest.raises(SpaceError, match="lagrange_p3"):
        basis_values(space, REF_POINTS)
    with pytest.raises(SpaceError, match="lagrange_p3"):
        derham.basis_table(space)


@pytest.mark.parametrize("name", ["nedelec_curls", "rt_divergences"])
def test_basis_derivatives_match_the_brute_force_tabulation(jittered_mesh, name):
    got = getattr(derham, name)(jittered_mesh)
    assert _close(got, getattr(oracles, name)(jittered_mesh))


@pytest.mark.parametrize(
    "name",
    [
        "cell_orientations",
        "edge_table",
        "face_table",
        "p2_gradient_table",
        "nedelec_curls",
        "rt_divergences",
    ],
)
def test_per_mesh_tables_are_built_once(name):
    # a Picard iterate reads the curls and divergences again: the second
    # read returns the object the first one built and kept on the mesh
    mesh = unit_cube_mesh(2)
    table = getattr(derham, name)
    assert table(mesh) is table(mesh)


@pytest.mark.parametrize("kind", ["nedelec1_lowest", "rt_lowest", "lagrange_p2_vector"])
def test_field_evaluation_matches_the_brute_force_tabulation(jittered_mesh, kind):
    space = make_space(kind, "none", jittered_mesh)
    f = FieldFunction(space, RNG.standard_normal(space.ndof))
    points = quadrature_rule(6).points
    local = f.coeffs[space.dofmap]
    if kind == "lagrange_p2_vector":
        comps = local.reshape(-1, 10, 3)
        want = np.einsum(
            "cqaj,cai->cqij", oracles.p2_scalar_gradients(jittered_mesh, points), comps
        )
        assert _close(evaluate_grad_on_cells(f, points), want)
        return
    basis = oracles.nedelec_values if kind == "nedelec1_lowest" else oracles.rt_values
    want = np.einsum("cqad,ca->cqd", basis(jittered_mesh, points), local)
    assert _close(evaluate_on_cells(f, points), want)


@pytest.mark.parametrize(
    "kind", ["lagrange_p1", "dg0", "nedelec1_lowest", "rt_lowest", "lagrange_p2_vector"]
)
def test_integration_is_the_adjoint_of_evaluation(jittered_mesh, kind):
    # <W, E c> = <E^T W, c> for coefficients c and weighted values W
    space = make_space(kind, "none", jittered_mesh)
    points = quadrature_rule(6).points
    coeffs = RNG.standard_normal(space.ndof)
    vals = derham.evaluate_coefficients(space, coeffs, points)
    W = RNG.standard_normal(vals.shape)
    local = derham.integrate_against_basis(space, W, points)
    assert local.shape == space.dofmap.shape
    assert np.sum(local * coeffs[space.dofmap]) == pytest.approx(np.sum(W * vals), rel=1e-13)


def test_gradient_integration_is_the_adjoint_of_evaluation(jittered_mesh):
    space = make_space("lagrange_p2_vector", "none", jittered_mesh)
    points = quadrature_rule(6).points
    f = FieldFunction(space, RNG.standard_normal(space.ndof))
    vals = evaluate_grad_on_cells(f, points)
    W = RNG.standard_normal(vals.shape)
    local = derham.integrate_against_gradients(space, W, points)
    assert local.shape == space.dofmap.shape
    assert np.sum(local * f.coeffs[space.dofmap]) == pytest.approx(np.sum(W * vals), rel=1e-13)
    ned = make_space("nedelec1_lowest", "none", jittered_mesh)
    with pytest.raises(SpaceError, match="velocity space"):
        derham.integrate_against_gradients(ned, W, points)


# ----------------------------------------------------------------------
# commuting diagram for the canonical interpolants, cubic test fields


def test_commuting_grad(mesh2, topo2):
    p1 = make_space("lagrange_p1", "none", mesh2, topo2)
    ned = make_space("nedelec1_lowest", "none", mesh2, topo2)
    phi = lambda x: x[:, 0] ** 3 + 2.0 * x[:, 0] * x[:, 1] * x[:, 2] + x[:, 1] ** 2 - x[:, 2]

    def grad_phi(x):
        return np.stack(
            [
                3.0 * x[:, 0] ** 2 + 2.0 * x[:, 1] * x[:, 2],
                2.0 * x[:, 0] * x[:, 2] + 2.0 * x[:, 1],
                2.0 * x[:, 0] * x[:, 1] - 1.0,
            ],
            axis=1,
        )

    lhs = topo2.grad_incidence @ canonical_interpolate(p1, phi).coeffs
    rhs = canonical_interpolate(ned, grad_phi).coeffs
    assert np.abs(lhs - rhs).max() <= 1e-10


def test_commuting_curl(mesh2, topo2):
    ned = make_space("nedelec1_lowest", "none", mesh2, topo2)
    rt = make_space("rt_lowest", "none", mesh2, topo2)

    def u(x):
        return np.stack(
            [
                x[:, 1] ** 3 - x[:, 2],
                x[:, 2] ** 2 + x[:, 0] * x[:, 1],
                x[:, 0] ** 2 * x[:, 1] + x[:, 2] ** 3,
            ],
            axis=1,
        )

    def curl_u(x):
        return np.stack(
            [
                x[:, 0] ** 2 - 2.0 * x[:, 2],
                -1.0 - 2.0 * x[:, 0] * x[:, 1],
                x[:, 1] - 3.0 * x[:, 1] ** 2,
            ],
            axis=1,
        )

    lhs = topo2.curl_incidence @ canonical_interpolate(ned, u).coeffs
    rhs = canonical_interpolate(rt, curl_u).coeffs
    assert np.abs(lhs - rhs).max() <= 1e-10


def test_commuting_div(mesh2, topo2):
    rt = make_space("rt_lowest", "none", mesh2, topo2)
    dg = make_space("dg0", "none", mesh2, topo2)

    def B(x):
        return np.stack(
            [
                x[:, 0] ** 3 + x[:, 1] * x[:, 2],
                x[:, 1] ** 3 - x[:, 0] * x[:, 2],
                x[:, 2] ** 3 + x[:, 0] * x[:, 1],
            ],
            axis=1,
        )

    div_B = lambda x: 3.0 * (x[:, 0] ** 2 + x[:, 1] ** 2 + x[:, 2] ** 2)
    # the incidence matrix returns cell integrals, the dg0 dofs are means
    lhs = (topo2.div_incidence @ canonical_interpolate(rt, B).coeffs) / mesh2.volumes
    rhs = canonical_interpolate(dg, div_B).coeffs
    assert np.abs(lhs - rhs).max() <= 1e-10


# ----------------------------------------------------------------------
# vertex weights (the oracle of the P1 mass row sums)


def test_vertex_volume_weights_sum(mesh2):
    p1 = make_space("lagrange_p1", "none", mesh2)
    w = vertex_volume_weights(p1)
    assert w.sum() == pytest.approx(1.0, rel=1e-14)
    assert np.all(w > 0)


# ----------------------------------------------------------------------
# evaluation guards


def test_evaluation_guards(mesh1):
    ned = make_space("nedelec1_lowest", "none", mesh1)
    rt = make_space("rt_lowest", "none", mesh1)
    with pytest.raises(SpaceError):
        evaluate_grad_on_cells(FieldFunction.zeros(ned), REF_POINTS)
    with pytest.raises(SpaceError):
        evaluate_curl_on_cells(FieldFunction.zeros(rt))
    with pytest.raises(SpaceError):
        evaluate_div_on_cells(FieldFunction.zeros(ned))


def test_physical_points_identity_on_reference(single_tet):
    x = physical_points(single_tet, REF_POINTS)
    assert x[0] == pytest.approx(REF_POINTS, abs=1e-15)
