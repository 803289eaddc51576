"""Mesh construction, topology tables and the MSH 2.2 reader."""

import numpy as np
import pytest
import scipy.sparse as sp

from mhdfem.mesh import (
    Mesh,
    MeshError,
    ParseError,
    betti_numbers,
    build_topology,
    cotree_edges,
    mesh_metrics,
    read_gmsh_msh2,
    unit_cube_mesh,
)
from mhdfem.mhd import MhdDriver
from mhdfem.verify import builtin_case
from oracles import dense_rank, kuhn_cells

# Entity counts of the Kuhn triangulation, frozen from independent counting:
# vertices (n+1)^3, cells 6 n^3; edges and faces enumerated once and kept.
COUNTS = {
    1: (8, 19, 18, 6),
    2: (27, 98, 120, 48),
    8: (729, 4184, 6528, 3072),
}


@pytest.mark.parametrize("n", [1, 2, 8])
def test_unit_cube_counts(n):
    mesh = unit_cube_mesh(n)
    topo = build_topology(mesh)
    nv, ne, nf, nc = COUNTS[n]
    assert mesh.num_vertices == nv
    assert topo.num_edges == ne
    assert topo.num_faces == nf
    assert mesh.num_cells == nc
    # contractible domain: V - E + F - C = 1
    assert nv - ne + nf - nc == 1


@pytest.mark.parametrize("n", [1, 2, 3])
def test_unit_cube_geometry(n):
    mesh = unit_cube_mesh(n)
    assert np.all(mesh.det_jacobians > 0)
    assert mesh.volumes.sum() == pytest.approx(1.0, rel=1e-14)
    # every Kuhn tet contains a subcube main diagonal
    assert mesh.diameters == pytest.approx(np.sqrt(3.0) / n, rel=1e-14)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_unit_cube_cells_follow_the_kuhn_loop(n):
    # the cell order fixes the dof numbering, and with it every rounding
    mesh = unit_cube_mesh(n)
    assert np.array_equal(mesh.cells, Mesh(mesh.vertices, kuhn_cells(n)).cells)


def test_unit_cube_rejects_bad_n():
    # a bool is an int, but no number of cells
    for n in (0, True, 1.5):
        with pytest.raises(MeshError, match="n must be an integer >= 1"):
            unit_cube_mesh(n)


def test_orientation_repair_is_idempotent():
    mesh = unit_cube_mesh(2)
    again = Mesh(mesh.vertices, mesh.cells)
    assert np.array_equal(again.cells, mesh.cells)


def test_orientation_repair_fixes_flipped_cell(single_tet):
    flipped = Mesh(single_tet.vertices, [[0, 2, 1, 3]])
    assert flipped.volumes[0] == pytest.approx(1.0 / 6.0, rel=1e-14)
    assert np.array_equal(flipped.cells, single_tet.cells)


def test_constructor_validation(single_tet):
    with pytest.raises(MeshError):
        Mesh(single_tet.vertices[:, :2], single_tet.cells)
    with pytest.raises(MeshError):
        Mesh(single_tet.vertices, [[0, 1, 2, 9]])
    with pytest.raises(MeshError):
        Mesh(single_tet.vertices, single_tet.cells, cell_tags=[1, 2])
    with pytest.raises(MeshError):
        # repeated vertex gives a zero-volume cell
        Mesh(single_tet.vertices, [[0, 1, 2, 2]])


def test_constructor_rejects_unused_vertices():
    cube = unit_cube_mesh(2)
    one = np.vstack([cube.vertices, [[2.0, 2.0, 2.0]]])
    with pytest.raises(MeshError, match=r"^1 vertices .* no cell \(first unused: vertex 27\)"):
        Mesh(one, cube.cells)
    two = np.vstack([[[5.0, 5.0, 5.0], [6.0, 6.0, 6.0]], cube.vertices])
    with pytest.raises(MeshError, match=r"^2 vertices .* no cell \(first unused: vertex 0\)"):
        Mesh(two, cube.cells + 2)


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_constructor_rejects_non_finite_vertices(bad):
    # named before orientation repair, which would call an inf cell degenerate
    cube = unit_cube_mesh(1)
    vertices = cube.vertices.copy()
    vertices[5, 1] = bad
    with pytest.raises(MeshError, match=r"^1 vertices .* non-finite .* \(first: vertex 5\)"):
        Mesh(vertices, cube.cells)


def test_grad_lambda_reproduces_barycentric(single_tet):
    # on the reference tet: lambda_0 = 1 - x - y - z, lambda_{1,2,3} = x, y, z
    g = single_tet.grad_lambda[0]
    expected = np.array(
        [[-1.0, -1.0, -1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    )
    assert g == pytest.approx(expected, abs=1e-14)


def test_boundary_flags_n1(mesh1, topo1):
    # all 8 vertices sit on the cube surface; the lone interior edge is the
    # main diagonal shared by all six tets
    assert topo1.boundary_vertices.all()
    assert int(topo1.boundary_faces.sum()) == 12
    assert int(topo1.boundary_edges.sum()) == 18
    assert int((~topo1.boundary_edges).sum()) == 1


def test_boundary_flags_n2(mesh2, topo2):
    assert int((~topo2.boundary_vertices).sum()) == 1
    interior = mesh2.vertices[~topo2.boundary_vertices]
    assert interior[0] == pytest.approx([0.5, 0.5, 0.5])


@pytest.mark.parametrize("n", [1, 2, 3])
def test_incidence_composites_vanish(n):
    mesh = unit_cube_mesh(n)
    topo = build_topology(mesh)
    assert (topo.curl_incidence @ topo.grad_incidence).nnz == 0
    assert (topo.div_incidence @ topo.curl_incidence).nnz == 0


def test_incidence_structure(topo2):
    G = topo2.grad_incidence
    assert G.shape == (topo2.num_edges, 27)
    assert np.all(np.asarray(G.sum(axis=1)).ravel() == 0)
    D = topo2.div_incidence
    assert np.all(np.abs(D).sum(axis=1) == 4)
    assert set(np.unique(D.data)) == {-1, 1}


def test_metrics_single_tet(single_tet):
    m = mesh_metrics(single_tet)
    assert m.h_max == pytest.approx(np.sqrt(2.0), rel=1e-14)
    assert m.h_min == m.h_max
    assert m.volume == pytest.approx(1.0 / 6.0, rel=1e-14)
    # diameter / inradius for the reference tet: sqrt(2) * (3 + sqrt(3))
    assert m.shape_ratio == pytest.approx(np.sqrt(2.0) * (3.0 + np.sqrt(3.0)), rel=1e-12)
    assert (m.num_vertices, m.num_cells) == (4, 1)
    topo = build_topology(single_tet)
    assert (topo.num_edges, topo.num_faces) == (6, 4)


def test_metrics_halve_with_refinement():
    a = mesh_metrics(unit_cube_mesh(2))
    b = mesh_metrics(unit_cube_mesh(4))
    assert b.h_max == pytest.approx(a.h_max / 2.0, rel=1e-14)
    assert b.shape_ratio == pytest.approx(a.shape_ratio, rel=1e-12)


MSH_SAMPLE = """$MeshFormat
2.2 0 8
$EndMeshFormat
$Nodes
5
1 0 0 0
2 1 0 0
3 0 1 0
4 0 0 1
5 1 1 1
$EndNodes
$Elements
3
1 2 2 1 1 1 2 3
2 4 2 10 1 1 2 3 4
3 4 2 20 2 2 3 5 4
$EndElements
"""


def test_msh2_reader(tmp_path):
    path = tmp_path / "two_tets.msh"
    path.write_text(MSH_SAMPLE)
    mesh = read_gmsh_msh2(str(path))
    # the triangle is skipped, both tets kept with their physical tags
    assert mesh.num_cells == 2
    assert list(mesh.cell_tags) == [10, 20]
    assert np.all(mesh.volumes > 0)
    assert mesh.volumes.sum() == pytest.approx(0.5, rel=1e-14)
    topo = build_topology(mesh)
    assert topo.num_faces == 7  # 4 + 4 - 1 shared
    assert int(topo.boundary_faces.sum()) == 6


def test_msh2_reader_drops_nodes_outside_the_tetrahedra(tmp_path):
    # node 1 is a geometry point (element type 15), node 7 is unreferenced
    sample = MSH_SAMPLE.replace(
        "$Nodes\n5\n1 0 0 0\n2 1 0 0\n3 0 1 0\n4 0 0 1\n5 1 1 1\n",
        "$Nodes\n7\n1 9 9 9\n2 0 0 0\n3 1 0 0\n4 0 1 0\n5 0 0 1\n6 1 1 1\n7 8 8 8\n",
    ).replace(
        "$Elements\n3\n1 2 2 1 1 1 2 3\n2 4 2 10 1 1 2 3 4\n3 4 2 20 2 2 3 5 4\n",
        "$Elements\n4\n1 15 2 1 1 1\n2 2 2 1 1 2 3 4\n3 4 2 10 1 2 3 4 5\n"
        "4 4 2 20 2 3 4 6 5\n",
    )
    path = tmp_path / "with_points.msh"
    path.write_text(sample)
    mesh = read_gmsh_msh2(str(path))
    expected = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]]
    assert np.array_equal(mesh.vertices, expected)
    assert list(mesh.cell_tags) == [10, 20]
    assert mesh.volumes.sum() == pytest.approx(0.5, rel=1e-14)
    assert build_topology(mesh).num_faces == 7


def test_msh2_reader_repairs_negative_tet(tmp_path):
    # element 3 lists its nodes in negative orientation on purpose
    flipped = MSH_SAMPLE.replace("2 2 3 5 4", "2 2 3 4 5")
    path = tmp_path / "flipped.msh"
    path.write_text(flipped)
    mesh = read_gmsh_msh2(str(path))
    assert np.all(mesh.volumes > 0)


@pytest.mark.parametrize(
    "mangle, line",
    [
        (lambda s: s.replace("$MeshFormat", "$Format", 1), 1),
        (lambda s: s.replace("2.2 0 8", "4.1 0 8"), 2),
        (lambda s: s.replace("$Nodes\n5", "$Nodes\nfive"), 5),
        (lambda s: s.replace("2 1 0 0", "7 1 0 0"), 7),
        (lambda s: s.replace("1 0 0 0", "1 0 0"), 6),
        (lambda s: s[: s.index("4 0 0 1")], 9),
        (lambda s: s.replace("3 0 1 0", "3 0 one 0"), 8),
        (lambda s: s.replace("2 4 2 10 1 1 2 3 4", "2 4 2 10 1 1 2 three 4"), 15),
        pytest.param(lambda s: s.replace("3 0 1 0", "3 0 nan 0"), 8, id="nan-8"),
        pytest.param(lambda s: s.replace("3 0 1 0", "3 0 1 -inf"), 8, id="inf-8"),
    ],
)
def test_msh2_reader_errors(tmp_path, mangle, line):
    path = tmp_path / "bad.msh"
    path.write_text(mangle(MSH_SAMPLE))
    with pytest.raises(ParseError) as err:
        read_gmsh_msh2(str(path))
    assert err.value.line == line


def test_msh2_reader_requires_tets(tmp_path):
    no_tets = MSH_SAMPLE.replace("2 4 2 10 1 1 2 3 4\n", "").replace(
        "3 4 2 20 2 2 3 5 4\n", ""
    ).replace("$Elements\n3", "$Elements\n1")
    path = tmp_path / "no_tets.msh"
    path.write_text(no_tets)
    with pytest.raises(ParseError, match="no tetrahedra"):
        read_gmsh_msh2(str(path))


@pytest.mark.parametrize(
    "name, betti",
    [("cube", (1, 0, 0)), ("holed_mesh", (1, 1, 0)), ("cavity_mesh", (1, 0, 1))],
)
def test_betti_numbers(request, name, betti):
    mesh = unit_cube_mesh(3) if name == "cube" else request.getfixturevalue(name)
    assert betti_numbers(mesh, build_topology(mesh)) == betti


def test_betti_numbers_count_components(two_cubes):
    # two components, each with one boundary shell
    assert betti_numbers(two_cubes, build_topology(two_cubes)) == (2, 0, 0)


def _interior_incidence():
    # the boundary vertices merge into one ground node, the root
    topo = build_topology(unit_cube_mesh(2))
    return topo.grad_incidence[:, np.flatnonzero(~topo.boundary_vertices)]


def _driver_incidence(bc_family, n):
    return MhdDriver(unit_cube_mesh(n), builtin_case(bc_family).params()).dcurl.G0


@pytest.mark.parametrize(
    "incidence",
    [
        pytest.param(_interior_incidence, id="interior-2"),
        *(
            pytest.param(lambda f=f, n=n: _driver_incidence(f, n), id=f"{f}-G0-{n}")
            for f in ("normal_B", "tangential_B")
            for n in (1, 2, 3)
        ),
    ],
)
def test_cotree_edges_leave_an_invertible_tree(incidence):
    G = incidence()
    ne, m = G.shape
    ct = cotree_edges(G)
    assert len(ct) == ne - m
    loops = np.flatnonzero(G.getnnz(axis=1) == 0)
    assert np.isin(loops, ct).all()
    tree = np.setdiff1d(np.arange(ne), ct)
    assert dense_rank(G[tree]) == m


def test_cotree_edges_loops_stay_off_the_tree():
    # edges between two boundary vertices are loops at the ground node
    G = _interior_incidence()
    loops = np.flatnonzero(G.getnnz(axis=1) == 0)
    assert len(loops) and np.isin(loops, cotree_edges(G)).all()


def test_cotree_edges_rejects_a_row_that_is_no_edge():
    G = sp.csr_matrix(np.array([[-1, 1, 0], [1, -1, 1]]))
    with pytest.raises(MeshError, match="row 1 of the incidence has 3 nonzeros"):
        cotree_edges(G)


def test_cotree_edges_needs_every_node_reachable():
    # node 0 is joined to the ground, node 1 to nothing
    with pytest.raises(MeshError, match="1 nodes are not connected"):
        cotree_edges(sp.csr_matrix(np.array([[1, 0]])))
