"""Shared fixtures: small meshes and one solved reference case."""

import numpy as np
import pytest

from mhdfem.mesh import Mesh, build_topology, unit_cube_mesh


@pytest.fixture(scope="session")
def mesh1():
    return unit_cube_mesh(1)


@pytest.fixture(scope="session")
def mesh2():
    return unit_cube_mesh(2)


@pytest.fixture(scope="session")
def topo1(mesh1):
    return build_topology(mesh1)


@pytest.fixture(scope="session")
def topo2(mesh2):
    return build_topology(mesh2)


@pytest.fixture(scope="session")
def jittered_mesh():
    """unit_cube_mesh(2) with every vertex moved, so no two cells are alike."""
    mesh = unit_cube_mesh(2)
    jitter = np.random.default_rng(5).uniform(-0.08, 0.08, mesh.vertices.shape)
    return Mesh(mesh.vertices + jitter, mesh.cells)


def cube_minus(n, subcubes):
    """``unit_cube_mesh(n)`` without the six cells of each listed subcube
    (i, j, k); every vertex stays in use."""
    mesh = unit_cube_mesh(n)
    sub = np.arange(mesh.num_cells) // 6
    ijk = np.stack([sub // (n * n), (sub // n) % n, sub % n], axis=1)
    drop = (ijk[:, None, :] == np.asarray(subcubes)[None]).all(axis=2).any(axis=1)
    return Mesh(mesh.vertices, mesh.cells[~drop])


@pytest.fixture(scope="session")
def holed_mesh():
    """The 3 x 3 x 3 cube minus its central column: a through-hole, b1 = 1."""
    return cube_minus(3, [(1, 1, k) for k in range(3)])


@pytest.fixture(scope="session")
def cavity_mesh():
    """The 3 x 3 x 3 cube minus its central subcube: a cavity, b2 = 1."""
    return cube_minus(3, [(1, 1, 1)])


@pytest.fixture(scope="session")
def two_cubes():
    """``unit_cube_mesh(1)`` and a disjoint copy shifted by 2 in x: b0 = 2."""
    cube = unit_cube_mesh(1)
    shifted = cube.vertices + np.array([2.0, 0.0, 0.0])
    return Mesh(np.vstack([cube.vertices, shifted]), np.vstack([cube.cells, cube.cells + 8]))


@pytest.fixture(scope="session")
def single_tet():
    vertices = np.array(
        [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    )
    cells = np.array([[0, 1, 2, 3]])
    return Mesh(vertices, cells)


@pytest.fixture(scope="session")
def solved_case_n4():
    """Converged builtin normal_B multiplier solve on n = 4, shared by the
    diagnostics, reduced-form and measuring-stick tests."""
    from mhdfem.mhd import MhdDriver
    from mhdfem.verify import builtin_case

    case = builtin_case("normal_B")
    driver = MhdDriver(unit_cube_mesh(4), case.params("multiplier"), sources=case.sources())
    state, report = driver.picard_solve(tol=1e-11, maxit=50)
    assert report.converged
    return case, driver, state, report
