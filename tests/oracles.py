"""Reference computations that tests compare the package against."""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from mhdfem import assembly, derham


def vertex_volume_weights(space) -> np.ndarray:
    """Integrals of the P1 basis functions: w_i = sum |T|/4 over cells at i."""
    w = np.zeros(space.ndof)
    np.add.at(w, space.mesh.cells.ravel(), np.repeat(space.mesh.volumes / 4.0, 4))
    return w


def cross_forms(u_space, E_space, B, rule):
    """Brute-force ``ohm_cross`` and ``lorentz_cross`` as dense matrices
    over free dofs: tabulate (phi_a e_i) x B at every point for every
    velocity basis function with ``np.cross``, then contract."""
    mesh = u_space.mesh
    wdet = rule.weights[None, :] * np.abs(mesh.det_jacobians)[:, None]
    bvals = derham.evaluate_on_cells(B, rule.points)  # (nc, nq, 3)
    s = derham.p2_scalar_values(rule.points)  # (nq, 10)
    basis = np.zeros(bvals.shape[:2] + (10, 3, 3))  # local dof 3a + i
    for i in range(3):
        basis[:, :, :, i, i] = s
    cross = np.cross(basis.reshape(bvals.shape[:2] + (30, 3)), bvals[:, :, None, :])
    ned = derham.nedelec_values(mesh, rule.points)
    O = np.einsum("cq,cqed,cqbd->ceb", wdet, ned, cross)
    L = np.einsum("cq,cqad,cqbd->cab", wdet, cross, cross)
    return _dense(O, u_space, E_space), _dense(L, u_space, u_space)


def _dense(local, trial, test):
    A = np.zeros((test.ndof, trial.ndof))
    np.add.at(A, (test.dofmap[:, :, None], trial.dofmap[:, None, :]), local)
    return A[np.ix_(test.free, trial.free)]


def divfree_saddle(B_space, func):
    """Free coefficients of the L^2 projection of ``func`` onto the
    divergence-free face fields, by the bordered saddle system
    [[M_B, D^T], [D, 0]] with a piecewise-constant multiplier, zero-mean
    (one border row) when the face space constrains the flux."""
    normal = B_space.bc == "essential_zero"
    r_space = derham.make_space(
        "dg0", "none", B_space.mesh, B_space.topology, mean_constraint=normal
    )
    M = assembly.assemble_bilinear("vec_mass", B_space, B_space)
    D = assembly.assemble_bilinear("div_scalar", B_space, r_space)
    grid = [[M, D.T], [D, None]]
    if normal:
        w = sp.csr_matrix(assembly.domain_integral_vector(r_space))
        grid = [row + [None] for row in grid] + [[None, w, None]]
        grid[1][2] = w.T
    A = sp.bmat(grid, format="csc")
    b = np.zeros(A.shape[0])
    b[: B_space.num_free] = assembly.assemble_linear(B_space, func)
    return spla.spsolve(A, b)[: B_space.num_free]
