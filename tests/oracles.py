"""Reference computations that tests compare the package against."""

import itertools

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
import sympy

from mhdfem import assembly, derham, linalg, operators
from mhdfem.derham import FieldFunction
from mhdfem.mesh import LOCAL_EDGES, LOCAL_FACES, build_topology, unit_cube_mesh

# inverse power iteration of smallest_singular_value
POWER_MAXIT = 500
POWER_TOL = 1e-8
POWER_SEED = 0


def kuhn_cells(n) -> np.ndarray:
    """The cells of ``unit_cube_mesh(n)`` before orientation repair, one
    subcube and one path at a time: for each subcube (i, j, k), in
    lexicographic order, the six paths from its corner (i, j, k) to
    (i+1, j+1, k+1) that step along the axes in the order of each
    permutation, as vertex ids (i m + j) m + k with m = n + 1."""
    m = n + 1
    cells = []
    for base in itertools.product(range(n), repeat=3):
        for perm in itertools.permutations(range(3)):
            p = list(base)
            corners = [tuple(p)]
            for axis in perm:
                p[axis] += 1
                corners.append(tuple(p))
            cells.append([(i * m + j) * m + k for i, j, k in corners])
    return np.array(cells, dtype=np.int64)


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
    ned = nedelec_values(mesh, rule.points)
    O = np.einsum("cq,cqed,cqbd->ceb", wdet, ned, cross)
    L = np.einsum("cq,cqad,cqbd->cab", wdet, cross, cross)
    return _dense(O, u_space, E_space), _dense(L, u_space, u_space)


def convection_skew(u_space, w, rule):
    """Brute-force ``convection_skew`` as a dense matrix over free dofs:
    tabulate w and (w . grad) phi_b at every point from the velocity
    coefficients and the term-by-term P2 bases below, form
    ((w . grad)(phi_b e_j), phi_a e_i) for every pair of velocity basis
    functions, and take its skew part
    1/2 [(w . grad phi_b, phi_a) - (w . grad phi_a, phi_b)]."""
    mesh = u_space.mesh
    nc, nq = mesh.num_cells, len(rule.points)
    wdet = rule.weights[None, :] * np.abs(mesh.det_jacobians)[:, None]
    s = p2_scalar_values(rule.points)  # (nq, 10)
    wvals = np.einsum("qm,cmd->cqd", s, w.coeffs[w.space.dofmap].reshape(nc, 10, 3))
    adv = np.einsum("cqd,cqbd->cqb", wvals, p2_scalar_gradients(mesh, rule.points))
    basis = np.zeros((nc, nq, 10, 3, 3))  # local dof 3a + i
    advected = np.zeros((nc, nq, 10, 3, 3))
    for i in range(3):
        basis[:, :, :, i, i] = s
        advected[:, :, :, i, i] = adv
    basis, advected = (x.reshape(nc, nq, 30, 3) for x in (basis, advected))
    A = np.einsum("cq,cqad,cqbd->cab", wdet, basis, advected)
    return _dense(0.5 * (A - A.transpose(0, 2, 1)), u_space, u_space)


def curl_curl(space) -> sp.csr_matrix:
    """The edge-space form (curl u, curl v) over free dofs: the curls are
    constant per cell, so each local matrix is |T| curl phi_a . curl phi_b."""
    curls = derham.nedelec_curls(space.mesh)
    local = np.einsum("cad,cbd->cab", curls, curls) * space.mesh.volumes[:, None, None]
    return coo_scatter(local, space, space)


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
    r_space = derham.make_space("dg0", "none", B_space.mesh, B_space.topology)
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


def monolithic_system(driver, formulation, u_prev, B_prev) -> tuple:
    """Matrix and right-hand side (A, b) of one Picard step of ``driver``
    at the frozen (u-, B-) in the named formulation, "multiplier" or
    "augmented": the driver's step map with that formulation's
    constraint blocks, flattened over its unknowns."""
    unknowns, constraint = driver.formulations[formulation]
    blocks, rhs = driver._step_map(u_prev, driver.cross_blocks(B_prev))
    A, b, _ = linalg.flatten(unknowns, {**blocks, **constraint}, rhs)
    return A, b


def monolithic_step(driver, formulation, u_prev, B_prev) -> dict:
    """Field name -> FieldFunction of one Picard step of ``driver`` at the
    frozen (u-, B-), solved on the named formulation's monolithic matrix
    by a fresh factorization instead of in potentials; r only in the
    multiplier formulation."""
    A, b = monolithic_system(driver, formulation, u_prev, B_prev)
    x = linalg.Factorization(A).solve(b)
    # the fields come first in the unknowns, the border multipliers last
    fields = [f for f in driver.formulations[formulation][0] if f in driver.spaces]
    parts = np.split(x, np.cumsum([driver.spaces[f].num_free for f in fields]))
    return {f: FieldFunction.from_free(driver.spaces[f], v) for f, v in zip(fields, parts)}


def formulation_gaps(driver, report, formulation) -> dict:
    """Largest gaps between the iterates of a ``keep_states`` Picard run of
    ``driver`` and the named formulation's monolithic step from the same
    frozen (u-, B-): "w" the W-norm gap of (u, B) relative to the
    oracle's W-norm, "E" and "p" the L^2 gaps."""
    gaps = {"w": 0.0, "E": 0.0, "p": 0.0}
    for prev, cur in zip(report.states, report.states[1:]):
        ref = monolithic_step(driver, formulation, prev.u, prev.B)
        diff = {
            f: FieldFunction(ref[f].space, getattr(cur, f).coeffs - ref[f].coeffs)
            for f in ("u", "E", "B", "p")
        }
        w = driver.w_norm(diff["u"], diff["B"]).total
        if w > 0:
            w /= driver.w_norm(ref["u"], ref["B"]).total
        gaps["w"] = max(gaps["w"], w)
        gaps["E"] = max(gaps["E"], operators.lp_norm(diff["E"], 2, quad_degree=4))
        gaps["p"] = max(gaps["p"], operators.lp_norm(diff["p"], 2, quad_degree=2))
    return gaps


# ----------------------------------------------------------------------
# the W-norm by quadrature


def h1_seminorm(u) -> float:
    """L^2 norm of the velocity gradient tensor, by degree-4 quadrature."""
    rule = assembly.quadrature_rule(4)
    G = derham.evaluate_grad_on_cells(u, rule.points)
    wdet = assembly.quadrature_weights(u.space.mesh, rule)
    return float(np.sqrt(np.einsum("cq,cqij,cqij->", wdet, G, G)))


def w_norm_parts(driver, u, B) -> dict:
    """The parts of ``driver.w_norm(u, B)`` by quadrature of the fields,
    name -> value: "u" |u|_1, "B_div" (|B|_0^2 + |div B|_0^2)^(1/2),
    "curl_h" the L^2 norm of the edge field curl_h B, "B" and "total"."""
    div = derham.evaluate_div_on_cells(B)
    B_sq = operators.lp_norm(B, 2, quad_degree=4) ** 2 + (div * div) @ B.space.mesh.volumes
    parts = {
        "u": np.hypot(operators.lp_norm(u, 2, quad_degree=4), h1_seminorm(u)),
        "B_div": np.sqrt(B_sq),
        "curl_h": operators.lp_norm(discrete_curl(driver.dcurl, B), 2, quad_degree=4),
    }
    parts["B"] = np.hypot(parts["B_div"], parts["curl_h"])
    parts["total"] = np.hypot(parts["u"], parts["B"])
    return parts


def lp_norm_on_all_cells(f, p, quad_degree) -> float:
    """L^p norm of one field by quadrature, |f| evaluated on every cell
    at once and raised to the power p: what ``operators.lp_norms`` walks
    in cell blocks over many fields."""
    rule = assembly.quadrature_rule(quad_degree)
    vals = derham.evaluate_on_cells(f, rule.points)
    wdet = assembly.quadrature_weights(f.space.mesh, rule)
    mag = np.sqrt(np.einsum("cqd,cqd->cq", vals, vals)) if vals.ndim == 3 else np.abs(vals)
    return float(np.einsum("cq,cq->", wdet, mag**p) ** (1.0 / p))


def l3_ratios(levels, samples, bc_family, seed) -> list:
    """The L^3 study one sample at a time, per level the ratios
    |d_h|_{0,3} / |curl_h d_h| of ``samples`` fields d_h = curl F_h: each
    F_h drawn on its own from one stream, its L^3 norm by
    ``lp_norm_on_all_cells`` and |curl_h d_h|_0 = (c . R d)^(1/2) from
    one solve M_E c = R d with a 1-D right-hand side."""
    rng = np.random.default_rng(seed)
    out = []
    for n in levels:
        mesh = unit_cube_mesh(n)
        topo = build_topology(mesh)
        dcurl = operators.DiscreteCurl(mesh, topo, bc_family)
        ned, rt = dcurl.curl_space, dcurl.div_space
        lu = linalg.Factorization(dcurl.mass)
        ratios = np.empty(samples)
        for k in range(samples):
            F = np.zeros(ned.ndof)
            F[ned.free] = rng.standard_normal(ned.num_free)
            F /= np.linalg.norm(F[ned.free])
            d = FieldFunction(rt, (topo.curl_incidence @ F).astype(float))
            load = dcurl.pairing @ d.coeffs[rt.free]
            ratios[k] = lp_norm_on_all_cells(d, 3, 6) / np.sqrt(lu.solve(load) @ load)
        out.append(ratios)
    return out


def dense_rank(M) -> int:
    """Rank of a sparse matrix by the SVD of its dense copy."""
    return int(np.linalg.matrix_rank(M.toarray())) if min(M.shape) else 0


def expand_vector_block(k):
    """Expand a scalar-level (nc, a, b) block to the interleaved vector
    layout (nc, 3a, 3b): identical action on each component."""
    nc, na, nb = k.shape
    out = np.zeros((nc, 3 * na, 3 * nb))
    for comp in range(3):
        out[:, comp::3, comp::3] = k
    return out


def coo_scatter(local, trial, test, *, per_component=False):
    """Local matrices (nc, n_test, n_trial) summed by
    ``coo_matrix(...).tocsr()`` and restricted to the free dofs: the
    reference whose pattern ``assembly._scatter`` stores, with its values
    to rounding.  With ``per_component`` the local matrices are the
    scalar velocity blocks; they are expanded, and the couplings between
    components are dropped after the sum."""
    if per_component:
        local = expand_vector_block(local)
    rows = np.repeat(test.dofmap[:, :, None], trial.nloc, axis=2).ravel()
    cols = np.repeat(trial.dofmap[:, None, :], test.nloc, axis=1).ravel()
    mat = sp.coo_matrix(
        (local.ravel(), (rows, cols)), shape=(test.ndof, trial.ndof)
    ).tocsr()
    if per_component:
        keep = mat.indices % 3 == np.repeat(np.arange(test.ndof) % 3, np.diff(mat.indptr))
        indptr = np.concatenate([[0], np.cumsum(keep)])[mat.indptr]
        mat = sp.csr_matrix((mat.data[keep], mat.indices[keep], indptr), shape=mat.shape)
    return mat[test.free][:, trial.free].tocsr()


def scaled_local_matrices(form_id, trial, test, coefficient=None):
    """The local matrices that ``assemble_bilinear`` scatters."""
    mesh = trial.mesh
    local = assembly._local_matrices(form_id, trial, test, coefficient, mesh)
    return local * np.abs(mesh.det_jacobians)[:, None, None]


def interleaved_scatter(form_id, space, coefficient=None):
    """A per-component velocity form scattered with every entry of its
    expanded local matrices, the zero couplings between components
    included, over free dofs."""
    local = expand_vector_block(scaled_local_matrices(form_id, space, space, coefficient))
    return coo_scatter(local, space, space)


def discrete_curl(dcurl, B) -> FieldFunction:
    """curl_h B as a field in the edge space of ``dcurl``: one direct
    solve of M_E c = R_EB B with the operator's matrices, by a fresh
    factorization rather than the operator's own."""
    load = dcurl.pairing @ B.coeffs[dcurl.div_space.free]
    return FieldFunction.from_free(dcurl.curl_space, linalg.Factorization(dcurl.mass).solve(load))


def l2_project_edge(dcurl, values, rule) -> FieldFunction:
    """L^2 projection onto the edge space of ``dcurl`` of a field
    tabulated at the rule's quadrature points, shape (nc, nq, 3),
    through the edge mass factorization of the discrete curl."""
    space = dcurl.curl_space
    basis = nedelec_values(space.mesh, rule.points)
    wdet = assembly.quadrature_weights(space.mesh, rule)
    cellvec = np.einsum("cq,cqd,cqad->ca", wdet, values, basis)
    rhs = np.zeros(space.ndof)
    np.add.at(rhs, space.dofmap.ravel(), cellvec.ravel())
    return FieldFunction.from_free(space, dcurl._lu.solve(rhs[space.free]))


# ----------------------------------------------------------------------
# the eliminated-E identity and the inf-sup proxy of the step


def reduced_equivalence_check(driver, state, *, B_cross=None) -> float:
    """Residual of the eliminated-E form with g = 0.

    Returns the max of |E + P(u x B) - Rm^-1 curl_h B| and the
    penalty split defect | |j|^2 - |E + P(u x B)|^2 - |(I - P)(u x B)|^2 |
    divided by |j|, so both components carry length units with a
    rounding floor of eps times the field scale (a square root of the
    defect would floor at sqrt(eps) relative, masking nothing but
    failing any eps-level tolerance).

    At a converged state the cross product uses state.B itself; for a
    single Picard iterate pass the previous iterate's field as B_cross
    (the frozen field of the linear step), keeping the identity exact.
    """
    rule = assembly.quadrature_rule(6)
    wdet = assembly.quadrature_weights(driver.mesh, rule)
    uv = derham.evaluate_on_cells(state.u, rule.points)
    Bv = derham.evaluate_on_cells(B_cross if B_cross is not None else state.B, rule.points)
    cross = np.cross(uv, Bv)
    Pj = l2_project_edge(driver.dcurl, cross, rule)
    hcurlB = discrete_curl(driver.dcurl, state.B)

    ident = FieldFunction(
        driver.E_space,
        state.E.coeffs + Pj.coeffs - hcurlB.coeffs / driver.params.Rm,
    )
    ident_norm = operators.lp_norm(ident, 2, quad_degree=4)

    Ev = derham.evaluate_on_cells(state.E, rule.points)
    Pjv = derham.evaluate_on_cells(Pj, rule.points)
    j_sq = _weighted_sq(Ev + cross, wdet)
    a_sq = _weighted_sq(Ev + Pjv, wdet)
    b_sq = _weighted_sq(cross - Pjv, wdet)
    defect = abs(j_sq - a_sq - b_sq)
    split = float(defect / np.sqrt(j_sq)) if j_sq > 0 else 0.0
    return max(ident_norm, split)


def _weighted_sq(vals, wdet) -> float:
    return float(np.einsum("cq,cqd,cqd->", wdet, vals, vals))


def stability_weight_matrix(driver, state, formulation) -> sp.csr_matrix:
    """SPD norm matrix of the linearization norms on the unknowns of the
    named formulation's step of ``driver``: the (u, E, B) triple norm
    with the frozen-field Ohm term, L^2 for the scalar multipliers,
    identity on border rows."""
    O, Luu = driver.cross_blocks(state.B)
    W_uu = driver.W_u
    if O is not None:
        W_uu = W_uu + Luu
    C_EE = curl_curl(driver.E_space)
    blocks = {
        ("u", "u"): W_uu,
        ("E", "E"): driver.M_E + C_EE,
        ("B", "B"): driver.W_B,
        ("p", "p"): assembly.assemble_bilinear("scalar_mass", driver.p_space, driver.p_space),
        ("r", "r"): assembly.assemble_bilinear("scalar_mass", driver.r_space, driver.r_space),
    }
    if O is not None:
        blocks["E", "u"] = O
        blocks["u", "E"] = O.T
    names = driver.formulations[formulation][0]
    for name in names:
        if name not in driver.spaces:
            blocks[name, name] = sp.identity(1)
    return sp.bmat([[blocks.get((t, f)) for f in names] for t in names], format="csr")


def smallest_singular_value(A, *, w_test=None, w_trial=None) -> float:
    """Smallest singular value of A, optionally weighted by SPD norm
    matrices on the test/trial sides, by inverse power iteration.

    With weights this is the discrete inf-sup/Babuska constant
    inf_x sup_y <y, A x> / (|y|_wt |x|_wtr): the numerical proxy for
    stability of the linearized saddle systems.  Raises LinAlgError if
    the iteration has not converged after ``POWER_MAXIT`` steps.
    """
    lu = linalg.Factorization(A)
    z = np.random.default_rng(POWER_SEED).standard_normal(lu.A.shape[0])

    def wt(v):
        return v if w_test is None else w_test @ v

    def wtr(v):
        return v if w_trial is None else w_trial @ v

    mu_old = np.inf
    for _ in range(POWER_MAXIT):
        wz = wtr(z)
        z_next = lu.solve(wt(lu.solve(wz, trans=True)))
        mu = float(wz @ z_next) / float(wz @ z)
        norm = np.sqrt(float(wtr(z_next) @ z_next))
        z = z_next / norm
        if abs(mu - mu_old) <= POWER_TOL * abs(mu):
            break
        mu_old = mu
    else:
        raise linalg.LinAlgError(
            f"inverse power iteration did not converge in {POWER_MAXIT} steps"
        )
    if not mu > 0:
        raise linalg.LinAlgError("inverse power iteration lost positivity")
    return 1.0 / np.sqrt(mu)


# ----------------------------------------------------------------------
# brute-force basis tabulations: the Whitney forms and the P2 gradients
# written out term by term at every point, with no coefficient table


def p2_scalar_gradients(mesh, points):
    """Scalar P2 basis gradients on every cell, (nc, nq, 10, 3):
    (4 lambda_a - 1) grad lambda_a and 4 (lambda_a grad lambda_b + lambda_b grad lambda_a)."""
    lam = derham.reference_barycentric(points)
    G = mesh.grad_lambda
    nc, nq = mesh.num_cells, len(lam)
    out = np.empty((nc, nq, 10, 3))
    out[:, :, :4, :] = (4.0 * lam - 1.0)[None, :, :, None] * G[:, None, :, :]
    for k, (a, b) in enumerate(LOCAL_EDGES):
        out[:, :, 4 + k, :] = 4.0 * (
            lam[None, :, a, None] * G[:, None, b, :]
            + lam[None, :, b, None] * G[:, None, a, :]
        )
    return out


def _oriented(mesh, local):
    """Per-cell local vertex tuples in ascending global order, and the
    barycentric gradients gathered along them, one (nc, m, 3) array per slot."""
    order = np.argsort(mesh.cells[:, local], axis=2)
    idx = np.take_along_axis(np.broadcast_to(local, order.shape).copy(), order, axis=2)
    G = mesh.grad_lambda
    return idx, [np.take_along_axis(G, idx[:, :, s : s + 1], axis=1) for s in range(idx.shape[2])]


def nedelec_values(mesh, points):
    """Whitney edge basis lambda_a grad lambda_b - lambda_b grad lambda_a, (nc, nq, 6, 3)."""
    lam = derham.reference_barycentric(points)
    ep, (Ga, Gb) = _oriented(mesh, np.array(LOCAL_EDGES))
    la = lam.T[ep[:, :, 0]].transpose(0, 2, 1)
    lb = lam.T[ep[:, :, 1]].transpose(0, 2, 1)
    return la[..., None] * Gb[:, None, :, :] - lb[..., None] * Ga[:, None, :, :]


def rt_values(mesh, points):
    """Whitney face basis 2 (lambda_a grad lambda_b x grad lambda_c + cyclic), (nc, nq, 4, 3)."""
    lam = derham.reference_barycentric(points)
    ft, (Ga, Gb, Gc) = _oriented(mesh, np.array(LOCAL_FACES))
    la, lb, lc = (lam.T[ft[:, :, s]].transpose(0, 2, 1) for s in range(3))
    return 2.0 * (
        la[..., None] * np.cross(Gb, Gc)[:, None]
        + lb[..., None] * np.cross(Gc, Ga)[:, None]
        + lc[..., None] * np.cross(Ga, Gb)[:, None]
    )


def p2_scalar_values(points):
    """Scalar P2 basis values, (nq, 10): lambda_a (2 lambda_a - 1) and 4 lambda_a lambda_b."""
    lam = derham.reference_barycentric(points)
    edges = [4.0 * lam[:, a] * lam[:, b] for a, b in LOCAL_EDGES]
    return np.column_stack([lam * (2.0 * lam - 1.0)] + edges)


def nedelec_curls(mesh):
    """Curls 2 grad lambda_a x grad lambda_b of the edge basis, (nc, 6, 3)."""
    _, (Ga, Gb) = _oriented(mesh, np.array(LOCAL_EDGES))
    return 2.0 * np.cross(Ga, Gb)


def rt_divergences(mesh):
    """Divergences 6 grad lambda_a . (grad lambda_b x grad lambda_c) of the face basis, (nc, 4)."""
    _, (Ga, Gb, Gc) = _oriented(mesh, np.array(LOCAL_FACES))
    return 6.0 * np.einsum("ced,ced->ce", Ga, np.cross(Gb, Gc))


def _by_component(s):
    """The velocity basis phi_a e_i at local dof 3a + i from a scalar P2
    tabulation s (..., 10, m): (..., 30, 3 m), [..., 3a + i, (i, :)] = s[..., a, :]."""
    out = np.zeros(s.shape[:-2] + (10, 3, 3) + s.shape[-1:])
    for i in range(3):
        out[..., :, i, i, :] = s
    return out.reshape(s.shape[:-2] + (30, 3 * s.shape[-1]))


def tabulated_form(form_id, trial, test, rule):
    """A form without a frozen field as a dense matrix over free dofs:
    the bases above, or their gradients, curls or divergences, tabulated
    at every point of every cell, (nc, nq, nloc, m), and paired point by
    point."""
    mesh = trial.mesh
    nc, nq = mesh.num_cells, len(rule.points)
    lam = derham.reference_barycentric(rule.points)

    def at_points(x):  # (nc, nloc, m), constant on each cell
        return np.broadcast_to(x[:, None], (nc, nq) + x.shape[1:])

    def values(space):
        if space.kind == "lagrange_p1":
            return np.broadcast_to(lam[None, :, :, None], (nc, nq, 4, 1))
        if space.kind == "dg0":
            return np.ones((nc, nq, 1, 1))
        if space.kind == "nedelec1_lowest":
            return nedelec_values(mesh, rule.points)
        if space.kind == "rt_lowest":
            return rt_values(mesh, rule.points)
        s = p2_scalar_values(rule.points)[..., None]
        return np.broadcast_to(_by_component(s), (nc, nq, 30, 3))

    def gradients(space):  # [c, q, 3a + i, (i, j)], d_j of component i
        if space.kind == "lagrange_p2":
            return p2_scalar_gradients(mesh, rule.points)
        return _by_component(p2_scalar_gradients(mesh, rule.points))

    def curls(space):
        return at_points(nedelec_curls(mesh))

    def divergences(space):
        if space.kind == "rt_lowest":
            return at_points(rt_divergences(mesh)[:, :, None])
        return np.trace(gradients(space).reshape(nc, nq, 30, 3, 3), axis1=3, axis2=4)[..., None]

    # form_id -> the operands of the trial and the test functions
    operands = {
        "grad_grad": (gradients, gradients),
        "vec_mass": (values, values),
        "scalar_mass": (values, values),
        "curl_mass_pairing": (values, curls),
        "div_scalar": (divergences, values),
        "div_pressure": (divergences, values),
        "divdiv": (divergences, divergences),
    }
    of_trial, of_test = operands[form_id]
    wdet = rule.weights[None, :] * np.abs(mesh.det_jacobians)[:, None]
    local = np.einsum("cq,cqad,cqbd->cab", wdet, of_test(test), of_trial(trial))
    return _dense(local, trial, test)


def load_vector(space, func, rule):
    """``assemble_linear`` as a quadrature sum per local dof over the
    bases above: the integral of f . phi_a on every cell, added into the
    global dof of a, over free dofs.  Scalar bases get a component axis
    of length 1; the velocity basis is phi_a e_i at local dof 3a + i."""
    mesh = space.mesh
    nc, nq = mesh.num_cells, len(rule.points)
    lam = derham.reference_barycentric(rule.points)
    if space.kind == "lagrange_p1":
        basis = np.broadcast_to(lam[None, :, :, None], (nc, nq, 4, 1))
    elif space.kind == "dg0":
        basis = np.ones((nc, nq, 1, 1))
    elif space.kind == "nedelec1_lowest":
        basis = nedelec_values(mesh, rule.points)
    elif space.kind == "rt_lowest":
        basis = rt_values(mesh, rule.points)
    else:
        s = p2_scalar_values(rule.points)
        basis = np.zeros((nc, nq, 30, 3))
        for a, i in itertools.product(range(10), range(3)):
            basis[:, :, 3 * a + i, i] = s[:, a]
    x = derham.physical_points(mesh, rule.points).reshape(-1, 3)
    f = np.asarray(func(x), dtype=float).reshape(nc, nq, -1)
    wdet = rule.weights[None, :] * np.abs(mesh.det_jacobians)[:, None]
    vec = np.zeros(space.ndof)
    for a in range(space.nloc):
        np.add.at(vec, space.dofmap[:, a], np.einsum("cq,cqd,cqd->c", wdet, f, basis[:, :, a]))
    return vec[space.free]


def grad_load(space, grad_func, quad_degree):
    """The load int G : grad(phi_a e_i) over free dofs, with the P2
    gradients tabulated at every point of every cell: one einsum over
    (nc, nq, 10, 3) gradients, where the package sums
    ``derham.integrate_against_gradients`` by ``assembly.scatter_load``."""
    rule = assembly.quadrature_rule(quad_degree)
    mesh = space.mesh
    xq = derham.physical_points(mesh, rule.points)
    G = np.asarray(grad_func(xq.reshape(-1, 3)), dtype=float).reshape(
        xq.shape[0], xq.shape[1], 3, 3
    )
    sg = p2_scalar_gradients(mesh, rule.points)
    wdet = assembly.quadrature_weights(mesh, rule)
    comp = np.einsum("cq,cqij,cqaj->cai", wdet, G, sg)
    vec = np.bincount(space.dofmap.ravel(), weights=comp.ravel(), minlength=space.ndof)
    return vec[space.free]


# ----------------------------------------------------------------------
# the built-in manufactured case, derived symbolically

_X, _Y, _Z = sympy.symbols("x y z", real=True)
_VARS = (_X, _Y, _Z)


def _grad(expr):
    return sympy.Matrix([expr.diff(v) for v in _VARS])


def _curl(vec):
    return sympy.Matrix(
        [
            vec[2].diff(_Y) - vec[1].diff(_Z),
            vec[0].diff(_Z) - vec[2].diff(_X),
            vec[1].diff(_X) - vec[0].diff(_Y),
        ]
    )


def _div(vec):
    return sum(vec[i].diff(_VARS[i]) for i in range(3))


def _lambdify(expr):
    """Vectorized callable mapping (N, 3) points to (N,) + shape values
    of a sympy scalar (shape ()), column vector (3,) or matrix (3, 3)."""
    if isinstance(expr, sympy.MatrixBase):
        shape = (expr.rows,) if expr.cols == 1 else expr.shape
    else:
        shape, expr = (), [expr]
    # one function per entry, so that constant entries broadcast
    fns = [sympy.lambdify(_VARS, entry, "numpy") for entry in expr]

    def call(points):
        points = np.asarray(points, dtype=float)
        x, y, z = points[:, 0], points[:, 1], points[:, 2]
        out = np.empty((len(points), len(fns)))
        for k, fn in enumerate(fns):
            out[:, k] = np.broadcast_to(np.asarray(fn(x, y, z), dtype=float), x.shape)
        return out.reshape((len(points),) + shape)

    return call


def sympy_case(bc_family, lam, *, Re, Rm, s):
    """``verify.builtin_case`` derived symbolically: (fields, exprs), where
    fields maps "u", "grad_u", "B", "E", "p", "f" and "g" to vectorized
    callables of (N, 3) points, and exprs holds the sympy expressions
    "div_u", "div_B" and "curl_E" of the exact fields."""
    x, y, z = _VARS
    pi = sympy.pi
    chi = (x * (1 - x) * y * (1 - y) * z * (1 - z)) ** 2
    u = lam * sympy.Matrix([chi.diff(y), -chi.diff(x), 0])
    p = lam * (sympy.sin(pi * x) - 2 / pi)

    if bc_family == "normal_B":
        B = lam * sympy.Matrix(
            [
                pi * sympy.sin(pi * x) * sympy.cos(pi * y),
                -pi * sympy.cos(pi * x) * sympy.sin(pi * y),
                0,
            ]
        )
        phi = x * (1 - x) * y * (1 - y) * z * (1 - z)
        E = lam * _grad(phi)
    else:
        chi_b = (x * y * z * (1 - x) * (1 - y) * (1 - z)) ** 2
        B = lam * _curl(sympy.Matrix([0, 0, chi_b]))
        psi = sympy.cos(pi * x) * sympy.cos(pi * y) * sympy.cos(pi * z)
        E = lam * _grad(psi)

    j = E + u.cross(B)
    grad_u = sympy.Matrix([[u[i].diff(v) for v in _VARS] for i in range(3)])
    conv = sympy.Matrix([sum(u[k] * u[i].diff(_VARS[k]) for k in range(3)) for i in range(3)])
    lap_u = sympy.Matrix([sum(u[i].diff(v, 2) for v in _VARS) for i in range(3)])
    f = conv - lap_u / Re - s * j.cross(B) + _grad(p)
    g = s * (j - _curl(B) / Rm)

    exprs = {"u": u, "grad_u": grad_u, "B": B, "E": E, "p": p, "f": f, "g": g}
    fields = {name: _lambdify(expr) for name, expr in exprs.items()}
    return fields, {"div_u": _div(u), "div_B": _div(B), "curl_E": _curl(E)}
