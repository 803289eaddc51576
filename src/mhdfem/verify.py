"""Manufactured solutions, error norms, and the verification studies.

The built-in manufactured case places smooth closed-form fields on the
unit cube that satisfy div u = 0, div B = 0, curl E = 0 and the boundary
traces of the requested family exactly: u and B are curls and E is a
gradient of scalar potentials.  The body force f and the magnetic source
g are closed forms in the potentials' partial derivatives, composed in
numpy, so the (g-augmented) strong system holds pointwise, which makes
measured convergence rates meaningful; the symbolic derivation of the
same case is kept as the test oracle (``tests/oracles.py``).  On top of
this live the error norms, the solver contract, the rate study, the de
Rham complex property report and the discrete Poincare-type L3 ratio study.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph

from . import assembly, derham, linalg, operators
from .derham import FieldFunction, make_space
from .mesh import Mesh, MeshError, build_topology, cotree_edges, mesh_metrics, unit_cube_mesh
from .mhd import MhdDriver, MhdParams, PicardReport, SourceData


class VerifyError(Exception):
    """Raised for invalid study configuration, before any mesh is built."""


class StudyError(VerifyError):
    """A study aborted mid-run; carries the offending Picard report."""

    def __init__(self, message: str, report: PicardReport | None = None):
        super().__init__(message)
        self.report = report


def _is_int(value) -> bool:
    # a bool is an int, but no level, count or degree
    return not isinstance(value, bool) and isinstance(value, (int, np.integer))


# ----------------------------------------------------------------------
# manufactured case
#
# A scalar potential maps points (N, 3) to its partials there: a function
# d(i, j, k) giving the (N,) values of d^i/dx^i d^j/dy^j d^k/dz^k w, for
# orders up to 3 in each variable.  The built-in potentials are products
# of univariate factors; a factor maps t (N,) to the list of its value
# and first three derivatives.


def _polynomial(coeffs):
    """The univariate factor of the polynomial with these coefficients
    (constant term first)."""
    derivs = [np.polynomial.Polynomial(coeffs).deriv(k).coef for k in range(4)]
    return lambda t: [np.polynomial.polynomial.polyval(t, c) for c in derivs]


def _sin_pi(t):
    sin, cos = np.sin(np.pi * t), np.cos(np.pi * t)
    return [sin, np.pi * cos, -np.pi**2 * sin, -np.pi**3 * cos]


def _cos_pi(t):
    sin, cos = np.sin(np.pi * t), np.cos(np.pi * t)
    return [cos, -np.pi * sin, -np.pi**2 * cos, np.pi**3 * sin]


_BUBBLE = _polynomial([0, 0, 1, -2, 1])  # t^2 (1 - t)^2
_HAT = _polynomial([0, 1, -1])  # t (1 - t)
_ONE = _polynomial([1])


def _product(fx, fy, fz):
    """The potential fx(x) fy(y) fz(z)."""

    def at(points):
        tx, ty, tz = (fac(points[:, axis]) for axis, fac in enumerate((fx, fy, fz)))
        return lambda i, j, k: tx[i] * ty[j] * tz[k]

    return at


_UNIT = np.eye(3, dtype=int)  # the multi-indices of d/dx, d/dy, d/dz
# curl(z w) = (w_y, -w_x, 0) = _PERP grad w
_PERP = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])


def _gradient(d):
    return np.stack([d(*a) for a in _UNIT], axis=-1)


def _hessian(d):
    return np.stack([np.stack([d(*(a + b)) for b in _UNIT], axis=-1) for a in _UNIT], axis=-2)


def _grad_laplacian(d):
    return np.stack([sum(d(*(a + 2 * b)) for b in _UNIT) for a in _UNIT], axis=-1)


# points per block of a field evaluation: its temporaries (tables,
# partials, products) stay a few MB however many points it is given
_BLOCK = 8192


def _blockwise(*shape):
    """Evaluate a field method, points (N, 3) -> (N,) + shape, block by
    block into one result array."""

    def wrap(method):
        @functools.wraps(method)
        def call(self, points):
            points = np.asarray(points, dtype=float)
            out = np.empty((len(points),) + shape)
            for start in range(0, len(points), _BLOCK):
                block = slice(start, start + _BLOCK)
                out[block] = method(self, points[block])
            return out

        return call

    return wrap


@dataclass
class ManufacturedCase:
    """Exact fields from scalar potentials, with closed-form sources.

    u = lam curl(z w_u), B = lam curl(z w_B), E = lam grad w_E and
    p = lam (sin pi x - 2/pi), so div u = div B = 0 and curl E = 0 hold
    identically.  Each field and the sources f and g, which close the
    g-augmented strong system pointwise, are composed in numpy from the
    potentials' partials at the points (N, 3) they are called with.  The
    symbolic derivation of the same case is kept as the test oracle
    (``tests/oracles.py``).
    """

    bc_family: str
    lam: float
    Re: float
    Rm: float
    s: float
    w_u: object = field(repr=False)
    w_B: object = field(repr=False)
    w_E: object = field(repr=False)

    # ``variant`` here and in ``convergence_study`` is unread: every step
    # is checked against both formulations.  The benchmark change of ROADMAP
    # item 7 removes both with their two call sites in perfbench/workloads.py.
    def params(self, variant: str = "multiplier") -> MhdParams:
        return MhdParams(Re=self.Re, Rm=self.Rm, s=self.s, bc_family=self.bc_family)

    def sources(self) -> SourceData:
        return SourceData(f=self.f, g=self.g)

    @_blockwise(3)
    def u(self, points):
        return self.lam * _gradient(self.w_u(points)) @ _PERP.T

    @_blockwise(3, 3)
    def grad_u(self, points):
        return self.lam * _PERP @ _hessian(self.w_u(points))

    @_blockwise(3)
    def B(self, points):
        return self.lam * _gradient(self.w_B(points)) @ _PERP.T

    @_blockwise(3)
    def E(self, points):
        return self.lam * _gradient(self.w_E(points))

    @_blockwise()
    def p(self, points):
        return self.lam * (np.sin(np.pi * points[:, 0]) - 2 / np.pi)

    @_blockwise(3)
    def f(self, points):
        """(grad u) u - lap u / Re - s j x B + grad p, with j = E + u x B."""
        d = self.w_u(points)
        u, B = self.lam * _gradient(d) @ _PERP.T, self.B(points)
        j = self.E(points) + np.cross(u, B)
        lap_u = self.lam * _grad_laplacian(d) @ _PERP.T
        grad_p = np.zeros_like(u)
        grad_p[:, 0] = self.lam * np.pi * np.cos(np.pi * points[:, 0])
        conv = np.einsum("nij,nj->ni", self.lam * _PERP @ _hessian(d), u)
        return conv - lap_u / self.Re - self.s * np.cross(j, B) + grad_p

    @_blockwise(3)
    def g(self, points):
        """s (j - curl B / Rm), with j = E + u x B."""
        d = self.w_B(points)  # curl curl(z w) = (w_xz, w_yz, -(w_xx + w_yy))
        u, B = self.u(points), self.lam * _gradient(d) @ _PERP.T
        j = self.E(points) + np.cross(u, B)
        curl_B = self.lam * np.stack([d(1, 0, 1), d(0, 1, 1), -(d(2, 0, 0) + d(0, 2, 0))], axis=-1)
        return self.s * (j - curl_B / self.Rm)


def builtin_case(
    bc_family: str, lam: float = 0.1, *, Re: float = 1.0, Rm: float = 1.0, s: float = 1.0
) -> ManufacturedCase:
    """The built-in unit-cube manufactured case for a BC family.

    w_u = P(x) P(y) P(z) with P(t) = t^2 (1 - t)^2, so u has zero trace.
    The magnetic and electric potentials swap between families so that
    the essential traces of each family hold exactly: normal_B takes
    w_B = sin(pi x) sin(pi y) and w_E = q(x) q(y) q(z) with q(t) = t (1 - t);
    tangential_B takes w_B = w_u and w_E = cos(pi x) cos(pi y) cos(pi z).
    """
    if not 0 <= lam < np.inf:
        raise VerifyError("field scaling lam must be finite and nonnegative")
    if bc_family not in operators.BC_FAMILIES:
        raise VerifyError(f"unknown bc_family {bc_family!r}")
    w_u = _product(_BUBBLE, _BUBBLE, _BUBBLE)
    if bc_family == "normal_B":
        w_B, w_E = _product(_sin_pi, _sin_pi, _ONE), _product(_HAT, _HAT, _HAT)
    else:
        w_B, w_E = w_u, _product(_cos_pi, _cos_pi, _cos_pi)
    return ManufacturedCase(
        bc_family=bc_family,
        lam=float(lam),
        Re=float(Re),
        Rm=float(Rm),
        s=float(s),
        w_u=w_u,
        w_B=w_B,
        w_E=w_E,
    )


# ----------------------------------------------------------------------
# error measurement

ERROR_COLUMNS = (
    "err_u_h1",
    "err_B_l2",
    "err_B_hcurl_h",
    "err_B_l3",
    "err_E_l2",
    "err_p_l2",
)


def error_norms(driver: MhdDriver, state, case: ManufacturedCase, *, quad_degree: int = 6) -> dict:
    """One row of exact-vs-discrete error norms.

    The magnetic graph-norm quantities compare against the constrained
    projection of the exact field (the quantity the error analysis
    controls); plain L2 errors compare against the exact fields.  The
    driver solves both projections, from loads of the same exact values.
    """
    rule = assembly.quadrature_rule(quad_degree)
    mesh = driver.mesh
    wdet = assembly.quadrature_weights(mesh, rule)
    xq = derham.physical_points(mesh, rule.points).reshape(-1, 3)
    nc, nq = mesh.num_cells, len(rule.weights)

    def sq(diff):
        flat = diff.reshape(nc, nq, -1)
        return float(np.vdot(wdet, np.einsum("cqk,cqk->cq", flat, flat)))

    G_h = derham.evaluate_grad_on_cells(state.u, rule.points)
    G_ex = case.grad_u(xq).reshape(nc, nq, 3, 3)
    u_h = derham.evaluate_on_cells(state.u, rule.points)
    u_ex = case.u(xq).reshape(nc, nq, 3)
    B_h = derham.evaluate_on_cells(state.B, rule.points)
    B_ex = case.B(xq).reshape(nc, nq, 3)
    E_h = derham.evaluate_on_cells(state.E, rule.points)
    E_ex = case.E(xq).reshape(nc, nq, 3)
    p_h = derham.evaluate_on_cells(state.p, rule.points)
    p_ex = case.p(xq).reshape(nc, nq)

    B_load = derham.integrate_against_basis(driver.B_space, B_ex * wdet[..., None], rule.points)
    PB = driver.divfree_project(assembly.scatter_load(driver.B_space, B_load))
    dPi = FieldFunction(driver.B_space, PB.coeffs - state.B.coeffs)
    Gw = G_ex * wdet[..., None, None]
    G_load = derham.integrate_against_gradients(driver.u_space, Gw, rule.points)
    Pu, _ = driver.stokes_project(assembly.scatter_load(driver.u_space, G_load))
    dPu = (Pu.coeffs - state.u.coeffs)[driver.u_space.free]

    return {
        "err_u_h1": float(np.sqrt(sq(G_ex - G_h))),
        "err_u_l2": float(np.sqrt(sq(u_ex - u_h))),
        "err_B_l2": float(np.sqrt(sq(B_ex - B_h))),
        "err_B_hcurl_h": driver.dcurl.norm(dPi),
        "err_B_l3": operators.lp_norm(dPi, 3, quad_degree=quad_degree),
        "err_E_l2": float(np.sqrt(sq(E_ex - E_h))),
        "err_p_l2": float(np.sqrt(sq(p_ex - p_h))),
        "err_u_proj_h1": float(np.sqrt(dPu @ (driver.K_u @ dPu))),
    }


def quadrature_self_check(driver, state, case, base: dict, *, quad_degree: int = 6) -> dict:
    """Relative change of every error norm when the measuring quadrature
    is raised to the next distinct rule (two degrees up, since the
    conical rules advance in steps of two), against the ``base`` row that
    ``error_norms`` gave at quad_degree; studies gate it by QUADRATURE_CHECK_MAX."""
    finer = error_norms(driver, state, case, quad_degree=quad_degree + 2)
    out = {}
    for key, val in base.items():
        ref = max(abs(finer[key]), 1e-300)
        out[key] = abs(val - finer[key]) / ref
    return out


# ----------------------------------------------------------------------
# the solver contract

CONTRACT_BOUNDS = {
    "divB": 1e-10,  # cellwise |div B| / max(1, |B|_div)
    "multiplier": 1e-10,  # |r|_0 / max(1, final |(u, B)|_W)
    "curlE": 1e-10,  # |curl E|_0 / max(1, final |(u, B)|_W)
    "energy": 1e-9,  # relative residual of the energy identity
    "linear_residual": linalg.RESIDUAL_TOL,  # each step's, over both formulations
    "curl_bound": 1 + 1e-8,  # (|curl_h B|_0 / Rm) / |j|_0, only when g = 0
}
QUADRATURE_CHECK_MAX = 1e-3  # bound on every entry of a study's quadrature self-check


def picard_contract(report: PicardReport, sources: SourceData) -> dict:
    """gate -> {"worst", "bound", "pass"}: each gate's largest value over the
    iterates of a Picard run against its bound in CONTRACT_BOUNDS (the curl
    bound only when g is None, on iterates with |j| > 0); a NaN fails its gate."""
    scale, steps = max(1.0, report.state_norm), report.diagnostics_history
    values = {
        "divB": [d.divB_max / d.divB_scale for d in steps],
        "multiplier": [d.r_norm / scale for d in steps],
        "curlE": [d.curlE_norm / scale for d in steps],
        "energy": [d.energy_residual for d in steps],
        "linear_residual": report.residuals,
    }
    if sources.g is None:
        values["curl_bound"] = [d.energy3_lhs / d.energy3_rhs for d in steps if d.energy3_rhs != 0]
    contract = {}
    for gate, vals in values.items():
        worst, bound = float(np.max(vals, initial=0.0)), CONTRACT_BOUNDS[gate]
        contract[gate] = {"worst": worst, "bound": bound, "pass": worst <= bound}
    return contract


# ----------------------------------------------------------------------
# convergence study

@dataclass
class ErrorTable:
    """Per-level errors and observed rates of one refinement study."""

    ns: list
    hs: list
    errors: dict
    rates: dict
    reports: list = field(default_factory=list, repr=False)
    quadrature_check: dict = field(default_factory=dict)

    def to_csv(self) -> str:
        headers = ["n", "h", *ERROR_COLUMNS] + ["rate_" + c[4:] for c in ERROR_COLUMNS]
        lines = [",".join(headers)]
        for i, n in enumerate(self.ns):
            row = [str(n), repr(self.hs[i])]
            row += [repr(self.errors[c][i]) for c in ERROR_COLUMNS]
            for c in ERROR_COLUMNS:
                row.append(repr(self.rates[c][i - 1]) if i > 0 else "")
            lines.append(",".join(row))
        return "\n".join(lines) + "\n"


def convergence_study(
    case: ManufacturedCase,
    levels,
    *,
    variant: str = "multiplier",
    tol: float = 1e-11,
    maxit: int = 100,
    quad_degree: int = 6,
) -> ErrorTable:
    """Solve the case on a sequence of uniform refinements and tabulate
    error norms with observed rates log(e_coarse/e_fine)/log(h_c/h_f)."""
    levels = list(levels)
    if not all(map(_is_int, levels)):
        raise VerifyError(f"levels must be integers, not {levels!r}")
    if len(levels) < 3:
        raise VerifyError("a rate study needs at least 3 levels")
    if any(levels[i] >= levels[i + 1] for i in range(len(levels) - 1)):
        raise VerifyError("levels must be strictly increasing")
    if min(levels) < 2:
        # n = 1 leaves the velocity space too small for the pressure constraint
        raise VerifyError("a rate study needs levels n >= 2, at least 2 cells per edge")
    # the quadrature self-check measures two degrees above quad_degree
    max_quad = assembly.MAX_QUAD_DEGREE - 2
    if not _is_int(quad_degree) or not 1 <= quad_degree <= max_quad:
        raise VerifyError(f"quad_degree must be an integer in [1, {max_quad}], not {quad_degree!r}")
    if not tol > 0 or not _is_int(maxit) or maxit < 1:
        raise VerifyError(f"need tol > 0 and an integer maxit >= 1, not {tol!r} and {maxit!r}")

    ns, hs, rows, reports, check = [], [], [], [], {}
    for idx, n in enumerate(levels):
        mesh = unit_cube_mesh(n)
        driver = MhdDriver(mesh, case.params(), case.sources())
        state, report = driver.picard_solve(tol=tol, maxit=maxit)
        if not report.converged:
            raise StudyError(f"Picard did not converge at level n={n}", report)
        rows.append(error_norms(driver, state, case, quad_degree=quad_degree))
        if idx == 1:
            # once per study, on the middle level: cheap, yet past the
            # coarsest mesh where the degree-12 exact fields are still
            # visibly under-integrated relative to the tiny u error
            check = quadrature_self_check(driver, state, case, rows[-1], quad_degree=quad_degree)
        ns.append(n)
        hs.append(mesh_metrics(mesh).h_max)
        reports.append(report)

    errors = {k: [row[k] for row in rows] for k in rows[0]}
    rates = {
        key: [
            float(np.log(max(coarse, 1e-300) / max(fine, 1e-300)) / np.log(hc / hf))
            for coarse, fine, hc, hf in zip(vals, vals[1:], hs, hs[1:])
        ]
        for key, vals in errors.items()
    }
    return ErrorTable(ns, hs, errors, rates, reports=reports, quadrature_check=check)


# ----------------------------------------------------------------------
# de Rham complex property report

def _affine_fields(rng):
    """A generic affine scalar and two generic linear vector fields, each
    followed by its derivative: (s, grad s, F, curl F, B, div B)."""
    a = rng.standard_normal(4)
    Mf = rng.standard_normal((3, 4))
    Mb = rng.standard_normal((3, 4))
    A = Mf[:, 1:]
    curl = np.array([A[2, 1] - A[1, 2], A[0, 2] - A[2, 0], A[1, 0] - A[0, 1]])
    div = Mb[0, 1] + Mb[1, 2] + Mb[2, 3]
    return (
        lambda pts: a[0] + pts @ a[1:],
        lambda pts: np.tile(a[1:], (len(pts), 1)),
        lambda pts: Mf[:, 0] + pts @ Mf[:, 1:].T,
        lambda pts: np.tile(curl, (len(pts), 1)),
        lambda pts: Mb[:, 0] + pts @ Mb[:, 1:].T,
        lambda pts: np.full(len(pts), div),
    )


def _rank(M) -> int:
    """Exact rank of a sparse integer matrix M, by peeling.

    An entry alone in its row or in its column is a pivot: eliminating
    with it changes no other entry, so rank M is 1 + the rank of M
    without its row and column, and no fill appears.  Pivots that share
    no row or column stay pivots while the others go, so each round
    removes all of them at once.  What does not peel (the core) is made
    dense, and its rank is read from the eigenvalues of its Gram matrix
    (the smaller of C^T C and C C^T, which have the rank of C and here
    hold exact integers)."""
    M = sp.csr_matrix(M, copy=True)
    M.eliminate_zeros()
    M = M.tocoo()
    r, c, v = M.row, M.col, M.data
    rank = 0
    while len(r):
        alone = (np.bincount(r, minlength=M.shape[0])[r] == 1) | (
            np.bincount(c, minlength=M.shape[1])[c] == 1
        )
        piv = np.flatnonzero(alone)
        if not len(piv):
            break
        piv = piv[np.unique(c[piv], return_index=True)[1]]
        piv = piv[np.unique(r[piv], return_index=True)[1]]
        rank += len(piv)
        row_out = np.zeros(M.shape[0], dtype=bool)
        col_out = np.zeros(M.shape[1], dtype=bool)
        row_out[r[piv]] = col_out[c[piv]] = True
        live = ~(row_out[r] | col_out[c])
        r, c, v = r[live], c[live], v[live]
    if not len(r):
        return rank
    _, ri = np.unique(r, return_inverse=True)
    _, ci = np.unique(c, return_inverse=True)
    core = np.zeros((ri.max() + 1, ci.max() + 1))
    core[ri, ci] = v
    gram = core.T @ core if core.shape[0] >= core.shape[1] else core @ core.T
    return rank + int(np.linalg.matrix_rank(gram, hermitian=True))


def _grounded(M) -> np.ndarray:
    """Columns of M that keep its rank.  When the rows of M sum to zero
    exactly, so do the columns of each connected component of its column
    graph (columns joined by a shared row), and one column per component
    goes; otherwise every column stays."""
    n = M.shape[1]
    if np.any(M @ np.ones(n, dtype=M.dtype)):
        return np.arange(n)
    A = abs(M)
    _, comp = csgraph.connected_components(A.T @ A, directed=False)
    return np.setdiff1d(np.arange(n), np.unique(comp, return_index=True)[1])


def _cotree(G, KG) -> np.ndarray:
    """Columns of K that keep its rank, given G and KG = K G.

    When KG = 0 exactly and G is an edge-node incidence, on a spanning
    tree of its graph grown from the ground (``cotree_edges``) the tree
    rows of G form a triangular matrix with a nonzero diagonal, so K's
    tree columns lie in the span of its others and only the edges off
    the tree stay.  Otherwise (KG != 0, a row of G with more than two
    nonzeros, or a ground that does not reach every column) every column
    stays."""
    if not KG.count_nonzero():
        try:
            return cotree_edges(G)
        except MeshError:
            pass
    return np.arange(G.shape[0])


def _sequence_dims(G, K, D, KG) -> dict:
    """Ranks, kernel dimensions and exactness flags of the sequence
    grad -> curl -> div given by sparse integer incidence matrices and
    KG = K G.

    Each rank is measured exactly by peeling (``_rank``).  Peeling alone
    leaves a gradient or curl incidence untouched (no row or column has
    one nonzero), so three exact reductions come first, each only when
    its integer identity holds: G loses one vertex column per connected
    component when G 1 = 0 (grounding); K keeps only its columns off a
    spanning tree rooted at the grounded vertices, or at the boundary
    vertices for the zero-trace G, when K G = 0 (the cotree); and D
    loses one cell row per component when 1^T D = 0, which holds on the
    interior faces.  On the unit cube everything then peels, and only a
    mesh with a hole or a cavity leaves a small dense core."""
    G = G[:, _grounded(G)]
    rank_G = _rank(G)
    rank_K = _rank(K[:, _cotree(G, KG)])
    rank_D = _rank(D[_grounded(D.T)])
    ne, nf = K.shape[1], D.shape[1]
    return {
        "rank_grad": rank_G,
        "ker_curl": ne - rank_K,
        "rank_curl": rank_K,
        "ker_div": nf - rank_D,
        "rank_div": rank_D,
        "exact_grad_curl": ne - rank_K == rank_G,
        "exact_curl_div": nf - rank_D == rank_K,
    }


def complex_check(mesh: Mesh, *, seed: int = 42) -> dict:
    """Commuting-diagram residuals, composite-zero identities and
    exactness dimension counts for both space families."""
    topo = build_topology(mesh)
    rng = np.random.default_rng(seed)
    report = {"n_cells": mesh.num_cells}

    G = topo.grad_incidence
    K = topo.curl_incidence
    D = topo.div_incidence
    KG, DK = K @ G, D @ K
    report["curl_grad_max"] = int(np.abs(KG).max()) if KG.nnz else 0
    report["div_curl_max"] = int(np.abs(DK).max()) if DK.nnz else 0

    p1 = make_space("lagrange_p1", "none", mesh, topo)
    ned = make_space("nedelec1_lowest", "none", mesh, topo)
    rt = make_space("rt_lowest", "none", mesh, topo)
    dg = make_space("dg0", "none", mesh, topo)

    scalar, grad_scalar, F, curl_F, Bf, div_B = _affine_fields(rng)
    res = []
    lhs = derham.canonical_interpolate(ned, grad_scalar)
    rhs = G @ derham.canonical_interpolate(p1, scalar).coeffs
    res.append(np.max(np.abs(lhs.coeffs - rhs)))
    lhs = derham.canonical_interpolate(rt, curl_F)
    rhs = K @ derham.canonical_interpolate(ned, F).coeffs
    res.append(np.max(np.abs(lhs.coeffs - rhs)))
    lhs = derham.canonical_interpolate(dg, div_B)
    # D maps face fluxes to cell integrals of the divergence (Stokes);
    # dg0 coefficients are cell means, so compare after dividing by volume
    rhs = (D @ derham.canonical_interpolate(rt, Bf).coeffs) / mesh.volumes
    res.append(np.max(np.abs(lhs.coeffs - rhs)))
    report["commuting_residual"] = float(max(res))

    # exactness: kernel and range dimensions
    nt = mesh.num_cells
    full = _sequence_dims(G, K, D, KG)
    report["dims_full"] = {**full, "div_onto": full["rank_div"] == nt}

    iv = np.flatnonzero(~topo.boundary_vertices)
    ie = np.flatnonzero(~topo.boundary_edges)
    if_ = np.flatnonzero(~topo.boundary_faces)
    G0, K0, D0 = G[ie][:, iv], K[if_][:, ie], D[:, if_]
    zero = _sequence_dims(G0, K0, D0, K0 @ G0)
    report["dims_zero_trace"] = {**zero, "div_onto_zero_mean": zero["rank_div"] == nt - 1}
    report["pass"] = bool(
        report["curl_grad_max"] == 0
        and report["div_curl_max"] == 0
        and report["commuting_residual"] <= 1e-10
        and report["dims_full"]["exact_grad_curl"]
        and report["dims_full"]["exact_curl_div"]
        and report["dims_zero_trace"]["exact_grad_curl"]
        and report["dims_zero_trace"]["exact_curl_div"]
    )
    return report


# ----------------------------------------------------------------------
# discrete L3 ratio study

def l3_study(
    levels,
    *,
    samples: int = 50,
    bc_family: str = "normal_B",
    seed: int = 42,
) -> dict:
    """Max ratio |d_h|_{0,3} / |curl_h d_h| over random discretely
    divergence-free fields d_h = curl F_h, per refinement level.

    A discrete Poincare-type estimate bounds the ratio by a constant
    depending only on the domain; the study asserts the per-level max
    grows at most 10 percent under refinement.
    """
    if not _is_int(samples):
        raise VerifyError(f"samples must be an integer, not {samples!r}")
    if samples < 1:
        raise VerifyError("need at least one sample per level")
    if bc_family not in operators.BC_FAMILIES:
        raise VerifyError(f"unknown bc_family {bc_family!r}")
    levels = list(levels)
    if not all(map(_is_int, levels)):
        raise VerifyError(f"levels must be integers, not {levels!r}")
    if len(levels) < 2:
        raise VerifyError("an L3 study needs at least 2 levels to compare growth")
    if levels[0] < 1 or any(levels[i] >= levels[i + 1] for i in range(len(levels) - 1)):
        raise VerifyError("levels must be strictly increasing and positive")
    rng = np.random.default_rng(seed)
    max_ratios = []
    for n in levels:
        mesh = unit_cube_mesh(n)
        topo = build_topology(mesh)
        dcurl = operators.DiscreteCurl(mesh, topo, bc_family)
        ned, rt = dcurl.curl_space, dcurl.div_space
        # unit free-dof vectors F_h, one row per sample: the stream of
        # per-sample draws; d_h = curl F_h, one column per sample
        draws = rng.standard_normal((samples, ned.num_free))
        draws /= np.linalg.norm(draws, axis=1)[:, None]
        d = topo.curl_incidence[:, ned.free] @ draws.T
        ratios = operators.lp_norms(rt, d, 3, quad_degree=6) / dcurl.norms(d)
        max_ratios.append(float(ratios.max()))
    growth_ok = all(
        max_ratios[i + 1] <= 1.10 * max_ratios[i] for i in range(len(max_ratios) - 1)
    )
    return {
        "levels": levels,
        "bc_family": bc_family,
        "samples": samples,
        "max_ratios": max_ratios,
        "growth_ok": bool(growth_ok),
    }
