"""Manufactured solutions, error norms, and the verification studies.

The built-in manufactured case places smooth closed-form fields on the
unit cube that satisfy div u = 0, div B = 0, curl E = 0 and the boundary
traces of the requested family exactly.  The body force f and the
magnetic source g are derived symbolically so the (g-augmented) strong
system holds pointwise, which makes measured convergence rates
meaningful.  On top of this live the error norms, the mesh-refinement
rate study, the de Rham complex property report, and the discrete
Poincare-type L3 ratio study.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import sympy

from . import assembly, derham, operators
from .derham import FieldFunction, make_space
from .mesh import Mesh, build_topology, mesh_metrics, unit_cube_mesh
from .mhd import BC_FAMILIES, MhdDriver, MhdParams, PicardReport, SourceData


class VerifyError(Exception):
    """Raised for invalid study configuration."""


class StudyError(VerifyError):
    """A study aborted mid-run; carries the offending Picard report."""

    def __init__(self, message: str, report: PicardReport | None = None):
        super().__init__(message)
        self.report = report


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


@dataclass
class ManufacturedCase:
    """Closed-form exact fields with symbolically derived sources."""

    bc_family: str
    lam: float
    Re: float
    Rm: float
    s: float
    u: object
    grad_u: object
    B: object
    E: object
    p: object
    f: object
    g: object
    exprs: dict = field(default_factory=dict, repr=False)

    # ``variant`` here and in ``convergence_study`` is unread: every step
    # is checked against both formulations.  The benchmark change of ROADMAP
    # item 7 removes both with their two call sites in perfbench/workloads.py.
    def params(self, variant: str = "multiplier") -> MhdParams:
        return MhdParams(Re=self.Re, Rm=self.Rm, s=self.s, bc_family=self.bc_family)

    def sources(self) -> SourceData:
        return SourceData(f=self.f, g=self.g)


def builtin_case(
    bc_family: str, lam: float = 0.1, *, Re: float = 1.0, Rm: float = 1.0, s: float = 1.0
) -> ManufacturedCase:
    """The built-in unit-cube manufactured case for a BC family.

    Velocity is a curl (divergence-free, zero trace); the magnetic and
    electric constructions swap between families so the essential traces
    of each family hold exactly.  Sources close the g-augmented system.
    """
    if lam < 0:
        raise VerifyError("field scaling lam must be nonnegative")
    if bc_family not in BC_FAMILIES:
        raise VerifyError(f"unknown bc_family {bc_family!r}")
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

    return ManufacturedCase(
        bc_family=bc_family,
        lam=float(lam),
        Re=float(Re),
        Rm=float(Rm),
        s=float(s),
        u=_lambdify(u),
        grad_u=_lambdify(grad_u),
        B=_lambdify(B),
        E=_lambdify(E),
        p=_lambdify(p),
        f=_lambdify(f),
        g=_lambdify(g),
        exprs={"div_u": _div(u), "div_B": _div(B), "curl_E": _curl(E)},
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
    driver solves both projections.
    """
    rule = assembly.quadrature_rule(quad_degree)
    mesh = driver.mesh
    wdet = assembly.quadrature_weights(mesh, rule)
    xq = derham.physical_points(mesh, rule.points).reshape(-1, 3)
    nc, nq = mesh.num_cells, len(rule.weights)

    def sq(diff):
        flat = diff.reshape(diff.shape[0], diff.shape[1], -1)
        return float(np.einsum("cq,cqk,cqk->", wdet, flat, flat))

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

    PB = driver.divfree_project(case.B, quad_degree=quad_degree)
    dPi = FieldFunction(driver.B_space, PB.coeffs - state.B.coeffs)
    Pu, _ = driver.stokes_project(case.grad_u, quad_degree=quad_degree)
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
    ``error_norms`` gave at quad_degree; entries should stay below 1e-3."""
    finer = error_norms(driver, state, case, quad_degree=quad_degree + 2)
    out = {}
    for key, val in base.items():
        ref = max(abs(finer[key]), 1e-300)
        out[key] = abs(val - finer[key]) / ref
    return out


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
        headers = ["n", "h"] + list(ERROR_COLUMNS) + [
            "rate_" + c[4:] for c in ERROR_COLUMNS
        ]
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
    if len(levels) < 3:
        raise VerifyError("a rate study needs at least 3 levels")
    if any(levels[i] >= levels[i + 1] for i in range(len(levels) - 1)):
        raise VerifyError("levels must be strictly increasing")
    if min(levels) < 2:
        # n = 1 leaves the velocity space too small for the pressure constraint
        raise VerifyError("levels must be at least 2")

    ns, hs, rows, reports = [], [], [], []
    check = {}
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
    rates = {}
    for key, vals in errors.items():
        rs = []
        for i in range(1, len(vals)):
            num = np.log(max(vals[i - 1], 1e-300) / max(vals[i], 1e-300))
            den = np.log(hs[i - 1] / hs[i])
            rs.append(float(num / den))
        rates[key] = rs
    return ErrorTable(
        ns=ns, hs=hs, errors=errors, rates=rates, reports=reports, quadrature_check=check
    )


# ----------------------------------------------------------------------
# de Rham complex property report

def _affine_fields(rng):
    """A generic affine scalar and two generic linear vector fields."""
    a = rng.standard_normal(4)
    Mf = rng.standard_normal((3, 4))
    Mb = rng.standard_normal((3, 4))

    def scalar(pts):
        return a[0] + pts @ a[1:]

    def vec(M):
        def call(pts):
            return M[:, 0] + pts @ M[:, 1:].T

        return call

    def grad_scalar(pts):
        return np.broadcast_to(a[1:], (len(pts), 3)).copy()

    def curl_of(M):
        A = M[:, 1:]
        c = np.array([A[2, 1] - A[1, 2], A[0, 2] - A[2, 0], A[1, 0] - A[0, 1]])

        def call(pts):
            return np.broadcast_to(c, (len(pts), 3)).copy()

        return call

    def div_of(M):
        d = M[0, 1] + M[1, 2] + M[2, 3]

        def call(pts):
            return np.full(len(pts), d)

        return call

    return scalar, grad_scalar, vec(Mf), curl_of(Mf), vec(Mb), div_of(Mb)


def _sequence_dims(G, K, D) -> dict:
    """Ranks, kernel dimensions and exactness flags of the sequence
    grad -> curl -> div given by sparse integer incidence matrices.

    Each rank is measured from its matrix M as the rank of the Gram
    matrix M^T M or M M^T, whichever is smaller: for real M both have
    the rank of M, since M^T M x = 0 gives |M x|^2 = 0.  The Gram is a
    sparse product of the int64 incidences, so its entries are exact
    integers; only then is it made dense, and its rank is read from the
    eigenvalues of a symmetric matrix, which costs far less than the SVD
    of the rectangular M.  Dense, one matrix at a time: small meshes."""

    def rank(M):
        if min(M.shape) == 0:
            return 0
        gram = M.T @ M if M.shape[0] >= M.shape[1] else M @ M.T
        return int(np.linalg.matrix_rank(gram.toarray().astype(float), hermitian=True))

    rank_G, rank_K, rank_D = (rank(M) for M in (G, K, D))
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
    full = _sequence_dims(G, K, D)
    report["dims_full"] = {**full, "div_onto": full["rank_div"] == nt}

    iv = np.flatnonzero(~topo.boundary_vertices)
    ie = np.flatnonzero(~topo.boundary_edges)
    if_ = np.flatnonzero(~topo.boundary_faces)
    zero = _sequence_dims(G[ie][:, iv], K[if_][:, ie], D[:, if_])
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
    if samples < 1:
        raise VerifyError("need at least one sample per level")
    if bc_family not in BC_FAMILIES:
        raise VerifyError(f"unknown bc_family {bc_family!r}")
    levels = list(levels)
    if len(levels) < 2:
        raise VerifyError("an L3 study needs at least 2 levels to compare growth")
    if levels[0] < 1 or any(levels[i] >= levels[i + 1] for i in range(len(levels) - 1)):
        raise VerifyError("levels must be strictly increasing and positive")
    rng = np.random.default_rng(seed)
    ess = "essential_zero" if bc_family == "normal_B" else "none"
    max_ratios = []
    for n in levels:
        mesh = unit_cube_mesh(n)
        topo = build_topology(mesh)
        ned = make_space("nedelec1_lowest", ess, mesh, topo)
        rt = make_space("rt_lowest", ess, mesh, topo)
        dcurl = operators.DiscreteCurl(ned, rt)
        K = topo.curl_incidence
        ratios = np.empty(samples)
        for k in range(samples):
            F = np.zeros(ned.ndof)
            F[ned.free] = rng.standard_normal(ned.num_free)
            F /= np.linalg.norm(F[ned.free])
            d = FieldFunction(rt, (K @ F).astype(float))
            num = operators.lp_norm(d, 3, quad_degree=6)
            den = dcurl.norm(d)
            ratios[k] = num / den
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
