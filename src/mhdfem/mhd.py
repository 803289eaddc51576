"""Stationary incompressible MHD in magnetic/electric field variables.

The driver assembles and solves the Picard linearization of the coupled
system for (u, E, B, p, r): momentum with the Lorentz force s(j x B-, v)
where j = E + u x B-, Ohm's law s(j, F) - alpha(B, curl F) = <g, F>,
Faraday's law alpha(curl E, C) plus the divergence constraint on B, and
incompressibility.  Two boundary-condition families are supported
(normal_B: u = 0, B.n = 0, E x n = 0 essential; tangential_B: natural
magnetic conditions), and two treatments of the divergence constraint
(Lagrange multiplier r, or the augmented grad-div term alpha(div B, div C)).

The magnetic multiplier space differs between the families: the
constrained-flux family pairs with zero-mean piecewise constants (the
divergence of the constrained face space is exactly the zero-mean
space), while the natural family uses the full piecewise-constant space,
whose divergence map is onto.  Restricting the natural family's
multiplier to zero mean leaves a one-dimensional kernel (the face field
with uniform divergence) and a singular linear system, so the full space
is the well-posed choice; the computed multiplier is zero either way.
The augmented driver has no r unknown.

The Picard step is a map (test, trial) -> block over the driver's
spaces; ``block_system`` borders every zero-mean field and flattens the
map, and ``split`` scatters a solution back into fields.

A step is defined by its monolithic matrix, but it is solved in
potentials of the exact sequence.  On a connected domain without holes
or cavities (Betti numbers b1 = b2 = 0, checked when the driver is
built) every curl-free E is G phi and every divergence-free B is C a,
with G and C the integer gradient and curl incidences on the free
dofs.  Ohm's law tested with gradients loses B, because R_EB = C^T M_B
and C G = 0, so (u, phi, p) solve the Galerkin system P^T A P y = P^T b
with the constant prolongation P.  B = C a then follows from the Ohm
rows, with a gauged by a spanning tree (the tree-cotree construction of
Gross & Kotiuga, Electromagnetic Theory and Computation, 2004) and the
constant cotree matrix C^T M_B C factored once per driver.  Every Picard
iterate therefore has cellwise div B = 0, r = 0 and curl E = 0 by the
integer identities div curl = 0 and curl grad = 0, and satisfies the
energy identity

    Re^-1 |grad u|^2 + s |j|^2 = <f, u> + <g, E>

to solver tolerance; the relative residual of the monolithic system
must meet ``linalg.RESIDUAL_TOL``.  The source work term pairs g with
the electric field because E is the admissible Ohm test function; when
g = 0 this is the scheme's plain energy law, and j coincides with
E + u x B at a converged state.  A domain with b1 > 0 or b2 > 0 carries
discrete harmonic fields that the potentials miss, and is rejected.

The reduced step matrix differs from its value at u- = 0, B- = 0, the
Stokes-Poisson operator S = P^T A(0, 0) P (the bordered Stokes block
with K_u / Re next to s G0^T M_E G0), only by the frozen convection,
Lorentz and Ohm terms, which the smallness condition of the Picard
theory keeps small.  So S is factored once per driver, on first use,
and each step is solved by GMRES preconditioned with that LU (Elman,
Silvester & Wathen, Finite Elements and Fast Iterative Solvers, 2014);
a step that GMRES cannot bring under the residual contract within its
budget is factored on its own.  The Stokes projection of the error
analysis is the Stokes part of S, so it reuses the same LU.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, asdict

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph

from . import assembly, derham, linalg, operators
from .derham import FieldFunction, make_space
from .mesh import Mesh, betti_numbers, build_topology


class MhdError(Exception):
    """Raised for invalid parameters or driver misuse."""


BC_FAMILIES = ("normal_B", "tangential_B")
VARIANTS = ("multiplier", "augmented")

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class MhdParams:
    """Physical and scheme parameters.

    Re, Rm: fluid and magnetic Reynolds numbers; s: coupling number.
    alpha = s / Rm is always derived, never stored.
    """

    Re: float = 1.0
    Rm: float = 1.0
    s: float = 1.0
    bc_family: str = "normal_B"
    variant: str = "multiplier"

    def __post_init__(self):
        for name in ("Re", "Rm", "s"):
            if not getattr(self, name) > 0:
                raise MhdError(f"parameter {name} must be positive")
        if self.bc_family not in BC_FAMILIES:
            raise MhdError(f"unknown bc_family {self.bc_family!r}")
        if self.variant not in VARIANTS:
            raise MhdError(f"unknown variant {self.variant!r}")

    @property
    def alpha(self) -> float:
        return self.s / self.Rm

    def as_dict(self) -> dict:
        d = asdict(self)
        d["alpha"] = self.alpha
        return d


@dataclass
class SourceData:
    """Body force f on the velocity space and optional magnetic source g
    on the curl space; both analytic callables (N, 3) -> (N, 3) or None."""

    f: object = None
    g: object = None


@dataclass
class MhdState:
    """One solution snapshot; r is None in the augmented variant."""

    u: FieldFunction
    E: FieldFunction
    B: FieldFunction
    p: FieldFunction
    r: FieldFunction | None = None


@dataclass
class Diagnostics:
    """Solution diagnostics; the exact identities evaluate the same
    assembled matrices and quadrature as the linear system."""

    divB_max: float
    divB_scale: float
    r_norm: float
    curlE_norm: float
    j_norm: float
    hcurlB_norm: float
    energy_residual: float
    dissipation: float
    joule: float
    work_f: float
    work_g: float
    dual_f: float
    energy2_lhs: float
    energy2_rhs: float
    energy3_lhs: float
    energy3_rhs: float
    energy4_lhs: float
    energy4_rhs: float
    energy5_ratio: float

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass
class PicardReport:
    """Iteration history of one Picard run."""

    converged: bool
    iterations: int
    increments: list = field(default_factory=list)
    residuals: list = field(default_factory=list)
    diagnostics_history: list = field(default_factory=list)
    states: list = field(default_factory=list, repr=False)
    state_norm: float = 0.0


def _nonzero(f: FieldFunction | None) -> bool:
    return f is not None and bool(np.any(f.coeffs))


class MhdDriver:
    """Owns the spaces, the constant matrices (each assembled once, also
    for the discrete curl), the potential operators, the saddle systems
    and the Picard loop."""

    def __init__(self, mesh: Mesh, params: MhdParams, sources: SourceData | None = None):
        self.mesh = mesh
        self.params = params
        self._S = None  # the Stokes-Poisson LU, built on first use
        self.sources = sources if sources is not None else SourceData()
        topo = build_topology(mesh)
        betti = betti_numbers(mesh, topo)
        if betti != (1, 0, 0):
            raise MhdError(
                "the step is solved in exact-sequence potentials, which need a "
                "connected domain without holes or cavities: b0, b1, b2 = %d, %d, %d"
                % betti
            )
        normal = params.bc_family == "normal_B"
        ess = "essential_zero" if normal else "none"

        self.spaces = {
            "u": make_space("lagrange_p2_vector", "essential_zero", mesh, topo),
            "E": make_space("nedelec1_lowest", ess, mesh, topo),
            "B": make_space("rt_lowest", ess, mesh, topo),
            "p": make_space("lagrange_p1", "none", mesh, topo, mean_constraint=True),
        }
        self.u_space, self.E_space, self.B_space, self.p_space = self.spaces.values()

        self.dcurl = operators.DiscreteCurl(self.E_space, self.B_space)
        self.K_u = assembly.assemble_bilinear("grad_grad", self.u_space, self.u_space)
        self.M_E, self.R_EB = self.dcurl.mass, self.dcurl.pairing
        self.M_B = assembly.assemble_bilinear("vec_mass", self.B_space, self.B_space)
        self.D_p = assembly.assemble_bilinear("div_pressure", self.u_space, self.p_space)
        if params.variant == "multiplier":
            self.spaces["r"] = make_space("dg0", "none", mesh, topo, mean_constraint=normal)
            self.D_r = assembly.assemble_bilinear("div_scalar", self.B_space, self.spaces["r"])
        else:
            self.G_dd = assembly.assemble_bilinear("divdiv", self.B_space, self.B_space)
        self.r_space = self.spaces.get("r")

        # fields of every Picard step; unknowns adds their border names
        self.fields = tuple(self.spaces)
        # border row of each zero-mean constraint: the basis integrals
        self.mean_rows = {
            f: sp.csr_matrix(assembly.domain_integral_vector(space))
            for f, space in self.spaces.items()
            if space.mean_constraint
        }
        self.unknowns = self.fields + tuple(f + "_mean" for f in self.mean_rows)
        self._build_potentials(topo)

        self.load_f = (
            assembly.assemble_linear(self.u_space, self.sources.f)
            if self.sources.f is not None
            else np.zeros(self.u_space.num_free)
        )
        self.load_g = (
            assembly.assemble_linear(self.E_space, self.sources.g)
            if self.sources.g is not None
            else np.zeros(self.E_space.num_free)
        )

        # discrete dual norm sup <f, v> / |grad v| over the velocity space;
        # the coefficients are component-interleaved (dof 3 node + c) and
        # K_u is the scalar stiffness k on each component, so f K_u^-1 f
        # sums f_c k^-1 f_c over the components on one LU of k
        self.dual_f = 0.0
        if np.any(self.load_f):
            comp = self.u_space.free % 3
            k = linalg.Factorization(self.K_u[comp == 0][:, comp == 0])
            loads = [self.load_f[comp == c] for c in range(3)]
            work = sum(float(f_c @ k.solve(f_c)) for f_c in loads)
            self.dual_f = float(np.sqrt(max(work, 0.0)))

    def _build_potentials(self, topo) -> None:
        """The constant operators of the potential solve.

        ``P`` maps the reduced unknowns (u, phi, p, p_mean) to the step's
        ``unknowns`` as (u, G0 phi, B = 0, p, r = 0, p_mean, r_mean = 0),
        where G0 is the gradient incidence on the free edges and the
        potential's vertices: the interior ones (normal_B), or all but
        vertex 0, where phi is pinned (tangential_B).  A spanning tree
        of the vertex graph, in which the other vertices are merged into
        one ground node, gauges the vector potential: B = C_ct a, with C
        the curl incidence on the free faces and edges and ``ct`` the free
        edges off the tree, and ``_cotree`` factors K = C_ct^T M_B C_ct.
        """
        E_free, B_free = self.E_space.free, self.B_space.free
        nv = self.mesh.num_vertices
        if self.params.bc_family == "normal_B":
            phi_vertices = np.flatnonzero(~topo.boundary_vertices)
        else:
            phi_vertices = np.arange(1, nv)
        G0 = topo.grad_incidence[E_free][:, phi_vertices].astype(float)

        m = len(phi_vertices)
        node = np.full(nv, m)  # the ground node is m
        node[phi_vertices] = np.arange(m)
        ct = _cotree_edges(node[topo.edges[E_free]], m)

        self.C_ct = topo.curl_incidence[B_free][:, E_free[ct]].astype(float).tocsr()
        self._ct = ct
        self._cotree = linalg.Factorization(self.C_ct.T @ self.M_B @ self.C_ct)

        sizes = {t: self.spaces[t].num_free if t in self.spaces else 1 for t in self.unknowns}
        lift = {
            "u": sp.identity(sizes["u"]),
            "E": G0,
            "p": sp.identity(sizes["p"]),
            "p_mean": sp.identity(1),
        }
        self.P = sp.block_diag(
            [lift.get(t, sp.csr_matrix((sizes[t], 0))) for t in self.unknowns], format="csr"
        )
        start = np.cumsum([0, *sizes.values()])
        self._rows = {t: slice(i, j) for t, i, j in zip(self.unknowns, start, start[1:])}

    # ------------------------------------------------------------------
    # the saddle systems: layout, border and scatter

    def block_system(self, blocks: dict, rhs: dict) -> tuple:
        """Matrix and right-hand side (A, b) of a saddle system over the
        driver's fields, from a map (test, trial) -> block and a map field
        -> load vector; absent blocks and loads are zero.  Each zero-mean
        field f gets its border row and column ``f + "_mean"`` after the
        fields, so the unknowns are in ``unknowns`` order."""
        blocks = dict(blocks)
        for f, row in self.mean_rows.items():
            blocks[f + "_mean", f] = row
            blocks[f, f + "_mean"] = row.T
        names = self.unknowns
        grid = [[blocks.get((t, f)) for f in names] for t in names]
        A, b, _ = linalg.flatten(grid, [rhs.get(t) for t in names])
        return A, b

    def split(self, x: np.ndarray) -> dict:
        """Map field name -> FieldFunction of a vector in ``unknowns``
        order; the border multipliers are dropped."""
        return {
            f: FieldFunction.from_free(self.spaces[f], x[self._rows[f]]) for f in self.fields
        }

    # ------------------------------------------------------------------
    # assembly of one Picard step

    def zero_state(self) -> MhdState:
        return MhdState(**{f: FieldFunction.zeros(self.spaces[f]) for f in self.fields})

    def cross_blocks(self, B_prev: FieldFunction):
        """Ohm coupling (F, u x B-) and velocity Lorentz Gram matrix for a
        frozen magnetic field; (None, None) when B- = 0."""
        if not _nonzero(B_prev):
            return None, None
        O = assembly.assemble_bilinear(
            "ohm_cross", self.u_space, self.E_space, coefficient=B_prev
        )
        Luu = assembly.assemble_bilinear(
            "lorentz_cross", self.u_space, self.u_space, coefficient=B_prev
        )
        return O, Luu

    def assemble_picard_step(
        self, u_prev: FieldFunction, B_prev: FieldFunction, cross=None
    ) -> tuple:
        """Matrix and right-hand side (A, b) of one Picard step at the
        frozen state (u-, B-), over the unknowns in ``unknowns`` order."""
        if u_prev.space is not self.u_space or B_prev.space is not self.B_space:
            raise MhdError("previous iterate lives on foreign spaces")
        p = self.params
        s, alpha = p.s, p.alpha

        A_uu = (1.0 / p.Re) * self.K_u
        if _nonzero(u_prev):
            A_uu = A_uu + assembly.assemble_bilinear(
                "convection_skew", self.u_space, self.u_space, coefficient=u_prev
            )
        O, Luu = self.cross_blocks(B_prev) if cross is None else cross
        if O is not None:
            A_uu = A_uu + s * Luu

        blocks = {
            ("u", "u"): A_uu,
            ("E", "E"): s * self.M_E,
            ("E", "B"): -alpha * self.R_EB,
            ("p", "u"): -self.D_p,
        }
        blocks["B", "E"] = -blocks["E", "B"].T
        blocks["u", "p"] = blocks["p", "u"].T
        if O is not None:
            blocks["E", "u"] = s * O
            blocks["u", "E"] = blocks["E", "u"].T
        if "r" in self.fields:
            blocks["r", "B"] = self.D_r
            blocks["B", "r"] = blocks["r", "B"].T
        else:
            blocks["B", "B"] = alpha * self.G_dd
        return self.block_system(blocks, {"u": self.load_f, "E": self.load_g})

    # ------------------------------------------------------------------
    # projections of the error analysis

    def stokes_project(self, grad_u_func, *, quad_degree: int = 6):
        """Stokes projection of a velocity field given its gradient tensor.

        Solves (grad Pu, grad v) + (q_aux, div v) = (grad u, grad v),
        (div Pu, q) = 0 with zero-mean auxiliary pressure, over the
        driver's velocity and pressure spaces, with the Stokes-Poisson
        LU of the Picard steps.  ``grad_u_func`` maps (N, 3) points to
        (N, 3, 3) tensors G_ij = d_j u_i.  Returns (projected velocity,
        auxiliary pressure).
        """
        try:
            S = self._stokes_poisson()
        except linalg.SingularMatrixError as exc:
            raise MhdError(
                f"Stokes system singular (velocity/pressure pair unstable): {exc}"
            ) from exc
        # the system divided by Re is the Stokes part of S, whose u rows
        # carry K_u / Re and whose pressure is -q / Re; phi solves
        # s G0^T M_E G0 phi = 0
        b = np.zeros(self.P.shape[0])
        b[self._rows["u"]] = assembly._grad_load(self.u_space, grad_u_func, quad_degree)
        b /= self.params.Re
        out = self.split(self.P @ S.solve(self.P.T @ b))
        return out["u"], FieldFunction(self.p_space, -self.params.Re * out["p"].coeffs)

    def divfree_project(self, func, *, quad_degree: int = 6) -> FieldFunction:
        """L^2 projection onto the divergence-free subspace of the face
        space.  That subspace is curl of the edge space (b1 = b2 = 0), so
        the projection is B = C_ct K^-1 C_ct^T load on the cotree
        factorization, and div B = 0 holds by the integer identity
        div curl = 0."""
        load = assembly.assemble_linear(self.B_space, func, quad_degree=quad_degree)
        a = self._cotree.solve(self.C_ct.T @ load)
        return FieldFunction.from_free(self.B_space, self.C_ct @ a)

    # ------------------------------------------------------------------
    # Picard loop

    def _stokes_poisson(self) -> linalg.Factorization:
        """LU of the Stokes-Poisson operator S = P^T A(0, 0) P, the reduced
        step matrix at u- = 0, B- = 0; factored on first use, then kept."""
        if self._S is None:
            zero = self.zero_state()
            A0, _ = self.assemble_picard_step(zero.u, zero.B)
            self._S = linalg.Factorization((self.P.T @ A0 @ self.P).tocsr())
        return self._S

    def _solve_step(self, A: sp.csr_matrix, b: np.ndarray) -> tuple:
        """Solution x of A x = b in ``unknowns`` order, its relative
        residual, the reduced matrix P^T A P and how that was solved.

        (u, phi, p) come from the Galerkin system P^T A P y = P^T b, in
        which B drops out because Ohm's law is tested with gradients
        (G0^T R_EB = G0^T C^T M_B = 0).  It is solved by GMRES
        preconditioned with the Stokes-Poisson LU, or factored when GMRES
        misses its budget or the residual contract.  B = C_ct a then
        follows from the Ohm rows on the cotree, K a = -(b - A P y)_ct /
        alpha; the other Ohm rows hold with them, because both sides are
        orthogonal to the gradients and the tree rows of G0 are
        invertible."""
        reduced = (self.P.T @ A @ self.P).tocsr()
        rb = self.P.T @ b
        S = self._stokes_poisson()
        try:
            y = S.solve(rb, A=reduced)
            how = f"GMRES on S: {S.iterations} iterations, {S.sweeps} refinement sweeps"
        except linalg.LinAlgError:
            y = linalg.solve_direct(reduced, rb)
            how = "factored"
        x = self.P @ y
        ohm = (b - A @ x)[self._rows["E"]]
        x[self._rows["B"]] = self.C_ct @ self._cotree.solve(-ohm[self._ct] / self.params.alpha)
        bnorm = np.linalg.norm(b)
        resid = float(np.linalg.norm(b - A @ x) / bnorm) if bnorm > 0 else 0.0
        if resid > linalg.RESIDUAL_TOL:
            raise linalg.LinAlgError(
                f"Picard step residual {resid:.3e} exceeds {linalg.RESIDUAL_TOL:.1e}"
            )
        return x, resid, reduced, how

    def picard_solve(
        self,
        *,
        tol: float = 1e-8,
        maxit: int = 100,
        init: MhdState | None = None,
        keep_states: bool = False,
    ):
        """Iterate to the fixed point; returns (MhdState, PicardReport).

        Stops when the W-norm of the (u, B) increment drops below
        tol * max(1, W-norm of the iterate); non-convergence at maxit is
        reported in the flag, not raised.  keep_states retains every
        iterate (including the initial guess) in report.states for
        iterate-level checks; leave it off for large runs.
        """
        if not tol > 0 or maxit < 1:
            raise MhdError("need tol > 0 and maxit >= 1")
        state = init if init is not None else self.zero_state()
        report = PicardReport(converged=False, iterations=0)
        if keep_states:
            report.states.append(state)

        for _ in range(maxit):
            cross = self.cross_blocks(state.B)
            A, b = self.assemble_picard_step(state.u, state.B, cross=cross)
            x, resid, reduced, how = self._solve_step(A, b)
            new_state = MhdState(**self.split(x))

            du = FieldFunction(self.u_space, new_state.u.coeffs - state.u.coeffs)
            dB = FieldFunction(self.B_space, new_state.B.coeffs - state.B.coeffs)
            increment = operators.norm_w(du, dB, self.dcurl)
            diag = self.diagnostics(new_state, B_prev=state.B, cross=cross)

            report.iterations += 1
            report.increments.append(increment)
            report.residuals.append(resid)
            report.diagnostics_history.append(diag)
            if keep_states:
                report.states.append(new_state)
            prev = report.increments[-2] if report.iterations > 1 else 0.0
            _log.debug(
                "Picard step %d: %d reduced unknowns, %d nonzeros, %s, residual %.3e, "
                "contraction ratio %s",
                report.iterations,
                reduced.shape[0],
                reduced.nnz,
                how,
                resid,
                f"{increment / prev:.3e}" if prev > 0 else "n/a",
            )
            report.state_norm = operators.norm_w(new_state.u, new_state.B, self.dcurl)
            state = new_state
            if increment <= tol * max(1.0, report.state_norm):
                report.converged = True
                break

        return state, report

    # ------------------------------------------------------------------
    # diagnostics

    def diagnostics(
        self, state: MhdState, *, B_prev: FieldFunction | None = None, cross=None
    ) -> Diagnostics:
        """Exact-identity and energy-chain diagnostics for a state.

        B_prev is the frozen field of the step that produced the state;
        it defaults to state.B, which is the converged interpretation.
        """
        p = self.params
        if B_prev is None:
            B_prev = state.B
        uf = state.u.coeffs[self.u_space.free]
        Ef = state.E.coeffs[self.E_space.free]

        div = derham.evaluate_div_on_cells(state.B)
        divB_max = float(np.max(np.abs(div))) if len(div) else 0.0
        divB_scale = max(
            1.0,
            float(
                np.sqrt(
                    operators.lp_norm(state.B, 2, quad_degree=4) ** 2
                    + norm_sq_cellwise(div, self.mesh.volumes)
                )
            ),
        )
        r_norm = (
            operators.lp_norm(state.r, 2, quad_degree=2) if state.r is not None else 0.0
        )
        curlE_norm = operators.norm_curl_part(state.E)

        # energy identity from the assembled operators of the step
        if cross is None:
            cross = self.cross_blocks(B_prev)
        O, Luu = cross
        dissipation = float(uf @ (self.K_u @ uf)) / p.Re
        joule = float(Ef @ (self.M_E @ Ef))
        if O is not None:
            joule += 2.0 * float(Ef @ (O @ uf)) + float(uf @ (Luu @ uf))
        joule *= p.s
        work_f = float(self.load_f @ uf)
        work_g = float(self.load_g @ Ef)
        scale = max(abs(work_f) + abs(work_g), dissipation + joule)
        energy_residual = (
            abs(dissipation + joule - work_f - work_g) / scale if scale > 0 else 0.0
        )

        j_norm = float(np.sqrt(max(joule, 0.0) / p.s))
        hcurlB = self.dcurl.apply(state.B)
        hcurlB_norm = operators.lp_norm(hcurlB, 2, quad_degree=4)
        dual_f = self.dual_f

        energy2_lhs = 0.5 * dissipation + joule
        energy2_rhs = 0.5 * p.Re * dual_f**2
        energy3_lhs = hcurlB_norm / p.Rm
        energy3_rhs = j_norm
        energy4_lhs = hcurlB_norm
        energy4_rhs = p.Rm * np.sqrt(0.5 * p.Re / p.s) * dual_f
        E_norm = float(np.sqrt(max(float(Ef @ (self.M_E @ Ef)), 0.0)))
        e5_scale = p.Re**1.5 * p.Rm / np.sqrt(p.s) * dual_f**2
        energy5_ratio = E_norm / e5_scale if e5_scale > 0 else 0.0

        return Diagnostics(
            divB_max=divB_max,
            divB_scale=divB_scale,
            r_norm=r_norm,
            curlE_norm=curlE_norm,
            j_norm=j_norm,
            hcurlB_norm=hcurlB_norm,
            energy_residual=energy_residual,
            dissipation=dissipation,
            joule=joule,
            work_f=work_f,
            work_g=work_g,
            dual_f=dual_f,
            energy2_lhs=energy2_lhs,
            energy2_rhs=energy2_rhs,
            energy3_lhs=energy3_lhs,
            energy3_rhs=energy3_rhs,
            energy4_lhs=energy4_lhs,
            energy4_rhs=energy4_rhs,
            energy5_ratio=energy5_ratio,
        )

    # ------------------------------------------------------------------
    # reduced-system equivalence

    def reduced_equivalence_check(
        self, state: MhdState, *, B_cross: FieldFunction | None = None
    ) -> float:
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
        wdet = assembly.quadrature_weights(self.mesh, rule)
        uv = derham.evaluate_on_cells(state.u, rule.points)
        Bv = derham.evaluate_on_cells(B_cross if B_cross is not None else state.B, rule.points)
        cross = np.cross(uv, Bv)
        Pj = self.dcurl.project(cross, rule)
        hcurlB = self.dcurl.apply(state.B)

        ident = FieldFunction(
            self.E_space,
            state.E.coeffs + Pj.coeffs - hcurlB.coeffs / self.params.Rm,
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

    # ------------------------------------------------------------------
    # stability proxy

    def stability_weight_matrix(self, state: MhdState) -> sp.csr_matrix:
        """SPD norm matrix of the linearization norms on the step
        unknowns: the (u, E, B) triple norm with the frozen-field Ohm
        term, L^2 for the scalar multipliers, identity on border rows."""
        O, Luu = self.cross_blocks(state.B)
        W_uu = assembly.assemble_bilinear("vec_mass", self.u_space, self.u_space) + self.K_u
        if O is not None:
            W_uu = W_uu + Luu
        C_EE = assembly.assemble_bilinear("curl_curl", self.E_space, self.E_space)
        if "r" in self.fields:
            W_BB = self.M_B + assembly.assemble_bilinear(
                "divdiv", self.B_space, self.B_space
            )
        else:
            W_BB = self.M_B + self.G_dd
        blocks = {
            ("u", "u"): W_uu,
            ("E", "E"): self.M_E + C_EE,
            ("B", "B"): W_BB,
            ("p", "p"): assembly.assemble_bilinear(
                "scalar_mass", self.p_space, self.p_space
            ),
        }
        if O is not None:
            blocks["E", "u"] = O
            blocks["u", "E"] = O.T
        if "r" in self.fields:
            blocks["r", "r"] = assembly.assemble_bilinear(
                "scalar_mass", self.r_space, self.r_space
            )
        for name in self.unknowns[len(self.fields):]:
            blocks[name, name] = sp.identity(1)
        names = self.unknowns
        return sp.bmat([[blocks.get((t, f)) for f in names] for t in names], format="csr")


def _cotree_edges(ends: np.ndarray, root: int) -> np.ndarray:
    """Indices of the edges, given as (n, 2) node pairs over the nodes
    0..root, that are off a breadth-first spanning tree grown from root;
    loops are always off it.  Every node must be reachable."""
    ends = np.sort(ends, axis=1)
    link = ends[:, 0] != ends[:, 1]
    graph = sp.csr_matrix(
        (np.ones(link.sum()), (ends[link, 0], ends[link, 1])), shape=(root + 1, root + 1)
    )
    _, pred = csgraph.breadth_first_order(graph, root, directed=False)
    # the tree edge of node k joins it to pred[k]; pick one of any parallels
    keys = ends[:, 0] * (root + 1) + ends[:, 1]
    order = np.argsort(keys, kind="stable")
    k = np.arange(root)
    tree_keys = np.minimum(k, pred[:root]) * (root + 1) + np.maximum(k, pred[:root])
    on_tree = np.zeros(len(ends), dtype=bool)
    on_tree[order[np.searchsorted(keys[order], tree_keys)]] = True
    return np.flatnonzero(~on_tree)


def norm_sq_cellwise(values: np.ndarray, volumes: np.ndarray) -> float:
    """Integral of a cellwise-constant scalar squared."""
    return float((values * values) @ volumes)


def _weighted_sq(vals: np.ndarray, wdet: np.ndarray) -> float:
    return float(np.einsum("cq,cqd,cqd->", wdet, vals, vals))


def variant_equivalence(
    mesh: Mesh, params: MhdParams, sources: SourceData, *, tol: float = 1e-10, maxit: int = 100
) -> dict:
    """Solve with the multiplier and the augmented variant and compare.

    Returns the relative W-norm discrepancy of (u, B) plus per-field L^2
    differences and both reports.
    """
    results = {}
    for variant in VARIANTS:
        pv = MhdParams(
            Re=params.Re,
            Rm=params.Rm,
            s=params.s,
            bc_family=params.bc_family,
            variant=variant,
        )
        driver = MhdDriver(mesh, pv, sources)
        state, report = driver.picard_solve(tol=tol, maxit=maxit)
        results[variant] = (driver, state, report)

    drv_m, st_m, rep_m = results["multiplier"]
    _, st_a, rep_a = results["augmented"]
    du = FieldFunction(drv_m.u_space, st_m.u.coeffs - st_a.u.coeffs)
    dB = FieldFunction(drv_m.B_space, st_m.B.coeffs - st_a.B.coeffs)
    dE = FieldFunction(drv_m.E_space, st_m.E.coeffs - st_a.E.coeffs)
    dp = FieldFunction(drv_m.p_space, st_m.p.coeffs - st_a.p.coeffs)
    diff_w = operators.norm_w(du, dB, drv_m.dcurl)
    scale = max(operators.norm_w(st_m.u, st_m.B, drv_m.dcurl), 1e-300)
    return {
        "rel_w": diff_w / scale,
        "diff_E": operators.lp_norm(dE, 2, quad_degree=4),
        "diff_p": operators.lp_norm(dp, 2, quad_degree=2),
        "converged": rep_m.converged and rep_a.converged,
        "reports": (rep_m, rep_a),
        "states": (st_m, st_a),
    }
