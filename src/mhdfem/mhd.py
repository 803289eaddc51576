"""Stationary incompressible MHD in magnetic/electric field variables.

The driver assembles and solves the Picard linearization of the coupled
system for (u, E, B, p, r): momentum with the Lorentz force s(j x B-, v)
where j = E + u x B-, Ohm's law s(j, F) - alpha(B, curl F) = <g, F>,
Faraday's law alpha(curl E, C) plus the divergence constraint on B, and
incompressibility.  Two boundary-condition families are supported
(normal_B: u = 0, B.n = 0, E x n = 0 essential; tangential_B: natural
magnetic conditions).  The two treatments of the divergence constraint,
a Lagrange multiplier r and the augmented term alpha(div B, div C), give
the same iterates, so each step is solved once and checked against both.

The magnetic multiplier space differs between the families: the
constrained-flux family pairs with zero-mean piecewise constants (the
divergence of the constrained face space is exactly the zero-mean
space), while the natural family uses the full piecewise-constant space,
whose divergence map is onto.  Restricting the natural family's
multiplier to zero mean leaves a one-dimensional kernel (the face field
with uniform divergence) and a singular linear system, so the full space
is the well-posed choice.

A Picard step is one map (test, trial) -> block over the driver's
fields, border rows of the zero-mean fields included; ``linalg.flatten``
flattens such a map over a list of unknowns.  With the div B blocks of
a formulation, over its unknowns (``formulations``), it is a monolithic
matrix that defines the step, but a step is solved in potentials.  On
a connected domain without holes or cavities (Betti numbers
b1 = b2 = 0, checked when the driver is built) every curl-free E is
G phi and every divergence-free B is C a, with G and C the integer
gradient and curl incidences on the free dofs.  Ohm's law tested with gradients loses B,
because R_EB = C^T M_B and C G = 0, so the map is lifted to the
potentials (u, phi, p, p_mean), with E = G0 phi and B, r and r_mean
dropped, and only that Galerkin system is flattened and solved.
B = C_ct a then follows from the Ohm rows, with a gauged by a spanning
tree (G0, the cotree edges ct and C_ct come from the family's complex
``operators.DiscreteCurl``) and the constant cotree matrix C_ct^T M_B
C_ct factored once per driver; r is measured, and each monolithic
residual is taken block by block.  Every Picard iterate therefore has
cellwise div B = 0, curl E = 0 and r at roundoff by the integer
identities div curl = 0 and curl grad = 0, and satisfies the energy
identity

    Re^-1 |grad u|^2 + s |j|^2 = <f, u> + <g, E>

to solver tolerance; the relative residual of each monolithic system
must meet ``linalg.RESIDUAL_TOL``.  The source work term pairs g with
the electric field because E is the admissible Ohm test function; when
g = 0 this is the scheme's plain energy law, and j coincides with
E + u x B at a converged state.  A domain with b1 > 0 or b2 > 0 carries
discrete harmonic fields that the potentials miss, and is rejected.

The potential step matrix differs from its value at u- = 0, B- = 0,
the Stokes-Poisson operator S (the bordered Stokes block with K_u / Re
next to s G0^T M_E G0), only by the frozen convection,
Lorentz and Ohm terms, which the smallness condition of the Picard
theory keeps small.  So S is eliminated exactly by blocks once per
driver, on first use, and each step is solved by GMRES preconditioned
with that elimination (Elman, Silvester & Wathen, Finite Elements and
Fast Iterative Solvers, 2014, whose block preconditioners approximate
the same elimination): the velocity block K_u / Re is the scalar P2
stiffness k on each component, solved on the one LU of k per driver
that also gives the dual norm of f, and the trailing (phi, p, p_mean)
block is its dense Schur complement, factored by one dense LU.  A step
that GMRES cannot bring under the residual contract within its budget
is factored on its own.  The projections of the error analysis take
load vectors: the Stokes projection is the Stokes part of S, so it
reuses the same elimination.  Increments
and iterates are measured in the W-norm of the Picard theory (``w_norm``):
|(u, B)|_W^2 = u.(M_u + K_u)u + B.(M_B + G_dd)B + |curl_h B|_0^2.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, asdict

import numpy as np
import scipy.sparse as sp

from . import assembly, derham, linalg, operators
from .derham import FieldFunction, make_space
from .mesh import Mesh, betti_numbers, build_topology


class MhdError(Exception):
    """Raised for invalid parameters or driver misuse."""


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

    def __post_init__(self):
        for name in ("Re", "Rm", "s"):
            if not 0 < getattr(self, name) < np.inf:
                raise MhdError(f"parameter {name} must be positive and finite")
        if self.bc_family not in operators.BC_FAMILIES:
            raise MhdError(f"unknown bc_family {self.bc_family!r}")

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
    """One solution snapshot; r is the multiplier formulation's r, the
    least-squares multiplier of its B rows at the computed (E, B)."""

    u: FieldFunction
    E: FieldFunction
    B: FieldFunction
    p: FieldFunction
    r: FieldFunction


@dataclass(frozen=True)
class WNorm:
    """|(u, B)|_W and its parts: u = |u|_1, B_div = (|B|_0^2 +
    |div B|_0^2)^(1/2), curl_h = |curl_h B|_0 and B = |B|_d."""

    u: float
    B_div: float
    curl_h: float

    @property
    def B(self) -> float:
        return float(np.hypot(self.B_div, self.curl_h))

    @property
    def total(self) -> float:
        return float(np.hypot(self.u, self.B))


@dataclass
class Diagnostics:
    """Solution diagnostics; the exact identities evaluate the same
    assembled matrices and loads as the linear system.  ``norm``, the
    iterate's W-norm, is read by picard_solve and the CLI, not reported."""

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
    norm: WNorm = field(repr=False)

    def as_dict(self) -> dict:
        return {k: v for k, v in asdict(self).items() if k != "norm"}


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
    """Owns the family's complex ``dcurl``, the other spaces, the
    constant matrices (each assembled once), the cotree LU, the saddle
    systems and the Picard loop."""

    def __init__(self, mesh: Mesh, params: MhdParams, sources: SourceData | None = None):
        self.mesh = mesh
        self.params = params
        self._S = None  # the Stokes-Poisson elimination, built on first use
        self._k = None  # the LU of the scalar velocity stiffness k
        self.sources = sources if sources is not None else SourceData()
        topo = build_topology(mesh)
        betti = betti_numbers(mesh, topo)
        if betti != (1, 0, 0):
            raise MhdError(
                "the step is solved in exact-sequence potentials, which need a "
                "connected domain without holes or cavities: b0, b1, b2 = %d, %d, %d"
                % betti
            )
        self.dcurl = operators.DiscreteCurl(mesh, topo, params.bc_family)
        self.spaces = {
            "u": make_space("lagrange_p2_vector", "essential_zero", mesh, topo),
            "E": self.dcurl.curl_space,
            "B": self.dcurl.div_space,
            "p": make_space("lagrange_p1", "none", mesh, topo),
            "r": make_space("dg0", "none", mesh, topo),
        }
        self.u_space, self.E_space, self.B_space, self.p_space, self.r_space = self.spaces.values()

        self.K_u = assembly.assemble_bilinear("grad_grad", self.u_space, self.u_space)
        self.M_E, self.R_EB = self.dcurl.mass, self.dcurl.pairing
        self.M_B = assembly.assemble_bilinear("vec_mass", self.B_space, self.B_space)
        self.D_p = assembly.assemble_bilinear("div_pressure", self.u_space, self.p_space)
        self.D_r = assembly.assemble_bilinear("div_scalar", self.B_space, self.r_space)
        self.G_dd = assembly.assemble_bilinear("divdiv", self.B_space, self.B_space)
        # the Gram matrices of |u|_1 and (|B|_0^2 + |div B|_0^2)^(1/2)
        self.W_u = assembly.assemble_bilinear("vec_mass", self.u_space, self.u_space) + self.K_u
        self.W_B = self.M_B + self.G_dd

        # fields of every Picard step and state
        self.fields = tuple(self.spaces)
        # border row of each zero-mean field (the pressure, and r where it
        # pairs with the constrained flux), the basis integrals, and the
        # blocks of its row and column f + "_mean" in a step map
        self.mean_rows = {
            f: sp.csr_matrix(assembly.domain_integral_vector(self.spaces[f]))
            for f in (("p", "r") if params.bc_family == "normal_B" else ("p",))
        }
        self._borders = {}
        for f, row in self.mean_rows.items():
            self._borders[f + "_mean", f], self._borders[f, f + "_mean"] = row, row.T
        unknowns = self.fields + tuple(f + "_mean" for f in self.mean_rows)
        # the two treatments of div B = 0: name -> (unknowns of its
        # monolithic system, blocks it adds to the step map)
        self.formulations = {
            "multiplier": (unknowns, {("r", "B"): self.D_r, ("B", "r"): self.D_r.T}),
            "augmented": (("u", "E", "B", "p", "p_mean"), {("B", "B"): params.alpha * self.G_dd}),
        }
        # r is the least-squares multiplier of the B rows: the normal
        # matrix D_r D_r^T, a dg0 graph Laplacian, bordered like r
        r_names = ("r", "r_mean") if "r" in self.mean_rows else ("r",)
        r_blocks = {("r", "r"): self.D_r @ self.D_r.T, **self._borders}
        self._r_normal = linalg.Factorization(linalg.flatten(r_names, r_blocks, {})[0])
        # the cotree matrix of B = C_ct a, factored here: Picard factors nothing
        self._cotree = linalg.Factorization(self.dcurl.C_ct.T @ self.M_B @ self.dcurl.C_ct)

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
        # K_u is the scalar stiffness k on each interleaved component, so
        # f K_u^-1 f sums f_c k^-1 f_c over the components on one LU of k
        self.dual_f = 0.0
        if np.any(self.load_f):
            k = self._stiffness()
            work = sum(float(f_c @ k.solve(f_c)) for f_c in self.load_f.reshape(-1, 3).T)
            self.dual_f = float(np.sqrt(max(work, 0.0)))

    def _stiffness(self) -> linalg.Factorization:
        """LU of the scalar P2 stiffness k, the block of K_u on one
        velocity component; factored on first use, by ``dual_f`` or with
        S, then kept.

        The free velocity coefficients must be component-interleaved
        (dof 3 node + c, with every component of a free node free), and
        K_u must hold k on each component and nothing between them.  That
        is checked here, once, and a failed property raises.
        """
        if self._k is None:
            free = self.u_space.free
            nodes = np.unique(free // 3)
            if not np.array_equal(free, (3 * nodes[:, None] + np.arange(3)).ravel()):
                raise MhdError("a free velocity node has a component that is not free")
            K = self.K_u.tocoo()
            if np.any((K.row % 3 != K.col % 3) & (K.data != 0)):
                raise MhdError("K_u has entries between velocity components")
            comp = free % 3
            k = self.K_u[comp == 0][:, comp == 0]
            if any((self.K_u[comp == c][:, comp == c] - k).count_nonzero() for c in (1, 2)):
                raise MhdError("K_u differs between velocity components")
            self._k = linalg.Factorization(k)
        return self._k

    # ------------------------------------------------------------------
    # the Picard step: one block map, and the two systems flattened from it

    def zero_state(self) -> MhdState:
        return MhdState(**{f: FieldFunction.zeros(self.spaces[f]) for f in self.fields})

    def cross_blocks(self, B_prev: FieldFunction):
        """Ohm coupling (F, u x B-) and velocity Lorentz Gram matrix for a
        frozen magnetic field; (None, None) when B- = 0."""
        if B_prev.space is not self.B_space:
            raise MhdError("previous iterate lives on foreign spaces")
        if not _nonzero(B_prev):
            return None, None
        O = assembly.assemble_bilinear(
            "ohm_cross", self.u_space, self.E_space, coefficient=B_prev
        )
        Luu = assembly.assemble_bilinear(
            "lorentz_cross", self.u_space, self.u_space, coefficient=B_prev
        )
        return O, Luu

    def _step_map(self, u_prev: FieldFunction, cross: tuple) -> tuple:
        """Block map (test, trial) -> block over ``fields``, with the
        border row and column ``f + "_mean"`` of each zero-mean field f,
        and load map of one Picard step at u- and the cross blocks of B-;
        the blocks of div B = 0 are those of ``formulations``."""
        if u_prev.space is not self.u_space:
            raise MhdError("previous iterate lives on foreign spaces")
        p = self.params
        s, alpha = p.s, p.alpha

        A_uu = (1.0 / p.Re) * self.K_u
        if _nonzero(u_prev):
            A_uu = A_uu + assembly.assemble_bilinear(
                "convection_skew", self.u_space, self.u_space, coefficient=u_prev
            )
        O, Luu = cross
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
        blocks.update(self._borders)
        return blocks, {"u": self.load_f, "E": self.load_g}

    def _potential_system(self, blocks: dict, rhs: dict) -> tuple:
        """(A, b, offsets) of a step map's Galerkin system on the
        potentials (u, phi, p, p_mean): E = G0 phi, the E rows are tested
        with gradients, and B, r and r_mean drop out."""
        lift = {"u": "u", "phi": "E", "p": "p", "p_mean": "p_mean"}
        G0 = self.dcurl.G0
        reduced = {}
        for t, t_step in lift.items():
            for f, f_step in lift.items():
                block = blocks.get((t_step, f_step))
                if block is None:
                    continue
                if t == "phi":
                    block = G0.T @ block
                if f == "phi":
                    block = block @ G0
                reduced[t, f] = block
        A, b, offsets = linalg.flatten(
            tuple(lift), reduced, {"u": rhs["u"], "phi": G0.T @ rhs["E"]}
        )
        # K_u and D_p store the entries whose sums cancel exactly (1,344
        # and 279 at n = 4); kept, they would enter the elimination of S
        # and every product with the step matrix
        A.eliminate_zeros()
        return A, b, offsets

    def w_norm(self, u: FieldFunction, B: FieldFunction) -> WNorm:
        """|(u, B)|_W and its parts, with one solve of the discrete curl."""
        uf, Bf = u.coeffs[self.u_space.free], B.coeffs[self.B_space.free]
        return WNorm(
            u=float(np.sqrt(uf @ (self.W_u @ uf))),
            B_div=float(np.sqrt(Bf @ (self.W_B @ Bf))),
            curl_h=self.dcurl.norm(B),
        )

    # ------------------------------------------------------------------
    # projections of the error analysis

    def stokes_project(self, load: np.ndarray):
        """(Pu, q_aux), the Stokes projection of u from its load, the
        vector (grad u, grad v) over the free velocity dofs: it solves
        (grad Pu, grad v) + (q_aux, div v) = (grad u, grad v), (div Pu, q) = 0
        with zero-mean q_aux on the Stokes-Poisson elimination of the steps."""
        _check_load(self.u_space, load)
        S, offsets = self._stokes_poisson()
        # the system divided by Re is the Stokes part of S, whose u rows
        # carry K_u / Re and whose pressure is -q / Re; phi solves
        # s G0^T M_E G0 phi = 0
        b = np.zeros(S.A.shape[0])
        b[: offsets[0]] = load
        b /= self.params.Re
        u, _, p, _ = np.split(S.solve(b), offsets)
        return (
            FieldFunction.from_free(self.u_space, u),
            FieldFunction.from_free(self.p_space, -self.params.Re * p),
        )

    def divfree_project(self, load: np.ndarray) -> FieldFunction:
        """L^2 projection of f onto the divergence-free face fields from
        its load, the vector (f, C) over the free face dofs.  They are the
        curls of edge fields (b1 = b2 = 0), so it is B = C_ct K^-1 C_ct^T load
        on the cotree factorization, and div B = 0 holds by div curl = 0."""
        _check_load(self.B_space, load)
        a = self._cotree.solve(self.dcurl.C_ct.T @ load)
        return FieldFunction.from_free(self.B_space, self.dcurl.C_ct @ a)

    # ------------------------------------------------------------------
    # Picard loop

    def _stokes_poisson(self) -> tuple:
        """Factorization of the Stokes-Poisson operator S, the potential
        step matrix at u- = 0, B- = 0, and its block offsets; built on
        first use, then kept.  S is eliminated by blocks: its u block
        K_u / Re is k / Re on each component, on the LU of k, and the
        (phi, p, p_mean) block is its dense Schur complement.  A singular
        S is a driver error."""
        if self._S is None:
            step = self._step_map(self.zero_state().u, (None, None))
            S, _, offsets = self._potential_system(*step)
            try:
                k = self._stiffness()
                self._S = linalg.Factorization.by_blocks(
                    S, k, copies=3, scale=1.0 / self.params.Re
                ), offsets
            except linalg.SingularMatrixError as exc:
                raise MhdError(
                    f"Stokes system singular (velocity/pressure pair unstable): {exc}"
                ) from exc
        return self._S

    def _solve_step(self, blocks: dict, rhs: dict) -> tuple:
        """Solution of one step map as a state, the relative residual of
        each formulation's monolithic system by name, the potential matrix
        and how that was solved.

        (u, phi, p) come from the Galerkin system on the potentials, in
        which B drops out because Ohm's law is tested with gradients
        (G0^T R_EB = G0^T C^T M_B = 0).  It is solved by GMRES
        preconditioned with the Stokes-Poisson elimination, or factored
        when GMRES misses its budget or the residual contract.  B = C_ct a then
        follows from the Ohm rows on the cotree, K a = -(ohm residual)_ct
        / alpha; the other Ohm rows hold with them, because both sides
        are orthogonal to the gradients and the tree rows of G0 are
        invertible.  r solves the multiplier system's B rows
        D_r^T r = -alpha R_EB^T E in least squares; r_mean is zero.  Each
        formulation's monolithic residual is taken row block by row block,
        over every row of its system, the B, r and border rows included."""
        A, b, offsets = self._potential_system(blocks, rhs)
        S, _ = self._stokes_poisson()
        try:
            y = S.solve(b, A=A)
            how = f"GMRES on S: {S.iterations} iterations, {S.sweeps} refinement sweeps"
        except linalg.LinAlgError:
            y = linalg.Factorization(A).solve(b)
            how = "factored"
        u, phi, p, p_mean = np.split(y, offsets)
        x = {"u": u, "E": self.dcurl.G0 @ phi, "p": p, "p_mean": p_mean}
        ohm = rhs["E"] - _row(blocks, "E", x)
        x["B"] = self.dcurl.C_ct @ self._cotree.solve(-ohm[self.dcurl.ct] / self.params.alpha)
        # the B rows carry no load: D_r times their residual at r = 0
        load = -(self.D_r @ _row(blocks, "B", x))
        border = np.zeros(self._r_normal.A.shape[0] - len(load))
        x["r"] = self._r_normal.solve(np.concatenate([load, border]))[: len(load)]

        b_sq = sum(float(v @ v) for v in rhs.values())
        residuals = {}
        for name, (unknowns, constraint) in self.formulations.items():
            system = {**blocks, **constraint}
            res_sq = sum(np.sum(np.square(rhs.get(t, 0.0) - _row(system, t, x))) for t in unknowns)
            resid = float(np.sqrt(res_sq / b_sq)) if b_sq > 0 else 0.0
            if not resid <= linalg.RESIDUAL_TOL:
                raise linalg.LinAlgError(
                    f"Picard step residual {resid:.3e} of the {name} system exceeds "
                    f"{linalg.RESIDUAL_TOL:.1e}"
                )
            residuals[name] = resid
        state = self.zero_state()
        for f in self.fields:
            getattr(state, f).coeffs[self.spaces[f].free] = x[f]
        return state, residuals, A, how

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
            new_state, residuals, reduced, how = self._solve_step(*self._step_map(state.u, cross))

            du = FieldFunction(self.u_space, new_state.u.coeffs - state.u.coeffs)
            dB = FieldFunction(self.B_space, new_state.B.coeffs - state.B.coeffs)
            increment = self.w_norm(du, dB).total
            diag = self.diagnostics(new_state, cross)

            report.iterations += 1
            report.increments.append(increment)
            report.residuals.append(max(residuals.values()))
            report.diagnostics_history.append(diag)
            if keep_states:
                report.states.append(new_state)
            prev = report.increments[-2] if report.iterations > 1 else 0.0
            _log.debug(
                "Picard step %d: %d reduced unknowns, %d nonzeros, %s, residuals %s, "
                "|r| %.3e, contraction ratio %s",
                report.iterations,
                reduced.shape[0],
                reduced.nnz,
                how,
                ", ".join(f"{name} {resid:.3e}" for name, resid in residuals.items()),
                diag.r_norm,
                f"{increment / prev:.3e}" if prev > 0 else "n/a",
            )
            report.state_norm = diag.norm.total
            state = new_state
            if increment <= tol * max(1.0, report.state_norm):
                report.converged = True
                break

        return state, report

    # ------------------------------------------------------------------
    # diagnostics

    def diagnostics(self, state: MhdState, cross: tuple) -> Diagnostics:
        """Exact-identity and energy-chain diagnostics of a Picard iterate,
        with its W-norm.

        ``cross`` is the ``cross_blocks`` pair of the frozen field B- of
        the step that produced the state, so j = E + u x B- and the energy
        identity are read on the operators that step solved with.
        """
        p = self.params
        uf = state.u.coeffs[self.u_space.free]
        Ef = state.E.coeffs[self.E_space.free]

        norm = self.w_norm(state.u, state.B)
        div = derham.evaluate_div_on_cells(state.B)
        divB_max = float(np.max(np.abs(div))) if len(div) else 0.0
        divB_scale = max(1.0, norm.B_div)
        r_norm = operators.norm_cellwise_constant(state.r)
        curlE_norm = operators.norm_curl_part(state.E)

        # energy identity from the assembled operators of the step
        O, Luu = cross
        dissipation = float(uf @ (self.K_u @ uf)) / p.Re
        joule = E_sq = float(Ef @ (self.M_E @ Ef))
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
        dual_f = self.dual_f

        energy2_lhs = 0.5 * dissipation + joule
        energy2_rhs = 0.5 * p.Re * dual_f**2
        energy3_lhs = norm.curl_h / p.Rm
        energy3_rhs = j_norm
        energy4_lhs = norm.curl_h
        energy4_rhs = p.Rm * np.sqrt(0.5 * p.Re / p.s) * dual_f
        E_norm = float(np.sqrt(max(E_sq, 0.0)))
        e5_scale = p.Re**1.5 * p.Rm / np.sqrt(p.s) * dual_f**2
        energy5_ratio = E_norm / e5_scale if e5_scale > 0 else 0.0

        return Diagnostics(
            divB_max=divB_max,
            divB_scale=divB_scale,
            r_norm=r_norm,
            curlE_norm=curlE_norm,
            j_norm=j_norm,
            hcurlB_norm=norm.curl_h,
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
            norm=norm,
        )


def _check_load(space, load):
    if np.shape(load) != (space.num_free,):
        raise MhdError(f"a load of shape {np.shape(load)} for {space.num_free} free dofs")


def _row(blocks: dict, t: str, x: dict):
    """Block row t of a step map applied to the unknowns in x; the
    unknowns absent from x are zero."""
    return sum(blocks[t, f] @ v for f, v in x.items() if (t, f) in blocks)

