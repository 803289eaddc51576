"""Discrete differential operators, projections and solution norms.

The weak curl maps the face (div-conforming) space into the edge
(curl-conforming) space through a pre-factorized mass solve:

    (curl_h C, F) = (C, curl F)   for all F in the edge space.

The boundary-condition family is carried by the spaces themselves: with
essential-zero spaces this is the operator of the homogeneous complex,
with unconstrained spaces its natural-boundary variant.  The L^2
projection onto the edge space reuses the same mass factorization.
Alongside these live the Stokes projection, the divergence-free
constrained L^2 projection, and the norms in which the solver measures
increments and errors.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from . import assembly, derham, linalg
from .derham import FeSpace, FieldFunction


class OperatorError(Exception):
    """Raised for incompatible spaces or broken operator contracts."""


def _check_pair(space_a, kind_a, space_b, kind_b):
    if space_a.kind != kind_a or space_b.kind != kind_b:
        raise OperatorError(
            f"expected ({kind_a}, {kind_b}) spaces, got "
            f"({space_a.kind}, {space_b.kind})"
        )
    if space_a.mesh is not space_b.mesh:
        raise OperatorError("spaces live on different meshes")
    if (space_a.bc == "essential_zero") != (space_b.bc == "essential_zero"):
        raise OperatorError("spaces mix boundary-condition families")


class DiscreteCurl:
    """Weak curl from the face space into the edge space (mass solve)."""

    def __init__(self, curl_space: FeSpace, div_space: FeSpace):
        _check_pair(curl_space, "nedelec1_lowest", div_space, "rt_lowest")
        self.curl_space = curl_space
        self.div_space = div_space
        self.mass = assembly.assemble_bilinear("vec_mass", curl_space, curl_space)
        self.pairing = assembly.assemble_bilinear(
            "curl_mass_pairing", div_space, curl_space
        )
        self._lu = linalg.Factorization(self.mass)

    def apply(self, B: FieldFunction) -> FieldFunction:
        """curl_h B as a field in the edge space."""
        if B.space is not self.div_space:
            raise OperatorError("field does not belong to the operator's face space")
        rhs = self.pairing @ B.coeffs[self.div_space.free]
        out = np.zeros(self.curl_space.ndof)
        out[self.curl_space.free] = self._lu.solve(rhs)
        return FieldFunction(self.curl_space, out)

    def project(self, values: np.ndarray, rule) -> FieldFunction:
        """L^2 projection onto the edge space of a field tabulated at the
        rule's quadrature points, shape (nc, nq, 3)."""
        mesh = self.curl_space.mesh
        basis = derham.nedelec_values(mesh, rule.points)
        wdet = assembly.quadrature_weights(mesh, rule)
        cellvec = np.einsum("cq,cqd,cqad->ca", wdet, values, basis)
        rhs = np.zeros(self.curl_space.ndof)
        np.add.at(rhs, self.curl_space.dofmap.ravel(), cellvec.ravel())
        out = np.zeros(self.curl_space.ndof)
        out[self.curl_space.free] = self._lu.solve(rhs[self.curl_space.free])
        return FieldFunction(self.curl_space, out)


def stokes_project(
    u_space: FeSpace, p_space: FeSpace, K, D, grad_u_func, *, quad_degree: int = 6
):
    """Stokes projection of a velocity field given its gradient tensor.

    Solves (grad Pu, grad v) + (q_aux, div v) = (grad u, grad v),
    (div Pu, q) = 0 with zero-mean auxiliary pressure, where K is the
    assembled ``grad_grad`` and D the ``div_pressure`` form.  ``grad_u_func``
    maps (N, 3) points to (N, 3, 3) tensors G_ij = d_j u_i.  Returns
    (projected velocity, auxiliary pressure).
    """
    if u_space.kind != "lagrange_p2_vector" or u_space.bc != "essential_zero":
        raise OperatorError("Stokes projection needs the constrained velocity space")
    rhs_u = _grad_load(u_space, grad_u_func, quad_degree)
    w = sp.csr_matrix(assembly.domain_integral_vector(p_space))
    # unknowns (u, p, zero-mean multiplier of p)
    grid = [[K, D.T, None], [D, None, w.T], [None, w, None]]
    A, b, offsets = linalg.flatten(grid, [rhs_u, None, None])
    try:
        x = linalg.solve_direct(A, b)
    except linalg.SingularMatrixError as exc:
        raise OperatorError(
            f"Stokes system singular (velocity/pressure pair unstable): {exc}"
        ) from exc
    xu, xp, _ = np.split(x, offsets)
    pu = np.zeros(u_space.ndof)
    pu[u_space.free] = xu
    pp = np.zeros(p_space.ndof)
    pp[p_space.free] = xp
    return FieldFunction(u_space, pu), FieldFunction(p_space, pp)


def _grad_load(space: FeSpace, grad_func, quad_degree: int) -> np.ndarray:
    """Load vector int G : grad v for the velocity space."""
    rule = assembly.quadrature_rule(quad_degree)
    mesh = space.mesh
    xq = derham.physical_points(mesh, rule.points)
    G = np.asarray(grad_func(xq.reshape(-1, 3)), dtype=float).reshape(
        xq.shape[0], xq.shape[1], 3, 3
    )
    sg = derham.p2_scalar_gradients(mesh, rule.points)
    wdet = assembly.quadrature_weights(mesh, rule)
    comp = np.einsum("cq,cqij,cqaj->cai", wdet, G, sg)
    vec = np.zeros(space.ndof)
    np.add.at(vec, space.dofmap.ravel(), comp.reshape(mesh.num_cells, 30).ravel())
    return vec[space.free]


def divfree_l2_project(
    div_space: FeSpace, mult_space: FeSpace, M, D, func, *, quad_degree: int = 6
) -> FieldFunction:
    """Constrained L^2 projection onto the discretely divergence-free
    subspace of the face space (saddle-point solve).

    M is the assembled ``vec_mass`` and D the ``div_scalar`` form.  The
    multiplier space decides the constraint test space: with a
    zero-mean multiplier a bordered row is added (homogeneous-flux
    family); otherwise the full piecewise-constant space is used.
    """
    _check_div_mult(div_space, mult_space)
    rhs = assembly.assemble_linear(div_space, func, quad_degree=quad_degree)
    # unknowns (B, multiplier[, zero-mean multiplier of the multiplier])
    if mult_space.mean_constraint:
        w = sp.csr_matrix(assembly.domain_integral_vector(mult_space))
        grid = [[M, D.T, None], [D, None, w.T], [None, w, None]]
    else:
        grid = [[M, D.T], [D, None]]
    A, b, offsets = linalg.flatten(grid, [rhs] + [None] * (len(grid) - 1))
    x = linalg.solve_direct(A, b)
    out = np.zeros(div_space.ndof)
    out[div_space.free] = np.split(x, offsets)[0]
    return FieldFunction(div_space, out)


def _check_div_mult(div_space, mult_space):
    if div_space.kind != "rt_lowest" or mult_space.kind != "dg0":
        raise OperatorError("projection needs (rt_lowest, dg0) spaces")
    if div_space.mesh is not mult_space.mesh:
        raise OperatorError("spaces live on different meshes")
    if (div_space.bc == "essential_zero") != mult_space.mean_constraint:
        raise OperatorError(
            "constrained-flux face space pairs with the zero-mean multiplier "
            "and the unconstrained face space with the full multiplier"
        )


# ----------------------------------------------------------------------
# norms


def lp_norm(f: FieldFunction, p: int = 2, *, quad_degree: int = 6) -> float:
    """L^p norm of a field by quadrature (p in {2, 3})."""
    if p not in (2, 3):
        raise OperatorError(f"unsupported exponent p={p}")
    rule = assembly.quadrature_rule(quad_degree)
    vals = derham.evaluate_on_cells(f, rule.points)
    wdet = assembly.quadrature_weights(f.space.mesh, rule)
    return _lp_from_values(vals, wdet, p)


def lp_norm_callable(mesh, func, p: int = 2, *, quad_degree: int = 6) -> float:
    """L^p norm of an analytic field by quadrature."""
    rule = assembly.quadrature_rule(quad_degree)
    xq = derham.physical_points(mesh, rule.points)
    vals = np.asarray(func(xq.reshape(-1, 3)), dtype=float)
    vals = vals.reshape(xq.shape[:2] + vals.shape[1:])
    wdet = assembly.quadrature_weights(mesh, rule)
    return _lp_from_values(vals, wdet, p)


def _lp_from_values(vals, wdet, p):
    if vals.ndim == 3:
        mag = np.sqrt(np.einsum("cqd,cqd->cq", vals, vals))
    else:
        mag = np.abs(vals)
    return float(np.einsum("cq,cq->", wdet, mag**p) ** (1.0 / p))


def norm_h1_vec(u: FieldFunction) -> float:
    """Full H^1 norm of a velocity field."""
    return float(np.sqrt(lp_norm(u, 2, quad_degree=4) ** 2 + seminorm_h1_vec(u) ** 2))


def seminorm_h1_vec(u: FieldFunction) -> float:
    """L^2 norm of the velocity gradient tensor (degree-4 quadrature)."""
    rule = assembly.quadrature_rule(4)
    G = derham.evaluate_grad_on_cells(u, rule.points)
    wdet = assembly.quadrature_weights(u.space.mesh, rule)
    return float(np.sqrt(np.einsum("cq,cqij,cqij->", wdet, G, G)))


def norm_div_part(B: FieldFunction) -> float:
    """L^2 norm of the (cellwise constant) divergence of a face field."""
    div = derham.evaluate_div_on_cells(B)
    return float(np.sqrt((div * div) @ B.space.mesh.volumes))


def norm_curl_part(F: FieldFunction) -> float:
    """L^2 norm of the (cellwise constant) curl of an edge field."""
    curl = derham.evaluate_curl_on_cells(F)
    return float(np.sqrt(np.einsum("cd,cd,c->", curl, curl, F.space.mesh.volumes)))


def norm_d(B: FieldFunction, dcurl: DiscreteCurl) -> float:
    """Magnetic graph norm: (|B|^2 + |div B|^2 + |curl_h B|^2)^(1/2)."""
    curl_h = dcurl.apply(B)
    return float(
        np.sqrt(
            lp_norm(B, 2, quad_degree=4) ** 2
            + norm_div_part(B) ** 2
            + lp_norm(curl_h, 2, quad_degree=4) ** 2
        )
    )


def norm_w(u: FieldFunction, B: FieldFunction, dcurl: DiscreteCurl) -> float:
    """Combined solution norm |(u, B)|_W = (|u|_1^2 + |B|_d^2)^(1/2)."""
    return float(np.sqrt(norm_h1_vec(u) ** 2 + norm_d(B, dcurl) ** 2))


class VelocityDualNorm:
    """Discrete dual norm sup <f, v> / |grad v| over the velocity space,
    realized by one stiffness solve per application."""

    def __init__(self, stiffness):
        self._lu = linalg.Factorization(stiffness)

    def __call__(self, load_free: np.ndarray) -> float:
        x = self._lu.solve(load_free)
        val = float(load_free @ x)
        return float(np.sqrt(max(val, 0.0)))
