"""The discrete curl and the solution norms.

The weak curl maps the face (div-conforming) space into the edge
(curl-conforming) space through a pre-factorized mass solve:

    (curl_h C, F) = (C, curl F)   for all F in the edge space.

The boundary-condition family is carried by the spaces themselves: with
essential-zero spaces this is the operator of the homogeneous complex,
with unconstrained spaces its natural-boundary variant.  Alongside it
live the norms in which the solver measures increments and errors.  The
Stokes and divergence-free projections of the error analysis are saddle
systems over the scheme's own forms, so the Picard driver solves them
(``MhdDriver.stokes_project``, ``MhdDriver.divfree_project``).
"""

from __future__ import annotations

import numpy as np

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
        return FieldFunction.from_free(self.curl_space, self._lu.solve(rhs))


# ----------------------------------------------------------------------
# norms


def lp_norm(f: FieldFunction, p: int = 2, *, quad_degree: int = 6) -> float:
    """L^p norm of a field by quadrature (p in {2, 3})."""
    if p not in (2, 3):
        raise OperatorError(f"unsupported exponent p={p}")
    rule = assembly.quadrature_rule(quad_degree)
    vals = derham.evaluate_on_cells(f, rule.points)
    wdet = assembly.quadrature_weights(f.space.mesh, rule)
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
