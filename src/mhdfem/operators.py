"""The discrete curl and the quadrature norms.

The weak curl maps the face (div-conforming) space into the edge
(curl-conforming) space through a pre-factorized mass solve:

    (curl_h C, F) = (C, curl F)   for all F in the edge space.

The boundary-condition family is carried by the spaces themselves: with
essential-zero spaces this is the operator of the homogeneous complex,
with unconstrained spaces its natural-boundary variant.  The package
reads only |curl_h B|_0 from that solve.  The quadrature norms measure
what the driver's matrices do not: L^3 norms, the L^2 norms of r, E and
p, and the cellwise curl of an edge field.  The W-norm of (u, B) is
``MhdDriver.w_norm``, and the driver solves the error projections.
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

    def norm(self, B: FieldFunction) -> float:
        """|curl_h B|_0 = (c . R_EB B)^(1/2), where M_E c = R_EB B."""
        if B.space is not self.div_space:
            raise OperatorError("field does not belong to the operator's face space")
        load = self.pairing @ B.coeffs[self.div_space.free]
        return float(np.sqrt(self._lu.solve(load) @ load))


# ----------------------------------------------------------------------
# quadrature norms


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


def norm_curl_part(F: FieldFunction) -> float:
    """L^2 norm of the (cellwise constant) curl of an edge field."""
    curl = derham.evaluate_curl_on_cells(F)
    return float(np.sqrt(np.einsum("cd,cd,c->", curl, curl, F.space.mesh.volumes)))
