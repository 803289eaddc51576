"""The discrete curl and the quadrature norms.

The weak curl maps the face (div-conforming) space into the edge
(curl-conforming) space through a pre-factorized mass solve:

    (curl_h C, F) = (C, curl F)   for all F in the edge space.

The boundary-condition family is carried by the spaces themselves: with
essential-zero spaces this is the operator of the homogeneous complex,
with unconstrained spaces its natural-boundary variant.  The package
reads only |curl_h B|_0 from that solve.  The quadrature norms measure
what the driver's matrices do not: L^3 norms, the L^2 norms of r, E and
p, and the cellwise curl of an edge field.  The curl norm and the L^p
norms each take a block of fields, one per column of coefficients; a
single field is the one-column case.  The W-norm of (u, B) is
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


def _check_block(space, coeffs):
    if coeffs.ndim != 2 or len(coeffs) != space.ndof:
        raise OperatorError(
            f"coefficients of shape {coeffs.shape} for a space of {space.ndof} dofs"
        )


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
        return float(self.norms(B.coeffs[:, None])[0])

    def norms(self, coeffs: np.ndarray) -> np.ndarray:
        """|curl_h B|_0 of each face-space field whose coefficients are a
        column of ``coeffs`` (ndof, m), by one block solve with M_E."""
        _check_block(self.div_space, coeffs)
        load = self.pairing @ coeffs[self.div_space.free]
        return np.sqrt(np.einsum("im,im->m", self._lu.solve(load), load))


# ----------------------------------------------------------------------
# quadrature norms

# point values (cell, quadrature point, field) that ``lp_norms`` holds
# at once: the cells are walked in blocks of this many values
LP_BLOCK_VALUES = 1 << 16


def lp_norm(f: FieldFunction, p: int = 2, *, quad_degree: int = 6) -> float:
    """L^p norm of a field by quadrature (p in {2, 3})."""
    return float(lp_norms(f.space, f.coeffs[:, None], p, quad_degree=quad_degree)[0])


def lp_norms(
    space: FeSpace, coeffs: np.ndarray, p: int = 2, *, quad_degree: int = 6
) -> np.ndarray:
    """L^p norms by quadrature (p in {2, 3}) of the fields of ``space``
    whose coefficients are the columns of ``coeffs`` (ndof, m).

    The cells are walked in blocks of about ``LP_BLOCK_VALUES`` point
    values, each holding all m fields; |f|^p is integrated from
    m2 = |f|^2 as m2 or m2 sqrt(m2)."""
    if p not in (2, 3):
        raise OperatorError(f"unsupported exponent p={p}")
    _check_block(space, coeffs)
    rule = assembly.quadrature_rule(quad_degree)
    wdet = assembly.quadrature_weights(space.mesh, rule)
    nc, nq = wdet.shape
    step = max(1, LP_BLOCK_VALUES // (nq * coeffs.shape[1]))
    total = np.zeros(coeffs.shape[1])
    for start in range(0, nc, step):
        cells = slice(start, start + step)
        vals = derham.evaluate_coefficients(space, coeffs, rule.points, cells)
        if vals.ndim == 4:  # (c, q, field, component)
            m2 = np.einsum("cqmd,cqmd->cqm", vals, vals)
        else:
            m2 = vals * vals
        total += np.einsum("cq,cqm->m", wdet[cells], m2 if p == 2 else m2 * np.sqrt(m2))
    return total ** (1.0 / p)


def norm_curl_part(F: FieldFunction) -> float:
    """L^2 norm of the (cellwise constant) curl of an edge field."""
    curl = derham.evaluate_curl_on_cells(F)
    return float(np.sqrt(np.einsum("cd,cd,c->", curl, curl, F.space.mesh.volumes)))
