"""The discrete complex of a boundary-condition family, and quadrature norms.

``DiscreteCurl`` turns a family into its complex grad -> curl -> div on
a mesh: essential-zero edge and face spaces for normal_B, unconstrained
ones for tangential_B.  Its weak curl maps the face space into the edge
space through a pre-factorized mass solve:

    (curl_h C, F) = (C, curl F)   for all F in the edge space.

The package reads only |curl_h B|_0 from that solve.  The potentials
E = G0 phi and B = C_ct a, gauged by a spanning tree (Gross & Kotiuga,
Electromagnetic Theory and Computation, 2004), are built on first read.
The quadrature norms measure what the driver's matrices do not: L^3
norms, the L^2 norms of r, E and p, and the cellwise curl of an edge
field.  The curl norm and the L^p norms each take a block of fields, one
per column of coefficients; a single field is the one-column case.  The
W-norm of (u, B) is ``MhdDriver.w_norm``, and the driver solves the
error projections.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from . import assembly, derham, linalg
from .derham import FeSpace, FieldFunction, make_space
from .mesh import Mesh, MeshTopology, cotree_edges

BC_FAMILIES = ("normal_B", "tangential_B")


class OperatorError(Exception):
    """Raised for incompatible spaces or broken operator contracts."""


def _check_block(space, coeffs):
    if coeffs.ndim != 2 or len(coeffs) != space.ndof:
        raise OperatorError(
            f"coefficients of shape {coeffs.shape} for a space of {space.ndof} dofs"
        )


class DiscreteCurl:
    """The complex of one boundary-condition family on a mesh: its edge
    and face spaces, the weak curl from the face space into the edge
    space (mass solve) and the potentials ``G0``, ``ct`` and ``C_ct``."""

    def __init__(self, mesh: Mesh, topo: MeshTopology, bc_family: str):
        if bc_family not in BC_FAMILIES:
            raise OperatorError(f"unknown bc_family {bc_family!r}")
        self._normal = bc_family == "normal_B"
        bc = "essential_zero" if self._normal else "none"
        self.curl_space = make_space("nedelec1_lowest", bc, mesh, topo)
        self.div_space = make_space("rt_lowest", bc, mesh, topo)
        self.mass = assembly.assemble_bilinear("vec_mass", self.curl_space, self.curl_space)
        self.pairing = assembly.assemble_bilinear(
            "curl_mass_pairing", self.div_space, self.curl_space
        )
        self._lu = linalg.Factorization(self.mass)

    @cached_property
    def G0(self):
        """The gradient incidence on the free edges and the potential's
        vertices: the interior ones (normal_B), or all but vertex 0,
        where phi is pinned (tangential_B); E = G0 phi."""
        topo = self.curl_space.topology
        if self._normal:
            phi_vertices = np.flatnonzero(~topo.boundary_vertices)
        else:
            phi_vertices = np.arange(1, self.curl_space.mesh.num_vertices)
        return topo.grad_incidence[self.curl_space.free][:, phi_vertices].astype(float).tocsr()

    @cached_property
    def ct(self) -> np.ndarray:
        """The free edges off a spanning tree of the graph of G0, in
        which the other vertices are merged into one ground node: the
        gauge of the vector potential."""
        return cotree_edges(self.G0)

    @cached_property
    def C_ct(self):
        """The curl incidence on the free faces and the edges ``ct``:
        every divergence-free face field is B = C_ct a (b1 = b2 = 0)."""
        K = self.curl_space.topology.curl_incidence
        return K[self.div_space.free][:, self.curl_space.free[self.ct]].astype(float).tocsr()

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
    if not coeffs.shape[1]:
        return np.zeros(0)
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


def norm_cellwise_constant(r: FieldFunction) -> float:
    """L^2 norm of a piecewise-constant field, by the degree-2 rule,
    which integrates r^2 exactly."""
    return lp_norm(r, 2, quad_degree=2)


def norm_curl_part(F: FieldFunction) -> float:
    """L^2 norm of the (cellwise constant) curl of an edge field."""
    curl = derham.evaluate_curl_on_cells(F)
    return float(np.sqrt(np.einsum("cd,cd,c->", curl, curl, F.space.mesh.volumes)))
