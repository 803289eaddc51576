"""Quadrature and finite element form assembly.

Tetrahedral quadrature uses conical-product Gauss-Jacobi rules: for any
requested degree the weights are strictly positive and polynomial
exactness is guaranteed by construction (the degree-1 rule degenerates
to the centroid rule with weight 1/6).  Rules serve only where an
analytic function enters: ``assemble_linear`` evaluates its source at
the rule's points of every cell (degree 6 by default), refuses values of
the wrong shape, and sums them against the basis through the tables of
``derham`` (``integrate_against_basis``).  ``scatter_load`` sums local
load vectors into the free dofs, those of ``assemble_linear`` and those
a caller integrates from values it has tabulated itself.

No bilinear form is summed point by point.  Every basis is a polynomial
in the barycentric coordinates lambda, linear with a per-cell table
(``derham.basis_table``, ``p2_gradient_table``) or, for P2, a
homogeneous quadratic (``derham.P2_QUADRATICS``), and curls and
divergences are constant on affine cells.  So each local matrix is an
exact reference tensor, a sum of the moments
int lambda^alpha = alpha! / (|alpha| + 3)! (``lambda_moments``),
contracted with a small tensor of cell values (Kirby & Logg, ACM TOMS
32(3), 2006).  A frozen field enters by its own coefficients: the X_k of
B (its values at the reference vertices) and w at the ten P2 nodes.
Only the velocity forms that act on each component alike ask which kind
a space is.

Bilinear forms are assembled cellwise with numpy tensor contractions and
scattered into sparse matrices over the free (unconstrained) degrees of
freedom; essential-zero boundary conditions are eliminated symmetrically
by restriction.  The scatter follows a plan built once per mesh and
space pair (``_scatter_plan``): the slot in the free-dof CSR matrix of
every kept local entry, which is the rank of its free (row, col) key
among the sorted keys, and one ``np.bincount`` sums the entries into
their slots.  Each matrix has the pattern of ``coo_matrix(...).tocsr()``
restricted to the free dofs and equals it to rounding (the oracle test
against ``tests/oracles.coo_scatter`` checks both).

Zero-mean constraints are not handled here: the driver chooses the
zero-mean fields, and each enters the Picard step's block map as one
more block row and column holding the domain integrals of the basis
functions (``domain_integral_vector``); ``linalg.flatten`` lays the
map out as one matrix.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.special import roots_jacobi, roots_legendre

from . import derham
from .derham import FeSpace, FieldFunction
from .mesh import is_integer

MAX_QUAD_DEGREE = 14
# local entries per block of rows while a scatter plan is built
_PLAN_BLOCK = 1 << 16

_log = logging.getLogger(__name__)


class FormError(Exception):
    """Raised for unknown forms or incompatible space/form combinations."""


@dataclass(frozen=True)
class QuadratureRule:
    """Points (nq, 3) in reference-tet coordinates and weights summing
    to the reference volume 1/6."""

    points: np.ndarray
    weights: np.ndarray


_rule_cache: dict = {}


def quadrature_rule(degree: int) -> QuadratureRule:
    """Positive-weight tetrahedral rule exact for polynomials of the
    given total degree (conical product construction)."""
    if not is_integer(degree) or not 1 <= degree <= MAX_QUAD_DEGREE:
        raise FormError(f"unsupported quadrature degree {degree!r}")
    degree = int(degree)
    if degree in _rule_cache:
        return _rule_cache[degree]
    n = (degree + 2) // 2  # smallest n with 2n - 1 >= degree
    tu, wu = roots_jacobi(n, 2.0, 0.0)
    tv, wv = roots_jacobi(n, 1.0, 0.0)
    tw, ww = roots_legendre(n)
    u, wu = 0.5 * (tu + 1.0), wu / 8.0
    v, wv = 0.5 * (tv + 1.0), wv / 4.0
    w, ww = 0.5 * (tw + 1.0), ww / 2.0
    U, V, W = np.meshgrid(u, v, w, indexing="ij")
    WU, WV, WW = np.meshgrid(wu, wv, ww, indexing="ij")
    x = U.ravel()
    y = (V * (1.0 - U)).ravel()
    z = (W * (1.0 - U) * (1.0 - V)).ravel()
    points = np.stack([x, y, z], axis=1)
    weights = (WU * WV * WW).ravel()
    rule = QuadratureRule(points, weights)
    _rule_cache[degree] = rule
    return rule


@functools.cache
def lambda_moments(order: int) -> np.ndarray:
    """int lambda_k1 ... lambda_kn over the reference cell, (4,) * n for
    n = ``order``: alpha! / (|alpha| + 3)! for the multi-index alpha that
    counts the k's, the correctly rounded quotient of two integers."""
    table = np.empty((4,) * order)
    for index in np.ndindex(table.shape):
        alpha = [index.count(k) for k in range(4)]
        table[index] = math.prod(map(math.factorial, alpha)) / math.factorial(order + 3)
    table.setflags(write=False)  # shared by every call
    return table


@functools.cache
def reference_moments() -> np.ndarray:
    """M[a, b, k, l] = int phi_a phi_b lambda_k lambda_l over the reference
    cell, from ``derham.P2_QUADRATICS`` and the sixth moments.  By
    sum_k lambda_k = sum_b phi_b = 1 its sums are the P2 mass (over k
    and l), the Ohm moments (over b) and the convection moments (over l)."""
    Q = derham.P2_QUADRATICS
    table = np.einsum("aij,bmn,ijmnkl->abkl", Q, Q, lambda_moments(6))
    table.setflags(write=False)
    return table


# form_id -> (trial kinds, test kinds)
_VEC = ("lagrange_p2_vector", "nedelec1_lowest", "rt_lowest")
FORM_TABLE = {
    "grad_grad": (("lagrange_p2_vector",), ("lagrange_p2_vector",)),
    "vec_mass": (_VEC, _VEC),
    "scalar_mass": (("lagrange_p1", "dg0"), ("lagrange_p1", "dg0")),
    "curl_mass_pairing": (("rt_lowest",), ("nedelec1_lowest",)),
    "div_scalar": (("rt_lowest",), ("dg0",)),
    "div_pressure": (("lagrange_p2_vector",), ("lagrange_p1",)),
    "convection_skew": (("lagrange_p2_vector",), ("lagrange_p2_vector",)),
    "ohm_cross": (("lagrange_p2_vector",), ("nedelec1_lowest",)),
    "lorentz_cross": (("lagrange_p2_vector",), ("lagrange_p2_vector",)),
    "divdiv": (("rt_lowest",), ("rt_lowest",)),
}
# form_id -> the kinds of frozen field it takes: the moments are exact
# for a quadratic w and a linear B
_LINEAR = ("nedelec1_lowest", "rt_lowest")
_COEFFICIENT_KINDS = {"convection_skew": _VEC, "ohm_cross": _LINEAR, "lorentz_cross": _LINEAR}
# forms that act on the velocity space as one scalar P2 block on each
# component: their local matrices are that (nc, 10, 10) block, and the
# couplings between components are zero and not stored
_PER_COMPONENT = ("grad_grad", "vec_mass", "convection_skew")


def _check_form(form_id, trial, test, coefficient):
    if form_id not in FORM_TABLE:
        raise FormError(f"unknown form {form_id!r}")
    trial_kinds, test_kinds = FORM_TABLE[form_id]
    if trial.kind not in trial_kinds:
        raise FormError(f"form {form_id!r} does not accept trial space {trial.kind!r}")
    if test.kind not in test_kinds:
        raise FormError(f"form {form_id!r} does not accept test space {test.kind!r}")
    if form_id in ("vec_mass", "scalar_mass") and trial.kind != test.kind:
        raise FormError(
            f"form {form_id!r} pairs a space with itself, not {trial.kind!r} with {test.kind!r}"
        )
    if trial.mesh is not test.mesh:
        raise FormError("trial and test spaces live on different meshes")
    if form_id in _COEFFICIENT_KINDS:
        if coefficient is None:
            raise FormError(f"form {form_id!r} needs a frozen coefficient field")
        if coefficient.space.kind not in _COEFFICIENT_KINDS[form_id]:
            raise FormError(
                f"form {form_id!r} does not accept a coefficient in {coefficient.space.kind!r}"
            )
        if coefficient.space.mesh is not trial.mesh:
            raise FormError("the coefficient lives on another mesh than the spaces")


def assemble_bilinear(
    form_id: str,
    trial: FeSpace,
    test: FeSpace,
    *,
    coefficient: FieldFunction | None = None,
) -> sp.csr_matrix:
    """Assemble a bilinear form into a CSR matrix over free dofs.

    Matrix layout: rows are test-space free dofs, columns trial-space
    free dofs.  ``coefficient`` is the frozen field of the Picard
    linearization (advecting velocity or previous magnetic iterate).
    """
    _check_form(form_id, trial, test, coefficient)
    mesh = trial.mesh
    local = _local_matrices(form_id, trial, test, coefficient, mesh)
    local = local * np.abs(mesh.det_jacobians)[:, None, None]  # moments on the reference cell
    per_component = form_id in _PER_COMPONENT and trial.kind == "lagrange_p2_vector"
    return _scatter(local, trial, test, per_component=per_component)


def assemble_linear(space: FeSpace, func, *, quad_degree: int = 6) -> np.ndarray:
    """Assemble a load vector over free dofs for an analytic source.

    ``func`` maps physical points (N, 3) to (N,) scalars or (N, 3)
    vectors, matching the space kind; values of another shape are refused.
    Its values at the rule's points of every cell are weighted by
    w_q |det J_c| and integrated against the basis.
    """
    rule = quadrature_rule(quad_degree)
    xq = derham.physical_points(space.mesh, rule.points)
    (nc, nq), shape = xq.shape[:2], space.value_shape
    vals = np.asarray(func(xq.reshape(-1, 3)), dtype=float)
    if vals.shape != (nc * nq,) + shape:
        raise FormError(f"source values have shape {vals.shape}, expected {(nc * nq,) + shape}")
    weights = quadrature_weights(space.mesh, rule).reshape((nc, nq) + (1,) * len(shape))
    fw = vals.reshape((nc, nq) + shape) * weights
    return scatter_load(space, derham.integrate_against_basis(space, fw, rule.points))


def scatter_load(space: FeSpace, local: np.ndarray) -> np.ndarray:
    """Sum local load vectors (nc, nloc) into the global dofs of a
    space, restricted to its free dofs."""
    vec = np.bincount(space.dofmap.ravel(), weights=local.ravel(), minlength=space.ndof)
    return vec[space.free]


def domain_integral_vector(space: FeSpace) -> np.ndarray:
    """Integrals of the basis functions over the domain (free dofs);
    the border row that realizes a zero-mean constraint."""
    return assemble_linear(space, lambda x: np.ones(len(x)), quad_degree=2)


# ----------------------------------------------------------------------
# local element matrices


def _pair(S, T):
    """sum_kl int(lambda_k lambda_l) S[c, a, k] . T[c, b, l], (nc, na, nb):
    the mass of two linear bases with barycentric tables (nc, n, 4, d)."""
    d = S.shape[-1]
    TM = T.reshape(-1, 4 * d) @ np.kron(lambda_moments(2), np.eye(d))
    return S.reshape(len(S), -1, 4 * d) @ TM.reshape(len(T), -1, 4 * d).transpose(0, 2, 1)


def _local_matrices(form_id, trial, test, coefficient, mesh):
    nc = mesh.num_cells
    if form_id == "grad_grad":
        G = derham.p2_gradient_table(mesh)
        return _pair(G, G)
    if form_id in ("vec_mass", "scalar_mass"):
        if trial.kind == "lagrange_p2_vector":
            k = reference_moments().sum(axis=(2, 3))  # the block of each component
        else:
            k = _pair(derham.basis_table(trial), derham.basis_table(trial))
        return np.broadcast_to(k, (nc,) + k.shape[-2:])  # P2 and scalar kinds: one block, read-only
    if form_id == "curl_mass_pairing":
        # the curls are constant: int RT_f . curl N_e = sum_k int(lambda_k) T[c, f, k] . curl N_e
        means = np.einsum("k,cfkd->cdf", lambda_moments(1), derham.face_table(mesh))
        return derham.nedelec_curls(mesh) @ means  # rows edge-test, cols face-trial
    if form_id == "div_scalar":
        divs = derham.rt_divergences(mesh)  # constant per cell
        return (divs / 6.0)[:, None, :]  # (nc, 1, 4), the reference volume 1/6
    if form_id == "div_pressure":
        # q_a = lambda_a: int q_a d_j phi_b = sum_k int(lambda_a lambda_k) G[c, b, k, j]
        G = derham.p2_gradient_table(mesh).transpose(0, 2, 1, 3).reshape(nc, 4, 30)
        return lambda_moments(2) @ G  # test a, trial 3 b + j
    if form_id == "convection_skew":
        # w = sum_m phi_m W_m and grad phi_b = sum_k lambda_k G_bk, so
        # (w . grad phi_b, phi_a) = sum_mk R[a, m, k] (W_m . G_bk)
        W = derham.evaluate_on_cells(coefficient, derham.P2_NODES)  # [c, m, d]
        G = derham.p2_gradient_table(mesh)  # [c, b, k, d]
        Q = G.reshape(nc, 40, 3) @ W.transpose(0, 2, 1)  # [c, bk, m]
        R = reference_moments().sum(axis=3).transpose(0, 2, 1)  # [a, k, m]
        a = (Q.reshape(-1, 40) @ R.reshape(10, 40).T).reshape(nc, 10, 10)  # [c, b, a]
        return 0.5 * (np.transpose(a, (0, 2, 1)) - a)
    if form_id == "divdiv":
        divs = derham.rt_divergences(mesh)
        return np.einsum("ca,cb->cab", divs, divs) / 6.0
    # B = sum_k lambda_k X_k and N_e = sum_l lambda_l T_el on each cell
    if form_id == "ohm_cross":
        # (phi_a e_i x B) . N_e = phi_a (B x N_e)_i = sum_kl phi_a lambda_k lambda_l (X_k x T_el)_i
        X = derham.evaluate_on_cells(coefficient, derham.REFERENCE_VERTICES)
        T = derham.edge_table(mesh)  # [c, e, l, d]; FORM_TABLE fixes the test kind
        X, T = X[:, None, :, None, :], T[:, :, None, :, :]  # [c, e, k, l, d]
        P = np.empty((mesh.num_cells, 6, 3, 4, 4))  # [c, e, i, k, l]
        for i in range(3):
            j, k = (i + 1) % 3, (i + 2) % 3
            P[:, :, i] = X[..., j] * T[..., k] - X[..., k] * T[..., j]
        m = reference_moments().sum(axis=1)  # [a, k, l]
        ohm = (P.reshape(-1, 16) @ m.reshape(10, 16).T).reshape(-1, 6, 3, 10)
        return ohm.transpose(0, 1, 3, 2).reshape(-1, 6, 30)  # rows edge-test, cols u-trial
    if form_id == "lorentz_cross":
        # (phi_a e_i x B) . (phi_b e_j x B) = phi_a phi_b (|B|^2 delta_ij - B_i B_j)
        #   = sum_kl phi_a phi_b lambda_k lambda_l ((X_k . X_l) delta_ij - X_ki X_lj)
        X = derham.evaluate_on_cells(coefficient, derham.REFERENCE_VERTICES)
        Xt = X.transpose(0, 2, 1)  # [c, i, k]
        C = -Xt[:, :, None, :, None] * Xt[:, None, :, None, :]  # [c, i, j, k, l]
        C[:, range(3), range(3)] += (X @ Xt)[:, None]
        M = reference_moments()
        lor = (C.reshape(-1, 16) @ M.reshape(100, 16).T).reshape(-1, 3, 3, 10, 10)
        return lor.transpose(0, 3, 1, 4, 2).reshape(-1, 30, 30)
    raise FormError(f"unknown form {form_id!r}")


@dataclass(frozen=True)
class ScatterPlan:
    """Where the kept local entries of a space pair go in its free-dof
    CSR matrix: ``data[slot[i]] += local.ravel()[src[i]]``."""

    src: np.ndarray
    slot: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    shape: tuple

    @property
    def nbytes(self) -> int:
        return sum(a.nbytes for a in (self.src, self.slot, self.indptr, self.indices))


def _scatter(local, trial, test, *, per_component=False):
    """Scatter local matrices (nc, n_test, n_trial) into a CSR matrix
    over free dofs, eliminating essential constraints symmetrically: the
    pattern of ``coo_matrix(...).tocsr()`` restricted to the free dofs,
    and its values to rounding.  ``per_component`` takes the scalar
    (nc, 10, 10) block of a velocity form and stores only the entries
    between dofs of the same component (dof 3 node + c)."""
    plan = _scatter_plan(trial, test, per_component)
    data = np.bincount(plan.slot, weights=local.ravel()[plan.src], minlength=len(plan.indices))
    # each matrix owns its index arrays: an in-place edit of one (such as
    # eliminate_zeros) must not reach the cached plan; and np.bincount of
    # no entries gives an integer array, hence dtype=float
    indices, indptr = plan.indices.copy(), plan.indptr.copy()
    return sp.csr_matrix((data, indices, indptr), shape=plan.shape, dtype=float)


def _scatter_plan(trial, test, per_component) -> ScatterPlan:
    """The cached scatter plan of a space pair on its mesh."""
    key = ("scatter_plan", test.kind, test.bc, trial.kind, trial.bc, per_component)
    return trial.mesh.cached(key, lambda: _build_scatter_plan(trial, test, per_component))


def _build_scatter_plan(trial, test, per_component) -> ScatterPlan:
    """Give each kept local entry the slot of its free-dof key
    ``row * ncols + col`` among the sorted unique keys.  The (cell, test
    dof) pairs are sorted by row and cut into blocks of about
    ``_PLAN_BLOCK`` entries on row starts, so no row spans two blocks and
    the unique keys of the blocks, one after the other, are the pattern."""
    (nc, nt), nr = test.dofmap.shape, trial.nloc
    idx = np.int32 if nc * nt * nr < 2**31 else np.int64
    # per test dof: the local trial dofs it couples to, and their
    # positions in the (nc, ...) local array the plan gathers from
    a, b = np.arange(nt)[:, None], np.arange(nr // 3 if per_component else nr)
    if per_component:
        cols_local, table, stride = 3 * b + a % 3, a // 3 * b.size + b, nt * nr // 9
    else:
        cols_local, table, stride = np.tile(b, (nt, 1)), a * nr + b, nt * nr
    trial_pos, test_pos = np.full(trial.ndof, -1), np.full(test.ndof, -1)
    trial_pos[trial.free] = np.arange(trial.num_free)
    test_pos[test.free] = np.arange(test.num_free)
    pair_row = test_pos[test.dofmap.ravel()]
    # constrained rows (-1) sort first
    pairs = np.argsort(pair_row, kind="stable")[np.count_nonzero(pair_row < 0) :]
    nrows, ncols = test.num_free, trial.num_free
    rptr = np.concatenate([[0], np.cumsum(np.bincount(pair_row[pairs], minlength=nrows))])
    srcs, slots, counts, cols = ([np.zeros(0, dtype=idx)] for _ in range(4))
    nnz = 0
    edges = np.arange(0, rptr[-1], max(1, _PLAN_BLOCK // b.size))
    edges = np.unique(np.append(np.searchsorted(rptr, edges, side="right") - 1, nrows))
    for r0, r1 in zip(edges[:-1], edges[1:]):
        p = pairs[rptr[r0] : rptr[r1]]
        cell, test_dof = np.divmod(p, nt)
        col = trial_pos[trial.dofmap[cell[:, None], cols_local[test_dof]]]
        keep = col >= 0
        keys, slot = np.unique((pair_row[p][:, None] * ncols + col)[keep], return_inverse=True)
        srcs.append(((cell * stride)[:, None] + table[test_dof])[keep].astype(idx))
        slots.append((slot + nnz).astype(idx))
        counts.append(np.bincount(keys // ncols - r0, minlength=r1 - r0).astype(idx))
        cols.append((keys % ncols).astype(idx))
        nnz += len(keys)
    plan = ScatterPlan(
        src=np.concatenate(srcs),
        slot=np.concatenate(slots),
        indptr=np.concatenate([[0], np.cumsum(np.concatenate(counts))]).astype(idx),
        indices=np.concatenate(cols),
        shape=(nrows, ncols),
    )
    _log.debug(
        "scatter plan %s/%s x %s/%s%s on %d cells: %d local entries into %d stored, %.2f MB",
        test.kind, test.bc, trial.kind, trial.bc, " per component" if per_component else "",
        nc, len(plan.src), nnz, plan.nbytes / 1e6,
    )
    return plan


def quadrature_weights(mesh, rule: QuadratureRule) -> np.ndarray:
    """Combined quadrature-by-cell weights w_q |det J_c|, (nc, nq)."""
    return rule.weights[None, :] * np.abs(mesh.det_jacobians)[:, None]
