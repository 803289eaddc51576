"""Sparse linear algebra for the coupled saddle systems.

CSR storage and the direct factorization are delegated to scipy
(``scipy.sparse`` / SuperLU); this module owns the contracts around
them.  `Factorization` is the one place a matrix is factored: it
reports singularity with the pivot index, and every solve with the
matrix or its transpose meets a hard relative-residual bound (after
iterative refinement and, for small systems, a dense fallback).  Around
it live the block-system flattening with its fixed unknown order,
bordered zero-mean constraint rows, and an inverse-power proxy for the
smallest (norm-weighted) singular value.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

DENSE_FALLBACK_SIZE = 2000
# relative residual every solve must reach (the per-iterate bounds of
# div B, r and curl E rest on it)
RESIDUAL_TOL = 1e-10
# inverse power iteration of smallest_singular_value
POWER_MAXIT = 500
POWER_TOL = 1e-8
POWER_SEED = 0


class LinAlgError(Exception):
    """Raised when a linear-algebra contract is violated."""


class SingularMatrixError(LinAlgError):
    """Raised for structurally or numerically singular matrices."""

    def __init__(self, message: str, pivot: int | None = None):
        if pivot is not None:
            message = f"{message} (pivot index {pivot})"
        super().__init__(message)
        self.pivot = pivot


def _locate_pivot(A) -> int | None:
    """Identify the first vanishing pivot via dense LU (small systems)."""
    if A.shape[0] > DENSE_FALLBACK_SIZE:
        return None
    import scipy.linalg as la

    _, _, u = la.lu(A.toarray())
    d = np.abs(np.diag(u))
    bad = np.flatnonzero(d <= 1e-14 * max(d.max(), 1.0))
    return int(bad[0]) if len(bad) else None


class Factorization:
    """One sparse LU of a square matrix; every solve against it meets
    the residual contract.

    Factoring reports singularity with the pivot index.  Every solve,
    with A or with its transpose (from the same LU), refines iteratively
    and must reach a relative residual of ``RESIDUAL_TOL``; systems of
    at most ``DENSE_FALLBACK_SIZE`` unknowns fall back to a dense solve
    before a LinAlgError is raised.
    """

    def __init__(self, A: sp.spmatrix):
        self.A = A.tocsr()
        if self.A.shape[0] != self.A.shape[1]:
            raise LinAlgError(f"shape mismatch: A is {self.A.shape}, not square")
        try:
            self._lu = spla.splu(self.A.tocsc())
        except RuntimeError as exc:
            pivot = _locate_pivot(self.A)
            raise SingularMatrixError(f"sparse factorization failed: {exc}", pivot)
        udiag = np.abs(self._lu.U.diagonal())
        if udiag.size and udiag.min() <= 1e-14 * max(udiag.max(), 1.0):
            raise SingularMatrixError(
                "matrix is numerically singular", int(np.argmin(udiag))
            )

    def solve(self, b: np.ndarray, *, trans: bool = False) -> np.ndarray:
        """x with A x = b, or A^T x = b when ``trans`` is set."""
        b = np.asarray(b, dtype=float)
        if self.A.shape[0] != len(b):
            raise LinAlgError(f"shape mismatch: A is {self.A.shape}, b has {len(b)}")
        bnorm = np.linalg.norm(b)
        if bnorm == 0.0:
            return np.zeros_like(b)
        A = self.A.T if trans else self.A
        mode = "T" if trans else "N"
        x = self._lu.solve(b, trans=mode)
        # refine well past the contract: the extra triangular solves are
        # cheap next to the factorization and identity checks downstream
        # (curl-free, reduced-form residuals) benefit from the added digits
        target = 1e-4 * RESIDUAL_TOL * bnorm
        last = np.inf
        for _ in range(3):
            r = b - A @ x
            rnorm = np.linalg.norm(r)
            if rnorm <= target or rnorm >= 0.5 * last:
                break
            last = rnorm
            x = x + self._lu.solve(r, trans=mode)
        r = b - A @ x
        if np.linalg.norm(r) <= RESIDUAL_TOL * bnorm:
            return x
        if A.shape[0] <= DENSE_FALLBACK_SIZE:
            x = np.linalg.solve(A.toarray(), b)
            r = b - A @ x
            if np.linalg.norm(r) <= RESIDUAL_TOL * bnorm:
                return x
        raise LinAlgError(
            f"solve residual {np.linalg.norm(r) / bnorm:.3e} exceeds {RESIDUAL_TOL:.1e}"
        )


def solve_direct(A: sp.spmatrix, b: np.ndarray) -> np.ndarray:
    """One-off direct sparse solve under the residual contract."""
    return Factorization(A).solve(b)


@dataclass
class IndexMap:
    """Field name -> slice into the flattened unknown vector."""

    slices: dict
    border_slice: slice
    total: int


@dataclass
class BlockSystem:
    """A block linear system over named fields with optional borders.

    ``blocks`` maps (test_field, trial_field) to a sparse matrix over
    the free dofs of the two fields; missing keys mean zero blocks.
    ``borders`` lists (field, weight_vector) pairs: each adds a row
    ``w . x_field = 0`` and the transposed column in the field's own
    test rows (zero-mean constraint with its scalar multiplier).
    ``transpose_pairs`` declares ((t1, f1), (t2, f2), factor) relations
    block[t1, f1] == factor * block[t2, f2]^T checked by validate().
    """

    field_order: tuple
    sizes: dict
    blocks: dict
    rhs: dict
    borders: list = field(default_factory=list)
    transpose_pairs: list = field(default_factory=list)

    def validate(self):
        for key in self.blocks:
            t, f = key
            if t not in self.field_order or f not in self.field_order:
                raise LinAlgError(f"block {key} names an unknown field")
            m = self.blocks[key]
            if m.shape != (self.sizes[t], self.sizes[f]):
                raise LinAlgError(
                    f"block {key} has shape {m.shape}, expected "
                    f"({self.sizes[t]}, {self.sizes[f]})"
                )
        for name, w in self.borders:
            if len(w) != self.sizes[name]:
                raise LinAlgError(f"border for {name!r} has wrong length")
        for key1, key2, factor in self.transpose_pairs:
            d = self.blocks[key1] - factor * self.blocks[key2].T
            if d.nnz and np.abs(d.data).max() > 0.0:
                raise LinAlgError(
                    f"declared transpose relation {key1} = {factor} * {key2}^T "
                    f"violated by {np.abs(d.data).max():.3e}"
                )


def flatten(system: BlockSystem):
    """Assemble the block system into one CSR matrix and RHS vector.

    Unknown order is the declared field order followed by one multiplier
    per border.  Returns (A, b, IndexMap).
    """
    system.validate()
    order = system.field_order
    sizes = [system.sizes[f] for f in order]
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    n = int(offsets[-1])
    slices = {f: slice(int(offsets[i]), int(offsets[i + 1])) for i, f in enumerate(order)}

    grid = [[system.blocks.get((t, f)) for f in order] for t in order]
    for i, f in enumerate(order):
        if all(grid[i][j] is None for j in range(len(order))) or all(
            grid[j][i] is None for j in range(len(order))
        ):
            # bmat needs at least a diagonal placeholder to size empty rows
            if grid[i][i] is None:
                grid[i][i] = sp.csr_matrix((system.sizes[f], system.sizes[f]))
    A = sp.bmat(grid, format="csr")

    nb = len(system.borders)
    if nb:
        cols = sp.lil_matrix((n, nb))
        for k, (name, w) in enumerate(system.borders):
            cols[slices[name], k] = np.asarray(w, dtype=float)[:, None]
        cols = cols.tocsr()
        A = sp.bmat(
            [[A, cols], [cols.T, None]],
            format="csr",
        )
    b = np.zeros(n + nb)
    for name, vec in system.rhs.items():
        b[slices[name]] = vec
    return A, b, IndexMap(slices=slices, border_slice=slice(n, n + nb), total=n + nb)


def unflatten(x: np.ndarray, index_map: IndexMap) -> dict:
    """Split a flattened solution vector back into per-field vectors.

    Border multipliers are returned under the key ``"_borders"``.
    """
    out = {name: x[s].copy() for name, s in index_map.slices.items()}
    out["_borders"] = x[index_map.border_slice].copy()
    return out


def smallest_singular_value(
    A: sp.spmatrix,
    *,
    w_test: sp.spmatrix | None = None,
    w_trial: sp.spmatrix | None = None,
) -> float:
    """Smallest singular value of A, optionally weighted by SPD norm
    matrices on the test/trial sides, by inverse power iteration.

    With weights this is the discrete inf-sup/Babuska constant
    inf_x sup_y <y, A x> / (|y|_wt |x|_wtr): the numerical proxy for
    stability of the linearized saddle systems.  Raises LinAlgError if
    the iteration has not converged after ``POWER_MAXIT`` steps.
    """
    lu = Factorization(A)
    z = np.random.default_rng(POWER_SEED).standard_normal(lu.A.shape[0])

    def wt(v):
        return v if w_test is None else w_test @ v

    def wtr(v):
        return v if w_trial is None else w_trial @ v

    mu_old = np.inf
    for _ in range(POWER_MAXIT):
        wz = wtr(z)
        z_next = lu.solve(wt(lu.solve(wz, trans=True)))
        mu = float(wz @ z_next) / float(wz @ z)
        norm = np.sqrt(float(wtr(z_next) @ z_next))
        z = z_next / norm
        if abs(mu - mu_old) <= POWER_TOL * abs(mu):
            break
        mu_old = mu
    else:
        raise LinAlgError(
            f"inverse power iteration did not converge in {POWER_MAXIT} steps"
        )
    if mu <= 0:
        raise LinAlgError("inverse power iteration lost positivity")
    return 1.0 / np.sqrt(mu)
