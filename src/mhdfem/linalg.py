"""Sparse linear algebra for the coupled saddle systems.

CSR storage, the direct factorization and the Krylov iteration are
delegated to scipy (``scipy.sparse`` / SuperLU / GMRES); this module
owns the contracts around them.  `Factorization` is the one place a
matrix is factored: it reports singularity with the pivot index, and
every solve, with the matrix, with its transpose, or with a nearby
matrix by GMRES preconditioned with the LU, either meets a hard
relative-residual bound after iterative refinement, or raises.  Around
it lives ``flatten``, which turns a map (test, trial) -> block over a
list of unknowns into one matrix; a zero-mean constraint is one more
unknown with its border row and column.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# largest matrix whose failed factorization is densified to locate the
# vanishing pivot
PIVOT_SEARCH_SIZE = 2000
# relative residual every solve must reach (the per-iterate bounds of
# div B, r and curl E rest on it); every check reads
# ``not resid <= RESIDUAL_TOL``, so that a NaN residual fails it
RESIDUAL_TOL = 1e-10
# refinement stops once the componentwise (Oettli-Prager) backward
# error reaches this many units of roundoff, or stops halving
BACKWARD_ULPS = 4
# GMRES with a nearby matrix: the relative residual each Krylov solve
# aims at, and its iteration budget (one cycle, no restart)
GMRES_RTOL = 1e-12
GMRES_MAXIT = 50


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
    if A.shape[0] > PIVOT_SEARCH_SIZE:
        return None
    import scipy.linalg as la

    _, _, u = la.lu(A.toarray())
    d = np.abs(np.diag(u))
    bad = np.flatnonzero(d <= 1e-14 * max(d.max(), 1.0))
    return int(bad[0]) if len(bad) else None


class Factorization:
    """One sparse LU of a square matrix; every solve against it meets
    the residual contract.

    Factoring reports singularity with the pivot index.  A solve is with
    A, with its transpose (from the same LU), or, when a matrix of the
    same shape near A is passed, with that matrix by GMRES preconditioned
    with the LU.  The first solve is then refined, with the same solver,
    until the componentwise backward error max_i |r_i| / (|A| |x| + |b|)_i
    reaches ``BACKWARD_ULPS`` units of roundoff or stops halving.  The
    result must reach a relative residual of ``RESIDUAL_TOL``, and so must
    each GMRES solve within ``GMRES_MAXIT`` iterations (it aims at
    ``GMRES_RTOL``); otherwise the solve raises a LinAlgError that names
    the residual.  After each solve, ``iterations`` holds its GMRES
    iterations (0 on the LU alone) and ``sweeps`` its refinement sweeps.
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
        self.iterations = 0
        self.sweeps = 0

    def solve(
        self, b: np.ndarray, *, trans: bool = False, A: sp.spmatrix | None = None
    ) -> np.ndarray:
        """x with A x = b, or A^T x = b when ``trans`` is set; with ``A``
        given, x with that matrix by preconditioned GMRES."""
        b = np.asarray(b, dtype=float)
        if self.A.shape[0] != len(b):
            raise LinAlgError(f"shape mismatch: A is {self.A.shape}, b has {len(b)}")
        if A is None:
            A = self.A.T if trans else self.A
            mode = "T" if trans else "N"

            def inner(r):
                return self._lu.solve(r, trans=mode)

        else:
            if trans or A.shape != self.A.shape:
                raise LinAlgError(f"GMRES needs A of shape {self.A.shape}, not transposed")
            A = A.tocsr()

            def inner(r):
                return self._gmres(A, r)

        self.iterations = self.sweeps = 0
        bnorm = np.linalg.norm(b)
        if bnorm == 0.0:
            return np.zeros_like(b)
        x = inner(b)
        absA, absb = abs(A), np.abs(b)
        # refine on the componentwise backward error: a normwise stop
        # leaves blocks far smaller than the rest (E and B when g = 0)
        # inaccurate, and identity checks downstream read those digits
        tol = BACKWARD_ULPS * np.finfo(float).eps
        last = np.inf
        for _ in range(3):
            r = b - A @ x
            # a row with zero scale |A| |x| + |b| has r_i = 0 exactly
            scale = absA @ np.abs(x) + absb
            omega = np.max(np.abs(r) / np.where(scale > 0, scale, 1.0), initial=0.0)
            if omega <= tol or omega >= 0.5 * last:
                break
            last = omega
            x = x + inner(r)
            self.sweeps += 1
        resid = np.linalg.norm(b - A @ x) / bnorm
        if not resid <= RESIDUAL_TOL:
            raise LinAlgError(
                f"sparse solve residual {resid:.3e} exceeds {RESIDUAL_TOL:.1e}"
            )
        return x

    def _gmres(self, A: sp.csr_matrix, b: np.ndarray) -> np.ndarray:
        """One GMRES cycle on A x = b, left-preconditioned with the LU."""
        M = spla.LinearOperator(A.shape, matvec=self._lu.solve, dtype=float)
        steps = []
        x, _ = spla.gmres(
            A,
            b,
            M=M,
            rtol=GMRES_RTOL,
            atol=0.0,
            restart=GMRES_MAXIT,
            maxiter=1,
            callback=steps.append,
            callback_type="pr_norm",
        )
        self.iterations += len(steps)
        # GMRES_RTOL is the aim; only a miss of the contract is a failure
        resid = np.linalg.norm(b - A @ x) / np.linalg.norm(b)
        if not resid <= RESIDUAL_TOL:
            raise LinAlgError(
                f"GMRES residual {resid:.3e} exceeds {RESIDUAL_TOL:.1e} "
                f"after {len(steps)} iterations"
            )
        return x


def flatten(names: tuple, blocks: dict, rhs: dict) -> tuple:
    """One CSR matrix and right-hand side of a block system over the
    unknowns ``names``.

    ``blocks`` maps (test, trial) to a sparse block and ``rhs`` maps an
    unknown to its load vector; absent blocks and loads are zero.  A
    zero-mean constraint ``w . x_f = 0`` on unknown f is one more unknown
    m, with w as the 1 x n_f block (m, f), its transpose as (f, m) and no
    (m, m) block.  Returns (A, b, offsets); ``np.split(x, offsets)``
    splits a solution into its blocks.
    """
    grid = [[blocks.get((t, f)) for f in names] for t in names]
    sizes = []
    for t, row in zip(names, grid):
        shapes = [m.shape[0] for m in row if m is not None]
        if not shapes:
            raise LinAlgError(f"block row {t!r} is empty")
        sizes.append(shapes[0])
    try:
        A = sp.bmat(grid, format="csr")
    except ValueError as exc:
        raise LinAlgError(f"blocks do not fit: {exc}") from exc
    parts = []
    for t, n in zip(names, sizes):
        vec = rhs.get(t)
        part = np.zeros(n) if vec is None else np.asarray(vec, dtype=float)
        if part.shape != (n,):
            raise LinAlgError(f"right-hand side of shape {part.shape} for block row {t!r} of {n}")
        parts.append(part)
    return A, np.concatenate(parts), np.cumsum(sizes)[:-1]
