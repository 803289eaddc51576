"""Sparse linear algebra for the coupled saddle systems.

CSR storage, the direct factorizations and the Krylov iteration are
delegated to scipy (``scipy.sparse`` / SuperLU / LAPACK / GMRES); this
module owns the contracts around them.  `Factorization` is the one place
a matrix is factored, by one sparse LU or, for a matrix whose leading
block is a scaled scalar block on interleaved components, by exact block
elimination on that block's LU (``Factorization.by_blocks``).  Either
way it reports singularity with the pivot index, and every solve, with
the matrix, with its transpose, or with a nearby matrix by GMRES
preconditioned with the factorization, either meets a hard
relative-residual bound after iterative refinement, or raises.  Around
it lives ``flatten``, which turns a map (test, trial) -> block over a
list of unknowns into one matrix; a zero-mean constraint is one more
unknown with its border row and column.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as la
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
# block elimination: the most entries of the dense block A11^-1 A12 that
# are held at once while its Schur complement is formed
SCHUR_CHUNK_ENTRIES = 1 << 21


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
    _, _, u = la.lu(A.toarray())
    bad = np.flatnonzero(_vanishing(np.diag(u)))
    return int(bad[0]) if len(bad) else None


def _vanishing(pivots: np.ndarray) -> np.ndarray:
    """Mask of the pivots that vanish relative to the largest one."""
    d = np.abs(pivots)
    return d <= 1e-14 * max(d.max(initial=0.0), 1.0)


def _backward_error(absA, b: np.ndarray, x: np.ndarray, r: np.ndarray) -> np.ndarray:
    """The componentwise backward error max_i |r_i| / (|A| |x| + |b|)_i
    of each column of x, with r = b - A x."""
    scale = absA @ np.abs(x)
    scale += np.abs(b)
    # a row with zero scale |A| |x| + |b| has r_i = 0 exactly
    scale[~(scale > 0)] = 1.0
    return np.max(np.divide(np.abs(r), scale, out=scale), axis=0, initial=0.0)


def _square(A: sp.spmatrix) -> sp.csr_matrix:
    """A as CSR, which must be square."""
    A = A.tocsr()
    if A.shape[0] != A.shape[1]:
        raise LinAlgError(f"shape mismatch: A is {A.shape}, not square")
    return A


class Factorization:
    """One factorization of a square matrix, a sparse LU or an exact
    block elimination (``by_blocks``); every solve against it meets the
    residual contract.

    Factoring reports singularity with the pivot index.  A solve is with
    A, with its transpose (from the same factors), or, when a matrix of
    the same shape near A is passed, with that matrix by GMRES
    preconditioned with the factors.  The first solve is then refined,
    with the same solver, until the componentwise backward error
    max_i |r_i| / (|A| |x| + |b|)_i
    reaches ``BACKWARD_ULPS`` units of roundoff or stops halving.  The
    result must reach a relative residual of ``RESIDUAL_TOL``, and so must
    each GMRES solve within ``GMRES_MAXIT`` iterations (it aims at
    ``GMRES_RTOL``); otherwise the solve raises a LinAlgError that names
    the residual.  After each solve, ``iterations`` holds its GMRES
    iterations (0 on the LU alone) and ``sweeps`` its refinement sweeps.
    """

    def __init__(self, A: sp.spmatrix):
        self.A = _square(A)
        try:
            self._lu = spla.splu(self.A.tocsc())
        except RuntimeError as exc:
            pivot = _locate_pivot(self.A)
            raise SingularMatrixError(f"sparse factorization failed: {exc}", pivot)
        udiag = self._lu.U.diagonal()
        if np.any(_vanishing(udiag)):
            raise SingularMatrixError(
                "matrix is numerically singular", int(np.argmin(np.abs(udiag)))
            )
        self.iterations = 0
        self.sweeps = 0

    @classmethod
    def by_blocks(
        cls, A: sp.spmatrix, lead: Factorization, copies: int, scale: float
    ) -> Factorization:
        """Exact block elimination of A = [[A11, A12], [A21, A22]] whose
        leading block is ``scale`` times the matrix k of ``lead`` on each
        of ``copies`` interleaved components, A11 = scale (k kron I): row
        ``copies * i + c`` is row i of k on component c.

        A11 is solved on the LU of k with one column per component, and
        the trailing block by one dense LU of its Schur complement
        A22 - A21 A11^-1 A12.  A singular Schur complement raises with
        its pivot index in A, at least the size of A11.  k and its LU
        are shared, not copied.  The factors are exact only when A11 is
        ``scale (k kron I)``; the residual contract of every solve
        catches a mismatch.
        """
        self = cls.__new__(cls)
        self.A = _square(A)
        self._lu = _BlockElimination(self.A, lead, copies, scale)
        self.iterations = 0
        self.sweeps = 0
        return self

    def solve(
        self, b: np.ndarray, *, trans: bool = False, A: sp.spmatrix | None = None
    ) -> np.ndarray:
        """x with A x = b, or A^T x = b when ``trans`` is set; with ``A``
        given, x with that matrix by preconditioned GMRES.

        Without ``A``, b may be an (n, m) block of right-hand sides: each
        column is refined, and checked against the contract, on its own,
        and a zero column gives a zero column."""
        b = np.asarray(b, dtype=float)
        if b.ndim not in (1, 2) or self.A.shape[0] != len(b):
            raise LinAlgError(f"shape mismatch: A is {self.A.shape}, b is {b.shape}")
        if A is None:
            A = self.A.T if trans else self.A
            mode = "T" if trans else "N"

            def inner(r):
                return self._lu.solve(r, trans=mode)

        else:
            if trans or A.shape != self.A.shape:
                raise LinAlgError(f"GMRES needs A of shape {self.A.shape}, not transposed")
            if b.ndim != 1:
                raise LinAlgError(f"GMRES takes one right-hand side, not a block of {b.shape}")
            A = A.tocsr()

            def inner(r):
                return self._gmres(A, r[:, 0])[:, None]

        self.iterations = self.sweeps = 0
        B = b.reshape(len(b), -1)
        bnorm = np.linalg.norm(B, axis=0)
        if not bnorm.any():
            return np.zeros_like(b)
        x = inner(B)
        absA = abs(A)
        # refine on the componentwise backward error: a normwise stop
        # leaves blocks far smaller than the rest (E and B when g = 0)
        # inaccurate, and identity checks downstream read those digits.
        # Each column stops on its own; a zero column stops at once.
        tol = BACKWARD_ULPS * np.finfo(float).eps
        last = np.full(B.shape[1], np.inf)
        todo = np.ones(B.shape[1], dtype=bool)
        for _ in range(3):
            r = B - A @ x
            omega = _backward_error(absA, B, x, r)
            todo &= ~((omega <= tol) | (omega >= 0.5 * last))
            if not todo.any():
                break
            last[todo] = omega[todo]
            x[:, todo] += inner(r[:, todo])
            self.sweeps += 1
        resid = np.linalg.norm(B - A @ x, axis=0) / np.where(bnorm > 0, bnorm, 1.0)
        missed = np.flatnonzero(~(resid <= RESIDUAL_TOL))
        if len(missed):
            j = missed[0]
            where = f" in column {j}" if b.ndim == 2 else ""
            raise LinAlgError(
                f"sparse solve residual {resid[j]:.3e}{where} exceeds {RESIDUAL_TOL:.1e}"
            )
        return x.reshape(b.shape)

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


class _BlockElimination:
    """The factors of ``Factorization.by_blocks``, with the solve of a
    SuperLU object: x with A x = b, or A^T x = b for ``trans="T"``."""

    def __init__(self, A: sp.csr_matrix, lead: Factorization, copies: int, scale: float):
        self._k, self._copies, self._scale = lead._lu, copies, scale
        n = copies * lead.A.shape[0]
        if n >= A.shape[0]:
            raise LinAlgError(f"leading block of {n} leaves no trailing block of {A.shape}")
        self._n = n
        self._A12 = A[:n, n:].tocsc()
        self._A21 = A[n:, :n].tocsr()
        schur = self._schur_complement(A[n:, n:])
        # getrf, not lu_factor, so that an exactly zero pivot is reported
        # here, with its index, and not as a warning
        (getrf,) = la.get_lapack_funcs(("getrf",), (schur,))
        lu, piv, _ = getrf(schur, overwrite_a=True)
        bad = np.flatnonzero(_vanishing(np.diag(lu)))
        if len(bad):
            raise SingularMatrixError(
                "Schur complement of the leading block is numerically singular",
                n + int(bad[0]),
            )
        self._schur = lu, piv

    def _schur_complement(self, A22: sp.csr_matrix) -> np.ndarray:
        """A22 - A21 A11^-1 A12, dense, with A11^-1 A12 formed on the
        nonzero columns of A12 only, a few at a time."""
        schur = A22.toarray(order="F")
        cols = np.flatnonzero(np.diff(self._A12.indptr))
        step = max(1, SCHUR_CHUNK_ENTRIES // max(self._n, 1))
        for start in range(0, len(cols), step):
            chunk = cols[start : start + step]
            schur[:, chunk] -= self._A21 @ self._lead_solve(self._A12[:, chunk].toarray(), "N")
        return schur

    def _lead_solve(self, B: np.ndarray, trans: str) -> np.ndarray:
        """A11^-1 B (or A11^-T B) for a block B of rows in A11's order:
        each component is one set of columns of one solve with k."""
        m = B.shape[1]
        nk = B.shape[0] // self._copies
        # rows (i, c) -> row i, column (c, j)
        X = self._k.solve(B.reshape(nk, self._copies * m), trans=trans)
        return X.reshape(B.shape) / self._scale

    def solve(self, b: np.ndarray, trans: str = "N") -> np.ndarray:
        """x of the shape of b, (n,) or a block (n, m)."""
        B = b.reshape(len(b), -1)
        n = self._n
        if trans == "N":
            upper, lower = self._A12, self._A21
        else:
            upper, lower = self._A21.T, self._A12.T
        y = self._lead_solve(B[:n], trans)
        x2 = la.lu_solve(
            self._schur, B[n:] - lower @ y, trans=int(trans != "N"), check_finite=False
        )
        x1 = y - self._lead_solve(upper @ x2, trans)
        return np.concatenate([x1, x2]).reshape(b.shape)


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
