"""Sparse linear algebra for the coupled saddle systems.

CSR storage, the direct factorizations and the Krylov iteration are
delegated to scipy (``scipy.sparse`` / SuperLU / LAPACK / GMRES); this
module owns the contracts around them.  `Factorization` is the one place
a matrix is factored: by one sparse LU; for a symmetric positive
definite matrix by SuperLU in symmetric mode, P A P^T = L D L^T, which
also solves with L alone (``Factorization.spd``); or, for a symmetric
saddle matrix whose leading block is a scaled scalar block on
interleaved components, by exact block elimination on that block's
L D L^T (``Factorization.by_blocks``).  Each way reports singularity
with the pivot index, and every solve, with the matrix, with its
transpose, or with a nearby matrix by GMRES preconditioned with the
factorization, either meets a hard relative-residual bound after
iterative refinement, or raises.  Around it lives ``flatten``, which
turns a map (test, trial) -> block over a list of unknowns into one
matrix; a zero-mean constraint is one more unknown with its border row
and column.
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
# block elimination: the forward solves with L that form the Schur
# complement take this many right-hand sides at a time, into one dense
# block per component (wider blocks ran slower per column)
FORWARD_SOLVE_COLUMNS = 128
# SuperLU in symmetric mode: a fill-reducing ordering of A + A^T and
# every pivot on the diagonal, so that P A P^T = L U with U = D L^T
_SYMMETRIC = dict(diag_pivot_thresh=0.0, options=dict(SymmetricMode=True))


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


def _superlu(A: sp.spmatrix, **options):
    """SuperLU of A; a failed factorization raises with the pivot."""
    try:
        return spla.splu(A.tocsc(), **options)
    except RuntimeError as exc:
        raise SingularMatrixError(f"sparse factorization failed: {exc}", _locate_pivot(A))


def _square(A: sp.spmatrix) -> sp.csr_matrix:
    """A as CSR, which must be square."""
    A = A.tocsr()
    if A.shape[0] != A.shape[1]:
        raise LinAlgError(f"shape mismatch: A is {A.shape}, not square")
    return A


class Factorization:
    """One factorization of a square matrix, a sparse LU, the L D L^T of
    a symmetric positive definite matrix (``spd``) or an exact block
    elimination (``by_blocks``); every solve against it meets the
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

    # (P, d, solver of L) of an ``spd`` factorization P A P^T = L D L^T,
    # with P as the index array perm_c of SuperLU; None otherwise
    _ldl = None

    def __init__(self, A: sp.spmatrix):
        self.A = _square(A)
        self._lu = _superlu(self.A)
        udiag = self._lu.U.diagonal()
        if np.any(_vanishing(udiag)):
            raise SingularMatrixError(
                "matrix is numerically singular", int(np.argmin(np.abs(udiag)))
            )
        self.iterations = 0
        self.sweeps = 0

    @classmethod
    def spd(cls, A: sp.spmatrix) -> Factorization:
        """The L D L^T of a symmetric positive definite A, by SuperLU in
        symmetric mode: P A P^T = L U with every pivot on the diagonal,
        so that U = D L^T with D = diag(U).

        Solves run on the SuperLU factors, under the same contract as a
        plain LU.  The unit lower factor L gets a solver of its own, for
        the forward solves of a Schur complement (``by_blocks``).  A pivot
        taken off the diagonal raises a LinAlgError; a pivot that is not
        positive, or vanishes beside the largest, raises a
        SingularMatrixError with its row in A.
        """
        self = cls.__new__(cls)
        self.A = _square(A)
        self._lu = _superlu(self.A, permc_spec="MMD_AT_PLUS_A", **_SYMMETRIC)
        perm = self._lu.perm_c
        if not np.array_equal(self._lu.perm_r, perm):
            raise LinAlgError("a pivot left the diagonal: the matrix is not positive definite")
        d = self._lu.U.diagonal()
        bad = np.flatnonzero(~(d > 0) | _vanishing(d))
        if len(bad):
            raise SingularMatrixError(
                "matrix is not positive definite", int(np.flatnonzero(perm == bad[0])[0])
            )
        # L is triangular in its own order, so this LU is L times I
        L = _superlu(self._lu.L, permc_spec="NATURAL", **_SYMMETRIC)
        self._ldl = perm, d, L
        self.iterations = 0
        self.sweeps = 0
        return self

    @classmethod
    def by_blocks(
        cls, A: sp.spmatrix, lead: Factorization, copies: int, scale: float
    ) -> Factorization:
        """Exact block elimination of a symmetric-bordered
        A = [[A11, A12], [A12^T, A22]] whose leading block is ``scale``
        times the matrix k of the ``spd`` factorization ``lead`` on each
        of ``copies`` interleaved components, A11 = scale (k kron I): row
        ``copies * i + c`` is row i of k on component c.

        A11 is solved on the factors of k with one column per component,
        and the trailing block by one dense LU of its Schur complement
        A22 - A12^T A11^-1 A12.  With P k P^T = L D L^T that is
        A22 - sum_c W_c^T W_c / scale over the components c, with
        W_c = D^-1/2 L^-1 P A12_c and A12_c the rows of A12 on c: one
        forward solve per component, and one symmetric product.  A lead
        that is not ``spd``, or A21 != A12^T, raises a LinAlgError.  A
        singular Schur complement raises with its pivot index in A, at
        least the size of A11.  k and its factors are shared, not copied.
        The factors are exact only when A11 is ``scale (k kron I)``; the
        residual contract of every solve catches a mismatch.
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
        if lead._ldl is None:
            raise LinAlgError("block elimination needs the spd factorization of its lead")
        self._k, self._copies, self._scale = lead._lu, copies, scale
        n = copies * lead.A.shape[0]
        if n >= A.shape[0]:
            raise LinAlgError(f"leading block of {n} leaves no trailing block of {A.shape}")
        self._n = n
        self._A12 = A[:n, n:].tocsc()
        if (A[n:, :n] != self._A12.T).nnz:
            raise LinAlgError("the trailing row block is not the transpose of A12")
        schur = self._schur_complement(A[n:, n:], *lead._ldl)
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

    def _schur_complement(self, A22: sp.csr_matrix, perm, d, L) -> np.ndarray:
        """A22 - A12^T A11^-1 A12, dense, from P k P^T = L D L^T: the sum
        of W_c^T W_c / scale over the components, on the nonzero columns
        of A12 only."""
        schur = A22.toarray(order="F")
        cols = np.flatnonzero(np.diff(self._A12.indptr))
        nk = len(perm)
        # row i of k on component c is row copies * i + c of A12, and P
        # moves it to row perm[i]; each component is one block of rows
        source = np.empty_like(perm)
        source[perm] = np.arange(nk)
        rows = (self._copies * source + np.arange(self._copies)[:, None]).ravel()
        P_A12 = self._A12[:, cols].tocsr()[rows]
        W = np.empty((nk, len(cols)), order="F")
        gram = np.zeros((len(cols), len(cols)))
        for c in range(self._copies):
            block = P_A12[c * nk : (c + 1) * nk].tocsc()
            for j in range(0, len(cols), FORWARD_SOLVE_COLUMNS):
                part = slice(j, j + FORWARD_SOLVE_COLUMNS)
                W[:, part] = L.solve(block[:, part].toarray(order="F"))
            W /= np.sqrt(d)[:, None]
            # W^T W is one symmetric rank-k update (syrk)
            gram += W.T @ W
        schur[np.ix_(cols, cols)] -= gram / self._scale
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
        """x of the shape of b, (n,) or a block (n, m); A21 = A12^T, so
        both orientations eliminate with the same off-diagonal blocks."""
        B = b.reshape(len(b), -1)
        n = self._n
        y = self._lead_solve(B[:n], trans)
        x2 = la.lu_solve(
            self._schur, B[n:] - self._A12.T @ y, trans=int(trans != "N"), check_finite=False
        )
        x1 = y - self._lead_solve(self._A12 @ x2, trans)
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
