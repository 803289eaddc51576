"""Sparse solves, block flattening, borders and the inf-sup proxy."""

import ast
import logging
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import mhdfem
from mhdfem import linalg
from mhdfem.linalg import (
    Factorization,
    LinAlgError,
    SingularMatrixError,
    flatten,
)
from mhdfem.mesh import unit_cube_mesh
from mhdfem.mhd import MhdDriver, MhdError
from mhdfem.operators import BC_FAMILIES
from mhdfem.verify import builtin_case
import oracles
from oracles import smallest_singular_value

RNG = np.random.default_rng(23)


# ----------------------------------------------------------------------
# direct solve contract


def test_solve_identity():
    A = sp.identity(5, format="csr")
    b = np.arange(5.0)
    assert Factorization(A).solve(b) == pytest.approx(b, abs=1e-14)


def test_solve_indefinite_2x2():
    A = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    x = Factorization(A).solve(np.array([1.0, 2.0]))
    assert x == pytest.approx([2.0, 1.0], abs=1e-14)


def test_solve_spd_50_matches_dense_oracle():
    M = RNG.standard_normal((50, 50))
    A = sp.csr_matrix(M @ M.T + 50.0 * np.eye(50))
    b = RNG.standard_normal(50)
    x = Factorization(A).solve(b)
    assert np.linalg.norm(A @ x - b) <= 1e-10 * np.linalg.norm(b)
    assert x == pytest.approx(np.linalg.solve(A.toarray(), b), rel=1e-10, abs=1e-12)


def test_spd_factorization_solves_within_the_contract():
    A = _spd(50)
    lu = Factorization.spd(A)
    b = RNG.standard_normal((50, 3))
    for trans in (False, True):
        x = lu.solve(b, trans=trans)
        assert np.all(np.linalg.norm(A @ x - b, axis=0) <= 1e-10 * np.linalg.norm(b, axis=0))
        assert x == pytest.approx(np.linalg.solve(A.toarray(), b), rel=1e-10, abs=1e-12)
    # W = D^-1/2 L^-1 P B gives B^T A^-1 B = W^T W from one forward solve
    perm, d, L = lu._ldl
    PB = np.empty_like(b)
    PB[perm] = b
    W = L.solve(PB) / np.sqrt(d)[:, None]
    ref = b.T @ np.linalg.solve(A.toarray(), b)
    assert np.abs(W.T @ W - ref).max() <= 1e-13 * np.abs(ref).max()


def test_spd_factorization_refuses_an_indefinite_matrix_with_its_pivot():
    A = sp.csr_matrix(np.diag([2.0, 3.0, -1.0, 4.0]))
    with pytest.raises(SingularMatrixError, match="not positive definite") as err:
        Factorization.spd(A)
    assert err.value.pivot == 2
    # a zero diagonal takes a pivot off it
    with pytest.raises(LinAlgError, match="left the diagonal"):
        Factorization.spd(sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]])))


def test_solve_zero_rhs():
    A = sp.identity(4, format="csr")
    assert np.abs(Factorization(A).solve(np.zeros(4))).max() == 0.0


def test_solve_reports_singularity_with_pivot():
    A = sp.csr_matrix(np.array([[1.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(SingularMatrixError) as err:
        Factorization(A).solve(np.array([1.0, 1.0]))
    assert err.value.pivot == 1


def test_solve_shape_mismatch():
    A = sp.identity(3, format="csr")
    with pytest.raises(LinAlgError, match="shape"):
        Factorization(A).solve(np.ones(4))


def test_transposed_solve_matches_dense_oracle():
    M = RNG.standard_normal((40, 40)) + 5.0 * np.eye(40)
    A = sp.csr_matrix(M)
    b = RNG.standard_normal(40)
    x = Factorization(A).solve(b, trans=True)
    assert x == pytest.approx(np.linalg.solve(M.T, b), rel=1e-10, abs=1e-12)
    assert np.linalg.norm(M.T @ x - b) <= 1e-10 * np.linalg.norm(b)


def test_solve_raises_when_contract_is_missed(monkeypatch):
    # no solve of a random system reaches a residual of 1e-30
    monkeypatch.setattr(linalg, "RESIDUAL_TOL", 1e-30)
    M = RNG.standard_normal((20, 20)) + 5.0 * np.eye(20)
    lu = Factorization(sp.csr_matrix(M))
    for trans in (False, True):
        with pytest.raises(LinAlgError, match="residual"):
            lu.solve(RNG.standard_normal(20), trans=trans)


class _ZeroSolve:
    """An LU whose solves return zeros, so every sparse solve misses."""

    def solve(self, b, trans="N"):
        return np.zeros_like(b)


def test_missed_contract_raises_without_a_second_solver(caplog):
    M = RNG.standard_normal((20, 20)) + 5.0 * np.eye(20)
    lu = Factorization(sp.csr_matrix(M))
    lu._lu = _ZeroSolve()
    with caplog.at_level(logging.DEBUG, logger="mhdfem"):
        for trans in (False, True):
            with pytest.raises(LinAlgError, match="residual 1.000e\\+00"):
                lu.solve(RNG.standard_normal(20), trans=trans)
    assert caplog.records == []


class _NanSolve:
    """An LU whose solves return NaN, whose residual compares False with
    any bound."""

    def solve(self, b, trans="N"):
        return np.full_like(b, np.nan)


def test_nan_solve_misses_the_contract():
    M = RNG.standard_normal((20, 20)) + 5.0 * np.eye(20)
    lu = Factorization(sp.csr_matrix(M))
    lu._lu = _NanSolve()
    for trans in (False, True):
        with pytest.raises(LinAlgError, match="sparse solve residual nan"):
            lu.solve(RNG.standard_normal(20), trans=trans)
    near = sp.csr_matrix(M + 0.1 * np.eye(20))
    with pytest.raises(LinAlgError, match="GMRES residual nan"):
        lu.solve(RNG.standard_normal(20), A=near)


def test_sparse_solve_logs_nothing(caplog):
    M = RNG.standard_normal((20, 20)) + 5.0 * np.eye(20)
    with caplog.at_level(logging.DEBUG, logger="mhdfem"):
        Factorization(sp.csr_matrix(M)).solve(RNG.standard_normal(20))
    assert caplog.records == []


def test_gmres_solve_with_a_nearby_matrix_meets_the_contract():
    M = sp.csr_matrix(RNG.standard_normal((60, 60)) + 10.0 * np.eye(60))
    near = M + sp.random(60, 60, density=0.1, random_state=5) * 0.5
    b = RNG.standard_normal(60)
    lu = Factorization(M)
    x = lu.solve(b, A=near)
    assert np.linalg.norm(near @ x - b) <= 1e-10 * np.linalg.norm(b)
    assert x == pytest.approx(np.linalg.solve(near.toarray(), b), rel=1e-10, abs=1e-12)
    assert 0 < lu.iterations <= linalg.GMRES_MAXIT
    lu.solve(b)
    assert lu.iterations == 0


def test_gmres_solve_with_a_far_matrix_raises():
    # eigenvalues of both signs over six decades: GMRES with the LU of
    # the identity needs far more than its budget
    n = 4 * linalg.GMRES_MAXIT
    signs = np.where(RNG.random(n) < 0.5, -1.0, 1.0)
    far = sp.diags(signs * np.geomspace(1e-3, 1e3, n), format="csr")
    lu = Factorization(sp.identity(n, format="csr"))
    with pytest.raises(LinAlgError, match="GMRES residual"):
        lu.solve(RNG.standard_normal(n), A=far)
    with pytest.raises(LinAlgError, match="shape"):
        lu.solve(np.ones(n), A=far[:-1, :-1])


# ----------------------------------------------------------------------
# block elimination on the LU of an interleaved leading block


@pytest.fixture(
    scope="module",
    params=[(n, family) for n in (2, 4) for family in ("normal_B", "tangential_B")],
    ids=lambda p: f"n{p[0]}-{p[1]}",
)
def stokes_poisson(request):
    n, family = request.param
    case = builtin_case(family)
    drv = MhdDriver(unit_cube_mesh(n), case.params(), case.sources())
    S, _ = drv._stokes_poisson()
    return drv, S


@pytest.mark.parametrize("trans", [False, True], ids=["plain", "transposed"])
def test_block_elimination_of_S_matches_superlu(stokes_poisson, trans):
    _, S = stokes_poisson
    b = RNG.standard_normal(S.A.shape[0])
    x = S.solve(b, trans=trans)
    ref = spla.splu(S.A.tocsc()).solve(b, trans="T" if trans else "N")
    assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)


def test_block_elimination_preconditions_the_step_matrix(stokes_poisson):
    # a Picard step at the first iterate: GMRES on the elimination of S
    drv, S = stokes_poisson
    state, _ = drv.picard_solve(maxit=1)
    A, b, _ = drv._potential_system(*drv._step_map(state.u, drv.cross_blocks(state.B)))
    x = S.solve(b, A=A)
    assert np.linalg.norm(b - A @ x) <= linalg.RESIDUAL_TOL * np.linalg.norm(b)
    assert 0 < S.iterations <= linalg.GMRES_MAXIT


def _interleaved(k, copies, tail_blocks):
    """[[k kron I, A12], [A21, A22]] with the given tail blocks."""
    A12, A21, A22 = tail_blocks
    return sp.bmat([[sp.kron(k, sp.identity(copies)), A12], [A21, A22]], format="csr")


def _spd(n):
    """A random symmetric positive definite matrix."""
    M = RNG.standard_normal((n, n))
    return sp.csr_matrix(M @ M.T + n * np.eye(n))


def _bordered():
    """(A, k): A = [[k kron I, A12], [A12^T, A22]] on three components,
    with k symmetric positive definite and A22 unsymmetric."""
    k = _spd(6)
    A12 = sp.random(18, 4, density=0.4, random_state=7)
    A22 = sp.csr_matrix(RNG.standard_normal((4, 4)) + 4.0 * np.eye(4))
    return _interleaved(k, 3, (A12, A12.T, A22)), k


def test_block_elimination_matches_dense_oracle():
    A, k = _bordered()
    lu = Factorization.by_blocks(2.0 * A, Factorization.spd(k), 3, 2.0)
    b = RNG.standard_normal(22)
    for trans, M in ((False, 2.0 * A), (True, 2.0 * A.T)):
        x = lu.solve(b, trans=trans)
        assert x == pytest.approx(np.linalg.solve(M.toarray(), b), rel=1e-10, abs=1e-12)


def test_block_elimination_needs_an_spd_lead_and_a_symmetric_border():
    A, k = _bordered()
    with pytest.raises(LinAlgError, match="spd factorization of its lead"):
        Factorization.by_blocks(A, Factorization(k), 3, 1.0)
    A = A.tolil()
    A[20, 0] += 1.0
    with pytest.raises(LinAlgError, match="not the transpose of A12"):
        Factorization.by_blocks(A.tocsr(), Factorization.spd(k), 3, 1.0)


def _factorization(path):
    """A sparse LU of a random matrix, or the block elimination of one
    whose leading block is a scalar block on three components."""
    if path == "superlu":
        return Factorization(sp.csr_matrix(RNG.standard_normal((30, 30)) + 8.0 * np.eye(30)))
    A, k = _bordered()
    return Factorization.by_blocks(2.0 * A, Factorization.spd(k), 3, 2.0)


PATHS = ["superlu", "by_blocks"]


@pytest.mark.parametrize("trans", [False, True], ids=["plain", "transposed"])
@pytest.mark.parametrize("path", PATHS)
def test_a_block_of_right_hand_sides_is_solved_column_by_column(path, trans):
    lu = _factorization(path)
    A = lu.A.T if trans else lu.A
    b = RNG.standard_normal((A.shape[0], 4))
    b[:, 1] *= 1e-9
    b[:, 2] = 0.0
    x = lu.solve(b, trans=trans)
    assert x.shape == b.shape
    assert np.all(x[:, 2] == 0.0)
    for j in (0, 1, 3):
        bnorm = np.linalg.norm(b[:, j])
        assert np.linalg.norm(b[:, j] - A @ x[:, j]) <= linalg.RESIDUAL_TOL * bnorm
        one = lu.solve(b[:, j], trans=trans)
        assert np.linalg.norm(x[:, j] - one) <= 1e-12 * np.linalg.norm(one)
    assert np.all(lu.solve(np.zeros((A.shape[0], 3)), trans=trans) == 0.0)


class _DropsLargeColumns:
    """An LU whose solves return zero in every column of b larger than
    1e6, so that only those columns miss the contract."""

    def __init__(self, lu):
        self._lu = lu

    def solve(self, b, trans="N"):
        x = self._lu.solve(b, trans=trans)
        x[:, np.abs(b).max(axis=0) > 1e6] = 0.0
        return x


@pytest.mark.parametrize("path", PATHS)
def test_a_column_that_misses_the_contract_raises(path):
    lu = _factorization(path)
    lu._lu = _DropsLargeColumns(lu._lu)
    b = RNG.standard_normal((lu.A.shape[0], 4))
    assert lu.solve(b).shape == b.shape
    b[:, 2] *= 1e8
    for trans in (False, True):
        with pytest.raises(LinAlgError, match=r"residual 1\.000e\+00 in column 2 exceeds"):
            lu.solve(b, trans=trans)


@pytest.mark.parametrize("path", PATHS)
def test_gmres_takes_one_right_hand_side(path):
    lu = _factorization(path)
    near = lu.A + sp.identity(lu.A.shape[0], format="csr") * 0.01
    with pytest.raises(LinAlgError, match="one right-hand side"):
        lu.solve(RNG.standard_normal((lu.A.shape[0], 2)), A=near)
    with pytest.raises(LinAlgError, match="shape"):
        lu.solve(np.ones((lu.A.shape[0], 2, 1)))


def test_singular_schur_complement_reports_its_pivot():
    # the last trailing unknown is decoupled with a zero diagonal
    k = sp.csr_matrix(np.diag([2.0, 3.0, 4.0]))
    A12 = sp.csr_matrix(np.hstack([np.ones((9, 2)), np.zeros((9, 1))]))
    A22 = sp.csr_matrix(np.diag([1.0, 1.0, 0.0]))
    A = _interleaved(k, 3, (A12, A12.T, A22))
    with pytest.raises(SingularMatrixError) as err:
        Factorization.by_blocks(A, Factorization.spd(k), 3, 1.0)
    assert err.value.pivot == 9 + 2


def test_block_elimination_needs_a_trailing_block():
    k = sp.identity(2, format="csr")
    with pytest.raises(LinAlgError, match="no trailing block"):
        Factorization.by_blocks(sp.identity(6, format="csr"), Factorization.spd(k), 3, 1.0)


@pytest.mark.parametrize("family", ["normal_B", "tangential_B"])
@pytest.mark.parametrize("mesh_name", ["single_tet", "mesh1"])
def test_unstable_pair_is_a_driver_error_with_its_pivot(request, mesh_name, family):
    # k is empty on one tetrahedron and 3 x 3 on one cube; the pressure
    # Schur complement is singular on both
    drv = MhdDriver(request.getfixturevalue(mesh_name), builtin_case(family).params())
    with pytest.raises(MhdError, match=r"velocity/pressure pair unstable") as err:
        drv.picard_solve(maxit=1)
    cause = err.value.__cause__
    assert isinstance(cause, SingularMatrixError)
    assert cause.pivot >= drv.u_space.num_free


# ----------------------------------------------------------------------
# block flattening


def _two_field_map():
    Auu = sp.csr_matrix(np.array([[2.0, 1.0], [1.0, 3.0]]))
    Aee = sp.csr_matrix(np.array([[4.0]]))
    Aue = sp.csr_matrix(np.array([[0.5], [0.0]]))
    return {("u", "u"): Auu, ("u", "e"): Aue, ("e", "u"): Aue.T, ("e", "e"): Aee}


def test_flatten_single_block_is_identity_map():
    A0 = sp.csr_matrix(np.array([[2.0, -1.0], [-1.0, 2.0]]))
    A, b, offsets = flatten(("u",), {("u", "u"): A0}, {"u": np.ones(2)})
    assert A.format == "csr"
    assert A.toarray() == pytest.approx(A0.toarray())
    assert b == pytest.approx([1.0, 1.0])
    assert len(offsets) == 0


def test_flatten_layout_and_round_trip():
    rhs = {"u": np.array([1.0, 0.0]), "e": np.array([2.0])}
    A, b, offsets = flatten(("u", "e"), _two_field_map(), rhs)
    assert A.shape == (3, 3)
    assert list(offsets) == [2]
    expected = np.array([[2.0, 1.0, 0.5], [1.0, 3.0, 0.0], [0.5, 0.0, 4.0]])
    assert A.toarray() == pytest.approx(expected)
    assert b == pytest.approx([1.0, 0.0, 2.0])
    x = Factorization(A).solve(b)
    xu, xe = np.split(x, offsets)
    assert xu.shape == (2,) and xe.shape == (1,)
    assert np.concatenate([xu, xe]) == pytest.approx(x)


def test_flatten_border_goes_last():
    M = sp.csr_matrix(np.diag([1.0, 2.0, 4.0]))
    w = np.array([0.25, 0.5, 0.25])
    row = sp.csr_matrix(w)
    blocks = {("p", "p"): M, ("p", "p_mean"): row.T, ("p_mean", "p"): row}
    A, b, offsets = flatten(("p", "p_mean"), blocks, {"p": np.ones(3)})
    assert A.shape == (4, 4)
    assert list(offsets) == [3]
    dense = A.toarray()
    assert dense[:3, 3] == pytest.approx(w)
    assert dense[3, :3] == pytest.approx(w)
    assert dense[3, 3] == 0.0
    assert b[3] == 0.0
    x = Factorization(A).solve(b)
    xp, mult = np.split(x, offsets)
    # the border enforces the weighted zero-mean constraint
    assert abs(xp @ w) <= 1e-12
    assert mult.shape == (1,)
    resid = M @ xp + mult[0] * w - b[:3]
    assert np.abs(resid).max() <= 1e-12


def test_validate_rejects_bad_blocks():
    blocks = _two_field_map()
    # a block of the wrong size
    with pytest.raises(LinAlgError, match="do not fit"):
        flatten(("u", "e"), {**blocks, ("u", "e"): sp.csr_matrix((2, 2))}, {})
    # an empty block row, which bmat would size to zero
    with pytest.raises(LinAlgError, match="empty"):
        flatten(("u", "e"), {("u", "u"): blocks["u", "u"], ("u", "e"): blocks["u", "e"]}, {})


def test_validate_rejects_bad_border_length():
    # a border row one entry longer than the field it constrains
    border = sp.csr_matrix(np.ones((1, 3)))
    blocks = {**_two_field_map(), ("m", "u"): border}
    with pytest.raises(LinAlgError, match="do not fit"):
        flatten(("u", "e", "m"), blocks, {})


def test_flatten_rejects_wrong_sizes():
    # a right-hand side that does not match its block row
    with pytest.raises(LinAlgError, match="right-hand side"):
        flatten(("u", "e"), _two_field_map(), {"u": np.zeros(3)})


# ----------------------------------------------------------------------
# smallest singular value (the test oracle of the stability verdict)


def test_smallest_singular_value_against_dense_svd():
    M = RNG.standard_normal((40, 40)) + 5.0 * np.eye(40)
    A = sp.csr_matrix(M)
    sigma = smallest_singular_value(A)
    exact = np.linalg.svd(M, compute_uv=False).min()
    assert sigma == pytest.approx(exact, rel=1e-5)


def test_smallest_singular_value_weighted():
    # diagonal weights admit a closed-form whitened matrix for the oracle
    M = RNG.standard_normal((30, 30)) + 4.0 * np.eye(30)
    A = sp.csr_matrix(M)
    d1 = RNG.uniform(0.5, 2.0, 30)
    d2 = RNG.uniform(0.5, 2.0, 30)
    Wt = sp.diags(d1).tocsr()
    Wtr = sp.diags(d2).tocsr()
    sigma = smallest_singular_value(A, w_test=Wt, w_trial=Wtr)
    whitened = M / np.sqrt(d1)[:, None] / np.sqrt(d2)[None, :]
    exact = np.linalg.svd(whitened, compute_uv=False).min()
    assert sigma == pytest.approx(exact, rel=1e-5)


def test_smallest_singular_value_of_singular_matrix_raises():
    A = sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(SingularMatrixError):
        smallest_singular_value(A)


def test_smallest_singular_value_factors_once(monkeypatch):
    calls = []
    splu = linalg.spla.splu

    def counting_splu(*args, **kwargs):
        calls.append(1)
        return splu(*args, **kwargs)

    monkeypatch.setattr(linalg.spla, "splu", counting_splu)
    M = RNG.standard_normal((30, 30)) + 5.0 * np.eye(30)
    smallest_singular_value(sp.csr_matrix(M))
    assert len(calls) == 1


def test_smallest_singular_value_unconverged_raises(monkeypatch):
    # two steps leave the 40 x 40 estimate about 1% off; it must not be
    # returned as the answer
    monkeypatch.setattr(oracles, "POWER_MAXIT", 2)
    M = RNG.standard_normal((40, 40)) + 5.0 * np.eye(40)
    with pytest.raises(LinAlgError, match="did not converge"):
        smallest_singular_value(sp.csr_matrix(M))


# ----------------------------------------------------------------------
# the factorization stays behind linalg


def _package_trees():
    for path in sorted(Path(mhdfem.__file__).parent.glob("*.py")):
        yield path.name, ast.parse(path.read_text(), filename=str(path))


def _call_sites(callee: str) -> list:
    """(module, enclosing function) of every call to ``callee`` in the
    package, by plain or attribute name."""
    sites = []

    def visit(node, module, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                visit(child, module, child.name)
                continue
            if isinstance(child, ast.Call):
                fn = child.func
                called = fn.attr if isinstance(fn, ast.Attribute) else getattr(fn, "id", None)
                if called == callee:
                    sites.append((module, where))
            visit(child, module, where)

    for name, tree in _package_trees():
        visit(tree, name, None)
    return sites


def test_only_linalg_factors_matrices():
    # sparse and dense LU alike
    for callee in ("splu", "lu_factor", "lu", "getrf"):
        assert {module for module, _ in _call_sites(callee)} <= {"linalg.py"}
    assert {module for module, _ in _call_sites("splu")} == {"linalg.py"}


def test_only_linalg_runs_krylov_solves():
    assert _call_sites("gmres") == [("linalg.py", "_gmres")]


def test_block_grids_are_built_in_one_place():
    # every saddle system goes through flatten; the stability weight of
    # the tests builds its grid in tests/oracles.py
    assert _call_sites("bmat") == [("linalg.py", "flatten")]


def test_no_solve_densifies_a_matrix():
    # only the pivot search of a failed factorization goes dense, and the
    # Schur complement of a block elimination, which is dense by design
    assert [site for site in _call_sites("toarray") if site[0] == "linalg.py"] == [
        ("linalg.py", "_locate_pivot"),
        ("linalg.py", "_schur_complement"),
        ("linalg.py", "_schur_complement"),
    ]


def test_one_saddle_system_path():
    # the driver flattens a block map only for the r normal matrix and
    # the potential system, and is the one place that builds a border row
    assert _call_sites("flatten") == [("mhd.py", "__init__"), ("mhd.py", "_potential_system")]
    assert {module for module, _ in _call_sites("domain_integral_vector")} == {"mhd.py"}


def test_one_gauge_tree_builder():
    # a gauge tree's graph is read from an incidence in mesh.cotree_edges
    # alone: by the complex's gauge and by complex_check's cotree
    assert _call_sites("cotree_edges") == [
        ("operators.py", "ct"),
        ("verify.py", "_cotree"),
    ]


def test_quadrature_is_only_where_an_analytic_function_enters():
    # the bilinear forms contract exact moment tables; a rule is built
    # only for the analytic loads, the error norms (which also integrate
    # the loads of the error projections), the L^p norms and the dg0
    # cell means of an interpolant
    assert _call_sites("quadrature_rule") == [
        ("assembly.py", "assemble_linear"),
        ("derham.py", "canonical_interpolate"),
        ("operators.py", "lp_norms"),
        ("verify.py", "error_norms"),
    ]


def test_the_driver_names_no_quadrature():
    # the projections take load vectors, and the driver's norms come
    # from operators, which choose their own rules
    source = (Path(mhdfem.__file__).parent / "mhd.py").read_text()
    assert "quad_degree" not in source


def _qualified_sites(match) -> list:
    """(module, enclosing class and function names joined by dots) of
    every node of the package that ``match`` accepts."""
    sites = []

    def visit(node, module, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                visit(child, module, f"{where}.{child.name}" if where else child.name)
                continue
            if match(child):
                sites.append((module, where))
            visit(child, module, where)

    for name, tree in _package_trees():
        visit(tree, name, None)
    return sites


def test_edge_and_face_spaces_come_from_the_complex():
    # a family's curl pair is built by DiscreteCurl; complex_check builds
    # the unconstrained spaces of its commuting diagrams.  Every kind is
    # a literal, so no other call can build one
    def make_space(node):
        fn = node.func if isinstance(node, ast.Call) else None
        return (fn.attr if isinstance(fn, ast.Attribute) else getattr(fn, "id", None)) == "make_space"

    def kind(node):
        arg = node.args[0] if node.args else None
        return arg.value if isinstance(arg, ast.Constant) else None

    assert _qualified_sites(lambda n: make_space(n) and kind(n) is None) == []
    assert _qualified_sites(
        lambda n: make_space(n) and kind(n) in ("nedelec1_lowest", "rt_lowest")
    ) == [
        ("operators.py", "DiscreteCurl.__init__"),
        ("operators.py", "DiscreteCurl.__init__"),
        ("verify.py", "complex_check"),
        ("verify.py", "complex_check"),
    ]


def test_families_are_told_apart_in_three_places():
    # the complex decides a family's spaces and potentials; the driver
    # only which multipliers have zero mean, and builtin_case the
    # manufactured potentials
    def names_a_family(node):
        if not isinstance(node, ast.Compare):
            return False
        operands = [node.left, *node.comparators]
        return any(
            isinstance(c, ast.Constant) and c.value in BC_FAMILIES
            for o in operands
            for c in (o.elts if isinstance(o, (ast.Tuple, ast.List, ast.Set)) else [o])
        )

    assert _qualified_sites(names_a_family) == [
        ("mhd.py", "MhdDriver.__init__"),
        ("operators.py", "DiscreteCurl.__init__"),
        ("verify.py", "builtin_case"),
    ]


def test_no_private_linalg_names_outside_linalg():
    leaks = []
    for name, tree in _package_trees():
        if name == "linalg.py":
            continue
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "linalg"
                and node.attr.startswith("_")
            ):
                leaks.append(f"{name}:{node.lineno} linalg.{node.attr}")
            if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("linalg"):
                leaks += [
                    f"{name}:{node.lineno} {a.name}"
                    for a in node.names
                    if a.name.startswith("_")
                ]
    assert leaks == []


def test_the_integer_rule_is_stated_once():
    # a bool is an int, but no level, count or degree: only
    # mesh.is_integer tells the two apart
    sites = [
        (name, node.lineno)
        for name, tree in _package_trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", None) == "isinstance"
        and "bool" in {getattr(n, "id", None) for n in ast.walk(node.args[1])}
    ]
    assert [name for name, _ in sites] == ["mesh.py"]


def test_no_private_names_of_a_sibling_module():
    # a module bound by ``from . import ...`` is read through its public
    # names, and only mesh.py reads the per-mesh cache behind Mesh.cached
    leaks = []
    for name, tree in _package_trees():
        siblings = {
            a.asname or a.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None
            for a in node.names
        }
        for node in ast.walk(tree):
            if not isinstance(node, ast.Attribute):
                continue
            if isinstance(node.value, ast.Name) and node.value.id in siblings:
                if node.attr.startswith("_"):
                    leaks.append(f"{name}:{node.lineno} {node.value.id}.{node.attr}")
            elif node.attr == "_cache" and name != "mesh.py":
                leaks.append(f"{name}:{node.lineno} ._cache")
    assert leaks == []


# ----------------------------------------------------------------------
# space kinds are told apart in derham


def _kind_comparisons() -> list:
    """(module, enclosing function, string literals compared with) of
    every comparison that reads a ``.kind`` attribute in the package."""
    sites = []

    def literals(node):
        elts = node.elts if isinstance(node, (ast.Tuple, ast.List, ast.Set)) else [node]
        return tuple(e.value for e in elts if isinstance(e, ast.Constant) and isinstance(e.value, str))

    def visit(node, module, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                visit(child, module, child.name)
                continue
            if isinstance(child, ast.Compare):
                operands = [child.left, *child.comparators]
                if any(isinstance(o, ast.Attribute) and o.attr == "kind" for o in operands):
                    sites.append((module, where, sum(map(literals, operands), ())))
            visit(child, module, where)

    for name, tree in _package_trees():
        visit(tree, name, None)
    return sites


def test_only_derham_tells_space_kinds_apart():
    # a kind's dofs and basis come from derham; the velocity forms that
    # act on each component alike are the one exception
    sites = [site for site in _kind_comparisons() if site[0] != "derham.py"]
    assert [site for site in sites if site[2]] == [
        ("assembly.py", "assemble_bilinear", ("lagrange_p2_vector",)),
        ("assembly.py", "_local_matrices", ("lagrange_p2_vector",)),
    ]
    assert not {where for _, where, _ in sites} & {"assemble_linear", "domain_integral_vector"}


# ----------------------------------------------------------------------
# imports of the package and the tests


def _imported_but_unused(tree) -> list:
    """Names a module imports and never reads."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                imported[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                imported[a.asname or a.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_no_unused_imports():
    roots = [Path(mhdfem.__file__).parent, Path(__file__).parent]
    unused = {}
    for path in sorted(p for root in roots for p in root.glob("*.py")):
        names = _imported_but_unused(ast.parse(path.read_text(), filename=str(path)))
        if names:
            unused[f"{path.parent.name}/{path.name}"] = names
    assert unused == {}
