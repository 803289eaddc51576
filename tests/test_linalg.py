"""Sparse solves, block flattening, borders and the inf-sup proxy."""

import ast
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import mhdfem
from mhdfem import linalg
from mhdfem.linalg import (
    BlockSystem,
    Factorization,
    LinAlgError,
    SingularMatrixError,
    flatten,
    smallest_singular_value,
    solve_direct,
    unflatten,
)

RNG = np.random.default_rng(23)


# ----------------------------------------------------------------------
# direct solve contract


def test_solve_identity():
    A = sp.identity(5, format="csr")
    b = np.arange(5.0)
    assert solve_direct(A, b) == pytest.approx(b, abs=1e-14)


def test_solve_indefinite_2x2():
    A = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    x = solve_direct(A, np.array([1.0, 2.0]))
    assert x == pytest.approx([2.0, 1.0], abs=1e-14)


def test_solve_spd_50_matches_dense_oracle():
    M = RNG.standard_normal((50, 50))
    A = sp.csr_matrix(M @ M.T + 50.0 * np.eye(50))
    b = RNG.standard_normal(50)
    x = solve_direct(A, b)
    assert np.linalg.norm(A @ x - b) <= 1e-10 * np.linalg.norm(b)
    assert x == pytest.approx(np.linalg.solve(A.toarray(), b), rel=1e-10, abs=1e-12)


def test_solve_zero_rhs():
    A = sp.identity(4, format="csr")
    assert np.abs(solve_direct(A, np.zeros(4))).max() == 0.0


def test_solve_reports_singularity_with_pivot():
    A = sp.csr_matrix(np.array([[1.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(SingularMatrixError) as err:
        solve_direct(A, np.array([1.0, 1.0]))
    assert err.value.pivot == 1


def test_solve_shape_mismatch():
    A = sp.identity(3, format="csr")
    with pytest.raises(LinAlgError, match="shape"):
        solve_direct(A, np.ones(4))


def test_transposed_solve_matches_dense_oracle(monkeypatch):
    # without the dense fallback the answer must come from the sparse LU
    monkeypatch.setattr(linalg, "DENSE_FALLBACK_SIZE", 0)
    M = RNG.standard_normal((40, 40)) + 5.0 * np.eye(40)
    A = sp.csr_matrix(M)
    b = RNG.standard_normal(40)
    x = Factorization(A).solve(b, trans=True)
    assert x == pytest.approx(np.linalg.solve(M.T, b), rel=1e-10, abs=1e-12)
    assert np.linalg.norm(M.T @ x - b) <= 1e-10 * np.linalg.norm(b)


def test_solve_raises_when_contract_is_missed(monkeypatch):
    # no solve of a random system reaches a residual of 1e-30, and the
    # dense fallback cannot either
    monkeypatch.setattr(linalg, "RESIDUAL_TOL", 1e-30)
    M = RNG.standard_normal((20, 20)) + 5.0 * np.eye(20)
    lu = Factorization(sp.csr_matrix(M))
    for trans in (False, True):
        with pytest.raises(LinAlgError, match="residual"):
            lu.solve(RNG.standard_normal(20), trans=trans)


# ----------------------------------------------------------------------
# block systems


def _two_field_system():
    Auu = sp.csr_matrix(np.array([[2.0, 1.0], [1.0, 3.0]]))
    Aee = sp.csr_matrix(np.array([[4.0]]))
    Aue = sp.csr_matrix(np.array([[0.5], [0.0]]))
    return BlockSystem(
        field_order=("u", "E"),
        sizes={"u": 2, "E": 1},
        blocks={("u", "u"): Auu, ("E", "E"): Aee, ("u", "E"): Aue, ("E", "u"): Aue.T},
        rhs={"u": np.array([1.0, 0.0]), "E": np.array([2.0])},
        transpose_pairs=[(("u", "E"), ("E", "u"), 1.0)],
    )


def test_flatten_single_block_is_identity_map():
    A0 = sp.csr_matrix(np.array([[2.0, -1.0], [-1.0, 2.0]]))
    system = BlockSystem(
        field_order=("u",), sizes={"u": 2}, blocks={("u", "u"): A0}, rhs={"u": np.ones(2)}
    )
    A, b, imap = flatten(system)
    assert A.toarray() == pytest.approx(A0.toarray())
    assert b == pytest.approx([1.0, 1.0])
    assert imap.slices["u"] == slice(0, 2)
    assert imap.total == 2


def test_flatten_layout_and_round_trip():
    A, b, imap = flatten(_two_field_system())
    assert A.shape == (3, 3)
    assert imap.slices["u"] == slice(0, 2)
    assert imap.slices["E"] == slice(2, 3)
    expected = np.array([[2.0, 1.0, 0.5], [1.0, 3.0, 0.0], [0.5, 0.0, 4.0]])
    assert A.toarray() == pytest.approx(expected)
    x = solve_direct(A, b)
    parts = unflatten(x, imap)
    assert np.concatenate([parts["u"], parts["E"]]) == pytest.approx(x)
    assert parts["_borders"].size == 0


def test_flatten_border_goes_last():
    M = sp.csr_matrix(np.diag([1.0, 2.0, 4.0]))
    w = np.array([0.25, 0.5, 0.25])
    system = BlockSystem(
        field_order=("p",),
        sizes={"p": 3},
        blocks={("p", "p"): M},
        rhs={"p": np.array([1.0, 1.0, 1.0])},
        borders=[("p", w)],
    )
    A, b, imap = flatten(system)
    assert A.shape == (4, 4)
    dense = A.toarray()
    assert dense[:3, 3] == pytest.approx(w)
    assert dense[3, :3] == pytest.approx(w)
    assert dense[3, 3] == 0.0
    x = solve_direct(A, b)
    parts = unflatten(x, imap)
    # the border enforces the weighted zero-mean constraint
    assert abs(parts["p"] @ w) <= 1e-12
    assert parts["_borders"].shape == (1,)
    resid = M @ parts["p"] + parts["_borders"][0] * w - b[:3]
    assert np.abs(resid).max() <= 1e-12


def test_validate_rejects_bad_blocks():
    system = _two_field_system()
    system.blocks[("u", "q")] = sp.csr_matrix((2, 1))
    with pytest.raises(LinAlgError, match="unknown field"):
        system.validate()
    del system.blocks[("u", "q")]
    system.blocks[("u", "E")] = sp.csr_matrix((2, 2))
    with pytest.raises(LinAlgError, match="shape"):
        system.validate()


def test_validate_rejects_broken_transpose_pair():
    system = _two_field_system()
    system.blocks[("E", "u")] = sp.csr_matrix(np.array([[0.5, 1e-3]]))
    with pytest.raises(LinAlgError, match="transpose"):
        system.validate()


def test_validate_rejects_bad_border_length():
    system = _two_field_system()
    system.borders = [("u", np.ones(3))]
    with pytest.raises(LinAlgError, match="border"):
        system.validate()


# ----------------------------------------------------------------------
# smallest singular value


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
    monkeypatch.setattr(linalg, "POWER_MAXIT", 2)
    M = RNG.standard_normal((40, 40)) + 5.0 * np.eye(40)
    with pytest.raises(LinAlgError, match="did not converge"):
        smallest_singular_value(sp.csr_matrix(M))


# ----------------------------------------------------------------------
# the factorization stays behind linalg


def _package_trees():
    for path in sorted(Path(mhdfem.__file__).parent.glob("*.py")):
        yield path.name, ast.parse(path.read_text(), filename=str(path))


def test_only_linalg_factors_matrices():
    callers = set()
    for name, tree in _package_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                fn = node.func
                called = fn.attr if isinstance(fn, ast.Attribute) else getattr(fn, "id", None)
                if called == "splu":
                    callers.add(name)
    assert callers == {"linalg.py"}


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
