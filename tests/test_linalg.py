"""Sparse solves, block flattening, borders and the inf-sup proxy."""

import ast
import logging
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import mhdfem
from mhdfem import linalg
from mhdfem.linalg import (
    Factorization,
    LinAlgError,
    SingularMatrixError,
    flatten,
)
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
    assert {module for module, _ in _call_sites("splu")} == {"linalg.py"}


def test_only_linalg_runs_krylov_solves():
    assert _call_sites("gmres") == [("linalg.py", "_gmres")]


def test_block_grids_are_built_in_one_place():
    # every saddle system goes through flatten; the stability weight of
    # the tests builds its grid in tests/oracles.py
    assert _call_sites("bmat") == [("linalg.py", "flatten")]


def test_no_solve_densifies_a_matrix():
    # only the pivot search of a failed factorization goes dense
    assert [site for site in _call_sites("toarray") if site[0] == "linalg.py"] == [
        ("linalg.py", "_locate_pivot")
    ]


def test_one_saddle_system_path():
    # the driver flattens a block map only for the r normal matrix and
    # the potential system, and is the one place that builds a border row
    assert _call_sites("flatten") == [("mhd.py", "__init__"), ("mhd.py", "_potential_system")]
    assert {module for module, _ in _call_sites("domain_integral_vector")} == {"mhd.py"}


def test_one_gauge_tree_builder():
    # a gauge tree's graph is read from an incidence in mesh.cotree_edges
    # alone: by the driver's gauge and by complex_check's cotree
    assert _call_sites("cotree_edges") == [
        ("mhd.py", "_build_potentials"),
        ("verify.py", "_cotree"),
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
