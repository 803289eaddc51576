"""Manufactured cases, error norms, and the verification studies."""

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
import sympy

from mhdfem import assembly, derham, linalg, operators, verify
from mhdfem.derham import canonical_interpolate
from mhdfem.mesh import build_topology, unit_cube_mesh
from mhdfem.mhd import MhdDriver, PicardReport, SourceData
from mhdfem.verify import (
    ERROR_COLUMNS,
    StudyError,
    VerifyError,
    builtin_case,
    complex_check,
    convergence_study,
    error_norms,
    l3_study,
    picard_contract,
    quadrature_self_check,
)
import oracles
from oracles import dense_rank, sympy_case

RNG = np.random.default_rng(7)
FAMILIES = ("normal_B", "tangential_B")


def _solved(case, mesh, tol=1e-11):
    driver = MhdDriver(mesh, case.params("multiplier"), case.sources())
    state, report = driver.picard_solve(tol=tol, maxit=50)
    assert report.converged
    return driver, state


# ----------------------------------------------------------------------
# manufactured case identities


@pytest.mark.parametrize("bc_family", FAMILIES)
def test_exact_fields_satisfy_pointwise_constraints(bc_family):
    lam = 0.1
    _, exprs = sympy_case(bc_family, lam, Re=1.0, Rm=1.0, s=1.0)
    pts = RNG.random((100, 3))
    div_u = sympy.lambdify(sympy.symbols("x y z"), exprs["div_u"], "numpy")
    div_B = sympy.lambdify(sympy.symbols("x y z"), sympy.simplify(exprs["div_B"]), "numpy")
    for p in pts:
        assert abs(float(div_u(*p))) <= 1e-10 * lam
        assert abs(float(div_B(*p))) <= 1e-10 * lam
    curl_E = exprs["curl_E"]
    assert all(sympy.simplify(c) == 0 for c in curl_E)


@pytest.mark.parametrize("bc_family", FAMILIES)
@pytest.mark.parametrize("lam, Re, Rm, s", [(0.1, 1, 1, 1), (10, 10, 10, 1), (2, 3, 7, 0.5)])
def test_builtin_case_matches_sympy_oracle(bc_family, lam, Re, Rm, s):
    case = builtin_case(bc_family, lam, Re=Re, Rm=Rm, s=s)
    fields, _ = sympy_case(bc_family, lam, Re=Re, Rm=Rm, s=s)
    pts = RNG.random((500, 3))
    shapes = {"p": (500,), "grad_u": (500, 3, 3)}
    for name, oracle in fields.items():
        want = oracle(pts)
        got = getattr(case, name)(pts)
        assert got.shape == want.shape == shapes.get(name, (500, 3)), name
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max(), name


@pytest.mark.parametrize("bc_family", FAMILIES)
def test_magnetic_source_matches_finite_differences(bc_family):
    # independent derivative oracle: g = s (j - curl B / Rm) with the
    # curl taken by central differences of the field callable
    case = builtin_case(bc_family)
    pts = 0.1 + 0.8 * RNG.random((50, 3))
    h = 1e-5
    curl = np.zeros((len(pts), 3))
    for i in range(3):
        e = np.zeros(3)
        e[i] = h
        d = (case.B(pts + e) - case.B(pts - e)) / (2 * h)
        j, k = (i + 1) % 3, (i + 2) % 3
        curl[:, k] += d[:, j]
        curl[:, j] -= d[:, k]
    j_field = case.E(pts) + np.cross(case.u(pts), case.B(pts))
    g_fd = case.s * (j_field - curl / case.Rm)
    assert np.abs(case.g(pts) - g_fd).max() <= 1e-8


def test_body_force_matches_finite_differences():
    case = builtin_case("normal_B")
    pts = 0.1 + 0.8 * RNG.random((50, 3))
    h = 1e-4
    lap = -6.0 * case.u(pts)
    gradp = np.zeros((len(pts), 3))
    for i in range(3):
        e = np.zeros(3)
        e[i] = h
        lap += case.u(pts + e) + case.u(pts - e)
        gradp[:, i] = (case.p(pts + e) - case.p(pts - e)) / (2 * h)
    lap /= h * h
    conv = np.einsum("pij,pj->pi", case.grad_u(pts), case.u(pts))
    j_field = case.E(pts) + np.cross(case.u(pts), case.B(pts))
    f_fd = conv - lap / case.Re - case.s * np.cross(j_field, case.B(pts)) + gradp
    assert np.abs(case.f(pts) - f_fd).max() <= 1e-6


@pytest.mark.parametrize("bc_family", FAMILIES)
def test_boundary_traces_vanish_per_family(bc_family):
    case = builtin_case(bc_family)
    side = RNG.random((40, 2))
    for axis in range(3):
        for val in (0.0, 1.0):
            pts = np.insert(side, axis, val, axis=1)
            assert np.abs(case.u(pts)).max() <= 1e-14
            B, E = case.B(pts), case.E(pts)
            if bc_family == "normal_B":
                assert np.abs(B[:, axis]).max() <= 1e-13
                tang = np.delete(E, axis, axis=1)
                assert np.abs(tang).max() <= 1e-13
            else:
                assert np.abs(np.delete(B, axis, axis=1)).max() <= 1e-13
                assert np.abs(E[:, axis]).max() <= 1e-13


def test_case_scaling_and_validation():
    case = builtin_case("normal_B", 0.0)
    pts = RNG.random((20, 3))
    for fld in (case.u, case.B, case.E, case.f, case.g):
        assert np.abs(fld(pts)).max() == 0.0
    assert np.abs(case.p(pts)).max() == 0.0
    for lam in (-0.5, float("nan"), float("inf")):
        with pytest.raises(VerifyError, match="finite and nonnegative"):
            builtin_case("normal_B", lam)
    with pytest.raises(VerifyError, match="unknown bc_family"):
        builtin_case("slip")


def test_pressure_has_zero_mean():
    case = builtin_case("normal_B")
    mesh = unit_cube_mesh(2)
    rule = assembly.quadrature_rule(8)
    wdet = assembly.quadrature_weights(mesh, rule)
    xq = derham.physical_points(mesh, rule.points).reshape(-1, 3)
    vals = case.p(xq).reshape(mesh.num_cells, len(rule.weights))
    assert float(np.einsum("cq,cq->", wdet, vals)) == pytest.approx(0.0, abs=1e-9)


# ----------------------------------------------------------------------
# error norms


def test_zero_state_errors_equal_field_norms(mesh2):
    case = builtin_case("normal_B")
    driver = MhdDriver(mesh2, case.params("multiplier"), case.sources())
    row = error_norms(driver, driver.zero_state(), case)
    lam = case.lam
    assert row["err_B_l2"] == pytest.approx(lam * np.pi / np.sqrt(2), rel=1e-8)
    assert row["err_p_l2"] == pytest.approx(lam * np.sqrt(0.5 - 4 / np.pi**2), rel=1e-6)
    assert row["err_u_h1"] > 0


def test_injected_projections_zero_their_norms(mesh2):
    case = builtin_case("normal_B")
    driver = MhdDriver(mesh2, case.params("multiplier"), case.sources())
    rule = assembly.quadrature_rule(6)
    wdet = assembly.quadrature_weights(mesh2, rule)
    xq = derham.physical_points(mesh2, rule.points).reshape(-1, 3)
    PB = driver.divfree_project(assembly.assemble_linear(driver.B_space, case.B))
    Gw = case.grad_u(xq).reshape(mesh2.num_cells, -1, 3, 3) * wdet[..., None, None]
    G_local = derham.integrate_against_gradients(driver.u_space, Gw, rule.points)
    Pu, _ = driver.stokes_project(assembly.scatter_load(driver.u_space, G_local))
    state = driver.zero_state()
    state.B.coeffs[:] = PB.coeffs
    state.u.coeffs[:] = Pu.coeffs
    state.E.coeffs[:] = canonical_interpolate(driver.E_space, case.E).coeffs
    row = error_norms(driver, state, case)

    assert row["err_B_hcurl_h"] == 0.0
    assert row["err_B_l3"] == 0.0
    assert row["err_u_proj_h1"] == 0.0

    Ev = derham.evaluate_on_cells(state.E, rule.points)
    Eex = case.E(xq).reshape(mesh2.num_cells, len(rule.weights), 3)
    diff = Eex - Ev
    indep = np.sqrt(float(np.einsum("cq,cqd,cqd->", wdet, diff, diff)))
    assert row["err_E_l2"] == pytest.approx(indep, rel=1e-12)


def test_error_norms_evaluate_each_exact_field_once(mesh2):
    # the loads of both projections are integrated from the values that
    # the L2 errors tabulate, so grad u and B are evaluated once each
    case = builtin_case("normal_B")
    driver = MhdDriver(mesh2, case.params(), case.sources())
    calls = {"grad_u": 0, "B": 0}

    def counting(name):
        method = getattr(case, name)

        def call(points):
            calls[name] += 1
            return method(points)

        return call

    for name in calls:
        setattr(case, name, counting(name))
    error_norms(driver, driver.zero_state(), case)
    assert calls == {"grad_u": 1, "B": 1}


def test_solved_errors_finite_and_refinement_helps(mesh2, solved_case_n4):
    case, driver4, state4, _ = solved_case_n4
    driver2, state2 = _solved(case, mesh2)
    row2 = error_norms(driver2, state2, case)
    row4 = error_norms(driver4, state4, case)
    for key in ERROR_COLUMNS:
        assert np.isfinite(row2[key]) and row2[key] > 0
    assert row4["err_B_l2"] < row2["err_B_l2"]
    assert row4["err_E_l2"] < row2["err_E_l2"]


def test_doubling_the_scaling_doubles_the_errors(mesh2):
    rows = {}
    for lam in (0.1, 0.2):
        driver, state = _solved(builtin_case("normal_B", lam), mesh2)
        rows[lam] = error_norms(driver, state, builtin_case("normal_B", lam))
    for key in ERROR_COLUMNS:
        ratio = rows[0.2][key] / rows[0.1][key]
        assert 1.5 <= ratio <= 2.5


# ----------------------------------------------------------------------
# the solver contract


def _run(residuals, **fields):
    """A Picard report of one record per residual; each field given is a
    list with one value per record, the rest hold the identities."""
    ok = dict(divB_max=0.0, divB_scale=1.0, r_norm=0.0, curlE_norm=0.0,
              energy_residual=0.0, energy3_lhs=0.0, energy3_rhs=0.0)
    records = [
        SimpleNamespace(**{**ok, **{key: vals[k] for key, vals in fields.items()}})
        for k in range(len(residuals))
    ]
    return PicardReport(converged=True, iterations=len(records), residuals=residuals,
                        diagnostics_history=records, state_norm=1.0)


def test_contract_reads_every_iterate_and_fails_a_nan():
    nan = float("nan")
    # Python's max([1e-16, nan]) is 1e-16: a NaN after a finite value hides
    contract = picard_contract(_run([1e-16, nan], divB_max=[nan, 0.0]), SourceData(g=len))
    assert set(contract) == {"divB", "multiplier", "curlE", "energy", "linear_residual"}
    assert np.isnan(contract["linear_residual"]["worst"])
    assert np.isnan(contract["divB"]["worst"])
    assert [gate for gate, v in contract.items() if not v["pass"]] == ["divB", "linear_residual"]
    assert contract["linear_residual"]["bound"] == linalg.RESIDUAL_TOL

    contract = picard_contract(_run([0.0, 0.0], energy_residual=[2e-9, 0.0]), SourceData())
    assert contract["energy"] == {"worst": 2e-9, "bound": 1e-9, "pass": False}


def test_contract_reads_the_curl_bound_without_g():
    # iterates with |j| = 0 have no ratio; a NaN |j| is read and fails
    report = _run([0.0] * 3, energy3_lhs=[5.0, 1.0, 1.0], energy3_rhs=[0.0, 2.0, 4.0])
    assert "curl_bound" not in picard_contract(report, SourceData(g=len))
    assert picard_contract(report, SourceData())["curl_bound"]["worst"] == 0.5
    report = _run([0.0] * 2, energy3_lhs=[1.0, 1.0], energy3_rhs=[2.0, float("nan")])
    assert picard_contract(report, SourceData())["curl_bound"]["pass"] is False
    report = _run([0.0], energy3_lhs=[1.0 + 1e-6], energy3_rhs=[1.0])
    assert picard_contract(report, SourceData())["curl_bound"]["pass"] is False


# ----------------------------------------------------------------------
# convergence study mechanics


def test_study_validates_levels(monkeypatch):
    case = builtin_case("normal_B")
    with pytest.raises(VerifyError, match="at least 3 levels"):
        convergence_study(case, [2, 4])
    with pytest.raises(VerifyError, match="strictly increasing"):
        convergence_study(case, [2, 4, 4])
    # rejected before any mesh is built: n = 0 is no mesh, and at n = 1
    # the Stokes system is singular
    monkeypatch.setattr(verify, "unit_cube_mesh", None)
    for levels in ([0, 1, 2], [1, 2, 3]):
        with pytest.raises(VerifyError, match="at least 2"):
            convergence_study(case, levels)
    for levels in ([2, 3, 3.5], [2, 3.0, 4], [True, 2, 3], [2, 3, "4"]):
        with pytest.raises(VerifyError, match="levels must be integers"):
            convergence_study(case, levels)
    # the self-check measures at quad_degree + 2
    for degree in (13, 6.0, 0, True, None):
        with pytest.raises(VerifyError, match="quad_degree must be an integer"):
            convergence_study(case, [2, 3, 4], quad_degree=degree)
    for kwargs in ({"tol": 0.0}, {"tol": np.nan}, {"maxit": 0}, {"maxit": 2.5}):
        with pytest.raises(VerifyError, match="need tol > 0"):
            convergence_study(case, [2, 3, 4], **kwargs)


def test_study_attaches_failure_report():
    case = builtin_case("normal_B")
    with pytest.raises(StudyError, match="did not converge at level n=2") as info:
        convergence_study(case, [2, 3, 4], maxit=1)
    assert info.value.report is not None
    assert not info.value.report.converged
    assert info.value.report.iterations == 1


def test_small_study_table_and_csv():
    case = builtin_case("normal_B")
    table = convergence_study(case, [2, 3, 4], tol=1e-10)
    csv = table.to_csv()
    lines = csv.splitlines()
    assert lines[0] == "n,h,err_u_h1,err_B_l2,err_B_hcurl_h,err_B_l3,err_E_l2,err_p_l2," \
        "rate_u_h1,rate_B_l2,rate_B_hcurl_h,rate_B_l3,rate_E_l2,rate_p_l2"
    assert len(lines) == 4
    assert lines[1].split(",")[8:] == [""] * 6
    assert csv.endswith("\n")
    for line in lines[1:]:
        for cell in line.split(","):
            if cell:
                float(cell)  # every data cell is a plain parseable number

    assert table.ns == [2, 3, 4]
    assert table.hs == sorted(table.hs, reverse=True)
    assert all(r > 0.5 for r in table.rates["err_B_l2"])
    # the measuring quadrature is converged: one degree up moves nothing
    assert table.quadrature_check
    assert max(table.quadrature_check.values()) < 1e-3


def test_self_check_compares_two_rules(solved_case_n4):
    case, driver, state, _ = solved_case_n4
    chk = quadrature_self_check(driver, state, case, error_norms(driver, state, case))
    assert set(ERROR_COLUMNS) <= set(chk)
    assert max(chk.values()) < 1e-3


def test_self_check_at_the_highest_config_degree(mesh2):
    # the config accepts quad_degree up to MAX_QUAD_DEGREE - 2, and the
    # self-check measures two degrees above it
    degree = assembly.MAX_QUAD_DEGREE - 2
    case = builtin_case("normal_B")
    driver, state = _solved(case, mesh2)
    base = error_norms(driver, state, case, quad_degree=degree)
    chk = quadrature_self_check(driver, state, case, base, quad_degree=degree)
    assert set(chk) == set(base)
    assert max(chk.values()) < 1e-3


@pytest.mark.parametrize("bc_family", FAMILIES)
def test_each_constant_form_is_assembled_once(mesh2, monkeypatch, bc_family):
    # driver, Picard solve and error row share one set of constant
    # matrices: no coefficient-free (form, trial, test) is assembled twice
    counts = {}
    original = assembly.assemble_bilinear

    def counting(form_id, trial, test, **kwargs):
        if kwargs.get("coefficient") is None:
            key = (form_id, id(trial), id(test))
            counts[key] = counts.get(key, 0) + 1
        return original(form_id, trial, test, **kwargs)

    monkeypatch.setattr(assembly, "assemble_bilinear", counting)
    case = builtin_case(bc_family)
    driver = MhdDriver(mesh2, case.params(), case.sources())
    state, report = driver.picard_solve(tol=1e-10, maxit=50)
    assert report.converged
    error_norms(driver, state, case)
    assert counts and set(counts.values()) == {1}
    # div_scalar and divdiv are the constraint blocks of the two
    # formulations, and vec_mass on the velocity is the mass part of W_u
    assert len(counts) == 8


# ----------------------------------------------------------------------
# complex report


def test_complex_check_dimensions_coarse(mesh1):
    report = complex_check(mesh1)
    assert report["pass"]
    assert report["curl_grad_max"] == 0 and report["div_curl_max"] == 0
    assert report["commuting_residual"] <= 1e-10
    assert report["dims_full"] == {
        "rank_grad": 7, "ker_curl": 7, "rank_curl": 12,
        "ker_div": 12, "rank_div": 6,
        "exact_grad_curl": True, "exact_curl_div": True, "div_onto": True,
    }
    assert report["dims_zero_trace"] == {
        "rank_grad": 0, "ker_curl": 0, "rank_curl": 1,
        "ker_div": 1, "rank_div": 5,
        "exact_grad_curl": True, "exact_curl_div": True,
        "div_onto_zero_mean": True,
    }


def test_complex_check_dimensions_refined(mesh2):
    report = complex_check(mesh2)
    assert report["pass"]
    full, zt = report["dims_full"], report["dims_zero_trace"]
    assert (full["rank_grad"], full["rank_curl"], full["rank_div"]) == (26, 72, 48)
    assert (full["ker_curl"], full["ker_div"]) == (26, 72)
    assert (zt["rank_grad"], zt["rank_curl"], zt["rank_div"]) == (1, 25, 47)
    assert (zt["ker_curl"], zt["ker_div"]) == (1, 25)


def test_complex_check_seed_stability(mesh1):
    a = complex_check(mesh1, seed=3)
    b = complex_check(mesh1, seed=4)
    assert a["dims_full"] == b["dims_full"]
    assert a["commuting_residual"] <= 1e-10 and b["commuting_residual"] <= 1e-10


@pytest.mark.parametrize(
    "mesh_name",
    ["mesh1", "mesh2", "cube3", "single_tet", "two_cubes", "holed_mesh", "cavity_mesh"],
)
def test_complex_check_ranks_match_the_dense_svd(request, mesh_name):
    mesh = unit_cube_mesh(3) if mesh_name == "cube3" else request.getfixturevalue(mesh_name)
    topo = build_topology(mesh)
    G, K, D = topo.grad_incidence, topo.curl_incidence, topo.div_incidence
    iv = np.flatnonzero(~topo.boundary_vertices)
    ie = np.flatnonzero(~topo.boundary_edges)
    if_ = np.flatnonzero(~topo.boundary_faces)
    report = complex_check(mesh)
    for key, mats in (
        ("dims_full", (G, K, D)),
        ("dims_zero_trace", (G[ie][:, iv], K[if_][:, ie], D[:, if_])),
    ):
        dims = report[key]
        ranks = (dims["rank_grad"], dims["rank_curl"], dims["rank_div"])
        assert ranks == tuple(dense_rank(M) for M in mats)


@pytest.mark.parametrize("mesh_name", ["cube3", "single_tet", "two_cubes"])
def test_complex_check_makes_no_dense_matrix_without_a_hole(request, monkeypatch, mesh_name):
    mesh = unit_cube_mesh(3) if mesh_name == "cube3" else request.getfixturevalue(mesh_name)

    def refuse(*args, **kwargs):
        raise AssertionError("a dense rank was taken")

    monkeypatch.setattr(np.linalg, "matrix_rank", refuse)
    assert complex_check(mesh)["dims_full"]["exact_curl_div"]


def _random_integer_matrix(rng, shape, nnz):
    """Sparse integer matrix with entries in -3..3; duplicates are summed,
    so some stored entries may be zero."""
    rows = rng.integers(0, shape[0], nnz) if shape[0] else np.zeros(0, int)
    cols = rng.integers(0, shape[1], nnz) if shape[1] else np.zeros(0, int)
    vals = rng.integers(-3, 4, len(rows))
    return sp.coo_matrix((vals, (rows, cols)), shape=shape).tocsr()


def test_peeled_rank_matches_the_dense_svd():
    rng = np.random.default_rng(2022)
    mats = [sp.csr_matrix(shape, dtype=np.int64) for shape in ((0, 0), (0, 4), (4, 0), (3, 5))]
    for _ in range(40):
        shape = tuple(rng.integers(1, 30, 2))
        mats.append(_random_integer_matrix(rng, shape, rng.integers(1, 2 * sum(shape))))
        # a product through a narrow middle: sparse and rank deficient
        k = rng.integers(1, 6)
        mats.append(
            _random_integer_matrix(rng, (shape[0], k), shape[0])
            @ _random_integer_matrix(rng, (k, shape[1]), shape[1])
        )
        # a dense block of rank k next to a sparse block: every row and
        # column of the dense block holds several nonzeros, so it stays
        # as the core
        m = k + rng.integers(2, 6)
        core = rng.integers(1, 4, (m, k)) @ rng.integers(1, 4, (k, m))
        mats.append(sp.block_diag([core, mats[-2]], format="csr"))
    for M in mats:
        assert verify._rank(M) == dense_rank(M), M.shape


def _sequence_ranks(G, K, D):
    dims = verify._sequence_dims(G, K, D, K @ G)
    return dims["rank_grad"], dims["rank_curl"], dims["rank_div"]


def test_sequence_dims_skip_a_reduction_whose_identity_fails(topo2):
    G, K, D = topo2.grad_incidence, topo2.curl_incidence, topo2.div_incidence
    D0 = D[:, np.flatnonzero(~topo2.boundary_faces)]
    ne, nv = G.shape

    # a row of G that does not sum to zero: no grounding, and K G != 0
    G_row = G.copy()
    G_row.data[G_row.indptr[0]] *= 2
    assert len(verify._grounded(G_row)) == nv
    assert (K @ G_row).count_nonzero()
    # a face whose curl of a gradient is not zero: no cotree
    K_sign = K.copy()
    K_sign.data[0] *= -1
    assert len(verify._cotree(G[:, verify._grounded(G)], K_sign @ G)) == ne
    # edge 0 made unsigned, with the faces around it dropped: K G = 0 still,
    # but no row of G touches the ground, so it reaches no column
    G_abs = G.copy()
    G_abs.data[G_abs.indptr[0]:G_abs.indptr[1]] = 1
    K_off = K[np.flatnonzero(K[:, 0].toarray().ravel() == 0)]
    assert not (K_off @ G_abs).count_nonzero()
    assert len(verify._grounded(G_abs)) == nv
    assert len(verify._cotree(G_abs, K_off @ G_abs)) == ne
    # a column of D0 that does not sum to zero: no grounding of its cells
    D_col = D0.copy()
    D_col.data[0] *= 2
    assert len(verify._grounded(D_col.T)) == D.shape[0]

    for mats in ((G_row, K, D), (G, K_sign, D), (G_abs, K_off, D), (G, K, D_col)):
        assert _sequence_ranks(*mats) == tuple(dense_rank(M) for M in mats)


def test_complex_check_fails_on_a_hole_and_a_cavity(holed_mesh, cavity_mesh):
    holed, cavity = complex_check(holed_mesh), complex_check(cavity_mesh)
    for report in (holed, cavity):
        # the composites and the commuting diagram hold on any mesh; the
        # exactness counts see the harmonic fields
        assert report["curl_grad_max"] == 0 and report["div_curl_max"] == 0
        assert report["commuting_residual"] <= 1e-10
        assert report["pass"] is False

    full, zt = holed["dims_full"], holed["dims_zero_trace"]
    assert (full["rank_grad"], full["ker_curl"], full["exact_grad_curl"]) == (63, 64, False)
    assert (zt["rank_curl"], zt["ker_div"], zt["exact_curl_div"]) == (80, 81, False)

    full, zt = cavity["dims_full"], cavity["dims_zero_trace"]
    assert (full["rank_curl"], full["ker_div"], full["exact_curl_div"]) == (215, 216, False)
    assert (zt["rank_grad"], zt["ker_curl"], zt["exact_grad_curl"]) == (0, 1, False)


# ----------------------------------------------------------------------
# discrete L3 ratio study


@pytest.mark.parametrize("bc_family", FAMILIES)
def test_l3_ratios_bounded_under_refinement(bc_family):
    res = l3_study([1, 2], samples=10, bc_family=bc_family)
    assert res["levels"] == [1, 2]
    assert res["bc_family"] == bc_family
    assert all(np.isfinite(r) and r > 0 for r in res["max_ratios"])
    assert res["growth_ok"]
    assert res["max_ratios"][1] <= 1.10 * res["max_ratios"][0]


def test_l3_study_validation(monkeypatch):
    def no_mesh(n):
        raise AssertionError("a mesh was built before the arguments were checked")

    monkeypatch.setattr(verify, "unit_cube_mesh", no_mesh)
    for samples in (True, 2.5, "3", None):
        with pytest.raises(VerifyError, match="samples must be an integer"):
            l3_study([1, 2], samples=samples)
    with pytest.raises(VerifyError, match="at least one sample"):
        l3_study([1, 2], samples=0)
    with pytest.raises(VerifyError, match="unknown bc_family"):
        l3_study([1, 2], bc_family="mixed")
    for levels in ([], [4]):
        with pytest.raises(VerifyError, match="at least 2 levels"):
            l3_study(levels)
    for levels in ([4, 2], [0, 1]):
        with pytest.raises(VerifyError, match="strictly increasing and positive"):
            l3_study(levels)
    for levels in ([2, 2.5], [1.0, 2], [True, 2], [1, None]):
        with pytest.raises(VerifyError, match="levels must be integers"):
            l3_study(levels)


def test_l3_study_builds_only_the_curl(monkeypatch):
    # the study reads |curl_h d_h|_0 alone: no face mass M_B and no gauge
    # tree, so no cotree matrix either
    forms = []
    assemble = assembly.assemble_bilinear

    def spy(form_id, trial, test, **kwargs):
        forms.append((form_id, trial.kind))
        return assemble(form_id, trial, test, **kwargs)

    def no_tree(G):
        raise AssertionError("the L3 study built a gauge tree")

    monkeypatch.setattr(assembly, "assemble_bilinear", spy)
    monkeypatch.setattr(operators, "cotree_edges", no_tree)
    l3_study([1, 2], samples=2, bc_family="tangential_B")
    assert forms == [("vec_mass", "nedelec1_lowest"), ("curl_mass_pairing", "rt_lowest")] * 2


def test_l3_study_refuses_a_level_that_is_no_integer():
    # a bool is an int, but no level: True would run as n = 1; both are
    # refused by the study, before the first level is built
    for levels in ([True, 2], [1, 1.5]):
        with pytest.raises(VerifyError, match="levels must be integers"):
            l3_study(levels, samples=2)


@pytest.mark.parametrize("seed", [3, 1234])
@pytest.mark.parametrize("bc_family", FAMILIES)
def test_l3_study_matches_the_per_sample_oracle(bc_family, seed):
    # one block of fields per level against one field at a time
    levels = [1, 2, 4]
    got = l3_study(levels, samples=12, bc_family=bc_family, seed=seed)["max_ratios"]
    want = [r.max() for r in oracles.l3_ratios(levels, 12, bc_family, seed)]
    assert np.allclose(got, want, rtol=1e-13, atol=0.0)


def test_l3_study_peak_memory():
    # the cells are walked in blocks and the curl is one block solve: at
    # n = 8 a few (ndof, samples) arrays are held at once, and no table
    # over every cell, point and sample
    tracemalloc.start()
    try:
        l3_study([2, 4, 8], samples=50)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 40e6


def test_quadrature_self_check_peak_memory(solved_case_n4):
    # the loads of the two projections are integrated against the
    # barycentric tables: no (nc, nq, nloc, 3) basis table at degree 8
    case, driver, state, _ = solved_case_n4
    base = error_norms(driver, state, case)
    tracemalloc.start()
    try:
        quadrature_self_check(driver, state, case, base)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 28e6


def test_l3_study_is_deterministic():
    a = l3_study([1, 2], samples=5, seed=9)
    b = l3_study([1, 2], samples=5, seed=9)
    assert a["max_ratios"] == b["max_ratios"]
