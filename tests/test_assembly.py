"""Quadrature rules and sparse assembly of the coupled-system blocks."""

import itertools
import logging
import math
from fractions import Fraction

import numpy as np
import pytest

from mhdfem import assembly, derham
from mhdfem.assembly import (
    FORM_TABLE,
    MAX_QUAD_DEGREE,
    FormError,
    assemble_bilinear,
    assemble_linear,
    domain_integral_vector,
    quadrature_rule,
    quadrature_weights,
    scatter_load,
)
from mhdfem.derham import (
    FieldFunction,
    canonical_interpolate,
    evaluate_curl_on_cells,
    evaluate_div_on_cells,
    evaluate_on_cells,
    make_space,
    physical_points,
)
from mhdfem.mesh import build_topology, unit_cube_mesh
from mhdfem.mhd import MhdDriver
from mhdfem.verify import builtin_case
from oracles import (
    convection_skew,
    coo_scatter,
    cross_forms,
    curl_curl,
    grad_load,
    interleaved_scatter,
    load_vector,
    monolithic_system,
    scaled_local_matrices,
    tabulated_form,
    vertex_volume_weights,
)

RNG = np.random.default_rng(11)


def assert_summed_to_rounding(got, want, abs_sum, addends):
    """``got`` and ``want`` sum the same addends in two orders: the same
    pattern, and each entry within twice the recursive-summation bound
    (k - 1) eps sum |x| of its k addends x (``addends`` and ``abs_sum``
    are k and sum |x| on the pattern of ``want``)."""
    for M in (got, abs_sum, addends):
        assert np.array_equal(M.indptr, want.indptr)
        assert np.array_equal(M.indices, want.indices)
    bound = 2 * (addends.data - 1) * np.finfo(float).eps * abs_sum.data
    assert np.all(np.abs(got.data - want.data) <= bound)


# ----------------------------------------------------------------------
# quadrature rules


def test_rule_degree_one_is_centroid():
    rule = quadrature_rule(1)
    assert rule.points == pytest.approx(np.array([[0.25, 0.25, 0.25]]), abs=1e-14)
    assert rule.weights == pytest.approx([1.0 / 6.0], abs=1e-15)


def test_rule_integrates_xy():
    rule = quadrature_rule(2)
    val = np.einsum("q,q->", rule.weights, rule.points[:, 0] * rule.points[:, 1])
    assert val == pytest.approx(1.0 / 120.0, rel=1e-13)


@pytest.mark.parametrize("degree", range(1, MAX_QUAD_DEGREE + 1))
def test_rule_weights(degree):
    rule = quadrature_rule(degree)
    assert np.all(rule.weights > 0)
    assert rule.weights.sum() == pytest.approx(1.0 / 6.0, rel=1e-14)


@pytest.mark.parametrize("degree", range(1, MAX_QUAD_DEGREE + 1))
def test_rule_monomial_exactness(degree):
    # exact reference-tet integral of x^a y^b z^c is a! b! c! / (a+b+c+3)!
    rule = quadrature_rule(degree)
    x, y, z = rule.points.T
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            for c in range(degree + 1 - a - b):
                quad = np.einsum("q,q->", rule.weights, x**a * y**b * z**c)
                exact = (
                    math.factorial(a)
                    * math.factorial(b)
                    * math.factorial(c)
                    / math.factorial(a + b + c + 3)
                )
                assert quad == pytest.approx(exact, rel=1e-12), (a, b, c)


@pytest.mark.parametrize("degree", [0, MAX_QUAD_DEGREE + 1, 2.5, "4", True])
def test_rule_rejects_bad_degree(degree):
    with pytest.raises(FormError):
        quadrature_rule(degree)


def test_quadrature_weights_norm(mesh2):
    rule = quadrature_rule(2)
    wdet = quadrature_weights(mesh2, rule)
    assert wdet.sum() == pytest.approx(1.0, rel=1e-14)


# ----------------------------------------------------------------------
# mass and stiffness blocks


@pytest.mark.parametrize("kind", ["nedelec1_lowest", "rt_lowest", "lagrange_p2_vector"])
def test_vec_mass_spd(mesh1, topo1, kind):
    space = make_space(kind, "none", mesh1, topo1)
    M = assemble_bilinear("vec_mass", space, space).toarray()
    assert np.abs(M - M.T).max() <= 1e-15 * np.abs(M).max()
    np.linalg.cholesky(M)  # raises if not positive definite


def test_dg0_mass_is_volume_diagonal(mesh2, topo2):
    dg = make_space("dg0", "none", mesh2, topo2)
    M = assemble_bilinear("scalar_mass", dg, dg)
    assert M.toarray() == pytest.approx(np.diag(mesh2.volumes), abs=1e-16)


def test_p1_mass_row_sums_are_vertex_weights(mesh2, topo2):
    p1 = make_space("lagrange_p1", "none", mesh2, topo2)
    M = assemble_bilinear("scalar_mass", p1, p1)
    rowsum = np.asarray(M.sum(axis=1)).ravel()
    assert rowsum == pytest.approx(vertex_volume_weights(p1), rel=1e-13)


def test_grad_grad_annihilates_constants(mesh2, topo2):
    u = make_space("lagrange_p2_vector", "none", mesh2, topo2)
    K = assemble_bilinear("grad_grad", u, u)
    const = canonical_interpolate(u, lambda x: np.tile([1.0, -2.0, 0.5], (len(x), 1)))
    assert np.abs(K @ const.coeffs).max() <= 1e-13


# ----------------------------------------------------------------------
# pairings


def test_curl_pairing_value(mesh2, topo2):
    # (B, curl F) for interpolated smooth fields against direct quadrature
    ned = make_space("nedelec1_lowest", "none", mesh2, topo2)
    rt = make_space("rt_lowest", "none", mesh2, topo2)
    A = assemble_bilinear("curl_mass_pairing", rt, ned)
    B = canonical_interpolate(rt, lambda x: np.stack([x[:, 1], x[:, 2], x[:, 0]], axis=1))
    F = FieldFunction(ned, RNG.standard_normal(ned.ndof))
    lhs = F.coeffs @ (A @ B.coeffs)
    rule = quadrature_rule(4)
    wdet = quadrature_weights(mesh2, rule)
    Bvals = evaluate_on_cells(B, rule.points)
    curlF = evaluate_curl_on_cells(F)
    rhs = np.einsum("cq,cqd,cd->", wdet, Bvals, curlF)
    assert lhs == pytest.approx(rhs, rel=1e-13)


def test_div_scalar_gives_cell_integrals_of_div(mesh2, topo2):
    rt = make_space("rt_lowest", "none", mesh2, topo2)
    dg = make_space("dg0", "none", mesh2, topo2)
    D = assemble_bilinear("div_scalar", rt, dg)
    f = FieldFunction(rt, RNG.standard_normal(rt.ndof))
    assert D @ f.coeffs == pytest.approx(
        evaluate_div_on_cells(f) * mesh2.volumes, rel=1e-13, abs=1e-15
    )


def test_div_pressure_value(mesh2, topo2):
    u = make_space("lagrange_p2_vector", "essential_zero", mesh2, topo2)
    q = make_space("lagrange_p1", "none", mesh2, topo2)
    D = assemble_bilinear("div_pressure", u, q)
    uf = RNG.standard_normal(u.num_free)
    qf = RNG.standard_normal(q.num_free)
    lhs = qf @ (D @ uf)
    # direct quadrature of q * div(u)
    full = np.zeros(u.ndof)
    full[u.free] = uf
    uh = FieldFunction(u, full)
    rule = quadrature_rule(4)
    wdet = quadrature_weights(mesh2, rule)
    from mhdfem.derham import evaluate_grad_on_cells

    div_u = np.trace(evaluate_grad_on_cells(uh, rule.points), axis1=2, axis2=3)
    q_full = np.zeros(q.ndof)
    q_full[q.free] = qf
    q_vals = evaluate_on_cells(FieldFunction(q, q_full), rule.points)
    rhs = np.einsum("cq,cq,cq->", wdet, q_vals, div_u)
    assert lhs == pytest.approx(rhs, rel=1e-12)


# ----------------------------------------------------------------------
# quadratic forms of the differential blocks


def test_curl_curl_is_curl_norm(mesh2, topo2):
    ned = make_space("nedelec1_lowest", "none", mesh2, topo2)
    K = curl_curl(ned)
    f = FieldFunction(ned, RNG.standard_normal(ned.ndof))
    lhs = f.coeffs @ (K @ f.coeffs)
    curl = evaluate_curl_on_cells(f)
    rhs = np.einsum("c,cd,cd->", mesh2.volumes, curl, curl)
    assert lhs == pytest.approx(rhs, rel=1e-13)


def test_divdiv_is_div_norm(mesh2, topo2):
    rt = make_space("rt_lowest", "none", mesh2, topo2)
    K = assemble_bilinear("divdiv", rt, rt)
    f = FieldFunction(rt, RNG.standard_normal(rt.ndof))
    lhs = f.coeffs @ (K @ f.coeffs)
    div = evaluate_div_on_cells(f)
    rhs = np.einsum("c,c,c->", mesh2.volumes, div, div)
    assert lhs == pytest.approx(rhs, rel=1e-13)


# ----------------------------------------------------------------------
# the skew convection form


def test_convection_is_skew(mesh2, topo2):
    u = make_space("lagrange_p2_vector", "essential_zero", mesh2, topo2)
    w = canonical_interpolate(
        u, lambda x: np.stack([x[:, 1] * x[:, 2], -x[:, 0], x[:, 0] * x[:, 1]], axis=1)
    )
    C = assemble_bilinear("convection_skew", u, u, coefficient=w)
    scale = np.abs(C.data).max()
    sym = (C + C.T).tocoo()
    if sym.nnz:
        assert np.abs(sym.data).max() <= 1e-12 * scale
    for _ in range(5):
        x = RNG.standard_normal(u.num_free)
        assert abs(x @ (C @ x)) <= 1e-12 * scale * (x @ x)


# ----------------------------------------------------------------------
# the velocity forms that act on each component alike


@pytest.mark.parametrize(
    "form_id, cancelled", [("grad_grad", 988), ("vec_mass", 0), ("convection_skew", 343)]
)
def test_velocity_forms_store_only_the_component_blocks(form_id, cancelled):
    # grad_grad here is a driver's K_u on unit_cube_mesh(4); dual_f
    # factors its block on the first component.  Its exact moments
    # cancel each of the 988 sums within 1e-13 of zero to 0.0
    mesh = unit_cube_mesh(4)
    u = make_space("lagrange_p2_vector", "essential_zero", mesh, build_topology(mesh))
    w = None
    if form_id == "convection_skew":
        w = canonical_interpolate(
            u, lambda x: np.stack([x[:, 1] * x[:, 2], -x[:, 0], x[:, 0] * x[:, 1]], axis=1)
        )
    A = assemble_bilinear(form_id, u, u, coefficient=w)
    comp = u.free % 3
    coo = A.tocoo()
    assert np.array_equal(comp[coo.row], comp[coo.col])
    assert A.nnz == 3 * A[comp == 0][:, comp == 0].nnz
    # each component block is, to rounding and with the sums that cancel
    # exactly still stored, that of a scatter of the whole local matrices
    full = interleaved_scatter(form_id, u, w)
    local = scaled_local_matrices(form_id, u, u, w)
    abs_sum, addends = (
        coo_scatter(x, u, u, per_component=True) for x in (np.abs(local), np.ones_like(local))
    )
    for c in range(3):
        on = comp == c
        got, want, abs_on, addends_on = (M[on][:, on] for M in (A, full, abs_sum, addends))
        assert_summed_to_rounding(got, want, abs_on, addends_on)
        assert np.sum(got.data == 0) == cancelled


# ----------------------------------------------------------------------
# the scatter plan


# every form on every space pair it is defined on, with both boundary
# conditions (dg0 takes none)
FORM_CASES = [
    (form_id, trial, test, bc)
    for form_id, (trials, tests) in FORM_TABLE.items()
    for trial in trials
    for test in tests
    for bc in ("none", "essential_zero")
    if (form_id not in ("vec_mass", "scalar_mass") or trial == test)
    and (bc == "none" or (trial, test) != ("dg0", "dg0"))
]


@pytest.fixture(scope="module")
def plan_meshes(single_tet):
    # on one cell each entry has one addend, and with essential
    # conditions no dof is free
    meshes = {"cube2": unit_cube_mesh(2), "cube4": unit_cube_mesh(4), "tet": single_tet}
    return {name: (mesh, build_topology(mesh)) for name, mesh in meshes.items()}


def _spaces(mesh, topo, trial_kind, test_kind, bc):
    return tuple(
        make_space(kind, "none" if kind == "dg0" else bc, mesh, topo)
        for kind in (trial_kind, test_kind)
    )


def _per_component(form_id, trial_kind):
    return form_id in assembly._PER_COMPONENT and trial_kind == "lagrange_p2_vector"


def _coefficient(form_id, mesh, topo):
    """A nonzero frozen field for the forms that take one."""
    if form_id == "convection_skew":
        u = make_space("lagrange_p2_vector", "none", mesh, topo)
        return canonical_interpolate(
            u, lambda x: np.stack([x[:, 1] * x[:, 2] - 0.3, -x[:, 0], x[:, 0] * x[:, 1]], axis=1)
        )
    if form_id in ("ohm_cross", "lorentz_cross"):
        rt = make_space("rt_lowest", "none", mesh, topo)
        return canonical_interpolate(
            rt, lambda x: np.stack([np.sin(x[:, 1]), 0.5 - x[:, 2], x[:, 0] ** 2], axis=1)
        )
    return None


@pytest.mark.parametrize("mesh_name", ["cube2", "cube4", "tet"])
@pytest.mark.parametrize("form_id, trial_kind, test_kind, bc", FORM_CASES)
def test_assembly_is_the_coo_scatter_to_rounding(
    plan_meshes, mesh_name, form_id, trial_kind, test_kind, bc
):
    mesh, topo = plan_meshes[mesh_name]
    trial, test = _spaces(mesh, topo, trial_kind, test_kind, bc)
    coefficient = _coefficient(form_id, mesh, topo)
    A = assemble_bilinear(form_id, trial, test, coefficient=coefficient)
    per_component = _per_component(form_id, trial_kind)
    local = scaled_local_matrices(form_id, trial, test, coefficient)
    want, abs_sum, addends = (
        coo_scatter(x, trial, test, per_component=per_component)
        for x in (local, np.abs(local), np.ones_like(local))
    )
    assert A.shape == want.shape
    assert_summed_to_rounding(A, want, abs_sum, addends)


# the forms without a frozen field, which the cross and convection
# oracles below do not cover
CONSTANT_CASES = [case for case in FORM_CASES if case[0] not in assembly._COEFFICIENT_KINDS]


@pytest.mark.parametrize("mesh_name", ["mesh2", "jittered_mesh", "single_tet"])
@pytest.mark.parametrize("form_id, trial_kind, test_kind, bc", CONSTANT_CASES)
def test_constant_forms_match_the_tabulated_form(
    request, mesh_name, form_id, trial_kind, test_kind, bc
):
    mesh = request.getfixturevalue(mesh_name)
    trial, test = _spaces(mesh, build_topology(mesh), trial_kind, test_kind, bc)
    got = assemble_bilinear(form_id, trial, test).toarray()
    want = tabulated_form(form_id, trial, test, quadrature_rule(6))
    assert got.shape == want.shape
    assert np.abs(got - want).max(initial=0.0) <= 1e-13 * np.abs(want).max(initial=0.0)


def test_bilinear_forms_build_no_quadrature_rule(plan_meshes, monkeypatch):
    mesh, topo = plan_meshes["cube2"]
    cases = [
        (form_id, *_spaces(mesh, topo, trial, test, bc), _coefficient(form_id, mesh, topo))
        for form_id, trial, test, bc in FORM_CASES
    ]

    def refuse(degree):
        raise AssertionError(f"a bilinear form built a degree-{degree} rule")

    monkeypatch.setattr(assembly, "quadrature_rule", refuse)
    for form_id, trial, test, coefficient in cases:
        assemble_bilinear(form_id, trial, test, coefficient=coefficient)


@pytest.mark.parametrize(
    "form_id, kind",
    [
        ("lorentz_cross", "lagrange_p2_vector"),  # blocks computed per call
        ("vec_mass", "lagrange_p2_vector"),  # one block broadcast read-only
    ],
)
def test_the_det_scaling_is_the_product_bit_for_bit(plan_meshes, form_id, kind):
    # |det J| scales each cell's block exactly once, as local * scale
    mesh, topo = plan_meshes["cube4"]
    trial, test = _spaces(mesh, topo, kind, kind, "essential_zero")
    coefficient = _coefficient(form_id, mesh, topo)
    local = scaled_local_matrices(form_id, trial, test, coefficient)
    want = assembly._scatter(local, trial, test, per_component=_per_component(form_id, kind))
    # twice: the first call scales nothing that the second one reads
    for _ in range(2):
        A = assemble_bilinear(form_id, trial, test, coefficient=coefficient)
        for name in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(A, name), getattr(want, name)), name


@pytest.mark.parametrize("block", [1, 7, 1 << 30])
def test_the_scatter_plan_does_not_depend_on_the_block_size(plan_meshes, monkeypatch, block):
    # a row cut across two blocks would store one (row, col) twice
    mesh, topo = plan_meshes["cube4"]

    def plans():
        for form_id, trial_kind, test_kind, bc in FORM_CASES:
            mesh._cache.clear()
            trial, test = _spaces(mesh, topo, trial_kind, test_kind, bc)
            yield assembly._scatter_plan(trial, test, _per_component(form_id, trial_kind))

    default = list(plans())
    monkeypatch.setattr(assembly, "_PLAN_BLOCK", block)
    for want, got in zip(default, plans(), strict=True):
        for name in ("src", "slot", "indptr", "indices"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name


def test_scatter_plans_are_built_once_per_mesh_and_space_pair(monkeypatch):
    built = []
    build = assembly._build_scatter_plan

    def counting_build(trial, test, per_component):
        built.append(trial.mesh)
        return build(trial, test, per_component)

    monkeypatch.setattr(assembly, "_build_scatter_plan", counting_build)
    case = builtin_case("tangential_B", 10.0, Re=10.0, Rm=10.0)

    def driver_and_step(mesh):
        driver = MhdDriver(mesh, case.params(), case.sources())
        at_init = len(built)
        u, B = FieldFunction.zeros(driver.u_space), FieldFunction.zeros(driver.B_space)
        u.coeffs[driver.u_space.free] = RNG.standard_normal(driver.u_space.num_free)
        B.coeffs[driver.B_space.free] = RNG.standard_normal(driver.B_space.num_free)
        monolithic_system(driver, "augmented", u, B)
        return driver, u, B, at_init

    mesh = unit_cube_mesh(2)
    first, u, B, at_init = driver_and_step(mesh)
    # the first step adds the plans of ohm_cross and lorentz_cross;
    # convection_skew shares the per-component plan of K_u
    assert at_init > 0 and len(built) == at_init + 2
    assert all(m is mesh for m in built)
    monolithic_system(first, "augmented", u, B)
    assemble_bilinear("convection_skew", first.u_space, first.u_space, coefficient=u)
    assemble_bilinear("lorentz_cross", first.u_space, first.u_space, coefficient=B)
    assert len(built) == at_init + 2
    # a second driver on the same mesh builds nothing
    driver_and_step(mesh)
    assert len(built) == at_init + 2
    # a mesh of the same size gets plans of its own
    other = unit_cube_mesh(2)
    driver_and_step(other)
    assert len(built) == 2 * (at_init + 2)
    assert all(m is other for m in built[at_init + 2 :])


def test_a_plan_build_logs_one_debug_record(caplog):
    mesh = unit_cube_mesh(1)
    ned = make_space("nedelec1_lowest", "essential_zero", mesh, build_topology(mesh))
    with caplog.at_level(logging.DEBUG, logger="mhdfem.assembly"):
        assemble_bilinear("vec_mass", ned, ned)
        assemble_bilinear("vec_mass", ned, ned)
    records = [r.getMessage() for r in caplog.records if r.name == "mhdfem.assembly"]
    assert len(records) == 1
    assert "nedelec1_lowest/essential_zero x nedelec1_lowest/essential_zero" in records[0]
    assert "local entries" in records[0] and "MB" in records[0]


# ----------------------------------------------------------------------
# the magnetic cross forms


B_CONST = np.array([0.3, -1.2, 0.7])


def _constant_B(mesh, topo):
    rt = make_space("rt_lowest", "none", mesh, topo)
    return canonical_interpolate(rt, lambda x: np.tile(B_CONST, (len(x), 1)))


def test_lorentz_cross_is_the_projected_mass(mesh2, topo2):
    # (u x B, v x B) = u^T (|B|^2 I - B B^T) v pointwise, so at constant B
    # the form is the velocity mass acting on each nodal vector times C
    u = make_space("lagrange_p2_vector", "essential_zero", mesh2, topo2)
    Luu = assemble_bilinear("lorentz_cross", u, u, coefficient=_constant_B(mesh2, topo2))
    M_u = assemble_bilinear("vec_mass", u, u)
    C = (B_CONST @ B_CONST) * np.eye(3) - np.outer(B_CONST, B_CONST)
    x = RNG.standard_normal(u.num_free)
    expected = M_u @ (x.reshape(-1, 3) @ C).ravel()
    assert np.abs(Luu @ x - expected).max() <= 1e-13 * np.abs(expected).max()


def test_ohm_cross_is_the_load_of_u_cross_B(mesh2, topo2):
    u = make_space("lagrange_p2_vector", "essential_zero", mesh2, topo2)
    ned = make_space("nedelec1_lowest", "essential_zero", mesh2, topo2)
    O = assemble_bilinear("ohm_cross", u, ned, coefficient=_constant_B(mesh2, topo2))
    uh = FieldFunction.zeros(u)
    uh.coeffs[u.free] = RNG.standard_normal(u.num_free)
    # u x B tabulated at the degree-6 points in the load's cell-major order
    uvals = evaluate_on_cells(uh, quadrature_rule(6).points).reshape(-1, 3)
    expected = assemble_linear(ned, lambda x: np.cross(uvals, B_CONST), quad_degree=6)
    got = O @ uh.coeffs[u.free]
    assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()


def assert_close(got, want):
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


# the meshes the brute-force oracles run on: the Kuhn cube has six cell
# shapes, the jittered one no two alike, and on one cell no dof is free
# under essential conditions.  The driver always holds the velocity
# essential and gives E and B either condition, so the cross forms also
# pair an essential velocity with natural fields
VELOCITY_CASES = [
    (mesh_name, bc) for mesh_name in ("mesh2", "jittered_mesh") for bc in ("essential_zero", "none")
] + [("single_tet", "none")]
CROSS_CASES = [
    (mesh_name, "essential_zero", field_bc)
    for mesh_name in ("mesh2", "jittered_mesh")
    for field_bc in ("essential_zero", "none")
] + [("single_tet", "none", "none")]


@pytest.mark.parametrize("mesh_name, u_bc, field_bc", CROSS_CASES)
def test_cross_forms_match_the_tabulated_cross_at_a_varying_field(
    request, mesh_name, u_bc, field_bc
):
    # a random RT field varies from point to point, so a per-point
    # indexing slip in the contraction shows here but not at constant B
    mesh = request.getfixturevalue(mesh_name)
    u = make_space("lagrange_p2_vector", u_bc, mesh)
    ned = make_space("nedelec1_lowest", field_bc, mesh, u.topology)
    rt = make_space("rt_lowest", field_bc, mesh, u.topology)
    rng = np.random.default_rng(5)
    B = FieldFunction.from_free(rt, rng.standard_normal(rt.num_free))
    O = assemble_bilinear("ohm_cross", u, ned, coefficient=B).toarray()
    Luu = assemble_bilinear("lorentz_cross", u, u, coefficient=B).toarray()
    rule = quadrature_rule(6)
    O_ref, Luu_ref = cross_forms(u, ned, B, rule)
    assert_close(O, O_ref)
    assert_close(Luu, Luu_ref)

    uh = FieldFunction.from_free(u, rng.standard_normal(u.num_free))
    x = uh.coeffs[u.free]
    uxb = np.cross(evaluate_on_cells(uh, rule.points), evaluate_on_cells(B, rule.points))
    expected = np.sum(quadrature_weights(mesh, rule) * np.sum(uxb**2, axis=-1))
    assert abs(x @ Luu @ x - expected) <= 1e-13 * expected


@pytest.mark.parametrize("mesh_name, bc", VELOCITY_CASES)
def test_convection_matches_the_tabulated_form_at_a_varying_field(request, mesh_name, bc):
    mesh = request.getfixturevalue(mesh_name)
    u = make_space("lagrange_p2_vector", bc, mesh)
    w = FieldFunction.from_free(u, np.random.default_rng(6).standard_normal(u.num_free))
    C = assemble_bilinear("convection_skew", u, u, coefficient=w).toarray()
    assert_close(C, convection_skew(u, w, quadrature_rule(6)))


def _exact_moment(alpha) -> Fraction:
    """int lambda^alpha over the reference cell, exactly: lambda_0 =
    1 - x - y - z expanded by the multinomial theorem, and each monomial
    x^a y^b z^c integrated as a! b! c! / (a + b + c + 3)!."""
    f = math.factorial
    a0, a1, a2, a3 = alpha
    total = Fraction(0)
    for i, j, k in itertools.product(range(a0 + 1), repeat=3):
        if i + j + k <= a0:
            multinomial = f(a0) // (f(a0 - i - j - k) * f(i) * f(j) * f(k))
            x, y, z = a1 + i, a2 + j, a3 + k
            sign = (-1) ** (i + j + k)
            total += sign * multinomial * Fraction(f(x) * f(y) * f(z), f(x + y + z + 3))
    return total


def _alpha(*ks) -> tuple:
    """The multi-index of lambda_k1 ... lambda_kn."""
    return tuple(ks.count(k) for k in range(4))


@pytest.mark.parametrize("order", range(7))
def test_the_lambda_moments_are_exact_bit_for_bit(order):
    got = assembly.lambda_moments(order)
    assert got.shape == (4,) * order
    for index in np.ndindex(got.shape):
        assert got[index] == float(_exact_moment(_alpha(*index))), index


def _product(*polys) -> dict:
    """The product of polynomials in lambda, each {alpha: coefficient}."""
    out = {(0, 0, 0, 0): 1}
    for poly in polys:
        prod = {}
        for (a, ca), (b, cb) in itertools.product(out.items(), poly.items()):
            key = tuple(x + y for x, y in zip(a, b))
            prod[key] = prod.get(key, 0) + ca * cb
        out = prod
    return out


def _exact_reference_moments() -> np.ndarray:
    """int phi_a phi_b lambda_k lambda_l as Fractions, with the P2 basis
    written as lambda_a (2 lambda_a - 1) and 4 lambda_a lambda_b."""
    p2 = [{_alpha(a, a): 2, _alpha(a): -1} for a in range(4)]
    p2 += [{_alpha(a, b): 4} for a, b in derham.LOCAL_EDGES]
    M = np.empty((10, 10, 4, 4), dtype=object)
    for a, b, k, l in np.ndindex(M.shape):
        poly = _product(p2[a], p2[b], {_alpha(k, l): 1})
        M[a, b, k, l] = sum(c * _exact_moment(alpha) for alpha, c in poly.items())
    return M


# form_id -> the moment table it contracts, from the Lorentz table M
MOMENT_TABLES = {
    "lorentz_cross": lambda M: M,
    "ohm_cross": lambda M: M.sum(axis=1),
    "convection_skew": lambda M: M.sum(axis=3),
    "vec_mass": lambda M: M.sum(axis=(2, 3)),
}


@pytest.mark.parametrize("form_id", MOMENT_TABLES)
def test_the_moment_tables_are_exact(form_id):
    # within a few ulp of the largest entry of the exact table
    table = MOMENT_TABLES[form_id]
    got = table(assembly.reference_moments())
    want = table(_exact_reference_moments()).astype(float)
    assert np.abs(got - want).max() <= 4 * np.finfo(float).eps * np.abs(want).max()


def test_the_reference_nodes_are_those_of_the_bases():
    # a linear field at the vertices gives its barycentric coefficients,
    # and a P2 field at the P2 nodes its nodal values
    assert np.array_equal(derham.reference_barycentric(derham.REFERENCE_VERTICES), np.eye(4))
    assert np.array_equal(derham.p2_scalar_values(derham.P2_NODES), np.eye(10))


def test_coefficient_forms_evaluate_their_field_at_a_few_reference_nodes(mesh2, monkeypatch):
    # the frozen field enters through its values at the reference vertices
    # or P2 nodes; a kernel that evaluated it at the quadrature points
    # would read 27 or more
    u = make_space("lagrange_p2_vector", "none", mesh2)
    ned = make_space("nedelec1_lowest", "none", mesh2, u.topology)
    rt = make_space("rt_lowest", "none", mesh2, u.topology)
    B = FieldFunction(rt, RNG.standard_normal(rt.ndof))
    w = FieldFunction(u, RNG.standard_normal(u.ndof))
    evaluate = derham.evaluate_on_cells
    points = []

    def counting_evaluate(f, pts):
        points.append(len(pts))
        return evaluate(f, pts)

    monkeypatch.setattr(derham, "evaluate_on_cells", counting_evaluate)
    for form_id, test, coefficient in [
        ("ohm_cross", ned, B), ("lorentz_cross", u, B), ("convection_skew", u, w)
    ]:
        points.clear()
        assemble_bilinear(form_id, u, test, coefficient=coefficient)
        assert points and max(points) <= 10, form_id


def test_lorentz_cross_takes_only_velocity_trials(mesh1, topo1):
    u = make_space("lagrange_p2_vector", "none", mesh1, topo1)
    ned = make_space("nedelec1_lowest", "none", mesh1, topo1)
    with pytest.raises(FormError, match="trial space"):
        assemble_bilinear("lorentz_cross", ned, u, coefficient=_constant_B(mesh1, topo1))


# ----------------------------------------------------------------------
# load vectors


def test_zero_load(mesh1):
    ned = make_space("nedelec1_lowest", "none", mesh1)
    vec = assemble_linear(ned, lambda x: np.zeros((len(x), 3)))
    assert np.abs(vec).max() == 0.0


def test_constant_load_on_velocity_space(mesh2, topo2):
    # f = (1,0,0): entries are integrals of the x-component basis functions,
    # with closed forms int phi_vertex = -|T|/20 and int phi_edge = |T|/5
    u = make_space("lagrange_p2_vector", "essential_zero", mesh2, topo2)
    vec = assemble_linear(u, lambda x: np.tile([1.0, 0.0, 0.0], (len(x), 1)))
    vols = mesh2.volumes
    expected = np.zeros(u.ndof)
    contrib = np.concatenate(
        [np.tile(-vols[:, None] / 20.0, (1, 4)), np.tile(vols[:, None] / 5.0, (1, 6))],
        axis=1,
    )
    np.add.at(expected, u.dofmap[:, 0::3].ravel(), contrib.ravel())
    assert vec == pytest.approx(expected[u.free], abs=1e-15)


def test_load_pairing_matches_quadrature(mesh2, topo2):
    rt = make_space("rt_lowest", "none", mesh2, topo2)
    func = lambda x: np.stack([np.sin(x[:, 0]), x[:, 1] ** 2, np.cos(x[:, 2])], axis=1)
    vec = assemble_linear(rt, func, quad_degree=8)
    f = FieldFunction(rt, RNG.standard_normal(rt.ndof))
    lhs = vec @ f.coeffs
    rule = quadrature_rule(8)
    wdet = quadrature_weights(mesh2, rule)
    fvals = evaluate_on_cells(f, rule.points)
    gvals = func(physical_points(mesh2, rule.points).reshape(-1, 3)).reshape(fvals.shape)
    rhs = np.einsum("cq,cqd,cqd->", wdet, fvals, gvals)
    assert lhs == pytest.approx(rhs, rel=1e-13)


def _scalar_source(x):
    return np.sin(x[:, 0] + 2.0 * x[:, 1]) * np.exp(x[:, 2]) + x[:, 0] ** 3


def _vector_source(x):
    return np.stack([_scalar_source(x), np.cos(x[:, 1] * x[:, 2]), x[:, 0] * x[:, 1] ** 2], axis=1)


@pytest.mark.parametrize(
    "kind", ["lagrange_p1", "dg0", "nedelec1_lowest", "rt_lowest", "lagrange_p2_vector"]
)
def test_every_load_is_the_per_dof_quadrature_sum(mesh2, topo2, kind):
    space = make_space(kind, "none" if kind == "dg0" else "essential_zero", mesh2, topo2)
    func = _scalar_source if kind in ("lagrange_p1", "dg0") else _vector_source
    want = load_vector(space, func, quadrature_rule(6))
    got = assemble_linear(space, func)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("kind", ["nedelec1_lowest", "rt_lowest"])
def test_edge_and_face_loads_on_a_jittered_mesh(jittered_mesh, kind):
    # every cell has its own table, and no two are alike
    space = make_space(kind, "essential_zero", jittered_mesh)
    want = load_vector(space, _vector_source, quadrature_rule(6))
    got = assemble_linear(space, _vector_source)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def _tensor_source(x):
    # no symmetry between the rows i and the columns j
    return np.stack([_vector_source(x), _vector_source(x[:, ::-1]) ** 2, np.exp(x)], axis=1)


def _gradient_local_loads(space, grad_func, degree):
    """sum_q w_q |det J_c| G(x_q) : grad(phi_a e_i)(x_q) per cell, (nc, 30)."""
    rule = quadrature_rule(degree)
    xq = physical_points(space.mesh, rule.points)
    G = grad_func(xq.reshape(-1, 3)).reshape(xq.shape[:2] + (3, 3))
    Gw = G * quadrature_weights(space.mesh, rule)[..., None, None]
    return derham.integrate_against_gradients(space, Gw, rule.points)


@pytest.mark.parametrize("degree", [2, 4, 6, 8])
@pytest.mark.parametrize("mesh_name", ["mesh2", "jittered_mesh", "single_tet"])
def test_grad_load_is_the_per_point_einsum(request, mesh_name, degree):
    space = make_space("lagrange_p2_vector", "none", request.getfixturevalue(mesh_name))
    want = grad_load(space, _tensor_source, degree)
    got = scatter_load(space, _gradient_local_loads(space, _tensor_source, degree))
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_loads_never_tabulate_a_basis(mesh2, topo2, monkeypatch):
    # loads are integrated against the barycentric tables: no
    # (nc, nq, nloc, 3) basis or gradient table is built; only a scalar
    # basis, the same on every cell, is taken at the points
    real = derham.basis_values

    def refuse(space, points):
        if space.value_shape != ():
            raise AssertionError("a basis was tabulated at every point")
        return real(space, points)

    monkeypatch.setattr(derham, "basis_values", refuse)
    for kind in ("lagrange_p1", "dg0", "nedelec1_lowest", "rt_lowest", "lagrange_p2_vector"):
        space = make_space(kind, "none", mesh2, topo2)
        assemble_linear(space, _scalar_source if space.value_shape == () else _vector_source)
    u = make_space("lagrange_p2_vector", "essential_zero", mesh2, topo2)
    scatter_load(u, _gradient_local_loads(u, _tensor_source, 6))


@pytest.mark.parametrize(
    "kind, values, expected",
    [
        # a vector source on a scalar space used to give its x component
        ("lagrange_p1", (3,), "(N,)"),
        ("dg0", (3,), "(N,)"),
        ("lagrange_p1", (5, 7), "(N,)"),
        ("dg0", (1,), "(N,)"),
        # a scalar source on a vector space used to be broadcast (s, s, s)
        ("nedelec1_lowest", (), "(N, 3)"),
        ("rt_lowest", (), "(N, 3)"),
        ("lagrange_p2_vector", (), "(N, 3)"),
        ("nedelec1_lowest", (2,), "(N, 3)"),
        ("lagrange_p2_vector", (3, 3), "(N, 3)"),
    ],
)
def test_a_source_of_the_wrong_shape_is_refused(mesh1, topo1, kind, values, expected):
    space = make_space(kind, "none", mesh1, topo1)
    rule = quadrature_rule(6)
    n = mesh1.num_cells * len(rule.weights)
    with pytest.raises(FormError) as err:
        assemble_linear(space, lambda x: np.ones((len(x),) + values))
    got = str((n,) + values)
    assert expected.replace("N", str(n)) in str(err.value) and got in str(err.value)


def test_a_source_at_too_few_points_is_refused(mesh1, topo1):
    p1 = make_space("lagrange_p1", "none", mesh1, topo1)
    with pytest.raises(FormError, match="expected"):
        assemble_linear(p1, lambda x: np.ones(len(x) - 1))


def test_magnetic_source_load_closes_ohm_identity(mesh2, topo2):
    # the magnetic source satisfies g = s (j - curl B / Rm) pointwise, so
    # <g, F> = s (j, F) - (s/Rm) (B, curl F) for any F with zero tangential
    # trace; checked with the interpolated exact electric field as F
    case = builtin_case("normal_B")
    ned = make_space("nedelec1_lowest", "essential_zero", mesh2, topo2)
    load = assemble_linear(ned, case.g, quad_degree=6)
    F = canonical_interpolate(ned, case.E)
    lhs = load @ F.coeffs[ned.free]

    rule = quadrature_rule(10)
    wdet = quadrature_weights(mesh2, rule)
    x = physical_points(mesh2, rule.points).reshape(-1, 3)
    j = case.E(x) + np.cross(case.u(x), case.B(x))
    B = case.B(x)
    Fvals = evaluate_on_cells(F, rule.points)
    curlF = evaluate_curl_on_cells(F)
    s, Rm = 1.0, 1.0
    rhs = s * np.einsum("cq,cqd,cqd->", wdet, j.reshape(Fvals.shape), Fvals)
    rhs -= (s / Rm) * np.einsum("cq,cqd,cd->", wdet, B.reshape(Fvals.shape), curlF)
    assert abs(lhs - rhs) <= 1e-8


def test_domain_integral_vector(mesh2, topo2):
    dg = make_space("dg0", "none", mesh2, topo2)
    assert domain_integral_vector(dg) == pytest.approx(mesh2.volumes, abs=1e-16)
    p1 = make_space("lagrange_p1", "none", mesh2, topo2)
    vec = domain_integral_vector(p1)
    assert vec == pytest.approx(vertex_volume_weights(p1), rel=1e-13)


# ----------------------------------------------------------------------
# determinism and error paths


def test_assembly_is_deterministic(mesh2, topo2):
    u = make_space("lagrange_p2_vector", "essential_zero", mesh2, topo2)
    w = canonical_interpolate(u, lambda x: np.stack([x[:, 1], x[:, 2], x[:, 0]], axis=1))
    A = assemble_bilinear("convection_skew", u, u, coefficient=w)
    B = assemble_bilinear("convection_skew", u, u, coefficient=w)
    assert np.array_equal(A.indptr, B.indptr)
    assert np.array_equal(A.indices, B.indices)
    assert np.array_equal(A.data, B.data)


def test_form_errors(mesh1, mesh2, topo1, topo2):
    ned1 = make_space("nedelec1_lowest", "none", mesh1, topo1)
    rt1 = make_space("rt_lowest", "none", mesh1, topo1)
    rt2 = make_space("rt_lowest", "none", mesh2, topo2)
    u1 = make_space("lagrange_p2_vector", "none", mesh1, topo1)
    with pytest.raises(FormError, match="unknown form"):
        assemble_bilinear("mass_mass", ned1, ned1)
    with pytest.raises(FormError, match="trial space"):
        assemble_bilinear("grad_grad", ned1, ned1)
    with pytest.raises(FormError, match="test space"):
        assemble_bilinear("curl_mass_pairing", rt1, rt1)
    with pytest.raises(FormError, match="different meshes"):
        assemble_bilinear("vec_mass", rt1, rt2)
    with pytest.raises(FormError, match="pairs a space with itself"):
        assemble_bilinear("vec_mass", rt1, ned1)
    with pytest.raises(FormError, match="coefficient"):
        assemble_bilinear("convection_skew", u1, u1)
    # the moments hold B linear: a quadratic field is refused
    with pytest.raises(FormError, match="coefficient in 'lagrange_p2_vector'"):
        assemble_bilinear("lorentz_cross", u1, u1, coefficient=FieldFunction.zeros(u1))
    dg1 = make_space("dg0", "none", mesh1, topo1)
    with pytest.raises(FormError, match="coefficient in 'dg0'"):
        assemble_bilinear("convection_skew", u1, u1, coefficient=FieldFunction.zeros(dg1))


@pytest.mark.parametrize("form_id", ["convection_skew", "ohm_cross", "lorentz_cross"])
def test_a_coefficient_on_another_mesh_is_refused(mesh2, topo2, jittered_mesh, form_id):
    # the jittered copy of unit_cube_mesh(2) has as many cells as mesh2
    u = make_space("lagrange_p2_vector", "none", jittered_mesh)
    test = u
    if form_id == "ohm_cross":
        test = make_space("nedelec1_lowest", "none", jittered_mesh, u.topology)
    coefficient = _coefficient(form_id, mesh2, topo2)
    assert coefficient.space.mesh.num_cells == jittered_mesh.num_cells
    with pytest.raises(FormError, match="another mesh"):
        assemble_bilinear(form_id, u, test, coefficient=coefficient)
