"""Picard driver: step assembly, invariants, diagnostics, formulations."""

import logging
import re
import types

import numpy as np
import pytest
import scipy.sparse as sp

from mhdfem import assembly, linalg, operators
from mhdfem.derham import FieldFunction, build_topology, evaluate_on_cells
from mhdfem.mesh import unit_cube_mesh
from mhdfem.mhd import MhdDriver, MhdError, MhdParams, MhdState, SourceData
from mhdfem.verify import builtin_case
from oracles import (
    formulation_gaps,
    grad_load,
    monolithic_step,
    monolithic_system,
    reduced_equivalence_check,
    stability_weight_matrix,
)
from test_linalg import _call_sites

FAMILIES = ("normal_B", "tangential_B")
FORMULATIONS = ("multiplier", "augmented")


def _same_matrix(A, B):
    diff = (A - B).tocoo()
    assert diff.nnz == 0 or np.abs(diff.data).max() == 0.0


def _blocks(drv, formulation, A):
    """Sub-blocks of a formulation's step matrix keyed by (test, trial)
    unknown names, sized from the spaces, with one row per border."""
    unknowns = drv.formulations[formulation][0]
    sizes = [drv.spaces[f].num_free if f in drv.spaces else 1 for f in unknowns]
    cuts = np.cumsum([0] + sizes)
    assert A.shape == (cuts[-1], cuts[-1])
    spans = dict(zip(unknowns, zip(cuts[:-1], cuts[1:])))
    return {
        (t, f): A[i0:i1, j0:j1]
        for t, (i0, i1) in spans.items()
        for f, (j0, j1) in spans.items()
    }


def _nonzero_blocks(blocks) -> set:
    return {key for key, block in blocks.items() if block.count_nonzero()}


def _random_prev(drv):
    rng = np.random.default_rng(3)
    u_prev = FieldFunction.zeros(drv.u_space)
    u_prev.coeffs[drv.u_space.free] = rng.standard_normal(drv.u_space.num_free)
    B_prev = FieldFunction.zeros(drv.B_space)
    B_prev.coeffs[drv.B_space.free] = rng.standard_normal(drv.B_space.num_free)
    return u_prev, B_prev


@pytest.fixture(scope="module", params=FAMILIES)
def g_zero_run(request, mesh2):
    """Velocity forcing only, started from a random magnetic field.

    The magnetic branch of the fixed point is zero, so every iterate
    carries a genuinely nonzero transient (E, B) pair, which is what the
    per-iterate Ohm-block checks need.
    """
    case = builtin_case(request.param)
    src = SourceData(f=case.sources().f, g=None)
    driver = MhdDriver(mesh2, case.params(), src)
    rng = np.random.default_rng(11)
    init = driver.zero_state()
    init.B.coeffs[driver.B_space.free] = rng.standard_normal(driver.B_space.num_free)
    state, report = driver.picard_solve(tol=1e-11, maxit=50, init=init, keep_states=True)
    assert report.converged
    return driver, state, report


# ----------------------------------------------------------------------
# parameters and state plumbing


@pytest.mark.parametrize(
    "kwargs, match",
    [
        ({"Re": 0.0}, "must be positive"),
        ({"Rm": -2.0}, "must be positive"),
        ({"s": 0.0}, "must be positive"),
        ({"bc_family": "periodic"}, "unknown bc_family"),
        ({"Re": np.inf}, "must be positive"),
        ({"Rm": np.inf}, "must be positive"),
        ({"s": np.inf}, "must be positive"),
        ({"Re": np.nan}, "must be positive"),
        ({"Rm": np.nan}, "must be positive"),
        ({"s": np.nan}, "must be positive"),
    ],
)
def test_params_validation(kwargs, match):
    base = {"Re": 1.0, "Rm": 1.0, "s": 1.0, "bc_family": "normal_B"}
    base.update(kwargs)
    with pytest.raises(MhdError, match=match):
        MhdParams(**base)


def test_params_alpha_and_dict():
    p = MhdParams(Re=2.0, Rm=4.0, s=3.0, bc_family="tangential_B")
    assert p.alpha == pytest.approx(0.75)
    d = p.as_dict()
    assert d["alpha"] == pytest.approx(0.75)
    assert d["bc_family"] == "tangential_B"


def test_zero_state_multiplier_carries_r(mesh2):
    case = builtin_case("normal_B")
    drv = MhdDriver(mesh2, case.params())
    state = drv.zero_state()
    assert state.r is not None
    assert not np.any(state.u.coeffs) and not np.any(state.B.coeffs)


def test_picard_argument_validation(mesh2):
    drv = MhdDriver(mesh2, builtin_case("normal_B").params("multiplier"))
    with pytest.raises(MhdError, match="need tol > 0"):
        drv.picard_solve(tol=0.0)
    with pytest.raises(MhdError, match="need tol > 0"):
        drv.picard_solve(maxit=0)


# ----------------------------------------------------------------------
# one-step assembly structure


def test_zero_prev_block_layout(mesh2):
    case = builtin_case("normal_B")
    drv = MhdDriver(mesh2, case.params(), case.sources())
    A, b = monolithic_system(drv, "multiplier", drv.zero_state().u, drv.zero_state().B)

    assert drv.formulations["multiplier"][0] == ("u", "E", "B", "p", "r", "p_mean", "r_mean")
    expected = {
        ("u", "u"), ("E", "E"), ("E", "B"), ("B", "E"),
        ("u", "p"), ("p", "u"), ("B", "r"), ("r", "B"),
        ("p", "p_mean"), ("p_mean", "p"), ("r", "r_mean"), ("r_mean", "r"),
    }
    assert _nonzero_blocks(_blocks(drv, "multiplier", A)) == expected
    nu, nE = drv.u_space.num_free, drv.E_space.num_free
    assert np.array_equal(b[:nu], drv.load_f)
    assert np.array_equal(b[nu:nu + nE], drv.load_g)
    assert not np.any(b[nu + nE:])


def test_zero_prev_blocks_match_operators(mesh2):
    p = MhdParams(Re=5.0, Rm=2.0, s=3.0, bc_family="normal_B")
    drv = MhdDriver(mesh2, p)
    zero = drv.zero_state()
    blocks = _blocks(drv, "multiplier", monolithic_system(drv, "multiplier", zero.u, zero.B)[0])

    _same_matrix(blocks["u", "u"], (1.0 / p.Re) * drv.K_u)
    _same_matrix(blocks["E", "E"], p.s * drv.M_E)
    _same_matrix(blocks["E", "B"], -p.alpha * drv.R_EB)
    _same_matrix(blocks["B", "E"], p.alpha * drv.R_EB.T)
    _same_matrix(blocks["p", "u"], -drv.D_p)
    _same_matrix(blocks["r", "B"], drv.D_r)


def test_cross_blocks_vanish_for_zero_field(mesh2):
    drv = MhdDriver(mesh2, builtin_case("normal_B").params())
    assert drv.cross_blocks(drv.zero_state().B) == (None, None)


def test_cross_coupling_enters_the_step(mesh2):
    p = MhdParams(Re=1.0, Rm=1.0, s=2.0, bc_family="normal_B")
    drv = MhdDriver(mesh2, p)
    rng = np.random.default_rng(7)
    B_prev = FieldFunction.zeros(drv.B_space)
    B_prev.coeffs[drv.B_space.free] = rng.standard_normal(drv.B_space.num_free)

    A = monolithic_system(drv, "multiplier", drv.zero_state().u, B_prev)[0]
    blocks = _blocks(drv, "multiplier", A)
    O, Luu = drv.cross_blocks(B_prev)
    _same_matrix(blocks["E", "u"], p.s * O)
    _same_matrix(blocks["u", "E"], blocks["E", "u"].T)
    _same_matrix(blocks["u", "u"], (1.0 / p.Re) * drv.K_u + p.s * Luu)


def test_augmented_layout_replaces_multiplier(mesh2):
    p = MhdParams(Re=1.0, Rm=4.0, s=2.0, bc_family="normal_B")
    drv = MhdDriver(mesh2, p)
    zero = drv.zero_state()
    blocks = _blocks(drv, "augmented", monolithic_system(drv, "augmented", zero.u, zero.B)[0])

    assert drv.formulations["augmented"][0] == ("u", "E", "B", "p", "p_mean")
    _same_matrix(blocks["B", "B"], p.alpha * drv.G_dd)


def test_tangential_multiplier_has_no_r_border(mesh2):
    drv = MhdDriver(mesh2, builtin_case("tangential_B").params())
    zero = drv.zero_state()
    _blocks(drv, "multiplier", monolithic_system(drv, "multiplier", zero.u, zero.B)[0])
    assert drv.formulations["multiplier"][0] == ("u", "E", "B", "p", "r", "p_mean")


@pytest.mark.parametrize("formulation", FORMULATIONS)
@pytest.mark.parametrize("bc_family", FAMILIES)
def test_step_transposes_and_borders_are_exact(mesh2, bc_family, formulation):
    case = builtin_case(bc_family)
    drv = MhdDriver(mesh2, case.params(), case.sources())
    blocks = _blocks(drv, formulation, monolithic_system(drv, formulation, *_random_prev(drv))[0])

    pairs = [(("u", "E"), ("E", "u"), 1.0), (("u", "p"), ("p", "u"), 1.0),
             (("B", "E"), ("E", "B"), -1.0)]
    if formulation == "multiplier":
        pairs.append((("B", "r"), ("r", "B"), 1.0))
    for key, partner, sign in pairs:
        assert blocks[key].count_nonzero()
        _same_matrix(blocks[key], sign * blocks[partner].T)

    # only normal_B borders r, and only the multiplier step has r
    assert set(drv.mean_rows) == ({"p", "r"} if bc_family == "normal_B" else {"p"})
    expected = {"p": assembly.domain_integral_vector(drv.p_space)}
    if bc_family == "normal_B" and formulation == "multiplier":
        expected["r"] = assembly.domain_integral_vector(drv.r_space)
    unknowns = drv.formulations[formulation][0]
    assert [f for f in unknowns if f.endswith("_mean")] == [f + "_mean" for f in expected]
    for field in expected:
        name = field + "_mean"
        assert np.array_equal(blocks[name, field].toarray().ravel(), expected[field])
        assert np.array_equal(blocks[field, name].toarray().ravel(), expected[field])
        for other in unknowns:
            if other != field:
                assert blocks[name, other].count_nonzero() == 0
                assert blocks[other, name].count_nonzero() == 0


def test_foreign_state_rejected(mesh2):
    case = builtin_case("normal_B")
    drv = MhdDriver(mesh2, case.params())
    other = MhdDriver(mesh2, case.params())
    with pytest.raises(MhdError, match="foreign spaces"):
        monolithic_system(drv, "multiplier", other.zero_state().u, drv.zero_state().B)


# ----------------------------------------------------------------------
# Picard iteration behaviour


def test_zero_sources_converge_immediately(mesh2):
    drv = MhdDriver(mesh2, builtin_case("normal_B").params())
    state, report = drv.picard_solve(tol=1e-11)
    assert report.converged and report.iterations == 1
    for field in (state.u, state.E, state.B, state.p, state.r):
        assert not np.any(field.coeffs)


@pytest.mark.parametrize("with_sources, factorizations", [(False, 3), (True, 4)])
def test_velocity_dual_norm_factors_only_a_nonzero_load(
    mesh2, monkeypatch, with_sources, factorizations
):
    """The Nedelec mass of the discrete curl, the cotree matrix and the
    normal matrix of r are always factored; the velocity stiffness only
    when the load f has a nonzero entry."""
    calls = []
    splu = linalg.spla.splu
    monkeypatch.setattr(linalg.spla, "splu", lambda A: calls.append(A) or splu(A))
    sources = builtin_case("normal_B").sources() if with_sources else None
    drv = MhdDriver(mesh2, MhdParams(), sources)
    assert len(calls) == factorizations
    assert (drv.dual_f > 0.0) == with_sources


@pytest.mark.parametrize("formulation", FORMULATIONS)
@pytest.mark.parametrize("bc_family", FAMILIES)
def test_potential_step_matches_the_monolithic_solve(bc_family, formulation):
    case = builtin_case(bc_family)
    drv = MhdDriver(unit_cube_mesh(3), case.params(), case.sources())
    init = drv.zero_state()
    init.u, init.B = _random_prev(drv)
    _, report = drv.picard_solve(maxit=1, init=init, keep_states=True)

    ref = monolithic_step(drv, formulation, init.u, init.B)
    got = np.concatenate([getattr(report.states[1], f).coeffs for f in ref])
    want = np.concatenate([ref[f].coeffs for f in ref])
    assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)
    assert report.residuals[0] <= 1e-12


def test_picard_never_factors_the_step_matrix(mesh2, monkeypatch):
    # the Stokes-Poisson operator S on the potentials is eliminated by
    # blocks on the LU of the velocity stiffness k, built with the driver
    # (for dual_f): every Picard step and every Stokes projection runs on
    # it, and SuperLU factors no step matrix and no S
    case = builtin_case("normal_B")
    drv = MhdDriver(mesh2, case.params(), case.sources())
    k = drv._k
    assert k is not None
    rows = []
    splu = linalg.spla.splu
    monkeypatch.setattr(linalg.spla, "splu", lambda A: rows.append(A.shape[0]) or splu(A))
    _, report = drv.picard_solve(tol=1e-10, maxit=50)
    drv.stokes_project(grad_load(drv.u_space, case.grad_u, 6))
    drv.stokes_project(grad_load(drv.u_space, case.grad_u, 8))
    assert report.converged and report.iterations >= 3
    assert rows == []
    S, _ = drv._stokes_poisson()
    assert S._lu._k is k._lu and drv._stiffness() is k


def test_picard_flattens_only_the_potential_system(mesh2, monkeypatch):
    # each step flattens its map on (u, phi, p, p_mean) alone, and S is
    # flattened once; the monolithic matrix is never built
    case = builtin_case("normal_B")
    drv = MhdDriver(mesh2, case.params(), case.sources())
    rows = []
    flatten = linalg.flatten

    def spy(*args):
        out = flatten(*args)
        rows.append(out[0].shape[0])
        return out

    monkeypatch.setattr(linalg, "flatten", spy)
    _, report = drv.picard_solve(tol=1e-10, maxit=50)
    S, _ = drv._stokes_poisson()
    assert report.iterations >= 3
    assert rows == [S.A.shape[0]] * (report.iterations + 1)
    for formulation in FORMULATIONS:
        full = monolithic_system(drv, formulation, drv.zero_state().u, drv.zero_state().B)[0]
        assert S.A.shape[0] < full.shape[0]


def test_steps_gmres_cannot_solve_are_factored(caplog):
    # far outside the smallness condition the frozen terms swamp S, GMRES
    # misses the contract and each step is factored on its own
    case = builtin_case("normal_B", 100.0, Re=1000.0, Rm=1000.0)
    drv = MhdDriver(unit_cube_mesh(3), case.params(), case.sources())
    with caplog.at_level(logging.DEBUG, logger="mhdfem.mhd"):
        _, report = drv.picard_solve(maxit=3)
    messages = [r.getMessage() for r in caplog.records if r.name == "mhdfem.mhd"]
    assert report.iterations == len(messages) == 3
    assert all("nonzeros, factored, residuals" in m for m in messages[1:])
    assert max(report.residuals) <= 1e-10


def test_velocity_dual_norm_matches_the_vector_solve(mesh2):
    # the scalar-block solve on each component equals the solve with K_u
    drv = MhdDriver(mesh2, MhdParams(), builtin_case("normal_B").sources())
    x = linalg.Factorization(drv.K_u).solve(drv.load_f)
    assert drv.dual_f == pytest.approx(np.sqrt(drv.load_f @ x), rel=1e-12)


def _component_blocks_broken(drv, how):
    """The driver before k is factored, with one property of the
    velocity stiffness broken."""
    drv._k = None
    free = drv.u_space.free
    if how == "free":
        drv.u_space = types.SimpleNamespace(free=free[1:])
        return "a free velocity node has a component that is not free"
    K = drv.K_u.tolil()
    if how == "cross":
        K[0, 1] = 1.0
        drv.K_u = K.tocsr()
        return "K_u has entries between velocity components"
    K[2, 2] *= 2.0
    drv.K_u = K.tocsr()
    return "K_u differs between velocity components"


@pytest.mark.parametrize("how", ["free", "cross", "differs"])
def test_stiffness_structure_is_checked_where_k_is_factored(mesh2, how):
    drv = MhdDriver(mesh2, MhdParams())
    message = _component_blocks_broken(drv, how)
    with pytest.raises(MhdError, match=message):
        drv._stiffness()


def test_each_step_logs_its_solve(mesh2, caplog):
    case = builtin_case("normal_B")
    drv = MhdDriver(mesh2, case.params(), case.sources())
    drv.picard_solve(tol=1e-10, maxit=50)
    assert not caplog.records  # silent by default

    with caplog.at_level(logging.DEBUG, logger="mhdfem.mhd"):
        _, report = drv.picard_solve(tol=1e-10, maxit=50)
    records = [r for r in caplog.records if r.name == "mhdfem.mhd"]
    assert len(records) == report.iterations >= 3
    assert all(r.levelno == logging.DEBUG for r in records)
    S, _ = drv._stokes_poisson()
    assert f"{S.A.shape[0]} reduced unknowns" in records[0].getMessage()
    assert all("GMRES on S: " in r.getMessage() for r in records)
    assert records[0].getMessage().endswith("contraction ratio n/a")
    ratio = report.increments[2] / report.increments[1]
    assert records[2].getMessage().endswith(f"contraction ratio {ratio:.3e}")
    # both formulations' residuals, the larger one reported, and |r|
    message = records[2].getMessage()
    residuals = re.search(r"residuals multiplier (\S+), augmented (\S+), ", message)
    assert residuals is not None, message
    assert max(residuals.groups(), key=float) == f"{report.residuals[2]:.3e}"
    assert f"|r| {report.diagnostics_history[2].r_norm:.3e}, " in message


@pytest.mark.parametrize("bc_family", FAMILIES)
@pytest.mark.parametrize(
    "mesh_name, betti", [("holed_mesh", "1, 1, 0"), ("cavity_mesh", "1, 0, 1")]
)
def test_driver_rejects_holes_and_cavities(request, mesh_name, betti, bc_family):
    mesh = request.getfixturevalue(mesh_name)
    with pytest.raises(MhdError, match=f"b0, b1, b2 = {betti}"):
        MhdDriver(mesh, builtin_case(bc_family).params())


@pytest.mark.parametrize("bc_family", FAMILIES)
def test_iterates_satisfy_exact_constraints(mesh2, bc_family):
    case = builtin_case(bc_family)
    drv = MhdDriver(mesh2, case.params(), case.sources())
    state, report = drv.picard_solve(tol=1e-11, maxit=50, keep_states=True)

    assert report.converged
    assert len(report.states) == report.iterations + 1
    assert not np.any(report.states[0].B.coeffs)
    assert len(report.increments) == report.iterations
    for diag in report.diagnostics_history:
        assert diag.divB_max <= 1e-10 * diag.divB_scale
        assert diag.r_norm <= 1e-10
        assert diag.curlE_norm <= 1e-10
        assert diag.energy_residual <= 1e-9
    for resid in report.residuals:
        assert resid <= 1e-10

    # contraction: increments fall monotonically once the coupling is on
    for a, b in zip(report.increments[1:], report.increments[2:]):
        assert b < a
        assert b / a < 1.0


def test_two_initial_guesses_reach_the_same_state(mesh2):
    case = builtin_case("normal_B")
    drv = MhdDriver(mesh2, case.params(), case.sources())
    tol = 1e-10
    state_a, report_a = drv.picard_solve(tol=tol, maxit=50)

    rng = np.random.default_rng(23)
    init = drv.zero_state()
    init.u.coeffs[drv.u_space.free] = 0.1 * rng.standard_normal(drv.u_space.num_free)
    init.B.coeffs[drv.B_space.free] = 0.1 * rng.standard_normal(drv.B_space.num_free)
    state_b, report_b = drv.picard_solve(tol=tol, maxit=50, init=init)

    assert report_a.converged and report_b.converged
    du = FieldFunction(drv.u_space, state_a.u.coeffs - state_b.u.coeffs)
    dB = FieldFunction(drv.B_space, state_a.B.coeffs - state_b.B.coeffs)
    diff = drv.w_norm(du, dB).total
    assert diff <= 10 * tol * max(1.0, report_a.state_norm)


def test_maxit_reports_nonconvergence(mesh2):
    case = builtin_case("normal_B")
    drv = MhdDriver(mesh2, case.params(), case.sources())
    state, report = drv.picard_solve(tol=1e-11, maxit=1)
    assert not report.converged
    assert report.iterations == 1


# ----------------------------------------------------------------------
# diagnostics


def test_joule_term_matches_direct_quadrature(mesh2):
    case = builtin_case("normal_B")
    drv = MhdDriver(mesh2, case.params(), case.sources())
    state, report = drv.picard_solve(tol=1e-11, maxit=50, keep_states=True)
    prev = report.states[-2]
    diag = drv.diagnostics(state, drv.cross_blocks(prev.B))

    rule = assembly.quadrature_rule(6)
    wdet = assembly.quadrature_weights(mesh2, rule)
    Ev = evaluate_on_cells(state.E, rule.points)
    uv = evaluate_on_cells(state.u, rule.points)
    Bv = evaluate_on_cells(prev.B, rule.points)
    jv = Ev + np.cross(uv, Bv)
    joule = drv.params.s * float(np.einsum("cq,cqd,cqd->", wdet, jv, jv))

    assert diag.joule == pytest.approx(joule, rel=1e-12)
    assert diag.j_norm == pytest.approx(np.sqrt(joule / drv.params.s), rel=1e-12)


def test_divb_matches_incidence_route(solved_case_n4):
    case, drv, state, report = solved_case_n4
    diag = report.diagnostics_history[-1]
    topo = build_topology(drv.mesh)
    div_cells = (topo.div_incidence @ state.B.coeffs) / drv.mesh.volumes
    assert diag.divB_max == pytest.approx(np.max(np.abs(div_cells)), abs=1e-13)


def test_energy_chain_holds_per_iterate(g_zero_run):
    driver, state, report = g_zero_run
    assert report.iterations >= 3
    for diag in report.diagnostics_history:
        assert diag.energy_residual <= 1e-9
        assert diag.energy2_lhs <= diag.energy2_rhs * (1 + 1e-6)
        assert diag.energy3_lhs <= diag.energy3_rhs * (1 + 1e-8)
        assert diag.energy4_lhs <= diag.energy4_rhs * (1 + 1e-6)
        assert diag.energy5_ratio <= 1 + 1e-6


def test_curl_bound_needs_the_frozen_field(g_zero_run):
    # re-evaluating each iterate against the cross blocks of the frozen
    # previous field must respect the curl bound scale-wise
    driver, state, report = g_zero_run
    for prev, cur in zip(report.states, report.states[1:]):
        diag = driver.diagnostics(cur, driver.cross_blocks(prev.B))
        assert diag.energy3_lhs <= diag.energy3_rhs * (1 + 1e-8)


def test_a_step_does_two_curl_solves(mesh2, monkeypatch):
    # one M_E solve for the W-norm of the increment and one for the
    # iterate, whose norm the diagnostics, the state norm and the
    # convergence test share
    case = builtin_case("normal_B")
    drv = MhdDriver(mesh2, case.params(), case.sources())
    solves = []
    real = drv.dcurl._lu.solve

    def spy(*args, **kwargs):
        solves.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(drv.dcurl._lu, "solve", spy)
    _, report = drv.picard_solve(tol=1e-15, maxit=3)
    assert report.iterations == 3
    assert len(solves) == 6
    last = report.diagnostics_history[-1]
    assert report.state_norm == last.norm.total
    assert last.hcurlB_norm == last.norm.curl_h


def test_each_iterate_is_measured_once():
    # the Picard loop records every iterate, with the cross blocks its
    # step solved with; nothing else in the package measures one or
    # assembles the cross blocks
    assert _call_sites("diagnostics") == [("mhd.py", "picard_solve")]
    assert _call_sites("cross_blocks") == [("mhd.py", "picard_solve")]


# ----------------------------------------------------------------------
# reduced-form equivalence


def test_reduced_check_zero_state(mesh2):
    drv = MhdDriver(mesh2, builtin_case("normal_B").params())
    assert reduced_equivalence_check(drv, drv.zero_state()) == 0.0


def test_reduced_check_per_iterate(g_zero_run):
    driver, state, report = g_zero_run
    for prev, cur in zip(report.states, report.states[1:]):
        discrepancy = reduced_equivalence_check(driver, cur, B_cross=prev.B)
        scale = operators.lp_norm(cur.E, 2, quad_degree=4) + driver.w_norm(cur.u, cur.B).B
        assert discrepancy <= 1e-8 * scale


def test_reduced_check_detects_perturbation(mesh2):
    case = builtin_case("normal_B")
    src = SourceData(f=case.sources().f, g=None)
    drv = MhdDriver(mesh2, case.params(), src)
    state, report = drv.picard_solve(tol=1e-11, maxit=50)
    assert report.converged
    assert reduced_equivalence_check(drv, state) == 0.0

    perturbed = state.E.copy()
    perturbed.coeffs[drv.E_space.free[0]] += 1.0
    bumped = MhdState(u=state.u, E=perturbed, B=state.B, p=state.p, r=state.r)
    mass_contrib = np.sqrt(drv.M_E[0, 0])
    assert reduced_equivalence_check(drv, bumped) >= mass_contrib * (1 - 1e-10)


# ----------------------------------------------------------------------
# formulation equivalence: each iterate against each formulation's
# monolithic step, and both systems gate every step


@pytest.mark.parametrize("bc_family", FAMILIES)
def test_formulations_agree(mesh2, bc_family):
    case = builtin_case(bc_family)
    drv = MhdDriver(mesh2, case.params(), case.sources())
    _, report = drv.picard_solve(tol=1e-11, keep_states=True)
    assert report.converged
    for formulation in FORMULATIONS:
        gaps = formulation_gaps(drv, report, formulation)
        assert gaps["w"] <= 1e-8
        assert gaps["E"] <= 1e-8
        assert gaps["p"] <= 1e-8
    diag = report.diagnostics_history[-1]
    assert diag.divB_max <= 1e-10 * diag.divB_scale


def test_formulations_agree_trivially_without_forcing(mesh2):
    drv = MhdDriver(mesh2, builtin_case("normal_B").params())
    _, report = drv.picard_solve(tol=1e-11, keep_states=True)
    for formulation in FORMULATIONS:
        assert formulation_gaps(drv, report, formulation) == {"w": 0.0, "E": 0.0, "p": 0.0}


@pytest.mark.parametrize(
    "formulation, matrix", [("multiplier", "D_r"), ("augmented", "G_dd")]
)
@pytest.mark.parametrize("bc_family", FAMILIES)
def test_a_perturbed_constraint_block_fails_the_first_step(
    mesh2, bc_family, formulation, matrix
):
    # one entry more in D_r (or G_dd), in the column of the face where
    # the computed B is largest, breaks the r rows (or the B rows) of
    # that formulation's system; the other system alone would pass
    case = builtin_case(bc_family)
    drv = MhdDriver(mesh2, case.params(), case.sources())
    _, report = drv.picard_solve(maxit=1, keep_states=True)
    B = report.states[1].B.coeffs[drv.B_space.free]
    face = int(np.argmax(np.abs(B)))
    assert abs(B[face]) > 0

    M = getattr(drv, matrix)
    row = M[:, face].nonzero()[0][0]
    M = M + sp.csr_matrix(([1.0], ([row], [face])), shape=M.shape)
    unknowns, blocks = drv.formulations[formulation]
    if matrix == "D_r":
        blocks["r", "B"], blocks["B", "r"] = M, M.T
    else:
        blocks["B", "B"] = drv.params.alpha * M
    with pytest.raises(linalg.LinAlgError, match=f"of the {formulation} system exceeds"):
        drv.picard_solve(maxit=1)


@pytest.mark.parametrize("bc_family", FAMILIES)
def test_every_iterate_carries_a_measured_r(mesh2, bc_family):
    # r is the least-squares multiplier of the multiplier system's B rows
    # at the computed E: D_r (-alpha R_EB^T E - D_r^T r) = 0 (a zero
    # r_mean needs no border term, because the columns of D_r sum to zero
    # on normal_B), and its relative norm meets the |r| gate
    case = builtin_case(bc_family)
    drv = MhdDriver(mesh2, case.params(), case.sources())
    _, report = drv.picard_solve(tol=1e-11, keep_states=True)
    assert report.converged
    scale = max(1.0, report.state_norm)
    for state, diag in zip(report.states[1:], report.diagnostics_history):
        assert state.r.space is drv.r_space
        E = state.E.coeffs[drv.E_space.free]
        r = state.r.coeffs[drv.r_space.free]
        at_zero = drv.D_r @ (-drv.params.alpha * (drv.R_EB.T @ E))
        normal = at_zero - drv.D_r @ (drv.D_r.T @ r)
        assert np.linalg.norm(at_zero) > 0
        assert np.linalg.norm(normal) <= linalg.RESIDUAL_TOL * np.linalg.norm(at_zero)
        assert diag.r_norm == operators.lp_norm(state.r, 2, quad_degree=2)
        assert diag.r_norm / scale <= 1e-10


# ----------------------------------------------------------------------
# stability weight matrix


def test_weight_matrix_is_spd_on_the_step_unknowns(mesh2):
    for bc_family in FAMILIES:
        case = builtin_case(bc_family)
        drv = MhdDriver(mesh2, case.params(), case.sources())
        u_prev, B_prev = _random_prev(drv)
        state = drv.zero_state()
        state.u, state.B = u_prev, B_prev
        for formulation in FORMULATIONS:
            W = stability_weight_matrix(drv, state, formulation)
            A, _ = monolithic_system(drv, formulation, u_prev, B_prev)

            assert W.shape == A.shape
            asym = np.abs((W - W.T).data)
            scale = np.abs(W.data).max()
            assert asym.size == 0 or asym.max() <= 1e-12 * scale
            np.linalg.cholesky(W.toarray())

            # border rows are plain identity
            nb = 2 if (bc_family, formulation) == ("normal_B", "multiplier") else 1
            unknowns = drv.formulations[formulation][0]
            assert len([f for f in unknowns if f not in drv.spaces]) == nb
            tail = W[-nb:, :].toarray()
            assert np.array_equal(tail[:, :-nb], np.zeros_like(tail[:, :-nb]))
            assert np.array_equal(tail[:, -nb:], np.eye(nb))
