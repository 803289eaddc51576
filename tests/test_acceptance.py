"""Acceptance gate: every stated solver guarantee, one verdict line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines
as they are produced; without ``-s`` pytest shows them for failures.
"""

import json

import numpy as np
import pytest

from mhdfem import cli, operators
from mhdfem.derham import FieldFunction
from mhdfem.mesh import unit_cube_mesh
from mhdfem.mhd import MhdDriver, SourceData
from mhdfem.verify import builtin_case, complex_check, l3_study, picard_contract
from oracles import (
    formulation_gaps,
    monolithic_system,
    reduced_equivalence_check,
    smallest_singular_value,
    stability_weight_matrix,
)

FAMILIES = ("normal_B", "tangential_B")
FORMULATIONS = ("multiplier", "augmented")
MESH_NS = (2, 4)


def _verdict(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def meshes():
    return {n: unit_cube_mesh(n) for n in MESH_NS}


@pytest.fixture(scope="module")
def builtin_grid(meshes):
    """Converged builtin-case solves: family x mesh level."""
    runs = {}
    for bc_family in FAMILIES:
        case = builtin_case(bc_family)
        for n in MESH_NS:
            driver = MhdDriver(meshes[n], case.params(), case.sources())
            state, report = driver.picard_solve(tol=1e-11, maxit=50, keep_states=True)
            assert report.converged, (bc_family, n)
            runs[bc_family, n] = (driver, state, report)
    return runs


@pytest.fixture(scope="module")
def g_zero_grid(meshes):
    """Velocity forcing only, started from a random magnetic field.

    The magnetic fixed point is zero, so the iterates sweep through
    genuinely coupled (E, B) transients while every step solves an
    Ohm row without a magnetic source, which is the regime where the
    curl bound and the eliminated-E identity are exact statements.
    """
    runs = {}
    for bc_family in FAMILIES:
        case = builtin_case(bc_family)
        sources = SourceData(f=case.sources().f, g=None)
        for n in MESH_NS:
            driver = MhdDriver(meshes[n], case.params(), sources)
            rng = np.random.default_rng(11)
            init = driver.zero_state()
            init.B.coeffs[driver.B_space.free] = rng.standard_normal(driver.B_space.num_free)
            state, report = driver.picard_solve(
                tol=1e-11, maxit=50, init=init, keep_states=True
            )
            assert report.converged, (bc_family, n)
            runs[bc_family, n] = (driver, state, report)
    return runs


def _all_diagnostics(*grids):
    for grid in grids:
        for key, (driver, state, report) in grid.items():
            for diag in report.diagnostics_history:
                yield key, report, diag


def _package_agrees(gate, worst, bound, *grids):
    """The package's contract on every run of the grids names this test's
    literal bound, reaches this test's worst value and gives its verdict:
    a bound moved in the package breaks the test."""
    contracts = [
        picard_contract(report, driver.sources)
        for grid in grids
        for driver, state, report in grid.values()
    ]
    assert {c[gate]["bound"] for c in contracts} == {bound}
    assert max(c[gate]["worst"] for c in contracts) == worst
    assert all(c[gate]["pass"] for c in contracts) == (worst <= bound)


# ----------------------------------------------------------------------
# exact structure of the computed states


def test_magnetic_gauss_law(builtin_grid, g_zero_grid):
    worst = 0.0
    for key, report, diag in _all_diagnostics(builtin_grid, g_zero_grid):
        worst = max(worst, diag.divB_max / diag.divB_scale)
    _package_agrees("divB", worst, 1e-10, builtin_grid, g_zero_grid)
    _verdict(
        "magnetic Gauss law",
        worst <= 1e-10,
        f"max cellwise |div B| = {worst:.3e} relative on every iterate (tol 1e-10)",
    )


def test_multiplier_and_curl_free_identities(builtin_grid, g_zero_grid):
    worst_r, worst_c = 0.0, 0.0
    for key, report, diag in _all_diagnostics(builtin_grid, g_zero_grid):
        scale = max(1.0, report.state_norm)
        worst_r = max(worst_r, diag.r_norm / scale)
        worst_c = max(worst_c, diag.curlE_norm / scale)
    _package_agrees("multiplier", worst_r, 1e-10, builtin_grid, g_zero_grid)
    _package_agrees("curlE", worst_c, 1e-10, builtin_grid, g_zero_grid)
    _verdict(
        "multiplier and curl-free identities",
        worst_r <= 1e-10 and worst_c <= 1e-10,
        f"max |r| = {worst_r:.3e}, max |curl E| = {worst_c:.3e} relative (tol 1e-10)",
    )


def test_energy_identity(builtin_grid, g_zero_grid):
    worst = 0.0
    for key, report, diag in _all_diagnostics(builtin_grid, g_zero_grid):
        worst = max(worst, diag.energy_residual)
    _package_agrees("energy", worst, 1e-9, builtin_grid, g_zero_grid)
    _verdict(
        "energy identity",
        worst <= 1e-9,
        f"max relative residual = {worst:.3e} on every iterate (tol 1e-9)",
    )


def test_curl_bound(g_zero_grid):
    worst = 0.0
    for key, report, diag in _all_diagnostics(g_zero_grid):
        if diag.energy3_rhs > 0:
            worst = max(worst, diag.energy3_lhs / diag.energy3_rhs)
    _package_agrees("curl_bound", worst, 1 + 1e-8, g_zero_grid)
    _verdict(
        "curl bound",
        worst <= 1 + 1e-8,
        f"max (|curl_h B| / Rm) / |j| = {worst:.6f} on source-free Ohm rows (tol 1 + 1e-8)",
    )


def test_reduced_system_equivalence(g_zero_grid):
    worst = 0.0
    for key, (driver, state, report) in g_zero_grid.items():
        assert reduced_equivalence_check(driver, driver.zero_state()) == 0.0
        for prev, cur in zip(report.states, report.states[1:]):
            discrepancy = reduced_equivalence_check(driver, cur, B_cross=prev.B)
            scale = operators.lp_norm(cur.E, 2, quad_degree=4) + driver.w_norm(cur.u, cur.B).B
            if scale > 0:
                worst = max(worst, discrepancy / scale)
    _verdict(
        "reduced-system equivalence",
        worst <= 1e-8,
        f"max |E + P(u x B) - curl_h B / Rm| = {worst:.3e} of (|E| + |B|_d) (tol 1e-8)",
    )


# ----------------------------------------------------------------------
# formulation equivalence and the nonlinear iteration


def test_formulation_equivalence(builtin_grid):
    # the potential iterates against each formulation's monolithic step
    # from the same frozen (u-, B-), solved directly
    worst = 0.0
    for driver, state, report in builtin_grid.values():
        for formulation in FORMULATIONS:
            worst = max(worst, formulation_gaps(driver, report, formulation)["w"])
    _verdict(
        "formulation equivalence",
        worst <= 1e-8,
        f"max W-norm gap of the iterates to the multiplier and augmented monolithic "
        f"steps = {worst:.3e} relative (tol 1e-8)",
    )


def test_picard_contraction(meshes):
    case = builtin_case("normal_B")
    driver = MhdDriver(meshes[4], case.params(), case.sources())
    tol = 1e-8
    state_a, report_a = driver.picard_solve(tol=tol, maxit=50)
    assert report_a.converged and report_a.iterations >= 3

    ratios = [
        b / a for a, b in zip(report_a.increments[1:], report_a.increments[2:])
    ]
    rng = np.random.default_rng(23)
    init = driver.zero_state()
    init.u.coeffs[driver.u_space.free] = 0.1 * rng.standard_normal(driver.u_space.num_free)
    init.B.coeffs[driver.B_space.free] = 0.1 * rng.standard_normal(driver.B_space.num_free)
    state_b, report_b = driver.picard_solve(tol=tol, maxit=50, init=init)
    du = FieldFunction(driver.u_space, state_a.u.coeffs - state_b.u.coeffs)
    dB = FieldFunction(driver.B_space, state_a.B.coeffs - state_b.B.coeffs)
    gap = driver.w_norm(du, dB).total
    budget = 10 * tol * max(1.0, report_a.state_norm)

    ok = report_b.converged and all(r < 0.9 for r in ratios) and gap <= budget
    _verdict(
        "Picard contraction",
        ok,
        f"increment ratios from iteration 3 = {[f'{r:.2e}' for r in ratios]} (< 0.9), "
        f"two-start gap = {gap:.3e} (budget {budget:.1e})",
    )


# ----------------------------------------------------------------------
# convergence rates


def test_convergence_rates(tmp_path):
    results = {}
    for bc_family in FAMILIES:
        cfg = {
            "mesh": {"builtin": 2},
            "case": {"builtin": 0.1},
            "bc_family": bc_family,
            "levels": [2, 4, 8],
            "picard": {"tol": 1e-11, "maxit": 100},
        }
        cfg_path = tmp_path / f"rates_{bc_family}.json"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        out_dir = tmp_path / bc_family
        code = cli.main(
            ["convergence", "--config", str(cfg_path), "--out-dir", str(out_dir)]
        )
        with open(out_dir / "convergence_report.json", encoding="utf-8") as fh:
            report = json.load(fh)
        results[bc_family] = (code, report)

    ok = all(
        code == cli.EXIT_PASS
        and all(r >= 0.9 for r in report["diagnostics"]["final_rates"].values())
        for code, report in results.values()
    )
    detail = "; ".join(
        f"{fam} finest-pair rates "
        + ", ".join(
            f"{k[4:]}={v:.2f}"
            for k, v in sorted(report["diagnostics"]["final_rates"].items())
        )
        for fam, (code, report) in results.items()
    )
    _verdict("convergence rates", ok, detail + " (threshold 0.9)")


# ----------------------------------------------------------------------
# complex structure and L3 growth


def test_complex_structure():
    expected = {
        1: (
            {"rank_grad": 7, "ker_curl": 7, "rank_curl": 12, "ker_div": 12, "rank_div": 6},
            {"rank_grad": 0, "ker_curl": 0, "rank_curl": 1, "ker_div": 1, "rank_div": 5},
        ),
        2: (
            {"rank_grad": 26, "ker_curl": 26, "rank_curl": 72, "ker_div": 72, "rank_div": 48},
            {"rank_grad": 1, "ker_curl": 1, "rank_curl": 25, "ker_div": 25, "rank_div": 47},
        ),
        8: (
            {"rank_grad": 728, "ker_curl": 728, "rank_curl": 3456, "ker_div": 3456, "rank_div": 3072},
            {"rank_grad": 343, "ker_curl": 343, "rank_curl": 2689, "ker_div": 2689, "rank_div": 3071},
        ),
        10: (
            {"rank_grad": 1330, "ker_curl": 1330, "rank_curl": 6600, "ker_div": 6600, "rank_div": 6000},
            {"rank_grad": 729, "ker_curl": 729, "rank_curl": 5401, "ker_div": 5401, "rank_div": 5999},
        ),
    }
    ok = True
    residual = 0.0
    for n, (full, zero_trace) in expected.items():
        report = complex_check(unit_cube_mesh(n))
        residual = max(residual, report["commuting_residual"])
        ok = ok and report["pass"]
        ok = ok and report["curl_grad_max"] == 0 and report["div_curl_max"] == 0
        for key, val in full.items():
            ok = ok and report["dims_full"][key] == val
        for key, val in zero_trace.items():
            ok = ok and report["dims_zero_trace"][key] == val
    _verdict(
        "complex structure",
        ok and residual <= 1e-10,
        f"composites exactly zero, commuting residual = {residual:.3e} (tol 1e-10), "
        "exactness dimensions match on every mesh",
    )


def test_l3_growth():
    details = []
    ok = True
    for bc_family in FAMILIES:
        res = l3_study([2, 4, 8], samples=50, bc_family=bc_family)
        ok = ok and res["growth_ok"]
        details.append(
            f"{bc_family} max ratios "
            + ", ".join(f"{r:.4f}" for r in res["max_ratios"])
        )
    _verdict("L3 ratio growth", ok, "; ".join(details) + " (growth <= 10% per level)")


# ----------------------------------------------------------------------
# linear solver contract and stability proxy


def test_solver_contract(builtin_grid, g_zero_grid, meshes):
    worst_resid = 0.0
    for grid in (builtin_grid, g_zero_grid):
        for driver, state, report in grid.values():
            worst_resid = max(worst_resid, max(report.residuals))
    _package_agrees("linear_residual", worst_resid, 1e-10, builtin_grid, g_zero_grid)

    case = builtin_case("normal_B")
    sigmas = []
    for n in (2, 3, 4):
        mesh = meshes[n] if n in meshes else unit_cube_mesh(n)
        if n in MESH_NS:
            driver, state, _ = builtin_grid["normal_B", n]
        else:
            driver = MhdDriver(mesh, case.params(), case.sources())
            state, report = driver.picard_solve(tol=1e-11, maxit=50)
            assert report.converged
        A, _ = monolithic_system(driver, "multiplier", state.u, state.B)
        W = stability_weight_matrix(driver, state, "multiplier")
        sigmas.append(smallest_singular_value(A, w_test=W, w_trial=W))

    decay = [b / a for a, b in zip(sigmas, sigmas[1:])]
    ok = worst_resid <= 1e-10 and all(s > 0 for s in sigmas) and all(
        d >= 0.5 for d in decay
    )
    _verdict(
        "solver contract",
        ok,
        f"max linear residual = {worst_resid:.3e} (tol 1e-10); weighted sigma_min = "
        + ", ".join(f"{s:.3e}" for s in sigmas)
        + f" with level ratios {[f'{d:.2f}' for d in decay]} (>= 0.5)",
    )
