"""The three benchmark workloads and the checks each repetition passes.

A repetition is the whole workload as a user runs it, from the
manufactured case to a checked result.  It starts with sympy's
expression cache cleared, because a user's fresh process starts with it
empty.  Why each workload exists is written in README.md.
"""

from __future__ import annotations

import json
from pathlib import Path

from sympy.core.cache import clear_cache

from mhdfem import mesh, verify
from mhdfem.cli import RATE_COLUMNS, RATE_THRESHOLD
from mhdfem.mhd import MhdDriver

REFERENCE_PATH = Path(__file__).with_name("reference.json")

# verify_studies draws its random fields from seed % INPUT_SEEDS, so that
# the L3 ratios of every input have an exact stored reference.
INPUT_SEEDS = 16

RATE_LEVELS = [2, 4, 6]
L3_LEVELS = [2, 4, 8]
COMPLEX_N = 6
PICARD_N = 4

# The per-iterate gates of the solver contract (ROADMAP aim 3).
GATE_DIVB = 1e-10
GATE_R = 1e-10
GATE_CURLE = 1e-10
GATE_ENERGY = 1e-9
GATE_LINEAR_RESIDUAL = 1e-10
QUADRATURE_CHECK_MAX = 1e-3


class Checks:
    """Counts correctness checks attempted and keeps the failed ones."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, what: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def close(self, what: str, value: float, ref: float, rtol: float) -> None:
        self.check(
            f"{what} = {value!r}, reference {ref!r} (rtol {rtol:g})",
            abs(value - ref) <= rtol * abs(ref),
        )


def picard_gates(checks: Checks, report, label: str) -> None:
    """The contract on every Picard iterate, plus convergence itself."""
    checks.check(f"{label}: Picard converged", report.converged)
    scale = max(1.0, report.state_norm)
    steps = zip(report.diagnostics_history, report.residuals)
    for k, (diag, resid) in enumerate(steps, 1):
        at = f"{label} step {k}"
        checks.check(f"{at}: relative div B {diag.divB_max / diag.divB_scale:.3e}",
                     diag.divB_max / diag.divB_scale <= GATE_DIVB)
        checks.check(f"{at}: |r| {diag.r_norm / scale:.3e}", diag.r_norm / scale <= GATE_R)
        checks.check(f"{at}: |curl E| {diag.curlE_norm / scale:.3e}",
                     diag.curlE_norm / scale <= GATE_CURLE)
        checks.check(f"{at}: energy identity {diag.energy_residual:.3e}",
                     diag.energy_residual <= GATE_ENERGY)
        checks.check(f"{at}: linear residual {resid:.3e}", resid <= GATE_LINEAR_RESIDUAL)


# ----------------------------------------------------------------------
# rate_study


def rate_study(seed: int, checks: Checks) -> dict:
    """The [2, 4, 6] rate study with the quadrature self-check on.  The
    manufactured case is fixed; the seed changes nothing here."""
    table = verify.convergence_study(
        verify.builtin_case("normal_B", 0.1), RATE_LEVELS, variant="multiplier")
    for n, report in zip(table.ns, table.reports):
        picard_gates(checks, report, f"n={n}")
    for col in RATE_COLUMNS:
        rate = table.rates[col][-1]
        checks.check(f"finest-pair rate {col} = {rate:.3f}", rate >= RATE_THRESHOLD)
    for key, rel in table.quadrature_check.items():
        checks.check(f"quadrature self-check {key} = {rel:.2e}", rel <= QUADRATURE_CHECK_MAX)
    return {
        "iterations": [r.iterations for r in table.reports],
        "errors": table.errors,
    }


# ----------------------------------------------------------------------
# picard_nonlinear


def picard_nonlinear(seed: int, checks: Checks) -> dict:
    """A strongly nonlinear tangential_B solve, augmented variant, on
    unit_cube_mesh(4) at tol 1e-10.  The case is fixed; the seed changes
    nothing here."""
    case = verify.builtin_case("tangential_B", 10.0, Re=10, Rm=10)
    driver = MhdDriver(mesh.unit_cube_mesh(PICARD_N), case.params("augmented"), case.sources())
    state, report = driver.picard_solve(tol=1e-10)
    picard_gates(checks, report, f"n={PICARD_N}")
    errors = verify.error_norms(driver, state, case)
    return {
        "iterations": [report.iterations],
        "errors": {key: [val] for key, val in errors.items()},
    }


# ----------------------------------------------------------------------
# verify_studies


def input_seed(seed: int) -> int:
    return seed % INPUT_SEEDS


def verify_studies(seed: int, checks: Checks) -> dict:
    """complex_check on unit_cube_mesh(6), then the [2, 4, 8] L3 study
    with 50 samples; both draw their random fields from the input seed."""
    s = input_seed(seed)
    cc = verify.complex_check(mesh.unit_cube_mesh(COMPLEX_N), seed=s)
    checks.check(f"complex_check pass (commuting residual {cc['commuting_residual']:.2e})",
                 cc["pass"])
    l3 = verify.l3_study(L3_LEVELS, samples=50, bc_family="normal_B", seed=s)
    checks.check(f"l3_study growth_ok, max ratios {l3['max_ratios']}", l3["growth_ok"])
    return {
        "dims_full": cc["dims_full"],
        "dims_zero_trace": cc["dims_zero_trace"],
        "max_ratios": {str(s): l3["max_ratios"]},
    }


WORKLOADS = {
    "rate_study": rate_study,
    "picard_nonlinear": picard_nonlinear,
    "verify_studies": verify_studies,
}


def repetition(name: str, seed: int, checks: Checks) -> dict:
    clear_cache()
    return WORKLOADS[name](seed, checks)


# ----------------------------------------------------------------------
# reference values


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def compare_reference(name: str, result: dict, reference: dict, checks: Checks) -> None:
    """Iteration counts and dimension counts must match exactly; error
    norms and L3 ratios within the relative tolerances stored with the
    reference values."""
    ref = reference[name]
    rtol = reference["rtol"]
    for key in ("iterations", "dims_full", "dims_zero_trace"):
        if key in ref:
            checks.check(f"{key} {result[key]} == reference {ref[key]}", result[key] == ref[key])
    pairs = [(col, result["errors"][col], vals, rtol["errors"])
             for col, vals in ref.get("errors", {}).items()]
    pairs += [(f"L3 max ratio seed {s}", ratios, ref["max_ratios"][s], rtol["l3_ratios"])
              for s, ratios in result.get("max_ratios", {}).items()]
    for what, got, expect, tol in pairs:
        checks.check(f"{what}: {len(got)} levels, reference {len(expect)}", len(got) == len(expect))
        for level, (val, ref_val) in enumerate(zip(got, expect)):
            checks.close(f"{what} at level {level}", val, ref_val, tol)
