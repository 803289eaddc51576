"""Write perfbench/reference.json from the current code.

    python3 perfbench/make_reference.py

Runs each workload once (verify_studies once per input seed), checks the
structural gates, and stores iteration counts, error norms, dimension
counts and L3 ratios.  Regenerate only in a change that sets a new
baseline on purpose and says why; a change that claims a speed-up must
pass against the reference it found.
"""

from __future__ import annotations

import json
import sys

import run  # noqa: F401  (puts the checkout's src/ on sys.path first)
import workloads

RTOL = {"errors": 1e-6, "l3_ratios": 1e-9}


def main() -> int:
    checks = workloads.Checks()
    reference = {"rtol": RTOL}
    for name in ("rate_study", "picard_nonlinear"):
        reference[name] = workloads.repetition(name, 0, checks)
    ratios = {}
    for seed in range(workloads.INPUT_SEEDS):
        result = workloads.repetition("verify_studies", seed, checks)
        ratios |= result["max_ratios"]
    reference["verify_studies"] = {**result, "max_ratios": ratios}
    if checks.failures:
        print("\n".join(checks.failures), file=sys.stderr)
        return 1
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {workloads.REFERENCE_PATH} ({checks.attempted} checks passed)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
