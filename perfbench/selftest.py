"""Self-test of the benchmark's own code.

    python3 perfbench/selftest.py

Runs picard_nonlinear traced twice and checks that the counts repeat
exactly (Picard iterations, the largest system's unknowns and nonzeros,
calls per bilinear form id), that every span but the repetition's root
has a parent in the same run, that the traced run yields exactly the
per-layer metrics BENCHMARK.json lists, that the reference clock adds up
and leaves probe time out, and that the wrappers are gone afterwards.  It takes about a minute on two cores.
"""

from __future__ import annotations

import collections
import json
import sys

import run
import spans
import workloads

from mhdfem import mesh, verify

WORKLOAD = "picard_nonlinear"


def traced_once():
    checks = workloads.Checks()
    metrics, recorder, clock = run.run_traced(WORKLOAD, 0, checks, workloads.load_reference())
    assert not checks.failures, checks.failures
    check_clock(clock, recorder)
    return metrics, recorder


def counts(metrics, recorder) -> dict:
    forms = collections.Counter(
        s.attrs["form"] for s in recorder.spans if s.name == "assembly.assemble_bilinear"
    )
    return {
        "picard_iterations": run.picard_iterations(recorder.spans),
        "linalg.unknowns": metrics["linalg.unknowns"],
        "linalg.nnz": metrics["linalg.nnz"],
        "forms": dict(forms),
    }


def check_parents(recorder) -> None:
    ids = {s.id for s in recorder.spans}
    roots = [s for s in recorder.spans if s.parent is None]
    assert [s.name for s in roots] == [f"workload.{WORKLOAD}"], roots
    for s in recorder.spans:
        assert s.run_id == recorder.run_id, s
        assert s.parent is None or s.parent in ids, s
        assert s.end >= s.start, s


def check_clock(clock, recorder) -> None:
    """Reference seconds grow with time, exclude probe time, and add up
    over adjacent intervals."""
    assert len(clock.durations) > 10, len(clock.durations)
    root = next(s for s in recorder.spans if s.parent is None)
    mid = (root.start + root.end) / 2
    whole = clock.reference_seconds(root.start, root.end)
    halves = clock.reference_seconds(root.start, mid) + clock.reference_seconds(mid, root.end)
    assert whole > 0 and abs(whole - halves) <= 1e-9 * whole, (whole, halves)
    s, e = clock.starts[1], clock.ends[1]
    assert clock.reference_seconds(s, e) == 0.0, "probe time counted"


def main() -> int:
    originals = (mesh.unit_cube_mesh, verify.unit_cube_mesh, mesh.Mesh.__init__)
    first = traced_once()
    second = traced_once()
    assert (mesh.unit_cube_mesh, verify.unit_cube_mesh, mesh.Mesh.__init__) == originals

    a, b = counts(*first), counts(*second)
    assert a == b, (a, b)
    assert a["picard_iterations"] > 0 and a["linalg.unknowns"] > 0, a
    assert {"ohm_cross", "lorentz_cross", "convection_skew"} <= set(a["forms"]), a
    for _, recorder in (first, second):
        check_parents(recorder)
    assert first[1].run_id != second[1].run_id

    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        listed = {m["name"] for m in json.load(fh)["per_layer"]}
    assert set(first[0]) == listed, set(first[0]) ^ listed
    assert set(spans.LAYERS) == {name.split(".")[0] for name, _, _ in spans.all_layer_callables()}

    print(f"selftest passed: counts {a}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
