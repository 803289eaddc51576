"""mhdfem benchmark: one workload per run, timed or traced.

    python3 perfbench/run.py --workload rate_study --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; it imports mhdfem from ``src/`` of
that checkout and refuses any other copy.  A timed run (``--trace 0``)
repeats the workload while another repetition fits in ``--seconds``
(always at least one), checks every repetition's output and prints the
end-to-end metrics.  A traced run (``--trace 1``) makes one untraced
repetition and one with a span around every public call into the seven
layer modules, prints the per-layer metrics and the tracing overhead,
and writes the spans to ``.bench_out/``.  Times are in reference
seconds: wall time corrected for the machine's speed, which a probe
measures every 0.1 s during the run (speed.py).  The last line of standard
output is one JSON object: correct, attempted, failed (checks) and
metrics.  README.md gives the workloads and the prediction table.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
import uuid
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

# One BLAS thread: then all work runs on the processor whose speed the
# reference clock (speed.py) probes.  Set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ[_var] = "1"

import mhdfem  # noqa: E402

if not Path(mhdfem.__file__).resolve().is_relative_to(ROOT / "src"):
    raise SystemExit(f"mhdfem was imported from {mhdfem.__file__}, not from {ROOT / 'src'}")

import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

# End-to-end phases: a phase's time is the sum of its outermost spans.
# Timed runs wrap only these entry points, a few dozen calls a run.
SETUP_PHASE = (
    "verify.builtin_case",
    "mesh.unit_cube_mesh",
    "mesh.build_topology",
    "mhd.MhdDriver.__init__",
)
SOLVE_PHASE = ("mhd.MhdDriver.picard_solve",)
VERIFY_PHASE = (
    "verify.error_norms",
    "verify.quadrature_self_check",
    "verify.complex_check",
    "verify.l3_study",
)

# The gated metrics of BENCHMARK.json.
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# Printed by every timed run but not gated.  verify_studies runs no Picard
# solve, so the solve metrics are 0 or undefined there; verify_s is under
# half a second on picard_nonlinear.  wall_clock_s is wall_s as the clock
# on the wall read it, before the speed correction.
PRINTED_UNITS = {
    "wall_clock_s": "s",
    "solve_s": "s",
    "picard_iterations": "count",
    "picard_step_s": "s",
    "verify_s": "s",
}

FORMS = ("ohm_cross", "lorentz_cross", "convection_skew")

# per-layer metric -> (kind, span name); kinds: "s" inclusive seconds,
# "self_s" seconds minus child spans, "calls" span count.
PER_LAYER = {
    "mesh.unit_cube_mesh_s": ("s", "mesh.unit_cube_mesh"),
    "mesh.build_topology_s": ("s", "mesh.build_topology"),
    "derham.evaluate_on_cells_s": ("s", "derham.evaluate_on_cells"),
    "derham.evaluate_on_cells_calls": ("calls", "derham.evaluate_on_cells"),
    "derham.canonical_interpolate_s": ("s", "derham.canonical_interpolate"),
    "assembly.assemble_bilinear_s": ("s", "assembly.assemble_bilinear"),
    "assembly.assemble_bilinear_calls": ("calls", "assembly.assemble_bilinear"),
    "assembly.assemble_linear_s": ("s", "assembly.assemble_linear"),
    "linalg.flatten_s": ("s", "linalg.flatten"),
    "linalg.solve_direct_s": ("s", "linalg.solve_direct"),
    "linalg.solve_direct_calls": ("calls", "linalg.solve_direct"),
    "operators.norm_w_s": ("s", "operators.norm_w"),
    "operators.lp_norm_s": ("s", "operators.lp_norm"),
    "operators.stokes_project_s": ("s", "operators.stokes_project"),
    "operators.divfree_l2_project_s": ("s", "operators.divfree_l2_project"),
    "operators.DiscreteCurl_init_s": ("s", "operators.DiscreteCurl.__init__"),
    "operators.VelocityDualNorm_init_s": ("s", "operators.VelocityDualNorm.__init__"),
    "mhd.MhdDriver_init_s": ("s", "mhd.MhdDriver.__init__"),
    "mhd.cross_blocks_s": ("s", "mhd.MhdDriver.cross_blocks"),
    "mhd.assemble_picard_step_s": ("s", "mhd.MhdDriver.assemble_picard_step"),
    "mhd.diagnostics_s": ("s", "mhd.MhdDriver.diagnostics"),
    "mhd.picard_solve_self_s": ("self_s", "mhd.MhdDriver.picard_solve"),
    "verify.builtin_case_s": ("s", "verify.builtin_case"),
    "verify.error_norms_s": ("s", "verify.error_norms"),
    "verify.quadrature_self_check_s": ("s", "verify.quadrature_self_check"),
    "verify.complex_check_self_s": ("self_s", "verify.complex_check"),
}


# ----------------------------------------------------------------------
# reading spans


def _outermost(records, names) -> list:
    """Spans named in `names` with no ancestor named in `names`."""
    by_id = {s.id: s for s in records}
    out = []
    for s in records:
        if s.name not in names:
            continue
        p = s.parent
        while p is not None and by_id[p].name not in names:
            p = by_id[p].parent
        if p is None:
            out.append(s)
    return out


def phase_seconds(records, names, seconds) -> float:
    """Sum of `seconds(span)` over the outermost spans named in `names`."""
    return sum(seconds(s) for s in _outermost(records, set(names)))


def picard_iterations(records) -> int:
    return sum(s.attrs.get("iterations", 0) for s in records if s.name == SOLVE_PHASE[0])


def self_seconds(records, seconds) -> dict:
    """Span id -> its seconds minus the seconds its child spans cover."""
    child = {}
    for s in records:
        if s.parent is not None:
            child[s.parent] = child.get(s.parent, 0.0) + seconds(s)
    return {s.id: seconds(s) - child.get(s.id, 0.0) for s in records}


def per_layer(records, seconds) -> dict:
    own = self_seconds(records, seconds)
    out = {}
    for metric, (kind, name) in PER_LAYER.items():
        if kind == "s":
            out[metric] = phase_seconds(records, [name], seconds)
        elif kind == "self_s":
            out[metric] = sum(own[s.id] for s in records if s.name == name)
        else:
            out[metric] = sum(1 for s in records if s.name == name)
    bilinear = [s for s in records if s.name == "assembly.assemble_bilinear"]
    for form in FORMS + ("other_forms",):
        mine = [
            s for s in bilinear
            if s.attrs.get("form") == form
            or (form == "other_forms" and s.attrs.get("form") not in FORMS)
        ]
        out[f"assembly.{form}_s"] = sum(seconds(s) for s in mine)
        out[f"assembly.{form}_calls"] = len(mine)
    # a call that raised has no attrs
    flat = [s.attrs for s in records if s.name == "linalg.flatten" and s.attrs]
    out["linalg.unknowns"] = max((a["unknowns"] for a in flat), default=0)
    out["linalg.nnz"] = max((a["nnz"] for a in flat), default=0)
    return out


# ----------------------------------------------------------------------
# running


def checked_repetition(name, seed, recorder, targets, checks, reference):
    """One repetition up to its checked result, inside a root span."""
    with spans.instrument(recorder, targets), recorder.span(f"workload.{name}") as root:
        try:
            result = workloads.repetition(name, seed, checks)
        except Exception:  # a crash is a failed check, not a lost run
            traceback.print_exc()
            checks.check(f"{name} repetition raised", False)
        else:
            workloads.compare_reference(name, result, reference, checks)
    return root


def summary(samples) -> dict:
    """Median, sample count and the highest percentile with at least ten
    samples beyond it (None below 11 samples)."""
    out = {"median": statistics.median(samples), "n": len(samples), "p_high": None}
    if len(samples) >= 11:
        q = 100 * (len(samples) - 10) // len(samples)
        out["p_high"] = (q, statistics.quantiles(samples, n=100)[q - 1])
    return out


def run_timed(name, seed, seconds, checks, reference):
    """Repetitions under the reference clock while another one fits in
    `seconds`; each timing is in reference seconds (speed.py)."""
    targets = spans.named_callables(SETUP_PHASE + SOLVE_PHASE + VERIFY_PHASE)
    roots = []
    start = time.perf_counter()
    with speed.ReferenceClock() as clock:
        while True:
            recorder = spans.Recorder(uuid.uuid4().hex)
            root = checked_repetition(name, seed, recorder, targets, checks, reference)
            roots.append((recorder, root))
            if len(roots) == 1:
                # the peak of the fresh process through its first repetition;
                # later repetitions grow the heap a little, and how many fit
                # depends on the machine's speed
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            elapsed = time.perf_counter() - start
            if elapsed + root.duration > seconds:
                break

    def ref(span):
        return clock.reference_seconds(span.start, span.end)

    reps = []
    for recorder, root in roots:
        solve = phase_seconds(recorder.spans, SOLVE_PHASE, ref)
        iters = picard_iterations(recorder.spans)
        reps.append(
            {
                "wall_s": ref(root),
                "wall_clock_s": root.duration - clock.probe_seconds(root.start, root.end),
                "setup_s": phase_seconds(recorder.spans, SETUP_PHASE, ref),
                "solve_s": solve,
                "verify_s": phase_seconds(recorder.spans, VERIFY_PHASE, ref),
                "picard_iterations": iters,
                "picard_step_s": solve / iters if iters else 0.0,
            }
        )
    stats = {}
    for key in reps[0]:
        stats[key] = summary([r[key] for r in reps])
    stats["peak_rss_mb"] = summary([peak_rss_mb])
    return stats, clock


def run_traced(name, seed, checks, reference):
    """One untraced and one traced repetition under one reference clock."""
    recorder = spans.Recorder(uuid.uuid4().hex)
    with speed.ReferenceClock() as clock:
        untraced = checked_repetition(
            name, seed, spans.Recorder(uuid.uuid4().hex),
            spans.named_callables(SETUP_PHASE + SOLVE_PHASE + VERIFY_PHASE), checks, reference,
        )
        traced = checked_repetition(
            name, seed, recorder, spans.all_layer_callables(), checks, reference
        )

    def ref(span):
        return clock.reference_seconds(span.start, span.end)

    metrics = per_layer(recorder.spans, ref)
    metrics["trace.wall_s"] = ref(traced)
    metrics["trace.untraced_wall_s"] = ref(untraced)
    metrics["trace.overhead_s"] = ref(traced) - ref(untraced)
    metrics["trace.spans"] = len(recorder.spans)

    records = recorder.as_records()
    for record, span in zip(records, recorder.spans):
        record["reference_s"] = ref(span)
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    with open(out_dir / f"{name}-seed{seed}-trace.json", "w", encoding="utf-8") as fh:
        json.dump({"run_id": recorder.run_id, "spans": records}, fh)
    return metrics, recorder, clock


# ----------------------------------------------------------------------
# machine details


def _openblas_threads():
    import numpy

    libs = glob.glob(str(Path(numpy.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit():
    """The checked-out commit, read from .git without running git; None
    outside a git work tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine_details(seed: int) -> dict:
    import numpy
    import scipy
    import sympy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "sympy": sympy.__version__,
        "openblas_threads": _openblas_threads(),
        "git_commit": _git_commit(),
        "seed": seed,
        "input_seed": workloads.input_seed(seed),
    }


# ----------------------------------------------------------------------


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    reference = workloads.load_reference()
    checks = workloads.Checks()
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("machine " + json.dumps(machine_details(args.seed), sort_keys=True))

    if args.trace:
        values, _, clock = run_traced(args.workload, args.seed, checks, reference)
        units = {k: "s" if k.endswith("_s") else "count" for k in values}
        for key in sorted(values):
            print(f"{key:34s} {_fmt(values[key]):>14s} {units[key]}")
        print(f"tracing overhead {_fmt(values['trace.overhead_s'])} s on an untraced "
              f"wall of {_fmt(values['trace.untraced_wall_s'])} s")
    else:
        stats, clock = run_timed(args.workload, args.seed, args.seconds, checks, reference)
        units = {**END_TO_END_UNITS, **PRINTED_UNITS}
        for key, st in stats.items():
            high = f"p{st['p_high'][0]} {_fmt(st['p_high'][1])}" if st["p_high"] else \
                "p_high needs >= 11 samples"
            print(f"{key:20s} {_fmt(st['median']):>12s} {units[key]:5s} "
                  f"median of {st['n']}; {high}")
        values = {k: stats[k]["median"] for k in END_TO_END_UNITS}
    print(f"speed probe: median {_fmt(1e3 * statistics.median(clock.durations))} ms over "
          f"{len(clock.durations)} probes; reference {_fmt(1e3 * speed.PROBE_REFERENCE_S)} ms")

    print(f"checks_failed {len(checks.failures)} of {checks.attempted} count")
    for failure in checks.failures:
        print(f"FAILED: {failure}")
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    print(json.dumps({
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
