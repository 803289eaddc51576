"""Command line front end.

Four subcommands driven by a single JSON config file: ``solve`` runs one
Picard solve and reports diagnostics, ``convergence`` runs a refinement
study with observed rates, ``complex-check`` reports the structure
residuals of the discrete sequence, and ``l3-study`` samples the
divergence-free L3 bound.  Every report goes through one writer,
``_finish``, and carries the sections ``params``, ``mesh``, ``iterations``,
``increments``, ``diagnostics``, ``errors``, ``rates`` and ``pass``
(``solve`` adds ``residuals``, ``norms``, ``contract`` and ``checks``).
Every verdict on the iterates comes from ``verify.picard_contract``.
Reports are written with sorted keys and repr-formatted floats so
identical configs produce identical bytes.

Exit codes: 0 all assertions pass, 1 an assertion or the iteration
failed, 2 the config could not be parsed or validated.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import verify
from .assembly import MAX_QUAD_DEGREE
from .linalg import LinAlgError
from .mesh import Mesh, MeshError, mesh_metrics, read_gmsh_msh2, unit_cube_mesh
from .mhd import MhdDriver, MhdError, MhdParams, SourceData
from .operators import lp_norm
from .verify import StudyError, VerifyError

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2

# norms whose finest-pair observed rate must reach 0.9 in a study
RATE_COLUMNS = ("err_u_h1", "err_B_l2", "err_B_hcurl_h", "err_B_l3")
RATE_THRESHOLD = 0.9

# report kind -> default file name, per command
OUTPUTS = {
    "solve": {"json": "solve_report.json"},
    "convergence": {"json": "convergence_report.json", "csv": "convergence_table.csv"},
    "complex-check": {"json": "complex_report.json"},
    "l3-study": {"json": "l3_report.json", "csv": "l3_table.csv"},
}

_TOP_KEYS = {
    "mesh",
    "params",
    "bc_family",
    "picard",
    "case",
    "levels",
    "samples",
    "quad_degree",
    "seed",
    "outputs",
}


class ConfigError(Exception):
    """The config file is malformed or violates an invariant."""


def _require_keys(section: dict, allowed: set, where: str) -> None:
    extra = set(section) - allowed
    if extra:
        raise ConfigError(f"unknown key(s) {sorted(extra)} in {where}")


def _is_int(val) -> bool:
    """A JSON integer; ``true`` and ``false`` are not."""
    return isinstance(val, int) and not isinstance(val, bool)


def _is_number(val) -> bool:
    """A finite JSON number; booleans, ``Infinity`` and ``NaN`` are not."""
    return _is_int(val) or (isinstance(val, float) and math.isfinite(val))


def load_config(path: str) -> dict:
    """Read and validate a RunConfig JSON file into a plain dict."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    if "variant" in raw:
        why = "every Picard step is checked against both formulations (multiplier and augmented)"
        raise ConfigError(f"variant is not an option: {why}")
    _require_keys(raw, _TOP_KEYS, "config root")

    cfg: dict = {}

    mesh = raw.get("mesh", {"builtin": 4})
    if not isinstance(mesh, dict) or len(mesh) != 1 or not set(mesh) <= {"builtin", "msh2"}:
        raise ConfigError('mesh must be exactly one of {"builtin": n} or {"msh2": path}')
    if "builtin" in mesh:
        n = mesh["builtin"]
        if not _is_int(n) or n < 1:
            raise ConfigError("mesh.builtin must be a positive integer")
        cfg["mesh"] = ("builtin", n)
    else:
        if not isinstance(mesh["msh2"], str):
            raise ConfigError("mesh.msh2 must be a file path")
        cfg["mesh"] = ("msh2", mesh["msh2"])

    params = raw.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("params must be an object")
    _require_keys(params, {"Re", "Rm", "s"}, "params")
    numbers = {}
    for key in ("Re", "Rm", "s"):
        val = params.get(key, 1.0)
        if not _is_number(val) or not val > 0:
            raise ConfigError(f"params.{key} must be a positive number")
        numbers[key] = float(val)

    picard = raw.get("picard", {})
    if not isinstance(picard, dict):
        raise ConfigError("picard must be an object")
    _require_keys(picard, {"tol", "maxit"}, "picard")
    tol = picard.get("tol", 1e-8)
    if not _is_number(tol) or not 0 < tol < 1:
        raise ConfigError("picard.tol must lie in (0, 1)")
    maxit = picard.get("maxit", 100)
    if not _is_int(maxit) or maxit < 1:
        raise ConfigError("picard.maxit must be a positive integer")
    cfg["tol"], cfg["maxit"] = float(tol), maxit

    case = raw.get("case", {"builtin": 0.1})
    if (
        not isinstance(case, dict)
        or len(case) != 1
        or not set(case) <= {"builtin", "zero_source"}
    ):
        raise ConfigError(
            'case must be exactly one of {"builtin": lambda} or {"zero_source": true}'
        )
    if "builtin" in case:
        lam = case["builtin"]
        if not _is_number(lam) or lam < 0:
            raise ConfigError("case.builtin must be a nonnegative amplitude")
        cfg["case"] = ("builtin", float(lam))
    else:
        if case["zero_source"] is not True:
            raise ConfigError("case.zero_source accepts only true")
        cfg["case"] = ("zero_source", None)

    levels = raw.get("levels", [2, 4, 8])
    if (
        not isinstance(levels, list)
        or not levels
        or not all(_is_int(n) and n >= 1 for n in levels)
        or any(levels[i] >= levels[i + 1] for i in range(len(levels) - 1))
    ):
        raise ConfigError("levels must be a strictly increasing list of positive integers")
    cfg["levels"] = levels

    samples = raw.get("samples", 50)
    if not _is_int(samples) or samples < 1:
        raise ConfigError("samples must be a positive integer")
    cfg["samples"] = samples

    # the quadrature self-check measures two degrees above quad_degree
    max_quad = MAX_QUAD_DEGREE - 2
    quad = raw.get("quad_degree", 6)
    if not _is_int(quad) or not 6 <= quad <= max_quad:
        raise ConfigError(f"quad_degree must be an integer in [6, {max_quad}]")
    cfg["quad_degree"] = quad

    seed = raw.get("seed", 42)
    if not _is_int(seed) or seed < 0:
        raise ConfigError("seed must be a nonnegative integer")
    cfg["seed"] = seed

    outputs = raw.get("outputs", {})
    if not isinstance(outputs, dict):
        raise ConfigError("outputs must be an object")
    _require_keys(outputs, {"csv", "json"}, "outputs")
    for key, name in outputs.items():
        if not isinstance(name, str) or os.path.basename(name) in ("", ".", ".."):
            raise ConfigError(f"outputs.{key} must be a file name")
    cfg["outputs"] = outputs

    try:
        cfg["params"] = MhdParams(**numbers, bc_family=raw.get("bc_family", "normal_B"))
    except MhdError as exc:
        raise ConfigError(str(exc)) from exc
    return cfg


# ----------------------------------------------------------------------
# report plumbing


def _jsonable(obj):
    """Recursively convert numpy scalars/arrays so json can emit them."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    return obj


def _write_text(text: str, path: str) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _finish(paths: dict, passed: bool, *, csv: str | None = None, **sections) -> int:
    """Write a command's CSV (if any), then its JSON report with the sections
    it leaves out empty; return the exit code."""
    report = {"iterations": 0, "increments": [], "errors": {}, "rates": {}, **sections}
    report["pass"] = bool(passed)
    if csv is not None:
        _write_text(csv, paths["csv"])
    _write_text(json.dumps(_jsonable(report), indent=2, sort_keys=True) + "\n", paths["json"])
    return EXIT_PASS if passed else EXIT_FAIL


def _output_paths(cfg: dict, out_dir: str, command: str) -> dict:
    """Report kind -> file path of a command's reports under out_dir;
    a path that names an existing directory, or two kinds that name one
    file, is a config error, raised before any work is done."""
    paths = {
        kind: os.path.join(out_dir, cfg["outputs"].get(kind, default))
        for kind, default in OUTPUTS[command].items()
    }
    for kind, path in paths.items():
        if os.path.isdir(path):
            raise ConfigError(f"outputs.{kind} names the directory {path}, not a file")
    if len({os.path.normpath(path) for path in paths.values()}) < len(paths):
        raise ConfigError(" and ".join(f"outputs.{k}" for k in paths) + " name one file")
    return paths


def _params_section(cfg: dict) -> dict:
    kind, lam = cfg["case"]
    run_keys = ("tol", "maxit", "seed", "quad_degree")
    return {**cfg["params"].as_dict(), "case": kind, "lam": lam, **{k: cfg[k] for k in run_keys}}


def _build_mesh(cfg: dict, *, min_n: int = 1) -> tuple[Mesh, dict]:
    kind, arg = cfg["mesh"]
    if kind == "builtin":
        if arg < min_n:
            raise ConfigError(f"builtin mesh needs n >= {min_n} for this command")
        mesh = unit_cube_mesh(arg)
        meta = {"source": "builtin", "n": arg}
    else:
        try:
            mesh = read_gmsh_msh2(arg)
        except (OSError, MeshError) as exc:
            raise ConfigError(f"cannot load mesh {arg}: {exc}") from exc
        meta = {"source": "msh2", "path": arg}
    metrics = mesh_metrics(mesh)
    meta.update(
        num_vertices=metrics.num_vertices,
        num_cells=metrics.num_cells,
        h_max=metrics.h_max,
        h_min=metrics.h_min,
    )
    return mesh, meta


def _case_and_sources(cfg: dict):
    kind, lam = cfg["case"]
    if kind == "builtin":
        p = cfg["params"]
        case = verify.builtin_case(p.bc_family, lam, Re=p.Re, Rm=p.Rm, s=p.s)
        return case, case.sources()
    return None, SourceData()


# ----------------------------------------------------------------------
# subcommands


def cmd_solve(cfg: dict, paths: dict) -> int:
    mesh, mesh_meta = _build_mesh(cfg, min_n=2)
    case, sources = _case_and_sources(cfg)
    driver = MhdDriver(mesh, cfg["params"], sources=sources)
    state, run = driver.picard_solve(tol=cfg["tol"], maxit=cfg["maxit"])
    diag = run.diagnostics_history[-1]
    contract = verify.picard_contract(run, sources)
    checks = {"converged": run.converged, **{gate: v["pass"] for gate, v in contract.items()}}
    errors = {}
    if case is not None:
        errors = verify.error_norms(driver, state, case, quad_degree=cfg["quad_degree"])
    return _finish(
        paths,
        all(checks.values()),
        params=_params_section(cfg),
        mesh=mesh_meta,
        iterations=run.iterations,
        increments=run.increments,
        residuals=run.residuals,
        diagnostics=diag.as_dict(),
        norms={
            "u_h1": diag.norm.u,
            "E_l2": lp_norm(state.E, 2),
            "B_d": diag.norm.B,
            "p_l2": lp_norm(state.p, 2),
            "state_W": run.state_norm,
        },
        errors=errors,
        contract=contract,
        checks=checks,
    )


def cmd_convergence(cfg: dict, paths: dict) -> int:
    if cfg["case"][0] != "builtin":
        raise ConfigError("a convergence study needs the builtin case (an exact solution)")
    case, sources = _case_and_sources(cfg)

    try:
        table = verify.convergence_study(
            case,
            cfg["levels"],
            tol=cfg["tol"],
            maxit=cfg["maxit"],
            quad_degree=cfg["quad_degree"],
        )
    except StudyError as exc:
        print(f"convergence study failed: {exc}", file=sys.stderr)
        return _finish(
            paths,
            False,
            params=_params_section(cfg),
            mesh={"levels": cfg["levels"]},
            iterations=exc.report.iterations,
            increments=exc.report.increments,
            diagnostics={"failure": str(exc)},
        )

    final_rates = {c: table.rates[c][-1] for c in RATE_COLUMNS}
    contracts = [verify.picard_contract(report, sources) for report in table.reports]
    return _finish(
        paths,
        all(r >= RATE_THRESHOLD for r in final_rates.values())
        and all(gate["pass"] for contract in contracts for gate in contract.values())
        and np.max(list(table.quadrature_check.values())) <= verify.QUADRATURE_CHECK_MAX,
        csv=table.to_csv(),
        params=_params_section(cfg),
        mesh={"ns": table.ns, "hs": table.hs},
        iterations=[r.iterations for r in table.reports],
        increments=[r.increments for r in table.reports],
        diagnostics={
            "quadrature_check": table.quadrature_check,
            "contract": contracts,
            "final_rates": final_rates,
            "rate_threshold": RATE_THRESHOLD,
        },
        errors=table.errors,
        rates=table.rates,
    )


def cmd_complex_check(cfg: dict, paths: dict) -> int:
    mesh, mesh_meta = _build_mesh(cfg)
    result = verify.complex_check(mesh, seed=cfg["seed"])
    return _finish(
        paths, result["pass"], params={"seed": cfg["seed"]}, mesh=mesh_meta, diagnostics=result
    )


def cmd_l3_study(cfg: dict, paths: dict) -> int:
    params = {"bc_family": cfg["params"].bc_family, "samples": cfg["samples"], "seed": cfg["seed"]}
    result = verify.l3_study(cfg["levels"], **params)
    rows = zip(result["levels"], result["max_ratios"])
    return _finish(
        paths,
        result["growth_ok"],
        csv="n,max_ratio\n" + "".join(f"{n},{ratio!r}\n" for n, ratio in rows),
        params=params,
        mesh={"levels": result["levels"]},
        diagnostics=result,
    )


COMMANDS = {
    "solve": cmd_solve,
    "convergence": cmd_convergence,
    "complex-check": cmd_complex_check,
    "l3-study": cmd_l3_study,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mhdfem",
        description="Structure-preserving incompressible MHD solver and its verification studies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("solve", "run one Picard solve and write a diagnostics report"),
        ("convergence", "run a refinement study and assert observed rates"),
        ("complex-check", "check the discrete sequence structure on one mesh"),
        ("l3-study", "sample the divergence-free L3/curl ratio across levels"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to a JSON run config")
        p.add_argument("--out-dir", default=".", help="directory for reports")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        paths = _output_paths(cfg, args.out_dir, args.command)
        return COMMANDS[args.command](cfg, paths)
    except (LinAlgError, MhdError, StudyError, MeshError) as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except (ConfigError, VerifyError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
