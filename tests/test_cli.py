"""Command line interface: configs, exit codes, report files."""

import ast
import dataclasses
import filecmp
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mhdfem
from mhdfem import cli, verify
from mhdfem.mhd import MhdDriver

MSH_SAMPLE = """$MeshFormat
2.2 0 8
$EndMeshFormat
$Nodes
5
1 0 0 0
2 1 0 0
3 0 1 0
4 0 0 1
5 1 1 1
$EndNodes
$Elements
3
1 2 2 1 1 1 2 3
2 4 2 10 1 1 2 3 4
3 4 2 20 2 2 3 5 4
$EndElements
"""

BASE_CONFIG = {
    "mesh": {"builtin": 2},
    "case": {"builtin": 0.1},
    "picard": {"tol": 1e-10, "maxit": 50},
}


def write_config(tmp_path, name="run.json", **overrides):
    cfg = dict(BASE_CONFIG)
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(path)


def read_report(tmp_path, name):
    with open(tmp_path / name, encoding="utf-8") as fh:
        return json.load(fh)


# ----------------------------------------------------------------------
# config validation


@pytest.mark.parametrize(
    "overrides",
    [
        {"mesh": {"builtin": 2, "msh2": "a.msh"}},
        {"mesh": {}},
        {"mesh": {"builtin": 0}},
        {"mesh": {"builtin": 2.5}},
        {"params": {"Re": -1.0}},
        {"params": {"viscosity": 1.0}},
        {"picard": {"tol": 1.5}},
        {"picard": {"maxit": 0}},
        {"case": {"builtin": -0.1}},
        {"case": {"zero_source": False}},
        {"case": None},
        {"levels": [4, 2]},
        {"levels": []},
        {"samples": 0},
        {"quad_degree": 4},
        {"seed": -1},
        {"outputs": {"csv": 5}},
        {"outputs": {"pickle": "x"}},
        {"bc_family": "periodic"},
        {"nonsense": 1},
        {"quad_degree": 13},
        # JSON reads true and false as numbers, and Infinity and NaN too
        {"picard": {"maxit": True}},
        {"params": {"Rm": float("inf")}},
        {"params": {"s": float("inf")}},
        {"params": {"Re": float("nan")}},
        {"case": {"builtin": float("inf")}},
        {"case": {"builtin": True}},
        {"mesh": {"builtin": True}},
        {"levels": [True, 2, 3]},
        {"samples": True},
        {"seed": True},
        # an output name with no file part would be a directory
        {"outputs": {"json": ""}},
        {"outputs": {"csv": "sub/"}},
        {"outputs": {"json": "."}},
        {"outputs": {"csv": "sub/.."}},
    ],
)
def test_invalid_configs_exit_2(tmp_path, capsys, overrides):
    path = write_config(tmp_path, **overrides)
    assert cli.main(["solve", "--config", path, "--out-dir", str(tmp_path)]) == cli.EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_malformed_json_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    assert cli.main(["solve", "--config", str(path)]) == cli.EXIT_CONFIG
    assert "invalid JSON" in capsys.readouterr().err


def test_missing_config_file_exits_2(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert cli.main(["solve", "--config", missing]) == cli.EXIT_CONFIG
    assert "cannot read" in capsys.readouterr().err


def test_missing_msh_file_exits_2(tmp_path, capsys):
    path = write_config(tmp_path, mesh={"msh2": str(tmp_path / "ghost.msh")})
    assert cli.main(["complex-check", "--config", path, "--out-dir", str(tmp_path)]) == cli.EXIT_CONFIG
    assert "cannot load mesh" in capsys.readouterr().err


def test_truncated_msh_file_exits_2(tmp_path, capsys):
    msh = tmp_path / "cut.msh"
    msh.write_text(MSH_SAMPLE[: MSH_SAMPLE.index("4 0 0 1")], encoding="utf-8")
    path = write_config(tmp_path, mesh={"msh2": str(msh)}, case={"zero_source": True})
    assert cli.main(["complex-check", "--config", path, "--out-dir", str(tmp_path)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "cannot load mesh" in err and "line 9: unexpected end of file" in err


def test_nan_coordinate_in_msh_file_exits_2(tmp_path, capsys):
    msh = tmp_path / "nan.msh"
    msh.write_text(MSH_SAMPLE.replace("3 0 1 0", "3 0 nan 0"), encoding="utf-8")
    path = write_config(tmp_path, mesh={"msh2": str(msh)}, case={"zero_source": True})
    for command in ("complex-check", "solve"):
        assert cli.main([command, "--config", path, "--out-dir", str(tmp_path)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "cannot load mesh" in err and "line 8" in err
    assert not list(tmp_path.glob("*_report.json"))


def test_solve_rejects_the_degenerate_coarse_mesh(tmp_path, capsys):
    path = write_config(tmp_path, mesh={"builtin": 1})
    assert cli.main(["solve", "--config", path, "--out-dir", str(tmp_path)]) == cli.EXIT_CONFIG
    assert "needs n >= 2" in capsys.readouterr().err


def test_convergence_rejects_the_degenerate_coarse_mesh(tmp_path, capsys):
    path = write_config(tmp_path, levels=[1, 2, 3])
    assert cli.main(["convergence", "--config", path, "--out-dir", str(tmp_path)]) == cli.EXIT_CONFIG
    assert "levels n >= 2" in capsys.readouterr().err
    assert not (tmp_path / "convergence_report.json").exists()


def test_missing_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit) as info:
        cli.main([])
    assert info.value.code == 2


def test_output_naming_an_existing_directory_exits_2(tmp_path, capsys, monkeypatch):
    # checked before the run starts: no solve happens
    monkeypatch.setitem(cli.COMMANDS, "solve", lambda cfg, paths: pytest.fail("solve ran"))
    (tmp_path / "sub").mkdir()
    path = write_config(tmp_path, outputs={"json": "sub"})
    assert cli.main(["solve", "--config", path, "--out-dir", str(tmp_path)]) == cli.EXIT_CONFIG
    assert "config error: outputs.json names the directory" in capsys.readouterr().err


@pytest.mark.parametrize("csv_name", ["same.txt", "sub/../same.txt"])
@pytest.mark.parametrize("command", ["convergence", "l3-study"])
def test_report_kinds_naming_one_file_exit_2(tmp_path, capsys, monkeypatch, command, csv_name):
    # the JSON would overwrite the CSV; checked before the run starts
    monkeypatch.setitem(cli.COMMANDS, command, lambda cfg, paths: pytest.fail(f"{command} ran"))
    path = write_config(tmp_path, outputs={"json": "same.txt", "csv": csv_name})
    assert cli.main([command, "--config", path, "--out-dir", str(tmp_path)]) == cli.EXIT_CONFIG
    assert "config error: outputs.json and outputs.csv name one file" in capsys.readouterr().err
    assert not (tmp_path / "same.txt").exists()


@pytest.mark.parametrize("variant", ["multiplier", "augmented"])
@pytest.mark.parametrize("command", ["solve", "convergence"])
def test_a_variant_key_exits_2(tmp_path, capsys, monkeypatch, command, variant):
    # every step is checked against both formulations: there is no
    # variant to choose, and a config that names one gets no run
    monkeypatch.setitem(cli.COMMANDS, command, lambda cfg, paths: pytest.fail(f"{command} ran"))
    path = write_config(tmp_path, variant=variant)
    assert cli.main([command, "--config", path, "--out-dir", str(tmp_path)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error: variant is not an option" in err
    assert "every Picard step is checked against both formulations" in err


# ----------------------------------------------------------------------
# solve


def test_zero_source_solve(tmp_path):
    path = write_config(tmp_path, case={"zero_source": True})
    assert cli.main(["solve", "--config", path, "--out-dir", str(tmp_path)]) == cli.EXIT_PASS
    report = read_report(tmp_path, "solve_report.json")
    assert report["pass"] is True
    assert report["iterations"] == 1
    assert report["errors"] == {}
    assert report["norms"]["state_W"] == 0.0


def test_builtin_solve_report_contents(tmp_path):
    path = write_config(tmp_path)
    assert cli.main(["solve", "--config", path, "--out-dir", str(tmp_path)]) == cli.EXIT_PASS
    report = read_report(tmp_path, "solve_report.json")

    assert set(report["checks"]) == {
        "converged", "divB", "multiplier", "curlE", "energy", "linear_residual",
    }
    assert all(report["checks"].values())
    # the builtin case has a magnetic source g, so the curl bound is no gate
    assert set(report["contract"]) == set(report["checks"]) - {"converged"}
    for gate, verdict in report["contract"].items():
        assert verdict["pass"] is report["checks"][gate]
        assert verdict["bound"] == verify.CONTRACT_BOUNDS[gate]
    assert report["params"]["alpha"] == 1.0
    assert report["params"]["case"] == "builtin"
    assert report["mesh"]["source"] == "builtin"
    assert report["mesh"]["num_cells"] == 48
    assert report["diagnostics"]["divB_max"] <= 1e-10
    assert report["norms"]["u_h1"] > 0
    assert report["errors"]["err_B_l2"] > 0
    assert len(report["increments"]) == report["iterations"]


def test_solve_nonconvergence_exits_1(tmp_path):
    path = write_config(tmp_path, picard={"tol": 1e-10, "maxit": 1})
    assert cli.main(["solve", "--config", path, "--out-dir", str(tmp_path)]) == cli.EXIT_FAIL
    report = read_report(tmp_path, "solve_report.json")
    assert report["pass"] is False
    assert report["checks"]["converged"] is False


@pytest.mark.parametrize("bc_family", ["normal_B", "tangential_B"])
def test_loose_tolerance_solve_passes_the_energy_check(tmp_path, bc_family):
    # the report reads the last iterate's own record, with B- frozen at
    # the previous iterate, so the energy identity holds to rounding
    # however far the loop is from its fixed point
    path = write_config(
        tmp_path,
        mesh={"builtin": 3},
        case={"builtin": 10.0},
        params={"Re": 10.0, "Rm": 10.0},
        picard={"tol": 1e-4},
        bc_family=bc_family,
    )
    assert cli.main(["solve", "--config", path, "--out-dir", str(tmp_path)]) == cli.EXIT_PASS
    report = read_report(tmp_path, "solve_report.json")
    assert report["checks"]["energy"] is True
    assert report["diagnostics"]["energy_residual"] <= 1e-12


def test_solve_reports_the_last_step_record(tmp_path, monkeypatch):
    # each step's cross forms are assembled once, for its solve and its
    # record, and the report measures nothing again
    from mhdfem import assembly
    from mhdfem.mhd import MhdDriver

    forms, runs = [], []
    assemble, picard_solve = assembly.assemble_bilinear, MhdDriver.picard_solve

    def counting(form_id, *args, **kwargs):
        forms.append(form_id)
        return assemble(form_id, *args, **kwargs)

    def recording(self, **kwargs):
        state, run = picard_solve(self, **kwargs)
        runs.append(run)
        return state, run

    monkeypatch.setattr(assembly, "assemble_bilinear", counting)
    monkeypatch.setattr(MhdDriver, "picard_solve", recording)
    path = write_config(tmp_path)
    assert cli.main(["solve", "--config", path, "--out-dir", str(tmp_path)]) == cli.EXIT_PASS
    report = read_report(tmp_path, "solve_report.json")
    # the first step freezes B- = 0 and assembles no cross form
    assert report["iterations"] == 3
    assert forms.count("ohm_cross") == forms.count("lorentz_cross") == 2
    (run,) = runs
    assert report["diagnostics"] == run.diagnostics_history[-1].as_dict()


def test_custom_output_name(tmp_path):
    path = write_config(tmp_path, case={"zero_source": True}, outputs={"json": "out.json"})
    assert cli.main(["solve", "--config", path, "--out-dir", str(tmp_path)]) == cli.EXIT_PASS
    assert (tmp_path / "out.json").exists()


# ----------------------------------------------------------------------
# convergence


def test_convergence_study_mechanics(tmp_path):
    path = write_config(tmp_path, levels=[2, 3, 4])
    code = cli.main(["convergence", "--config", path, "--out-dir", str(tmp_path)])
    report = read_report(tmp_path, "convergence_report.json")
    assert code == (cli.EXIT_PASS if report["pass"] else cli.EXIT_FAIL)
    assert code == cli.EXIT_PASS

    lines = (tmp_path / "convergence_table.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0].split(",")[:8] == [
        "n", "h", "err_u_h1", "err_B_l2", "err_B_hcurl_h", "err_B_l3", "err_E_l2", "err_p_l2",
    ]
    assert len(lines) == 4
    for cell in lines[1].split(","):
        if cell:
            float(cell)

    rates = report["diagnostics"]["final_rates"]
    assert set(rates) == set(cli.RATE_COLUMNS)
    assert all(r >= cli.RATE_THRESHOLD for r in rates.values())
    assert max(report["diagnostics"]["quadrature_check"].values()) < 1e-3
    contracts = report["diagnostics"]["contract"]
    assert len(contracts) == 3
    assert all(verdict["pass"] for contract in contracts for verdict in contract.values())


def test_convergence_requires_three_levels(tmp_path, capsys):
    path = write_config(tmp_path, levels=[2, 4])
    assert cli.main(["convergence", "--config", path, "--out-dir", str(tmp_path)]) == cli.EXIT_CONFIG
    assert "at least 3 levels" in capsys.readouterr().err


def test_convergence_requires_an_exact_solution(tmp_path, capsys):
    path = write_config(tmp_path, case={"zero_source": True}, levels=[2, 3, 4])
    assert cli.main(["convergence", "--config", path, "--out-dir", str(tmp_path)]) == cli.EXIT_CONFIG
    assert "builtin case" in capsys.readouterr().err


def test_convergence_failure_writes_a_report(tmp_path, capsys):
    path = write_config(tmp_path, levels=[2, 3, 4], picard={"tol": 1e-10, "maxit": 1})
    assert cli.main(["convergence", "--config", path, "--out-dir", str(tmp_path)]) == cli.EXIT_FAIL
    assert "did not converge" in capsys.readouterr().err
    report = read_report(tmp_path, "convergence_report.json")
    assert report["pass"] is False
    assert "did not converge" in report["diagnostics"]["failure"]
    assert report["iterations"] == 1


# ----------------------------------------------------------------------
# the solver contract on every iterate


def _break_records(monkeypatch, broken):
    """Make ``MhdDriver.diagnostics`` return ``broken(driver, k, record)``
    for the k-th record it measures (from 1), with the true records
    collected in the returned list."""
    measure, records = MhdDriver.diagnostics, []

    def diagnostics(self, state, cross):
        records.append(measure(self, state, cross))
        return broken(self, len(records), records[-1])

    monkeypatch.setattr(MhdDriver, "diagnostics", diagnostics)
    return records


@pytest.mark.parametrize("divB_max", [1.0, float("nan")])
def test_solve_gates_every_iterate(tmp_path, monkeypatch, divB_max):
    # only the first of the three step records breaks div B; the report's
    # diagnostics are the last record, which holds
    def broken(driver, k, diag):
        return dataclasses.replace(diag, divB_max=divB_max) if k == 1 else diag

    records = _break_records(monkeypatch, broken)
    path = write_config(tmp_path)
    assert cli.main(["solve", "--config", path, "--out-dir", str(tmp_path)]) == cli.EXIT_FAIL
    report = read_report(tmp_path, "solve_report.json")
    assert report["iterations"] == len(records) == 3
    assert report["diagnostics"] == records[-1].as_dict()
    assert report["contract"]["divB"]["pass"] is False
    assert report["checks"] == {
        "converged": True, **{gate: gate != "divB" for gate in report["contract"]}
    }
    assert report["pass"] is False


def test_convergence_gates_every_level(tmp_path, monkeypatch):
    # the middle level, n = 3 (162 cells), breaks the energy identity on
    # every iterate; its rates and the other levels hold
    def broken(driver, k, diag):
        middle = driver.mesh.num_cells == 6 * 3**3
        return dataclasses.replace(diag, energy_residual=1.0) if middle else diag

    _break_records(monkeypatch, broken)
    path = write_config(tmp_path, levels=[2, 3, 4])
    assert cli.main(["convergence", "--config", path, "--out-dir", str(tmp_path)]) == cli.EXIT_FAIL
    report = read_report(tmp_path, "convergence_report.json")
    contracts = report["diagnostics"]["contract"]
    assert [contract["energy"]["pass"] for contract in contracts] == [True, False, True]
    assert all(r >= cli.RATE_THRESHOLD for r in report["diagnostics"]["final_rates"].values())
    assert report["pass"] is False


def test_convergence_gates_the_quadrature_self_check(tmp_path, monkeypatch):
    def loose(driver, state, case, base, **kwargs):
        return dict.fromkeys(base, 2e-3)

    monkeypatch.setattr(verify, "quadrature_self_check", loose)
    path = write_config(tmp_path, levels=[2, 3, 4])
    assert cli.main(["convergence", "--config", path, "--out-dir", str(tmp_path)]) == cli.EXIT_FAIL
    report = read_report(tmp_path, "convergence_report.json")
    contracts = report["diagnostics"]["contract"]
    assert all(verdict["pass"] for contract in contracts for verdict in contract.values())
    assert all(r >= cli.RATE_THRESHOLD for r in report["diagnostics"]["final_rates"].values())
    assert report["pass"] is False


# ----------------------------------------------------------------------
# complex-check and l3-study


def test_complex_check_builtin(tmp_path):
    path = write_config(tmp_path, mesh={"builtin": 1}, case={"zero_source": True})
    assert cli.main(["complex-check", "--config", path, "--out-dir", str(tmp_path)]) == cli.EXIT_PASS
    report = read_report(tmp_path, "complex_report.json")
    assert report["pass"] is True
    assert report["diagnostics"]["dims_full"]["rank_grad"] == 7
    assert report["diagnostics"]["commuting_residual"] <= 1e-10


def test_complex_check_needs_no_case(tmp_path):
    # an omitted case or mesh takes the default the README shows
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"mesh": {"builtin": 1}}), encoding="utf-8")
    assert cli.main(["complex-check", "--config", str(path), "--out-dir", str(tmp_path)]) == 0
    cfg = cli.load_config(str(path))
    assert cfg["case"] == ("builtin", 0.1)
    path.write_text("{}", encoding="utf-8")
    assert cli.load_config(str(path))["mesh"] == ("builtin", 4)


def _write_msh2(mesh, path):
    nodes = [f"{i + 1} {x} {y} {z}" for i, (x, y, z) in enumerate(mesh.vertices.tolist())]
    tets = [f"{k + 1} 4 0 " + " ".join(str(v + 1) for v in c) for k, c in enumerate(mesh.cells)]
    path.write_text(
        "\n".join(["$MeshFormat", "2.2 0 8", "$EndMeshFormat", "$Nodes", str(len(nodes)),
                   *nodes, "$EndNodes", "$Elements", str(len(tets)), *tets, "$EndElements"])
        + "\n",
        encoding="utf-8",
    )


@pytest.mark.parametrize("bc_family", ["normal_B", "tangential_B"])
@pytest.mark.parametrize(
    "mesh_name, betti", [("holed_mesh", "1, 1, 0"), ("cavity_mesh", "1, 0, 1")]
)
def test_solve_on_a_domain_with_holes_fails_early(
    request, tmp_path, capsys, mesh_name, betti, bc_family
):
    msh = tmp_path / "domain.msh"
    _write_msh2(request.getfixturevalue(mesh_name), msh)
    path = write_config(tmp_path, mesh={"msh2": str(msh)}, bc_family=bc_family)
    assert cli.main(["solve", "--config", path, "--out-dir", str(tmp_path)]) == cli.EXIT_FAIL
    assert "run failed: " in (err := capsys.readouterr().err)
    assert f"b0, b1, b2 = {betti}" in err
    assert not (tmp_path / "solve_report.json").exists()


@pytest.mark.parametrize("bc_family", ["normal_B", "tangential_B"])
def test_solve_on_one_tetrahedron_names_the_unstable_pair(
    single_tet, tmp_path, capsys, bc_family
):
    # the Stokes-Poisson operator of the Picard steps is singular there
    msh = tmp_path / "tet.msh"
    _write_msh2(single_tet, msh)
    path = write_config(tmp_path, mesh={"msh2": str(msh)}, bc_family=bc_family)
    assert cli.main(["solve", "--config", path, "--out-dir", str(tmp_path)]) == cli.EXIT_FAIL
    err = capsys.readouterr().err
    assert "run failed: Stokes system singular (velocity/pressure pair unstable)" in err
    assert not (tmp_path / "solve_report.json").exists()


def test_complex_check_reads_msh2(tmp_path):
    msh = tmp_path / "two_tets.msh"
    msh.write_text(MSH_SAMPLE, encoding="utf-8")
    path = write_config(tmp_path, mesh={"msh2": str(msh)}, case={"zero_source": True})
    assert cli.main(["complex-check", "--config", path, "--out-dir", str(tmp_path)]) == cli.EXIT_PASS
    report = read_report(tmp_path, "complex_report.json")
    assert report["mesh"]["source"] == "msh2"
    assert report["mesh"]["num_cells"] == 2
    assert report["diagnostics"]["dims_full"]["rank_div"] == 2


def test_l3_study_outputs(tmp_path):
    path = write_config(tmp_path, levels=[1, 2], samples=5, case={"zero_source": True})
    assert cli.main(["l3-study", "--config", path, "--out-dir", str(tmp_path)]) == cli.EXIT_PASS
    report = read_report(tmp_path, "l3_report.json")
    assert report["pass"] is True
    assert report["diagnostics"]["growth_ok"] is True
    ratios = report["diagnostics"]["max_ratios"]
    assert len(ratios) == 2 and all(np.isfinite(ratios))

    lines = (tmp_path / "l3_table.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "n,max_ratio"
    assert len(lines) == 3


def test_l3_study_needs_two_levels(tmp_path, capsys):
    path = write_config(tmp_path, levels=[2], case={"zero_source": True})
    assert cli.main(["l3-study", "--config", path, "--out-dir", str(tmp_path)]) == cli.EXIT_CONFIG
    assert "at least 2 levels" in capsys.readouterr().err


# ----------------------------------------------------------------------
# one report writer


COMMON_SECTIONS = {
    "params", "mesh", "iterations", "increments", "diagnostics", "errors", "rates", "pass",
}


@pytest.mark.parametrize(
    "command, overrides, report_name, extra",
    [
        ("solve", {}, "solve_report.json", {"residuals", "norms", "contract", "checks"}),
        ("convergence", {"levels": [2, 3, 4]}, "convergence_report.json", set()),
        (
            "convergence",
            {"levels": [2, 3, 4], "picard": {"tol": 1e-10, "maxit": 1}},
            "convergence_report.json",
            set(),
        ),
        ("complex-check", {"mesh": {"builtin": 1}}, "complex_report.json", set()),
        ("l3-study", {"levels": [1, 2], "samples": 5}, "l3_report.json", set()),
    ],
    ids=["solve", "convergence", "convergence-failure", "complex-check", "l3-study"],
)
def test_every_report_carries_the_common_sections(
    tmp_path, command, overrides, report_name, extra
):
    path = write_config(tmp_path, **overrides)
    code = cli.main([command, "--config", path, "--out-dir", str(tmp_path)])
    report = read_report(tmp_path, report_name)
    assert set(report) == COMMON_SECTIONS | extra
    assert isinstance(report["pass"], bool)
    assert code == (cli.EXIT_PASS if report["pass"] else cli.EXIT_FAIL)


def test_one_report_writer():
    # json.dumps is called once in the CLI, by the report writer, and
    # json.dump not at all
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    sites = [
        (node.func.attr, fn.name)
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "json"
        and node.func.attr in ("dump", "dumps")
    ]
    assert sites == [("dumps", "_finish")]
    source = ast.unparse(tree)
    assert source.count("json.dumps(") == 1 and "json.dump(" not in source


def test_cli_names_no_bound_of_its_own():
    # the contract's bounds are named in verify (with linalg.RESIDUAL_TOL):
    # the CLI compares no value with a float literal, and no command
    # checks its levels, which the studies validate
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    float_compares = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Compare)
        and any(
            isinstance(leaf, ast.Constant) and isinstance(leaf.value, float)
            for leaf in ast.walk(node)
        )
    ]
    assert float_compares == []
    level_checks = [
        (fn.name, node.lineno)
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef) and fn.name.startswith("cmd_")
        for node in ast.walk(fn)
        if isinstance(node, ast.Compare)
        and any(isinstance(leaf, ast.Constant) and leaf.value == "levels" for leaf in ast.walk(node))
    ]
    assert level_checks == []


def test_a_verify_error_is_raised_before_any_mesh():
    # the CLI reads a VerifyError that is not a StudyError as a config
    # error: each one is raised before the function builds its first mesh
    tree = ast.parse(Path(verify.__file__).read_text(encoding="utf-8"))
    late = []
    for fn in (node for node in tree.body if isinstance(node, ast.FunctionDef)):
        calls = [
            node.lineno
            for node in ast.walk(fn)
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "unit_cube_mesh"
        ]
        raises = [
            node.lineno
            for node in ast.walk(fn)
            if isinstance(node, ast.Raise)
            and isinstance(node.exc, ast.Call)
            and getattr(node.exc.func, "id", None) == "VerifyError"
        ]
        late += [(fn.name, line) for line in raises if calls and line > min(calls)]
        assert not raises or fn.name in {"builtin_case", "convergence_study", "l3_study"}
    assert late == []


# ----------------------------------------------------------------------
# work done once per run


def _count_topologies(monkeypatch) -> list:
    """Count build_topology calls through every module binding of it."""
    from mhdfem import mesh

    calls = []
    original = mesh.build_topology

    def counting(m):
        calls.append(m)
        return original(m)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "mhdfem":
            for key, val in list(vars(module).items()):
                if val is original:
                    monkeypatch.setattr(module, key, counting)
    return calls


@pytest.mark.parametrize(
    "command, overrides",
    [("solve", {}), ("complex-check", {"case": {"zero_source": True}})],
)
def test_one_topology_per_run(tmp_path, monkeypatch, command, overrides):
    calls = _count_topologies(monkeypatch)
    path = write_config(tmp_path, **overrides)
    assert cli.main([command, "--config", path, "--out-dir", str(tmp_path)]) == cli.EXIT_PASS
    assert len(calls) == 1


# ----------------------------------------------------------------------
# determinism and the installed entry point


def test_reports_are_byte_identical_across_runs(tmp_path):
    path = write_config(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["solve", "--config", path, "--out-dir", str(out_a)]) == cli.EXIT_PASS
    assert cli.main(["solve", "--config", path, "--out-dir", str(out_b)]) == cli.EXIT_PASS
    assert filecmp.cmp(out_a / "solve_report.json", out_b / "solve_report.json", shallow=False)

    path_l3 = write_config(tmp_path, name="l3.json", levels=[1, 2], samples=5,
                           case={"zero_source": True})
    assert cli.main(["l3-study", "--config", path_l3, "--out-dir", str(out_a)]) == cli.EXIT_PASS
    assert cli.main(["l3-study", "--config", path_l3, "--out-dir", str(out_b)]) == cli.EXIT_PASS
    assert filecmp.cmp(out_a / "l3_table.csv", out_b / "l3_table.csv", shallow=False)
    assert filecmp.cmp(out_a / "l3_report.json", out_b / "l3_report.json", shallow=False)


def _child_env() -> dict:
    # the child imports the package under test, installed or not
    paths = [str(Path(mhdfem.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))


def test_module_entry_point(tmp_path):
    path = write_config(tmp_path, mesh={"builtin": 1}, case={"zero_source": True})
    proc = subprocess.run(
        [sys.executable, "-m", "mhdfem.cli", "complex-check",
         "--config", path, "--out-dir", str(tmp_path)],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0
    assert (tmp_path / "complex_report.json").exists()


def test_cli_does_not_import_sympy():
    # sympy is a test dependency only: the manufactured case is numpy
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, mhdfem.cli; print('sympy' in sys.modules)"],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
