"""The benchmark's span hooks resolve against the package.

perfbench times the package by wrapping its functions by name, from
outside; a rename that leaves a hook behind fails here, not in the
benchmark run."""

import ast
import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _spans():
    """``perfbench/spans.py``, loaded once under its own module name;
    its dataclass needs the module in ``sys.modules``."""
    name = "perfbench_spans"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, PERFBENCH / "spans.py")
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


def _phases() -> dict:
    """The phase tuples of ``run.py``, read from its source: importing it
    sets the BLAS thread variables of the process."""
    tree = ast.parse((PERFBENCH / "run.py").read_text())
    return {
        target.id: ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name) and target.id.endswith("_PHASE")
    }


def test_every_layer_has_spans():
    spans = _spans()
    targets = spans.all_layer_callables()
    assert {name.split(".")[0] for name, _, _ in targets} == set(spans.LAYERS)
    assert all(callable(vars(owner)[attr]) for _, owner, attr in targets)


def test_phase_entry_points_resolve():
    phases = _phases()
    assert set(phases) == {"SETUP_PHASE", "SOLVE_PHASE", "VERIFY_PHASE"}
    names = sum(phases.values(), ())
    targets = _spans().named_callables(names)
    assert [name for name, _, _ in targets] == list(names)
    assert all(callable(vars(owner)[attr]) for _, owner, attr in targets)
