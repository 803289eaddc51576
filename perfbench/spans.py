"""Spans around calls into mhdfem, installed from outside the package.

A `Recorder` keeps spans in memory: name, start, end, parent span and
the run id shared by every span of one run.  `instrument` replaces
package functions and methods by wrappers that open a span per call and
puts the originals back on exit.  Because modules bind each other's
functions by name (``from .mesh import unit_cube_mesh``), every binding
of a wrapped function in every loaded mhdfem module is replaced, not
only the one in the defining module.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import importlib
import inspect
import sys
import time

PACKAGE = "mhdfem"
LAYERS = ("mesh", "derham", "assembly", "linalg", "operators", "mhd", "verify")


@dataclasses.dataclass
class Span:
    id: int
    parent: int | None
    name: str
    run_id: str
    start: float
    end: float = 0.0
    attrs: dict = dataclasses.field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _annotate(name, args, kwargs, result) -> dict:
    """Counts read at the layer boundary from arguments or results."""
    if name == "assembly.assemble_bilinear":
        return {"form": kwargs.get("form_id", args[0] if args else None)}
    if name == "linalg.flatten":
        A = result[0]
        return {"unknowns": int(A.shape[0]), "nnz": int(A.nnz)}
    if name == "mhd.MhdDriver.picard_solve":
        return {"iterations": int(result[1].iterations)}
    return {}


class Recorder:
    """In-memory span store for one run; single-threaded by design."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._open: list[int] = []

    def _begin(self, name: str) -> Span:
        parent = self._open[-1] if self._open else None
        span = Span(len(self.spans), parent, name, self.run_id, time.perf_counter())
        self.spans.append(span)
        self._open.append(span.id)
        return span

    def _finish(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._open.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        span = self._begin(name)
        try:
            yield span
        finally:
            self._finish(span)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._finish(span)
            span.attrs = _annotate(name, args, kwargs, result)
            return result

        return wrapper

    def as_records(self) -> list[dict]:
        return [dataclasses.asdict(s) for s in self.spans]


def public_callables(module):
    """(span name, owner, attribute) for every public function of a layer
    module and every public method, ``__init__`` and ``__call__`` of its
    plain classes.  Dataclasses and exceptions are records, not layers,
    and are skipped, as are properties and class methods."""
    layer = module.__name__.rsplit(".", 1)[-1]
    for name, obj in sorted(vars(module).items()):
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield f"{layer}.{name}", module, name
        elif (
            inspect.isclass(obj)
            and not issubclass(obj, BaseException)
            and not dataclasses.is_dataclass(obj)
        ):
            for meth, fn in sorted(vars(obj).items()):
                public = not meth.startswith("_") or meth in ("__init__", "__call__")
                if public and inspect.isfunction(fn):
                    yield f"{layer}.{name}.{meth}", obj, meth


def all_layer_callables():
    return [
        target
        for layer in LAYERS
        for target in public_callables(importlib.import_module(f"{PACKAGE}.{layer}"))
    ]


def named_callables(names):
    """Targets for span names such as ``mesh.unit_cube_mesh`` or
    ``mhd.MhdDriver.__init__``."""
    targets = []
    for name in names:
        layer, *path = name.split(".")
        owner = importlib.import_module(f"{PACKAGE}.{layer}")
        for part in path[:-1]:
            owner = getattr(owner, part)
        targets.append((name, owner, path[-1]))
    return targets


@contextlib.contextmanager
def instrument(recorder: Recorder, targets):
    """Replace each target by a span-recording wrapper for the duration
    of the block; every original is restored on exit."""
    modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == PACKAGE]
    undo = []
    try:
        for name, owner, attr in targets:
            original = vars(owner)[attr]
            wrapper = recorder.wrap(name, original)
            if inspect.isclass(owner):
                undo.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        undo.append((mod, key, original))
                        setattr(mod, key, wrapper)
        yield recorder
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
