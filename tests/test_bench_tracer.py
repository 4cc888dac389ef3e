"""The benchmark's traced run (perfbench/tracing.py) rebinds fallfact's layer
entry points by name on the modules that call them.  Every name in that
table must exist where it is patched, or the traced run fails at install."""

import importlib.util
from pathlib import Path

import fallfact
import fallfact.cli  # noqa: F401  (the tracer patches the cli module too)

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_patch_table_installs_and_restores():
    tracer = _tracing_module().Tracer()
    tracer.install(fallfact)
    try:
        patched = list(tracer._patches)
        assert patched
        for obj, attr, old in patched:
            assert getattr(obj, attr) is not old, (obj, attr)
    finally:
        tracer.restore()
    for obj, attr, old in patched:
        assert getattr(obj, attr) is old, (obj, attr)
