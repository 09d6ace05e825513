"""The benchmark's traced function list must name functions that exist,
so that a rename or deletion fails here and not only in a traced run."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def test_traced_functions_resolve():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.FUNCTIONS
    for key in tracing.FUNCTIONS:
        module, name = key.split(".")
        assert callable(getattr(importlib.import_module(f"mntag.{module}"), name, None)), key
