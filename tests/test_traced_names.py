"""The benchmark's traced run wraps tightrel functions by name; a rename
would make `bench/run.py --trace 1` fail, so every name must resolve."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def test_traced_names_resolve():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.WRAPPED
    for mod_name, fns in tracing.WRAPPED.items():
        module = importlib.import_module(f"tightrel.{mod_name}")
        for fn in fns:
            assert callable(getattr(module, fn, None)), f"tightrel.{mod_name}.{fn}"
