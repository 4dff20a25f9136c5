"""The benchmark harness's hold on the package."""

import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_traced_names_exist():
    # perfbench/tracing.py wraps these by name, so a deleted or renamed one
    # would otherwise fail only the benchmark
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for layer, names in tracing.TRACED.items():
        module = importlib.import_module(f"emcavity.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"emcavity.{layer}.{name}"
