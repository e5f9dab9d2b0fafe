"""The benchmark tracer's targets exist in the library."""
import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_tracing_targets_resolve():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    missing = [
        (module, attr)
        for _, module, attr in tracing.TARGETS
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert missing == []
