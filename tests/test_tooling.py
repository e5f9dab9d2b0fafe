"""The benchmark tracer's targets exist in the library, the library never
patches the recursion limit, and the trusted constructor is not exported."""
import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "perfbench" / "tracing.py"


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


def test_library_never_raises_the_recursion_limit():
    sources = sorted((ROOT / "src" / "polymu").glob("*.py"))
    assert sources
    assert [p.name for p in sources if "setrecursionlimit" in p.read_text()] == []


def test_trusted_constructor_is_not_exported():
    import polymu

    assert "_trusted" not in polymu.__all__
    assert all(not name.startswith("_") for name in polymu.__all__)
