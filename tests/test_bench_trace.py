"""The benchmark tracer patches functions by name; a name it lists that no
longer exists is reported as absent and its metrics read 0. This resolves
every name the way the tracer's ``_replace`` does, without patching, so a
rename or deletion fails here instead of only in the traced benchmark runs."""

import importlib
import importlib.util
from pathlib import Path

TRACE_PATH = Path(__file__).resolve().parent.parent / "bench" / "trace.py"


def load_trace():
    spec = importlib.util.spec_from_file_location("bench_trace", TRACE_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolves(module_name, attribute):
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return False
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return False
    original = owner.__dict__.get(name) if isinstance(owner, type) else getattr(owner, name, None)
    return original is not None


def test_every_traced_name_exists():
    trace = load_trace()
    names = [(module, attribute) for module, attribute, *_ in [*trace.TARGETS, *trace.COUNTED]]
    assert names
    assert [f"{module}.{attribute}" for module, attribute in names if not resolves(module, attribute)] == []
