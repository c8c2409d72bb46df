"""The benchmark's tracer (perfbench/spans.py) wraps coinflip functions
that it names in TARGETS. It skips a module that does not import, but a
name missing from a module that does would crash every traced run."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    resolved = 0
    for module_name, name, _layer, _counter in load_spans().TARGETS:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            continue  # skipped by the tracer too
        assert callable(getattr(module, name, None)), f"{module_name}.{name}"
        resolved += 1
    assert resolved
