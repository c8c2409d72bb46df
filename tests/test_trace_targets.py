"""The benchmark's tracer (perfbench/spans.py) wraps coinflip functions
that it names in TARGETS. It skips a module that does not import, but a
name missing from a module that does would crash every traced run, and
so would a counter that no longer fits the arguments of its function."""

import importlib
import importlib.util
import random
from pathlib import Path

from coinflip import cli

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


def test_the_scan_counters_take_the_real_arguments(tmp_path):
    path = tmp_path / "far.txt"
    rng = random.Random(30)
    coins = {(rng.randint(-(2**40), 2**40), rng.randint(-(2**40), 2**40)) for _ in range(30)}
    assert len(coins) == 30
    path.write_text("".join(f"{a} {b}\n" for a, b in coins))
    ops = [
        ["solve", "triangle", "5", "--moves"],  # 15 coins, the product kernel
        ["analyze", "--shape-file", str(path)],  # every flip, on the Counter
        ["render", "rhombus", "4", "--format", "svg"],
    ]
    tracer = load_spans().Tracer()
    tracer.install()
    try:
        for i, argv in enumerate(ops):
            tracer.begin_op(i)
            assert cli.main(argv) == 0
            tracer.end_op()
    finally:
        tracer.uninstall()
    assert [c["scan.pure.calls"] for c in tracer.op_counts] == [1, 3, 1]
    assert [c["scan.pairs"] for c in tracer.op_counts] == [225, 2700, 256]
