"""Layer spans recorded from outside coinflip, by wrapping public functions.

Tracer.install() replaces each traced function with a wrapper in every
loaded coinflip module that holds it (so `from x import f` aliases are
caught too) and uninstall() puts the originals back. A span is
(op, id, parent id, layer, start, end, self seconds); self time is the
span minus the whole of its child spans, including the wrappers' own
bookkeeping, so that cost lands in trace.overhead_ratio and not in a layer.

Counts are taken after a span's clock stops: calls per layer, scan pairs
and bounding-box cells, placements decoded, placements consumed, coins
labelled or parsed, cells rendered.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from collections import Counter
from time import perf_counter


def _box(points) -> tuple[int, int]:
    a = [p[0] for p in points]
    b = [p[1] for p in points]
    return max(a) - min(a) + 1, max(b) - min(b) + 1


def _scan_counts(tracer, args, result):
    start, flipped = args[0], args[1]
    (sa, sb), (fa, fb) = _box(start), _box(flipped)
    # Translations a dense (box or FFT) kernel would evaluate: the full
    # correlation grid of the two bounding boxes.
    return {"scan.pairs": len(start) * len(flipped), "scan.box_cells": (sa + fa - 1) * (sb + fb - 1)}


def _solve_counts(tracer, args, result):
    return {"oracle.placements": len(result.optimal_placements)}


def _consumer_counts(tracer, args, result):
    tracer.used.add(args[1])
    return None


def _component_counts(tracer, args, result):
    return {"lattice.components_coins": len(args[0])}


def _render_counts(tracer, args, result):
    return {"render.cells": len(frozenset(args[0]) | frozenset(args[1]))}


def _parse_counts(tracer, args, result):
    return {"shapes.parse_coins": len(result)}


# (module, function, layer, counter). The compiled kernel is optional.
TARGETS = [
    ("coinflip.cli", "main", "cli", None),
    ("coinflip.shapes", "build", "shapes.build", None),
    ("coinflip.shapes", "triangle_up", "shapes.build", None),
    ("coinflip.shapes", "rhombus", "shapes.build", None),
    ("coinflip.shapes", "hexagon", "shapes.build", None),
    ("coinflip.shapes", "load_custom", "shapes.parse", _parse_counts),
    ("coinflip._scan", "scan_pairs", "scan.pure", _scan_counts),
    ("coinflip._scan_cy", "scan_pairs", "scan.compiled", _scan_counts),
    ("coinflip.oracle", "solve", "oracle.solve", _solve_counts),
    ("coinflip.oracle", "protrusions", "oracle.protrusions", _consumer_counts),
    ("coinflip.oracle", "move_plan", "oracle.move_plan", _consumer_counts),
    ("coinflip.oracle", "target_set", "oracle.target_set", _consumer_counts),
    ("coinflip.lattice", "connected_components", "lattice.components", _component_counts),
    ("coinflip.lattice", "classify_triangle", "lattice.classify", None),
    ("coinflip.render", "ascii_diagram", "render", _render_counts),
    ("coinflip.render", "svg_diagram", "render", _render_counts),
]


def formulas_targets():
    mod = importlib.import_module("coinflip.formulas")
    return [
        ("coinflip.formulas", name, "formulas", None)
        for name, fn in vars(mod).items()
        if inspect.isfunction(fn) and fn.__module__ == mod.__name__ and not name.startswith("_")
    ]


class Tracer:
    def __init__(self):
        self.spans = []
        self.op_counts = []  # one dict of counts per op, in op order
        self.counts = Counter()  # count totals for the current op
        self.used = set()  # placements consumed in the current op
        self.op = None
        self._stack = []  # [span id, covered-by-children seconds]
        self._patches = []

    def install(self):
        for module_name, name, layer, counter in TARGETS + formulas_targets():
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                continue
            orig = getattr(module, name)
            wrapper = self._wrap(orig, layer, counter)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "coinflip" or mod_name.startswith("coinflip."):
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, attr, wrapper)
                            self._patches.append((mod, attr, orig))

    def uninstall(self):
        for mod, attr, orig in reversed(self._patches):
            setattr(mod, attr, orig)
        self._patches.clear()

    def _wrap(self, fn, layer, counter):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            parent = stack[-1][0] if stack else None
            frame = [len(spans), 0.0]
            spans.append(None)  # reserve the id; filled in when the span ends
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[frame[0]] = (self.op, frame[0], parent, layer, t0, t1, t1 - t0 - frame[1])
            self.counts[f"{layer}.calls"] += 1
            if counter is not None:
                self.counts.update(counter(self, args, result) or {})
            if stack:
                stack[-1][1] += perf_counter() - t0
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def begin_op(self, op):
        self.op = op
        self.counts = Counter()
        self.used = set()

    def end_op(self):
        """Keep this op's counts, plus the placements its callers consumed."""
        self.op_counts.append(dict(self.counts, **{"oracle.placements_used": len(self.used)}))


def layer_seconds(spans) -> Counter:
    """Self seconds per layer; scan kernels also add up under `scan`."""
    out = Counter()
    for _op, _id, _parent, layer, _t0, _t1, self_s in spans:
        out[layer] += self_s
        if layer.startswith("scan."):
            out["scan"] += self_s
    return out
