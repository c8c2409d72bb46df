"""Closed-loop runner: one client, one process, no threads.

Usage: python3 perfbench/runner.py JOB.json (run.py writes the job and
starts this with src/ on PYTHONPATH).

Runs in a fresh interpreter so that its peak RSS is the program's alone.
It calls coinflip.cli.main(argv) in-process with stdout captured, one op
at a time, with a gc.collect() between ops. The collector stays enabled;
gc.freeze() after the warm-up only exempts the objects that exist by then
(modules, functions) from collection, so the collect between ops costs
what the op left behind instead of a walk over the whole interpreter.
After one untimed warm-up op it repeats the workload's pass until less
than half a pass of the time is left, so that a run ends close to its
time; in trace mode the second half of the time runs with spans.
Outputs of the first pass are returned for checking against reference
answers; every later pass is compared with the first.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import resource
import sys
import time
import traceback

from spans import Tracer, layer_seconds


def run_op(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crashing op is a failed op; the loop goes on
            rc = -1
            traceback.print_exc()
        t1 = time.perf_counter()
    return t1 - t0, rc, out.getvalue(), err.getvalue()


class Loop:
    def __init__(self, cli, ops):
        self.cli, self.ops = cli, ops
        self.first = None  # [(rc, stdout, stderr)] of the first pass
        self.passes = []  # {"latency": [...], "differs": [...], "traced": bool}

    def run(self, seconds, tracer=None):
        deadline = time.perf_counter() + seconds
        while True:
            started = time.perf_counter()
            latency, differs, outputs = [], [], []
            for i, argv in enumerate(self.ops):
                gc.collect()
                if tracer is not None:
                    tracer.begin_op(len(self.passes) * len(self.ops) + i)
                dt, rc, out, err = run_op(self.cli, argv)
                latency.append(dt)
                if tracer is not None:
                    tracer.end_op()
                if self.first is None:
                    outputs.append((rc, out, err))
                elif (rc, out) != self.first[i][:2]:
                    differs.append(i)
            if self.first is None:
                self.first = outputs
            self.passes.append({"latency": latency, "differs": differs, "traced": tracer is not None})
            now = time.perf_counter()
            if now + (now - started) / 2 >= deadline:
                return


def kernel_agreement():
    """Pure vs compiled scan on the old bench_scan.py cases, when both import."""
    try:
        from coinflip import _scan_cy as compiled
    except ImportError as exc:
        return {"status": "skipped", "reason": f"no second kernel: {exc}"}
    from coinflip import _scan as pure
    from coinflip.lattice import FlipKind
    from coinflip.shapes import rhombus, triangle_up

    cases = [(f"triangle {n}", triangle_up(n), FlipKind.ROTATE_180) for n in (10, 20, 40)]
    cases += [(f"rhombus {n}", rhombus(n), FlipKind.MIRROR_HORIZONTAL) for n in (10, 20, 40)]
    for label, shape, flip in cases:
        start = sorted(shape)
        image = sorted(flip.apply(c) for c in start)
        if pure.scan_pairs(start, image) != compiled.scan_pairs(start, image):
            return {"status": "mismatch", "reason": f"kernels disagree on {label}"}
    return {"status": "agree", "reason": f"{len(cases)} cases"}


def main(job_path):
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    import coinflip.cli as cli
    from coinflip.oracle import backend

    run_op(cli, job["warmup"])  # untimed
    loop = Loop(cli, job["ops"])
    result = {"backend": backend()}
    gc.collect()
    gc.freeze()
    if not job["trace"]:
        loop.run(job["seconds"])
        result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        loop.run(job["seconds"] / 2)
        tracer = Tracer()
        tracer.install()
        try:
            loop.run(job["seconds"] / 2, tracer)
        finally:
            tracer.uninstall()
        n_ops = len(job["ops"])
        per_pass = {}
        for span in tracer.spans:
            per_pass.setdefault(span[0] // n_ops, []).append(span)
        result["trace"] = {"layer_seconds": [dict(layer_seconds(spans)) for spans in per_pass.values()],
                           "op_counts": tracer.op_counts[:n_ops]}
        with open(job["spans_out"], "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)
    result["kernel_agreement"] = kernel_agreement()
    result["first"] = loop.first
    result["passes"] = loop.passes
    with open(job["out"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1])
