#!/usr/bin/env python3
"""The coinflip benchmark: one command, every metric, outputs checked.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are in workloads.py and BENCHMARK.json. The program is run from
`src/` as checked out; nothing is installed. Steps, all in this process
unless noted:

1. build the seeded ops and write their shape files under .perfbench_work/;
2. set-up time: fresh interpreters each import coinflip.cli and call
   backend(), in windows of three of which the fastest counts, half of
   the windows before step 3 and half after; the median is setup_s;
3. a fresh runner process (runner.py) does one warm-up op, then repeats
   the pass for about S seconds (trace 1: S/2 plain, then S/2 with spans);
4. every output is checked against reference.py's answers, and a
   corrupted copy of one output per command must fail that check;
5. the median pass must take at least half as long as the first: the
   CLI runs each op in a fresh process, so state carried from op to op
   (a module-level cache) makes the run incorrect, not fast.

The last stdout line is the result: {"correct", "attempted", "failed",
"metrics"}; with --trace 0 the end-to-end metrics, with --trace 1 the
per-layer ones. The line before it records the environment and kernel.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

from reference import ShapeBook, check
from workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = ".perfbench_work"
SETUP_WINDOWS = 16  # half before the runner, half after, to span the run
SETUP_TRIES = 3  # fresh interpreters per window; noise only adds time
CARRY_LIMIT = 0.5  # least median-pass / first-pass time without carried state
SETUP_PROBE = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import coinflip.cli\n"
    "from coinflip.oracle import backend\n"
    "backend()\n"
    "print(time.perf_counter() - t0)\n"
)


def child_env():
    path = os.path.join(ROOT, "src")
    old = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=path + (os.pathsep + old if old else ""))


def setup_samples(windows: int) -> list[float]:
    """Per window, the fastest import-plus-backend() time of SETUP_TRIES fresh interpreters."""
    cmd = [sys.executable, "-c", SETUP_PROBE]
    samples = []
    for _ in range(windows):
        tries = [subprocess.run(cmd, env=child_env(), cwd=ROOT, check=True, capture_output=True,
                                text=True, timeout=60).stdout for _ in range(SETUP_TRIES)]
        samples.append(min(map(float, tries)))
    return samples


def commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def percentile(values, q) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def corrupt(text: str) -> str:
    """Change the middle digit of an output."""
    digits = [i for i, ch in enumerate(text) if ch.isdigit()]
    i = digits[len(digits) // 2]
    return text[:i] + ("9" if text[i] != "9" else "8") + text[i + 1:]


def corruption_detected(ops, first, book) -> bool:
    """The check must reject a corrupted output of every command it saw."""
    seen = {}
    for argv, (rc, out, _err) in zip(ops, first):
        seen.setdefault(argv[0], (argv, out))
    return not any(check(argv, 0, corrupt(out), book) for argv, out in seen.values())


def run_runner(workdir, ops, warmup, seconds, trace):
    """Run runner.py on these ops in a fresh interpreter; None if it crashed."""
    job = {"ops": ops, "warmup": warmup, "seconds": seconds,
           "trace": trace, "out": os.path.join(workdir, "runner.json"),
           "spans_out": os.path.join(workdir, "spans.json")}
    job_path = os.path.join(workdir, "job.json")
    with open(job_path, "w", encoding="utf-8") as fh:
        json.dump(job, fh)
    done = subprocess.run([sys.executable, os.path.join(ROOT, "perfbench", "runner.py"), job_path],
                          env=child_env(), cwd=ROOT, timeout=170)
    if done.returncode != 0:
        print(f"error: runner exited with {done.returncode}", file=sys.stderr)
        return None
    with open(job["out"], encoding="utf-8") as fh:
        return json.load(fh)


def score(ops, res, book):
    """(attempted, failed, ok per op). An op fails in a pass when its first
    output is wrong, or when this pass's output differs from the first."""
    ok = [check(argv, rc, out, book) for argv, (rc, out, _err) in zip(ops, res["first"])]
    wrong = {i for i, good in enumerate(ok) if not good}
    attempted = sum(len(p["latency"]) for p in res["passes"])
    failed = sum(len(wrong | set(p["differs"])) for p in res["passes"])
    return attempted, failed, ok


def layer_metrics(trace, ops, passes):
    """Per-layer metrics for one pass: medians of traced passes, exact counts."""
    per_pass = trace["layer_seconds"]
    secs = {k: statistics.median(p.get(k, 0.0) for p in per_pass) for p in per_pass for k in p}
    counts = {}
    for op in trace["op_counts"]:
        for k, v in op.items():
            counts[k] = counts.get(k, 0) + v
    kernels = {k: counts[f"scan.{k}.calls"] for k in ("pure", "compiled") if f"scan.{k}.calls" in counts}
    scanning = [op for op in trace["op_counts"] if op.get("scan.pairs")]
    over = [op for op in scanning if op["scan.box_cells"] > op["scan.pairs"]]
    pairs, placements, scan_s = counts.get("scan.pairs", 0), counts.get("oracle.placements", 0), secs.get("scan", 0.0)
    wall = lambda traced: statistics.median(sum(p["latency"]) for p in passes if p["traced"] == traced)
    values = {
        "scan.s": (scan_s, "s"),
        "scan.calls": (sum(kernels.values()), "count"),
        "scan.pairs": (pairs, "count"),
        "scan.pairs_per_s": (pairs / scan_s if scan_s else 0.0, "1/s"),
        # A float: far-flung boxes run past 2^64 cells, beyond what many JSON readers take as an integer.
        "scan.box_cells": (float(counts.get("scan.box_cells", 0)), "count"),
        "oracle.solve_self_s": (secs.get("oracle.solve", 0.0), "s"),
        "oracle.placements": (placements, "count"),
        "oracle.placements_used_ratio": (
            counts.get("oracle.placements_used", 0) / placements if placements else 0.0, "ratio"),
        "oracle.protrusions_s": (secs.get("oracle.protrusions", 0.0), "s"),
        "oracle.target_set_s": (secs.get("oracle.target_set", 0.0), "s"),
        "oracle.move_plan_s": (secs.get("oracle.move_plan", 0.0), "s"),
        "lattice.components_s": (secs.get("lattice.components", 0.0), "s"),
        "lattice.components_coins": (counts.get("lattice.components_coins", 0), "count"),
        "lattice.classify_s": (secs.get("lattice.classify", 0.0), "s"),
        "cli.self_s": (secs.get("cli", 0.0), "s"),
        "render.s": (secs.get("render", 0.0), "s"),
        "render.cells": (counts.get("render.cells", 0), "count"),
        "shapes.build_s": (secs.get("shapes.build", 0.0), "s"),
        "shapes.parse_s": (secs.get("shapes.parse", 0.0), "s"),
        "shapes.parse_coins": (counts.get("shapes.parse_coins", 0), "count"),
        "formulas.s": (secs.get("formulas", 0.0), "s"),
        "ops.scanning": (len(scanning), "count"),
        "ops.box_over_pairs_share": (len(over) / len(scanning) if scanning else 0.0, "ratio"),
        # A ratio, not a difference: the difference is below the noise and can come out negative.
        "trace.overhead_ratio": (wall(True) / wall(False), "ratio"),
    }
    per_op = [
        {"argv": argv, **{k: op.get(k, 0) for k in ("scan.pairs", "scan.box_cells", "oracle.placements")}}
        for argv, op in zip(ops, trace["op_counts"])
    ]
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}, per_op, kernels


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="coinflip benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "coinflip", "cli.py")):
        print(f"error: no coinflip sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    workdir = os.path.join(WORK, f"{args.workload}-seed{args.seed}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)

    book = ShapeBook()
    ops, warmup = WORKLOADS[args.workload](random.Random(args.seed), book, workdir)
    setup = []
    if not args.trace:
        setup_samples(1)  # compiles the .pyc files of a fresh checkout
        setup = setup_samples(SETUP_WINDOWS // 2)

    t0 = time.perf_counter()
    res = run_runner(workdir, ops, warmup, args.seconds, args.trace)
    runner_s = time.perf_counter() - t0
    if res is None:
        return 1
    if not args.trace:
        setup += setup_samples(SETUP_WINDOWS - len(setup))
    attempted, failed, ok = score(ops, res, book)
    if not corruption_detected(ops, res["first"], book):
        print("error: a corrupted output passed the reference check", file=sys.stderr)
        return 3
    plain = [p["latency"] for p in res["passes"] if not p["traced"]]
    latencies = [t for times in plain for t in times]
    pass_s = [sum(times) for times in plain]
    carried = statistics.median(pass_s) / pass_s[0]
    if carried < CARRY_LIMIT:
        print(f"error: the median pass took {carried:.2f} of the first; state carried between ops",
              file=sys.stderr)
    agreement = res["kernel_agreement"]
    correct = failed == 0 and agreement["status"] != "mismatch" and carried >= CARRY_LIMIT
    info = {
        "workload": args.workload, "seed": args.seed, "ops_per_pass": len(ops),
        "passes": len(res["passes"]), "latency_samples": len(latencies),
        "error_ratio": failed / attempted, "backend": res["backend"],
        "first_pass_s": pass_s[0], "median_over_first_pass": carried, "kernel_agreement": agreement,
        "python": platform.python_version(), "numpy": np.__version__, "cores": os.cpu_count(),
        "commit": commit(), "runner_s": round(runner_s, 3),
        "first_failures": [ops[i] for i in range(len(ops)) if not ok[i]][:3],
    }
    if args.trace:
        metrics, per_op, kernels = layer_metrics(res["trace"], ops, res["passes"])
        info["kernels"] = kernels
        with open(os.path.join(workdir, "ops.json"), "w", encoding="utf-8") as fh:
            json.dump(per_op, fh)
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "wall_s": {"value": statistics.median(pass_s), "unit": "s"},
            "op_p50_ms": {"value": statistics.median(latencies) * 1e3, "unit": "ms"},
            "op_p99_ms": {"value": percentile(latencies, 0.99) * 1e3, "unit": "ms"},
            "peak_rss_mb": {"value": res["peak_rss_kb"] / 1024, "unit": "MB"},
        }
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
