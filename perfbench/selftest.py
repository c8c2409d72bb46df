#!/usr/bin/env python3
"""Self-test of the benchmark's correctness accounting.

Usage (from the repository root): python3 perfbench/selftest.py

For every workload (seed 0) it runs one pass of the real ops through the
runner and checks that error_ratio (failed / attempted) is 0. Then, for
each command in the pass, it changes one digit of that op's output, or
its exit code, and checks that the same scoring reports a failure. Exits
1 if any of this does not hold.
"""

from __future__ import annotations

import copy
import os
import random
import shutil
import sys

from reference import ShapeBook
from run import ROOT, WORK, corrupt, run_runner, score
from workloads import WORKLOADS


def main() -> int:
    os.chdir(ROOT)
    bad = 0
    for name, build in WORKLOADS.items():
        workdir = os.path.join(WORK, f"selftest-{name}")
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)
        book = ShapeBook()
        ops, warmup = build(random.Random(0), book, workdir)
        res = run_runner(workdir, ops, warmup, 0, 0)
        attempted, failed, _ = score(ops, res, book)
        print(f"{name}: clean pass, error_ratio {failed}/{attempted}")
        bad += failed != 0
        firsts = {}
        for i, argv in enumerate(ops):
            firsts.setdefault(argv[0], i)
        for cmd, i in sorted(firsts.items()):
            for what in ("digit", "exit code"):
                broken = copy.deepcopy(res)
                rc, out, err = broken["first"][i]
                broken["first"][i] = (rc, corrupt(out), err) if what == "digit" else (2, out, err)
                attempted, failed, _ = score(ops, broken, book)
                print(f"{name}: corrupted {what} of `{cmd}`, error_ratio {failed}/{attempted}")
                bad += failed == 0
    print("selftest", "FAILED" if bad else "passed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
