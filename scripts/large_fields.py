"""Run every `glnq verify` suite in process at max_n=2 over fields the CLI
does not take by default (q = 11 unless others are given), print each
suite's seconds and passed checks, and exit 1 if any check fails.

Run from the repository root: python scripts/large_fields.py [Q ...]
"""
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from glnq.cli import SUITE_RUNNERS  # noqa: E402
from glnq.field import fq  # noqa: E402

MAX_N = 2

failed = []
for q in map(int, sys.argv[1:] or ["11"]):
    ctx = fq(q)
    passed = total = 0
    start = time.perf_counter()
    for name, run in SUITE_RUNNERS.items():
        t0 = time.perf_counter()
        reports = run(ctx, MAX_N)
        ok = sum(r.passed for r in reports)
        print(f"q={q} {name}: {time.perf_counter() - t0:.2f} s, {ok}/{len(reports)} checks")
        passed, total = passed + ok, total + len(reports)
        failed.extend(f"q={q} {name}: {r.name} failed" for r in reports if not r.passed)
    print(f"q={q}: {time.perf_counter() - start:.2f} s, {passed}/{total} checks passed")
sys.exit("\n".join(failed) or None)
