"""Run every `glnq verify` suite in process at max_n=2 over fields the CLI
does not take by default (q = 11 unless others are given), print each
suite's seconds and passed checks and, after each field, the process's peak
RSS so far, and exit 1 if any check fails.  A Q that is not a prime power
ends in a one-line error and exit 2 before any suite runs.

Run from the repository root: python scripts/large_fields.py [Q ...]
"""
import os
import resource
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from glnq.cli import SUITE_RUNNERS  # noqa: E402
from glnq.field import fq  # noqa: E402

MAX_N = 2

try:
    fields = [fq(int(arg)) for arg in sys.argv[1:] or ["11"]]
except ValueError as err:
    print(f"large_fields.py: {err}", file=sys.stderr)
    sys.exit(2)

failed = []
for ctx in fields:
    q, passed, total = ctx.q, 0, 0
    start = time.perf_counter()
    for name, run in SUITE_RUNNERS.items():
        t0 = time.perf_counter()
        reports = run(ctx, MAX_N)
        ok = sum(r.passed for r in reports)
        print(f"q={q} {name}: {time.perf_counter() - t0:.2f} s, {ok}/{len(reports)} checks")
        passed, total = passed + ok, total + len(reports)
        failed.extend(f"q={q} {name}: {r.name} failed" for r in reports if not r.passed)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    print(f"q={q}: {time.perf_counter() - start:.2f} s, {passed}/{total} checks passed, "
          f"peak RSS {rss_mb:.1f} MB")
sys.exit("\n".join(failed) or None)
