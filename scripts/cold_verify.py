"""Run one cold `glnq verify --q Q --format json` per field
q = 2, 3, 4, 5, 7, 8, 9, 11, 13, 16, each at its default max_n, print its
wall time, peak RSS and check count, and compare each report byte for byte
with tests/data/verify_q<Q>.json.  The other supported fields, q = 17 and
19, have no reference: their runs take about 43 s and 86 s.

Run from the repository root: python scripts/cold_verify.py
Each report is left in verify_q<Q>.out; the exit status is 1 if a run
fails or a report differs from its reference.
"""
import filecmp
import json
import os
import subprocess
import sys
import time

failed = []
for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16):
    argv = [sys.executable, "-m", "glnq.cli", "verify", "--q", str(q), "--format", "json"]
    start = time.perf_counter()
    with open(f"verify_q{q}.out", "w") as out:
        child = subprocess.Popen(argv, stdout=out, env=dict(os.environ, PYTHONPATH="src"))
        _, status, usage = os.wait4(child.pid, 0)  # this child's own peak RSS
    wall = time.perf_counter() - start
    code = os.waitstatus_to_exitcode(status)
    if code:
        failed.append(f"verify --q {q} exited with {code}")
        continue
    with open(f"verify_q{q}.out") as out:
        checks = len(json.load(out)["reports"])
    rss_mb = usage.ru_maxrss / 1024  # KiB on Linux
    print(f"verify --q {q}: wall {wall:.2f} s, peak RSS {rss_mb:.1f} MB, {checks} checks")
    if not filecmp.cmp(f"verify_q{q}.out", f"tests/data/verify_q{q}.json", shallow=False):
        failed.append(f"verify --q {q} differs from tests/data/verify_q{q}.json")
sys.exit("\n".join(failed) or None)
