"""Run one cold `glnq verify --q Q --format json` per supported field
q = 2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, each at its default max_n, and
one cold `glnq verify mackey --q Q --all-indicators --format json` for
q = 2, 3 (every indicator pair, not the default sample), print each run's
wall time, peak RSS and check count, and compare each report byte for byte
with tests/data/verify_q<Q>.json or tests/data/verify_mackey_all_q<Q>.json.

Run from the repository root: python scripts/cold_verify.py
Each report is left in verify_q<Q>.out or verify_mackey_all_q<Q>.out; the
exit status is 1 if a run fails or a report differs from its reference.
"""
import filecmp
import json
import os
import subprocess
import sys
import time

RUNS = [(f"verify_q{q}", ["--q", str(q)]) for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19)]
RUNS += [(f"verify_mackey_all_q{q}", ["mackey", "--q", str(q), "--all-indicators"])
         for q in (2, 3)]

failed = []
for name, args in RUNS:
    argv = [sys.executable, "-m", "glnq.cli", "verify", *args, "--format", "json"]
    label = "verify " + " ".join(args)
    start = time.perf_counter()
    with open(f"{name}.out", "w") as out:
        child = subprocess.Popen(argv, stdout=out, env=dict(os.environ, PYTHONPATH="src"))
        _, status, usage = os.wait4(child.pid, 0)  # this child's own peak RSS
    wall = time.perf_counter() - start
    code = os.waitstatus_to_exitcode(status)
    if code:
        failed.append(f"{label} exited with {code}")
        continue
    with open(f"{name}.out") as out:
        checks = len(json.load(out)["reports"])
    rss_mb = usage.ru_maxrss / 1024  # KiB on Linux
    print(f"{label}: wall {wall:.2f} s, peak RSS {rss_mb:.1f} MB, {checks} checks")
    if not filecmp.cmp(f"{name}.out", f"tests/data/{name}.json", shallow=False):
        failed.append(f"{label} differs from tests/data/{name}.json")
sys.exit("\n".join(failed) or None)
