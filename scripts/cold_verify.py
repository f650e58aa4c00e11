"""Run one cold `glnq verify --q Q --format json` per supported field
q = 2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, each at its default max_n, and
one cold `glnq verify mackey --q Q --all-indicators --format json` for
q = 2, 3 (every indicator pair, not the default sample), print each run's
wall time, peak RSS and check count, and compare each report byte for byte
with tests/data/verify_q<Q>.json or tests/data/verify_mackey_all_q<Q>.json.
Last, one cold `glnq orbits --q 16 --n 3 --budget --format json`, past the
lookup budget, with its wall time and peak RSS: it must list q^3 + q^2 + q
= 4,368 orbits whose sizes sum to 16^9.  Then one cold
`glnq induce --q 4 --composition 2+1 --budget --format json` of the
constant-one functions of degrees 2 and 1, built from the cold listings
`glnq orbits --q 4 --n 2|1 --format json`, with its wall time and peak RSS,
compared byte for byte with tests/data/induce_q4_2+1.json: past the lookup
(4^9 > LOOKUP_BUDGET) it counts the cosets of GL_3(F_4).  Last, one cold
`glnq steinberg --q 4 --n 3 --budget`, with its wall time: the degree-3
restrictions need the orbit lookup, which 4^9 > LOOKUP_BUDGET leaves
unbuilt, so it must print nothing and end in one stderr line and exit 2.

Run from the repository root: python scripts/cold_verify.py
Each report is left in verify_q<Q>.out, verify_mackey_all_q<Q>.out,
orbits_q<Q>_n<N>.out or induce_q4_2+1.out; the exit status is 1 if a run
fails, a report differs from its reference, the orbit listing is wrong or
the steinberg run does not stop as above.
"""
import compileall
import filecmp
import json
import os
import subprocess
import sys
import tempfile
import time

RUNS = [(f"verify_q{q}", ["--q", str(q)]) for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19)]
RUNS += [(f"verify_mackey_all_q{q}", ["mackey", "--q", str(q), "--all-indicators"])
         for q in (2, 3)]

# bytecode first, so no run's peak RSS includes compiling glnq (a tree
# without it read 1.1-1.3 MB higher at q=4 when PYTHONDONTWRITEBYTECODE
# kept each run from caching it)
failed = [] if compileall.compile_dir("src", quiet=1) else ["src/ does not compile"]


def cold_run(name, argv, label):
    """Run glnq with argv in a cold process, stdout to name.out, and return
    a line with its wall time and peak RSS; a failed run is recorded and
    returns None."""
    start = time.perf_counter()
    with open(f"{name}.out", "w") as out:
        child = subprocess.Popen([sys.executable, "-m", "glnq.cli", *argv], stdout=out,
                                 env=dict(os.environ, PYTHONPATH="src"))
        _, status, usage = os.wait4(child.pid, 0)  # this child's own peak RSS
    wall = time.perf_counter() - start
    code = os.waitstatus_to_exitcode(status)
    if code:
        failed.append(f"{label} exited with {code}")
        return None
    rss_mb = usage.ru_maxrss / 1024  # KiB on Linux
    return f"{label}: wall {wall:.2f} s, peak RSS {rss_mb:.1f} MB"


for name, args in RUNS:
    label = "verify " + " ".join(args)
    line = cold_run(name, ["verify", *args, "--format", "json"], label)
    if line is None:
        continue
    with open(f"{name}.out") as out:
        checks = len(json.load(out)["reports"])
    print(f"{line}, {checks} checks")
    if not filecmp.cmp(f"{name}.out", f"tests/data/{name}.json", shallow=False):
        failed.append(f"{label} differs from tests/data/{name}.json")

q, n = 16, 3
label = f"orbits --q {q} --n {n} --budget"
line = cold_run(f"orbits_q{q}_n{n}", label.split() + ["--format", "json"], label)
if line is not None:
    with open(f"orbits_q{q}_n{n}.out") as out:
        sizes = [orbit["size"] for orbit in json.load(out)["orbits"]]
    print(f"{line}, {len(sizes)} orbits")
    if len(sizes) != q ** 3 + q ** 2 + q or sum(sizes) != q ** (n * n):
        failed.append(f"{label}: {len(sizes)} orbits of total size {sum(sizes)}, "
                      f"expected {q ** 3 + q ** 2 + q} of total {q ** (n * n)}")

q, parts = 4, (2, 1)
name, inputs = f"induce_q{q}_2+1", []
with tempfile.TemporaryDirectory() as tmp:
    for n in parts:
        label = f"orbits --q {q} --n {n}"
        if cold_run(f"orbits_q{q}_n{n}", label.split() + ["--format", "json"], label) is None:
            continue
        with open(f"orbits_q{q}_n{n}.out") as out:
            listing = json.load(out)
        inputs.append(os.path.join(tmp, f"one_n{n}.json"))
        with open(inputs[-1], "w") as out:  # "2:[1]" is 1 in Q(zeta_2), F_4 having p = 2
            json.dump({"n": n, "q": listing["q"],
                       "values": {orbit["label"]: "2:[1]" for orbit in listing["orbits"]}}, out)
    label = f"induce --q {q} --composition 2+1 --budget"
    if len(inputs) == len(parts):
        line = cold_run(name, label.split() + ["--input", ",".join(inputs), "--format", "json"],
                        label)
        if line is not None:
            print(line)
            if not filecmp.cmp(f"{name}.out", f"tests/data/{name}.json", shallow=False):
                failed.append(f"{label} differs from tests/data/{name}.json")

label = "steinberg --q 4 --n 3 --budget"
start = time.perf_counter()
done = subprocess.run([sys.executable, "-m", "glnq.cli", *label.split()], capture_output=True,
                      text=True, env=dict(os.environ, PYTHONPATH="src"))
print(f"{label}: wall {time.perf_counter() - start:.2f} s, exit {done.returncode}, "
      f"stderr {done.stderr.strip()!r}")
if done.returncode != 2 or done.stdout or done.stderr.count("\n") != 1:
    failed.append(f"{label} exited with {done.returncode}, not 2 with one stderr line")
sys.exit("\n".join(failed) or None)
