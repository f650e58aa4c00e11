"""Record the reference outputs the benchmark gates against: the ordered
(name, params, passed) of every check in `glnq verify --q Q --format json`
for q = 2, 3, and the apply-q3 result digest for seeds 0..SEEDS-1.  Run from
the root of a checkout of the commit whose outputs are the reference:

    python3 perfbench/record_reference.py
"""
from __future__ import annotations

import json
import sys
import tempfile

import run

SEEDS = 21


def main():
    run.REFERENCE.mkdir(exist_ok=True)
    commit = run.git_sha()
    workdir = run.BENCH / ".work"
    workdir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=workdir) as tmp:
        for q in (2, 3):
            rc, _, _, text, _ = run.verify_report(q, tmp)
            if rc != 0:
                sys.exit(f"verify --q {q} exited with code {rc}")
            head = json.dumps({"command": f"glnq verify --q {q} --format json",
                               "commit": commit})[:-1]
            checks = ",\n".join(json.dumps(c, sort_keys=True)
                                for c in run.check_keys(text))
            (run.REFERENCE / f"verify-q{q}.json").write_text(
                f'{head}, "checks": [\n{checks}\n]}}\n')
        spec = run.WORKLOADS["apply-q3"]
        digests = {}
        for seed in range(SEEDS):
            s = run.apply_session(spec["q"], spec["max_n"], seed,
                                  run.APPLY_REQUESTS, tmp, check=True)
            if s["failed"]:
                sys.exit(f"apply-q3 seed {seed}: requests {s['failed']} fail the gate")
            digests[str(seed)] = s["digest"]
        ref = {"commit": commit, "requests": run.APPLY_REQUESTS, "digests": digests}
        (run.REFERENCE / "apply-q3.json").write_text(json.dumps(ref, indent=1) + "\n")


if __name__ == "__main__":
    main()
