"""glnq benchmark: cold `glnq verify` at q=2 and q=3, and a warm operator
stream at q=3.  Run from the root of a checkout:

    python3 perfbench/run.py --workload verify-q2 --seed 1 --seconds 40 --trace 0

Workloads (see perfbench/README.md for why each was chosen, and why
BENCHMARK.json gates only verify-q2 and apply-q3):
    verify-q2  `glnq verify --q 2 --format json` in a cold process (n<=4)
    verify-q3  `glnq verify --q 3 --format json` in a cold process (n<=3)
    apply-q3   a library session at q=3, n<=3: warm-up, then a seeded list of
               hc_restrict / hc_induce / duality / antipode / inner-product
               requests, one client, closed loop

With --trace 0 the end-to-end metrics are measured with nothing wrapped.
With --trace 1 the same workload runs once untraced and once traced, and the
per-layer metrics come from spans wrapped around glnq's public functions
(perfbench/tracer.py); trace.overhead_s is the difference in wall time.

Every output is checked outside the timed region: verify reports against the
ones recorded at the reference commit, apply results by identities and, where
recorded, by digest.  The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics; the exit code is 1 if any output was
wrong and 2 if the benchmark could not run.  A results record with every
sample is written under perfbench/results/.
"""
from __future__ import annotations

import argparse
import compileall
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from importlib import metadata
from pathlib import Path

import tracer

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
SRC = ROOT / "src"
REFERENCE = BENCH / "reference"

WORKLOADS = {
    "verify-q2": {"kind": "verify", "q": 2},
    "verify-q3": {"kind": "verify", "q": 3},
    "apply-q3": {"kind": "apply", "q": 3, "max_n": 3},
}

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# Single cold runs on a shared 2-vCPU machine vary by up to 40% with the
# load on the host, in phases of seconds to a minute; a run takes several
# samples of everything and reports medians.
SETUP_PROBES = 4         # set-up probes before and after each verify run
MIN_VERIFY_RUNS = 2      # cold verify runs per untraced run, at least
APPLY_REQUESTS = 3000    # requests per apply session
MIN_SESSIONS = 3         # apply sessions per untraced run, at least
CHILD_TIMEOUT_S = 150    # a child still running after this is killed

# Spans the apply stream must reach; the verify workloads reach every span.
APPLY_REACHED = (
    "field.fq", "orbits.enumerate_orbits", "glmat.gl_arrays",
    "glmat.batch_matmul", "hc.restriction_matrix", "hc.induction_matrix",
    "hc.hc_restrict", "hc.hc_induce", "hopf.antipode_matrix",
    "hopf.antipode_function", "duality.duality_operator",
    "duality.DualityOperator.apply", "invfun.inner_product", "linalg.matmul",
    "field.Cyclotomic.mul.calls", "field.Cyclotomic.add.calls",
    "field.Cyclotomic.conj.calls",
)


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    return env


def spawn(argv, stdout=subprocess.PIPE, markers=()):
    """Run one child to exit.  Returns (exit code, seconds from spawn to exit,
    seconds from spawn to each marker line it printed, peak RSS in MB)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=stdout, env=child_env(), cwd=ROOT)
    killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    killer.start()
    marks = {}
    try:
        if markers:
            for line in proc.stdout:
                tag = line.decode().strip()
                if tag in markers:
                    marks[tag] = time.perf_counter() - t0
            proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    finally:
        killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, marks, usage.ru_maxrss / 1024


def python_child(*args):
    return [sys.executable, str(BENCH / "child.py"), *map(str, args)]


def scratch_file(workdir):
    fd, path = tempfile.mkstemp(dir=workdir, suffix=".json")
    os.close(fd)
    return Path(path)


# ---------------------------------------------------------------------------
# verify workloads


def setup_probe(q):
    rc, _, marks, _ = spawn(python_child("probe", "--q", q), markers=("ready",))
    if rc != 0 or "ready" not in marks:
        raise BenchError(f"set-up probe for q={q} failed with exit code {rc}")
    return marks["ready"]


def verify_report(q, workdir, max_n=None, trace=False):
    """One cold `glnq verify --q q --format json`.  Returns (exit code, wall
    seconds, peak RSS MB, report text, trace or None)."""
    report = scratch_file(workdir)
    trace_path = scratch_file(workdir)
    if trace:
        argv = python_child("verify", "--q", q, "--report", report,
                            "--trace", trace_path)
        if max_n is not None:
            argv += ["--max-n", str(max_n)]
        rc, wall, _, rss = spawn(argv, stdout=subprocess.DEVNULL)
    else:
        argv = [sys.executable, "-m", "glnq.cli", "verify", "--q", str(q),
                "--format", "json"]
        if max_n is not None:
            argv += ["--max-n", str(max_n)]
        with open(report, "wb") as out:
            rc, wall, _, rss = spawn(argv, stdout=out)
    text = report.read_text()
    traced = json.loads(trace_path.read_text()) if trace and rc in (0, 1) else None
    return rc, wall, rss, text, traced


def check_keys(report_text):
    """The ordered (name, params, passed) of each check; [] if unreadable."""
    try:
        return [[r["name"], r["params"], r["passed"]]
                for r in json.loads(report_text)["reports"]]
    except (ValueError, KeyError, TypeError):
        return []


def gate_verify(report_text, reference):
    """(attempted, failed): a check counts as failed when it is missing,
    extra, or differs from the reference in name, params or passed."""
    got = check_keys(report_text)
    attempted = max(len(reference), len(got))
    failed = sum(1 for i in range(attempted)
                 if i >= len(got) or i >= len(reference) or got[i] != reference[i])
    return attempted, failed


def run_verify(spec, seconds, trace, workdir, out):
    q = spec["q"]
    reference = json.loads((REFERENCE / f"verify-q{q}.json").read_text())["checks"]
    samples = out["samples"]
    if trace:
        _, wall_u, _, text_u, _ = verify_report(q, workdir)
        rc, wall_t, _, text_t, traced = verify_report(q, workdir, trace=True)
        for text in (text_u, text_t):
            attempted, failed = gate_verify(text, reference)
            out["attempted"] += attempted
            out["failed"] += failed
        out["attempted"] += 1
        out["failed"] += text_t != text_u
        if traced is None:
            raise BenchError(f"traced verify exited with code {rc}")
        out["trace"] = traced
        samples["wall_s"] = [wall_u]
        samples["traced_wall_s"] = [wall_t]
        return
    # Probes before and after every verify run: start-up time drifts with
    # the machine's load over seconds, and one burst would see one phase.
    samples["setup_s"] = [setup_probe(q) for _ in range(SETUP_PROBES)]
    start = time.perf_counter()
    # Whole cold runs, as many as fit in --seconds, at least MIN_VERIFY_RUNS.
    while (len(samples["wall_s"]) < MIN_VERIFY_RUNS or time.perf_counter() - start
           + statistics.median(samples["wall_s"]) <= seconds):
        _, wall, rss, text, _ = verify_report(q, workdir)
        attempted, failed = gate_verify(text, reference)
        out["attempted"] += attempted
        out["failed"] += failed
        samples["wall_s"].append(wall)
        samples["peak_rss_mb"].append(rss)
        samples["checks"].append(len(check_keys(text)))
        samples["fail_ratio"].append(failed / attempted)
        samples["setup_s"] += [setup_probe(q) for _ in range(SETUP_PROBES)]


# ---------------------------------------------------------------------------
# apply workload


def apply_session(q, max_n, seed, requests, workdir, check=False, trace=False):
    """One cold apply session.  Returns a dict with setup_s (spawn to ready),
    wall_s (set-up plus the request stream; input generation, which happens
    between them, is left out), peak_rss_mb, and what the child wrote:
    latencies, hashes, digest, failed request indices, loop_s, trace."""
    out_path = scratch_file(workdir)
    argv = python_child("apply", "--q", q, "--max-n", max_n, "--seed", seed,
                        "--requests", requests, "--out", out_path)
    trace_path = scratch_file(workdir)
    if check:
        argv.append("--check")
    if trace:
        argv += ["--trace", trace_path]
    rc, _, marks, rss = spawn(argv, markers=("ready",))
    if rc != 0 or "ready" not in marks:
        raise BenchError(f"apply session (seed {seed}) failed with exit code {rc}")
    result = json.loads(out_path.read_text())
    result.update(setup_s=marks["ready"], wall_s=marks["ready"] + result["loop_s"],
                  peak_rss_mb=rss)
    if trace:
        result["trace"] = json.loads(trace_path.read_text())
    return result


def run_apply(spec, seed, seconds, trace, workdir, out):
    q, max_n = spec["q"], spec["max_n"]
    samples = out["samples"]
    recorded = json.loads((REFERENCE / "apply-q3.json").read_text())
    if recorded["requests"] != APPLY_REQUESTS:
        raise BenchError("perfbench/reference/apply-q3.json was recorded "
                         "for another request count")
    start = time.perf_counter()
    sessions = [apply_session(q, max_n, seed, APPLY_REQUESTS, workdir, check=True)]
    if trace:
        sessions.append(apply_session(q, max_n, seed, APPLY_REQUESTS, workdir,
                                      trace=True))
    else:
        while (len(sessions) < MIN_SESSIONS or time.perf_counter() - start
               + (time.perf_counter() - start) / len(sessions) <= seconds):
            sessions.append(apply_session(q, max_n, seed, APPLY_REQUESTS, workdir))
    checked = sessions[0]
    out["attempted"] += len(checked["hashes"])
    out["failed"] += len(checked["failed"])
    for s in sessions[1:]:
        wrong = sum(a != b for a, b in zip(s["hashes"], checked["hashes"]))
        out["attempted"] += len(checked["hashes"])
        out["failed"] += wrong + len(checked["hashes"]) - len(s["hashes"])
    want = recorded["digests"].get(str(seed))
    if want is not None:
        out["attempted"] += 1
        out["failed"] += checked["digest"] != want
    if trace:
        samples["wall_s"] = [sessions[0]["wall_s"]]
        samples["traced_wall_s"] = [sessions[1]["wall_s"]]
        out["trace"] = sessions[1]["trace"]
        return
    for s in sessions:
        samples["wall_s"].append(s["wall_s"])
        samples["setup_s"].append(s["setup_s"])
        samples["peak_rss_mb"].append(s["peak_rss_mb"])
        samples["ops_per_s"].append(len(s["hashes"]) / s["loop_s"])
        samples["op_latency_ms"].extend(1000 * x for x in s["latencies_s"])
    samples["checks"].append(len(checked["hashes"]))
    samples["fail_ratio"].append(out["failed"] / out["attempted"])


# ---------------------------------------------------------------------------
# results


def end_to_end(samples):
    """Medians of the end-to-end metrics; apply-q3 adds throughput, latency
    percentiles, and every workload adds checks and fail_ratio."""
    out = {name: statistics.median(samples[name]) for name in END_TO_END}
    extra = {"checks": ("count", statistics.median_low(samples["checks"])),
             "fail_ratio": ("ratio", max(samples["fail_ratio"]))}
    if samples["ops_per_s"]:
        lat = samples["op_latency_ms"]
        extra["ops_per_s"] = ("1/s", statistics.median(samples["ops_per_s"]))
        extra["op_p50_ms"] = ("ms", statistics.median(lat))
        extra["op_p99_ms"] = ("ms", statistics.quantiles(lat, n=100)[98])
    return out, extra


def sample_count(name, samples):
    return len(samples["op_latency_ms" if name.startswith("op_p") else name])


def per_layer(out):
    """Per-layer metrics of a traced run; raises BenchError when a span that
    the workload reaches recorded no call, i.e. a binding was missed."""
    trace = out["trace"]
    reached = tracer.span_names() if out["kind"] == "verify" else APPLY_REACHED
    for name in reached:
        if trace["calls"].get(name, 0) == 0:
            raise BenchError(f"{name} recorded no call on {out['workload']}:"
                             f" a binding was missed")
    metrics = dict(trace["metrics"])
    metrics["trace.overhead_s"] = (out["samples"]["traced_wall_s"][0]
                                   - out["samples"]["wall_s"][0])
    missing = tracer.metric_units().keys() - metrics.keys()
    if missing:
        raise BenchError(f"traced run did not report {sorted(missing)}")
    return metrics


def git_sha():
    try:
        res = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = res.stdout.split()
    if res.returncode != 0 or len(lines) != 2 or Path(lines[0]) != ROOT:
        return None
    return lines[1]


def version(dist):
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def write_record(record):
    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    stamp = datetime.datetime.now(datetime.timezone.utc).strftime("%Y%m%dT%H%M%S%fZ")
    name = f"{stamp}-{record['workload']}-seed{record['seed']}-trace{record['trace']}.json"
    (results / name).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "glnq" / "__init__.py").is_file():
        print(f"error: no glnq sources under {SRC}", file=sys.stderr)
        return 2
    # Byte-compile first, as an installed package would be, so that no run
    # pays for compilation inside its timed region.
    if not compileall.compile_dir(SRC, quiet=1):
        print("error: glnq sources do not compile", file=sys.stderr)
        return 2
    spec = WORKLOADS[args.workload]
    samples = {name: [] for name in (
        *END_TO_END, "checks", "fail_ratio", "ops_per_s", "op_latency_ms")}
    out = {"workload": args.workload, "kind": spec["kind"], "attempted": 0,
           "failed": 0, "samples": samples}
    load_before = os.getloadavg()
    workdir = BENCH / ".work"
    workdir.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=workdir) as tmp:
            if spec["kind"] == "verify":
                run_verify(spec, args.seconds, args.trace, tmp, out)
            else:
                run_apply(spec, args.seed, args.seconds, args.trace, tmp, out)
        if args.trace:
            metrics = per_layer(out)
            units = tracer.metric_units()
            extra = {}
        else:
            metrics, extra = end_to_end(samples)
            units = END_TO_END
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    correct = out["failed"] == 0
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": git_sha(), "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": version("numpy"),
        "loadavg_before": load_before, "loadavg_after": os.getloadavg(),
        "correct": correct, "attempted": out["attempted"], "failed": out["failed"],
        "metrics": metrics, "extra": {k: v[1] for k, v in extra.items()},
        "samples": samples,
    }
    if args.trace:
        record["calls"] = out["trace"]["calls"]
    write_record(record)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"correct {correct}  failed {out['failed']}/{out['attempted']}")
    rows = [(name, value, units[name]) for name, value in metrics.items()]
    rows += [(name, value, unit) for name, (unit, value) in extra.items()]
    for name, value, unit in rows:
        shown = f"{value:14d}" if isinstance(value, int) else f"{value:14.6f}"
        n = "" if args.trace else f"n={sample_count(name, samples)}"
        print(f"  {name:42s} {shown} {unit:6s} {n}")
    print(json.dumps({
        "correct": correct, "attempted": out["attempted"], "failed": out["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
