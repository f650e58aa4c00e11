"""Tests of the benchmark itself, at reduced sizes so that they run in about a
minute.  From the repository root:

    python3 -m pytest perfbench/tests -q
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
import tracer  # noqa: E402


@pytest.fixture
def workdir():
    base = BENCH / ".work"
    base.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=base) as tmp:
        yield tmp


@pytest.mark.parametrize("q, max_n", [(2, 3), (3, 2)])
def test_traced_and_untraced_reports_identical(workdir, q, max_n):
    rc_u, _, _, untraced, _ = run.verify_report(q, workdir, max_n)
    rc_t, _, _, traced, trace = run.verify_report(q, workdir, max_n, trace=True)
    assert rc_u == rc_t == 0
    assert traced == untraced
    assert run.check_keys(traced)


def test_every_span_reached_by_verify(workdir):
    *_, trace = run.verify_report(2, workdir, 3, trace=True)
    missed = [n for n in tracer.span_names() if trace["calls"][n] == 0]
    assert missed == []
    assert trace["metrics"].keys() == tracer.metric_units().keys() - {"trace.overhead_s"}


def test_call_counts_repeat_exactly(workdir):
    first = run.verify_report(2, workdir, 3, trace=True)[4]["calls"]
    second = run.verify_report(2, workdir, 3, trace=True)[4]["calls"]
    assert first == second
    assert first["field.Cyclotomic.mul.calls"] > 0


def test_apply_passes_identity_gate_for_two_seeds(workdir):
    sessions = [run.apply_session(3, 3, seed, 200, workdir, check=True)
                for seed in (1, 2)]
    for s in sessions:
        assert s["failed"] == []
        assert len(s["hashes"]) == len(s["latencies_s"]) == 200
        assert 0 < s["setup_s"] < s["wall_s"]
    assert sessions[0]["digest"] != sessions[1]["digest"]


def test_apply_trace_reaches_the_operators(workdir):
    s = run.apply_session(3, 3, 1, 50, workdir, trace=True)
    calls = s["trace"]["calls"]
    assert [n for n in run.APPLY_REACHED if calls[n] == 0] == []
    assert calls["psh.structure_constants"] == 0


def test_identity_gate_rejects_wrong_results():
    import session
    from glnq.field import fq
    ctx = fq(3)
    gate = session.IdentityGate(ctx, 5)
    requests = session.make_requests(5, ctx, 3, 40)
    assert {kind for kind, _, _ in requests} == set(session.KINDS)
    for kind, param, args in requests:
        result = session.execute(ctx, kind, param, args)
        assert gate.check(kind, param, args, result)
        assert not result.is_zero()
        wrong = result * 2 if kind == "inner_product" else result.scale(2)
        assert not gate.check(kind, param, args, wrong)


def test_verify_gate_counts_missing_and_changed_checks():
    ref = json.loads((run.REFERENCE / "verify-q2.json").read_text())["checks"]
    report = {"passed": True, "reports": [
        {"name": n, "params": p, "passed": ok, "witness": None} for n, p, ok in ref]}
    assert run.gate_verify(json.dumps(report), ref) == (len(ref), 0)
    report["reports"][3]["passed"] = False
    del report["reports"][-1]
    assert run.gate_verify(json.dumps(report), ref) == (len(ref), 2)
    assert run.gate_verify("not json", ref) == (len(ref), len(ref))


def test_benchmark_json_matches_the_code():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracer.metric_units()


def test_fails_without_the_program(workdir):
    bare = Path(workdir) / "bare"
    shutil.copytree(BENCH, bare / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "results", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", bare)
    res = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                          "verify-q2", "--seed", "1", "--seconds", "1",
                          "--trace", "0"], cwd=bare, capture_output=True,
                         text=True, timeout=60)
    assert res.returncode != 0
    assert res.stdout == ""
