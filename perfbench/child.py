"""One cold child process of the benchmark.  run.py starts it with
PYTHONPATH pointing at the checkout's src/.

    child.py probe  --q Q
        import glnq and build fq(q), print "ready", exit.
    child.py verify --q Q [--max-n N] --report PATH --trace PATH
        install the tracer, run `glnq verify --q Q --format json` in-process,
        write the report and the trace.
    child.py apply  --q Q --max-n N --seed S --requests K --out PATH
                    [--check] [--trace PATH]
        the apply-q3 session: warm up, print "ready", generate the inputs,
        run the request stream, then hash (and with --check, gate) every
        result.
"""
from __future__ import annotations

import argparse
import json
import sys


def _mark(tag):
    sys.stdout.write(tag + "\n")
    sys.stdout.flush()


def _tracer():
    from tracer import Tracer
    tracer = Tracer()
    tracer.install()
    return tracer


def _write_trace(path, tracer):
    with open(path, "w") as fh:
        json.dump({"metrics": tracer.metrics(), "calls": tracer.calls()}, fh)


def probe(args):
    import glnq
    import glnq.cli  # noqa: F401  (what `python -m glnq.cli` imports)
    glnq.field.fq(args.q)
    _mark("ready")
    return 0


def verify(args):
    tracer = _tracer()
    from glnq import cli
    argv = ["verify", "--q", str(args.q), "--format", "json",
            "--output", args.report]
    if args.max_n is not None:
        argv += ["--max-n", str(args.max_n)]
    rc = cli.main(argv)
    _write_trace(args.trace, tracer)
    return rc


def apply(args):
    tracer = _tracer() if args.trace else None
    import glnq
    import session
    ctx = glnq.field.fq(args.q)
    session.warm_up(ctx, args.max_n, args.seed)
    _mark("ready")
    requests = session.make_requests(args.seed, ctx, args.max_n, args.requests)
    results, latencies, loop_s = session.run_stream(ctx, requests)
    # The trace covers set-up, input generation and the stream; not the gate.
    if tracer is not None:
        _write_trace(args.trace, tracer)
    hashes = [session.result_hash(kind, param, r)
              for (kind, param, _), r in zip(requests, results)]
    failed = []
    if args.check:
        gate = session.IdentityGate(ctx, args.seed)
        failed = [i for i, (req, r) in enumerate(zip(requests, results))
                  if not gate.check(*req, r)]
    with open(args.out, "w") as fh:
        json.dump({"latencies_s": latencies, "loop_s": loop_s, "hashes": hashes,
                   "digest": session.digest(hashes), "failed": failed}, fh)
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("probe")
    p.add_argument("--q", type=int, required=True)
    p.set_defaults(func=probe)
    p = sub.add_parser("verify")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--max-n", type=int)
    p.add_argument("--report", required=True)
    p.add_argument("--trace", required=True)
    p.set_defaults(func=verify)
    p = sub.add_parser("apply")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--requests", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--check", action="store_true")
    p.add_argument("--trace")
    p.set_defaults(func=apply)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
