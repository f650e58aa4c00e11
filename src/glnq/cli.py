"""Command-line front end: table construction, operator application, and the
verification suites, with text or JSON reports.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import duality as duality_mod
from . import hopf, linalg, psh
from .field import FqContext, fq, prime_power, rational_is_square
from .glmat import Composition, ResourceBudgetError, compositions
from .hc import (hc_induce, hc_restrict, verify_adjunction, verify_mackey,
                 verify_parabolic_independence, verify_transitivity)
from .invfun import InvariantFunction, TensorFunction, constant_one, indicator_by_index
from .orbits import (LOOKUP_BUDGET, enumerate_orbits, nilpotent_orbit_count,
                     orbit_table_bruteforce, partitions)
from .report import Report


class ConfigError(Exception):
    pass


def default_max_n(q: int) -> int:
    """The default --max-n and --budget threshold: the largest n with
    q^(n^2) <= LOOKUP_BUDGET, past which restriction matrices stop.  F_q is
    supported when q is a prime power with gl_2 inside it, so q <= 19; any
    other q is a ConfigError, raised before fq(q) builds q x q tables."""
    n = 0
    while q >= 2 and q ** ((n + 1) ** 2) <= LOOKUP_BUDGET:
        n += 1
    with contextlib.suppress(ValueError):
        if n >= 2 and prime_power(q):
            return n
    raise ConfigError(f"q={q} is outside the supported budget table: a prime power "
                      f"q <= {math.isqrt(math.isqrt(LOOKUP_BUDGET))} (q^4 <= {LOOKUP_BUDGET})")


def _check_budget(q: int, n: int, override: bool):
    cap = default_max_n(q)
    if n < 0:
        raise ConfigError(f"n={n} is negative")
    if n > cap and not override:
        raise ConfigError(
            f"n={n} exceeds the default budget n<={cap} for q={q}; "
            f"pass --budget to acknowledge the cost")


def _context(args, n: int = 0) -> FqContext:
    """F_q for --q, once q is supported and degree n is within its budget."""
    _check_budget(args.q, n, args.budget)
    return fq(args.q)


def _composition(text: str) -> Composition:
    try:
        return Composition.parse(text)
    except ValueError as e:
        raise ConfigError(f"--composition {text!r}: {e}") from e


def _clip(text: str) -> str:
    """text, or its first 200 and last 100 characters around a count of those
    left out: an error echoes a value from the file, and keeps to a few
    hundred characters however long that value is."""
    if len(text) <= 340:
        return text
    return f"{text[:200]} ... [{len(text) - 300} characters] ... {text[-100:]}"


def _load_function(path: str, ctx: FqContext, override: bool) -> InvariantFunction:
    """The function in a JSON file; a file that is not a function over ctx
    within the size budget is a ConfigError of one line naming the field."""
    # json.JSONDecodeError is a ValueError
    try:
        data = json.loads(Path(path).read_text())
        if not isinstance(data, dict):
            raise TypeError(f"the file holds a {type(data).__name__}, not a JSON object")
        missing = [key for key in ("n", "q", "values") if key not in data]
        if missing:
            raise KeyError(f'no "{missing[0]}" key: a function file has "n", "q" and '
                           f'"values", this one has {", ".join(map(json.dumps, data))}')
        n = data["n"]
        if type(n) is not int:  # bool is an int, and 2.0 is not a JSON integer
            raise TypeError(f'"n" is {json.dumps(n)}, not an integer')
        if n < 0:
            raise ValueError(f'"n" is {n}')
        _check_budget(ctx.q, n, override)
        return InvariantFunction.from_json(enumerate_orbits(n, ctx), data)
    except (ValueError, KeyError, TypeError, OSError) as e:
        # str() of a KeyError is the repr of its argument
        detail = e.args[0] if isinstance(e, KeyError) and e.args else e
        raise ConfigError(f"{path}: {type(e).__name__}: {_clip(str(detail))}") from e


def _emit(args, payload, text_lines):
    """Write the report piece by piece, never as one string, to --output or
    else stdout; a report that fails to serialise leaves no --output file,
    and an --output path that cannot be opened is a ConfigError naming it."""
    path = getattr(args, "output", None)
    try:
        out = open(path, "w") if path else contextlib.nullcontext(sys.stdout)
    except OSError as e:
        raise ConfigError(f"--output {path}: {type(e).__name__}: {e.strerror}") from e
    with out as fh:
        try:
            if args.format == "text":
                fh.writelines(line + "\n" for line in text_lines)
            else:
                json.dump(payload, fh, sort_keys=True, indent=1)
                fh.write("\n")
        except BaseException:
            if path:
                Path(path).unlink()
            raise


def _function_lines(f: InvariantFunction):
    lines = [f"degree {f.n}, q={f.table.ctx.q}, {len(f.table)} orbits"]
    for lab, val in zip(f.table.labels, f.values):
        lines.append(f"  {lab.serialize():30s} {val}")
    return lines


def _tensor_json(t: TensorFunction):
    return {"degrees": list(t.degrees),
            "values": {"|".join(tab.labels[i].serialize()
                                for tab, i in zip(t.tables, idx)): v.serialize()
                       for idx, v in t.values.items()}}


# ---------------------------------------------------------------------------
# subcommands


def cmd_orbits(args):
    ctx = _context(args, args.n)
    table = enumerate_orbits(args.n, ctx)
    payload = table.to_json()
    lines = [f"gl_{args.n}(F_{ctx.q}): {len(table)} adjoint orbits"]
    for lab, size in zip(table.labels, table.sizes):
        lines.append(f"  {lab.serialize():30s} size {size}")
    _emit(args, payload, lines)
    return 0


def cmd_induce(args):
    c = _composition(args.composition)
    ctx = _context(args, c.n)
    factors = [_load_function(p, ctx, args.budget) for p in args.input.split(",")]
    if tuple(f.n for f in factors) != c.parts:
        raise ConfigError("input degrees do not match the composition")
    out = hc_induce(TensorFunction.outer(factors), c)
    _emit(args, out.to_json(), _function_lines(out))
    return 0


def cmd_restrict(args):
    c = _composition(args.composition)
    ctx = _context(args, c.n)
    f = _load_function(args.input, ctx, args.budget)
    if f.n != c.n:
        raise ConfigError("input degree does not match the composition")
    t = hc_restrict(f, c)
    lines = [f"restriction along {args.composition}"]
    for key, val in _tensor_json(t)["values"].items():
        lines.append(f"  {key:40s} {val}")
    _emit(args, _tensor_json(t), lines)
    return 0


def cmd_dual(args):
    ctx = _context(args, args.n)
    f = _load_function(args.input, ctx, args.budget)
    if f.n != args.n:
        raise ConfigError("input degree does not match --n")
    op = duality_mod.duality_operator(args.n, ctx)
    out = op.apply(f)
    _emit(args, out.to_json(), _function_lines(out))
    return 0


def cmd_steinberg(args):
    ctx = _context(args, args.n)
    st = duality_mod.steinberg(args.n, ctx)
    count = duality_mod.steinberg_constituents(args.n, ctx)
    payload = {"function": st.to_json(), "constituents": count}
    lines = _function_lines(st) + [f"constituents: {count}"]
    _emit(args, payload, lines)
    return 0


def cmd_antipode(args):
    ctx = _context(args)
    f = _load_function(args.input, ctx, args.budget)
    out = hopf.antipode_function(f)
    _emit(args, out.to_json(), _function_lines(out))
    return 0


def cmd_primitives(args):
    ctx = _context(args, args.n)
    if args.n < 1:
        raise ConfigError(f"n={args.n}: primitive subspaces start in degree 1")
    basis = hopf.primitive_subspace(ctx, args.n)
    payload = {"n": args.n, "dimension": basis.dimension,
               "basis": [f.to_json() for f in basis.members]}
    lines = [f"pre-cuspidal subspace of degree {args.n}: dimension {basis.dimension}"]
    for f in basis.members:
        lines.extend("  " + l for l in _function_lines(f)[1:])
        lines.append("  --")
    _emit(args, payload, lines)
    return 0


def cmd_witness(args):
    ctx = _context(args)
    square = psh.nondescending_witness(ctx)
    verdict = "rational" if rational_is_square(square) else "irrational"
    payload = {"q": ctx.q, "value_squared": str(square), "verdict": verdict}
    _emit(args, payload, [f"value² = {square}", f"verdict: {verdict}"])
    return 0 if verdict == "irrational" else 1


# ---------------------------------------------------------------------------
# verification suites


@lru_cache(maxsize=None)
def _test_functions(table, all_indicators=False):
    """Every indicator, or the constant function and the first two (none for
    a one-orbit table, whose only indicator is the constant function), as a
    tuple shared by every caller: the functions are read-only."""
    if all_indicators:
        return tuple(indicator_by_index(i, table) for i in range(len(table)))
    return (constant_one(table),) + tuple(indicator_by_index(i, table)
                                          for i in range(2 if len(table) > 1 else 0))


def _count_report(name, params, got, want, what):
    """A check that a count `got` of `what` equals `want`."""
    return Report(name, params, None if got == want else f"{got} {what}, expected {want}")


def suite_orbits(ctx, max_n):
    reports = []
    for n in range(1, max_n + 1):
        table = enumerate_orbits(n, ctx)
        params = {"q": ctx.q, "n": n}
        reports.append(_count_report("nilpotent-count", params, nilpotent_orbit_count(table),
                                     sum(1 for _ in partitions(n)), "nilpotent orbits"))
        if table.lookup is not None:
            claim, osizes = orbit_table_bruteforce(n, ctx)
            # the distinct (lookup label, brute-force class) pairs, counted
            # as the nonzero bins of lookup * classes + class
            pairs = np.count_nonzero(np.bincount(table.lookup.astype(np.intp) * len(osizes) + claim))
            same = (sorted(table.sizes) == sorted(osizes)
                    and pairs == len(table) == len(osizes))
            reports.append(Report("orbit-oracle", params, None if same else
                                  f"{len(table)} orbits, {len(osizes)} by brute force, "
                                  f"{pairs} label pairs"))
    return reports


def _compositions_upto(max_n):
    return [c for n in range(2, max_n + 1) for c in compositions(n) if len(c.parts) >= 2]


def suite_hc(ctx, max_n):
    reports = []
    for c in _compositions_upto(max_n):
        table = enumerate_orbits(c.n, ctx)
        t = TensorFunction.outer([constant_one(enumerate_orbits(m, ctx)) for m in c.parts])
        reports.extend(verify_adjunction(t, f, c) for f in _test_functions(table))
        if len(c.parts) == 2 and c.parts[0] >= 2:
            sub = ((1, c.parts[0] - 1), (c.parts[1],))
            reports.append(verify_transitivity(constant_one(table), c.parts, sub))
        reports.append(verify_parabolic_independence(ctx, c.parts))
    return reports


def _mackey_reports(ctx, n1, n2, s, t, all_indicators):
    return verify_mackey(_test_functions(enumerate_orbits(n1, ctx), all_indicators),
                         _test_functions(enumerate_orbits(n2, ctx), all_indicators), s, t)


def suite_mackey(ctx, max_n, all_indicators=False):
    return [r for n1 in range(1, max_n) for n2 in range(1, max_n - n1 + 1)
            for s in range(n1 + n2 + 1)
            for r in _mackey_reports(ctx, n1, n2, s, n1 + n2 - s, all_indicators)]


def suite_bialgebra(ctx, max_n):
    return [r for n1 in range(1, max_n) for n2 in range(1, max_n - n1 + 1)
            for r in hopf.verify_bialgebra(_test_functions(enumerate_orbits(n1, ctx)),
                                           _test_functions(enumerate_orbits(n2, ctx)))
            ] + [hopf.hilbert_series_check(ctx, max_n)]


def suite_antipode(ctx, max_n):
    reports = [duality_mod.verify_antipode_is_duality(max_n, ctx)]
    for n in range(max_n + 1):
        s = hopf.antipode_matrix(ctx, n)
        ok = linalg.mat_eq(linalg.matmul(s, s), linalg.identity(len(s[0])))
        reports.append(Report("antipode-involutive", {"q": ctx.q, "n": n},
                              None if ok else "S^2 != id"))
    for n in range(1, max_n + 1):
        for i, p in enumerate(hopf.primitive_subspace(ctx, n).members):
            ok = hopf.antipode_function(p) == p.scale(-1)
            reports.append(Report("antipode-on-primitives", {"q": ctx.q, "n": n},
                                  None if ok else f"S(p) != -p for primitive {i}"))
    return reports


def suite_duality(ctx, max_n):
    return [duality_mod.verify_involutive_isometric(n, ctx) for n in range(1, max_n + 1)]


def suite_characterization(ctx, max_n):
    return [duality_mod.verify_characterization(max_n, ctx)]


def suite_psh(ctx, max_n):
    reports = []
    for n1 in range(1, max_n):
        for n2 in range(1, max_n - n1 + 1):
            reports.append(psh.verify_positivity(ctx, n1, n2))
            reports.append(psh.verify_self_adjointness(ctx, n1, n2))
    return reports + [psh.verify_second_psh(ctx, n) for n in range(1, max_n + 1)]


def suite_witness(ctx, max_n):
    return [psh.verify_nondescending(ctx)]


def suite_steinberg(ctx, max_n):
    counts = [duality_mod.steinberg_constituents(n, ctx) for n in range(1, max_n + 1)]
    return [_count_report("steinberg-constituents", {"q": ctx.q, "n": n, "count": count},
                          count, sum(1 for _ in partitions(n)), "constituents")
            for n, count in enumerate(counts, 1)]


SUITE_RUNNERS = {
    "orbits": suite_orbits,
    "hc": suite_hc,
    "mackey": suite_mackey,
    "bialgebra": suite_bialgebra,
    "antipode": suite_antipode,
    "duality": suite_duality,
    "characterization": suite_characterization,
    "psh": suite_psh,
    "witness": suite_witness,
    "steinberg": suite_steinberg,
}


def cmd_verify(args):
    max_n = args.max_n if args.max_n is not None else default_max_n(args.q)
    if max_n < 1:
        raise ConfigError(f"--max-n {max_n} checks nothing; it must be at least 1")
    ctx = _context(args, max_n)
    degrees = (args.n1, args.n2, args.s, args.t)
    if degrees != (None,) * 4:
        if args.suite != "mackey":
            raise ConfigError("--n1 --n2 --s --t apply to verify mackey only")
        if None in degrees:
            raise ConfigError("verify mackey needs all of --n1 --n2 --s --t")
        if min(degrees) < 0:
            raise ConfigError(f"verify mackey degrees {degrees} must be nonnegative")
        if args.n1 + args.n2 != args.s + args.t:
            raise ConfigError(f"--n1 + --n2 = {args.n1 + args.n2} differs from "
                              f"--s + --t = {args.s + args.t}")
        _check_budget(ctx.q, args.n1 + args.n2, args.budget)
        reports = _mackey_reports(ctx, args.n1, args.n2, args.s, args.t, args.all_indicators)
    else:
        names = SUITE_RUNNERS if args.suite == "all" else (args.suite,)
        reports = [r for name in names for r in (
            SUITE_RUNNERS[name](ctx, max_n, args.all_indicators) if name == "mackey"
            else SUITE_RUNNERS[name](ctx, max_n))]
        if not reports:
            raise ConfigError(f"verify {args.suite} checks nothing at --max-n {max_n}")
    passed = sum(r.passed for r in reports)
    all_passed = passed == len(reports)
    lines = [line for r in reports for line in r.lines()]
    lines.append(f"{'OK' if all_passed else 'FAILED'}: "
                 f"{passed}/{len(reports)} checks passed")
    _emit(args, {"passed": all_passed, "reports": [r.to_json() for r in reports]}, lines)
    return 0 if all_passed else 1


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="glnq",
        description="Exact computations with conjugation-invariant functions "
                    "on gl_n over a finite field")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, need_n=False, need_input=False, need_comp=False):
        p.add_argument("--q", type=int, required=True, help="field size")
        if need_n:
            p.add_argument("--n", type=int, required=True, help="matrix degree")
        if need_comp:
            p.add_argument("--composition", required=True,
                           help="composition, e.g. 2+1")
        if need_input:
            p.add_argument("--input", required=True,
                           help="function JSON file (comma-separated for tensors)")
        p.add_argument("--output", help="write result to this file")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--budget", action="store_true",
                       help="acknowledge running beyond the default size budget")

    p = sub.add_parser("orbits", help="enumerate adjoint orbits")
    common(p, need_n=True)
    p.set_defaults(func=cmd_orbits)

    p = sub.add_parser("induce", help="Harish-Chandra induction of a tensor")
    common(p, need_input=True, need_comp=True)
    p.set_defaults(func=cmd_induce)

    p = sub.add_parser("restrict", help="Harish-Chandra restriction")
    common(p, need_input=True, need_comp=True)
    p.set_defaults(func=cmd_restrict)

    p = sub.add_parser("dual", help="apply the duality operation")
    common(p, need_n=True, need_input=True)
    p.set_defaults(func=cmd_dual)

    p = sub.add_parser("steinberg", help="the dual of the constant function")
    common(p, need_n=True)
    p.set_defaults(func=cmd_steinberg)

    p = sub.add_parser("antipode", help="apply the antipode")
    common(p, need_input=True)
    p.set_defaults(func=cmd_antipode)

    p = sub.add_parser("primitives", help="basis of the pre-cuspidal subspace")
    common(p, need_n=True)
    p.set_defaults(func=cmd_primitives)

    p = sub.add_parser("witness", help="the irrational structure constant")
    common(p)
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument("suite", nargs="?", default="all",
                   choices=("all", *SUITE_RUNNERS))
    common(p)
    p.add_argument("--max-n", type=int, help="largest degree to check")
    p.add_argument("--n1", type=int)
    p.add_argument("--n2", type=int)
    p.add_argument("--s", type=int)
    p.add_argument("--t", type=int)
    p.add_argument("--all-indicators", action="store_true",
                   help="check every indicator pair instead of a sample")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ResourceBudgetError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
