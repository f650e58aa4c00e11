"""Command-line interface: subcommands, formats, budgets, exit codes."""
import errno
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from glnq import cli, duality, hc, hopf, psh
from glnq.cli import main
from glnq.field import fq
from glnq.invfun import constant_one
from glnq.orbits import enumerate_orbits


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


SUPPORTED_Q = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19)


class TestWitness:
    @pytest.mark.parametrize("q", SUPPORTED_Q)
    def test_byte_for_byte(self, capsys, q):
        # value² = (q+1)/q, in lowest terms, never a rational square
        square = f"{q + 1}/{q}"
        assert run(capsys, "witness", "--q", str(q)) == (
            0, f"value² = {square}\nverdict: irrational\n", "")
        assert run(capsys, "witness", "--q", str(q), "--format", "json") == (
            0, f'{{\n "q": {q},\n "value_squared": "{square}",\n'
               f' "verdict": "irrational"\n}}\n', "")

    def test_q2(self, capsys):
        code, out, _ = run(capsys, "witness", "--q", "2")
        assert code == 0
        assert "3/2" in out and "irrational" in out

    def test_q3_json(self, capsys):
        code, out, _ = run(capsys, "witness", "--q", "3", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["value_squared"] == "4/3"
        assert data["verdict"] == "irrational"


class TestOrbits:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "orbits", "--q", "2", "--n", "2")
        assert code == 0
        assert "6 adjoint orbits" in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "orbits", "--q", "3", "--n", "2",
                           "--format", "json")
        data = json.loads(out)
        assert data["n"] == 2 and len(data["orbits"]) == 12

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "orbits.json"
        code, out, _ = run(capsys, "orbits", "--q", "2", "--n", "1",
                           "--format", "json", "--output", str(target))
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["n"] == 1

    def test_past_the_lookup_range(self, capsys):
        # orbit sizes in closed form need no enumeration of gl_5(F_2)
        code, out, _ = run(capsys, "orbits", "--q", "2", "--n", "5", "--budget",
                           "--format", "json")
        data = json.loads(out)
        assert code == 0 and len(data["orbits"]) == 74
        assert sum(o["size"] for o in data["orbits"]) == 2 ** 25

    def test_more_irreducibles_than_the_recursion_limit(self, capsys):
        # ended in a RecursionError traceback and exit 1
        code, out, _ = run(capsys, "orbits", "--q", "16", "--n", "3", "--budget",
                           "--format", "json")
        data = json.loads(out)
        assert code == 0 and len(data["orbits"]) == 4368
        assert sum(o["size"] for o in data["orbits"]) == 16 ** 9


class TestSteinberg:
    def test_constituents_line(self, capsys):
        code, out, _ = run(capsys, "steinberg", "--q", "2", "--n", "2")
        assert code == 0
        assert "constituents: 2" in out


class TestFunctionIO:
    @pytest.fixture
    def one1_file(self, tmp_path):
        from glnq.field import fq
        from glnq.invfun import constant_one
        from glnq.orbits import enumerate_orbits
        f = tmp_path / "one1.json"
        f.write_text(json.dumps(
            constant_one(enumerate_orbits(1, fq(2))).to_json()))
        return str(f)

    def test_induce_then_restrict(self, capsys, tmp_path, one1_file):
        prod = tmp_path / "prod.json"
        code, _, _ = run(capsys, "induce", "--q", "2", "--composition", "1+1",
                         "--input", f"{one1_file},{one1_file}",
                         "--format", "json", "--output", str(prod))
        assert code == 0
        code, out, _ = run(capsys, "restrict", "--q", "2",
                           "--composition", "1+1", "--input", str(prod),
                           "--format", "json")
        assert code == 0
        assert json.loads(out)["degrees"] == [1, 1]

    def test_dual_of_constant(self, capsys, tmp_path):
        from glnq.field import fq
        from glnq.invfun import constant_one
        from glnq.orbits import enumerate_orbits
        src = tmp_path / "one2.json"
        src.write_text(json.dumps(
            constant_one(enumerate_orbits(2, fq(2))).to_json()))
        code, out, _ = run(capsys, "dual", "--q", "2", "--n", "2",
                           "--input", str(src), "--format", "json")
        assert code == 0
        data = json.loads(out)
        # the image is the alternating-sum dual of 1, which takes value -1
        # on the orbit of the companion matrix of the irreducible quadratic
        assert data["values"]["1,1,1:1"] == "2:[-1]"

    def test_antipode(self, capsys, one1_file):
        code, out, _ = run(capsys, "antipode", "--q", "2",
                           "--input", one1_file, "--format", "json")
        assert code == 0
        vals = json.loads(out)["values"]
        assert set(vals.values()) == {"2:[-1]"}

    def test_primitives(self, capsys):
        code, out, _ = run(capsys, "primitives", "--q", "2", "--n", "2")
        assert code == 0
        assert "dimension 3" in out

    @pytest.mark.parametrize("q,n", [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2),
                                     (3, 3), (4, 1), (4, 2), (5, 1), (5, 2)])
    def test_primitives_golden(self, capsys, q, n):
        # recorded while the basis came from Fraction-list Gauss-Jordan
        golden = Path(__file__).parent / "data" / f"primitives_q{q}_n{n}.json"
        code, out, _ = run(capsys, "primitives", "--q", str(q), "--n", str(n),
                           "--format", "json")
        assert code == 0
        assert out.encode() == golden.read_bytes()


class TestVerify:
    def test_all_small(self, capsys):
        code, out, _ = run(capsys, "verify", "--q", "2", "--max-n", "2")
        assert code == 0
        assert "OK:" in out and "FAIL" not in out

    def test_single_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "witness", "--q", "3")
        assert code == 0
        assert "psh-nondescending" in out

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_output_file_holds_the_stdout_bytes(self, capsys, tmp_path, fmt):
        argv = ["verify", "--q", "2", "--max-n", "2", "--format", fmt]
        code, out, _ = run(capsys, *argv)
        target = tmp_path / f"report.{fmt}"
        assert run(capsys, *argv, "--output", str(target)) == (code, "", "")
        assert code == 0 and target.read_bytes() == out.encode()

    def test_unserialisable_report_leaves_no_output_file(self, tmp_path):
        target = tmp_path / "report.json"
        args = cli.build_parser().parse_args(
            ["verify", "--q", "2", "--format", "json", "--output", str(target)])
        with pytest.raises(TypeError, match="not JSON serializable"):
            cli._emit(args, {"passed": True, "reports": [object()]}, [])
        assert not target.exists()

    def test_mackey_pointwise(self, capsys):
        code, out, _ = run(capsys, "verify", "mackey", "--q", "2",
                           "--n1", "1", "--n2", "1", "--s", "1", "--t", "1",
                           "--all-indicators")
        assert code == 0
        assert out.count("[PASS] mackey") == 4

    def test_mackey_pointwise_degree_zero(self, capsys):
        # the constant function is the only test function of degree 0
        code, out, _ = run(capsys, "verify", "mackey", "--q", "2", "--n1", "0",
                           "--n2", "1", "--s", "0", "--t", "1", "--format", "json")
        assert code == 0
        reports = json.loads(out)["reports"]
        assert len(reports) == 3
        assert all(r["passed"] and r["name"] == "mackey" for r in reports)

    def test_orbit_oracle_wherever_there_is_a_lookup(self):
        # q=17 n=2 has 83521 > 2^16 matrices, inside LOOKUP_BUDGET
        reports = cli.suite_orbits(fq(17), 2)
        assert [(r.name, r.params["n"]) for r in reports] == [
            ("nilpotent-count", 1), ("orbit-oracle", 1),
            ("nilpotent-count", 2), ("orbit-oracle", 2)]
        assert all(r.passed for r in reports)

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
    def test_golden_report(self, capsys, q):
        # q=4, 5 recorded before the PSH checks became matrix products; q=2, 3
        # before orbit BFS used elementary moves and GL inversion was batched;
        # q=7 (six planes of Q(zeta_7)), 8 and 9 (fields of degree k > 1) at
        # their default max_n=2, 94, 103 and 113 checks
        golden = Path(__file__).parent / "data" / f"verify_q{q}.json"
        code, out, _ = run(capsys, "verify", "--q", str(q), "--format", "json")
        assert code == 0
        assert out.encode() == golden.read_bytes()

    def test_steinberg_coordinates_once_per_degree(self, capsys, monkeypatch):
        # psh's degree-2 check and the steinberg suite share one cached count
        real, degrees = duality.coords, []

        def counted(f, basis):
            degrees.append(f.n)
            return real(f, basis)
        monkeypatch.setattr(duality, "coords", counted)
        duality.steinberg_constituents.cache_clear()
        try:
            code, _, _ = run(capsys, "verify", "--q", "2")
        finally:
            duality.steinberg_constituents.cache_clear()
        assert code == 0
        assert sorted(degrees) == [1, 2, 3, 4]

    def test_default_degree_from_the_lookup_budget(self):
        # the largest n with q^(n^2) <= LOOKUP_BUDGET, for the prime powers
        # q <= 19 (q^4 <= LOOKUP_BUDGET), and no other q
        assert {q: cli.default_max_n(q) for q in (2, 3, 4, 5)} == {2: 4, 3: 3, 4: 2, 5: 2}
        for q in (7, 8, 9, 11, 13, 16, 17, 19):
            assert cli.default_max_n(q) == 2
        for q in (6, 10, 12, 14, 15, 18, 20, 25, 32):
            with pytest.raises(cli.ConfigError, match="budget table"):
                cli.default_max_n(q)


def _merged_last_orbit(real):
    """orbit_table_bruteforce with its last two orbits counted as one."""
    def wrapper(n, ctx):
        claim, sizes = real(n, ctx)
        return claim, sizes[:-2] + [sizes[-2] + sizes[-1]]
    return wrapper


def _tensors_doubled(real):
    """mackey_rhs with every tensor it returns doubled."""
    return lambda *args: tuple(t.scale(2) for t in real(*args))


def _doubled(real):
    """An operator builder whose (x, den) matrices come out doubled."""
    def wrapper(*args):
        x, den = real(*args)
        return 2 * x, den
    return wrapper


# (check, module, attribute, corrupted replacement of real, verify argv);
# each corrupted input is read by no cached builder, and antipode_matrix
# recurses (through the patched binding) only above --max-n 1
CORRUPTIONS = [
    ("nilpotent-count", cli, "nilpotent_orbit_count", lambda real: lambda t: real(t) + 1,
     ["orbits", "--max-n", "2"]),
    ("orbit-oracle", cli, "orbit_table_bruteforce", _merged_last_orbit,
     ["orbits", "--max-n", "2"]),
    ("antipode-involutive", hopf, "antipode_matrix", _doubled,
     ["antipode", "--max-n", "1"]),
    ("antipode-on-primitives", hopf, "antipode_function", lambda real: lambda f: f,
     ["antipode", "--max-n", "2"]),
    ("steinberg-constituents", duality, "steinberg_constituents",
     lambda real: lambda n, ctx: real(n, ctx) + 1, ["steinberg", "--max-n", "2"]),
    ("antipode-is-duality", duality, "antipode_matrix", _doubled,
     ["antipode", "--max-n", "2"]),
    ("mackey", hc, "mackey_rhs", _tensors_doubled,
     ["mackey", "--n1", "1", "--n2", "1", "--s", "1", "--t", "1"]),
    ("bialgebra", hc, "mackey_rhs", _tensors_doubled, ["bialgebra", "--max-n", "2"]),
    ("psh-nondescending", psh, "multiply_functions",
     lambda real: lambda a, b: real(a, b).scale(2), ["witness"]),
]


class TestVerifyFailures:
    """A corrupted input fails its check with a witness, in text and JSON."""

    @pytest.mark.parametrize("check,module,attr,corrupt,argv", CORRUPTIONS,
                             ids=[c[0] for c in CORRUPTIONS])
    def test_failing_check_has_witness(self, capsys, monkeypatch, check, module,
                                       attr, corrupt, argv):
        monkeypatch.setattr(module, attr, corrupt(getattr(module, attr)))
        code, out, _ = run(capsys, "verify", *argv, "--q", "2")
        assert code == 1
        lines = out.splitlines()
        assert lines[-1].startswith("FAILED:")
        failed = [i for i, line in enumerate(lines) if line.startswith(f"[FAIL] {check} ")]
        assert failed and all(lines[i + 1].startswith("       witness: ") for i in failed)

        code, out, _ = run(capsys, "verify", *argv, "--q", "2", "--format", "json")
        assert code == 1
        data = json.loads(out)
        assert data["passed"] is False
        records = [r for r in data["reports"] if r["name"] == check and not r["passed"]]
        assert records and all(isinstance(r["witness"], str) for r in records)


    # q=9 and q=19 hold their lookups in uint8 and uint16, past which
    # lookup * classes runs: the count must be the Python one
    @pytest.mark.parametrize("q,n", [(2, 2), (2, 4), (3, 3), (9, 2), (19, 2)])
    def test_orbit_oracle_counts_label_pairs(self, capsys, monkeypatch, q, n):
        # two codes from two classes of the lookup trade brute-force classes:
        # sizes and class count stay, and the label pairs are those of a set
        ctx = fq(q)
        lookup = enumerate_orbits(n, ctx).lookup
        real = cli.orbit_table_bruteforce

        def traded(m, ctx):
            claim, sizes = real(m, ctx)
            if m == n:
                a = int(np.flatnonzero(lookup == lookup[-1])[0])
                claim = claim.copy()
                claim[[a, -1 - a]] = claim[[-1 - a, a]]
            return claim, sizes

        monkeypatch.setattr(cli, "orbit_table_bruteforce", traded)
        code, out, _ = run(capsys, "verify", "orbits", "--q", str(q), "--max-n", str(n),
                           "--format", "json")
        claim, _ = traded(n, ctx)
        pairs = len(set(zip(lookup.tolist(), claim.tolist())))
        want = f"{len(set(lookup.tolist()))} orbits, {len(set(claim.tolist()))} by brute force"
        [record] = [r for r in json.loads(out)["reports"]
                    if r["name"] == "orbit-oracle" and r["params"]["n"] == n]
        assert code == 1 and pairs > len(set(lookup.tolist()))
        assert record["witness"] == f"{want}, {pairs} label pairs"


class TestErrors:
    def test_bad_q(self, capsys):
        code, _, err = run(capsys, "orbits", "--q", "6", "--n", "1")
        assert code == 2 and "budget table" in err

    @pytest.mark.parametrize("q", [0, 1, 6, 23, 131071])
    def test_unsupported_field(self, q):
        # the field check comes before fq(q): its q x q tables at q=131071
        # would take gigabytes, so the address space is capped as well
        done = subprocess.run(
            [sys.executable, "-m", "glnq.cli", "witness", "--q", str(q)],
            capture_output=True, text=True, timeout=10,
            env=dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1])),
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)))
        assert done.returncode == 2 and done.stdout == ""
        assert done.stderr.count("\n") == 1 and "budget table" in done.stderr

    def test_budget_exceeded(self, capsys):
        code, _, err = run(capsys, "orbits", "--q", "3", "--n", "4")
        assert code == 2 and "--budget" in err

    def test_enumeration_past_budget(self, capsys):
        # the dual of 1 at q=3 n=4 needs all 3^16 matrices
        code, out, err = run(capsys, "steinberg", "--q", "3", "--n", "4", "--budget")
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("error: enumeration needs")

    @pytest.mark.parametrize("argv", [
        ["steinberg", "--q", "4", "--n", "3", "--budget"],
        ["dual", "--q", "4", "--n", "3", "--budget", "--input"],
        ["verify", "steinberg", "--q", "4", "--max-n", "3", "--budget"],
    ], ids=["steinberg", "dual", "verify-steinberg"])
    def test_past_the_lookup_after_a_trivial_split(self, capsys, tmp_path, argv):
        # the duality's one-part split (3,) counted its single coset through
        # the degree-3 lookup, which 4^9 > LOOKUP_BUDGET leaves unbuilt: each
        # ended in TypeError: 'NoneType' object is not subscriptable, exit 1
        if argv[-1] == "--input":
            src = tmp_path / "one3_q4.json"
            src.write_text(json.dumps(constant_one(enumerate_orbits(3, fq(4))).to_json()))
            argv = argv + [str(src)]
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err == "error: enumeration needs 262144 > budget 131072\n"

    @pytest.mark.parametrize("argv", [
        ["orbits", "--q", "2", "--n", "1"], ["verify", "--q", "2", "--max-n", "1"],
    ], ids=["orbits", "verify"])
    @pytest.mark.parametrize("target,error,errnum", [
        ("missing/x.json", "FileNotFoundError", errno.ENOENT),
        (".", "IsADirectoryError", errno.EISDIR)])
    def test_output_path_that_cannot_be_opened(self, capsys, tmp_path, argv, target,
                                               error, errnum):
        # ended in a traceback and exit 1, verify's code for a failed check
        path = tmp_path / target
        code, out, err = run(capsys, *argv, "--output", str(path))
        assert code == 2 and out == ""
        assert err == f"error: --output {path}: {error}: {os.strerror(errnum)}\n"
        assert list(tmp_path.iterdir()) == []

    def test_composition_degree_mismatch(self, capsys, tmp_path):
        from glnq.field import fq
        from glnq.invfun import constant_one
        from glnq.orbits import enumerate_orbits
        src = tmp_path / "one1.json"
        src.write_text(json.dumps(
            constant_one(enumerate_orbits(1, fq(2))).to_json()))
        code, _, err = run(capsys, "restrict", "--q", "2",
                           "--composition", "1+1", "--input", str(src))
        assert code == 2

    def test_file_from_another_field(self, capsys, tmp_path, q4):
        # a q=4 function file read over F_2 was answered silently
        src = tmp_path / "one1_q4.json"
        src.write_text(json.dumps(constant_one(enumerate_orbits(1, q4)).to_json()))
        code, out, err = run(capsys, "antipode", "--q", "2", "--input", str(src))
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and '"q"' in err

    def test_steinberg_report_is_not_a_function(self, capsys, tmp_path):
        src = tmp_path / "st2.json"
        code, _, _ = run(capsys, "steinberg", "--q", "2", "--n", "2",
                         "--format", "json", "--output", str(src))
        assert code == 0
        code, _, err = run(capsys, "dual", "--q", "2", "--n", "2",
                           "--input", str(src))
        assert code == 2 and err.count("\n") == 1 and "KeyError" in err
        # it said only KeyError: 'n'
        assert 'no "n" key' in err and '"constituents", "function"' in err

    @pytest.mark.parametrize("n", ["true", "1.0", '"1"'])
    def test_degree_that_is_not_a_json_integer(self, capsys, tmp_path, n):
        # true was read as degree 1, and 1.0 and "1" were accepted
        data = constant_one(enumerate_orbits(1, fq(2))).to_json()
        src = tmp_path / "bad_n.json"
        src.write_text(json.dumps(data).replace('"n": 1', f'"n": {n}'))
        code, out, err = run(capsys, "antipode", "--q", "2", "--input", str(src))
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and f'"n" is {n}, not an integer' in err

    @pytest.mark.parametrize("value,kind", [([1], "list"), (1, "int"), (None, "NoneType")])
    def test_value_that_is_not_a_string(self, capsys, tmp_path, value, kind):
        # a list printed TypeError: expected string or bytes-like object,
        # got 'list', naming no field
        data = constant_one(enumerate_orbits(1, fq(2))).to_json()
        data["values"]["0,1:1"] = value
        src = tmp_path / "bad_value.json"
        src.write_text(json.dumps(data))
        code, out, err = run(capsys, "antipode", "--q", "2", "--input", str(src))
        assert code == 2 and out == ""
        assert err.count("\n") == 1
        assert f'"values" entry "0,1:1" is a {kind}, not a string' in err

    def test_long_value_is_clipped(self, capsys, tmp_path):
        # the error echoed all 100,000 characters of the value
        data = constant_one(enumerate_orbits(1, fq(2))).to_json()
        data["values"]["0,1:1"] = "2:[" + "x" * 100_000 + "]"
        src = tmp_path / "long_value.json"
        src.write_text(json.dumps(data))
        code, out, err = run(capsys, "antipode", "--q", "2", "--input", str(src))
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and len(err) < 500
        assert "characters] ..." in err and err.rstrip().endswith("with p prime")

    def test_malformed_json(self, capsys, tmp_path):
        src = tmp_path / "bad.json"
        src.write_text('{"n": 1, "q": ')
        code, _, err = run(capsys, "antipode", "--q", "2", "--input", str(src))
        assert code == 2 and err.count("\n") == 1 and "JSONDecodeError" in err

    @pytest.mark.parametrize("q,value,message", [
        (2, "2:x5y", "'2:x5y' is not p:["), (3, "3:(1,2)", "'3:(1,2)' is not p:["),
        (2, "4:[1,2,3]", "with p prime"), (2, "1:[]", "with p prime"),
    ])
    def test_malformed_value(self, capsys, tmp_path, q, value, message):
        # "2:x5y" was read as 5 and "3:(1,2)" as 1 + 2 zeta, and the
        # antipode of the file came back with exit 0
        from glnq.field import fq
        data = constant_one(enumerate_orbits(1, fq(q))).to_json()
        data["values"][next(iter(data["values"]))] = value
        src = tmp_path / "bad_value.json"
        src.write_text(json.dumps(data))
        code, out, err = run(capsys, "antipode", "--q", str(q), "--input", str(src))
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and message in err

    @pytest.mark.parametrize("value,message", [
        ("2:[1/" + "9" * 5000 + "]", "Exceeds the limit (4300 digits)"),
        ("2:[x]", "'2:[x]' is not p:[c_0,...,c_(p-2)] with p prime"),
        ("3:[1,0]", "written over Q(zeta_3), not Q(zeta_2)"),
    ], ids=["long-coefficient", "malformed", "other-field"])
    def test_bad_value_names_its_label(self, capsys, tmp_path, value, message):
        # none of the three errors named the orbit label of the value
        data = constant_one(enumerate_orbits(1, fq(2))).to_json()
        data["values"]["1,1:1"] = value
        src = tmp_path / "bad_value.json"
        src.write_text(json.dumps(data))
        code, out, err = run(capsys, "antipode", "--q", "2", "--input", str(src))
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and f'"values" entry "1,1:1": {message}' in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "antipode", "--q", "2",
                           "--input", str(tmp_path / "absent.json"))
        assert code == 2 and err.count("\n") == 1

    @pytest.mark.parametrize("n,message", [(4, "--budget"), (-1, '"n"')])
    def test_file_degree_out_of_range(self, capsys, tmp_path, n, message):
        src = tmp_path / "bad_n.json"
        src.write_text(json.dumps({"n": n, "q": "3^1:0,1", "values": {}}))
        code, _, err = run(capsys, "antipode", "--q", "3", "--input", str(src))
        assert code == 2 and err.count("\n") == 1 and message in err

    def test_vacuous_max_n(self, capsys):
        # --max-n 0 printed "OK: 5/5" without checking any positive degree
        code, out, err = run(capsys, "verify", "--q", "2", "--max-n", "0")
        assert code == 2 and out == "" and "--max-n" in err

    @pytest.mark.parametrize("suite", ["hc", "mackey"])
    def test_suite_with_no_check_at_max_n(self, capsys, suite):
        # both printed "OK: 0/0 checks passed" and exited 0: neither suite
        # has a check below degree 2
        code, out, err = run(capsys, "verify", suite, "--q", "2", "--max-n", "1")
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and f"verify {suite} " in err and "--max-n 1" in err

    def test_all_suites_at_max_n_one_still_run(self, capsys):
        code, out, _ = run(capsys, "verify", "--q", "2", "--max-n", "1")
        assert code == 0 and out.splitlines()[-1].startswith("OK: ")

    @pytest.mark.parametrize("argv,message", [
        (["induce", "--composition", "2+", "--input", "a.json"], "--composition"),
        (["restrict", "--composition", "a", "--input", "a.json"], "--composition"),
        (["restrict", "--composition", "0+2", "--input", "a.json"], "positive"),
        (["orbits", "--n", "-1"], "negative"),
        (["steinberg", "--n", "-1"], "negative"),
        (["primitives", "--n", "0"], "degree 1"),
        (["verify", "mackey", "--n1", "-1", "--n2", "1", "--s", "0", "--t", "0"],
         "nonnegative"),
        (["verify", "mackey", "--n1", "1", "--n2", "1", "--s", "1", "--t", "2"],
         "differs"),
        (["verify", "mackey", "--n1", "3", "--n2", "2", "--s", "2", "--t", "3"],
         "--budget"),
        (["verify", "mackey", "--n2", "1"], "needs all of"),
        (["verify", "hc", "--n1", "1"], "mackey only"),
        (["verify", "--s", "1"], "mackey only"),
        (["verify", "psh", "--n2", "1", "--t", "1"], "mackey only"),
    ])
    def test_rejected_before_computing(self, capsys, argv, message):
        # each of these ended in a traceback and exit 1, or ran a whole suite
        code, out, err = run(capsys, *argv[:1], "--q", "2", *argv[1:])
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and message in err
