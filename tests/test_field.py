"""Finite field contexts, cyclotomic numbers, and sign-times-square-root
rationals."""
import math
import pickle
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import field_oracle
from glnq.field import (ContextMismatchError, Cyclotomic, FieldTableError,
                        FqContext, NotRationalError, SqrtRational, digits, fq,
                        prime_power, rational_is_square, undigits)


class TestFqArithmetic:
    def test_char_two_addition(self, q2):
        assert q2.element(1) + q2.element(1) == q2.zero

    def test_mod_three_product(self, q3):
        assert q3.element(2) * q3.element(2) == q3.element(1)

    def test_q4_generator_square(self, q4):
        # with modulus t^2 + t + 1 the generator t satisfies t*t = t + 1
        t = q4.from_coeffs([0, 1])
        assert t * t == q4.from_coeffs([1, 1])

    def test_from_coeffs_reduces_modulo_the_modulus(self, q4):
        # modulo t^2 + t + 1: t^2 = t + 1 and t^3 = 1
        t = q4.from_coeffs([0, 1])
        assert q4.from_coeffs([0, 0, 1]) == t * t == q4.from_coeffs([1, 1])
        assert q4.from_coeffs([0, 0, 0, 1]) == q4.one
        assert q4.from_coeffs([3, -1, 0, 0]) == q4.from_coeffs([1, 1])

    @given(st.sampled_from([2, 4, 8, 9, 25, 27]),
           st.lists(st.integers(-30, 30), max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_from_coeffs_evaluates_at_t(self, q, coeffs):
        ctx = fq(q)
        t = ctx.from_coeffs([0, 1])
        want = ctx.zero
        for c in reversed(coeffs):
            want = want * t + ctx.element(c % ctx.p)
        assert ctx.from_coeffs(coeffs) == want

    def test_inverses(self, q2, q3, q5):
        assert q3.element(2).inverse() == q3.element(2)
        assert q2.element(1).inverse() == q2.element(1)
        # exhaustive search confirms 3 * 2 = 6 = 1 mod 5
        assert q5.element(3).inverse() == q5.element(2)

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
    def test_multiplicative_group_order(self, q):
        ctx = fq(q)
        for a in ctx.elements():
            if a:
                assert a ** (q - 1) == ctx.one

    def test_trace_prime_field_is_identity(self, q3):
        assert q3.element(2).trace() == 2

    def test_trace_q4(self, q4):
        # Tr(a) = a + a^2: Tr(1) = 0 and Tr(t) = t + t^2 = t + t + 1 = 1
        assert q4.one.trace() == 0
        assert q4.from_coeffs([0, 1]).trace() == 1

    def test_trace_outside_prime_field_rejected(self, monkeypatch):
        # a Frobenius that always lands on t gives Tr(0) = t, outside F_2
        monkeypatch.setattr(FqContext, "_pow_idx", lambda self, a, e: 2)
        with pytest.raises(FieldTableError, match="not in F_2"):
            FqContext(2, 2)

    def test_context_mismatch_rejected(self, q2, q3):
        with pytest.raises(ContextMismatchError):
            q2.one + q3.one

    def test_serialize_roundtrip(self, q4):
        assert FqContext.parse(q4.serialize()) is q4

    def test_zero_has_no_inverse(self, q3):
        with pytest.raises(ZeroDivisionError):
            q3.zero.inverse()

    @pytest.mark.parametrize("cycle", [False, True])
    def test_no_generator_in_a_corrupted_table(self, cycle):
        # a Klein-four product on F_5^x: every unit has order at most 2
        ctx = FqContext(5)
        units = np.arange(4)
        table = np.zeros((5, 5), dtype=np.int16)
        table[1:, 1:] = (units[:, None] ^ units[None, :]) + 1
        if cycle:
            # the powers of 2 run 2, 3, 3, ... and never reach 1
            table[2, 2] = table[3, 2] = 3
        ctx.MUL = table
        with pytest.raises(FieldTableError, match="no element of order 4"):
            ctx.generator_index()


# the default modulus is the first monic irreducible of degree k in code
# order (lowest digit first), which differs from (degree, lex) order at q=8, 25
DEFAULT_MODULI = {4: (1, 1, 1), 8: (1, 1, 0, 1), 9: (1, 0, 1),
                  16: (1, 1, 0, 0, 1), 25: (2, 0, 1), 27: (1, 2, 0, 1),
                  32: (1, 0, 1, 0, 0, 1), 49: (1, 0, 1)}


class TestDigitCodes:
    def test_codes_past_the_digit_dtype(self):
        # 20 base-2 digits held as uint8 encode codes up to 2^20 - 1
        codes = np.random.default_rng(1).integers(0, 1 << 20, 300)
        codes[:2] = 0, (1 << 20) - 1
        digs = digits(codes, 2, 20)
        assert digs.dtype == np.uint8
        got = undigits(digs, 2)
        assert got.dtype == np.uint32
        assert got.tolist() == [sum(int(d) << i for i, d in enumerate(row))
                                for row in digs.tolist()] == codes.tolist()

    @pytest.mark.parametrize("dtype,base,width,out", [
        (np.uint8, 2, 8, np.uint8), (np.uint8, 2, 9, np.uint16),
        (np.int16, 2, 15, np.uint16), (np.int16, 2, 16, np.uint16),
        (np.int16, 2, 17, np.uint32), (np.int32, 3, 19, np.uint32),
        (np.int32, 3, 20, np.uint32), (np.int32, 3, 21, np.uint64),
        (np.int64, 7, 22, np.uint64), (np.uint8, 27, 2, np.uint16),
        (np.uint8, 3, 6, np.uint16), (np.int16, 19, 1, np.uint8)])
    def test_codes_in_the_digit_dtype(self, dtype, base, width, out):
        # codes below base^width take the narrowest unsigned dtype that
        # holds base^width - 1, whatever the digits' dtype, and equal the
        # Python-int sums
        rng = np.random.default_rng(width)
        digs = rng.integers(0, base, (50, width)).astype(dtype)
        digs[0] = base - 1  # the largest code, base^width - 1
        got = undigits(digs, base)
        assert got.dtype == out
        assert got.tolist() == [sum(int(d) * base ** i for i, d in enumerate(row))
                                for row in digs.tolist()]
        assert got[0] == base ** width - 1

    def test_two_row_index_of_the_move_table(self):
        # orbits._move_codes at q=3 n=3 indexes pairs of row codes below
        # Q = 27 held as uint8: 728 fits uint16, a quarter of int64's bytes
        rows = np.random.default_rng(3).integers(0, 27, (3 ** 9, 2)).astype(np.uint8)
        got = undigits(rows, 27)
        assert got.dtype == np.uint16 and got.nbytes == 2 * 3 ** 9
        assert np.array_equal(got, rows[:, 0] + 27 * rows[:, 1].astype(np.int64))

    def test_narrow_codes_stay_narrow(self):
        # the 2^16 codes of gl_4(F_2) fill uint16 exactly; copied to int64,
        # each pass would hold three 512 kB arrays beside the 1 MB of uint8
        # digits
        codes = np.arange(1 << 16, dtype=np.uint16)
        tracemalloc.start()
        try:
            digs = digits(codes, 2, 16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert digs.dtype == np.uint8
        assert digs.nbytes == 1 << 20 and peak < digs.nbytes + (1 << 19)
        assert np.array_equal(undigits(digs, 2), codes)

    @pytest.mark.parametrize("base,width", [(3, 12), (9, 6), (49, 4)])
    def test_roundtrip(self, base, width):
        codes = np.arange(0, base ** width, base ** width // 97 + 1)
        digs = digits(codes.reshape(-1, 1), base, width)
        assert digs.shape == (len(codes), 1, width)
        assert np.array_equal(undigits(digs, base), codes.reshape(-1, 1))


class TestFqTables:
    @pytest.mark.parametrize("q", sorted(DEFAULT_MODULI))
    def test_tables_match_oracle(self, q):
        ctx = fq(q)
        ref = field_oracle.tables(ctx.p, ctx.k)
        assert ctx.modulus == ref["modulus"] == DEFAULT_MODULI[q]
        assert ctx._coeffs == ref["coeffs"]
        for name in ("ADD", "MUL", "NEG", "INV", "TR"):
            assert getattr(ctx, name).tolist() == ref[name], name

    def test_given_modulus_matches_oracle(self):
        ctx = FqContext.get(2, 3, (1, 0, 1, 1))
        ref = field_oracle.tables(2, 3, (1, 0, 1, 1))
        for name in ("ADD", "MUL", "NEG", "INV", "TR"):
            assert getattr(ctx, name).tolist() == ref[name], name

    @pytest.mark.parametrize("args,message", [
        ((4,), "p = 4 is not prime"),
        ((1,), "p = 1 is not prime"),
        ((2, 0), "k must be positive"),
        ((2, 2, [1, 1, 2]), "modulus must be monic of degree k"),
        ((2, 2, [1, 1]), "modulus must be monic of degree k"),
        ((3, 1, [1, 1, 1]), "modulus must be monic of degree k"),
        ((2, 2, [1, 0, 1]), r"modulus \[1, 0, 1\] is reducible over F_2"),
        ((3, 2, [2, 0, 1]), r"modulus \[2, 0, 1\] is reducible over F_3"),
    ])
    def test_invalid_context(self, args, message):
        with pytest.raises(ValueError, match=message):
            FqContext(*args)

    @pytest.mark.parametrize("q", [0, 1, 6, 12])
    def test_not_a_prime_power(self, q):
        with pytest.raises(ValueError, match=f"q = {q} is not a prime power"):
            fq(q)

    @pytest.mark.parametrize("q,pk", [(2, (2, 1)), (9, (3, 2)), (16, (2, 4)),
                                      (19, (19, 1)), (121, (11, 2))])
    def test_prime_power(self, q, pk):
        assert prime_power(q) == pk


@given(st.sampled_from([2, 3, 4, 5, 8, 9]), st.data())
@settings(max_examples=60, deadline=None)
def test_field_ring_laws(q, data):
    ctx = fq(q)
    a, b, c = (ctx.element(data.draw(st.integers(0, q - 1))) for _ in range(3))
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == ctx.zero
    assert a - b == a + (-b)


class TestCyclotomic:
    def test_p2_is_rational(self):
        x = Cyclotomic.rational(2, Fraction(1, 2))
        assert (x * 2).as_rational() == 1

    def test_p3_product(self):
        z = Cyclotomic.zeta(3)
        assert (1 + z) * (1 + z * z) == 1

    def test_conjugation(self):
        z = Cyclotomic.zeta(3)
        assert z.conj() == Cyclotomic.rational(3, -1) - z

    def test_as_rational(self):
        assert Cyclotomic.rational(3, Fraction(5, 7)).as_rational() == Fraction(5, 7)
        z = Cyclotomic.zeta(3)
        assert (z + z * z).as_rational() == -1
        with pytest.raises(NotRationalError):
            z.as_rational()

    def test_zeta_has_order_p(self):
        for p in (2, 3, 5, 7):
            z = Cyclotomic.zeta(p)
            acc = Cyclotomic.rational(p, 1)
            for _ in range(p):
                acc = acc * z
            assert acc == 1

    def test_serialize_roundtrip(self):
        x = Cyclotomic(5, (1, Fraction(-2, 3), 0, 7))
        assert Cyclotomic.parse(x.serialize()) == x

    def test_norm_is_nonnegative(self):
        z = Cyclotomic.zeta(5, 2)
        val = (z * 3 - 1) * (z * 3 - 1).conj()
        # a * conj(a) for a in Q(zeta_5) need not be rational, but conjugation
        # must be an involutive ring map
        assert val.conj() == val
        assert z.conj().conj() == z

    @pytest.mark.parametrize("build", [
        lambda: Cyclotomic(4, (1, 2, 3)), lambda: Cyclotomic(1, ()),
        lambda: Cyclotomic(9, (0,) * 8), lambda: Cyclotomic.rational(1, 0),
        lambda: Cyclotomic.rational(0, 1), lambda: Cyclotomic.rational(6, 1),
        lambda: Cyclotomic.zeta(4), lambda: Cyclotomic.zeta(1, 0),
    ])
    def test_p_must_be_prime(self, build):
        # Cyclotomic(4, (1, 2, 3)) used to read as 1 + 2z + 3z^2 in a field
        # whose basis is not 1, z, z^2, and rational(1, 0) as one coordinate
        with pytest.raises(ValueError, match="p prime"):
            build()


@given(st.sampled_from([2, 3, 5]), st.data())
@settings(max_examples=60, deadline=None)
def test_cyclotomic_ring_laws(p, data):
    coeff = st.fractions(min_value=-9, max_value=9, max_denominator=9)
    xs = [Cyclotomic(p, tuple(data.draw(coeff) for _ in range(p - 1)))
          for _ in range(3)]
    a, b, c = xs
    assert a * b == b * a
    assert (a + b) * c == a * c + b * c
    assert (a * b) * c == a * (b * c)
    assert (a * b).conj() == a.conj() * b.conj()
    assert (a + b).conj() == a.conj() + b.conj()



@given(st.sampled_from([2, 3, 5]), st.data())
@settings(max_examples=60, deadline=None)
def test_cyclotomic_parse_roundtrip(p, data):
    x = Cyclotomic(p, tuple(data.draw(st.fractions()) for _ in range(p - 1)))
    assert Cyclotomic.parse(x.serialize()) == x


@pytest.mark.parametrize("text", [
    "2:x5y", "3:(1,2)", "3:1,2", "3[1,2]", "3:[1,2]x", "", "3:[1, 2]",
    "3:[1.5,2]", "3:[1/0,2]", "3:[1,,2]", "3:[1,2,]", "-3:[1,2]", "3:[1]",
    "3:[1,2,3]", "4:[1,2,3]", "1:[]", "0:[]", "9:[1,2,3,4,5,6,7,8]",
    "1000000000000000003:[1]",
])
def test_cyclotomic_parse_rejects(text):
    # "2:x5y" read as 5, "3:(1,2)" as 1 + 2 zeta and "4:[1,2,3]" as a value
    # of a field that does not exist
    with pytest.raises(ValueError):
        Cyclotomic.parse(text)


@pytest.mark.parametrize("text", ["2:[-1/2]", "3:[0,0]", "5:[1,-2/3,0,7]", "7:[0,0,0,0,0,12/5]"])
def test_cyclotomic_parse_accepts_serialize_output(text):
    assert Cyclotomic.parse(text).serialize() == text


# coordinates with small, often shared, denominators and many zeros
_coord = st.one_of(st.just(Fraction(0)),
                   st.fractions(min_value=-20, max_value=20, max_denominator=12))


def _pair(data, p, rational=False):
    """One value as a Cyclotomic and as the Fraction-coordinate oracle."""
    cs = [data.draw(_coord) for _ in range(p - 1)]
    if rational:
        cs[1:] = [0] * (p - 2)
    return Cyclotomic(p, cs), field_oracle.FractionCyclotomic(p, cs)


def _same(x, ref):
    return (x.p == ref.p and x.coeffs == ref.coeffs and x.serialize() == ref.serialize()
            and repr(x) == repr(ref) and hash(x) == hash(ref)
            and x.is_zero() == ref.is_zero())


@given(st.sampled_from([2, 3, 5, 7]), st.data())
@settings(max_examples=150, deadline=None)
def test_cyclotomic_matches_fraction_oracle(p, data):
    (a, ra), (b, rb) = _pair(data, p), _pair(data, p, data.draw(st.booleans()))
    k = data.draw(st.integers(-6, 6))
    r = data.draw(_coord)
    assert _same(a, ra) and _same(b, rb)
    for x, ref in [(a + b, ra + rb), (a - b, ra - rb), (-a, -ra), (a * b, ra * rb),
                   (a * k, ra * k), (k * a, k * ra), (a * r, ra * r), (r * a, r * ra),
                   (a + k, ra + k), (r - a, r - ra), (a - a, ra - ra), (a.conj(), ra.conj()),
                   (Cyclotomic.parse(a.serialize()), ra)]:
        assert _same(x, ref)
    for x, ref in [(a, ra), (b, rb)]:
        try:
            expect = ref.as_rational()
        except NotRationalError:
            with pytest.raises(NotRationalError):
                x.as_rational()
        else:
            assert x.as_rational() == expect and type(x.as_rational()) is Fraction
    assert (a == b) == (ra == rb)
    assert (b == r) == (rb == r) and (b == k) == (rb == k)
    assert (Cyclotomic.rational(p, r) == r) and (Cyclotomic.rational(p, k) == k)
    assert _same(Cyclotomic.zeta(p, k), field_oracle.FractionCyclotomic.zeta(p, k))


def _canonical(x):
    return x.den > 0 and math.gcd(x.den, *x.num) == 1 and len(x.num) == x.p - 1


@given(st.sampled_from([2, 3, 5, 7]), st.data())
@settings(max_examples=100, deadline=None)
def test_cyclotomic_canonical_form(p, data):
    (a, _), (b, _) = _pair(data, p), _pair(data, p)
    r = data.draw(_coord)
    for x in (a, b, a + b, a - b, -a, a * b, a * r, a.conj(), a - a, a * 0):
        assert _canonical(x)
    # one value built three ways: from unreduced Fractions, from raw ints
    # sharing a factor (with either sign of the denominator), and by
    # arithmetic; and a pickled copy
    m = data.draw(st.integers(2, 30))
    sign = data.draw(st.sampled_from([1, -1]))
    built = [
        Cyclotomic(p, [Fraction(a.num[j] * m, a.den * m) for j in range(p - 1)]),
        Cyclotomic._from_ints(p, [sign * m * c for c in a.num], sign * m * a.den),
        (a * m + b - b) * Fraction(1, m),
        pickle.loads(pickle.dumps(a)),
    ]
    for x in built:
        assert (x.num, x.den) == (a.num, a.den) and x == a and hash(x) == hash(a)
        assert _canonical(x)


class TestSqrtRational:
    def test_from_rational(self):
        x = SqrtRational.from_rational(Fraction(-2, 3))
        assert x.sign == -1 and x.square == Fraction(4, 9)
        assert x.as_rational() == Fraction(-2, 3)

    def test_product(self):
        a = SqrtRational(1, Fraction(3, 2))
        assert (a * a).as_rational() == Fraction(3, 2)
        assert not a.is_rational()

    def test_zero(self):
        z = SqrtRational(0, 0)
        assert z.is_rational() and z.as_rational() == 0
        assert (z * SqrtRational(1, 5)) == 0

    def test_irrational_has_no_rational_value(self):
        with pytest.raises(NotRationalError):
            SqrtRational(1, Fraction(3, 2)).as_rational()

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            SqrtRational(2, 1)
        with pytest.raises(ValueError):
            SqrtRational(1, -1)
        with pytest.raises(ValueError):
            SqrtRational(0, 1)


@pytest.mark.parametrize("value,plain", [
    (Cyclotomic.rational(3, 2), 2), (Cyclotomic.rational(5, Fraction(3, 2)), Fraction(3, 2)),
    (Cyclotomic.rational(2, -7), -7), (Cyclotomic.zeta(2), -1), (Cyclotomic.rational(7, 0), 0),
    (SqrtRational(1, 4), 2), (SqrtRational.from_rational(Fraction(-2, 3)), Fraction(-2, 3)),
    (SqrtRational(0, 0), 0)])
def test_equal_values_find_each_other(value, plain):
    # hash agrees with ==, so a value and the int or Fraction it equals are
    # one key in a set or a dict
    assert value == plain and hash(value) == hash(plain)
    assert plain in {value} and value in {plain}
    assert {value: 1}[plain] == 1 and {plain: 1}[value] == 1


def test_rational_is_square():
    assert rational_is_square(Fraction(4, 9))
    assert rational_is_square(0)
    assert not rational_is_square(Fraction(3, 2))
    assert not rational_is_square(Fraction(-4, 9))
    assert not rational_is_square(2)
