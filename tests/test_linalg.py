"""Gauss-Jordan over Q on (x, den) pairs against the Fraction-list oracle of
tests/linalg_oracle.py: the same reduced forms, pivots, kernels and ranks on
random small rational matrices, zero rows, zero columns and empty shapes.
The products of linalg (matmul, kron and convolve, and apply_operator on
them) against the Python-int products of the oracle, with operands at the
int64 bound, where they take int64, and one past it, where they do not; the
same for every other operation that grows an entry (add, conj_t, scaled)
and for the library sites that scale or negate exact arrays through them.
The canonical dtype: the narrowest of int16, int32 and int64 whose max is at
least every |e|, else Python ints; every operation at each tier boundary
against the oracle, each result in exactly the tier of its values."""
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import invfun_oracle
import linalg_oracle
from glnq import duality, hc, hopf, invfun, linalg, psh
from glnq.duality import duality_operator
from glnq.field import Cyclotomic
from glnq.invfun import InvariantFunction, TensorFunction, apply_operator
from glnq.orbits import enumerate_orbits

TOP = 2 ** 63 - 1  # the largest |entry| an int64 array holds


def as_pair(rows, ncols):
    """The rational matrix rows (Fraction lists, ncols wide) as a pair."""
    den = math.lcm(1, *(v.denominator for row in rows for v in row))
    x = np.array([[int(v * den) for v in row] for row in rows],
                 dtype=object).reshape(len(rows), ncols)
    return linalg.reduced(x, den)


def as_rows(pair):
    x, den = pair
    return [[Fraction(int(v), den) for v in row] for row in x]


@st.composite
def rational_matrices(draw):
    """Small rational matrices, 0x0 up to 6x6, with entries of numerator and
    denominator below 5, zero rows and columns, and repeated rows."""
    nrows, ncols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    entry = st.one_of(st.just(Fraction(0)),
                      st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4)))
    rows = [[draw(entry) for _ in range(ncols)] for _ in range(nrows)]
    for r in draw(st.sets(st.integers(0, max(nrows - 1, 0)))) if nrows else ():
        rows[r] = [Fraction(0)] * ncols
    for c in draw(st.sets(st.integers(0, max(ncols - 1, 0)))) if ncols else ():
        for row in rows:
            row[c] = Fraction(0)
    if nrows >= 2 and draw(st.booleans()):
        k = draw(st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)))
        rows[-1] = [k * v for v in rows[0]]
    return rows, ncols


@given(rational_matrices())
@settings(max_examples=300, deadline=None)
def test_matches_oracle(matrix):
    rows, ncols = matrix
    pair = as_pair(rows, ncols)
    form, pivots = linalg.rref(pair)
    want, want_pivots = linalg_oracle.rref(rows)
    assert pivots == want_pivots
    assert as_rows(form) == want
    assert linalg.mat_eq(form, linalg.reduced(*form))  # lowest terms
    assert linalg.rank(pair) == linalg_oracle.rank(rows) == len(pivots)
    kernel = linalg.kernel(pair)
    assert kernel[0].shape == (ncols - len(pivots), ncols)
    if rows:
        assert as_rows(kernel) == linalg_oracle.kernel(rows)


def test_no_rows():
    # the oracle's kernel of a 0 x k matrix is [], as a list of no rows has no
    # width; the pair knows k, and every vector is in the kernel
    pair = linalg.reduced(np.zeros((0, 3), dtype=object), 1)
    form, pivots = linalg.rref(pair)
    assert form[0].shape == (0, 3) and pivots == []
    assert linalg.rank(pair) == 0
    assert linalg.mat_eq(linalg.kernel(pair), linalg.identity(3))


def test_zero_columns():
    pair = linalg.reduced(np.zeros((2, 0), dtype=object), 1)
    form, pivots = linalg.rref(pair)
    assert form[0].shape == (2, 0) and pivots == []
    assert linalg.kernel(pair)[0].shape == (0, 0)


def test_scale_is_ignored():
    # rows of x and of 2x/3 span the same space
    x = np.array([[2, 4, 0], [1, 3, 1]], dtype=object)
    (form, pivots), (scaled, scaled_pivots) = linalg.rref((x, 1)), linalg.rref((2 * x, 3))
    assert linalg.mat_eq(form, scaled) and pivots == scaled_pivots
    assert linalg.mat_eq(linalg.kernel((x, 1)), linalg.kernel((2 * x, 3)))


def test_forms_over_q():
    form, pivots = linalg.rref((np.array([[2, 4, 1], [4, 8, 3]], dtype=object), 1))
    assert pivots == [0, 2]
    assert as_rows(form) == [[1, 2, 0], [0, 0, 1]]
    kernel = linalg.kernel((np.array([[3, 1]], dtype=object), 1))
    assert as_rows(kernel) == [[Fraction(-1, 3), 1]]


# ---------------------------------------------------------------------------
# the one product: int64 exactly when terms * max|x| * max|y| < 2^63


@pytest.fixture
def paths(monkeypatch):
    """Whether each product took int64, in call order."""
    seen = []
    real = linalg._operands

    def spy(x, y, terms):
        out = real(x, y, terms)
        seen.append(out[0].dtype == np.int64)
        return out
    monkeypatch.setattr(linalg, "_operands", spy)
    return seen


@pytest.mark.parametrize("past", [0, 1], ids=["at", "past"])
def test_rational_products_at_the_bound(paths, past):
    # every entry of the product is terms * m * big, the largest value the
    # bound lets int64 hold, or one step past it
    m = 7
    for shapes, terms, product, oracle in [
            (((2, 3), (3, 4)), 3, linalg.matmul, linalg_oracle.matmul),
            (((2, 3), (4, 3, 2)), 3, linalg.matmul, None),
            (((2, 3), (2, 2)), 1, linalg.kron, linalg_oracle.kron)]:
        big = (2 ** 63 - 1) // (terms * m) + past
        x = np.full(shapes[0], m, dtype=object)
        y = np.full(shapes[1], big, dtype=object)
        got, den = product((x, 1), (y, 1))
        if oracle is None:  # a 2-D factor acts on every plane of a 3-D one
            want = [linalg_oracle.matmul(x.tolist(), plane) for plane in y.tolist()]
        else:
            want = oracle(x.tolist(), y.tolist())
        assert den == 1 and got.tolist() == want
        assert max(map(abs, got.flat)) == terms * m * big
    assert paths == [not past] * 3


def _signed(p, shape, value, first):
    """p - 1 planes of `shape`, plane s filled with +-value: the sign of
    plane s is (-1)^s, or (-1)^(p - 2 - s) when first, so that plane p - 2 of
    a product sums 2p - 3 terms of one sign after the fold."""
    return np.stack([np.full(shape, (-1) ** ((p - 2 - s) if first else s) * value,
                             dtype=object) for s in range(p - 1)])


@pytest.mark.parametrize("past", [0, 1], ids=["at", "past"])
@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_cyclotomic_products_at_the_bound(paths, p, past):
    m = 5
    for (xs, ys), terms, product in [(((2, 3), (3, 2)), 3, linalg.matmul),
                                     (((2, 2), (1, 2)), 1, linalg.kron)]:
        big = (2 ** 63 - 1) // (2 * (p - 1) * terms * m) + past
        x, y = _signed(p, xs, m, True), _signed(p, ys, big, False)
        got = product((x, 1), (y, 1))
        assert got[1] == 1
        args = (linalg_oracle.entries(x), linalg_oracle.entries(y), linalg_oracle.zmul)
        want = (linalg_oracle.matmul(*args, linalg_oracle.zadd) if product is linalg.matmul
                else linalg_oracle.kron(*args))
        assert linalg_oracle.entries(got[0]) == want
        assert max(abs(v) for v in got[0][p - 2].flat) == (2 * p - 3) * terms * m * big
    # one product per pair of coefficient rows, as invfun's tensor products take it
    big = (2 ** 63 - 1) // (2 * (p - 1) * m) + past
    x, y = _signed(p, (3,), m, True), _signed(p, (2,), big, False)
    got = linalg.convolve(x, y, np.multiply.outer)
    want = [[linalg_oracle.zmul(list(x[:, i]), list(y[:, j])) for j in range(2)]
            for i in range(3)]
    assert linalg_oracle.entries(got.astype(object)) == want
    assert paths == [not past] * 3


def test_entries_past_int64(paths):
    # an entry that int64 cannot hold takes Python ints, even times zero
    x = np.array([[2 ** 63, 1]], dtype=object)
    for y, want in [(np.zeros((2, 1), dtype=object), [[0]]),
                    (np.ones((2, 1), dtype=object), [[2 ** 63 + 1]])]:
        assert linalg.matmul((x, 1), (y, 1))[0].tolist() == want
    assert paths == [False, False]


def test_no_int64_copy_is_kept():
    # a narrow operand is cast to int64 inside the operation only: the pair
    # keeps its int16 x, and an int64 operand is multiplied as it is
    x, _ = linalg.reduced(np.arange(6).reshape(2, 3), 1)
    assert x.dtype == np.int16
    x64, y64 = linalg._operands(x, x.T, 3)
    assert x64.dtype == y64.dtype == np.int64
    assert np.array_equal(x64, x) and np.array_equal(y64, x.T)
    got, _ = linalg.matmul((x, 1), (x.T, 1))
    assert got.dtype == np.int16 and x.dtype == np.int16 and not x.flags.writeable
    wide = np.arange(6, dtype=np.int64).reshape(2, 3)
    assert linalg._operands(wide, wide.T, 3)[0] is wide
    assert not hasattr(linalg, "_INT64")


# ---------------------------------------------------------------------------
# the canonical dtype, and every other operation that grows an entry


@pytest.mark.parametrize("entries,dtype", [
    ([TOP, -TOP, 0], np.int64), ([-2 ** 31, 1, 0], np.int64),
    ([2 ** 63, 1, 0], object), ([-2 ** 63, 1, 0], object),
    ([0, 0, 0], np.int16), ([2 ** 15 - 1, -2 ** 15 + 1, 0], np.int16),
    ([-2 ** 15, 1, 0], np.int32), ([2 ** 15, 1, 0], np.int32),
    ([2 ** 31 - 1, -2 ** 31 + 1, 0], np.int32)])
def test_dtype_is_a_function_of_the_values(entries, dtype):
    # a tier's min fits it but its negation does not, so -2^15 takes int32,
    # -2^31 int64 and -2^63 Python ints; the entries as Python ints, three
    # times them over den 3, and in every integer dtype that holds them all
    # give one form
    forms = [(np.array(entries, dtype=object), 1), (np.array(entries, dtype=object) * 3, 3)]
    for dt in (np.int16, np.int32, np.int64):
        if np.iinfo(dt).min <= min(entries) and max(entries) <= np.iinfo(dt).max:
            forms.append((np.array(entries, dtype=dt), 1))
    for built, den in forms:
        x, d = linalg.reduced(built, den)
        assert x.dtype == dtype and not x.flags.writeable
        assert x.tolist() == entries and d == 1


def test_dtype_is_read_after_lowest_terms():
    # entries past int64 over a den that divides them reduce into int16;
    # -2^63 over an even den reduces into int64, -2^31 into int32 and
    # -2^15 into int16
    x, den = linalg.reduced(np.array([2 ** 64, -2 ** 65], dtype=object), 2 ** 64)
    assert x.dtype == np.int16 and x.tolist() == [1, -2] and den == 1
    for low, dtype, want in [(-2 ** 63, np.int64, np.int64), (-2 ** 31, np.int32, np.int32),
                             (-2 ** 15, np.int16, np.int16)]:
        x, den = linalg.reduced(np.array([low, 2], dtype=dtype), 2)
        assert x.dtype == want and x.tolist() == [low // 2, 1] and den == 1


@pytest.mark.parametrize("shape", [(2, 3), (0, 3), (2, 2, 2)])
@pytest.mark.parametrize("den", [2 ** 63 - 1, 2 ** 63, 2 ** 64 + 1])
def test_zero_over_a_den_past_int64(shape, den):
    # the gcd of den and a zero (or empty) x is den itself, past int64 on
    # all but the first den: the pair is the zero matrix over 1, in int16
    for dtype in (np.int16, np.int32, np.int64, object):
        x, d = linalg.reduced(np.zeros(shape, dtype=dtype), den)
        assert x.dtype == np.int16 and x.shape == shape and not x.any() and d == 1
    for dtype in (np.int16, np.int64):
        x = np.arange(6, dtype=dtype).reshape(2, 3)
        got = linalg.add((x, den), (-x, den))
        assert got[0].dtype == np.int16 and not got[0].any() and got[1] == 1


def test_function_minus_itself_over_a_den_past_int64(q3):
    table = enumerate_orbits(2, q3)
    for den in (2 ** 63, 2 ** 64):
        f = InvariantFunction(table, [Fraction(i + 1, den) for i in range(len(table))])
        for zero in (f - f, f.scale(0), -f + f):
            assert zero.is_zero() and zero.den == 1 and zero.num.dtype == np.int16
            assert zero == InvariantFunction(table, [0] * len(table))


@pytest.mark.parametrize("x", [np.array([[3.5]]), np.array([[3.0, 1.0]]),
                               np.array([[1 + 2j]]), np.array([[2]], dtype=np.float32)],
                         ids=["float", "integral-float", "complex", "float32"])
def test_reduced_refuses_floats(x):
    # a float or complex x was truncated: 3.5 over 2 came back as 3 over 2
    with pytest.raises(TypeError, match="integers"):
        linalg.reduced(x, 2)


@pytest.mark.parametrize("entries,dtype,den", [
    ([2 ** 63 + 5, 1], np.uint64, 1), ([2 ** 64 - 1, 0], np.uint64, 1),
    ([2 ** 63, 2 ** 62], np.uint64, 2 ** 62), ([2 ** 32 - 1, 3], np.uint32, 1),
    ([65535, 2], np.uint16, 1), ([255, 0], np.uint8, 3), ([True, False], np.bool_, 1)])
def test_unsigned_and_bool_by_value(entries, dtype, den):
    # uint64 entries past int64 wrapped to negative int64s; they take
    # Python ints, and every other entry keeps its value
    got = linalg.reduced(np.array([entries], dtype=dtype), den)
    assert _fractions(got) == [Fraction(int(v), den) for v in entries]
    assert got[0].dtype == linalg_oracle.tier(got[0]) and not got[0].flags.writeable


def _fractions(pair):
    """The entries of a pair as a flat list of Fractions."""
    x, den = pair
    return [Fraction(int(v), den) for v in np.asarray(x).flat]


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("past", [0, 1], ids=["at", "past"])
def test_add_at_the_bound(past, sign):
    # over den 6 the terms (a, 1), (b, 2), (c, 3) scale by 6, 3 and 2, and
    # the bound 6a + 3b + 2c is the largest entry of the sum: 2^63 - 1, or
    # 2^63 one past it, which int64 would wrap
    a, b, c = ((2 ** 63 - 8) // 6, 1, 2) if not past else ((2 ** 63 - 2) // 6, 0, 1)
    assert 6 * a + 3 * b + 2 * c == TOP + past
    terms = [(np.array([[sign * v, v % 5], [0, -1]], dtype=np.int64), d)
             for v, d in ((a, 1), (b, 2), (c, 3))]
    got = linalg.add(*terms)
    want = linalg_oracle.add(*((x.tolist(), d) for x, d in terms))
    assert _fractions(got) == [v for row in want for v in row]
    assert got[0].dtype == (object if past else np.int64)


@pytest.mark.parametrize("past", [0, 1], ids=["at", "past"])
@pytest.mark.parametrize("p", [3, 5, 7])
def test_conj_t_at_the_bound(p, past):
    # plane 0 = m and plane 1 = -m: conjugation moves plane 1 to zeta^(p-1),
    # whose fold adds m to plane 0, so the bound 2 max|x| is the entry 2m
    m = TOP // 2 + past
    x = np.zeros((p - 1, 2, 3), dtype=object)
    x[0], x[1] = m, -m
    x[:, 1, 2] = range(p - 1)
    got, den = linalg.conj_t((x, 1))
    entries = linalg_oracle.entries(x)
    want = [[linalg_oracle.zconj(entries[i][j]) for i in range(2)] for j in range(3)]
    assert den == 1 and linalg_oracle.entries(got) == want
    assert max(abs(int(v)) for v in got[0].flat) == 2 * m
    assert got.dtype == (object if past else np.int64)


@pytest.mark.parametrize("dtype", [np.int16, np.int32, np.int64, object])
@pytest.mark.parametrize("ndim", [2, 3])
def test_results_are_c_ordered(q3, ndim, dtype):
    # transposed views in, C-ordered arrays out: reduced fixes the order of
    # every result; the entries big * i + 1 (i < 54) put x in the tier
    # dtype, and each result is in the tier of its own values
    big = {np.int16: 1, np.int32: 2 ** 16, np.int64: 2 ** 32, object: 2 ** 64}[dtype]
    shape = (2, 3, 9)[-ndim:]
    x = np.array([big * i + 1 for i in range(math.prod(shape))], dtype=object)
    x = np.swapaxes(x.reshape(shape[:-2] + shape[:-3:-1]), -1, -2).astype(dtype)
    assert x.shape == shape and not x.flags.c_contiguous
    t1 = enumerate_orbits(1, q3)
    y = np.swapaxes(np.ones(shape[:-2] + (4, 9), dtype=dtype), -1, -2)
    results = {"reduced": linalg.reduced(x, 5), "conj_t": linalg.conj_t((x, 5)),
               "adjoint": invfun.adjoint(linalg.reduced(x, 5), (t1, t1), (t1,)),
               "matmul": linalg.matmul((x, 5), (y, 1))}
    for name, (got, _) in results.items():
        assert got.flags.c_contiguous and not got.flags.writeable, name
        assert got.dtype == linalg_oracle.tier(got), name
    assert results["reduced"][0].dtype == dtype
    assert _fractions(results["reduced"]) == [Fraction(int(v), 5) for v in x.flat]


@pytest.mark.parametrize("past", [0, 1], ids=["at", "past"])
@pytest.mark.parametrize("c", [2, -3, 7])
def test_scaled_at_the_bound(c, past):
    m = TOP // abs(c) + past
    for x in (np.array([[m, -m], [1, 0]], dtype=object), np.array([[m, -1]], dtype=np.int64)):
        got = linalg.scaled(x, c)
        assert got.tolist() == [[v * c for v in row] for row in x.tolist()]
        assert got.dtype == (object if past else np.int64)


def test_scaled_by_a_factor_past_int64():
    zero = np.zeros((2, 2), dtype=np.int64)
    assert np.array_equal(linalg.scaled(zero, 2 ** 70), zero)
    assert linalg.scaled(np.array([0, -1]), 2 ** 70).tolist() == [0, -2 ** 70]


@pytest.mark.parametrize("past", [0, 1], ids=["at", "past"])
def test_negation_at_the_bound(q3, past):
    # the largest int64 entry, or 2^63 past it (Python ints) and -2^63,
    # the one int64 whose negation wraps
    table = enumerate_orbits(1, q3)
    v = TOP + past
    f = InvariantFunction(table, [v, -v, 1])
    g = -f
    assert g.num.tolist() == [[-a for a in row] for row in f.num.tolist()]
    assert g.num.dtype == f.num.dtype == (object if past else np.int64)
    assert -g == f and g + f == InvariantFunction(table, [0, 0, 0])


@pytest.mark.parametrize("past", [0, 1], ids=["at", "past"])
def test_function_block_at_the_bound(q3, past):
    # f over den 1 scales by 3 to meet g over den 3
    table = enumerate_orbits(1, q3)
    m = TOP // 3 + past
    f = InvariantFunction(table, [m, -m, 0])
    g = InvariantFunction(table, [Fraction(1, 3), 0, 1])
    x, den = hc._function_block((f, g))
    assert den == 3 and x.shape == (2, 3, 2)
    for i, h in enumerate((f, g)):
        assert _fractions((x[..., i], den)) == _fractions((h.num, h.den))
    assert x.dtype == (object if past else np.int64)


def _first_difference_oracle(a, b):
    (x, dx), (y, dy) = a, b
    for index in np.ndindex(x.shape):
        u, v = Fraction(int(x[index]), dx), Fraction(int(y[index]), dy)
        if u != v:
            return f"({','.join(map(str, index))}): {u} != {v}"


@pytest.mark.parametrize("past", [0, 1], ids=["at", "past"])
def test_first_difference_at_the_bound(past):
    # entry (0, 0) is compared as 2 a against b: at the bound the two are
    # equal; past it 2 a = 2^63 and b = -2^63 agree mod 2^64 but differ
    a = TOP // 2 + past
    b = -2 ** 63 if past else 2 * a
    pairs = ((np.array([[a, 1]], dtype=np.int64), 1), (np.array([[b, 3]], dtype=object), 2))
    want = _first_difference_oracle(*pairs)
    assert want == ("(0,0): 4611686018427387904 != -4611686018427387904" if past
                    else "(0,1): 1 != 3/2")
    assert psh._first_difference(*pairs) == want
    assert psh._first_difference(pairs[0], pairs[0]) is None


@pytest.mark.parametrize("past", [0, 1], ids=["at", "past"])
def test_duality_signs_at_the_bound(q2, monkeypatch, past):
    # 1 x 1 stand-ins for R_c . *R_c: D_3 sums them with the signs
    # (-1)^(3 - len c), + - - + over (3), (2,1), (1,2), (1,1,1), so the
    # terms -a and -b of the two middle compositions add to a + b
    a, b = TOP // 2, TOP // 2 + 1 + past
    stand_ins = {(3,): 5, (2, 1): -a, (1, 2): -b, (1, 1, 1): -5}
    monkeypatch.setattr(duality, "induction_matrix",
                        lambda ctx, parts: (np.array([[stand_ins[parts]]]), 1))
    monkeypatch.setattr(duality, "restriction_matrix", lambda ctx, parts: linalg.identity(1))
    (x, den), = [duality.duality_operator.__wrapped__(3, q2).matrix]
    assert den == 1 and x.tolist() == [[a + b]] == [[TOP + past]]
    assert x.dtype == (object if past else np.int64)


@pytest.mark.parametrize("past", [0, 1], ids=["at", "past"])
def test_antipode_negation_at_the_bound(q2, monkeypatch, past):
    # one-orbit stand-ins: S_2 = -(I + Ind_(1,1) . (S_1 x I) . Res_(1,1)),
    # so the negated terms -1 and -b add to -(1 + b), or -2^63 past the
    # bound, the int64 whose negation wraps
    b = TOP - 1 + past
    build = hopf.antipode_matrix.__wrapped__  # uncached; S_1 below is a stand-in
    monkeypatch.setattr(hopf, "enumerate_orbits", lambda n, ctx: [None])
    monkeypatch.setattr(hopf, "antipode_matrix", lambda ctx, n: linalg.identity(1))
    monkeypatch.setattr(hopf, "induction_matrix", lambda ctx, parts: linalg.identity(1))
    monkeypatch.setattr(hopf, "restriction_matrix",
                        lambda ctx, parts: (np.array([[b]]), 1))
    x, den = build(q2, 2)
    assert den == 1 and x.tolist() == [[-(1 + b)]] == [[-TOP - past]]
    assert x.dtype == (object if past else np.int64)


def _aligned(x, amax, tables):
    """A tensor over tables with every coordinate +-amax, signed like the row
    of x with the largest absolute sum, so that row's sum is as large as the
    entries allow."""
    row = x[np.argmax(np.abs(x).sum(axis=1))]
    plane = [amax if v >= 0 else -amax for v in row]
    num = np.array([plane, [-a for a in plane]], dtype=object)
    return TensorFunction._from_array(tables, num.reshape((2,) + tuple(map(len, tables))), 1)


class TestInt64Path:
    """apply_operator on the operators it applies most, across the bound."""

    @pytest.fixture(params=["duality", "induction"])
    def operator(self, request, q3):
        """(op, input tables, output tables) at q=3, n=3."""
        t3 = enumerate_orbits(3, q3)
        if request.param == "duality":
            return duality_operator(3, q3).matrix, (t3,), (t3,)
        return (hc.induction_matrix(q3, (1, 2)),
                (enumerate_orbits(1, q3), enumerate_orbits(2, q3)), (t3,))

    def test_paths_and_results(self, operator, paths):
        (x, den), tables, out_tables = operator
        cols = x.shape[1]
        xmax = int(np.abs(x).max())
        bound = (2 ** 63 - 1) // (cols * xmax)
        # (largest coordinate, whether the int64 path is taken); the last
        # input would overflow int64 on the duality operator, whose heaviest
        # row sums to more than xmax, if the bound left out cols
        for amax, fast in [(bound, True), (bound - 1, True), (bound + 1, False),
                           (2 ** 61 + 3, False), (2 ** 61 - 5, False),
                           ((2 ** 63 - 1) // xmax, False)]:
            t = _aligned(x, amax, tables)
            paths.clear()
            got = apply_operator((x, den), t, 0, len(tables), out_tables)
            assert paths == [fast], amax
            want = invfun_oracle.apply_operator(
                (x, den), invfun_oracle.DictTensor(tables, t.values), 0, len(tables),
                out_tables)
            assert got.values == want.values, amax


# ---------------------------------------------------------------------------
# the tier boundaries: entries at +-(2^15 - 1), -2^15, +-(2^31 - 1), -2^31,
# 2^63 - 1 and -2^63, moved by one step across each boundary, against the
# Python-int oracle; each result in exactly the tier of its values

EDGES = [2 ** 15 - 1, -2 ** 15 + 1, -2 ** 15, 2 ** 31 - 1, -2 ** 31 + 1, -2 ** 31, TOP, -2 ** 63]


def _array(entries):
    """entries in the narrowest dtype that holds them as numpy stores them,
    -2^15 in int16 included, so the operands sit at each dtype's edge."""
    x = np.array(entries, dtype=object)
    for dt in (np.int16, np.int32, np.int64):
        if np.iinfo(dt).min <= min(x.flat) and max(x.flat) <= np.iinfo(dt).max:
            return x.astype(dt)
    return x


def _check(got, want):
    """got holds the oracle's entries want and is in the tier of its values."""
    assert np.asarray(got).tolist() == want
    assert got.dtype == linalg_oracle.tier(want)


@pytest.mark.parametrize("v", EDGES)
def test_reduced_at_the_tier_edges(v):
    for dt in (np.int16, np.int32, np.int64, object):
        if dt is object or np.iinfo(dt).min <= v <= np.iinfo(dt).max:
            x, den = linalg.reduced(np.array([[v, 1], [0, -1]], dtype=dt), 1)
            _check(x, [[v, 1], [0, -1]])
            assert den == 1
    x, den = linalg.reduced(np.array([[2 * v, 2]], dtype=object), 2)
    _check(x, [[v, 1]])
    assert den == 1


def test_reduced_copies_a_view_of_writable_memory():
    # the caller's base stays writable, so the pair must not share it
    base = np.array([1, 2, 3, 4], dtype=np.int16)
    x, _ = linalg.reduced(base[:2], 1)
    base[0] = 9
    assert x.tolist() == [1, 2]
    # a view of read-only memory is kept as it is
    frozen = base.copy()
    frozen.setflags(write=False)
    assert np.shares_memory(linalg.reduced(frozen[:2], 1)[0], frozen)


def test_reduced_int16_over_a_den_past_int64():
    # 2^63 - 1 = 7^2 73 127 337 92737 649657: the gcd 7 of the entries
    # 511 = 7 73, -889 = -7 127 and 2^15 - 1 = 7 31 151 divides it, and
    # every division runs over int64, where int16 // (2^63 - 1) would raise
    den = 2 ** 63 - 1
    for entries, want, want_den in [
            ([[511, -889], [0, 2 ** 15 - 1]], [[73, -127], [0, 4681]], den // 7),
            ([[0, 0], [0, 0]], [[0, 0], [0, 0]], 1),
            ([[-2 ** 15, 0], [1, 0]], [[-2 ** 15, 0], [1, 0]], den)]:
        x = np.array(entries, dtype=np.int16)
        got = linalg.reduced(x, den)
        assert _fractions(got) == [Fraction(v, den) for row in entries for v in row]
        _check(got[0], want)
        assert got[1] == want_den


@pytest.mark.parametrize("v", EDGES)
def test_add_at_the_tier_edges(v):
    # v plus 1 and minus 1 crosses each boundary one way or the other, v/2
    # plus v/2 is v, and v plus v doubles it
    for terms in ([(_array([[v, 1]]), 1), (_array([[1, -1]]), 1)],
                  [(_array([[v, 1]]), 1), (_array([[-1, 1]]), 1)],
                  [(_array([[v, 0]]), 2), (_array([[v, 2]]), 2)],
                  [(_array([[v, 3]]), 3), (_array([[v, -3]]), 1)]):
        got = linalg.add(*terms)
        want = linalg_oracle.add(*((x.tolist(), d) for x, d in terms))
        assert _fractions(got) == [f for row in want for f in row]
        assert got[0].dtype == linalg_oracle.tier(got[0])


@pytest.mark.parametrize("c", [-1, 2, -3])
@pytest.mark.parametrize("v", EDGES)
def test_scaled_at_the_tier_edges(v, c):
    _check(linalg.scaled(_array([[v, 1], [-1, 0]]), c), [[v * c, c], [-c, 0]])


@pytest.mark.parametrize("p", [3, 5])
@pytest.mark.parametrize("v", EDGES)
def test_conj_t_at_the_tier_edges(v, p):
    # plane 0 holds v and plane 1 holds +-1: the fold adds -+1 to v
    x = np.zeros((p - 1, 2, 2), dtype=object)
    x[0] = [[v, 1], [v, 0]]
    x[1] = [[1, 0], [-1, 1]]
    x = _array(x)
    got, den = linalg.conj_t((x, 1))
    entries = linalg_oracle.entries(x)
    want = [[linalg_oracle.zconj(entries[i][j]) for i in range(2)] for j in range(2)]
    assert den == 1 and linalg_oracle.entries(got) == want
    assert got.dtype == linalg_oracle.tier(got)


@pytest.mark.parametrize("v", EDGES)
def test_products_at_the_tier_edges(v):
    x = _array([[v, 1], [v, -1]])
    for y in ([[1], [1]], [[1], [-1]], [[2], [0]]):
        got, den = linalg.matmul((x, 1), (_array(y), 1))
        _check(got, linalg_oracle.matmul(x.tolist(), y))
        assert den == 1
    y = [[1, -1, 2]]
    got, den = linalg.kron((x, 1), (_array(y), 1))
    _check(got, linalg_oracle.kron(x.tolist(), y))


@pytest.mark.parametrize("p", [3, 5])
@pytest.mark.parametrize("v", EDGES)
def test_cyclotomic_products_at_the_tier_edges(v, p):
    # (v + zeta) times (1 - zeta^s) and the like, entry by entry and as
    # matrices; plane 0 of the product is v plus or minus a step
    x = np.zeros((p - 1, 1, 2), dtype=object)
    x[0], x[1] = [[v, 1]], [[1, v]]
    x = _array(x)
    for plane, sign in ((1, 1), (p - 2, -1)):
        y = np.zeros((p - 1, 2, 1), dtype=object)
        y[0], y[plane] = [[1], [0]], [[sign], [1]]
        y = _array(y)
        xs, ys = linalg_oracle.entries(x), linalg_oracle.entries(y)
        got = linalg.convolve(x, y, np.multiply.outer)  # every entry of x times every one of y
        assert got.reshape(p - 1, -1).T.tolist() == [
            linalg_oracle.zmul(a, b) for a in sum(xs, []) for b in sum(ys, [])]
        assert got.dtype == linalg_oracle.tier(got)
        got, den = linalg.matmul((x, 1), (y, 1))
        assert den == 1 and linalg_oracle.entries(got) == linalg_oracle.matmul(
            xs, ys, linalg_oracle.zmul, linalg_oracle.zadd)
        assert got.dtype == linalg_oracle.tier(got)


def _values(h):
    """A function's values as coefficient lists of Fractions, one per orbit."""
    planes = h.num.reshape(len(h.num), -1).tolist()
    return [[Fraction(a, h.den) for a in u] for u in zip(*planes)]


@pytest.mark.parametrize("v", EDGES)
def test_function_arithmetic_at_the_tier_edges(q3, v):
    # negation, sum, difference and scale of functions with a value v + zeta
    # against the coefficient lists of the oracle
    table = enumerate_orbits(1, q3)
    f = InvariantFunction(table, [Cyclotomic(3, [v, 1]), Cyclotomic(3, [1, v]), 1])
    g = InvariantFunction(table, [1, -1, Cyclotomic(3, [0, 1])])
    fv, gv = _values(f), _values(g)
    zeta = Cyclotomic.zeta(3)
    results = [(-f, [[-a for a in u] for u in fv]),
               (f + g, [linalg_oracle.zadd(u, w) for u, w in zip(fv, gv)]),
               (f - g, [linalg_oracle.zadd(u, [-a for a in w]) for u, w in zip(fv, gv)]),
               (g - f, [linalg_oracle.zadd(w, [-a for a in u]) for u, w in zip(fv, gv)])]
    for c in (-1, 2, Fraction(1, 2), zeta, 1 - zeta):
        c = invfun._in_field(3, c)
        cv = [Fraction(a, c.den) for a in c.num]
        results.append((f.scale(c), [linalg_oracle.zmul(u, cv) for u in fv]))
    for h, want in results:
        assert _values(h) == want
        assert h.num.dtype == linalg_oracle.tier(h.num) and not h.num.flags.writeable
