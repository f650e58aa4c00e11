"""Gauss-Jordan over Q on (x, den) pairs against the Fraction-list oracle of
tests/linalg_oracle.py: the same reduced forms, pivots, kernels and ranks on
random small rational matrices, zero rows, zero columns and empty shapes.
The products of linalg (matmul, kron and convolve, and apply_operator on
them) against the Python-int products of the oracle, with operands at the
int64 bound, where they take int64, and one past it, where they do not."""
import gc
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import invfun_oracle
import linalg_oracle
from glnq import hc, linalg
from glnq.duality import duality_operator
from glnq.invfun import TensorFunction, apply_operator
from glnq.orbits import enumerate_orbits


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


def test_int64_copy_dropped_with_its_array():
    x, _ = linalg.reduced(np.arange(6).reshape(2, 3), 1)
    w = np.arange(6).reshape(3, 2).astype(object)  # writeable: never kept
    linalg.matmul((x, 1), (w, 1))
    key = id(x)
    assert np.array_equal(linalg._INT64[key][0], x)
    assert id(w) not in linalg._INT64
    del x
    gc.collect()
    assert key not in linalg._INT64


def _aligned(x, amax, tables):
    """A tensor over tables with every coordinate +-amax, signed like the row
    of x with the largest absolute sum, so that row's sum is as large as the
    entries allow."""
    row = x[np.argmax(np.abs(x).sum(axis=1))]
    num = np.array([[amax, -amax] if v >= 0 else [-amax, amax] for v in row], dtype=object)
    return TensorFunction._from_array(tables, num.reshape(tuple(map(len, tables)) + (2,)), 1)


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
