"""Gauss-Jordan over Q on (x, den) pairs against the Fraction-list oracle of
tests/linalg_oracle.py: the same reduced forms, pivots, kernels and ranks on
random small rational matrices, zero rows, zero columns and empty shapes."""
import math
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import linalg_oracle
from glnq import linalg


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
