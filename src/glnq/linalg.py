"""Exact matrices over Q and Q(zeta_p), and Gauss-Jordan over Q.

Every exact operator is a pair (x, den): x is a numpy object array of Python
ints and den one positive integer, standing for the matrix x / den.  A 2-D x
is a rational matrix; a 3-D x of shape (p, rows, cols) is a matrix over
Q(zeta_p) whose plane t holds the coefficient of zeta^t.  Every constructor
here returns the pair in lowest terms: plane p-1 of a 3-D x is zero (adding
one matrix to every plane changes nothing, as 1 + zeta + ... + zeta^(p-1) = 0)
and the gcd of den and all entries is 1.  So two pairs are equal as matrices
exactly when they are equal as pairs.  Nothing here rounds or wraps.

rref, kernel and rank are Gauss-Jordan over Fractions on lists of rows; they
accept rows of ints or Fractions.
"""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .field import NotRationalError


def reduced(x, den):
    """The pair (x, den) in lowest terms, x a read-only object array of
    ints: cached operators are shared by every caller."""
    x = np.asarray(x, dtype=object)
    if x.ndim == 3:
        x = x - x[-1]
    g = math.gcd(den, *x.flat)
    if g > 1:
        x, den = x // g, den // g
    x.setflags(write=False)
    return x, den


def identity(n):
    return reduced(np.identity(n, dtype=int), 1)


def add(*terms):
    """Sum of (x, den) matrices of one shape."""
    den = math.lcm(*(d for _, d in terms))
    return reduced(sum(x * (den // d) for x, d in terms), den)


def _convolve(x, y, op):
    """op over Q(zeta_p) of two 3-D integer matrices: plane t of the result
    is the sum over s of op(x[s], y[t - s mod p])."""
    p = len(x)
    return np.array([sum(op(x[s], y[(t - s) % p]) for s in range(p))
                     for t in range(p)], dtype=object)


def matmul(a, b):
    """Product of two (x, den) matrices; over Q(zeta_p) the planes convolve
    mod p, and a 2-D factor acts on every plane of a 3-D one."""
    (x, dx), (y, dy) = a, b
    if x.ndim == 2 or y.ndim == 2:
        return reduced(x @ y, dx * dy)
    return reduced(_convolve(x, y, np.matmul), dx * dy)


def kron(a, b):
    """Kronecker product of two (x, den) matrices, both 2-D or both 3-D."""
    (x, dx), (y, dy) = a, b
    if x.ndim == 2:
        return reduced(np.kron(x, y), dx * dy)
    return reduced(_convolve(x, y, np.kron), dx * dy)


def conj_t(a):
    """Conjugate transpose: plane t moves to plane -t mod p."""
    x, d = a
    if x.ndim == 3:
        x = x[[(-t) % len(x) for t in range(len(x))]]
    return reduced(np.swapaxes(x, -1, -2), d)


def mat_eq(a, b) -> bool:
    """Equality of two pairs in lowest terms."""
    return a[1] == b[1] and np.array_equal(a[0], b[0])


def rational_part(a):
    """The entries of a (x, den) matrix as Fractions, list-of-lists.
    An entry is rational iff its planes 1..p-1 agree, and then equals
    (plane0 - plane1) / den; otherwise NotRationalError names the first
    offending entry in row-major order."""
    x, d = a
    if x.ndim == 3:
        bad = np.argwhere((x[1:] != x[1]).any(axis=0))
        if len(bad):
            i, j = (int(v) for v in bad[0])
            raise NotRationalError(f"entry ({i},{j}) is not rational")
        x = x[0] - x[1]
    return [[Fraction(int(v), d) for v in row] for row in x]


# ---------------------------------------------------------------------------
# Gauss-Jordan over Q


def rref(a):
    """Reduced row echelon form; returns (rows, pivot columns)."""
    rows = [list(map(Fraction, r)) for r in a]
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def rank(a) -> int:
    return len(rref(a)[1])


def kernel(a):
    """Basis of the right kernel, in reduced-echelon order."""
    rows, pivots = rref(a)
    if not rows:
        return []
    ncols = len(rows[0])
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for r, c in enumerate(pivots):
            vec[c] = -rows[r][f]
        basis.append(vec)
    return basis
