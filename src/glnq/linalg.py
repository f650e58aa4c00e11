"""Exact matrices over Q and Q(zeta_p), and Gauss-Jordan over Q.

Every exact operator is a pair (x, den): x is a numpy object array of Python
ints and den one positive integer, standing for the matrix x / den.  A 2-D x
is a rational matrix; a 3-D x of shape (p - 1, rows, cols) is a matrix over
Q(zeta_p) whose plane t holds the coefficient of zeta^t, in the basis
1, zeta, ..., zeta^(p-2) of Cyclotomic.num.  Every constructor here returns
the pair in lowest terms, the gcd of den and all entries 1, so two pairs
are equal as matrices exactly when they are equal as pairs.  Nothing here
rounds or wraps.  rref, kernel and rank are Gauss-Jordan over Q on 2-D
pairs, fraction-free on the integer rows.
"""
from __future__ import annotations

import math
from itertools import product

import numpy as np


def reduced(x, den):
    """The pair (x, den) in lowest terms, x a read-only object array of
    ints: cached operators are shared by every caller."""
    x = np.asarray(x, dtype=object)
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


def _fold(planes):
    """p planes over 1, zeta, ..., zeta^(p-1) as p - 1 planes in the basis:
    zeta^(p-1) = -(1 + ... + zeta^(p-2)) is subtracted from every other plane."""
    return np.array(planes[:-1], dtype=object) - planes[-1]


def convolve(x, y, op):
    """op over Z[zeta_p] of two integer arrays with their p - 1 planes on axis
    0: op(x[s], y[t]) adds into plane s + t mod p, then the planes fold."""
    p = len(x) + 1
    planes = [0] * p
    for s, t in product(range(p - 1), repeat=2):
        planes[(s + t) % p] += op(x[s], y[t])
    return _fold(planes)


def matmul(a, b):
    """Product of two (x, den) matrices; over Q(zeta_p) the planes convolve,
    and a 2-D factor acts on every plane of a 3-D one."""
    (x, dx), (y, dy) = a, b
    if x.ndim == 2 or y.ndim == 2:
        return reduced(x @ y, dx * dy)
    return reduced(convolve(x, y, np.matmul), dx * dy)


def kron(a, b):
    """Kronecker product of two (x, den) matrices, both 2-D or both 3-D."""
    (x, dx), (y, dy) = a, b
    if x.ndim == 2:
        return reduced(np.kron(x, y), dx * dy)
    return reduced(convolve(x, y, np.kron), dx * dy)


def conj_t(a):
    """Conjugate transpose: plane t moves to plane -t mod p, then folds."""
    x, d = a
    if x.ndim == 3:
        x = _fold([x[0], np.zeros_like(x[0]), *x[:0:-1]])
    return reduced(np.swapaxes(x, -1, -2), d)


def mat_eq(a, b) -> bool:
    """Equality of two pairs in lowest terms."""
    return a[1] == b[1] and np.array_equal(a[0], b[0])


# ---------------------------------------------------------------------------
# Gauss-Jordan over Q, fraction-free on the integer rows


def rref(a):
    """Reduced row echelon form of a rational (x, den) matrix, as (the form
    as a pair in lowest terms, pivot columns).  Each pivot clears its column
    from the other rows by integer cross-multiplication, and each changed
    row is divided by the gcd of its entries; the pivot rows are divided by
    their pivots once, at the end.  The scale den plays no part."""
    x = np.array(a[0], dtype=object)
    nrows, ncols = x.shape
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        nonzero = np.flatnonzero(x[r:, c])
        if not len(nonzero):
            continue
        x[[r, r + nonzero[0]]] = x[[r + nonzero[0], r]]
        rows = np.flatnonzero(x[:, c])
        rows = rows[rows != r]
        x[rows] = x[r, c] * x[rows] - np.outer(x[rows, c], x[r])
        changed = np.append(rows, r)
        g = np.gcd.reduce(x[changed], axis=1)
        x[changed] //= np.where(g == 0, 1, g)[:, None]  # a row may vanish
        pivots.append(c)
    den = math.lcm(*(abs(x[r, c]) for r, c in enumerate(pivots)))
    for r, c in enumerate(pivots):
        x[r] *= den // x[r, c]
    return reduced(x, den), pivots


def rank(a) -> int:
    return len(rref(a)[1])


def kernel(a):
    """Basis of the right kernel of a rational (x, den) matrix, one row per
    free column in increasing order (1 there, 0 at the other free columns),
    as a pair in lowest terms."""
    (x, den), pivots = rref(a)
    free = [c for c in range(x.shape[1]) if c not in pivots]
    out = np.zeros((len(free), x.shape[1]), dtype=object)
    out[range(len(free)), free] = den
    out[:, pivots] = -x[:len(pivots), free].T
    return reduced(out, den)
