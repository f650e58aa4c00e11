"""Exact matrices over Q and Q(zeta_p), and Gauss-Jordan over Q.

Every exact operator is a pair (x, den): x is a numpy integer array and den
one positive integer, standing for the matrix x / den.  A 2-D x is a
rational matrix; a 3-D x of shape (p - 1, rows, cols) is a matrix over
Q(zeta_p) whose plane t holds the coefficient of zeta^t, in the basis
1, zeta, ..., zeta^(p-2) of Cyclotomic.num.  Every constructor here returns
the pair in lowest terms, the gcd of den and all entries 1, with x read-only,
C-ordered (reduced alone sets memory order, so no result is a transposed
view) and int64 when every entry e has |e| < 2^63 (so negation cannot wrap),
else an object array of Python ints: the dtype is a function of the values,
so two pairs are equal as matrices exactly when they are equal as pairs.
invfun keeps a function's values in the same layout, planes first.
Nothing here rounds or wraps: every operation that can grow an entry checks
a bound on its int64 operands and works over Python ints past it.
matmul, kron and convolve take int64 when terms * max|x| * max|y| < 2^63
(an entry sums `terms` products), add when the scaled maxima sum below
2^63, conj_t when 2 max|x| < 2^63, and scaled when |c| max|x| < 2^63.
rref, kernel and rank are fraction-free Gauss-Jordan on 2-D pairs.
"""
from __future__ import annotations

import math
from itertools import product

import numpy as np

_LIMIT = 2 ** 63  # an int64 entry e has |e| < _LIMIT, a grown entry too


def _int64(x):
    """(x as int64, max|x|), or (None, None) when an entry is past int64; an
    int64 x is returned as it is."""
    if x.dtype != np.int64:
        try:
            x = x.astype(np.int64)
        except OverflowError:
            return None, None
    return x, max(int(x.max(initial=0)), -int(x.min(initial=0)))


def _fitted(x):
    """An integer array as int64 when every entry e has |e| < 2^63 (not
    -2^63, whose negation wraps), else as an object array of Python ints."""
    x64, m = _int64(x)
    return x64 if x64 is not None and m < _LIMIT else x.astype(object, copy=False)


def reduced(x, den):
    """The pair (x, den) in lowest terms, x read-only (cached operators are
    shared) and C-ordered, int64 exactly when every entry fits (see above)."""
    x = _fitted(np.asarray(x, order="C"))
    g = math.gcd(den, *(x.flat if x.dtype == object else [int(np.gcd.reduce(x, None))]))
    if g != 1:
        # a g past int64 divides an int64 x only when x is zero (or empty),
        # and int64 floor division cannot take it
        x = _fitted(x // g) if x.dtype == object or g < _LIMIT else np.zeros_like(x)
        den //= g
    x.setflags(write=False)
    return x, den


def _operands(x, y, terms):
    """x and y as int64 when terms * max|x| * max|y| < 2^63, else as ints."""
    (x64, mx), (y64, my) = _int64(x), _int64(y)
    if x64 is not None and y64 is not None and terms * mx * my < _LIMIT:
        return x64, y64
    return x.astype(object, copy=False), y.astype(object, copy=False)


def identity(n):
    return reduced(np.identity(n, dtype=np.int64), 1)


def scaled(x, c: int):
    """The integer array c x: int64 when |c| max|x| < 2^63, else over ints."""
    x64, m = _int64(x)
    if x64 is None or abs(c) * m >= _LIMIT:
        return x.astype(object) * c
    return x64 * c if m else np.zeros_like(x64)  # c may be past int64


def add(*terms):
    """Sum of (x, den) matrices of one shape: int64 when the sum of
    max|x_i| * den / d_i over the terms is below 2^63, else over ints."""
    den = math.lcm(*(d for _, d in terms))
    scales = [den // d for _, d in terms]
    ints = [_int64(x) for x, _ in terms]
    if all(x64 is not None for x64, _ in ints) and sum(
            m * s for (_, m), s in zip(ints, scales)) < _LIMIT:
        total = np.zeros(np.shape(terms[0][0]), dtype=np.int64)
        for (x64, m), s in zip(ints, scales):
            if m:  # a zero term may have a scale past int64
                total += x64 * s
    else:
        total = sum(x.astype(object) * s for (x, _), s in zip(terms, scales))
    return reduced(total, den)


def _fold(planes):
    """p planes over 1, zeta, ..., zeta^(p-1) as p - 1 planes in the basis:
    zeta^(p-1) = -(1 + ... + zeta^(p-2)) is subtracted from every other plane
    (the caller bounds the differences)."""
    return np.stack(planes[:-1]) - planes[-1]


def convolve(x, y, op, terms=1):
    """op over Z[zeta_p] of integer arrays with p - 1 planes on axis 0: op(x[s],
    y[t]) adds into plane s + t mod p, then planes fold (2 (p - 1) ops an entry)."""
    p = len(x) + 1
    x, y = _operands(x, y, 2 * (p - 1) * terms)
    planes = [0] * p
    for s, t in product(range(p - 1), repeat=2):
        planes[(s + t) % p] += op(x[s], y[t])
    return _fold(planes)


def _product(op, a, b, terms):
    """op of two (x, den) pairs: directly if one is 2-D, else by convolve."""
    (x, dx), (y, dy) = a, b
    if x.ndim == 2 or y.ndim == 2:
        return reduced(op(*_operands(x, y, terms)), dx * dy)
    return reduced(convolve(x, y, op, terms), dx * dy)


def matmul(a, b):
    """Product of two (x, den) matrices; over Q(zeta_p) the planes convolve,
    and a 2-D factor acts on every plane of a 3-D one."""
    return _product(np.matmul, a, b, a[0].shape[-1])


def kron(a, b):
    """Kronecker product of two (x, den) matrices, both 2-D or both 3-D."""
    return _product(np.kron, a, b, 1)


def conj_t(a):
    """Conjugate transpose: plane t moves to plane -t mod p, then folds, in
    int64 when 2 max|x| < 2^63."""
    x, d = a
    if x.ndim == 3:
        x64, m = _int64(x)
        x = x64 if x64 is not None and 2 * m < _LIMIT else x.astype(object)
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
