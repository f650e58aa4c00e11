"""Exact matrices over Q and Q(zeta_p), and Gauss-Jordan over Q.

Every exact operator is a pair (x, den): x is a numpy integer array and den
one positive integer, standing for the matrix x / den.  A 2-D x is a
rational matrix; a 3-D x of shape (p - 1, rows, cols) is a matrix over
Q(zeta_p) whose plane t holds the coefficient of zeta^t, in the basis
1, zeta, ..., zeta^(p-2) of Cyclotomic.num.  Every constructor here returns
the pair in lowest terms, the gcd of den and all entries 1, with x read-only,
C-ordered (reduced alone sets memory order, so no result is a transposed
view) and in the narrowest tier that holds it: int16, int32 or int64, the
first whose max m has |e| <= m for every entry e (so -2^15 takes int32 and
negation never wraps), else an object array of Python ints.  The dtype is a
function of the values, so two pairs are equal as matrices exactly when they
are equal as pairs.  reduced takes integer arrays of any integer dtype by
value (unsigned and bool too) and refuses float and complex ones.
invfun keeps a function's values in the same layout, planes first.
Nothing here rounds or wraps: every operation that can grow an entry checks
a bound on its operands and works over int64 below it, over Python ints past
it.  The bound first reads each max|x| off the dtype (2^15 for int16, 2^31
for int32), with no scan, and scans the exact max|x| only when that fails.
matmul, kron and convolve take int64 when terms * max|x| * max|y| < 2^63
(an entry sums `terms` products), add when the scaled maxima sum below
2^63, conj_t when 2 max|x| < 2^63, and scaled when |c| max|x| < 2^63;
a narrow operand is cast to int64 inside the operation only, never kept.
scaled and convolve return their arrays in the narrowest tier too.
rref, kernel and rank are fraction-free Gauss-Jordan on 2-D pairs.
"""
from __future__ import annotations

import math
from itertools import product

import numpy as np

_TIERS = tuple(map(np.dtype, (np.int16, np.int32, np.int64)))
_MAX = {dt: int(np.iinfo(dt).max) for dt in _TIERS}  # an entry e fits when |e| <= _MAX
_LIMIT = 2 ** 63  # every entry of an int64 operation has |e| < _LIMIT


def _max_abs(x) -> int:
    """The exact max|e| over the entries of an integer array (0 if empty).
    A signed x is scanned by int64 loops, cast in numpy's buffered chunks:
    its int16 and int32 reduction loops would cost a cold verify --q 2
    about 0.13 MB of peak RSS of their own."""
    if not x.size:
        return 0
    if x.dtype == object:
        try:
            x = x.astype(np.int64)
        except OverflowError:
            return int(np.abs(x).max())
    if x.dtype in _MAX:
        return max(int(np.maximum.reduce(x, None, np.int64)),
                   -int(np.minimum.reduce(x, None, np.int64)))
    return max(int(x.max()), -int(x.min()))  # unsigned or bool


def _tier(m: int):
    """The narrowest of int16, int32 and int64 whose max is at least m, else
    object."""
    for dt in _TIERS:
        if m <= _MAX[dt]:
            return dt
    return np.dtype(object)


def _narrowed(x):
    """An integer array in the narrowest tier of its entries."""
    return x.astype(_tier(_max_abs(x)), copy=False)


def reduced(x, den):
    """The pair (x, den) in lowest terms, x read-only (cached operators are
    shared) and a copy when it would view memory that its owner can still
    write, C-ordered and in the narrowest tier (see above).  The gcd and
    the division run over int64, or Python ints past it; a float or complex
    x raises TypeError."""
    x = np.asarray(x)
    if x.dtype.kind not in "biuO":
        raise TypeError(f"an exact array holds integers, not {x.dtype}")
    m = _max_abs(x)
    if m >= _LIMIT or x.dtype not in _MAX:  # unsigned, bool and object by value
        x = x.astype(np.int64 if m < _LIMIT else object, copy=False)
    # a narrow x is read by int64 loops, and copied only if it changes
    g = math.gcd(den, *(x.flat if x.dtype == object
                        else [int(np.gcd.reduce(x, None, np.int64))]))
    if g != 1:
        # g exceeds max|x| only when x is zero (or empty), and int64 floor
        # division cannot take a g past int64
        x = x.astype(np.int64 if m < _LIMIT else object, copy=False)
        x = x // g if g <= m else np.zeros_like(x)
        den //= g
        m //= g
    x = x.astype(_tier(m), order="C", copy=False)
    if x.base is not None and getattr(x.base, "flags", x.flags).writeable:
        x = x.copy()
    x.setflags(write=False)
    return x, den


def _widened(xs, bound, arg):
    """The integer arrays xs as int64 when bound(ms, arg) < 2^63 for maxima
    ms[i] >= max|xs[i]| below 2^63, else as Python ints.  The maxima are
    first the largest |e| of each dtype (-min, which an array from outside
    linalg may hold), with no scan, then, when they fail, the exact ones.
    bound is a module-level function: a closure made per call would cost a
    cold verify --q 2 about 30 kB of peak RSS."""
    if not (all(x.dtype in _MAX for x in xs)
            and bound([_MAX[x.dtype] + 1 for x in xs], arg) < _LIMIT):
        ms = [_max_abs(x) for x in xs]
        if max(ms) >= _LIMIT or bound(ms, arg) >= _LIMIT:
            return [x.astype(object, copy=False) for x in xs]
    return [x.astype(np.int64, copy=False) for x in xs]


def _times(ms, c):
    """c times the product of the maxima: the bound of a product whose entry
    sums c terms, of c x, and of conj_t's fold (c = 2)."""
    return c * math.prod(ms)


def _weighted(ms, scales):
    """The bound of a sum: the maxima, each scaled to the common den."""
    return sum(m * s for m, s in zip(ms, scales))


def _operands(x, y, terms):
    """x and y as int64 when terms * max|x| * max|y| < 2^63, else as ints."""
    return _widened((x, y), _times, terms)


def identity(n):
    return reduced(np.identity(n, dtype=np.int64), 1)


def scaled(x, c: int):
    """The integer array c x in the narrowest tier: over int64 when
    |c| max|x| < 2^63, else over ints."""
    x, = _widened((x,), _times, abs(c))
    if x.dtype != object and abs(c) >= _LIMIT:
        return np.zeros_like(x, dtype=np.int16)  # c past int64 meets only a zero x
    return _narrowed(x * c)


def add(*terms):
    """Sum of (x, den) matrices of one shape: over int64 when the sum of
    max|x_i| * den / d_i over the terms is below 2^63, else over ints."""
    den = math.lcm(*(d for _, d in terms))
    scales = [den // d for _, d in terms]
    xs = _widened([x for x, _ in terms], _weighted, scales)
    if xs[0].dtype == object:
        total = sum(x * s for x, s in zip(xs, scales))
    else:
        total = np.zeros(xs[0].shape, dtype=np.int64)
        for x, s in zip(xs, scales):
            if s < _LIMIT:  # a scale past int64 meets only a zero term
                total += x * s
    return reduced(total, den)


def _fold(planes):
    """p planes over 1, zeta, ..., zeta^(p-1) as p - 1 planes in the basis:
    zeta^(p-1) = -(1 + ... + zeta^(p-2)) is subtracted from every other plane
    (the caller bounds the differences)."""
    return np.stack(planes[:-1]) - planes[-1]


def convolve(x, y, op, terms=1):
    """op over Z[zeta_p] of integer arrays with p - 1 planes on axis 0: op(x[s],
    y[t]) adds into plane s + t mod p, then planes fold (2 (p - 1) ops an
    entry); the result in the narrowest tier."""
    p = len(x) + 1
    x, y = _operands(x, y, 2 * (p - 1) * terms)
    planes = [0] * p
    for s, t in product(range(p - 1), repeat=2):
        planes[(s + t) % p] += op(x[s], y[t])
    return _narrowed(_fold(planes))


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
    """Conjugate transpose: plane t moves to plane -t mod p, then folds, over
    int64 when 2 max|x| < 2^63."""
    x, d = a
    if x.ndim == 3:
        x, = _widened((x,), _times, 2)
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
