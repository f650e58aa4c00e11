"""Small exact linear algebra over Q (fractions.Fraction, list-of-lists),
and exact matrices over Q(zeta_p) as integer planes.

A matrix over Q(zeta_p) is a pair (planes, den): planes is a numpy object
array of Python ints of shape (p, rows, cols) whose plane t holds the
coefficient of zeta^t, and den is one positive integer denominator.  A 2-D
planes array stands for a rational matrix.  Nothing here rounds or wraps.
"""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .field import NotRationalError


def identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def zeros(r, c):
    return [[Fraction(0)] * c for _ in range(r)]


def matmul(a, b):
    if not a:
        return []
    rb = len(b)
    cb = len(b[0]) if b else 0
    out = []
    for row in a:
        acc = [Fraction(0)] * cb
        for k in range(rb):
            x = row[k]
            if x:
                brow = b[k]
                for j in range(cb):
                    if brow[j]:
                        acc[j] += x * brow[j]
        out.append(acc)
    return out


def matadd(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def scale(a, c):
    return [[x * c for x in row] for row in a]


def transpose(a):
    return [list(col) for col in zip(*a)] if a else []


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
    if not a:
        return []
    ncols = len(a[0])
    rows, pivots = rref(a)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for r, c in enumerate(pivots):
            vec[c] = -rows[r][f]
        basis.append(vec)
    return basis


def mat_eq(a, b) -> bool:
    return len(a) == len(b) and all(ra == rb for ra, rb in zip(a, b))


# ---------------------------------------------------------------------------
# matrices over Q(zeta_p): (planes, den)


def int_matrix(rows):
    """A list-of-lists of Fractions as (object array of ints, common
    denominator)."""
    den = math.lcm(1, *(x.denominator for row in rows for x in row))
    arr = np.empty((len(rows), len(rows[0]) if rows else 0), dtype=object)
    for i, row in enumerate(rows):
        arr[i] = [x.numerator * (den // x.denominator) for x in row]
    return arr, den


def cyc_matmul(a, b):
    """Product of two (planes, den) matrices; planes convolve mod p."""
    (x, dx), (y, dy) = a, b
    if x.ndim == 2 or y.ndim == 2:
        return x @ y, dx * dy
    p = len(x)
    out = np.zeros((p, x.shape[1], y.shape[2]), dtype=object)
    for s in range(p):
        for t in range(p):
            out[(s + t) % p] += x[s] @ y[t]
    return out, dx * dy


def cyc_conj_t(a):
    """Conjugate transpose: plane t moves to plane -t mod p."""
    x, d = a
    if x.ndim == 2:
        return x.T, d
    p = len(x)
    return x[[(-t) % p for t in range(p)]].transpose(0, 2, 1), d


def cyc_kron(a, b):
    """Kronecker product of two (planes, den) matrices with 3-D planes."""
    (x, dx), (y, dy) = a, b
    p = len(x)
    out = np.zeros((p, x.shape[1] * y.shape[1], x.shape[2] * y.shape[2]),
                   dtype=object)
    for s in range(p):
        for t in range(p):
            out[(s + t) % p] += np.kron(x[s], y[t])
    return out, dx * dy


def rational_part(a):
    """The entries of a (planes, den) matrix as Fractions, list-of-lists.
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
