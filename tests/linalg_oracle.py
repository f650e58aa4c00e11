"""Fraction-list reference for the Gauss-Jordan of glnq.linalg and the two
computations on it in glnq.hopf: the primitive (pre-cuspidal) basis and the
spanning rank of induced products of primitives, one induction per choice of
primitives and one rank after each partition; and nested-list products over
Python ints for the products of glnq.linalg.

This is the slow path that the fraction-free elimination on (x, den) pairs
and the one stacked rank replaced; the tests use it as the witness that both
give the same forms, pivots, bases and ranks.  The spanning rank reads
glnq.hopf.primitive_subspace at call time, so a test that patches it reaches
both routes.  The products multiply one pair of entries at a time over
Python ints, a Z[zeta_p] entry as the list of its p - 1 coefficients: the
reference for the products of linalg on both sides of its int64 bound.
tier reads the dtype linalg must keep an array's entries in off their
values as Python ints.
"""
from fractions import Fraction
from itertools import product

import numpy as np

from glnq import hopf
from glnq.hc import hc_induce, restriction_matrix
from glnq.invfun import InvariantFunction, TensorFunction
from glnq.orbits import enumerate_orbits, partitions


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
    """Basis of the right kernel, in reduced-echelon order.  A matrix with no
    rows gives [], as its width is unknown."""
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


def primitive_members(ctx, n):
    """The primitive basis of degree n: the reduced echelon form of the kernel
    of every proper two-part restriction, one InvariantFunction per row."""
    table = enumerate_orbits(n, ctx)
    if n == 1:
        basis = np.identity(len(table), dtype=int).tolist()
    else:
        basis = kernel(np.vstack([restriction_matrix(ctx, (k, n - k))[0]
                                  for k in range(1, n)]))
    reduced, _ = rref(basis)
    return [InvariantFunction(table, vec) for vec in reduced if any(vec)]


def precuspidal_spanning_rank(ctx, n):
    """(rank of the span of induced products of primitive elements, dim C_n)."""
    dim = len(enumerate_orbits(n, ctx))
    vectors, r = [], 0
    for lam in sorted(partitions(n), reverse=True):
        bases = [hopf.primitive_subspace(ctx, m).members for m in lam]
        vectors.extend([v.as_rational() for v in hc_induce(TensorFunction.outer(choice), lam).values]
                       for choice in product(*bases))
        r = rank(vectors) if vectors else 0
        if r == dim:
            break
    return (r, dim)


# ---------------------------------------------------------------------------
# products over Python ints; an entry of Z[zeta_p] is its coefficient list
# in the basis 1, zeta, ..., zeta^(p-2) of Cyclotomic.num


def zmul(u, v):
    """The product in Z[zeta_p] of two coefficient lists of length p - 1."""
    p = len(u) + 1
    c = [0] * p
    for s, a in enumerate(u):
        for t, b in enumerate(v):
            c[(s + t) % p] += a * b
    return [c[r] - c[p - 1] for r in range(p - 1)]


def zadd(u, v):
    return [a + b for a, b in zip(u, v)]


def zconj(u):
    """The complex conjugate in Z[zeta_p] of a coefficient list: the
    coefficient of zeta^t moves to zeta^-t, then zeta^(p-1) folds."""
    p = len(u) + 1
    c = [0] * p
    for t, a in enumerate(u):
        c[-t % p] += a
    return [c[r] - c[p - 1] for r in range(p - 1)]


def entries(x):
    """A 3-D array of p - 1 planes as a nested list of coefficient lists."""
    return [[[int(v) for v in x[:, i, j]] for j in range(x.shape[2])]
            for i in range(x.shape[1])]


def matmul(x, y, mul=lambda a, b: a * b, add=lambda a, b: a + b):
    """x @ y for nested lists of entries, entry by entry."""
    out = []
    for row in x:
        out.append([])
        for col in zip(*y):
            acc = mul(row[0], col[0])
            for a, b in zip(row[1:], col[1:]):
                acc = add(acc, mul(a, b))
            out[-1].append(acc)
    return out


def kron(x, y, mul=lambda a, b: a * b):
    """The Kronecker product of nested lists of entries."""
    return [[mul(a, b) for a in xr for b in yr] for xr in x for yr in y]


def add(*terms):
    """The sum of (nested list of ints, den) terms of one shape, entry by
    entry, as a nested list of Fractions."""
    def total(entries):
        if isinstance(entries[0][0], list):
            return [total([(row[i], d) for row, d in entries]) for i in range(len(entries[0][0]))]
        return sum(Fraction(v, d) for v, d in entries)
    return total([(x, d) for x, d in terms])


def tier(x):
    """The dtype of the narrowest tier that holds the entries of x, read
    over Python ints: the first of int16, int32 and int64 whose max is at
    least every |e|, else object."""
    m = max((abs(int(v)) for v in np.asarray(x).flat), default=0)
    for dt in (np.int16, np.int32, np.int64):
        if m <= np.iinfo(dt).max:
            return np.dtype(dt)
    return np.dtype(object)
