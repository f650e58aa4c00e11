"""Brute-force references for the F_q kernels behind matrix products, orbit
enumeration, GL inversion, centralizer orders and parabolic orders.

These are the slow paths that glnq replaced: the F_q matrix product looks up
every entry product and sum in the field tables, the conjugation BFS
multiplies each frontier matrix by every generator and its inverse as full
matrix products, each inverse is one Gauss-Jordan elimination on a Python
list, |C(x)| is counted by enumerating the commutant algebra of x, and |P| is
counted by testing the block shape of every invertible matrix.  The tests use
them as witnesses that the integer matmul over F_p, the elementary-move BFS,
the stack-wide Gauss-Jordan, the closed form |C(x)| = prod_f a_lam(f)(q^deg f)
and the closed form |P| = |L| q^dim U give the same results.
"""
import numpy as np

from glnq.glmat import (Matrix, SingularMatrixError, _fq_row_reduce,
                        _shape_mask, all_matrices, batch_det, encode_matrices,
                        gl_mask)


def batch_matmul_tables(ctx, a, b):
    """Stacked matrix product; a: (..., n, m), b: (..., m, r), by looking up
    every entry product in ctx.MUL and summing along m through ctx.ADD."""
    m = a.shape[-1]
    if m == 0:
        shape = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
        return np.zeros(shape + (a.shape[-2], b.shape[-1]), dtype=np.int16)
    prod = ctx.MUL[a[..., :, :, None], b[..., None, :, :]]  # (..., i, k, j)
    acc = prod[..., 0, :]
    for k in range(1, m):
        acc = ctx.ADD[acc, prod[..., k, :]]
    return acc


def inverse(x: Matrix) -> Matrix:
    """x^-1 by Gauss-Jordan on the rows of [x | I]."""
    n = x.n
    if n == 0:
        return x
    rows = [list(map(int, row)) + [1 if i == j else 0 for j in range(n)]
            for i, row in enumerate(x.a)]
    pivots = _fq_row_reduce(x.ctx, rows)
    if pivots != list(range(n)):
        raise SingularMatrixError("matrix is singular")
    return Matrix(x.ctx, np.array([row[n:] for row in rows], dtype=np.int16))


def kernel(ctx, a):
    """Basis of the right kernel of an index-matrix, as a list of index vectors."""
    a = np.asarray(a)
    rows = [list(map(int, row)) for row in a]
    pivots = _fq_row_reduce(ctx, rows)
    basis = []
    for f in (c for c in range(a.shape[1]) if c not in pivots):
        vec = [0] * a.shape[1]
        vec[f] = 1
        for r, c in enumerate(pivots):
            vec[c] = int(ctx.NEG[rows[r][f]])
        basis.append(vec)
    return basis


def commutant_order(x: Matrix) -> int:
    """|{g in GL_n : g x = x g}|, by enumerating the commutant algebra
    {y : x y = y x} and counting its elements of nonzero determinant."""
    ctx, n = x.ctx, x.n
    if n == 0:
        return 1
    # (xy - yx)[i,j] as linear forms in y[k,l]
    rows = []
    for i in range(n):
        for j in range(n):
            row = [0] * (n * n)
            for k in range(n):
                row[k * n + j] = int(ctx.ADD[row[k * n + j], x.a[i, k]])
            for l in range(n):
                row[i * n + l] = int(ctx.ADD[row[i * n + l], ctx.NEG[x.a[l, j]]])
            rows.append(row)
    span = np.zeros((1, n, n), dtype=np.int16)
    for vec in kernel(ctx, np.array(rows, dtype=np.int16)):
        b = np.array(vec, dtype=np.int16).reshape(n, n)
        scaled = ctx.MUL[np.arange(ctx.q, dtype=np.int16)[:, None, None], b]
        span = ctx.ADD[span[:, None], scaled[None, :]].reshape(-1, n, n)
    return int(np.count_nonzero(batch_det(ctx, span)))


def conjugation_generators(ctx, n):
    """Generating set of GL_n(F_q): elementary transvections + a torus
    generator, each with its inverse, as index arrays."""
    gens = []
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            for lam in range(1, ctx.q):
                e = np.eye(n, dtype=np.int16)
                e[i, j] = lam
                gens.append(Matrix(ctx, e))
    if ctx.q > 2 and n > 0:
        d = np.eye(n, dtype=np.int16)
        d[0, 0] = ctx.generator_index()
        gens.append(Matrix(ctx, d))
    return tuple((g.a, inverse(g).a) for g in gens)


def decode_codes(ctx, n, codes):
    codes = np.asarray(codes, dtype=np.int64)
    flat = np.zeros((len(codes), n * n), dtype=np.int16)
    t = codes.copy()
    for i in range(n * n):
        flat[:, i] = t % ctx.q
        t = t // ctx.q
    return flat.reshape(len(codes), n, n)


def expand_orbit(ctx, n, seed_codes, claim, marker):
    """Mark every code conjugate to the seeds with `marker`, conjugating the
    frontier by each generator as two stacked matrix products."""
    gens = conjugation_generators(ctx, n)
    frontier = np.unique(np.asarray(seed_codes, dtype=np.int64))
    fresh = frontier[claim[frontier] == -1]
    claim[fresh] = marker
    frontier = fresh
    count = len(fresh)
    while len(frontier):
        mats = decode_codes(ctx, n, frontier)
        nxt = []
        for g, gi in gens:
            conj = batch_matmul_tables(ctx, batch_matmul_tables(ctx, g, mats), gi)
            codes = np.unique(encode_matrices(ctx, conj))
            fresh = codes[claim[codes] == -1]
            if len(fresh):
                claim[fresh] = marker
                count += len(fresh)
                nxt.append(fresh)
        frontier = np.unique(np.concatenate(nxt)) if nxt else np.empty(0, np.int64)
    return count


def lookup(table):
    """Orbit index of every code, by BFS from the table's representatives in
    order; also returns the BFS count of each orbit."""
    ctx, n = table.ctx, table.n
    claim = np.full(ctx.q ** (n * n), -1, dtype=np.int32)
    counts = [expand_orbit(ctx, n, encode_matrices(ctx, rep.a[None]), claim, i)
              for i, rep in enumerate(table.reps)]
    return claim, counts


def partition(ctx, n):
    """Conjugacy classes of all q^(n^2) matrices, numbered by smallest code."""
    claim = np.full(ctx.q ** (n * n), -1, dtype=np.int32)
    sizes = []
    for code in range(len(claim)):
        if claim[code] == -1:
            sizes.append(expand_orbit(ctx, n, [code], claim, len(sizes)))
    return claim, sizes


def parabolic_order(ctx, parts, lower=False):
    """|P^F| for the standard block-upper (or lower) parabolic, counted by
    testing the block shape of every invertible matrix."""
    parts = tuple(parts)
    n = sum(parts)
    if n == 0:
        return 1
    mats = all_matrices(ctx, n)
    shape = _shape_mask(parts, "parabolic-lower" if lower else "parabolic-upper")
    in_par = ~np.any(mats[:, shape], axis=1)
    return int(np.count_nonzero(gl_mask(ctx, n) & in_par))
