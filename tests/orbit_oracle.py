"""Brute-force references for the F_q kernels behind matrix products, row
reduction, determinants, orbit labels, orbit enumeration, GL inversion, the
conjugation move table, centralizer orders and parabolic orders, and the
adjugate inverses of all of GL_n.

These are the slow paths that glnq replaced: the F_q matrix product looks up
every entry product and sum in the field tables, each row reduction (and so
each inverse and rank) is one Gauss-Jordan elimination on a Python list, a
determinant is a cofactor expansion along row 0 (n! products), an orbit
label divides the Laplace-expanded characteristic polynomial by each
irreducible g and reads the kernel filtration of g(x) one power at a time,
the conjugation BFS multiplies each frontier matrix by every generator and
its inverse as full matrix products, the move table conjugates the digit
grids of all matrices by each of its generators as table products, |C(x)|
is counted by enumerating the commutant algebra of x, |P| is counted by
testing the block shape of every invertible matrix, and every matrix of GL_n
is inverted by its adjugate.  The tests use them as witnesses that the
integer matmul over F_p, the stack-wide row reduction, the Laplace
determinant table, the labels read from one stack of kernel ranks, the
move-table sweep and partition, the row-code move table, the closed form
|C(x)| = prod_f a_lam(f)(q^deg f), the closed form |P| = |L| q^dim U and
batch_inverse give the same results.  conjugate, the adjoint action on one
matrix through the stack kernels, serves the conjugation-invariance tests.
"""
from functools import lru_cache

import numpy as np

from glnq.cli import default_max_n
from glnq.field import irreducibles, poly_divmod, poly_mul, poly_trim
from glnq.glmat import (GLTableError, Matrix, SingularMatrixError, _shape_mask,
                        ShapeError, all_matrices, batch_inverse, batch_matmul,
                        encode_matrices, gl_arrays, gl_mask)
from glnq.orbits import OrbitCountError, OrbitLabel

# every supported field (the prime powers q <= 19) at every degree of its
# default verify run
DEFAULT_SIZES = [(q, n) for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19)
                 for n in range(default_max_n(q) + 1)]


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


def batch_det(ctx, a):
    """Determinants of a stack of square matrices, by cofactor expansion."""
    n = a.shape[-1]
    if a.ndim < 2 or a.shape[-2] != n:
        raise ShapeError(f"not a stack of square matrices: {a.shape}")
    if n == 0:
        return np.ones(a.shape[:-2], dtype=np.int16)
    if n == 1:
        return a[..., 0, 0]
    acc = None
    for j in range(n):
        minor = np.delete(a[..., 1:, :], j, axis=-1)
        term = ctx.MUL[a[..., 0, j], batch_det(ctx, minor)]
        if j % 2:
            term = ctx.NEG[term]
        acc = term if acc is None else ctx.ADD[acc, term]
    return acc


def _fq_row_reduce(ctx, rows):
    """In-place Gauss-Jordan on a list-of-lists of indices; returns pivot cols."""
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    MUL, SUB, INV = ctx.MUL, ctx.SUB, ctx.INV
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = int(INV[rows[r][c]])
        rows[r] = [int(MUL[inv, x]) for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [int(SUB[x, MUL[f, y]]) for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def row_reduce(ctx, a):
    """(forms, ranks) of a stack (m, r, c), one list elimination per matrix."""
    a = np.asarray(a)
    forms = np.empty(a.shape, dtype=np.int16)
    ranks = np.zeros(len(a), dtype=np.intp)
    for i, mat in enumerate(a):
        rows = mat.tolist()
        ranks[i] = len(_fq_row_reduce(ctx, rows))
        forms[i] = np.array(rows, dtype=np.int16).reshape(mat.shape)
    return forms, ranks


def rank(ctx, a) -> int:
    return len(_fq_row_reduce(ctx, np.asarray(a).tolist()))


def enumerate_gl(n, ctx):
    """Invertible matrices, in row-major-lexicographic code order."""
    G, _ = gl_arrays(ctx, n)
    for g in G:
        yield Matrix(ctx, g)


@lru_cache(maxsize=None)
def adjugate_gl_arrays(ctx, n):
    """(G, Ginv), read-only: GL_n from glnq.glmat.gl_arrays and the inverse
    of every one of its matrices, the adjugate (g^-1)_ji = (-1)^(i+j)
    det(minor_ij) det(g)^-1, each determinant a cofactor expansion
    (batch_det).  Every g g^-1 must be I, else GLTableError.  This is the
    route over all of GL_n that glnq.hc._coset_table's inverses of coset
    representatives replaced.  Cached: a test that patches glnq.glmat's
    tables takes it first."""
    G, codes = gl_arrays(ctx, n)
    scale = ctx.INV[batch_det(ctx, G)]
    Ginv = np.empty_like(G)
    for i in range(n):
        for j in range(n):
            minor = batch_det(ctx, np.delete(np.delete(G, i, axis=-2), j, axis=-1))
            Ginv[:, j, i] = ctx.MUL[minor if (i + j) % 2 == 0 else ctx.NEG[minor], scale]
    wrong = (batch_matmul(ctx, G, Ginv) != np.eye(n, dtype=np.int16)).any(axis=(1, 2))
    if wrong.any():
        raise GLTableError(f"the adjugate of the matrix of code {codes[wrong][0]} "
                           "does not invert it")
    Ginv.setflags(write=False)
    return G, Ginv


def conjugate(g: Matrix, x: Matrix) -> Matrix:
    """The adjoint action g x g^-1 on one matrix, through the stack kernels
    batch_matmul and batch_inverse."""
    ctx = g.ctx
    gi = batch_inverse(ctx, g.a[None])[0]
    return Matrix(ctx, batch_matmul(ctx, batch_matmul(ctx, g.a, x.a), gi))


def _poly_add(ctx, a, b):
    n = max(len(a), len(b))
    a = list(a) + [0] * (n - len(a))
    b = list(b) + [0] * (n - len(b))
    return poly_trim(int(ctx.ADD[x, y]) for x, y in zip(a, b))


def char_poly(x: Matrix):
    """Characteristic polynomial det(tI - x) over F_q[t], by Laplace expansion."""
    ctx = x.ctx
    grid = [[(int(ctx.NEG[x.a[i, j]]), 1) if i == j else (int(ctx.NEG[x.a[i, j]]),)
             for j in range(x.n)] for i in range(x.n)]
    grid = [[poly_trim(e) for e in row] for row in grid]

    def det(rows, cols):
        if not rows:
            return (1,)
        i = rows[0]
        acc = ()
        for pos, j in enumerate(cols):
            entry = grid[i][j]
            if not entry:
                continue
            term = poly_mul(ctx, entry, det(rows[1:], cols[:pos] + cols[pos + 1:]))
            if pos % 2:
                term = poly_mul(ctx, (ctx.NEG[1],), term)
            acc = _poly_add(ctx, acc, term)
        return acc

    return det(tuple(range(x.n)), tuple(range(x.n)))


def poly_at_matrix(f, x: Matrix) -> np.ndarray:
    """f(x) by Horner's rule, through the table product."""
    acc = np.zeros((x.n, x.n), dtype=np.int16)
    for c in reversed(f):
        acc = batch_matmul_tables(x.ctx, acc, x.a)
        acc[np.diag_indices(x.n)] = x.ctx.ADD[acc.diagonal(), c]
    return acc


def matrix_label(x: Matrix) -> OrbitLabel:
    """The label of x: the multiplicity of each irreducible g in the
    characteristic polynomial, split into the partition read from the
    kernel filtration of g(x), one power and one list elimination at a time."""
    ctx, n = x.ctx, x.n
    if n == 0:
        return OrbitLabel(())
    pairs = []
    remaining = char_poly(x)
    for g in irreducibles(ctx, n):
        mult = 0
        while True:
            quot, rem = poly_divmod(ctx, remaining, g)
            if rem:
                break
            remaining = quot
            mult += 1
        if not mult:
            continue
        d = len(g) - 1
        gx = poly_at_matrix(g, x)
        power = np.eye(n, dtype=np.int16)
        nullities = [0]
        blocks_ge = []
        while True:
            power = batch_matmul_tables(ctx, power, gx)
            nullities.append(n - rank(ctx, power))
            ge = (nullities[-1] - nullities[-2]) // d
            if ge == 0:
                break
            blocks_ge.append(ge)
        lam = []
        for j, ge in enumerate(blocks_ge, start=1):
            nxt = blocks_ge[j] if j < len(blocks_ge) else 0
            lam.extend([j] * (ge - nxt))
        lam.sort(reverse=True)
        if sum(lam) != mult:
            raise OrbitCountError(f"elementary divisors of {g} have total degree "
                                  f"{sum(lam)}, multiplicity {mult}")
        pairs.append((g, tuple(lam)))
        if len(remaining) == 1:
            break
    return OrbitLabel(tuple(pairs))


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
    generator, each with its inverse, as index arrays.  The BFS oracle uses
    it, so it shares no generating set with glnq.orbits._move_codes."""
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


def move_codes(ctx, n):
    """The conjugation move table of glnq.orbits._move_codes: row k holds the
    code of g x g^-1 for the k-th of its generators g, in its order (I + E_01
    and the cyclic shift P, e_j -> e_(j+1 mod n), for n >= 2, then
    diag(gamma, 1, ..., 1) for q > 2), and every matrix x of all_matrices,
    as two table products of digit grids."""
    gens = []
    if n >= 2:
        e = np.eye(n, dtype=np.int16)
        e[0, 1] = 1
        gens += [e, np.roll(np.eye(n, dtype=np.int16), 1, axis=0)]
    if ctx.q > 2 and n > 0:
        d = np.eye(n, dtype=np.int16)
        d[0, 0] = ctx.generator_index()
        gens.append(d)
    x = all_matrices(ctx, n)
    moves = np.empty((len(gens), len(x)), dtype=np.min_scalar_type(len(x) - 1))
    for k, g in enumerate(gens):
        gi = inverse(Matrix(ctx, g)).a
        moves[k] = encode_matrices(ctx, batch_matmul_tables(
            ctx, batch_matmul_tables(ctx, g, x), gi))
    return moves


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
    shape = _shape_mask(parts).T if lower else _shape_mask(parts)
    in_par = ~np.any(mats[:, shape], axis=1)
    return int(np.count_nonzero(gl_mask(ctx, n) & in_par))
