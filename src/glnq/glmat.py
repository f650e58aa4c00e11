"""Matrices over F_q, block/parabolic combinatorics, and GL enumeration.

Matrices are numpy grids of canonical field-element indices, and stacks of
them are computed on whole: products (batch_matmul, through MULMAT, the
regular representation over F_p), row reduction and inverses go through the
context's tables, so the same code path serves prime fields and extensions.
A single Matrix is a validated, serialisable value (an orbit representative,
or a point a function is evaluated at) with no arithmetic of its own.

The kernels over all q^(n^2) matrices read row codes instead of grids: the
code of a matrix is sum_i R_i Q^i with Q = q^n and R_i = sum_j a_ij q^j the
code of row i (row_codes), so a map on rows is one gather from a table over
the Q row vectors.  The determinant of every matrix (determinants) is a
Laplace expansion along row 0 over the degree-(n-1) table, which also gives
GL_n's mask: GL_n is the digits of its nonzero-determinant codes, and no
inverse is taken over all of it.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate

import numpy as np

from .field import FqContext, digits, undigits


class ShapeError(ValueError):
    """Mismatched matrix or block sizes."""


class SingularMatrixError(ValueError):
    """Inversion of a singular matrix."""


class GLTableError(ArithmeticError):
    """The determinant table contradicts the closed-form |GL_n|, or the
    inverse of a coset representative does not invert it."""


class ResourceBudgetError(RuntimeError):
    """An enumeration would exceed the configured budget."""

    def __init__(self, needed, limit):
        super().__init__(f"enumeration needs {needed} > budget {limit}")
        self.needed = needed
        self.limit = limit


DEFAULT_BUDGET = 1 << 20


# ---------------------------------------------------------------------------
# batched table arithmetic on index arrays

MATMUL_CHUNK = 4096  # stacked matrices per integer matmul; keeps operands in cache


def _accumulator(ctx, m):
    """The narrowest of int16, int32 and int64 that holds an output digit of
    batch_matmul with inner dimension m: it sums m k products of digits
    below p, each at most (p - 1)^2."""
    bound = m * ctx.k * (ctx.p - 1) ** 2
    return next(dt for dt in (np.int16, np.int32, np.int64) if bound <= np.iinfo(dt).max)


def batch_matmul(ctx, a, b):
    """Stacked matrix product; a: (..., n, m), b: (..., m, r).

    Integer matmuls over F_p via the regular representation of F_q: each entry
    of a becomes its k x k multiplication matrix ctx.MULMAT (int8 digits
    below p = 128, else int16), each entry of b its k base-p digits (column
    0 of that matrix), and each product accumulates in _accumulator(ctx, m),
    the narrowest integer type that holds the m k products below p^2 summed
    into an output digit, and is reduced mod p once, to codes below q held
    in np.min_scalar_type(q - 1), uint8.  Stacks go MATMUL_CHUNK matrices at
    a time along their first axis, which bounds the temporaries.
    """
    p, k = ctx.p, ctx.k
    n, m, r = a.shape[-2], a.shape[-1], b.shape[-1]
    dt = _accumulator(ctx, m)
    shape = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    lead = shape or (1,)
    out = np.empty(lead + (n, r), dtype=np.min_scalar_type(ctx.q - 1))
    for s in range(0, lead[0], MATMUL_CHUNK):
        # each operand's rows of this chunk, or all of it where it broadcasts
        sa, sb = (x[s:s + MATMUL_CHUNK] if x.ndim == len(lead) + 2 and x.shape[0] > 1
                  else x for x in (a, b))
        A = ctx.MULMAT[sa].swapaxes(-3, -2).reshape(sa.shape[:-2] + (n * k, m * k))
        B = ctx.MULMAT[sb, :, 0].swapaxes(-2, -1).reshape(sb.shape[:-2] + (m * k, r))
        C = np.matmul(A, B, dtype=dt)
        C -= C // p * p  # C %= p: numpy divides by a scalar faster than it takes %
        C = C.reshape(C.shape[:-2] + (n, k, r)).swapaxes(-2, -1)
        out[s:s + MATMUL_CHUNK] = undigits(C, p)  # codes below q
    return out.reshape(shape + (n, r))


def sub_mul(ctx, x, f, y):
    """x - f y elementwise (f y of x's shape; x + lam y is x - NEG[lam] y) as
    two 1-D gathers from the flattened tables, on flat indices a q + b kept
    int16 while q^2 fits; a gather casts them in chunks, where `take` copies."""
    q = np.int16(ctx.q) if ctx.q ** 2 <= 1 << 15 else np.intp(ctx.q)
    idx = ctx.MUL.ravel()[f * q + y].astype(q.dtype, copy=False)
    idx += x * q
    return ctx.SUB.ravel()[idx]


def row_reduce(ctx, a):
    """Reduced row echelon forms and ranks of a stack of matrices, a: (m, r, c).

    One Gauss-Jordan sweep over the whole stack: at each column every matrix
    with a nonzero entry at or below its next pivot row swaps the first such
    row up, scales it to 1 and clears the column in its other rows, all
    through the field tables; a matrix with no such entry is left as it is.
    The sweep stops once every rank is r.  A writeable int16 stack is reduced
    in place and returned as the forms.
    """
    a = np.asarray(a, dtype=np.int16)
    if not a.flags.writeable:
        a = a.copy()
    m, r, c = a.shape
    stack, rows = np.arange(m), np.arange(r)
    ranks = np.zeros(m, dtype=np.intp)
    for col in range(c):
        if (ranks == r).all():
            break
        # rows from the next pivot row down are zero left of col, so a swap
        # and the clearing touch columns col.. only
        cand = (a[:, :, col] != 0) & (rows >= ranks[:, None])
        has = cand.any(axis=1)
        top = np.minimum(ranks, r - 1)
        piv = np.where(has, cand.argmax(axis=1), top)
        row = a[stack, piv, col:]
        a[stack, piv, col:] = a[stack, top, col:]
        row = ctx.MUL[np.where(has, ctx.INV[row[:, 0]], 1)[:, None], row]
        a[stack, top, col:] = row
        factor = np.where(has[:, None], a[:, :, col], 0)
        factor[stack, top] = 0
        a[:, :, col:] = sub_mul(ctx, a[:, :, col:], factor[:, :, None], row[:, None])
        ranks += has
    return a, ranks


def batch_inverse(ctx, a):
    """Inverses of a stack of square matrices, a: (m, n, n): the right half of
    the reduced [a | I], whose left half is I exactly when a is invertible."""
    n = a.shape[-1]
    eye = np.broadcast_to(np.eye(n, dtype=np.int16), a.shape)
    forms = row_reduce(ctx, np.concatenate([a, eye], axis=-1))[0]
    if not (forms[..., :n] == eye).all():
        raise SingularMatrixError("matrix is singular")
    return forms[..., n:]


# ---------------------------------------------------------------------------


class Matrix:
    """A square matrix over one F_q context: its entries' indices, checked
    in range, in a read-only int16 grid."""

    __slots__ = ("ctx", "n", "a")

    def __init__(self, ctx: FqContext, a):
        a = np.asarray(a, dtype=np.int16)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ShapeError(f"not square: {a.shape}")
        if a.size and (a.min() < 0 or a.max() >= ctx.q):
            raise ValueError("entry index out of range")
        a = a.copy()
        a.setflags(write=False)
        self.ctx = ctx
        self.n = a.shape[0]
        self.a = a

    @classmethod
    def zero(cls, ctx, n):
        return cls(ctx, np.zeros((n, n), dtype=np.int16))

    def __eq__(self, other):
        return (isinstance(other, Matrix) and other.ctx == self.ctx
                and other.n == self.n and np.array_equal(other.a, self.a))

    def __hash__(self):
        return hash((self.ctx, self.n, self.a.tobytes()))

    # row-major; each entry its k polynomial-basis coordinates comma-joined,
    # entries space-separated, rows ';'-separated
    def serialize(self) -> str:
        def ser(v):
            return ",".join(str(c) for c in self.ctx._coeffs[v])
        return ";".join(" ".join(ser(int(v)) for v in row) for row in self.a)

    @classmethod
    def parse(cls, ctx, s: str) -> "Matrix":
        """Inverse of serialize; anything serialize cannot emit is a ValueError."""
        codes = {",".join(map(str, c)): v for v, c in enumerate(ctx._coeffs)}
        rows = [row.split() for row in s.split(";")] if s else []
        for i, row in enumerate(rows):
            if len(row) != len(rows):
                raise ShapeError(f"row {i} {' '.join(row)!r} has {len(row)} "
                                 f"entries in a matrix of {len(rows)} rows")
            for tok in row:
                if tok not in codes:
                    raise ValueError(f"entry {tok!r} is not {ctx.k} comma-separated "
                                     f"coordinates in 0..{ctx.p - 1}")
        return cls(ctx, np.array([[codes[t] for t in row] for row in rows],
                                 dtype=np.int16).reshape(len(rows), len(rows)))

    def __repr__(self):
        return f"Matrix({self.ctx.serialize()}, {self.a.tolist()})"


# ---------------------------------------------------------------------------
# block combinatorics


@dataclass(frozen=True)
class Composition:
    parts: tuple

    def __init__(self, parts):
        parts = tuple(int(p) for p in parts)
        if not parts or any(p < 1 for p in parts):
            raise ValueError(f"parts must be positive: {parts}")
        object.__setattr__(self, "parts", parts)

    @property
    def n(self):
        return sum(self.parts)

    def __len__(self):
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def serialize(self) -> str:
        return "+".join(str(p) for p in self.parts)

    @classmethod
    def parse(cls, s: str) -> "Composition":
        return cls(tuple(int(t) for t in s.split("+")))


def compositions(n: int):
    """All compositions of n, in a fixed (binary cut-pattern) order."""
    for mask in range(1 << (n - 1)) if n else ():
        # bit i of the mask cuts after entry i
        cuts = [0] + [i + 1 for i in range(n - 1) if mask >> i & 1] + [n]
        yield Composition(tuple(b - a for a, b in zip(cuts, cuts[1:])))


def _block_starts(parts):
    bounds = [0, *accumulate(parts)]
    return bounds[:-1], bounds[-1]


@lru_cache(maxsize=None)
def _shape_mask(parts: tuple):
    """Boolean mask of the entries that vanish in the upper parabolic of the
    split, those below its diagonal blocks; its transpose marks the entries
    free in the unipotent radical U."""
    block_of = np.repeat(np.arange(len(parts)), parts)
    return block_of[:, None] > block_of[None, :]


def _embed_blocks(arrays, parts):
    starts, n = _block_starts(parts)
    lead = arrays[0].shape[:-2] if arrays else ()
    out = np.zeros(lead + (n, n), dtype=np.int16)
    for arr, s, p in zip(arrays, starts, parts):
        if arr.shape[-2:] != (p, p):
            raise ShapeError("block size does not match composition part")
        out[..., s:s + p, s:s + p] = arr
    return out


# ---------------------------------------------------------------------------
# enumeration


def _matrix_count(ctx: FqContext, n: int) -> int:
    """q^(n^2), the number of matrices of degree n, within DEFAULT_BUDGET."""
    if n < 0:
        raise ValueError(f"degree n={n} is negative")
    total = ctx.q ** (n * n)
    if total > DEFAULT_BUDGET:
        raise ResourceBudgetError(total, DEFAULT_BUDGET)
    return total


def all_matrices(ctx: FqContext, n: int, codes=None):
    """The matrices of the given codes, all q^(n^2) in code order by default,
    as one stacked uint8 array of their digits, built anew on every call: its
    one caller in glnq, gl_arrays, passes the codes of GL_n."""
    total = _matrix_count(ctx, n)
    if codes is None:
        codes = np.arange(total, dtype=np.min_scalar_type(total - 1))
    out = digits(codes, ctx.q, n * n).reshape(len(codes), n, n)
    out.setflags(write=False)
    return out


def encode_matrices(ctx, a) -> np.ndarray:
    """Inverse of the all_matrices code order (row-major digits, ascending powers)."""
    n = a.shape[-1]
    return undigits(a.reshape(a.shape[:-2] + (n * n,)), ctx.q)


def row_codes(ctx: FqContext, n: int):
    """The row codes of all_matrices(ctx, n), shape (n, q^(n^2)), in the
    smallest dtype that holds Q - 1, Q = q^n: the matrix of code
    sum_i R_i Q^i has row i of code R_i = sum_j a_ij q^j, at [i, code].
    Built anew on every call, not cached: its readers are cached themselves
    (orbits._move_codes, invfun.character_matrix) or run once per degree
    (determinants, under gl_mask), and keep only what they derive from it."""
    total, Q = _matrix_count(ctx, n), ctx.q ** n
    codes = np.arange(total, dtype=np.min_scalar_type(total - 1))
    out = np.ascontiguousarray(digits(codes, Q, n).T)  # digits hold Q - 1
    out.setflags(write=False)
    return out


def determinants(ctx: FqContext, n: int):
    """The determinant of every matrix of all_matrices(ctx, n), in code
    order, by Laplace expansion along row 0: sum_j (-1)^j a_0j det(minor_0j),
    a_0j read from the row code of row 0.  The minor's code, in the smallest
    dtype that holds it, comes from a table of each row code without entry
    j, its determinant from the degree-(n-1) table."""
    out = np.ones(1, dtype=np.int16)
    if n:
        rows = row_codes(ctx, n)
        vecs, sub = digits(np.arange(ctx.q ** n), ctx.q, n), ctx.q ** (n - 1)
        dtype, minors = np.min_scalar_type(sub ** (n - 1) - 1), determinants(ctx, n - 1)
        out = np.zeros(rows.shape[1], dtype=np.int16)
        for j in range(n):
            drop = undigits(np.delete(vecs, j, axis=1), ctx.q).astype(dtype)
            codes = np.zeros(rows.shape[1], dtype=dtype)
            for pos, r in enumerate(rows[1:]):
                codes += drop.take(r) * sub ** pos
            coef = vecs[:, j] if j % 2 else ctx.NEG[vecs[:, j]]
            out = sub_mul(ctx, out, coef.take(rows[0]), minors.take(codes))
    out.setflags(write=False)
    return out


def gl_mask(ctx: FqContext, n: int):
    """det != 0 over all_matrices(ctx, n); its count must be |GL_n|."""
    mask = determinants(ctx, n) != 0
    count, order = int(np.count_nonzero(mask)), enumerate_gl_order(n, ctx)
    if count != order:
        raise GLTableError(f"{count} matrices of degree {n} have nonzero "
                           f"determinant, not |GL_{n}| = {order}")
    mask.setflags(write=False)
    return mask


def gl_arrays(ctx: FqContext, n: int):
    """(G, codes): the invertible matrices of degree n as one stacked uint8
    array, the digits of their codes, which gl_mask gives in code order.  No
    inverse is taken: hc._coset_table inverts its coset representatives
    alone.  Not cached, nor are the determinants and the mask: that one
    caller keeps only coset representatives."""
    codes = np.flatnonzero(gl_mask(ctx, n)).astype(np.min_scalar_type(ctx.q ** (n * n) - 1))
    codes.setflags(write=False)
    return all_matrices(ctx, n, codes), codes


def enumerate_gl_order(n: int, ctx: FqContext) -> int:
    """|GL_n(F_q)| = prod_{i<n} (q^n - q^i), in closed form."""
    if n < 0:
        raise ValueError(f"degree n={n} is negative")
    q = ctx.q
    order = 1
    for i in range(n):
        order *= q ** n - q ** i
    return order


def unipotent_radical_order(ctx: FqContext, parts) -> int:
    parts = tuple(parts)
    if any(p < 0 for p in parts):
        raise ValueError(f"parts {parts} include a negative part")
    e = sum(parts[i] * parts[j] for i in range(len(parts)) for j in range(i + 1, len(parts)))
    return ctx.q ** e


def unipotent_radical_elems(ctx: FqContext, parts) -> np.ndarray:
    """All strictly upper-block matrices of the split, the Lie algebra of the
    unipotent radical U of its upper parabolic: every entry above the
    diagonal blocks free, all others 0."""
    parts = tuple(parts)
    n = sum(parts)
    codes = np.arange(unipotent_radical_order(ctx, parts))
    free = _shape_mask(parts).T
    out = np.zeros((len(codes), n, n), dtype=np.int16)
    out[:, free] = digits(codes, ctx.q, int(free.sum()))
    return out
