"""Adjoint (= similarity) orbits of gl_n(F_q): canonical labels, enumeration,
closed-form sizes, and a brute-force conjugation oracle.

Orbits are labelled by finite maps {monic irreducible f} -> {partition}, with
total weight sum(deg f * |lambda|) = n; the representative of a label is the
block-diagonal sum of companion matrices of the elementary divisors f^lambda_i.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .field import FqContext, digits, irreducibles, poly_pow, undigits
from .glmat import (Matrix, ResourceBudgetError, _embed_blocks, batch_inverse,
                    batch_matmul, encode_matrices, enumerate_gl_order, row_codes,
                    row_reduce)

LOOKUP_BUDGET = 1 << 17


class OrbitCountError(ArithmeticError):
    """An orbit count contradicts another computed independently: the kernel
    dimensions behind a label and n, a BFS sweep and |G|/|C(x)| or the other
    seeds, a conjugation move and bijectivity, the orbit sizes and q^(n^2), or
    a coset P g of a parabolic and |P|."""


# ---------------------------------------------------------------------------


def companion(ctx: FqContext, f) -> Matrix:
    d = len(f) - 1
    a = np.zeros((d, d), dtype=np.int16)
    for i in range(1, d):
        a[i, i - 1] = 1
    for i in range(d):
        a[i, d - 1] = ctx.NEG[f[i]]
    return Matrix(ctx, a)


# ---------------------------------------------------------------------------


def partitions(n: int):
    """Integer partitions of n as descending tuples."""
    if n == 0:
        yield ()
        return

    def rec(rem, mx):
        if rem == 0:
            yield ()
            return
        for first in range(min(rem, mx), 0, -1):
            for rest in rec(rem - first, first):
                yield (first,) + rest

    yield from rec(n, n)


@dataclass(frozen=True)
class OrbitLabel:
    """Sorted pairs (irreducible polynomial, partition) of total weight n."""

    pairs: tuple

    def __init__(self, pairs):
        pairs = tuple(sorted((tuple(f), tuple(lam)) for f, lam in pairs))
        polys = [f for f, _ in pairs]
        if len(set(polys)) != len(polys):
            raise ValueError("polynomials must be distinct")
        for f, lam in pairs:
            if not lam or list(lam) != sorted(lam, reverse=True) or min(lam) < 1:
                raise ValueError(f"bad partition {lam}")
            if f[-1] != 1:
                raise ValueError("polynomials must be monic")
        object.__setattr__(self, "pairs", pairs)

    @property
    def is_nilpotent(self):
        return self.pairs == () or (len(self.pairs) == 1 and self.pairs[0][0] == (0, 1))

    def serialize(self) -> str:
        return "|".join(",".join(str(c) for c in f) + ":" +
                        ",".join(str(p) for p in lam) for f, lam in self.pairs)

    @classmethod
    def parse(cls, s: str) -> "OrbitLabel":
        if not s:
            return cls(())
        pairs = []
        for chunk in s.split("|"):
            fs, ls = chunk.split(":")
            pairs.append((tuple(int(c) for c in fs.split(",")),
                          tuple(int(p) for p in ls.split(","))))
        return cls(tuple(pairs))

    def __repr__(self):
        return f"OrbitLabel({self.serialize()!r})"


def matrix_label(x: Matrix) -> OrbitLabel:
    """Similarity-class label via elementary divisors, read from kernel ranks:
    for a monic irreducible g of degree d, dim ker g(x)^j - dim ker g(x)^(j-1)
    is d times the number of parts >= j of lam_g (Macdonald, Symmetric
    Functions and Hall Polynomials, IV).  Every g(x)^j with d <= n and
    j <= n / d, which suffices as d |lam_g| <= n, goes through one row_reduce
    call; each g(x) is one F_q product of g's coefficients with x^0..x^n."""
    ctx, n = x.ctx, x.n
    if n == 0:
        return OrbitLabel(())
    gs = irreducibles(ctx, n)
    deg = np.array([len(g) - 1 for g in gs])
    powers = [np.eye(n, dtype=np.int16)]
    for _ in range(n):
        powers.append(batch_matmul(ctx, powers[-1], x.a))
    coeffs = np.zeros((len(gs), n + 1), dtype=np.int16)
    for i, g in enumerate(gs):
        coeffs[i, :len(g)] = g
    levels = [batch_matmul(ctx, coeffs, np.reshape(powers, (n + 1, n * n)))
              .reshape(len(gs), n, n)]
    for j in range(2, n + 1):
        # irreducibles run by degree, so the g with j <= n / deg g are a prefix
        m = int(np.count_nonzero(n // deg >= j))
        levels.append(batch_matmul(ctx, levels[-1][:m], levels[0][:m]))
    ranks = row_reduce(ctx, np.concatenate(levels))[1]
    null = np.zeros((len(gs), n + 1), dtype=np.intp)  # dim ker g(x)^j, j = 0..n
    pos = 0
    for j, level in enumerate(levels, start=1):
        null[:, j] = null[:, j - 1]  # past n / deg g the kernel has stopped growing
        null[:len(level), j] = n - ranks[pos:pos + len(level)]
        pos += len(level)
    ge = np.diff(null, axis=1)  # deg g * (number of parts of lam_g that are >= j)
    eq = -np.diff(ge, axis=1, append=0)  # ... that are == j
    if (ge % deg[:, None]).any() or (eq < 0).any():
        raise OrbitCountError(f"kernel dimensions {null[:, 1:].tolist()} of g(x)^j "
                              "are not those of elementary divisors")
    if null[:, n].sum() != n:
        raise OrbitCountError(f"elementary divisors have total degree "
                              f"{null[:, n].sum()}, not n = {n}")
    parts = np.arange(n, 0, -1)
    return OrbitLabel(tuple((g, tuple(np.repeat(parts, eq[i, ::-1] // deg[i]).tolist()))
                            for i, g in enumerate(gs) if null[i, n]))


# ---------------------------------------------------------------------------


def _generators(ctx: FqContext, n: int) -> list:
    """I + E_01 and the cyclic shift P (e_j -> e_(j+1 mod n)) for n >= 2,
    then diag(gamma, 1, ..., 1), gamma a generator of F_q^x, for q > 2.

    They generate GL_n(F_q): the conjugates of I + E_01 by powers of P are
    the I + E_(i,i+1), their commutators give every I + E_ij, the torus
    generator scales each by gamma, so they give SL_n(F_q), and det = gamma
    the rest."""
    gens = []
    if n >= 2:
        e = np.eye(n, dtype=np.int16)
        e[0, 1] = 1
        gens += [e, np.roll(np.eye(n, dtype=np.int16), 1, axis=0)]
    if ctx.q > 2 and n > 0:
        d = np.eye(n, dtype=np.int16)
        d[0, 0] = ctx.generator_index()
        gens.append(d)
    return [Matrix(ctx, g) for g in gens]


@lru_cache(maxsize=None)
def _move_codes(ctx: FqContext, n: int) -> np.ndarray:
    """Row k holds the code of g x g^-1 for every code x, in code order, g
    the k-th of _generators(ctx, n).

    On the row codes R of x, row i of g x g^-1 is (sum_j g_ij R_j) g^-1: one
    gather from a table over the tuples of row vectors at the nonzero
    entries of row i of g (Q or Q^2 entries for these generators, Q = q^n),
    its sums by batch_matmul and each sum then mapped through the Q-entry
    table of u g^-1, g^-1 from batch_inverse.  Each row must permute the
    codes."""
    total, Q = ctx.q ** (n * n), ctx.q ** n
    rows = row_codes(ctx, n)
    vecs = digits(np.arange(Q), ctx.q, n)
    gens = _generators(ctx, n)
    dtype = np.min_scalar_type(total - 1)
    moves = np.zeros((len(gens), total), dtype=dtype)
    for k, g in enumerate(gens):
        right = undigits(batch_matmul(ctx, vecs, batch_inverse(ctx, g.a[None])[0]),
                         ctx.q).astype(dtype)
        for i, coef in enumerate(g.a):
            at = np.flatnonzero(coef)
            tuples = vecs[digits(np.arange(Q ** len(at)), Q, len(at))]
            # row i's codes, scaled to its place Q^i in the table, not after
            # the gather; indexing casts narrow indices in chunks, take whole
            table = right[undigits(batch_matmul(ctx, coef[at][None], tuples)[:, 0],
                                   ctx.q)] * Q ** i
            moves[k] += table[undigits(rows[at].T, Q)]
        # a map of a finite set into itself is a permutation iff it is onto
        hit = np.zeros(total, dtype=bool)
        hit[moves[k]] = True
        if not hit.all():
            raise OrbitCountError(f"a conjugation move on gl_{n}(F_{ctx.q}) "
                                  "is not a permutation")
    moves.setflags(write=False)
    return moves


def centralizer_order(ctx: FqContext, label: OrbitLabel) -> int:
    """|{g in GL_n : g x = x g}| for x in the orbit of the label, in closed
    form: the product over its pairs (f, lam) of a_lam(Q), Q = q^deg f, with

        a_lam(Q) = Q^(sum_i lam'_i^2 - sum_j m_j (m_j + 1) / 2)
                   * prod_j prod_{k=1..m_j} (Q^k - 1),

    lam' the conjugate partition and m_j the number of parts equal to j
    (Macdonald, Symmetric Functions and Hall Polynomials, II (1.6), IV.2)."""
    order = 1
    for f, lam in label.pairs:
        Q = ctx.q ** (len(f) - 1)
        conj = [sum(1 for part in lam if part > i) for i in range(lam[0])]
        mults = [lam.count(j) for j in set(lam)]
        order *= Q ** (sum(c * c for c in conj) - sum(m * (m + 1) // 2 for m in mults))
        for m in mults:
            for k in range(1, m + 1):
                order *= Q ** k - 1
    return order


class OrbitTable:
    """Canonical enumeration of the adjoint orbits of gl_n(F_q)."""

    def __init__(self, ctx, n, labels, reps, sizes, lookup=None):
        self.ctx = ctx
        self.n = n
        self.labels = tuple(labels)
        self.reps = tuple(reps)
        self.sizes = tuple(sizes)
        self.lookup = lookup
        self.index = {lab: i for i, lab in enumerate(self.labels)}
        self.gl_order = enumerate_gl_order(n, ctx)
        if sum(self.sizes) != ctx.q ** (n * n):
            raise OrbitCountError(f"orbit sizes sum to {sum(self.sizes)}, "
                                  f"not q^(n^2) = {ctx.q ** (n * n)}")

    def __len__(self):
        return len(self.labels)

    def index_of_label(self, label: OrbitLabel) -> int:
        if label not in self.index:
            raise KeyError(f"unknown orbit label {label}")
        return self.index[label]

    def index_of_matrix(self, x: Matrix) -> int:
        if x.ctx != self.ctx or x.n != self.n:
            raise ValueError("matrix does not match table")
        if self.lookup is not None:
            return int(self.lookup[int(encode_matrices(self.ctx, x.a[None])[0])])
        return self.index_of_label(matrix_label(x))

    def to_json(self):
        return {
            "q": self.ctx.serialize(),
            "n": self.n,
            "orbits": [
                {"label": lab.serialize(), "representative": rep.serialize(),
                 "size": size}
                for lab, rep, size in zip(self.labels, self.reps, self.sizes)
            ],
        }


def _label_candidates(ctx, n):
    """Every label of weight n, by a depth-first walk over the irreducibles
    (ascending degree) on an explicit stack, so the count of irreducibles
    sets no recursion depth: at each f, its multiplicity m from the largest
    down to 1, each partition of m in turn, then f left out.  A walk stops
    once f's degree exceeds the weight left, as every later f's does."""
    irrs = irreducibles(ctx, n)
    stack = [(0, n, ())]  # (next irreducible, weight left, pairs so far)
    while stack:
        idx, remaining, pairs = stack.pop()
        if remaining == 0:
            yield OrbitLabel(pairs)
            continue
        if idx == len(irrs) or len(irrs[idx]) - 1 > remaining:
            continue
        f = irrs[idx]
        d = len(f) - 1
        children = [(idx + 1, remaining - d * m, pairs + ((f, lam),))
                    for m in range(remaining // d, 0, -1) for lam in partitions(m)]
        children.append((idx + 1, remaining, pairs))
        stack.extend(reversed(children))


def representative(ctx, label: OrbitLabel, n: int) -> Matrix:
    blocks = [companion(ctx, poly_pow(ctx, f, part)).a for f, lam in label.pairs for part in lam]
    if not blocks:
        return Matrix.zero(ctx, n)
    return Matrix(ctx, _embed_blocks(blocks, tuple(len(b) for b in blocks)))


@lru_cache(maxsize=None)
def enumerate_orbits(n: int, ctx: FqContext) -> OrbitTable:
    """The adjoint orbits of gl_n(F_q), sized |G|/|C(x)| by the closed form.
    Up to LOOKUP_BUDGET matrices one BFS over _move_codes from all the
    representatives at once also builds the code -> orbit lookup, each code
    taking its parent's orbit; it checks that no code is reached from two
    representatives, that every code is reached, and every BFS count against
    its size.  The lookup is held in the narrowest unsigned dtype that holds
    the orbit count, its "unset" mark, so a caller widens it before any
    arithmetic.  Past the budget the table has no lookup."""
    if n < 0:
        raise ValueError(f"degree n={n} is negative")
    labels = sorted(_label_candidates(ctx, n), key=lambda lab: lab.pairs)
    reps = [representative(ctx, lab, n) for lab in labels]
    gl = enumerate_gl_order(n, ctx)
    sizes = [gl // centralizer_order(ctx, lab) for lab in labels]
    lookup = None
    total = ctx.q ** (n * n)
    if total <= LOOKUP_BUDGET:
        moves = _move_codes(ctx, n)
        unset = len(reps)
        lookup = np.full(total, unset, dtype=np.min_scalar_type(unset))
        frontier = encode_matrices(ctx, np.stack([rep.a for rep in reps]))
        marks = np.arange(len(reps), dtype=lookup.dtype)
        while len(frontier):
            fresh = lookup[frontier] == unset
            lookup[frontier[fresh]] = marks[fresh]
            met = np.flatnonzero(lookup[frontier] != marks)
            if len(met):
                code = frontier[met[0]]
                a, b = sorted((marks[met[0]], lookup[code]))
                raise OrbitCountError(f"orbits {labels[a].serialize()} and "
                                      f"{labels[b].serialize()} meet at code {code}")
            codes, first = np.unique(frontier[fresh], return_index=True)
            frontier = moves[:, codes].ravel()
            marks = np.tile(marks[fresh][first], len(moves))
        missed = np.flatnonzero(lookup == unset)
        if len(missed):
            raise OrbitCountError(f"{len(missed)} matrices lie in no enumerated "
                                  f"orbit, first code {missed[0]}")
        counts = np.bincount(lookup, minlength=len(labels))
        for lab, count, size in zip(labels, counts.tolist(), sizes):
            if count != size:
                raise OrbitCountError(f"orbit {lab.serialize()}: BFS reached "
                                      f"{count} matrices, |G|/|C(x)| = {size}")
        lookup.setflags(write=False)
    return OrbitTable(ctx, n, labels, reps, sizes, lookup)


def orbit_of(x: Matrix, table: OrbitTable) -> OrbitLabel:
    if x.ctx != table.ctx or x.n != table.n:
        raise ValueError("matrix does not match table")
    return table.labels[table.index_of_label(matrix_label(x))]


def orbit_table_bruteforce(n: int, ctx: FqContext):
    """Partition of all q^(n^2) matrices into conjugacy classes, seeded by no
    representative: every code takes the least label among its images under
    _move_codes, with pointer jumping between passes, until no label changes.
    As every move permutes the codes, each class then holds its least code.

    Returns (class id of each code, class sizes), classes numbered by least code.
    """
    total = ctx.q ** (n * n)
    if total > LOOKUP_BUDGET:
        raise ResourceBudgetError(total, LOOKUP_BUDGET)
    moves = _move_codes(ctx, n)
    least = np.arange(total, dtype=moves.dtype)
    while True:
        before = least
        for row in moves:
            least = np.minimum(least, least[row])
        least = least[least]
        if np.array_equal(least, before):
            break
    # classes numbered by least code, in the narrowest dtype that holds them
    leaders, sizes = np.unique(least, return_counts=True)
    number = np.zeros(total, dtype=np.min_scalar_type(len(leaders) - 1))
    number[leaders] = np.arange(len(leaders))
    return number[least], sizes.tolist()


def nilpotent_orbit_count(table: OrbitTable) -> int:
    return sum(1 for lab in table.labels if lab.pairs and lab.is_nilpotent)
