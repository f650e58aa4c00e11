"""Scalar reference for the exact operator layer: Harish-Chandra restriction
and induction, their tensor-factor variants, the duality operation and the
antipode, each applied one Cyclotomic multiply-add at a time from
Fraction-list matrices; the duality and antipode matrices built with
Fraction-list products and hand-written Kronecker loops; the induction
matrix counted over all of GL_n, each g^-1 its adjugate; the coset
representatives and their inverses, cosets keyed by echelon forms; the operators of the lower parabolic,
restriction counted directly as x + u over the strictly lower-block u and
induction as its adjoint; the single coset of a split with one nonzero
part counted; and the Mackey double-coset side assembled
term by term from tensor restrictions, a factor permutation and inductions;
and the mackey and bialgebra checks one pair of test functions at a time.

This is the slow path that glnq.invfun.apply_operator, the (x, den)
operators of glnq.linalg, the coset count of glnq.hc.induction_matrix and
its coset table, the
block reversal of glnq.hc.verify_parabolic_independence, the identity of a
split with one nonzero part and glnq.hc.mackey_operator replaced; the
tests use it as the witness that both give the same values.
The operator builders are bound here at import, so a test that patches
glnq.hc's bindings reaches the fast path only; mackey_rhs alone calls
glnq.hc's tensor restriction and induction, so a test takes it before it
patches them.  The per-pair checks, verify_mackey and verify_bialgebra,
are the routes that glnq.hc.verify_mackey and glnq.hopf.verify_bialgebra
stacked into one product per block of test functions; they call glnq.hc's
function maps and mackey_operator through the module, so a patched
operator reaches both routes alike.
"""
import math
from fractions import Fraction
from functools import lru_cache
from itertools import product

import numpy as np

from glnq import linalg
from glnq.duality import duality_operator
from glnq.field import Cyclotomic, FqContext, undigits
from glnq.glmat import (_block_starts, _embed_blocks, _shape_mask, batch_matmul,
                        compositions, encode_matrices, row_reduce, unipotent_radical_order)
from glnq import hc
from glnq.hc import (_block_lookup, _parts, induction_matrix, mackey_index_set,
                     parabolic_group_order, restriction_matrix, split_tables)
from glnq.hopf import antipode_matrix
from glnq.invfun import InvariantFunction, TensorFunction, adjoint, apply_operator
from glnq.orbits import OrbitCountError, enumerate_orbits
from glnq.report import Report
from orbit_oracle import adjugate_gl_arrays


def rows(op):
    """An (x, den) operator as a list of rows of Fractions."""
    x, den = op
    return [[Fraction(int(v), den) for v in row] for row in x]


def _flat_index(idx, dims):
    out = 0
    for i, d in zip(idx, dims):
        out = out * d + i
    return out


# ---------------------------------------------------------------------------
# induction counted over all of GL_n


@lru_cache(maxsize=None)
def _conjugated_stack(ctx: FqContext, n: int, rep_index: int):
    """g x g^-1 for every g in GL_n, for the rep of the given orbit index,
    g^-1 the adjugate."""
    G, Gi = adjugate_gl_arrays(ctx, n)
    rep = enumerate_orbits(n, ctx).reps[rep_index]
    out = batch_matmul(ctx, batch_matmul(ctx, G, rep.a), Gi)
    out.setflags(write=False)
    return out


def conjugation_induction_matrix(ctx: FqContext, parts: tuple, lower: bool = False):
    """The induction matrix along the upper (or lower) parabolic P as an
    (x, den) pair: entries the counts of g in GL_n whose conjugate of the
    row's representative lies in P with Levi part in each tuple, divided by
    |P|."""
    parts = tuple(parts)
    n = sum(parts)
    tabs = split_tables(ctx, parts)
    ntuples = math.prod(len(t) for t in tabs)
    shape = _shape_mask(parts).T if lower else _shape_mask(parts)
    starts, _ = _block_starts(parts)
    rows = []
    for r in range(len(enumerate_orbits(n, ctx))):
        conj = _conjugated_stack(ctx, n, r)
        sub = conj[~np.any(conj[:, shape], axis=1)]
        codes = _block_lookup(ctx, sub, starts, parts, tabs)
        rows.append(np.bincount(codes, minlength=ntuples))
    return linalg.reduced(np.array(rows), parabolic_group_order(ctx, parts))


@lru_cache(maxsize=None)
def coset_table(ctx: FqContext, n: int):
    """For lo = 1..n-1, {lo: (g, g^-1, sizes)}: the first g in code order of
    each right coset P g in GL_n, P the upper parabolic of (lo, n - lo), a
    coset keyed by the reduced echelon form of rows lo..n-1, with g^-1 the
    adjugate, cosets in the code order of their g."""
    G, Gi = adjugate_gl_arrays(ctx, n)
    out = {}
    for lo in range(1, n):
        forms = row_reduce(ctx, G[:, lo:])[0]
        keys = undigits(forms.reshape(len(G), -1), ctx.q)
        _, first, sizes = np.unique(keys, return_index=True, return_counts=True)
        order = np.argsort(first)
        out[lo] = (G[first[order]], Gi[first[order]], sizes[order])
    return out


def one_part_coset_count(ctx: FqContext, parts: tuple):
    """The induction matrix of a split with one nonzero part, counted as
    cosets P g in P\\GL_n: P = GL_n is the one coset, which must hold |P|
    elements (hc.parabolic_group_order, read through the module), else
    OrbitCountError; its representative, the first matrix of GL_n,
    conjugates each orbit representative into its own Levi tuple."""
    parts = tuple(parts)
    n = sum(parts)
    G, Gi = adjugate_gl_arrays(ctx, n)
    order = hc.parabolic_group_order(ctx, parts)
    if len(G) != order:
        raise OrbitCountError(f"a coset of the parabolic {parts} in GL_{n} holds "
                              f"{len(G)} elements, not |P| = {order}")
    tabs = split_tables(ctx, parts)
    reps = np.stack([r.a for r in enumerate_orbits(n, ctx).reps])
    conj = batch_matmul(ctx, batch_matmul(ctx, G[:1], reps[:, None]), Gi[:1])[:, 0]
    codes = _block_lookup(ctx, conj, _block_starts(parts)[0], parts, tabs)
    counts = np.zeros((len(reps), math.prod(len(t) for t in tabs)), dtype=np.int64)
    counts[np.arange(len(reps)), codes] = 1
    return linalg.reduced(counts, 1)


# ---------------------------------------------------------------------------
# the lower parabolic, counted directly


def lower_restriction_matrix(ctx: FqContext, parts: tuple):
    """*R along the lower parabolic of the split as an (x, den) pair: the
    counts of x + u in each orbit of gl_n over the strictly lower-block u,
    x running over the Levi representative tuples in product order, divided
    by |U|.  The empty split has the 1 x 1 identity."""
    parts = tuple(parts)
    if not parts:
        return linalg.identity(1)
    n = sum(parts)
    tabs = split_tables(ctx, parts)
    table_n = enumerate_orbits(n, ctx)
    free = _shape_mask(parts)
    codes = np.arange(unipotent_radical_order(ctx, parts))
    U = np.zeros((len(codes), n, n), dtype=np.int16)
    U[:, free] = [[int(c) // ctx.q ** i % ctx.q for i in range(int(free.sum()))]
                  for c in codes]
    rows = []
    for idx in product(*(range(len(t)) for t in tabs)):
        x = _embed_blocks([tab.reps[i].a for tab, i in zip(tabs, idx)], parts)
        orb = table_n.lookup[encode_matrices(ctx, ctx.ADD[x, U])]
        rows.append(np.bincount(orb, minlength=len(table_n)))
    return linalg.reduced(np.array(rows).reshape(-1, len(table_n)), len(U))


def lower_induction_matrix(ctx: FqContext, parts: tuple):
    """R along the lower parabolic of the split: the adjoint of
    lower_restriction_matrix."""
    return adjoint(lower_restriction_matrix(ctx, parts),
                   (enumerate_orbits(sum(parts), ctx),), split_tables(ctx, parts))


def _restriction(ctx, parts, lower):
    return lower_restriction_matrix(ctx, parts) if lower else restriction_matrix(ctx, parts)


def _induction(ctx, parts, lower):
    return lower_induction_matrix(ctx, parts) if lower else induction_matrix(ctx, parts)


# ---------------------------------------------------------------------------
# Fraction-list matrices


def identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def zeros(r, c):
    return [[Fraction(0)] * c for _ in range(r)]


def matmul(a, b):
    cb = len(b[0]) if b else 0
    out = []
    for row in a:
        acc = [Fraction(0)] * cb
        for k, x in enumerate(row):
            if x:
                for j in range(cb):
                    if b[k][j]:
                        acc[j] += x * b[k][j]
        out.append(acc)
    return out


def matadd(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def scale(a, c):
    return [[x * c for x in row] for row in a]


def kron(d1, d2):
    """The Kronecker product d1 (x) d2, entry by entry."""
    dim1, dim2 = len(d1), len(d2)
    out = zeros(dim1 * dim2, len(d1[0]) * len(d2[0]))
    for i in range(dim1):
        for k in range(len(d1[0])):
            if d1[i][k]:
                for j in range(dim2):
                    for l in range(len(d2[0])):
                        if d2[j][l]:
                            out[i * dim2 + j][k * len(d2[0]) + l] = d1[i][k] * d2[j][l]
    return out


def duality_matrix(ctx: FqContext, n: int):
    """Sum over compositions c of (-1)^(n - len(c)) Ind_c . Res_c."""
    if n == 0:
        return identity(1)
    dim = len(enumerate_orbits(n, ctx))
    acc = zeros(dim, dim)
    for c in compositions(n):
        term = matmul(rows(induction_matrix(ctx, c.parts)),
                      rows(restriction_matrix(ctx, c.parts)))
        acc = matadd(acc, scale(term, Fraction((-1) ** (n - len(c.parts)))))
    return acc


def antipode_rows(ctx: FqContext, n: int):
    """S_n = -id - sum over proper splits (k, l) of Ind . (S_k (x) I_l) . Res."""
    if n == 0:
        return identity(1)
    dim = len(enumerate_orbits(n, ctx))
    acc = scale(identity(dim), Fraction(-1))
    for k in range(1, n):
        l = n - k
        res = rows(restriction_matrix(ctx, (k, l)))
        ind = rows(induction_matrix(ctx, (k, l)))
        sk = antipode_rows(ctx, k)
        dk = len(sk)
        dl = len(enumerate_orbits(l, ctx))
        skron = zeros(dk * dl, dk * dl)
        for i in range(dk):
            for i2 in range(dk):
                if sk[i][i2]:
                    for j in range(dl):
                        skron[i * dl + j][i2 * dl + j] = sk[i][i2]
        term = matmul(ind, matmul(skron, res))
        acc = matadd(acc, scale(term, Fraction(-1)))
    return acc


# ---------------------------------------------------------------------------
# applying operators one value at a time


def _apply_rows(mat, f: InvariantFunction) -> InvariantFunction:
    values, f_values = [], f.values  # read once: glnq builds them per read
    for row in mat:
        acc = f_values[0] * row[0]
        for j in range(1, len(row)):
            if row[j]:
                acc = acc + f_values[j] * row[j]
        values.append(acc)
    return InvariantFunction(f.table, values)


def duality_apply(f: InvariantFunction) -> InvariantFunction:
    return _apply_rows(rows(duality_operator(f.n, f.table.ctx).matrix), f)


def antipode_function(f: InvariantFunction) -> InvariantFunction:
    return _apply_rows(rows(antipode_matrix(f.table.ctx, f.n)), f)


def hc_restrict(f: InvariantFunction, c, lower: bool = False) -> TensorFunction:
    parts = _parts(c)
    ctx = f.table.ctx
    tabs = split_tables(ctx, parts)
    mat = rows(_restriction(ctx, parts, lower))
    zero = Cyclotomic.rational(ctx.p, 0)
    vals, f_values = {}, f.values
    for pos, idx in enumerate(product(*(range(len(t)) for t in tabs))):
        acc = zero
        for j, coef in enumerate(mat[pos]):
            if coef:
                acc = acc + f_values[j] * coef
        vals[idx] = acc
    return TensorFunction(tabs, vals)


def hc_induce(t: TensorFunction, c, lower: bool = False) -> InvariantFunction:
    parts = _parts(c)
    ctx = t.tables[0].ctx
    table_n = enumerate_orbits(sum(parts), ctx)
    mat = rows(_induction(ctx, parts, lower))
    dims = [len(tab) for tab in t.tables]
    zero = Cyclotomic.rational(ctx.p, 0)
    values, t_values = [], t.values
    for r in range(len(table_n)):
        acc = zero
        for idx, v in t_values.items():
            coef = mat[r][_flat_index(idx, dims)]
            if coef and not v.is_zero():
                acc = acc + v * coef
        values.append(acc)
    return InvariantFunction(table_n, values)


def tensor_restrict_factor(t: TensorFunction, pos: int, subparts,
                           lower: bool = False) -> TensorFunction:
    subparts = _parts(subparts)
    ctx = t.tables[pos].ctx
    subtabs = split_tables(ctx, subparts)
    mat = rows(_restriction(ctx, subparts, lower))
    subdims = [len(x) for x in subtabs]
    tables = t.tables[:pos] + subtabs + t.tables[pos + 1:]
    zero = Cyclotomic.rational(ctx.p, 0)
    vals, t_values = {}, t.values
    for pre in product(*(range(len(x)) for x in t.tables[:pos])):
        for post in product(*(range(len(x)) for x in t.tables[pos + 1:])):
            for spos, sidx in enumerate(product(*(range(d) for d in subdims))):
                acc = zero
                for j in range(len(t.tables[pos])):
                    coef = mat[spos][j]
                    if coef:
                        acc = acc + t_values[pre + (j,) + post] * coef
                vals[pre + sidx + post] = acc
    return TensorFunction(tables, vals)


def tensor_induce_span(t: TensorFunction, start: int, count: int,
                       lower: bool = False) -> TensorFunction:
    ctx = t.tables[start].ctx
    subparts = tuple(t.tables[start + i].n for i in range(count))
    target = enumerate_orbits(sum(subparts), ctx)
    mat = rows(_induction(ctx, subparts, lower))
    subdims = [len(t.tables[start + i]) for i in range(count)]
    tables = t.tables[:start] + (target,) + t.tables[start + count:]
    zero = Cyclotomic.rational(ctx.p, 0)
    vals, t_values = {}, t.values
    for pre in product(*(range(len(x)) for x in t.tables[:start])):
        for post in product(*(range(len(x)) for x in t.tables[start + count:])):
            for r in range(len(target)):
                acc = zero
                for sidx in product(*(range(d) for d in subdims)):
                    coef = mat[r][_flat_index(sidx, subdims)]
                    if coef:
                        v = t_values[pre + sidx + post]
                        if not v.is_zero():
                            acc = acc + v * coef
                vals[pre + (r,) + post] = acc
    return TensorFunction(tables, vals)


# ---------------------------------------------------------------------------
# the Mackey double-coset side, term by term


def mackey_rhs(rho1: InvariantFunction, rho2: InvariantFunction,
               s: int, t: int) -> TensorFunction:
    """Sum over mackey_index_set of Ind_(a,c) x Ind_(b,d) applied to the
    w-twisted (a, c, b, d) reordering of *R_(a,b) rho1 x *R_(c,d) rho2."""
    ctx = rho1.table.ctx
    acc = TensorFunction.zero(split_tables(ctx, (s, t)))
    for a, b, c, d in mackey_index_set(rho1.n, rho2.n, s, t):
        four = hc.hc_restrict(rho1, (a, b)).concat(hc.hc_restrict(rho2, (c, d)))
        four = four.permute((0, 2, 1, 3))         # w-twist: (a, c, b, d)
        term = hc.tensor_induce_span(four, 0, 2)  # (a, c) -> s
        acc = acc + hc.tensor_induce_span(term, 1, 2)  # (b, d) -> t
    return acc


# ---------------------------------------------------------------------------
# the Mackey and bialgebra checks, one pair of test functions at a time


def mackey_rhs_pair(rho1: InvariantFunction, rho2: InvariantFunction,
                    s: int, t: int) -> TensorFunction:
    """mackey_operator applied to the one tensor rho1 x rho2."""
    ctx = rho1.table.ctx
    return apply_operator(hc.mackey_operator(ctx, rho1.n, rho2.n, s, t),
                          TensorFunction.outer([rho1, rho2]), 0, 2,
                          split_tables(ctx, (s, t)))


def verify_mackey(rho1: InvariantFunction, rho2: InvariantFunction,
                  s: int, t: int) -> Report:
    n1, n2 = rho1.n, rho2.n
    if n1 + n2 != s + t:
        raise ValueError("degree mismatch")
    lhs = hc.hc_restrict(hc.hc_induce(TensorFunction.outer([rho1, rho2]), (n1, n2)),
                         (s, t))
    rhs = mackey_rhs_pair(rho1, rho2, s, t)
    witness = None
    if lhs != rhs:
        rhs_values = rhs.values  # built on each read, so bind it once
        witness = next((f"orbit pair {idx}: {v!r} != {rhs_values[idx]!r}"
                        for idx, v in lhs.values.items() if v != rhs_values[idx]),
                       "tensors differ")
    return Report("mackey", {"n1": n1, "n2": n2, "s": s, "t": t,
                             "q": rho1.table.ctx.q}, witness)


def verify_bialgebra(rho1: InvariantFunction, rho2: InvariantFunction) -> Report:
    """m*(m(rho1 x rho2)) = m*(rho1) . m*(rho2), checked split by split."""
    n = rho1.n + rho2.n
    prod = hc.hc_induce(TensorFunction.outer([rho1, rho2]), (rho1.n, rho2.n))
    params = {"n1": rho1.n, "n2": rho2.n, "q": rho1.table.ctx.q}
    for s in range(n + 1):
        if hc.hc_restrict(prod, (s, n - s)) != mackey_rhs_pair(rho1, rho2, s, n - s):
            return Report("bialgebra", params, f"split ({s},{n - s}) differs")
    return Report("bialgebra", params)
