"""Harish-Chandra restriction and induction for block compositions, as exact
rational matrices over the indicator bases, plus Mackey/adjunction/
transitivity/parabolic-independence verifiers.

Every operator is taken along the upper parabolic P of its split.  A split
with at most one nonzero part has P = L = GL_n and the identity for both.
Otherwise restriction counts x + u over the unipotent radical through the
orbit lookup, and induction counts cosets P\\GL_n for two nonzero parts
(`adjunction` checks it against restriction) and is the adjoint
(invfun.adjoint) of restriction for three or more.  The lower parabolic is
w P' w^-1, P' the upper parabolic of the reversed split and w the
block-reversing permutation: `parabolic-independence` checks each operator
against the reversed split's with the Levi factors reversed.

The Mackey check takes two sequences of test functions and checks every
pair at once: the pairs rho1 x rho2 (rho1 outer, rho2 inner) are the
columns of one 3-D block X = kron(F, G), F and G the functions' value
planes side by side, so each side is one product chain,
Res_(s,t) . (Ind_(n1,n2) . X) against mackey_operator . X, with one
Report per pair.

Internally a "split" is a tuple of nonnegative integers (zero parts mean
degree-0 tensor factors); the public Composition type has positive parts.
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from . import linalg
from .field import FqContext, digits, undigits
from .glmat import (MATMUL_CHUNK, Composition, GLTableError, ResourceBudgetError,
                    _block_starts, _embed_blocks, _shape_mask, batch_inverse,
                    batch_matmul, encode_matrices, enumerate_gl_order, gl_arrays,
                    unipotent_radical_elems, unipotent_radical_order)
from .invfun import (InvariantFunction, TensorFunction, adjoint, apply_operator,
                     inner_product, tensor_inner_product)
from .orbits import LOOKUP_BUDGET, OrbitCountError, enumerate_orbits
from .report import Report


def _parts(c):
    return c.parts if isinstance(c, Composition) else tuple(int(p) for p in c)


def split_tables(ctx: FqContext, parts):
    return tuple(enumerate_orbits(p, ctx) for p in _parts(parts))


def parabolic_group_order(ctx: FqContext, parts: tuple) -> int:
    """|P^F| = |L^F| q^dim U, with L^F the product of the GL_{n_i}(F_q); the
    upper and lower parabolics have the same order."""
    return unipotent_radical_order(ctx, parts) * math.prod(
        enumerate_gl_order(p, ctx) for p in parts)


def _block_lookup(ctx, sub, starts, parts, tabs):
    """Flat tuple codes for the diagonal blocks of a stack of matrices, int64,
    which widens each narrow lookup before it is added."""
    codes = np.zeros(len(sub), dtype=np.int64)
    for s, p, tab in zip(starts, parts, tabs):
        codes = codes * len(tab) + tab.lookup[encode_matrices(ctx, sub[:, s:s + p, s:s + p])]
    return codes


@lru_cache(maxsize=None)
def restriction_matrix(ctx: FqContext, parts: tuple):
    """Matrix of *R along the split as a (x, den) pair (see linalg): rows =
    Levi label tuples in product order, cols = orbits of gl_n, entries the
    counts of x + u in each orbit over u in U, divided by |U|.  A split with
    at most one nonzero part, the empty one too, has the identity."""
    parts = tuple(parts)
    n = sum(parts)
    table_n = enumerate_orbits(n, ctx)
    if sum(p > 0 for p in parts) <= 1:  # P = L = GL_n, no U and no lookup
        return linalg.identity(len(table_n))
    if table_n.lookup is None:
        raise ResourceBudgetError(ctx.q ** (n * n), LOOKUP_BUDGET)
    tabs = split_tables(ctx, parts)
    U = unipotent_radical_elems(ctx, parts)
    # every Levi representative tuple, in product order, as one block-diagonal stack
    idx = np.indices([len(t) for t in tabs]).reshape(len(tabs), -1)
    levi = _embed_blocks([np.stack([r.a for r in tab.reps])[i] for tab, i in zip(tabs, idx)],
                         parts)
    orb = table_n.lookup[encode_matrices(ctx, ctx.ADD[levi[:, None], U])]
    norb = len(table_n)
    counts = np.bincount((np.arange(len(levi))[:, None] * norb + orb).ravel(),
                         minlength=len(levi) * norb)
    return linalg.reduced(counts.reshape(len(levi), norb), len(U))


def _row_space_keys(ctx: FqContext, G, lo: int):
    """For each g of the stack G, one code for the span of rows lo..n-1 of g:
    equal codes, equal spans.  The q^d sorted codes (< q^n) of a span of
    dimension d hold its reduced echelon basis, pivots on the last entries,
    at positions q^0, .., q^(d-1): the q^i least span the first i basis
    vectors.  The key is those d codes as one code below q^(n d); the spans
    are filled MATMUL_CHUNK matrices at a time."""
    n = G.shape[-1]
    d = n - lo
    coeffs = digits(np.arange(ctx.q ** d), ctx.q, d)
    spans = np.empty((len(G), len(coeffs)), dtype=np.min_scalar_type(ctx.q ** n - 1))
    for start in range(0, len(G), MATMUL_CHUNK):
        spans[start:start + MATMUL_CHUNK] = undigits(
            batch_matmul(ctx, coeffs, G[start:start + MATMUL_CHUNK, lo:]), ctx.q)
    spans.sort(axis=1)
    return undigits(spans[:, ctx.q ** np.arange(d)], ctx.q ** n)


@lru_cache(maxsize=None)
def _coset_table(ctx: FqContext, n: int):
    """For lo = 1..n-1, {lo: (g, g^-1, sizes)}: one g per right coset P g in
    GL_n, P the upper parabolic of (lo, n - lo), copied out of the GL_n
    stack, which is then freed.  p g's last row block p_22 g_2 spans what
    g's spans, so a coset is a span of its rows lo..n-1.  Only the
    representatives are inverted, by batch_inverse, and each g g^-1 must be
    I, else GLTableError naming the code of g."""
    G = gl_arrays(ctx, n)[0]  # its codes go at once: uint32 past 2^16 matrices
    out = {}
    for lo in range(1, n):
        _, first, sizes = np.unique(_row_space_keys(ctx, G, lo), return_index=True,
                                    return_counts=True)
        g = G[first]
        gi = batch_inverse(ctx, g).astype(g.dtype)
        wrong = (batch_matmul(ctx, g, gi) != np.eye(n, dtype=np.int16)).any(axis=(1, 2))
        if wrong.any():
            raise GLTableError(f"the inverse of the matrix of code "
                               f"{encode_matrices(ctx, g[wrong][:1])[0]} does not invert it")
        out[lo] = (g, gi, sizes)
    return out


def _coset_reps(ctx: FqContext, parts: tuple):
    """(g, g^-1) stacked, one g per right coset P g in GL_n, P the upper
    parabolic of a split of two nonzero parts; every coset must hold |P|
    elements, else OrbitCountError."""
    n = sum(parts)
    g, gi, sizes = _coset_table(ctx, n)[parts[0]]
    order = parabolic_group_order(ctx, parts)
    bad = np.flatnonzero(sizes != order)
    if len(bad):
        raise OrbitCountError(f"a coset of the parabolic {parts} in GL_{n} holds "
                              f"{sizes[bad[0]]} elements, not |P| = {order}")
    return g, gi


def _coset_count(ctx: FqContext, parts: tuple):
    """The induction matrix of a split of two nonzero parts: entries
    the counts of cosets P g in P\\GL_n whose conjugate g x g^-1 of the
    row's representative x lies in P with Levi part in each tuple.
    Membership and Levi label depend on the coset alone, so no count is
    divided by |P|."""
    tabs = split_tables(ctx, parts)
    reps = np.stack([r.a for r in enumerate_orbits(sum(parts), ctx).reps])
    g, gi = _coset_reps(ctx, parts)
    conj = batch_matmul(ctx, batch_matmul(ctx, g, reps[:, None]), gi)  # (rep, coset)
    ok = ~np.any(conj[:, :, _shape_mask(parts)], axis=-1)
    codes = _block_lookup(ctx, conj[ok], _block_starts(parts)[0], parts, tabs)
    ntuples = math.prod(len(t) for t in tabs)
    counts = np.bincount(np.nonzero(ok)[0] * ntuples + codes,
                         minlength=len(reps) * ntuples)
    return linalg.reduced(counts.reshape(len(reps), ntuples), 1)


@lru_cache(maxsize=None)
def induction_matrix(ctx: FqContext, parts: tuple):
    """Matrix of R along the split as a (x, den) pair (see linalg): rows =
    orbits of gl_n, cols = Levi label tuples in product order.  Splits of
    two nonzero parts count cosets (witnessed by `adjunction`); every other
    split is the adjoint of its restriction, (R t, g) = (t, *R g), the
    identity where the restriction is."""
    parts = tuple(parts)
    if len(parts) == 2 and 0 not in parts:
        return _coset_count(ctx, parts)
    return adjoint(restriction_matrix(ctx, parts),
                   (enumerate_orbits(sum(parts), ctx),), split_tables(ctx, parts))


def hc_restrict(f: InvariantFunction, c) -> TensorFunction:
    """*R of f along the composition, as a tensor over the part tables."""
    parts = _parts(c)
    if not parts:
        raise ValueError("the empty split () has no tensor factors to restrict to")
    if sum(parts) != f.n:
        raise ValueError("degree of f must equal the composition size")
    return tensor_restrict_factor(TensorFunction.outer([f]), 0, parts)


def hc_induce(t: TensorFunction, c) -> InvariantFunction:
    """R of a tensor along the composition, landing in gl_n."""
    parts = _parts(c)
    if not parts:
        raise ValueError("the empty split () has no tensor factors to induce from")
    if t.degrees != parts:
        raise ValueError("tensor degrees must match the composition parts")
    return tensor_induce_span(t, 0, len(t.tables)).as_function()


# ---------------------------------------------------------------------------
# tensor-level staging helpers


def tensor_restrict_factor(t: TensorFunction, pos: int, subparts) -> TensorFunction:
    """Expand one tensor factor by *R along subparts."""
    subparts = _parts(subparts)
    ctx = t.tables[pos].ctx
    if sum(subparts) != t.tables[pos].n:
        raise ValueError("subcomposition size mismatch")
    return apply_operator(restriction_matrix(ctx, subparts), t, pos, 1,
                          split_tables(ctx, subparts))


def tensor_induce_span(t: TensorFunction, start: int, count: int) -> TensorFunction:
    """Induce the consecutive factors [start, start+count) into one factor."""
    ctx = t.tables[start].ctx
    subparts = tuple(t.tables[start + i].n for i in range(count))
    return apply_operator(induction_matrix(ctx, subparts), t, start, count,
                          (enumerate_orbits(sum(subparts), ctx),))


# ---------------------------------------------------------------------------
# verifiers


def verify_adjunction(t: TensorFunction, g: InvariantFunction, c) -> Report:
    """(R t, g) = (t, *R g), exactly."""
    parts = _parts(c)
    lhs = inner_product(hc_induce(t, parts), g)
    rhs = tensor_inner_product(t, hc_restrict(g, parts))
    return Report("adjunction", {"parts": list(parts), "q": t.tables[0].ctx.q},
                  None if lhs == rhs else f"{lhs!r} != {rhs!r}")


def verify_transitivity(f: InvariantFunction, outer, subcomps) -> Report:
    """Restricting in stages equals restricting in one step."""
    outer_parts = _parts(outer)
    subs = [_parts(s) for s in subcomps]
    if len(subs) != len(outer_parts) or any(sum(s) != p for s, p in
                                            zip(subs, outer_parts)):
        raise ValueError("subcompositions must refine the outer composition")
    staged = hc_restrict(f, outer_parts)
    for pos in reversed(range(len(outer_parts))):
        staged = tensor_restrict_factor(staged, pos, subs[pos])
    direct = hc_restrict(f, tuple(x for s in subs for x in s))
    return Report("transitivity-restriction",
                  {"outer": list(outer_parts), "subs": [list(s) for s in subs]},
                  None if staged == direct else "staged != direct")


def _permute_factors(pair, dims, order):
    """A 2-D (x, den) pair whose rows are index tuples over factors of the
    given sizes, in product order, with its rows reordered so that factor
    order[i] comes i-th in each tuple."""
    x, den = pair
    rows = np.arange(len(x)).reshape(dims).transpose(order).ravel()
    return linalg.reduced(x[rows], den)


def verify_parabolic_independence(ctx: FqContext, c) -> Report:
    """Upper and lower parabolics give the same R and *R: each operator
    equals the reversed split's with the Levi factors reversed."""
    parts = _parts(c)
    params = {"n": sum(parts), "parts": list(parts)}
    dims = [len(tab) for tab in split_tables(ctx, parts[::-1])]
    reverse = range(len(parts))[::-1]
    # induction is compared through its transpose, whose rows are the tuples
    for kind, build, as_rows in (("restriction", restriction_matrix, lambda a: a),
                                 ("induction", induction_matrix, linalg.conj_t)):
        reversed_side = _permute_factors(as_rows(build(ctx, parts[::-1])), dims, reverse)
        if not linalg.mat_eq(as_rows(build(ctx, parts)), reversed_side):
            return Report("parabolic-independence", params, f"{kind} matrices differ")
    return Report("parabolic-independence", params)


def mackey_index_set(n1, n2, s, t):
    """The 2x2 nonnegative matrices with row sums (n1, n2), column sums (s, t)."""
    out = []
    for a in range(min(n1, s) + 1):
        b, c = n1 - a, s - a
        d = n2 - c
        if b >= 0 and c >= 0 and d >= 0 and b + d == t:
            out.append((a, b, c, d))
    return out


@lru_cache(maxsize=None)
def mackey_operator(ctx: FqContext, n1: int, n2: int, s: int, t: int):
    """The double-coset side of the Mackey formula as one (x, den) operator
    from the tensors over (n1, n2) to those over (s, t): the sum over
    mackey_index_set of (Ind_(a,c) x Ind_(b,d)) . P_w . (Res_(a,b) x Res_(c,d)),
    where P_w reorders the rows (a, b, c, d) as (a, c, b, d)."""
    terms = []
    for a, b, c, d in mackey_index_set(n1, n2, s, t):
        res = linalg.kron(restriction_matrix(ctx, (a, b)), restriction_matrix(ctx, (c, d)))
        dims = [len(tab) for tab in split_tables(ctx, (a, b, c, d))]
        ind = linalg.kron(induction_matrix(ctx, (a, c)), induction_matrix(ctx, (b, d)))
        terms.append(linalg.matmul(ind, _permute_factors(res, dims, (0, 2, 1, 3))))
    return linalg.add(*terms)


def _pair_context(rhos1, rhos2):
    """(ctx, n1, n2) for two nonempty sequences of test functions, each over
    one orbit table, both over one field."""
    if not rhos1 or not rhos2:
        raise ValueError("each side needs at least one test function")
    t1, t2 = rhos1[0].table, rhos2[0].table
    if (any(f.table is not t1 for f in rhos1) or any(f.table is not t2 for f in rhos2)
            or t1.ctx != t2.ctx):
        raise ValueError("test functions over different orbit tables")
    return t1.ctx, t1.n, t2.n


def _function_block(rhos):
    """Functions over one table side by side as a 3-D (x, den) pair (see
    linalg), each function's planes a column: x[t, o, i] / den is the
    coefficient of zeta^t in rhos[i] at orbit o."""
    den = math.lcm(*(f.den for f in rhos))
    return linalg.reduced(np.stack([linalg.scaled(f.num, den // f.den) for f in rhos],
                                   axis=-1), den)


def _pair_block(rhos1, rhos2):
    """The tensors rho1 x rho2 over every pair, rho1 outer and rho2 inner, as
    the columns of one 3-D (x, den) pair over the index tuples of (T_n1, T_n2)."""
    return linalg.kron(_function_block(rhos1), _function_block(rhos2))


def _columns(pair, tables) -> tuple:
    """One TensorFunction over tables per column of a 3-D (x, den) pair whose
    rows are their index tuples in product order."""
    x, den = pair
    x = x.reshape((len(x),) + tuple(map(len, tables)) + (-1,))
    return tuple(TensorFunction._from_array(tables, x[..., i], den)
                 for i in range(x.shape[-1]))


def mackey_rhs(rhos1, rhos2, s: int, t: int, block=None) -> tuple:
    """The double-coset side of the Mackey formula on every pair of test
    functions, one tensor over (s, t) per pair, rho1 outer and rho2 inner:
    one product of mackey_operator with the stacked block of rho1 x rho2,
    the _pair_block the caller passes or else built here."""
    rhos1, rhos2 = tuple(rhos1), tuple(rhos2)
    ctx, n1, n2 = _pair_context(rhos1, rhos2)
    if block is None:
        block = _pair_block(rhos1, rhos2)
    return _columns(linalg.matmul(mackey_operator(ctx, n1, n2, s, t), block),
                    split_tables(ctx, (s, t)))


def _mackey_sides(rhos1, rhos2, splits):
    """For each (s, t) of splits, the pairs (*R_(s,t) R_(n1,n2) (rho1 x rho2),
    mackey_rhs) over every pair of test functions, rho1 outer and rho2
    inner.  The block X of the stacked rho1 x rho2 and the induced block
    Ind . X are formed once, and each side of a split is one product."""
    rhos1, rhos2 = tuple(rhos1), tuple(rhos2)
    ctx, n1, n2 = _pair_context(rhos1, rhos2)
    block = _pair_block(rhos1, rhos2)
    induced = linalg.matmul(induction_matrix(ctx, (n1, n2)), block)
    for s, t in splits:
        lhs = _columns(linalg.matmul(restriction_matrix(ctx, (s, t)), induced),
                       split_tables(ctx, (s, t)))
        yield zip(lhs, mackey_rhs(rhos1, rhos2, s, t, block))


def _tensor_witness(lhs: TensorFunction, rhs: TensorFunction):
    """None if the tensors are equal, else the first index tuple, in product
    order, at which their values differ."""
    if lhs == rhs:
        return None
    rhs_values = rhs.values  # built on each read, so bind it once
    return next((f"orbit pair {idx}: {v!r} != {rhs_values[idx]!r}"
                 for idx, v in lhs.values.items() if v != rhs_values[idx]),
                "tensors differ")


def verify_mackey(rhos1, rhos2, s: int, t: int) -> list:
    """*R_(s,t) R_(n1,n2) (rho1 x rho2) = mackey_rhs on every pair of test
    functions, one Report per pair, rho1 outer and rho2 inner."""
    rhos1, rhos2 = tuple(rhos1), tuple(rhos2)
    ctx, n1, n2 = _pair_context(rhos1, rhos2)
    if n1 + n2 != s + t:
        raise ValueError("degree mismatch")
    sides, = _mackey_sides(rhos1, rhos2, [(s, t)])
    return [Report("mackey", {"n1": n1, "n2": n2, "s": s, "t": t, "q": ctx.q},
                   _tensor_witness(lhs, rhs)) for lhs, rhs in sides]
