"""Reference value layer kept as the oracle for glnq.invfun: TupleFunction,
an invariant function as one Cyclotomic per orbit, and DictTensor, a tensor
as a dict from orbit-index tuples to Cyclotomic, with every sum, product and
permutation taken one value at a time; the per-value apply_operator, which
scales the values to one denominator, multiplies by the operator and builds
each output value with its own gcd; apply_cyclotomic_operator, which applies
a Q(zeta_p) operator one Cyclotomic multiply-add at a time; and the inner
products as sums of one Cyclotomic product per orbit or orbit tuple.

This is the layer that glnq.invfun's integer arrays over one denominator
replaced; the tests feed both the same values and compare the results.
character_counts is the entry-by-entry table sum that character_matrix's
trace table over row codes replaced, and trace_table that trace table by
one ADD and MUL lookup per coordinate.  The
operator builders are bound here at import, so a test that patches glnq.hc's
bindings reaches the fast path only.
"""
import math
from fractions import Fraction
from itertools import product

import numpy as np

from glnq.duality import duality_operator
from glnq.field import Cyclotomic, digits
from glnq.glmat import all_matrices
from glnq.hc import _parts, induction_matrix, restriction_matrix, split_tables
from glnq.hopf import antipode_matrix
from glnq.orbits import enumerate_orbits


class TupleFunction:
    """A function on gl_n(F_q) constant on adjoint orbits: one value per orbit."""

    __slots__ = ("table", "values")

    def __init__(self, table, values):
        values = tuple(v if isinstance(v, Cyclotomic)
                       else Cyclotomic.rational(table.ctx.p, v) for v in values)
        if len(values) != len(table):
            raise ValueError("one value per orbit required")
        self.table = table
        self.values = values

    @property
    def n(self):
        return self.table.n

    def __add__(self, other):
        return TupleFunction(self.table,
                             [a + b for a, b in zip(self.values, other.values)])

    def __sub__(self, other):
        return TupleFunction(self.table,
                             [a - b for a, b in zip(self.values, other.values)])

    def __neg__(self):
        return TupleFunction(self.table, [-a for a in self.values])

    def scale(self, c) -> "TupleFunction":
        return TupleFunction(self.table, [v * c for v in self.values])

    def is_zero(self):
        return all(v.is_zero() for v in self.values)

    def __eq__(self, other):
        return (isinstance(other, TupleFunction)
                and other.table is self.table and other.values == self.values)

    def __hash__(self):
        return hash((id(self.table), self.values))

    def to_json(self):
        return {"n": self.n, "q": self.table.ctx.serialize(),
                "values": {lab.serialize(): v.serialize()
                           for lab, v in zip(self.table.labels, self.values)}}


class DictTensor:
    """An element of C_{n_1} x ... x C_{n_k}, dense over orbit-label tuples."""

    __slots__ = ("tables", "values")

    def __init__(self, tables, values):
        self.tables = tuple(tables)
        self.values = dict(values)
        if len(self.values) != math.prod(len(t) for t in self.tables):
            raise ValueError("dense value grid required")

    @property
    def degrees(self):
        return tuple(t.n for t in self.tables)

    @property
    def p(self):
        return self.tables[0].ctx.p if self.tables else 2

    def index_tuples(self):
        return product(*(range(len(t)) for t in self.tables))

    @classmethod
    def outer(cls, factors) -> "DictTensor":
        factors = list(factors)
        tables = [f.table for f in factors]
        values = [f.values for f in factors]  # read once: glnq builds them per read
        vals = {}
        for idx in product(*(range(len(t)) for t in tables)):
            v = values[0][idx[0]]
            for pos in range(1, len(factors)):
                v = v * values[pos][idx[pos]]
            vals[idx] = v
        return cls(tables, vals)

    def __add__(self, other):
        other_values = other.values
        return DictTensor(self.tables,
                          {k: v + other_values[k] for k, v in self.values.items()})

    def __sub__(self, other):
        other_values = other.values
        return DictTensor(self.tables,
                          {k: v - other_values[k] for k, v in self.values.items()})

    def scale(self, c) -> "DictTensor":
        return DictTensor(self.tables, {k: v * c for k, v in self.values.items()})

    def permute(self, perm) -> "DictTensor":
        """Reorder tensor factors: new factor i is old factor perm[i]."""
        tables = tuple(self.tables[p] for p in perm)
        return DictTensor(tables, {tuple(idx[p] for p in perm): v
                                   for idx, v in self.values.items()})

    def is_zero(self):
        return all(v.is_zero() for v in self.values.values())

    def __eq__(self, other):
        return (isinstance(other, DictTensor) and other.tables == self.tables
                and other.values == self.values)

    def as_function(self) -> TupleFunction:
        if len(self.tables) != 1:
            raise ValueError("not a single-factor tensor")
        t = self.tables[0]
        return TupleFunction(t, [self.values[(i,)] for i in range(len(t))])


def tensor_concat(a: DictTensor, b: DictTensor) -> DictTensor:
    vals, b_values = {}, b.values
    for ia, va in a.values.items():
        for ib, vb in b_values.items():
            vals[ia + ib] = va * vb
    return DictTensor(a.tables + b.tables, vals)


def apply_operator(op, t: DictTensor, start: int, count: int, tables) -> DictTensor:
    """Apply the rational operator op = (x, den) along the factors
    [start, start + count) of t, building each output value on its own."""
    x, den = op
    p = t.p
    pre = math.prod(len(tb) for tb in t.tables[:start])
    t_values = t.values
    vals = [t_values[idx] for idx in t.index_tuples()]
    vden = math.lcm(*(v.den for v in vals))
    ints = np.array([a * (vden // v.den) for v in vals for a in v.num], dtype=object)
    out = (x @ ints.reshape(pre, x.shape[1], -1)).reshape(-1, p - 1)
    d = den * vden
    tables = t.tables[:start] + tuple(tables) + t.tables[start + count:]
    return DictTensor(tables, zip(
        product(*(range(len(tb)) for tb in tables)),
        (Cyclotomic._from_ints(p, row, d) for row in out.tolist())))


def apply_cyclotomic_operator(op, t: DictTensor, start: int, count: int,
                              tables) -> DictTensor:
    """Apply op = (x, den) over Q(zeta_p), x of shape (p - 1, rows, cols) with
    x[k, r, c] the coefficient of zeta^k, along the factors [start, start +
    count) of t: its rows are the index tuples of `tables`, its columns those
    of the replaced factors, in product order, and each output value is a
    sum of one Cyclotomic product per column."""
    x, den = op
    p = t.p
    entry = [[Cyclotomic._from_ints(p, [int(v) for v in x[:, r, c]], den)
              for c in range(x.shape[2])] for r in range(x.shape[1])]
    before, after = t.tables[:start], t.tables[start + count:]
    cols = list(product(*(range(len(tb)) for tb in t.tables[start:start + count])))
    rows = list(product(*(range(len(tb)) for tb in tables)))
    t_values, vals = t.values, {}
    for pre in product(*(range(len(tb)) for tb in before)):
        for post in product(*(range(len(tb)) for tb in after)):
            for r, row in enumerate(rows):
                acc = Cyclotomic.rational(p, 0)
                for c, col in enumerate(cols):
                    acc = acc + entry[r][c] * t_values[pre + col + post]
                vals[pre + row + post] = acc
    return DictTensor(before + tuple(tables) + after, vals)


def inner_product(f, g) -> Cyclotomic:
    """(f, g) = (1/|G^F|) sum over the space of f * conj(g), orbitwise, for
    any two functions with .table and .values."""
    if f.table is not g.table:
        raise ValueError("functions over different orbit tables")
    table = f.table
    acc = Cyclotomic.rational(table.ctx.p, 0)
    for size, a, b in zip(table.sizes, f.values, g.values):
        acc = acc + (a * b.conj()) * size
    return acc * Fraction(1, table.gl_order)


def tensor_inner_product(s, t) -> Cyclotomic:
    """Inner product on the tensor space, one orbit tuple at a time, for any
    two tensors with .tables and .values."""
    if s.tables != t.tables:
        raise ValueError("tensors over different tables")
    p = s.tables[0].ctx.p if s.tables else 2
    acc = Cyclotomic.rational(p, 0)
    s_values, t_values = s.values, t.values
    for idx in product(*(range(len(tab)) for tab in s.tables)):
        w = math.prod(tab.sizes[i] for tab, i in zip(s.tables, idx))
        acc = acc + (s_values[idx] * t_values[idx].conj()) * w
    return acc * Fraction(1, math.prod(tab.gl_order for tab in s.tables))


# ---------------------------------------------------------------------------
# the operators of glnq.hc, glnq.duality and glnq.hopf through this layer


def hc_restrict(f: TupleFunction, c) -> DictTensor:
    parts = _parts(c)
    ctx = f.table.ctx
    return apply_operator(restriction_matrix(ctx, parts),
                          DictTensor.outer([f]), 0, 1, split_tables(ctx, parts))


def hc_induce(t: DictTensor, c) -> TupleFunction:
    parts = _parts(c)
    ctx = t.tables[0].ctx
    return apply_operator(induction_matrix(ctx, parts), t, 0, len(t.tables),
                          (enumerate_orbits(sum(parts), ctx),)).as_function()


def duality_apply(f: TupleFunction) -> TupleFunction:
    return apply_operator(duality_operator(f.n, f.table.ctx).matrix,
                          DictTensor.outer([f]), 0, 1, (f.table,)).as_function()


def antipode_function(f: TupleFunction) -> TupleFunction:
    return apply_operator(antipode_matrix(f.table.ctx, f.n),
                          DictTensor.outer([f]), 0, 1, (f.table,)).as_function()


def trace_table(ctx, n):
    """T[u, v] = Tr(sum_j u_j v_j) in F_p over the q^n row vectors, the sum
    taken one coordinate at a time through the field's ADD and MUL tables."""
    vecs = digits(np.arange(ctx.q ** n), ctx.q, n)
    dots = np.zeros((len(vecs), len(vecs)), dtype=np.int16)
    for j in range(n):
        dots = ctx.ADD[dots, ctx.MUL[vecs[:, None, j], vecs[None, :, j]]]
    return ctx.TR[dots]


def character_counts(table):
    """N[x, O, t] = #{a in O : Tr(trace(a x)) = t} at each representative x
    (degree n >= 1), with trace(a x) summed entry by entry through the
    field's ADD and MUL tables."""
    ctx, n, p = table.ctx, table.n, table.ctx.p
    mats = all_matrices(ctx, n)
    counts = np.zeros((len(table), len(table), p), dtype=np.int64)
    for xi, rep in enumerate(table.reps):
        acc = np.zeros(len(mats), dtype=np.int16)
        for i in range(n):
            for j in range(n):
                acc = ctx.ADD[acc, ctx.MUL[mats[:, i, j], rep.a[j, i]]]
        # the lookup is held narrow (uint8 up to 255 orbits): widen it first
        counts[xi] = np.bincount(table.lookup.astype(np.int64) * p + ctx.TR[acc],
                                 minlength=len(table) * p).reshape(len(table), p)
    return counts
