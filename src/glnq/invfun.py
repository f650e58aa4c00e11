"""Invariant functions on gl_n(F_q): orbit-indexed value vectors, inner
products, indicator and Fourier-character bases, tensors, and graded sums.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import product

import numpy as np

from . import linalg
from .field import Cyclotomic
from .glmat import Matrix, ResourceBudgetError, all_matrices
from .orbits import LOOKUP_BUDGET, OrbitLabel, OrbitTable, enumerate_orbits


class InvariantFunction:
    """A function on gl_n(F_q) constant on adjoint orbits."""

    __slots__ = ("table", "values")

    def __init__(self, table: OrbitTable, values):
        values = tuple(v if isinstance(v, Cyclotomic)
                       else Cyclotomic.rational(table.ctx.p, v) for v in values)
        if len(values) != len(table):
            raise ValueError("one value per orbit required")
        self.table = table
        self.values = values

    @property
    def n(self):
        return self.table.n

    def _check(self, other):
        if not isinstance(other, InvariantFunction) or other.table is not self.table:
            raise ValueError("functions over different orbit tables")
        return other

    def __add__(self, other):
        self._check(other)
        return InvariantFunction(self.table,
                                 [a + b for a, b in zip(self.values, other.values)])

    def __sub__(self, other):
        self._check(other)
        return InvariantFunction(self.table,
                                 [a - b for a, b in zip(self.values, other.values)])

    def __neg__(self):
        return InvariantFunction(self.table, [-a for a in self.values])

    def scale(self, c) -> "InvariantFunction":
        return InvariantFunction(self.table, [v * c for v in self.values])

    def is_zero(self):
        return all(v.is_zero() for v in self.values)

    def __eq__(self, other):
        return (isinstance(other, InvariantFunction)
                and other.table is self.table and other.values == self.values)

    def __hash__(self):
        return hash((id(self.table), self.values))

    def evaluate(self, x: Matrix) -> Cyclotomic:
        return self.values[self.table.index_of_matrix(x)]

    def rational_values(self):
        return [v.as_rational() for v in self.values]

    def to_json(self):
        return {"n": self.n, "q": self.table.ctx.serialize(),
                "values": {lab.serialize(): v.serialize()
                           for lab, v in zip(self.table.labels, self.values)}}

    @classmethod
    def from_json(cls, table: OrbitTable, data) -> "InvariantFunction":
        """The inverse of to_json; a file over another field or degree, or
        with other orbit labels, raises ValueError naming the field."""
        if data["q"] != table.ctx.serialize():
            raise ValueError(f'"q" is {data["q"]!r}, not {table.ctx.serialize()!r}')
        if data["n"] != table.n:
            raise ValueError(f'"n" is {data["n"]!r}, not {table.n}')
        labels = [lab.serialize() for lab in table.labels]
        if set(data["values"]) != set(labels):
            raise ValueError(f'"values" are not indexed by the {len(labels)} '
                             f"orbit labels of degree {table.n}")
        vals = [Cyclotomic.parse(data["values"][lab]) for lab in labels]
        if any(v.p != table.ctx.p for v in vals):
            raise ValueError(f'"values" are not all in Q(zeta_{table.ctx.p})')
        return cls(table, vals)

    def __repr__(self):
        return f"InvariantFunction(n={self.n}, values={list(self.values)})"


def indicator(label: OrbitLabel, table: OrbitTable) -> InvariantFunction:
    i = table.index_of_label(label)
    p = table.ctx.p
    return InvariantFunction(
        table, [Cyclotomic.rational(p, 1 if j == i else 0) for j in range(len(table))])


def indicator_by_index(i: int, table: OrbitTable) -> InvariantFunction:
    return indicator(table.labels[i], table)


def constant_one(table: OrbitTable) -> InvariantFunction:
    return InvariantFunction(table, [1] * len(table))


def inner_product(f: InvariantFunction, g: InvariantFunction) -> Cyclotomic:
    """(f, g) = (1/|G^F|) sum over the space of f * conj(g), orbitwise."""
    if f.table is not g.table:
        raise ValueError("functions over different orbit tables")
    table = f.table
    acc = Cyclotomic.rational(table.ctx.p, 0)
    for size, a, b in zip(table.sizes, f.values, g.values):
        acc = acc + (a * b.conj()) * size
    return acc * Fraction(1, table.gl_order)


def inner_product_rational(f, g) -> Fraction:
    val = inner_product(f, g)
    return val.as_rational()


@lru_cache(maxsize=None)
def character_matrix(table: OrbitTable):
    """The Fourier characters at the orbit representatives as an integer
    matrix over Q(zeta_p) (see linalg): (X, 1), where X has shape
    (p, orbits, orbits) and X[t, O, x] = N_t - N_(p-1) with
    N_t = #{a in O : Tr(trace(a x)) = t}, so chi_O(x) = sum_t X[t, O, x] zeta_p^t."""
    ctx, n = table.ctx, table.n
    p = ctx.p
    norb = len(table)
    counts = np.zeros((norb, norb, p), dtype=np.int64)  # [x, O, t]
    if n == 0:
        counts[0, 0, 0] = 1
    else:
        orb = table.lookup
        if orb is None:
            raise ResourceBudgetError(ctx.q ** (n * n), LOOKUP_BUDGET)
        mats = all_matrices(ctx, n)
        # Tr_{F_q/F_p}(trace(a x)) for all a at once, per representative x
        for xi, rep in enumerate(table.reps):
            xa = rep.a
            if ctx.k == 1:
                prod_tr = np.einsum("mij,ji->m", mats.astype(np.int64), xa.astype(np.int64)) % p
            else:
                acc = np.zeros(len(mats), dtype=np.int16)
                for i in range(n):
                    for j in range(n):
                        acc = ctx.ADD[acc, ctx.MUL[mats[:, i, j], xa[j, i]]]
                prod_tr = ctx.TR[acc].astype(np.int64)
            counts[xi] = np.bincount(orb * p + prod_tr, minlength=norb * p).reshape(norb, p)
    return linalg.reduced(counts.transpose(2, 1, 0), 1)


@lru_cache(maxsize=None)
def fourier_character_basis(table: OrbitTable):
    """One character per orbit O: chi_O(x) = sum over a in O of psi(trace(a x)),
    with psi(a) = zeta_p^Tr(a). Orthogonal; chi_O(0) = |O|."""
    planes, _ = character_matrix(table)
    p = table.ctx.p
    return tuple(
        InvariantFunction(table, [Cyclotomic(p, planes[:p - 1, oi, xi])
                                  for xi in range(len(table))])
        for oi in range(len(table)))


def coords(f: InvariantFunction, basis) -> list:
    """Coefficients of f in an orthogonal basis, with exact reconstruction."""
    out = []
    for b in basis:
        norm = inner_product(b, b)
        nr = norm.as_rational()
        if nr == 0:
            raise ZeroDivisionError("degenerate basis vector")
        out.append(inner_product(f, b) * Fraction(nr.denominator, nr.numerator))
    return out


# ---------------------------------------------------------------------------


class TensorFunction:
    """An element of C_{n_1} x ... x C_{n_k}, dense over orbit-label tuples."""

    __slots__ = ("tables", "values")

    def __init__(self, tables, values):
        self.tables = tuple(tables)
        self.values = dict(values)
        full = 1
        for t in self.tables:
            full *= len(t)
        if len(self.values) != full:
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
    def outer(cls, factors) -> "TensorFunction":
        factors = list(factors)
        tables = [f.table for f in factors]
        vals = {}
        for idx in product(*(range(len(t)) for t in tables)):
            v = factors[0].values[idx[0]]
            for pos in range(1, len(factors)):
                v = v * factors[pos].values[idx[pos]]
            vals[idx] = v
        return cls(tables, vals)

    @classmethod
    def zero(cls, tables) -> "TensorFunction":
        tables = tuple(tables)
        p = tables[0].ctx.p if tables else 2
        z = Cyclotomic.rational(p, 0)
        vals = {idx: z for idx in product(*(range(len(t)) for t in tables))}
        return cls(tables, vals)

    def _check(self, other):
        if not isinstance(other, TensorFunction) or other.tables != self.tables:
            raise ValueError("tensors over different tables")
        return other

    def __add__(self, other):
        self._check(other)
        return TensorFunction(self.tables,
                              {k: v + other.values[k] for k, v in self.values.items()})

    def __sub__(self, other):
        self._check(other)
        return TensorFunction(self.tables,
                              {k: v - other.values[k] for k, v in self.values.items()})

    def scale(self, c) -> "TensorFunction":
        return TensorFunction(self.tables, {k: v * c for k, v in self.values.items()})

    def permute(self, perm) -> "TensorFunction":
        """Reorder tensor factors: new factor i is old factor perm[i]."""
        tables = tuple(self.tables[p] for p in perm)
        vals = {}
        for idx, v in self.values.items():
            vals[tuple(idx[p] for p in perm)] = v
        return TensorFunction(tables, vals)

    def is_zero(self):
        return all(v.is_zero() for v in self.values.values())

    def __eq__(self, other):
        return (isinstance(other, TensorFunction) and other.tables == self.tables
                and other.values == self.values)

    def as_function(self) -> InvariantFunction:
        """Collapse a one-factor tensor."""
        if len(self.tables) != 1:
            raise ValueError("not a single-factor tensor")
        t = self.tables[0]
        return InvariantFunction(t, [self.values[(i,)] for i in range(len(t))])

    def __repr__(self):
        return f"TensorFunction(degrees={self.degrees})"


def apply_operator(op, t: TensorFunction, start: int, count: int,
                   tables) -> TensorFunction:
    """Apply the rational operator op = (x, den) (see linalg) along the
    factors [start, start + count) of t.  The columns of x are the index
    tuples of those factors in product order, its rows those of the factors
    `tables` that replace them.  The values' numerators, scaled to one
    common denominator, pass through one integer array."""
    x, den = op
    p = t.p
    pre = math.prod(len(tb) for tb in t.tables[:start])
    vals = [t.values[idx] for idx in t.index_tuples()]
    vden = math.lcm(*(v.den for v in vals))
    ints = np.array([a * (vden // v.den) for v in vals for a in v.num], dtype=object)
    out = (x @ ints.reshape(pre, x.shape[1], -1)).reshape(-1, p - 1)
    d = den * vden
    tables = t.tables[:start] + tuple(tables) + t.tables[start + count:]
    return TensorFunction(tables, zip(
        product(*(range(len(tb)) for tb in tables)),
        (Cyclotomic._from_ints(p, row, d) for row in out.tolist())))


def tensor_inner_product(s: TensorFunction, t: TensorFunction) -> Cyclotomic:
    """Inner product on the tensor space: factorwise orbit sums."""
    if s.tables != t.tables:
        raise ValueError("tensors over different tables")
    p = s.p
    acc = Cyclotomic.rational(p, 0)
    denom = 1
    for tab in s.tables:
        denom *= tab.gl_order
    for idx in s.index_tuples():
        w = 1
        for tab, i in zip(s.tables, idx):
            w *= tab.sizes[i]
        acc = acc + (s.values[idx] * t.values[idx].conj()) * w
    return acc * Fraction(1, denom)


# ---------------------------------------------------------------------------


class GradedElement:
    """A finite formal sum of invariant functions across degrees."""

    __slots__ = ("ctx", "components")

    def __init__(self, ctx, components):
        comps = {}
        for n, f in dict(components).items():
            if not f.is_zero():
                comps[n] = f
        self.ctx = ctx
        self.components = comps

    @classmethod
    def homogeneous(cls, f: InvariantFunction) -> "GradedElement":
        return cls(f.table.ctx, {f.n: f})

    @classmethod
    def scalar(cls, ctx, value) -> "GradedElement":
        table = enumerate_orbits(0, ctx)
        return cls(ctx, {0: InvariantFunction(table, [value])})

    def degrees(self):
        return sorted(self.components)

    def component(self, n) -> InvariantFunction:
        if n in self.components:
            return self.components[n]
        table = enumerate_orbits(n, self.ctx)
        return InvariantFunction(table, [0] * len(table))

    def __add__(self, other):
        if other.ctx != self.ctx:
            raise ValueError("mixed contexts")
        comps = dict(self.components)
        for n, f in other.components.items():
            comps[n] = comps[n] + f if n in comps else f
        return GradedElement(self.ctx, comps)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c) -> "GradedElement":
        return GradedElement(self.ctx, {n: f.scale(c) for n, f in self.components.items()})

    def is_zero(self):
        return not self.components

    def __eq__(self, other):
        return (isinstance(other, GradedElement) and other.ctx == self.ctx
                and other.components == self.components)

    def __repr__(self):
        return f"GradedElement(degrees={self.degrees()})"
