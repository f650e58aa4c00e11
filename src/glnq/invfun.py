"""Invariant functions on gl_n(F_q): orbit-indexed value vectors, inner
products, indicator and Fourier-character bases, tensors, and graded sums.

A function or tensor holds its values in Q(zeta_p) as one read-only numpy
integer array `num` of shape (p - 1, orbit dims...), planes (in the basis
of Cyclotomic.num) first as in a linalg operator, over one int `den` > 0
with gcd(den, *num.flat) == 1: the pair (num, den) of linalg, in lowest
terms, with num in the narrowest of int16, int32 and int64 that holds it
and an object array of Python ints past int64.  So equal functions have
equal (num, den), dtype included, the only state they keep.  `.values`
(Cyclotomics) is built from num on each read and never kept: by output,
never by the arithmetic, which is linalg's (products, sums, negation and
reduction to lowest terms, each bound-checked over int64 or Python ints).
The Gram contractions of _pairing and adjoint multiply num by the object
weights of _weights, so they run over Python ints whatever num's dtype.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import product

import numpy as np

from . import linalg
from .field import ContextMismatchError, Cyclotomic, digits, undigits
from .glmat import Matrix, ResourceBudgetError, batch_matmul, row_codes
from .orbits import LOOKUP_BUDGET, OrbitLabel, OrbitTable, enumerate_orbits


def _in_field(p: int, v) -> Cyclotomic:
    """v (a Cyclotomic, int or Fraction) as a Cyclotomic over Q(zeta_p)."""
    if not isinstance(v, Cyclotomic):
        return Cyclotomic.rational(p, v)
    if v.p != p:
        raise ContextMismatchError(f"value {v!r} is in Q(zeta_{v.p}), not Q(zeta_{p})")
    return v


class _Values:
    """The values num / den over the orbit tables `tables` and their
    arithmetic, shared by InvariantFunction and TensorFunction."""

    __slots__ = ("tables", "num", "den")

    def _set_values(self, tables, values):
        """Set from values (Cyclotomic, int or Fraction) in product order,
        scaled to one denominator over Python ints."""
        p = tables[0].ctx.p if tables else 2
        vals = [_in_field(p, v) for v in values]
        den = math.lcm(*(v.den for v in vals))
        num = np.array([[v.num[k] * (den // v.den) for v in vals] for k in range(p - 1)],
                       dtype=object)
        self.tables = tables
        self.num, self.den = linalg.reduced(num.reshape((p - 1,) + tuple(map(len, tables))), den)

    @classmethod
    def _from_array(cls, tables, num, den: int):
        """The values num / den, num of shape (p - 1, dims...)."""
        return cls._from_pair(tables, linalg.reduced(num, den))

    @classmethod
    def _from_pair(cls, tables, pair):
        """The values of a pair (num, den) in lowest terms (see linalg), num
        of shape (p - 1, dims...) (else ValueError)."""
        self = object.__new__(cls)
        self.tables, (self.num, self.den) = tuple(tables), pair
        shape = (self.p - 1, *map(len, self.tables))
        if self.num.shape != shape:
            raise ValueError(f"values of shape {self.num.shape}, not {shape}")
        return self

    def __reduce__(self):
        # unpickle through _from_array, so the copy's num is read-only too
        return self._from_array, (self.tables, self.num, self.den)

    @property
    def p(self):
        return self.tables[0].ctx.p if self.tables else 2

    def _cyclotomics(self):
        """The values in product order, built afresh from num."""
        p, den = self.p, self.den
        return (Cyclotomic._from_ints(p, value, den)
                for value in zip(*self.num.reshape(p - 1, -1).tolist()))

    def _check(self, other):
        if type(other) is not type(self) or other.tables != self.tables:
            raise ValueError("values over different orbit tables")
        return other

    def __add__(self, other):
        pairs = [(h.num, h.den) for h in (self, self._check(other))]
        return self._from_pair(self.tables, linalg.add(*pairs))

    def __sub__(self, other):
        return self + -self._check(other)

    def __neg__(self):
        return self._from_array(self.tables, linalg.scaled(self.num, -1), self.den)

    def scale(self, c):
        """Every value times c, a Cyclotomic, int or Fraction."""
        c = _in_field(self.p, c)
        return self._from_array(self.tables, linalg.convolve(
            self.num, np.array(c.num, dtype=object), np.multiply.outer), self.den * c.den)

    def is_zero(self):
        return not self.num.any()

    def __eq__(self, other):
        return (type(other) is type(self) and other.tables == self.tables
                and other.den == self.den and np.array_equal(other.num, self.num))

    def __hash__(self):
        return hash((tuple(map(id, self.tables)), self.den, tuple(self.num.flat)))


class InvariantFunction(_Values):
    """A function on gl_n(F_q) constant on adjoint orbits."""

    __slots__ = ()

    def __init__(self, table: OrbitTable, values):
        values = list(values)
        if len(values) != len(table):
            raise ValueError("one value per orbit required")
        self._set_values((table,), values)

    @property
    def table(self) -> OrbitTable:
        return self.tables[0]

    @property
    def values(self) -> tuple:
        """One Cyclotomic per orbit, in table order, built on each read."""
        return tuple(self._cyclotomics())

    @property
    def n(self):
        return self.table.n

    def evaluate(self, x: Matrix) -> Cyclotomic:
        value = self.num[:, self.table.index_of_matrix(x)].tolist()
        return Cyclotomic._from_ints(self.p, value, self.den)

    def to_json(self):
        return {"n": self.n, "q": self.table.ctx.serialize(),
                "values": {lab.serialize(): v.serialize()
                           for lab, v in zip(self.table.labels, self.values)}}

    @classmethod
    def from_json(cls, table: OrbitTable, data) -> "InvariantFunction":
        """The inverse of to_json; a file over another field or degree, or
        with other orbit labels, raises ValueError naming the field, a value
        that is not one of Q(zeta_p) ValueError naming its orbit label, and
        a "values" that is not an object of strings TypeError."""
        if data["q"] != table.ctx.serialize():
            raise ValueError(f'"q" is {data["q"]!r}, not {table.ctx.serialize()!r}')
        if data["n"] != table.n:
            raise ValueError(f'"n" is {data["n"]!r}, not {table.n}')
        values = data["values"]
        if not isinstance(values, dict):
            raise TypeError(f'"values" is a {type(values).__name__}, not a JSON object')
        labels = [lab.serialize() for lab in table.labels]
        if set(values) != set(labels):
            raise ValueError(f'"values" are not indexed by the {len(labels)} '
                             f"orbit labels of degree {table.n}")
        vals = []
        for lab in labels:
            if not isinstance(values[lab], str):
                raise TypeError(f'"values" entry "{lab}" is a '
                                f"{type(values[lab]).__name__}, not a string")
            try:
                vals.append(Cyclotomic.parse(values[lab]))
                if vals[-1].p != table.ctx.p:
                    raise ValueError(f"written over Q(zeta_{vals[-1].p}), "
                                     f"not Q(zeta_{table.ctx.p})")
            except ValueError as e:
                raise ValueError(f'"values" entry "{lab}": {e}') from e
        return cls(table, vals)

    def __repr__(self):
        return f"InvariantFunction(n={self.n}, values={list(self.values)})"


def indicator(label: OrbitLabel, table: OrbitTable) -> InvariantFunction:
    i = table.index_of_label(label)
    return InvariantFunction(table, [int(j == i) for j in range(len(table))])


def indicator_by_index(i: int, table: OrbitTable) -> InvariantFunction:
    return indicator(table.labels[i], table)


def constant_one(table: OrbitTable) -> InvariantFunction:
    return InvariantFunction(table, [1] * len(table))


def inner_product(f: InvariantFunction, g: InvariantFunction) -> Cyclotomic:
    """(f, g) = (1/|G^F|) sum over the space of f * conj(g), orbitwise."""
    if f.table is not g.table:
        raise ValueError("functions over different orbit tables")
    return _pairing(f, g)


def inner_product_rational(f, g) -> Fraction:
    return inner_product(f, g).as_rational()


def _trace_table(ctx, n):
    """T[u, v] = Tr(sum_j u_j v_j) in F_p over the q^n row vectors, symmetric."""
    vecs = digits(np.arange(ctx.q ** n), ctx.q, n)
    return ctx.TR[batch_matmul(ctx, vecs, vecs.T)]


@lru_cache(maxsize=None)
def character_matrix(table: OrbitTable):
    """The Fourier operator F on orbit values, (F f)(x) = sum_O f(O) chi_O(x),
    as an integer matrix over Q(zeta_p) (see linalg): (F, 1), where F has
    shape (p - 1, orbits, orbits) and F[t, x, O] = N_t - N_(p-1) with
    N_t = #{a in O : Tr(trace(a x)) = t}, so F[x, O] = chi_O(x) =
    sum_t F[t, x, O] zeta_p^t and column O is chi_O = F(1_O)."""
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
        # Tr(trace(a x)) = sum_i T[R_i(a), C_i(x)] mod p, with R_i(a) the code
        # of row i of a and C_i(x) that of column i of x: n gathers per x.
        # The sums run below width, a multiple of p, and fold mod p per orbit,
        # in the narrowest dtype that holds every index below orbits * width
        width = (n * (p - 1) // p + 1) * p
        dtype = np.min_scalar_type(norb * width - 1)
        T, rows = _trace_table(ctx, n).astype(dtype), row_codes(ctx, n)
        base = orb.astype(dtype) * width
        for xi, rep in enumerate(table.reps):
            idx = base.copy()
            for c, r in zip(undigits(rep.a.T, ctx.q), rows):
                idx += T[c].take(r)
            hist = np.bincount(idx, minlength=norb * width)
            counts[xi] = hist.reshape(norb, -1, p).sum(axis=1)
    return linalg.reduced((counts[..., :-1] - counts[..., -1:]).transpose(2, 0, 1), 1)


def fourier_character_basis(table: OrbitTable):
    """One character per orbit O: chi_O(x) = sum over a in O of psi(trace(a x)),
    with psi(a) = zeta_p^Tr(a). Orthogonal; chi_O(0) = |O|."""
    planes, _ = character_matrix(table)
    return tuple(InvariantFunction._from_array((table,), planes[:, :, oi], 1)
                 for oi in range(len(table)))


def coords(f: InvariantFunction, basis) -> list:
    """Coefficients (f, b) / (b, b) of f in an orthogonal basis, one per b."""
    out = []
    for b in basis:
        nr = inner_product(b, b).as_rational()
        if nr == 0:
            raise ZeroDivisionError("degenerate basis vector")
        out.append(inner_product(f, b) * Fraction(nr.denominator, nr.numerator))
    return out


# ---------------------------------------------------------------------------


class TensorFunction(_Values):
    """An element of C_{n_1} x ... x C_{n_k}, dense over orbit-label tuples."""

    __slots__ = ()

    def __init__(self, tables, values):
        tables, values = tuple(tables), dict(values)
        idx = list(product(*(range(len(t)) for t in tables)))
        if values.keys() != set(idx):
            raise ValueError("dense value grid required")
        self._set_values(tables, [values[i] for i in idx])

    @property
    def values(self) -> dict:
        """One Cyclotomic per orbit-index tuple, in product order, built on
        each read."""
        return dict(zip(self.index_tuples(), self._cyclotomics()))

    @property
    def degrees(self):
        return tuple(t.n for t in self.tables)

    def index_tuples(self):
        return product(*(range(len(t)) for t in self.tables))

    @classmethod
    def outer(cls, factors) -> "TensorFunction":
        factors = list(factors)
        t = cls._from_pair(factors[0].tables, (factors[0].num, factors[0].den))
        for f in factors[1:]:
            t = t.concat(f)
        return t

    @classmethod
    def zero(cls, tables) -> "TensorFunction":
        tables = tuple(tables)
        p = tables[0].ctx.p if tables else 2
        return cls._from_array(tables, np.zeros((p - 1,) + tuple(map(len, tables)),
                                                dtype=np.int64), 1)

    def concat(self, other) -> "TensorFunction":
        """The tensor over self's factors then other's, with values s(i) t(j)."""
        return TensorFunction._from_array(
            self.tables + other.tables,
            linalg.convolve(self.num, other.num, np.multiply.outer), self.den * other.den)

    def permute(self, perm) -> "TensorFunction":
        """Reorder tensor factors: new factor i is old factor perm[i]."""
        perm = tuple(perm)
        return TensorFunction._from_array([self.tables[p] for p in perm],
                                          self.num.transpose((0,) + tuple(i + 1 for i in perm)),
                                          self.den)

    def as_function(self) -> InvariantFunction:
        """Collapse a one-factor tensor."""
        if len(self.tables) != 1:
            raise ValueError("not a single-factor tensor")
        return InvariantFunction._from_pair(self.tables, (self.num, self.den))

    def __repr__(self):
        return f"TensorFunction(degrees={self.degrees})"


def apply_operator(op, t: TensorFunction, start: int, count: int,
                   tables) -> TensorFunction:
    """Apply the operator op = (x, den) (see linalg), rational or over
    Q(zeta_p), along the factors [start, start + count) of t.  The columns
    of x are the index tuples of those factors in product order, its rows
    those of the factors `tables` that replace them: one linalg.matmul on
    t's value planes."""
    tables = t.tables[:start] + tuple(tables) + t.tables[start + count:]
    pre = math.prod(len(tb) for tb in t.tables[:start])
    num, den = linalg.matmul(op, (t.num.reshape(len(t.num), pre, op[0].shape[-1], -1), t.den))
    # a compact copy, not a view: a view would keep a second array header
    # alive for every result
    num = num.reshape((len(num),) + tuple(map(len, tables))).copy()
    num.setflags(write=False)
    return TensorFunction._from_pair(tables, (num, den))


def tensor_inner_product(s: TensorFunction, t: TensorFunction) -> Cyclotomic:
    """Inner product on the tensor space: factorwise orbit sums."""
    if s.tables != t.tables:
        raise ValueError("tensors over different tables")
    return _pairing(s, t)


@lru_cache(maxsize=None)
def _weights(tables):
    """The products |O_1|...|O_k| of the orbit sizes over the index tuples
    of tables in product order, as an object column, and |G| = the product
    of the GL orders."""
    w = np.ones(1, dtype=object)
    for tab in tables:
        w = np.multiply.outer(w, np.array(tab.sizes, dtype=object)).ravel()
    w.setflags(write=False)
    return w[:, None], math.prod(tab.gl_order for tab in tables)


def adjoint(op, source, target):
    """W_source^-1 conj(op)^T W_target for an operator op = (x, den) (see
    linalg), rational or over Q(zeta_p), from the functions over the index
    tuples of the tables `source` (its columns) to those over `target` (its
    rows), W the Gram weights of _weights: (op s, t) = (s, adjoint(op) t)."""
    (w_s, order_s), (w_t, order_t) = _weights(source), _weights(target)
    x, den = linalg.conj_t(op)
    # order_s / w_s is integral: each w is a product of |O_i| = |G_i| / |C_i|
    return linalg.reduced(x * w_t.T * (order_s // w_s), den * order_t)


def _pairing(s: _Values, t: _Values) -> Cyclotomic:
    """(1/|G|) sum over the index tuples of |O_1|...|O_k| s * conj(t), as one
    integer contraction M = np.inner(S w, T) of the value planes: M[a, b],
    the weighted sum of zeta^a coefficients of s times zeta^b ones of t,
    makes the sum sum_a zeta^a conj(sum_b M[a, b] zeta^b), over den_s den_t."""
    p = s.p
    w, order = _weights(s.tables)
    m = np.inner(s.num.reshape(p - 1, -1) * w.T, t.num.reshape(p - 1, -1))
    acc = sum(Cyclotomic.zeta(p, a) * Cyclotomic._from_ints(p, row, 1).conj()
              for a, row in enumerate(m.tolist()))
    return acc * Fraction(1, order * s.den * t.den)


# ---------------------------------------------------------------------------


class GradedElement:
    """A finite formal sum of invariant functions across degrees."""

    __slots__ = ("ctx", "components")

    def __init__(self, ctx, components):
        self.ctx = ctx
        self.components = {n: f for n, f in dict(components).items() if not f.is_zero()}

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
