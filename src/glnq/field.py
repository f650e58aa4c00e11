"""Exact arithmetic: F_q (q = p^k), the cyclotomic field Q(zeta_p), and
sign-times-square-root rationals.

No floating point anywhere; rationals are fractions.Fraction, field elements
are canonical indices into precomputed arithmetic tables.
"""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


class ContextMismatchError(ValueError):
    """Operands live over different field contexts."""


class NotRationalError(ValueError):
    """A cyclotomic value expected to be rational has nonzero zeta coordinates."""


class FieldTableError(ArithmeticError):
    """The arithmetic tables of a context contradict the field axioms."""


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    return all(p % d for d in range(2, math.isqrt(p) + 1))


# ---------------------------------------------------------------------------
# polynomials over F_p with plain int coefficients (modulus handling only)

def _p_trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return c


def _p_mul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return _p_trim(out)


def _p_mod(a, m, p):
    # m monic
    a = list(a)
    dm = len(m) - 1
    while len(a) - 1 >= dm and a:
        q = a[-1]
        shift = len(a) - 1 - dm
        for i, c in enumerate(m):
            a[shift + i] = (a[shift + i] - q * c) % p
        a = _p_trim(a)
    return a


def _monic_polys(deg, p):
    for tail in range(p ** deg):
        c, t = [], tail
        for _ in range(deg):
            c.append(t % p)
            t //= p
        yield c + [1]


def _p_irreducible(m, p):
    deg = len(m) - 1
    if deg < 1:
        return False
    for d in range(1, deg // 2 + 1):
        for g in _monic_polys(d, p):
            if not _p_mod(m, g, p):
                return False
    return True


# ---------------------------------------------------------------------------


class FqContext:
    """The field F_q with q = p^k, backed by full arithmetic tables.

    Elements are canonical indices 0..q-1; index v has polynomial-basis
    coefficients given by the base-p digits of v (least significant first).
    """

    _interned: dict = {}

    def __init__(self, p: int, k: int = 1, modulus=None):
        if not is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        if k < 1:
            raise ValueError("k must be positive")
        if modulus is None:
            modulus = [0, 1] if k == 1 else self._default_modulus(p, k)
        modulus = [c % p for c in modulus]
        if len(modulus) != k + 1 or modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree k")
        if k > 1 and not _p_irreducible(modulus, p):
            raise ValueError(f"modulus {modulus} is reducible over F_{p}")
        self.p = p
        self.k = k
        self.q = p ** k
        self.modulus = tuple(modulus)
        self._build_tables()

    @staticmethod
    def _default_modulus(p, k):
        for m in _monic_polys(k, p):
            if _p_irreducible(m, p):
                return m
        raise AssertionError("no irreducible modulus found")

    def _build_tables(self):
        p, k, q = self.p, self.k, self.q
        coeffs = []
        for v in range(q):
            c, t = [], v
            for _ in range(k):
                c.append(t % p)
                t //= p
            coeffs.append(tuple(c))
        self._coeffs = tuple(coeffs)

        def idx(poly):
            poly = list(poly) + [0] * k
            return sum(poly[i] * p ** i for i in range(k))

        ADD = np.zeros((q, q), dtype=np.int16)
        MUL = np.zeros((q, q), dtype=np.int16)
        for a in range(q):
            ca = coeffs[a]
            for b in range(a, q):
                cb = coeffs[b]
                s = idx([(x + y) % p for x, y in zip(ca, cb)])
                ADD[a, b] = ADD[b, a] = s
                m = idx(_p_mod(_p_mul(list(ca), list(cb), p), list(self.modulus), p))
                MUL[a, b] = MUL[b, a] = m
        NEG = np.array([idx([(-x) % p for x in coeffs[a]]) for a in range(q)],
                       dtype=np.int16)
        SUB = ADD[:, NEG]
        INV = np.full(q, -1, dtype=np.int16)
        for a in range(1, q):
            INV[a] = int(np.nonzero(MUL[a] == 1)[0][0])
        self.ADD, self.SUB, self.MUL, self.NEG, self.INV = ADD, SUB, MUL, NEG, INV
        for t in (ADD, SUB, MUL, NEG, INV):
            t.setflags(write=False)

        # absolute trace F_q -> F_p via repeated Frobenius
        TR = np.zeros(q, dtype=np.int16)
        for a in range(q):
            acc, x = 0, a
            for _ in range(k):
                acc = int(ADD[acc, x])
                x = self._pow_idx(x, p)
            if any(coeffs[acc][1:]):
                raise FieldTableError(f"trace of element {a} is {coeffs[acc]}, "
                                      f"not in F_{p}")
            TR[a] = coeffs[acc][0]
        TR.setflags(write=False)
        self.TR = TR

    def _pow_idx(self, a, e):
        r = 1
        while e:
            if e & 1:
                r = int(self.MUL[r, a])
            a = int(self.MUL[a, a])
            e >>= 1
        return r

    # -- elements ----------------------------------------------------------

    def element(self, v) -> "FqElem":
        if isinstance(v, FqElem):
            if v.ctx != self:
                raise ContextMismatchError("element from another context")
            return v
        return FqElem(self, int(v) % self.q if self.k == 1 else int(v))

    def from_coeffs(self, coeffs) -> "FqElem":
        coeffs = list(coeffs) + [0] * self.k
        v = sum((coeffs[i] % self.p) * self.p ** i for i in range(self.k))
        return FqElem(self, v)

    @property
    def zero(self):
        return FqElem(self, 0)

    @property
    def one(self):
        return FqElem(self, 1)

    def elements(self):
        return (FqElem(self, v) for v in range(self.q))

    def generator_index(self) -> int:
        """Index of a multiplicative generator of F_q*."""
        for a in range(1, self.q):
            x, order = a, 1
            while x != 1:
                x = int(self.MUL[x, a])
                order += 1
            if order == self.q - 1:
                return a
        raise AssertionError

    # -- serialization: "p^k:c0,c1,...,ck" ---------------------------------

    def serialize(self) -> str:
        return f"{self.p}^{self.k}:" + ",".join(str(c) for c in self.modulus)

    @classmethod
    def parse(cls, s: str) -> "FqContext":
        head, mods = s.split(":")
        p, k = (int(x) for x in head.split("^"))
        return cls.get(p, k, tuple(int(c) for c in mods.split(",")))

    @classmethod
    def get(cls, p: int, k: int = 1, modulus=None) -> "FqContext":
        key = (p, k, tuple(modulus) if modulus is not None else None)
        if key not in cls._interned:
            cls._interned[key] = cls(p, k, modulus)
        return cls._interned[key]

    def __eq__(self, other):
        return (isinstance(other, FqContext)
                and (self.p, self.k, self.modulus) == (other.p, other.k, other.modulus))

    def __hash__(self):
        return hash((self.p, self.k, self.modulus))

    def __repr__(self):
        return f"FqContext({self.serialize()!r})"


def fq(q: int) -> FqContext:
    """Context for F_q, factoring q = p^k automatically."""
    for p in range(2, q + 1):
        if is_prime(p) and q % p == 0:
            k = 0
            m = q
            while m % p == 0:
                m //= p
                k += 1
            if m != 1:
                raise ValueError(f"q = {q} is not a prime power")
            return FqContext.get(p, k)
    raise ValueError(f"q = {q} is not a prime power")


class FqElem:
    """An element of F_q, identified by its canonical index in the context."""

    __slots__ = ("ctx", "v")

    def __init__(self, ctx: FqContext, v: int):
        if not 0 <= v < ctx.q:
            raise ValueError(f"index {v} out of range for q={ctx.q}")
        self.ctx = ctx
        self.v = v

    @property
    def coeffs(self):
        return self.ctx._coeffs[self.v]

    def _check(self, other):
        if not isinstance(other, FqElem):
            other = self.ctx.element(other)
        if other.ctx != self.ctx:
            raise ContextMismatchError("mixed field contexts")
        return other

    def __add__(self, other):
        other = self._check(other)
        return FqElem(self.ctx, int(self.ctx.ADD[self.v, other.v]))

    def __sub__(self, other):
        other = self._check(other)
        return FqElem(self.ctx, int(self.ctx.SUB[self.v, other.v]))

    def __mul__(self, other):
        other = self._check(other)
        return FqElem(self.ctx, int(self.ctx.MUL[self.v, other.v]))

    def __neg__(self):
        return FqElem(self.ctx, int(self.ctx.NEG[self.v]))

    def __pow__(self, e):
        if e < 0:
            return self.inverse() ** (-e)
        return FqElem(self.ctx, self.ctx._pow_idx(self.v, e))

    def inverse(self) -> "FqElem":
        if self.v == 0:
            raise ZeroDivisionError("inverse of zero in F_q")
        return FqElem(self.ctx, int(self.ctx.INV[self.v]))

    def __truediv__(self, other):
        return self * self._check(other).inverse()

    def trace(self) -> int:
        """Absolute trace down to the prime field, as a residue mod p."""
        return int(self.ctx.TR[self.v])

    def __bool__(self):
        return self.v != 0

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.ctx.element(other)
        return isinstance(other, FqElem) and other.ctx == self.ctx and other.v == self.v

    def __hash__(self):
        return hash((self.ctx, self.v))

    def __repr__(self):
        if self.ctx.k == 1:
            return str(self.v)
        return "+".join(f"{c}t^{i}" for i, c in enumerate(self.coeffs) if c) or "0"


# ---------------------------------------------------------------------------


class Cyclotomic:
    """An element of Q(zeta_p) in the canonical basis 1, zeta, ..., zeta^(p-2)."""

    __slots__ = ("p", "coeffs")

    def __init__(self, p: int, coeffs):
        coeffs = tuple(Fraction(c) for c in coeffs)
        if len(coeffs) != p - 1:
            raise ValueError(f"expected {p - 1} coordinates, got {len(coeffs)}")
        self.p = p
        self.coeffs = coeffs

    @classmethod
    def rational(cls, p: int, value) -> "Cyclotomic":
        return cls(p, (Fraction(value),) + (Fraction(0),) * (p - 2))

    @classmethod
    def zeta(cls, p: int, e: int = 1) -> "Cyclotomic":
        vec = [Fraction(0)] * p
        vec[e % p] = Fraction(1)
        return cls._reduce(p, vec)

    @classmethod
    def _reduce(cls, p, vec):
        # eliminate zeta^(p-1) = -(1 + zeta + ... + zeta^(p-2))
        top = vec[p - 1]
        return cls(p, tuple(vec[j] - top for j in range(p - 1)))

    def _check(self, other):
        if not isinstance(other, Cyclotomic):
            other = Cyclotomic.rational(self.p, other)
        if other.p != self.p:
            raise ContextMismatchError("mixed cyclotomic fields")
        return other

    def __add__(self, other):
        other = self._check(other)
        return Cyclotomic(self.p, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._check(other)
        return Cyclotomic(self.p, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __rsub__(self, other):
        return self._check(other) - self

    def __neg__(self):
        return Cyclotomic(self.p, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Cyclotomic(self.p, tuple(a * other for a in self.coeffs))
        other = self._check(other)
        p = self.p
        vec = [Fraction(0)] * p
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    vec[(i + j) % p] += a * b
        return Cyclotomic._reduce(p, vec)

    __rmul__ = __mul__

    def conj(self) -> "Cyclotomic":
        """Complex conjugation, zeta -> zeta^(p-1)."""
        p = self.p
        vec = [Fraction(0)] * p
        for j, a in enumerate(self.coeffs):
            vec[(p - j) % p] += a
        return Cyclotomic._reduce(p, vec)

    def as_rational(self) -> Fraction:
        if any(self.coeffs[1:]):
            raise NotRationalError(f"{self!r} is not rational")
        return self.coeffs[0]

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Cyclotomic.rational(self.p, other)
        return (isinstance(other, Cyclotomic) and other.p == self.p
                and other.coeffs == self.coeffs)

    def __hash__(self):
        return hash((self.p, self.coeffs))

    def serialize(self) -> str:
        return f"{self.p}:[" + ",".join(str(c) for c in self.coeffs) + "]"

    @classmethod
    def parse(cls, s: str) -> "Cyclotomic":
        head, rest = s.split(":", 1)
        body = rest.strip()[1:-1]
        parts = body.split(",") if body else []
        return cls(int(head), tuple(Fraction(x) for x in parts))

    def __repr__(self):
        terms = []
        for j, a in enumerate(self.coeffs):
            if a:
                terms.append(str(a) if j == 0 else f"{a}*z^{j}")
        return " + ".join(terms) if terms else "0"


# ---------------------------------------------------------------------------


def rational_is_square(r: Fraction) -> bool:
    r = Fraction(r)
    if r < 0:
        return False
    return (math.isqrt(r.numerator) ** 2 == r.numerator
            and math.isqrt(r.denominator) ** 2 == r.denominator)


class SqrtRational:
    """The real number sign * sqrt(square), with exact comparisons."""

    __slots__ = ("sign", "square")

    def __init__(self, sign: int, square):
        square = Fraction(square)
        if sign not in (-1, 0, 1):
            raise ValueError("sign must be -1, 0 or +1")
        if square < 0:
            raise ValueError("square must be nonnegative")
        if (sign == 0) != (square == 0):
            raise ValueError("sign is 0 iff square is 0")
        self.sign = sign
        self.square = square

    @classmethod
    def from_rational(cls, r) -> "SqrtRational":
        r = Fraction(r)
        if r == 0:
            return cls(0, 0)
        return cls(1 if r > 0 else -1, r * r)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = SqrtRational.from_rational(other)
        s = self.sign * other.sign
        return SqrtRational(s, self.square * other.square if s else 0)

    __rmul__ = __mul__

    def __neg__(self):
        return SqrtRational(-self.sign, self.square)

    def is_rational(self) -> bool:
        return self.sign == 0 or rational_is_square(self.square)

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise NotRationalError(f"{self!r} is irrational")
        sq = Fraction(math.isqrt(self.square.numerator),
                      math.isqrt(self.square.denominator))
        return self.sign * sq

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = SqrtRational.from_rational(other)
        return (isinstance(other, SqrtRational)
                and (self.sign, self.square) == (other.sign, other.square))

    def __hash__(self):
        return hash((self.sign, self.square))

    def __repr__(self):
        if self.sign == 0:
            return "0"
        pre = "-" if self.sign < 0 else ""
        return f"{pre}sqrt({self.square})"
