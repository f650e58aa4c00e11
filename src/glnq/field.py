"""Exact arithmetic: F_q (q = p^k) and polynomials over it, base-b digit
codes, and the cyclotomic field Q(zeta_p).

No floating point anywhere; an element of Q(zeta_p) is p - 1 integer
numerators over one denominator, other rationals are fractions.Fraction, and
an element of F_q is its canonical index into the context's arithmetic
tables, read one at a time or over whole index arrays.
"""
from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import lru_cache

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
# base-b digit codes: matrices, polynomial coefficients and field elements


def digits(codes, base, width):
    """The `width` base-`base` digits of each code, lowest first, in the
    narrowest unsigned dtype that holds base - 1 (uint8 for every F_q entry),
    shape codes.shape + (width,); the inverse of undigits.  Codes keep an
    integer dtype that holds base, so narrow codes are never copied whole to
    int64."""
    codes = np.asarray(codes)
    codes = codes.astype(np.promote_types(codes.dtype, np.min_scalar_type(base)), copy=False)
    out = np.empty(codes.shape + (width,), dtype=np.min_scalar_type(base - 1))
    for i in range(width):
        out[..., i] = codes % base
        codes = codes // base
    return out


def undigits(digs, base):
    """The codes whose base-`base` digits, lowest first, run along the last
    axis of digs (integers), in the narrowest unsigned dtype that holds
    base^width - 1."""
    digs = np.asarray(digs)
    width = digs.shape[-1]
    out = np.min_scalar_type(base ** width - 1)
    # the sum runs in a dtype that holds the digits and the codes, so einsum
    # casts narrow digits chunk by chunk, never copying a stack whole
    acc = np.promote_types(digs.dtype, out)
    if acc.kind == "f":  # int64 digits of uint64 codes: no integer holds both
        digs, acc = digs.astype(out), out
    weights = (base ** np.arange(width, dtype=np.int64)).astype(acc)
    return np.einsum("...i,i->...", digs, weights).astype(out, copy=False)


# ---------------------------------------------------------------------------
# polynomials over F_q: tuples of element indices, ascending, no trailing zeros


def poly_trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def poly_mul(ctx, a, b):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            out[i + j] = int(ctx.ADD[out[i + j], ctx.MUL[x, y]])
    return poly_trim(out)


def poly_divmod(ctx, a, b):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    quot = [0] * max(len(a) - len(b) + 1, 0)
    binv = int(ctx.INV[b[-1]])
    while len(a) >= len(b) and poly_trim(a):
        a = list(poly_trim(a))
        if len(a) < len(b):
            break
        coef = int(ctx.MUL[a[-1], binv])
        shift = len(a) - len(b)
        quot[shift] = coef
        for i, c in enumerate(b):
            a[shift + i] = int(ctx.SUB[a[shift + i], ctx.MUL[coef, c]])
    return poly_trim(quot), poly_trim(a)


def poly_pow(ctx, a, e):
    r = (1,)
    for _ in range(e):
        r = poly_mul(ctx, r, a)
    return r


@lru_cache(maxsize=None)
def irreducibles(ctx: FqContext, max_deg: int):
    """Monic irreducibles over F_q of degree <= max_deg, by (degree, lex)."""
    out = []
    for deg in range(1, max_deg + 1):
        lower = [f for f in out if (len(f) - 1) * 2 <= deg]
        for tail in digits(np.arange(ctx.q ** deg), ctx.q, deg).tolist():
            f = tuple(tail) + (1,)
            if all(poly_divmod(ctx, f, g)[1] for g in lower):
                out.append(f)
    return tuple(sorted(out, key=lambda f: (len(f), f)))


# ---------------------------------------------------------------------------


class FqContext:
    """The field F_q with q = p^k, backed by full arithmetic tables.

    Elements are canonical indices 0..q-1; index v has polynomial-basis
    coefficients given by the base-p digits of v (least significant first).
    F_p is the integers mod p; F_{p^k} is F_p[t]/(m), reduced by polynomial
    division over the prime context.  The default modulus m is the first
    monic irreducible of degree k in code order, lowest digit first.
    """

    _interned: dict = {}

    def __init__(self, p: int, k: int = 1, modulus=None):
        if not is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        if k < 1:
            raise ValueError("k must be positive")
        prime = FqContext.get(p) if k > 1 else None
        if modulus is None:
            modulus = [0, 1] if k == 1 else list(min(
                (f for f in irreducibles(prime, k) if len(f) == k + 1),
                key=lambda f: f[::-1]))
        modulus = [c % p for c in modulus]
        if len(modulus) != k + 1 or modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree k")
        if k > 1 and tuple(modulus) not in irreducibles(prime, k):
            raise ValueError(f"modulus {modulus} is reducible over F_{p}")
        self.p = p
        self.k = k
        self.q = p ** k
        self.modulus = tuple(modulus)
        self._build_tables(prime)

    def _build_tables(self, prime):
        p, k, q = self.p, self.k, self.q
        coeffs = digits(np.arange(q), p, k).astype(np.int64)
        self._coeffs = tuple(map(tuple, coeffs.tolist()))
        # the digits of t^e mod m for e <= 2k - 2, the degrees a product reaches
        powers = np.eye(2 * k - 1, k, dtype=np.int64)
        for e in range(k, 2 * k - 1):
            rem = poly_divmod(prime, (0,) * e + (1,), self.modulus)[1]
            powers[e, :len(rem)] = rem
        prod = np.einsum("ai,bj,ijd->abd", coeffs, coeffs,
                         powers[np.add.outer(np.arange(k), np.arange(k))])
        ADD = undigits((coeffs[:, None] + coeffs[None]) % p, p).astype(np.int16)
        MUL = undigits(prod % p, p).astype(np.int16)
        NEG = undigits(-coeffs % p, p).astype(np.int16)
        SUB = ADD[:, NEG]
        INV = np.argmax(MUL == 1, axis=1).astype(np.int16)
        INV[0] = -1
        # the regular representation: MULMAT[v] is the k x k matrix over F_p
        # of multiplication by v, whose column j holds the digits of v t^j,
        # in the narrowest signed dtype that holds p - 1 (int8 below p = 128)
        MULMAT = digits(MUL[:, p ** np.arange(k)], p, k).swapaxes(1, 2).astype(
            np.min_scalar_type(1 - p))
        self.ADD, self.SUB, self.MUL, self.NEG, self.INV = ADD, SUB, MUL, NEG, INV
        self.MULMAT = MULMAT
        for t in (ADD, SUB, MUL, NEG, INV, MULMAT):
            t.setflags(write=False)

        # absolute trace F_q -> F_p via repeated Frobenius
        TR = np.zeros(q, dtype=np.int16)
        for a in range(q):
            acc, x = 0, a
            for _ in range(k):
                acc = int(ADD[acc, x])
                x = self._pow_idx(x, p)
            if any(self._coeffs[acc][1:]):
                raise FieldTableError(f"trace of element {a} is {self._coeffs[acc]}, "
                                      f"not in F_{p}")
            TR[a] = self._coeffs[acc][0]
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

    def generator_index(self) -> int:
        """Index of a multiplicative generator of F_q*."""
        for a in range(1, self.q):
            x, order = a, 1
            while x != 1 and order < self.q:
                x = int(self.MUL[x, a])
                order += 1
            if order == self.q - 1:
                return a
        raise FieldTableError(f"no element of order {self.q - 1} in the "
                              f"multiplication table of F_{self.q}")

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


def prime_power(q: int):
    """(p, k) with q = p^k, p prime and k >= 1, else ValueError: p is the
    least divisor of q past 1, q itself when none is at most sqrt(q)."""
    if q >= 2:
        p = next((d for d in range(2, math.isqrt(q) + 1) if q % d == 0), q)
        m, k = q, 0
        while m % p == 0:
            m, k = m // p, k + 1
        if m == 1:
            return p, k
    raise ValueError(f"q = {q} is not a prime power")


def fq(q: int) -> FqContext:
    """Context for F_q, factoring q = p^k automatically."""
    return FqContext.get(*prime_power(q))


# ---------------------------------------------------------------------------


def _check_prime(p):
    if not is_prime(p):
        raise ValueError(f"Q(zeta_p) needs p prime, not p = {p}")


class Cyclotomic:
    """An element of Q(zeta_p) in the canonical basis 1, zeta, ..., zeta^(p-2),
    held as the p - 1 integer numerators `num` over one denominator `den`:
    the value is sum_j (num[j] / den) zeta^j.  Always in lowest terms,
    den > 0 and gcd(den, *num) == 1, so equal values have equal fields."""

    __slots__ = ("p", "num", "den")

    def __new__(cls, p: int, coeffs):
        coeffs = [c if isinstance(c, (int, Fraction)) else Fraction(c) for c in coeffs]
        if len(coeffs) != p - 1:
            raise ValueError(f"expected {p - 1} coordinates, got {len(coeffs)}")
        _check_prime(p)
        den = math.lcm(*(c.denominator for c in coeffs))
        return cls._from_ints(p, [c.numerator * (den // c.denominator) for c in coeffs], den)

    @classmethod
    def _from_ints(cls, p: int, num, den: int) -> "Cyclotomic":
        """The value with p - 1 integer numerators num over the nonzero int
        den, put in lowest terms; the one constructor the arithmetic uses."""
        self = object.__new__(cls)
        g = math.gcd(den, *num) if den > 0 else -math.gcd(den, *num)
        self.p = p
        self.num = tuple(num) if g == 1 else tuple([a // g for a in num])
        self.den = den // g
        return self

    def __getnewargs__(self):
        return self.p, self.coeffs

    @property
    def coeffs(self) -> tuple:
        """The coordinates as Fractions."""
        return tuple(Fraction(a, self.den) for a in self.num)

    @classmethod
    def rational(cls, p: int, value) -> "Cyclotomic":
        _check_prime(p)
        if not isinstance(value, (int, Fraction)):
            value = Fraction(value)
        return cls._from_ints(p, (value.numerator,) + (0,) * (p - 2), value.denominator)

    @classmethod
    def zeta(cls, p: int, e: int = 1) -> "Cyclotomic":
        _check_prime(p)
        return cls._reduce(p, [int(j == e % p) for j in range(p)], 1)

    @classmethod
    def _reduce(cls, p, vec, den):
        # eliminate zeta^(p-1) = -(1 + zeta + ... + zeta^(p-2))
        top = vec[p - 1]
        return cls._from_ints(p, [vec[j] - top for j in range(p - 1)], den)

    def _check(self, other):
        if not isinstance(other, Cyclotomic):
            other = Cyclotomic.rational(self.p, other)
        if other.p != self.p:
            raise ContextMismatchError("mixed cyclotomic fields")
        return other

    def __add__(self, other):
        other = self._check(other)
        d, e = self.den, other.den
        return Cyclotomic._from_ints(
            self.p, [a * e + b * d for a, b in zip(self.num, other.num)], d * e)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._check(other)
        d, e = self.den, other.den
        return Cyclotomic._from_ints(
            self.p, [a * e - b * d for a, b in zip(self.num, other.num)], d * e)

    def __rsub__(self, other):
        return self._check(other) - self

    def __neg__(self):
        return Cyclotomic._from_ints(self.p, [-a for a in self.num], self.den)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Cyclotomic._from_ints(self.p, [a * other.numerator for a in self.num],
                                         self.den * other.denominator)
        other = self._check(other)
        p = self.p
        vec = [0] * p
        for i, a in enumerate(self.num):
            if not a:
                continue
            for j, b in enumerate(other.num):
                if b:
                    vec[(i + j) % p] += a * b
        return Cyclotomic._reduce(p, vec, self.den * other.den)

    __rmul__ = __mul__

    def conj(self) -> "Cyclotomic":
        """Complex conjugation, zeta^j -> zeta^(p-j)."""
        num = self.num
        return Cyclotomic._reduce(self.p, [num[0], 0, *num[:0:-1]], self.den)

    def as_rational(self) -> Fraction:
        if any(self.num[1:]):
            raise NotRationalError(f"{self!r} is not rational")
        return Fraction(self.num[0], self.den)

    def is_zero(self) -> bool:
        return not any(self.num)

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Cyclotomic.rational(self.p, other)
        return (isinstance(other, Cyclotomic) and other.p == self.p
                and other.num == self.num and other.den == self.den)

    def __hash__(self):  # a rational value hashes as the Fraction it equals
        rational = not any(self.num[1:])
        return hash(Fraction(self.num[0], self.den) if rational else (self.p, self.num, self.den))

    def serialize(self) -> str:
        return f"{self.p}:[" + ",".join(str(c) for c in self.coeffs) + "]"

    @classmethod
    def parse(cls, s: str) -> "Cyclotomic":
        """The inverse of serialize: exactly "p:[c_0,...,c_(p-2)]", p prime,
        each c_j an integer or n/d; anything else raises ValueError."""
        c = r"-?\d+(?:/\d*[1-9]\d*)?"
        m = re.fullmatch(rf"(\d+):\[((?:{c}(?:,{c})*)?)\]", s, re.ASCII)
        parts = m[2].split(",") if m and m[2] else []
        # the coordinate count bounds p before the primality test
        if m is None or int(m[1]) != len(parts) + 1 or not is_prime(len(parts) + 1):
            raise ValueError(f"{s!r} is not p:[c_0,...,c_(p-2)] with p prime")
        return cls(len(parts) + 1, parts)

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
