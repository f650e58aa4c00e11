"""Reference constructions kept as oracles for glnq.field: the F_q
arithmetic tables FqContext is tested against, and FractionCyclotomic, the
one-Fraction-per-coordinate form of Q(zeta_p) that Cyclotomic is tested
against.

Polynomials over F_p are lists of ints, ascending, no trailing zeros.  The
tables are filled one element pair at a time by multiplying and reducing
mod the modulus; the default modulus is the first monic irreducible of
degree k in code order (the tail digits c_0 + c_1 p + ..., lowest first).
"""
import math
from fractions import Fraction

from glnq.field import ContextMismatchError, NotRationalError


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


def default_modulus(p, k):
    return tuple(next(m for m in _monic_polys(k, p) if _p_irreducible(m, p)))


def tables(p, k, modulus=None):
    """dict of modulus, coeffs and the ADD, MUL, NEG, INV, TR tables as
    nested lists, built pair by pair."""
    modulus = list(modulus or default_modulus(p, k))
    q = p ** k
    coeffs = [tuple(v // p ** i % p for i in range(k)) for v in range(q)]

    def idx(poly):
        poly = list(poly) + [0] * k
        return sum(poly[i] * p ** i for i in range(k))

    add = [[idx([(x + y) % p for x, y in zip(coeffs[a], coeffs[b])])
            for b in range(q)] for a in range(q)]
    mul = [[idx(_p_mod(_p_mul(list(coeffs[a]), list(coeffs[b]), p), modulus, p))
            for b in range(q)] for a in range(q)]
    neg = [idx([(-x) % p for x in coeffs[a]]) for a in range(q)]
    inv = [-1] + [mul[a].index(1) for a in range(1, q)]

    def frob_sum(a):
        acc, x = 0, a
        for _ in range(k):
            acc = add[acc][x]
            y = 1
            for _ in range(p):
                y = mul[y][x]
            x = y
        return coeffs[acc][0]

    return {"modulus": tuple(modulus), "coeffs": tuple(coeffs), "ADD": add,
            "MUL": mul, "NEG": neg, "INV": inv,
            "TR": [frob_sum(a) for a in range(q)]}


# ---------------------------------------------------------------------------
# Q(zeta_p) with one Fraction per coordinate


class FractionCyclotomic:
    """An element of Q(zeta_p) in the canonical basis 1, zeta, ..., zeta^(p-2),
    held as p - 1 Fraction coordinates."""

    __slots__ = ("p", "coeffs")

    def __init__(self, p: int, coeffs):
        coeffs = tuple(Fraction(c) for c in coeffs)
        if len(coeffs) != p - 1:
            raise ValueError(f"expected {p - 1} coordinates, got {len(coeffs)}")
        self.p = p
        self.coeffs = coeffs

    @classmethod
    def rational(cls, p: int, value) -> "FractionCyclotomic":
        return cls(p, (Fraction(value),) + (Fraction(0),) * (p - 2))

    @classmethod
    def zeta(cls, p: int, e: int = 1) -> "FractionCyclotomic":
        vec = [Fraction(0)] * p
        vec[e % p] = Fraction(1)
        return cls._reduce(p, vec)

    @classmethod
    def _reduce(cls, p, vec):
        # eliminate zeta^(p-1) = -(1 + zeta + ... + zeta^(p-2))
        top = vec[p - 1]
        return cls(p, tuple(vec[j] - top for j in range(p - 1)))

    def _check(self, other):
        if not isinstance(other, FractionCyclotomic):
            other = FractionCyclotomic.rational(self.p, other)
        if other.p != self.p:
            raise ContextMismatchError("mixed cyclotomic fields")
        return other

    def __add__(self, other):
        other = self._check(other)
        return FractionCyclotomic(self.p, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._check(other)
        return FractionCyclotomic(self.p, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __rsub__(self, other):
        return self._check(other) - self

    def __neg__(self):
        return FractionCyclotomic(self.p, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return FractionCyclotomic(self.p, tuple(a * other for a in self.coeffs))
        other = self._check(other)
        p = self.p
        vec = [Fraction(0)] * p
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    vec[(i + j) % p] += a * b
        return FractionCyclotomic._reduce(p, vec)

    __rmul__ = __mul__

    def conj(self) -> "FractionCyclotomic":
        """Complex conjugation, zeta -> zeta^(p-1)."""
        p = self.p
        vec = [Fraction(0)] * p
        for j, a in enumerate(self.coeffs):
            vec[(p - j) % p] += a
        return FractionCyclotomic._reduce(p, vec)

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
            other = FractionCyclotomic.rational(self.p, other)
        return (isinstance(other, FractionCyclotomic) and other.p == self.p
                and other.coeffs == self.coeffs)

    def __hash__(self):
        # a rational value hashes as the Fraction it equals, any other by its
        # integer numerators over their least common denominator
        if any(self.coeffs[1:]):
            den = math.lcm(*(c.denominator for c in self.coeffs))
            return hash((self.p, tuple(int(c * den) for c in self.coeffs), den))
        return hash(self.coeffs[0])

    def serialize(self) -> str:
        return f"{self.p}:[" + ",".join(str(c) for c in self.coeffs) + "]"

    @classmethod
    def parse(cls, s: str) -> "FractionCyclotomic":
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
