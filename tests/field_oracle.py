"""Reference construction of the F_q arithmetic tables, kept as the oracle
glnq.field.FqContext is tested against.

Polynomials over F_p are lists of ints, ascending, no trailing zeros.  The
tables are filled one element pair at a time by multiplying and reducing
mod the modulus; the default modulus is the first monic irreducible of
degree k in code order (the tail digits c_0 + c_1 p + ..., lowest first).
"""


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
