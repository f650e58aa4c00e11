"""The exact operator layer against its scalar oracle: restriction, induction,
their tensor-factor variants, duality and the antipode applied through
glnq.invfun.apply_operator equal the one-value-at-a-time loops of
tests/hc_oracle.py on seeded random inputs, and the (x, den) duality and
antipode matrices equal their Fraction-list constructions."""
import math
import random
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

import hc_oracle
import linalg_oracle
from glnq import hc, linalg
from glnq.duality import duality_operator
from glnq.field import Cyclotomic, fq
from glnq.hopf import antipode_function, antipode_matrix
from glnq.invfun import InvariantFunction, TensorFunction, constant_one
from glnq.orbits import enumerate_orbits

# compositions of n <= 3, with zero parts and the one-part composition
COMPOSITIONS = [(1,), (3,), (1, 1), (1, 2), (2, 1), (1, 1, 1), (0, 2), (2, 0),
                (1, 0, 2)]
QS = [2, 3]


def random_value(rng, p):
    if rng.random() < 0.2:
        return Cyclotomic.rational(p, 0)
    return Cyclotomic(p, [Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                          for _ in range(p - 1)])


def random_function(rng, ctx, n):
    table = enumerate_orbits(n, ctx)
    return InvariantFunction(table, [random_value(rng, ctx.p) for _ in table.labels])


def random_tensor(rng, ctx, degrees):
    """A dense random tensor, not an outer product."""
    tables = [enumerate_orbits(m, ctx) for m in degrees]
    return TensorFunction(tables, {idx: random_value(rng, ctx.p) for idx in
                                   product(*(range(len(t)) for t in tables))})


@pytest.mark.parametrize("q", QS)
@pytest.mark.parametrize("parts", COMPOSITIONS)
@pytest.mark.parametrize("lower", [False, True])
class TestAgainstOracle:
    """The function API takes no parabolic: its one result, along the upper
    parabolic, equals the oracle's along the upper and, counted directly,
    along the lower parabolic."""

    def test_restrict(self, q, parts, lower):
        ctx, rng = fq(q), random.Random(f"restrict-{q}-{parts}-{lower}")
        for _ in range(3):
            f = random_function(rng, ctx, sum(parts))
            assert hc.hc_restrict(f, parts) == hc_oracle.hc_restrict(f, parts, lower)

    def test_induce(self, q, parts, lower):
        ctx, rng = fq(q), random.Random(f"induce-{q}-{parts}-{lower}")
        for _ in range(3):
            t = random_tensor(rng, ctx, parts)
            assert hc.hc_induce(t, parts) == hc_oracle.hc_induce(t, parts, lower)


@pytest.mark.parametrize("q", QS)
@pytest.mark.parametrize("degrees,pos,subparts", [
    ((2, 1), 0, (1, 1)), ((1, 2), 1, (1, 1)), ((1, 2, 1), 1, (1, 1)),
    ((3,), 0, (1, 2)), ((1, 1, 1), 2, (1,)), ((2, 1), 0, (0, 2))])
def test_restrict_factor(q, degrees, pos, subparts):
    ctx, rng = fq(q), random.Random(f"factor-{q}-{degrees}-{pos}")
    t = random_tensor(rng, ctx, degrees)
    for lower in (False, True):
        assert (hc.tensor_restrict_factor(t, pos, subparts)
                == hc_oracle.tensor_restrict_factor(t, pos, subparts, lower))


@pytest.mark.parametrize("q", QS)
@pytest.mark.parametrize("degrees,start,count", [
    ((1, 1, 1), 0, 2), ((1, 1, 1), 1, 2), ((1, 1, 2), 1, 2), ((1, 2, 1), 1, 1),
    ((0, 1, 1), 0, 2), ((1, 0, 2), 0, 3)])
def test_induce_span(q, degrees, start, count):
    ctx, rng = fq(q), random.Random(f"span-{q}-{degrees}-{start}")
    t = random_tensor(rng, ctx, degrees)
    for lower in (False, True):
        assert (hc.tensor_induce_span(t, start, count)
                == hc_oracle.tensor_induce_span(t, start, count, lower))


@pytest.mark.parametrize("q", QS)
@pytest.mark.parametrize("n", [0, 1, 2, 3])
class TestDualityAndAntipode:
    def test_duality_apply(self, q, n):
        ctx, rng = fq(q), random.Random(f"dual-{q}-{n}")
        for _ in range(3):
            f = random_function(rng, ctx, n)
            assert duality_operator(n, ctx).apply(f) == hc_oracle.duality_apply(f)

    def test_antipode_function(self, q, n):
        ctx, rng = fq(q), random.Random(f"antipode-{q}-{n}")
        for _ in range(3):
            f = random_function(rng, ctx, n)
            assert antipode_function(f) == hc_oracle.antipode_function(f)

    def test_matrices(self, q, n):
        ctx = fq(q)
        assert hc_oracle.rows(duality_operator(n, ctx).matrix) == \
            hc_oracle.duality_matrix(ctx, n)
        assert hc_oracle.rows(antipode_matrix(ctx, n)) == hc_oracle.antipode_rows(ctx, n)


@pytest.mark.parametrize("q,n1,n2", [(2, 1, 1), (2, 1, 2), (2, 2, 1), (3, 1, 2)])
def test_kron(q, n1, n2):
    ctx = fq(q)
    d1, d2 = (duality_operator(n, ctx).matrix for n in (n1, n2))
    assert hc_oracle.rows(linalg.kron(d1, d2)) == \
        hc_oracle.kron(hc_oracle.rows(d1), hc_oracle.rows(d2))


def test_pairs_in_lowest_terms(q2):
    # equal matrices compare equal as pairs only in lowest terms, each x in
    # the narrowest tier that holds it; scaled over Python ints, as 6 x may
    # not fit x's dtype
    for op in (hc.restriction_matrix(q2, (1, 2)), hc.induction_matrix(q2, (2, 1)),
               duality_operator(3, q2).matrix, antipode_matrix(q2, 3)):
        x, den = op
        assert den > 0 and math.gcd(den, *map(int, x.flat)) == 1
        assert x.dtype == linalg_oracle.tier(x)
        scaled = (x.astype(object) * 6, den * 6)
        assert not linalg.mat_eq(op, scaled)
        assert linalg.mat_eq(op, linalg.reduced(*scaled))


def test_cached_pairs_in_their_narrowest_tier(monkeypatch, q3):
    # every pair a cold verify --q 3 caches in these builders is read-only
    # and in the narrowest tier of its values; each cache entry is seen once
    from glnq import cli, duality, hopf, invfun, psh
    builders = (hc.restriction_matrix, hc.induction_matrix, hc.mackey_operator,
                hopf.antipode_matrix, duality.duality_operator, invfun.character_matrix,
                psh.structure_constants)
    modules = (cli, hc, hopf, duality, invfun, psh)
    for mod in modules:
        for f in vars(mod).values():
            if hasattr(f, "cache_clear") and f.__module__ == mod.__name__:
                f.cache_clear()
    built = {f: {} for f in builders}
    for f in builders:
        def recorded(*args, f=f, **kwargs):
            out = f(*args, **kwargs)
            built[f][id(out)] = out.matrix if isinstance(out, duality.DualityOperator) else out
            return out
        for mod in modules:
            if getattr(mod, f.__name__, None) is f:
                monkeypatch.setattr(mod, f.__name__, recorded)
    assert cli.main(["verify", "--q", "3", "--output", "/dev/null"]) == 0
    for f in builders:
        assert len(built[f]) == f.cache_info().currsize > 0, f.__name__
        for x, den in built[f].values():
            assert x.dtype == linalg_oracle.tier(x) and not x.flags.writeable, f.__name__


def _cyclotomic_pair(rows, p):
    """A nested list of Cyclotomics as a 3-D (x, den) pair (see linalg)."""
    den = math.lcm(*(v.den for row in rows for v in row))
    x = np.array([[[a * (den // v.den) for a in v.num] for v in row] for row in rows],
                 dtype=object)
    return linalg.reduced(np.moveaxis(x, -1, 0), den)


def _entries(pair, p):
    x, den = pair
    return [[Cyclotomic._from_ints(p, list(x[:, i, j]), den) for j in range(x.shape[2])]
            for i in range(x.shape[1])]


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_cyclotomic_pairs_match_scalar_arithmetic(p):
    # matmul, kron and conj_t of 3-D pairs equal Cyclotomic arithmetic entry
    # by entry; zeta * zeta^(p-2) and conj(zeta) land on zeta^(p-1), which
    # has no plane of its own
    rng = random.Random(p)
    a, b, c = ([[random_value(rng, p) for _ in range(cols)] for _ in range(rows)]
               for rows, cols in ((2, 3), (3, 2), (2, 2)))
    pa, pb, pc = (_cyclotomic_pair(m, p) for m in (a, b, c))
    assert _entries(linalg.matmul(pa, pb), p) == \
        [[sum(a[i][k] * b[k][j] for k in range(3)) for j in range(2)] for i in range(2)]
    assert _entries(linalg.kron(pa, pc), p) == \
        [[a[i // 2][j // 2] * c[i % 2][j % 2] for j in range(6)] for i in range(4)]
    assert _entries(linalg.conj_t(pa), p) == [[a[j][i].conj() for j in range(2)]
                                               for i in range(3)]
    zeta, before, last = (_cyclotomic_pair([[Cyclotomic.zeta(p, e)]], p)
                          for e in (1, p - 2, p - 1))
    assert linalg.mat_eq(last, (np.full((p - 1, 1, 1), -1, dtype=object), 1))
    for got in (linalg.matmul(zeta, before), linalg.kron(before, zeta), linalg.conj_t(zeta)):
        assert linalg.mat_eq(got, last)


def _one_count_changed(real):
    """The builder with its last count moved by one."""
    def corrupt(ctx, parts):
        x, den = real(ctx, parts)
        x = x.copy()
        x[-1, -1] += 1
        return linalg.reduced(x, den)
    return corrupt


def test_changed_restriction_count_is_detected(monkeypatch, q2):
    f = constant_one(enumerate_orbits(3, q2))
    monkeypatch.setattr(hc, "restriction_matrix",
                        _one_count_changed(hc.restriction_matrix))
    assert hc.hc_restrict(f, (1, 2)) != hc_oracle.hc_restrict(f, (1, 2))


def test_changed_induction_count_is_detected(monkeypatch, q2):
    t = TensorFunction.outer([constant_one(enumerate_orbits(m, q2)) for m in (1, 2)])
    monkeypatch.setattr(hc, "induction_matrix",
                        _one_count_changed(hc.induction_matrix))
    assert hc.hc_induce(t, (1, 2)) != hc_oracle.hc_induce(t, (1, 2))
