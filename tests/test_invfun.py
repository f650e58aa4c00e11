"""Invariant functions: bases, inner products, tensors, graded sums, and the
integer-array value layer and its inner products against their per-value
oracles."""
import math
import pickle
import random
import re
import tracemalloc
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import invfun_oracle
import linalg_oracle
import orbit_oracle
from glnq import hc, hopf, invfun, linalg
from glnq.duality import duality_operator
from glnq.field import ContextMismatchError, Cyclotomic, fq
from glnq.glmat import Matrix, compositions
from glnq.hopf import antipode_function
from glnq.invfun import (GradedElement, InvariantFunction, TensorFunction,
                         apply_operator, constant_one, coords,
                         fourier_character_basis, indicator,
                         indicator_by_index, inner_product,
                         inner_product_rational, tensor_inner_product)
from glnq.orbits import enumerate_orbits


class TestBasics:
    def test_partition_of_unity(self, q2):
        table = enumerate_orbits(2, q2)
        total = indicator(table.labels[0], table)
        for lab in table.labels[1:]:
            total = total + indicator(lab, table)
        assert total == constant_one(table)

    def test_indicator_values(self, q2):
        table = enumerate_orbits(2, q2)
        for i, rep in enumerate(table.reps):
            f = indicator_by_index(i, table)
            assert f.evaluate(rep) == 1
            for j, other in enumerate(table.reps):
                if j != i:
                    assert f.evaluate(other) == 0

    def test_evaluate_is_invariant(self, q2):
        table = enumerate_orbits(2, q2)
        f = indicator_by_index(3, table)
        x = table.reps[3]
        for g in orbit_oracle.enumerate_gl(2, q2):
            assert f.evaluate(orbit_oracle.conjugate(g, x)) == 1

    def test_constant_on_degree_zero(self, q2):
        table = enumerate_orbits(0, q2)
        assert constant_one(table).values[0] == 1

    def test_json_roundtrip(self, q3):
        table = enumerate_orbits(2, q3)
        f = InvariantFunction(table, [Cyclotomic.zeta(3) * Fraction(i + 1, 7)
                                      for i in range(len(table))])
        assert InvariantFunction.from_json(table, f.to_json()) == f

    @pytest.mark.parametrize("field", ["q", "n", "labels", "p"])
    def test_from_json_rejects_mismatch(self, q2, q3, field):
        table = enumerate_orbits(2, q3)
        data = constant_one(table).to_json()
        if field == "q":
            data["q"] = q2.serialize()
        elif field == "n":
            data["n"] = 3
        elif field == "labels":
            data["values"].popitem()
        else:
            data["values"] = {k: "2:[1]" for k in data["values"]}
        with pytest.raises(ValueError, match='"q"' if field == "q" else
                           '"n"' if field == "n" else '"values"'):
            InvariantFunction.from_json(table, data)


class TestInnerProduct:
    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_degree_one_norm(self, q):
        ctx = fq(q)
        one = constant_one(enumerate_orbits(1, ctx))
        assert inner_product_rational(one, one) == Fraction(q, q - 1)

    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_degree_two_norm(self, q):
        ctx = fq(q)
        one = constant_one(enumerate_orbits(2, ctx))
        assert inner_product_rational(one, one) == \
            Fraction(q ** 4, q * (q - 1) ** 2 * (q + 1))

    def test_indicators_orthogonal(self, q2):
        table = enumerate_orbits(2, q2)
        for i in range(len(table)):
            for j in range(len(table)):
                ip = inner_product_rational(indicator_by_index(i, table),
                                            indicator_by_index(j, table))
                if i == j:
                    assert ip == Fraction(table.sizes[i], table.gl_order)
                else:
                    assert ip == 0


def oracle_characters(table):
    """character_counts as the (F, 1) pair of character_matrix, indexed
    (t, x, O): N_t counts per plane t < p, and zeta^(p-1) folds into planes
    0..p-2."""
    c = invfun_oracle.character_counts(table).transpose(2, 0, 1)
    return linalg.reduced(c[:-1] - c[-1], 1)


class TestFourierBasis:
    def test_zero_orbit_gives_constant(self, q2):
        table = enumerate_orbits(2, q2)
        basis = fourier_character_basis(table)
        i0 = table.index_of_matrix(Matrix.zero(q2, 2))
        assert basis[i0] == constant_one(table)

    def test_n1_q2_sign_character(self, q2):
        table = enumerate_orbits(1, q2)
        basis = fourier_character_basis(table)
        i1 = table.index_of_matrix(Matrix(q2, [[1]]))
        assert [v.as_rational() for v in basis[i1].values] in ([1, -1], [-1, 1])
        assert basis[i1].evaluate(Matrix.zero(q2, 1)) == 1
        assert basis[i1].evaluate(Matrix(q2, [[1]])) == -1

    def test_value_at_zero_is_orbit_size(self, q3):
        table = enumerate_orbits(2, q3)
        basis = fourier_character_basis(table)
        zero = Matrix.zero(q3, 2)
        for chi, size in zip(basis, table.sizes):
            assert chi.evaluate(zero) == size

    # every default verify budget, two more extension fields, and q=19, whose
    # 380 orbits hold the lookup in uint16 (q=9's 90 in uint8)
    @pytest.mark.parametrize("q,n", [(2, 3), (3, 2), (4, 2), (5, 2), (8, 1), (9, 2),
                                     (2, 1), (2, 2), (2, 4), (3, 1), (3, 3),
                                     (4, 1), (5, 1), (8, 2), (19, 2)])
    def test_character_matrix_matches_oracle(self, q, n):
        table = enumerate_orbits(n, fq(q))
        assert linalg.mat_eq(invfun.character_matrix(table), oracle_characters(table))

    @pytest.mark.parametrize("q,n", orbit_oracle.DEFAULT_SIZES)
    def test_trace_table_matches_oracle(self, q, n):
        ctx = fq(q)
        assert np.array_equal(invfun._trace_table(ctx, n),
                              invfun_oracle.trace_table(ctx, n))

    @given(st.sampled_from([(2, 2), (3, 2), (4, 2), (9, 2)]), st.data())
    @settings(max_examples=20, deadline=None)
    def test_swapped_trace_entry_fails(self, qn, data):
        # two entries of different trace swapped in the table
        q, n = qn
        T = invfun._trace_table(fq(q), n).copy()
        a, b = data.draw(st.lists(st.integers(0, T.size - 1), min_size=2,
                                  max_size=2, unique=True))
        assume(T.flat[a] != T.flat[b])
        T.flat[[a, b]] = T.flat[[b, a]]
        assert not np.array_equal(T, invfun_oracle.trace_table(fq(q), n))

    @pytest.mark.parametrize("q,n", [(2, 2), (2, 3), (3, 2), (4, 2), (5, 2)])
    def test_corrupted_trace_table_changes_the_characters(self, q, n, monkeypatch):
        # T[0, 0] = Tr(0) is 0; at 1 every a with zero row 0 moves its count
        # at the zero representative from plane 0 to plane 1
        table = enumerate_orbits(n, fq(q))
        real = invfun._trace_table

        def corrupted(ctx, m):
            T = real(ctx, m).copy()
            T[0, 0] = 1
            return T

        monkeypatch.setattr(invfun, "_trace_table", corrupted)
        assert not linalg.mat_eq(invfun.character_matrix.__wrapped__(table),
                                 oracle_characters(table))

    @pytest.mark.parametrize("q,n", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)])
    def test_gram_is_diagonal(self, q, n):
        ctx = fq(q)
        basis = fourier_character_basis(enumerate_orbits(n, ctx))
        for i, bi in enumerate(basis):
            for j, bj in enumerate(basis):
                ip = inner_product(bi, bj)
                if i == j:
                    assert ip.as_rational() > 0
                else:
                    assert ip.is_zero()

    def test_coords_reconstruction(self, q2):
        table = enumerate_orbits(2, q2)
        basis = fourier_character_basis(table)
        for i in range(len(table)):
            f = indicator_by_index(i, table)
            cs = coords(f, basis)
            recon = basis[0].scale(cs[0])
            for c, b in zip(cs[1:], basis[1:]):
                recon = recon + b.scale(c)
            assert recon == f

    def test_coords_of_basis_vector(self, q2):
        table = enumerate_orbits(1, q2)
        basis = fourier_character_basis(table)
        assert [c.as_rational() for c in coords(basis[0], basis)] == [1, 0]
        zero = InvariantFunction(table, [0, 0])
        assert all(c.is_zero() for c in coords(zero, basis))


class TestTensors:
    def test_outer_and_inner(self, q2):
        t1 = enumerate_orbits(1, q2)
        f = indicator_by_index(0, t1)
        g = indicator_by_index(1, t1)
        s = TensorFunction.outer([f, g])
        # factorized inner product of an outer product
        assert tensor_inner_product(s, s).as_rational() == \
            inner_product_rational(f, f) * inner_product_rational(g, g)

    def test_permute(self, q2):
        t1 = enumerate_orbits(1, q2)
        t2 = enumerate_orbits(2, q2)
        s = TensorFunction.outer([constant_one(t1), indicator_by_index(2, t2)])
        p = s.permute((1, 0))
        assert p.degrees == (2, 1)
        assert p.permute((1, 0)) == s

    def test_zero(self, q2, q3):
        t = {(ctx.q, n): enumerate_orbits(n, ctx) for ctx in (q2, q3) for n in (1, 2)}
        for tables in ([t[2, 1], t[2, 1]], [t[3, 1], t[3, 2]], [t[2, 2]], []):
            z = TensorFunction.zero(tables)
            grid = product(*(range(len(t)) for t in tables))
            assert z == TensorFunction(tables, dict.fromkeys(grid, 0))
            assert z.is_zero() and all(v == 0 for v in z.values.values())
            assert (z + z) == z


class TestGradedElement:
    def test_arithmetic(self, q2):
        one1 = constant_one(enumerate_orbits(1, q2))
        one2 = constant_one(enumerate_orbits(2, q2))
        x = GradedElement.homogeneous(one1) + GradedElement.homogeneous(one2)
        assert x.degrees() == [1, 2]
        assert (x - x).is_zero()
        assert x.component(1) == one1
        assert x.component(3).is_zero()

    def test_scalar(self, q2):
        s = GradedElement.scalar(q2, Fraction(3, 4))
        assert s.component(0).values[0] == Fraction(3, 4)


@given(st.sampled_from([(2, 1), (2, 2), (3, 1)]), st.data())
@settings(max_examples=30, deadline=None)
def test_inner_product_is_hermitian_and_positive(qn, data):
    q, n = qn
    ctx = fq(q)
    table = enumerate_orbits(n, ctx)
    ints = st.integers(-5, 5)
    f = InvariantFunction(table, [data.draw(ints) for _ in table.labels])
    g = InvariantFunction(table, [data.draw(ints) for _ in table.labels])
    assert inner_product(f, g) == inner_product(g, f).conj()
    norm = inner_product_rational(f, f)
    assert norm >= 0
    assert (norm == 0) == f.is_zero()


@given(st.sampled_from([(2, 2), (3, 2), (4, 1), (5, 1)]), st.data())
@settings(max_examples=30, deadline=None)
def test_json_roundtrip_on_random_values(qn, data):
    q, n = qn
    table = enumerate_orbits(n, fq(q))
    p = table.ctx.p
    f = InvariantFunction(table, [
        Cyclotomic(p, tuple(data.draw(st.fractions()) for _ in range(p - 1)))
        for _ in table.labels])
    assert InvariantFunction.from_json(table, f.to_json()) == f


# ---------------------------------------------------------------------------
# the integer-array value layer against its per-value oracle


# largest degree drawn per field size
ORACLE_MAX_N = {2: 3, 3: 2, 4: 2, 5: 2}


def _draw_values(data, p, count):
    """Values in Q(zeta_p) as a mix of Cyclotomics, ints and Fractions."""
    coeff = st.fractions(min_value=-5, max_value=5, max_denominator=6)
    rational = st.one_of(st.integers(-5, 5), coeff)
    cyclotomic = st.lists(coeff, min_size=p - 1, max_size=p - 1).map(
        lambda c: Cyclotomic(p, c))
    return data.draw(st.lists(st.one_of(rational, cyclotomic, st.just(0)),
                              min_size=count, max_size=count))


def _pair(data, ctx, n):
    """One function of degree n, in the new layer and in the oracle's."""
    table = enumerate_orbits(n, ctx)
    vals = _draw_values(data, ctx.p, len(table))
    return InvariantFunction(table, vals), invfun_oracle.TupleFunction(table, vals)


def _same(new, old):
    assert new.values == old.values
    if isinstance(new, InvariantFunction):
        assert new.to_json() == old.to_json()
        assert (hash(new) == hash(InvariantFunction(new.table, new.values))
                == hash(InvariantFunction(new.table, old.values)))
    assert new.is_zero() == old.is_zero()


@given(st.sampled_from(sorted(ORACLE_MAX_N)), st.data())
@settings(max_examples=40, deadline=None)
def test_value_layer_matches_oracle(q, data):
    ctx = fq(q)
    p = ctx.p
    n = data.draw(st.integers(1, ORACLE_MAX_N[q]), label="n")
    f, of = _pair(data, ctx, n)
    g, og = _pair(data, ctx, n)
    scalars = [data.draw(st.integers(-4, 4)),
               data.draw(st.fractions(min_value=-3, max_value=3, max_denominator=5)),
               _draw_values(data, p, 1)[0]]
    for new, old in [(f + g, of + og), (f - g, of - og), (-f, -of), (f - f, of - of)]:
        _same(new, old)
    for c in scalars:
        _same(f.scale(c), of.scale(c))
    assert (f == g) == (of == og)
    assert f == InvariantFunction(f.table, of.values)

    comp = data.draw(st.sampled_from([c.parts for c in compositions(n)]
                                     + [(0, n), (n, 0)]), label="composition")
    _same(hc.hc_restrict(f, comp), invfun_oracle.hc_restrict(of, comp))
    _same(duality_operator(n, ctx).apply(f), invfun_oracle.duality_apply(of))
    _same(antipode_function(f), invfun_oracle.antipode_function(of))

    # tensors: outer, permute, concat, sums, scaling and induction
    a = data.draw(st.integers(1, ORACLE_MAX_N[q] - 1), label="a") if n > 1 else 1
    (fa, ofa), (fb, ofb) = _pair(data, ctx, a), _pair(data, ctx, max(n - a, 1))
    s, os_ = TensorFunction.outer([fa, fb]), invfun_oracle.DictTensor.outer([ofa, ofb])
    _same(s, os_)
    _same(s.permute((1, 0)), os_.permute((1, 0)))
    _same(s.concat(TensorFunction.outer([f])),
          invfun_oracle.tensor_concat(os_, invfun_oracle.DictTensor.outer([of])))
    r, or_ = hc.hc_restrict(g, comp), invfun_oracle.hc_restrict(og, comp)
    _same(r + hc.hc_restrict(f, comp), or_ + invfun_oracle.hc_restrict(of, comp))
    _same(r - r.scale(scalars[2]), or_ - or_.scale(scalars[2]))
    assert (s == s.scale(scalars[0])) == (os_ == os_.scale(scalars[0]))
    parts = (fa.n, fb.n)
    _same(hc.hc_induce(s, parts), invfun_oracle.hc_induce(os_, parts))


# ---------------------------------------------------------------------------
# the inner products against the scalar loops of the oracle


# largest degree drawn per field size, for functions and for tensor factors
PAIRING_MAX_N = {2: 3, 3: 3, 4: 2, 5: 2}
FACTOR_MAX_N = {2: 2, 3: 2, 4: 1, 5: 1}


def _tensor_pair(data, ctx, degrees):
    """One tensor over the given factor degrees, in both layers."""
    pairs = [_pair(data, ctx, m) for m in degrees]
    return (TensorFunction.outer([f for f, _ in pairs]),
            invfun_oracle.DictTensor.outer([of for _, of in pairs]))


@given(st.sampled_from(sorted(PAIRING_MAX_N)), st.data())
@settings(max_examples=40, deadline=None)
def test_pairing_matches_oracle(q, data):
    ctx = fq(q)
    p = ctx.p
    coeff = st.fractions(min_value=-4, max_value=4, max_denominator=6)
    c = (Cyclotomic(p, data.draw(st.lists(coeff, min_size=p - 1, max_size=p - 1)))
         * Fraction(1, data.draw(st.integers(2, 12), label="den")))
    n = data.draw(st.integers(1, PAIRING_MAX_N[q]), label="n")
    (f, of), (g, og) = _pair(data, ctx, n), _pair(data, ctx, n)
    degrees = data.draw(st.lists(st.integers(1, FACTOR_MAX_N[q]), min_size=1, max_size=3),
                        label="degrees")
    (s, os_), (t, ot) = _tensor_pair(data, ctx, degrees), _tensor_pair(data, ctx, degrees)
    (f, of), (s, os_) = (f.scale(c), of.scale(c)), (s.scale(c), os_.scale(c))
    assume(f.den > 1 and s.den > 1)
    for a, b, oa, ob in [(f, g, of, og), (g, f, og, of), (f, f, of, of)]:
        assert inner_product(a, b) == invfun_oracle.inner_product(oa, ob)
    assert tensor_inner_product(s, t) == invfun_oracle.tensor_inner_product(os_, ot)
    assert tensor_inner_product(t, s) == invfun_oracle.tensor_inner_product(ot, os_)


class TestPairing:
    def test_rejects_other_tables(self, q3):
        t1, t2 = enumerate_orbits(1, q3), enumerate_orbits(2, q3)
        with pytest.raises(ValueError, match="different orbit tables"):
            inner_product(constant_one(t1), constant_one(t2))
        s = TensorFunction.outer([constant_one(t1), constant_one(t2)])
        with pytest.raises(ValueError, match="different tables"):
            tensor_inner_product(s, s.permute((1, 0)))

    @pytest.mark.parametrize("q", [2, 3, 4, 5])
    def test_sees_a_corrupted_entry(self, q):
        # one num entry off by one changes (f, 1) by |O| zeta^a / (|G| den)
        ctx = fq(q)
        p, rng = ctx.p, random.Random(q)
        table = enumerate_orbits(2, ctx)
        f = InvariantFunction(table, [Cyclotomic(p, [Fraction(rng.randint(-5, 5), 3)
                                                     for _ in range(p - 1)])
                                      for _ in table.labels])
        s = TensorFunction.outer([indicator_by_index(1, enumerate_orbits(1, ctx)), f])
        for h, ip, oracle in ((f, inner_product, invfun_oracle.inner_product),
                              (s, tensor_inner_product, invfun_oracle.tensor_inner_product)):
            one = type(h)._from_array(h.tables, np.ones_like(h.num), 1)
            want = ip(h, one)
            assert want == oracle(h, one)
            for idx in np.ndindex(h.num.shape):
                num = h.num.copy()
                num[idx] += 1
                bad = type(h)._from_array(h.tables, num, h.den)
                assert ip(bad, one) != want
                assert ip(bad, one) == oracle(bad, one)


def _function(ctx, n, seed):
    table = enumerate_orbits(n, ctx)
    return InvariantFunction(table, _random_values(random.Random(seed), ctx.p, len(table)))


def _outer(ctx):
    return TensorFunction.outer([_function(ctx, 1, 0), _function(ctx, 2, 1)])


# every way of building a function or tensor, each from a context
BUILDS = {
    "init": lambda ctx: _function(ctx, 2, 0),
    "tensor-init": lambda ctx: _random_tensor(
        random.Random(0), (enumerate_orbits(2, ctx), enumerate_orbits(1, ctx))),
    "indicator": lambda ctx: indicator_by_index(1, enumerate_orbits(2, ctx)),
    "constant_one": lambda ctx: constant_one(enumerate_orbits(2, ctx)),
    "zero": lambda ctx: TensorFunction.zero((enumerate_orbits(1, ctx),
                                             enumerate_orbits(2, ctx))),
    "outer": _outer,
    "concat": lambda ctx: _outer(ctx).concat(TensorFunction.outer([_function(ctx, 1, 2)])),
    "permute": lambda ctx: _outer(ctx).permute((1, 0)),
    "scale": lambda ctx: _outer(ctx).scale(Cyclotomic.zeta(ctx.p, 2) * Fraction(1, 3)),
    "add": lambda ctx: _function(ctx, 2, 0) + _function(ctx, 2, 1),
    "sub": lambda ctx: _outer(ctx) - _outer(ctx).scale(2),
    "neg": lambda ctx: -_outer(ctx),
    "apply_operator": lambda ctx: hc.hc_restrict(_function(ctx, 2, 0), (1, 1)),
    "columns": lambda ctx: hc._columns(
        hc._pair_block([_function(ctx, 1, 0), _function(ctx, 1, 1)], [_function(ctx, 2, 2)]),
        (enumerate_orbits(1, ctx), enumerate_orbits(2, ctx)))[1],
    "primitive": lambda ctx: hopf.primitive_subspace(ctx, 2).members[-1],
    "fourier": lambda ctx: fourier_character_basis(enumerate_orbits(2, ctx))[3],
    "pickle": lambda ctx: pickle.loads(pickle.dumps(_outer(ctx).permute((1, 0)))),
}


class TestCanonicalForm:
    @pytest.mark.parametrize("build", list(BUILDS))
    def test_planes_first(self, build):
        # q=5: 4 planes over tables of 5 and 30 orbits, so no axes coincide
        ctx = fq(5)
        h = BUILDS[build](ctx)
        assert h.num.shape == (ctx.p - 1,) + tuple(map(len, h.tables))
        assert h.num.flags.c_contiguous and not h.num.flags.writeable

    def test_misshapen_values_raise(self, q3):
        # the same values in a (dims..., p - 1) layout would be read with
        # their planes scrambled
        f = _function(q3, 2, 0)
        with pytest.raises(ValueError, match=re.escape("values of shape (12, 2), not (2, 12)")):
            InvariantFunction._from_array(f.tables, f.num.T, f.den)
        t = TensorFunction.outer([_function(q3, 1, 1), f])
        with pytest.raises(ValueError, match=re.escape(
                "values of shape (3, 12, 2), not (2, 3, 12)")):
            TensorFunction._from_array(t.tables, np.moveaxis(t.num, 0, -1), t.den)
        with pytest.raises(ValueError, match=re.escape("not (2, 3, 12)")):
            TensorFunction._from_pair(t.tables, (f.num, f.den))

    def test_num_is_read_only(self, q3):
        f = constant_one(enumerate_orbits(2, q3))
        t = TensorFunction.outer([f, f])
        for arr in (f.num, t.num, hc.hc_restrict(f, (1, 1)).num, t.permute((1, 0)).num):
            with pytest.raises(ValueError):
                arr[(0,) * arr.ndim] = 7

    @given(st.sampled_from([2, 3, 5]), st.data())
    @settings(max_examples=30, deadline=None)
    def test_lowest_terms(self, q, data):
        ctx = fq(q)
        f, _ = _pair(data, ctx, 1)
        g, _ = _pair(data, ctx, 2)
        for h in (f, f + f, f.scale(Fraction(3, 4)), -f, f - f, TensorFunction.outer([f, f]),
                  hc.hc_restrict(g, (1, 1)), duality_operator(2, ctx).apply(g)):
            assert h.den > 0
            assert math.gcd(h.den, *h.num.flat) == 1
            # the narrowest tier that holds every entry (see linalg)
            assert h.num.dtype == linalg_oracle.tier(h.num)

    def test_one_form_however_built(self, q3):
        # the largest numerator is 11 * scale: scale 1 keeps every route in
        # int16, 2^12 puts it in int32, 2^28 in int64 and 2^62 past int64,
        # where every route gives Python ints
        table = enumerate_orbits(2, q3)
        z = Cyclotomic.zeta(3)
        for scale, dtype in [(1, np.int16), (2 ** 12, np.int32), (2 ** 28, np.int64),
                             (2 ** 62, object)]:
            # values sharing a factor with their common denominator
            built = InvariantFunction(table, [Fraction(2 * i * scale, 6) * (z if i % 2 else 1)
                                              for i in range(len(table))])
            by_arith = built.scale(3) - built.scale(Fraction(4, 2))
            x, den = linalg.identity(len(table))
            by_operator = apply_operator((x.astype(np.int64) * 6, den * 6),
                                         TensorFunction.outer([built]), 0, 1,
                                         (table,)).as_function()
            # the values times 4 over 4 times the den, as Python ints and,
            # where they fit, as an exact int64 product reduced by numpy's gcd
            others = [by_arith, by_operator, InvariantFunction._from_array(
                (table,), built.num.astype(object) * 4, built.den * 4)]
            if dtype is not object:
                others.append(InvariantFunction._from_array(
                    (table,), built.num.astype(np.int64) * 4, built.den * 4))
            assert built.num.dtype == dtype == linalg_oracle.tier(built.num)
            for h in others:
                assert h.den == built.den
                assert h.num.dtype == dtype and not h.num.flags.writeable
                assert np.array_equal(h.num, built.num)
                assert hash(h) == hash(built)
                assert h == built

    def test_pickle_keeps_the_canonical_form(self, q3):
        table = enumerate_orbits(2, q3)
        f = InvariantFunction(table, [Fraction(i, 4) * Cyclotomic.zeta(3, i)
                                      for i in range(len(table))])
        for h in (f, TensorFunction.outer([f, f]), hc.hc_restrict(f, (1, 1))):
            c = pickle.loads(pickle.dumps(h))
            assert type(c) is type(h)
            assert not c.num.flags.writeable
            assert c.den == h.den and np.array_equal(c.num, h.num)
            assert c.values == h.values
            # a pickled state not in lowest terms comes back in lowest terms
            rebuild, (tables, num, den) = h.__reduce__()
            c = rebuild(tables, num.astype(object) * 6, den * 6)
            assert c == h and not c.num.flags.writeable

    def test_hash_reads_the_ints_not_the_pointers(self, q3):
        table = enumerate_orbits(1, q3)
        big = 10 ** 30 + 7
        f = InvariantFunction(table, [Cyclotomic(3, (big, -big)), big, Fraction(big, 3)])
        g = InvariantFunction.from_json(table, f.to_json())
        # equal ints held by different objects
        assert f.num.tobytes() != g.num.tobytes()
        assert f == g and hash(f) == hash(g)
        t, u = TensorFunction.outer([f, f]), TensorFunction.outer([g, g])
        assert t == u and hash(t) == hash(u)


class TestSingleStore:
    """A function keeps only its (num, den) planes; .values is built per read."""

    def test_slots(self):
        assert invfun._Values.__slots__ == ("tables", "num", "den")
        assert InvariantFunction.__slots__ == TensorFunction.__slots__ == ()

    def test_values_are_built_on_each_read(self, q3):
        table = enumerate_orbits(2, q3)
        f = InvariantFunction(table, [Cyclotomic.zeta(3, i) * i for i in range(len(table))])
        for h in (f, TensorFunction.outer([f, f])):
            first, second = h.values, h.values
            assert first == second and first is not second

    def test_built_from_values_keeps_what_from_array_keeps(self, q3):
        table = enumerate_orbits(2, q3)
        f = InvariantFunction(table, [Fraction(i, 3) * Cyclotomic.zeta(3, i)
                                      for i in range(len(table))])
        g = InvariantFunction._from_array((table,), f.num.copy(), f.den)
        (rf, (tf, nf, df)), (rg, (tg, ng, dg)) = f.__reduce__(), g.__reduce__()
        assert rf == rg and tf == tg and df == dg and np.array_equal(nf, ng)
        assert f.evaluate(table.reps[5]) == f.values[5]

    def test_applied_operators_keep_one_array(self, q3):
        # a result's num is its own compact array, not a view whose base
        # would keep a second array header alive
        f = constant_one(enumerate_orbits(3, q3))
        t = TensorFunction.outer([constant_one(enumerate_orbits(m, q3)) for m in (1, 2)])
        for h in (hc.hc_restrict(f, (1, 2)), hc.hc_induce(t, (1, 2)),
                  duality_operator(3, q3).apply(f), antipode_function(f)):
            assert h.num.base is None and not h.num.flags.writeable
            assert h.num.dtype == linalg_oracle.tier(h.num)

    def test_bytes_per_function(self, q3):
        table = enumerate_orbits(3, q3)
        rng = random.Random(0)

        def build():
            return InvariantFunction(table, [
                Cyclotomic(3, [rng.randint(-3, 3), rng.randint(-3, 3)])
                for _ in range(len(table))])
        build()  # warm every lazy cache before tracing
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            held = [build() for _ in range(1000)]
            per_function = (tracemalloc.get_traced_memory()[0] - before) / len(held)
        finally:
            tracemalloc.stop()
        assert per_function < 700, per_function


class TestFieldOfValues:
    def test_function_rejects_another_p(self):
        table = enumerate_orbits(1, fq(3))
        with pytest.raises(ContextMismatchError):
            InvariantFunction(table, [Cyclotomic(2, [1])] * 3)
        with pytest.raises(ContextMismatchError):
            constant_one(table).scale(Cyclotomic.zeta(5))

    def test_tensor_rejects_another_p(self):
        tables = [enumerate_orbits(1, fq(3))] * 2
        vals = {idx: Cyclotomic(5, [1, 0, 0, 0]) for idx in product(range(3), repeat=2)}
        with pytest.raises(ContextMismatchError):
            TensorFunction(tables, vals)

    def test_tensor_converts_ints_and_fractions(self, q3):
        table = enumerate_orbits(1, q3)
        t = TensorFunction([table, table], {(i, j): Fraction(i, j + 1) if i else 2
                                            for i in range(3) for j in range(3)})
        assert all(isinstance(v, Cyclotomic) and v.p == 3 for v in t.values.values())
        assert t.values[(0, 1)] == 2 and t.values[(2, 1)] == 1
        assert t == TensorFunction([table, table], t.values)

    def test_tensor_requires_every_index_tuple(self, q3):
        table = enumerate_orbits(1, q3)
        vals = {(i, j): 1 for i in range(3) for j in range(3)}
        vals[(3, 0)] = vals.pop((2, 2))
        with pytest.raises(ValueError, match="dense"):
            TensorFunction([table, table], vals)


def _random_values(rng, p, count):
    return [Cyclotomic(p, [Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                           for _ in range(p - 1)]) for _ in range(count)]


def _random_tensor(rng, tables):
    idx = list(product(*(range(len(t)) for t in tables)))
    return TensorFunction(tables, dict(zip(idx, _random_values(rng, tables[0].ctx.p,
                                                                 len(idx)))))


def _apply_entrywise(op, s, tables):
    """A Q(zeta_p) operator applied to the whole of s, one Cyclotomic
    multiply-add at a time (invfun_oracle)."""
    out = invfun_oracle.apply_cyclotomic_operator(
        op, invfun_oracle.DictTensor(s.tables, s.values), 0, len(s.tables), tables)
    return TensorFunction(out.tables, out.values)


@pytest.mark.parametrize("q", [2, 3, 5])
@pytest.mark.parametrize("source,target", [((1, 1), (2,)), ((2,), (1, 1)), ((1,), (0, 1))])
class TestAdjoint:
    """invfun.adjoint moves an operator across the pairing of the indicator
    bases: (op s, t) = (s, adjoint(op) t) for every s over `source` and t
    over `target`, on random Q(zeta_p) values."""

    def _tables(self, ctx, source, target):
        return tuple(tuple(enumerate_orbits(m, ctx) for m in degrees)
                     for degrees in (source, target))

    def test_rational_operator(self, q, source, target):
        ctx, rng = fq(q), random.Random(f"adjoint-{q}-{source}-{target}")
        src, tgt = self._tables(ctx, source, target)
        rows, cols = (math.prod(map(len, tabs)) for tabs in (tgt, src))
        op = linalg.reduced(np.array([[rng.randint(-5, 5) for _ in range(cols)]
                                      for _ in range(rows)], dtype=object), rng.randint(1, 6))
        adj = invfun.adjoint(op, src, tgt)
        for _ in range(3):
            s, t = _random_tensor(rng, src), _random_tensor(rng, tgt)
            lhs = tensor_inner_product(apply_operator(op, s, 0, len(src), tgt), t)
            assert lhs == tensor_inner_product(s, apply_operator(adj, t, 0, len(tgt), src))
        assert linalg.mat_eq(invfun.adjoint(adj, tgt, src), op)

    def test_cyclotomic_operator(self, q, source, target):
        ctx, rng = fq(q), random.Random(f"adjoint-zeta-{q}-{source}-{target}")
        p = ctx.p
        src, tgt = self._tables(ctx, source, target)
        rows, cols = (math.prod(map(len, tabs)) for tabs in (tgt, src))
        op = linalg.reduced(np.array([[[rng.randint(-5, 5) for _ in range(cols)]
                                       for _ in range(rows)] for _ in range(p - 1)],
                                     dtype=object), rng.randint(1, 6))
        adj = invfun.adjoint(op, src, tgt)
        s, t = _random_tensor(rng, src), _random_tensor(rng, tgt)
        assert (tensor_inner_product(_apply_entrywise(op, s, tgt), t)
                == tensor_inner_product(s, _apply_entrywise(adj, t, src)))
        assert linalg.mat_eq(invfun.adjoint(adj, tgt, src), op)


class TestCyclotomicOperator:
    """apply_operator applies a Q(zeta_p) operator, whose x is 3-D, by the
    same linalg.matmul on the value planes as a rational one."""

    @pytest.mark.parametrize("start", [0, 1], ids=["leading", "middle"])
    @pytest.mark.parametrize("target", [(1, 1), (2,)])
    def test_matches_the_entrywise_oracle(self, q3, target, start):
        rng = random.Random(f"apply-zeta-{target}")
        t1, t2 = enumerate_orbits(1, q3), enumerate_orbits(2, q3)
        tgt = tuple(enumerate_orbits(m, q3) for m in target)
        rows = math.prod(map(len, tgt))
        op = linalg.reduced(np.array([[[rng.randint(-3, 3) for _ in range(len(t2))]
                                       for _ in range(rows)] for _ in range(2)],
                                     dtype=object), 1)
        assert op[0].shape in ((2, 9, 12), (2, 12, 12))
        # the t2 factor leads a two-factor tensor, or sits between two t1s
        tables = (t2, t1) if start == 0 else (t1, t2, t1)
        s = _random_tensor(rng, tables)
        got = apply_operator(op, s, start, 1, tgt)
        want = invfun_oracle.apply_cyclotomic_operator(
            op, invfun_oracle.DictTensor(tables, s.values), start, 1, tgt)
        assert got.tables == want.tables
        assert got.values == want.values
        assert got.num.shape == (2,) + tuple(map(len, got.tables))

    @pytest.mark.parametrize("q", [2, 3, 4, 5])
    def test_fourier_operator_gives_the_characters(self, q):
        # (F 1_O)(x) = F[x, O] = chi_O(x), in degree 2
        ctx = fq(q)
        table = enumerate_orbits(2, ctx)
        fourier, basis = invfun.character_matrix(table), fourier_character_basis(table)
        for i in range(len(table)):
            one = TensorFunction.outer([indicator_by_index(i, table)])
            assert apply_operator(fourier, one, 0, 1, (table,)).as_function() == basis[i]
