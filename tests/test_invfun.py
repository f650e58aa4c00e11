"""Invariant functions: bases, inner products, tensors, graded sums."""
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glnq.field import Cyclotomic, fq
from glnq.glmat import Matrix, conjugate, enumerate_gl
from glnq.invfun import (GradedElement, InvariantFunction, TensorFunction,
                         constant_one, coords, fourier_character_basis,
                         indicator, indicator_by_index, inner_product,
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
        for g in enumerate_gl(2, q2):
            assert f.evaluate(conjugate(g, x)) == 1

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


class TestFourierBasis:
    def test_zero_orbit_gives_constant(self, q2):
        table = enumerate_orbits(2, q2)
        basis = fourier_character_basis(table)
        i0 = table.index_of_matrix(Matrix.zero(q2, 2))
        assert basis[i0] == constant_one(table)

    def test_n1_q2_sign_character(self, q2):
        table = enumerate_orbits(1, q2)
        basis = fourier_character_basis(table)
        i1 = table.index_of_matrix(Matrix.identity(q2, 1))
        assert [v.as_rational() for v in basis[i1].values] in ([1, -1], [-1, 1])
        assert basis[i1].evaluate(Matrix.zero(q2, 1)) == 1
        assert basis[i1].evaluate(Matrix.identity(q2, 1)) == -1

    def test_value_at_zero_is_orbit_size(self, q3):
        table = enumerate_orbits(2, q3)
        basis = fourier_character_basis(table)
        zero = Matrix.zero(q3, 2)
        for chi, size in zip(basis, table.sizes):
            assert chi.evaluate(zero) == size

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

    def test_zero(self, q2):
        t1 = enumerate_orbits(1, q2)
        z = TensorFunction.zero([t1, t1])
        assert z.is_zero()
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
