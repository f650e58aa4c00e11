"""The alternating-sum duality operation, the Steinberg function, and the
antipode comparison."""
import math
from fractions import Fraction

import numpy as np
import pytest

from glnq import duality, linalg
from glnq.duality import (DualityOperator, duality_operator, steinberg,
                          steinberg_constituents, verify_antipode_is_duality,
                          verify_characterization, verify_involutive_isometric)
from glnq.field import fq
from glnq.hc import hc_induce
from glnq.hopf import antipode_function, is_primitive, primitive_subspace
from glnq.invfun import TensorFunction, constant_one, indicator_by_index
from glnq.orbits import enumerate_orbits


class TestOperator:
    def test_degree_zero_and_one_identity(self, q2, q3):
        for ctx in (q2, q3):
            assert linalg.mat_eq(duality_operator(0, ctx).matrix, linalg.identity(1))
            d1 = duality_operator(1, ctx).matrix
            assert linalg.mat_eq(d1, linalg.identity(len(d1[0])))

    def test_signs_alternate_with_levi_rank(self, q2):
        # degree 2: D = Ind_(1,1) Res_(1,1) - id
        from glnq.hc import induction_matrix, restriction_matrix
        d = duality_operator(2, q2).matrix
        prod = linalg.matmul(induction_matrix(q2, (1, 1)),
                             restriction_matrix(q2, (1, 1)))
        x, den = linalg.identity(len(d[0]))
        assert linalg.mat_eq(d, linalg.add(prod, (-x, den)))


class TestSteinberg:
    def test_low_degrees_are_constant(self, q2, q3):
        for ctx in (q2, q3):
            assert steinberg(0, ctx) == constant_one(enumerate_orbits(0, ctx))
            assert steinberg(1, ctx) == constant_one(enumerate_orbits(1, ctx))

    @pytest.mark.parametrize("q", [2, 3])
    def test_degree_two_product_formula(self, q):
        # product of degree-one constants = St_2 + 1
        ctx = fq(q)
        one1 = constant_one(enumerate_orbits(1, ctx))
        one2 = constant_one(enumerate_orbits(2, ctx))
        ind = hc_induce(TensorFunction.outer([one1, one1]), (1, 1))
        st2 = steinberg(2, ctx)
        assert ind == st2 + one2
        assert st2 == ind - one2

    @pytest.mark.parametrize("q", [2, 3])
    def test_degree_two_involution(self, q):
        ctx = fq(q)
        st2 = steinberg(2, ctx)
        one2 = constant_one(enumerate_orbits(2, ctx))
        assert duality_operator(2, ctx).apply(st2) == one2

    @pytest.mark.parametrize("q", [2, 3])
    def test_difference_is_primitive(self, q):
        ctx = fq(q)
        diff = steinberg(2, ctx) - constant_one(enumerate_orbits(2, ctx))
        assert is_primitive(diff)
        # and the duality negates it
        assert duality_operator(2, ctx).apply(diff) == diff.scale(Fraction(-1))

    @pytest.mark.parametrize("q,max_n", [(2, 4), (3, 3)])
    def test_antipode_of_constant(self, q, max_n):
        ctx = fq(q)
        for n in range(max_n + 1):
            one = constant_one(enumerate_orbits(n, ctx))
            assert antipode_function(one).scale(Fraction((-1) ** n)) == \
                steinberg(n, ctx)

    @pytest.mark.parametrize("q,n,count", [(2, 1, 1), (2, 2, 2), (2, 3, 3),
                                           (3, 1, 1), (3, 2, 2), (3, 3, 3)])
    def test_constituents(self, q, n, count):
        assert steinberg_constituents(n, fq(q)) == count


class TestProperties:
    @pytest.mark.parametrize("q,max_n", [(2, 4), (3, 3)])
    def test_antipode_is_duality(self, q, max_n):
        assert verify_antipode_is_duality(max_n, fq(q)).passed

    @pytest.mark.parametrize("q,n", [(2, 1), (2, 2), (2, 3), (2, 4),
                                     (3, 1), (3, 2), (3, 3)])
    def test_involutive_isometric(self, q, n):
        assert verify_involutive_isometric(n, fq(q)).passed

    @pytest.mark.parametrize("q,n", [(2, 2), (2, 3), (3, 2)])
    def test_involution_that_is_no_isometry_fails(self, monkeypatch, q, n):
        # P D P^-1 with P = diag(1, 2, ..., k) squares to the identity, but
        # preserves the Gram matrix only where D commutes with P^2, and D is
        # not diagonal
        ctx = fq(q)
        x, den = duality_operator(n, ctx).matrix
        diag = np.arange(1, len(x) + 1, dtype=object)
        scale = math.lcm(*diag)
        conjugated = linalg.reduced(diag[:, None] * x * (scale // diag), den * scale)
        assert linalg.mat_eq(linalg.matmul(conjugated, conjugated),
                             linalg.identity(len(x)))
        monkeypatch.setattr(duality, "duality_operator",
                            lambda n, ctx: DualityOperator(n, ctx, conjugated))
        report = verify_involutive_isometric(n, ctx)
        assert not report.passed
        assert report.witness == "Gram matrix not preserved"

    @pytest.mark.parametrize("q,max_n", [(2, 3), (3, 2)])
    def test_characterization(self, q, max_n):
        assert verify_characterization(max_n, fq(q)).passed

    @pytest.mark.parametrize("q,n", [(2, 1), (2, 2), (2, 3), (3, 2)])
    def test_flipped_on_primitives_fails_condition_ii(self, monkeypatch, q, n):
        # D (I - 2 Pi), Pi = B^T E the projection onto the primitive span
        # that reads each basis row's pivot coordinate (B is in reduced
        # echelon form): -D on the primitives, D on the kernel of E
        ctx = fq(q)
        real = duality.duality_operator
        b = primitive_subspace(ctx, n).matrix
        pivots = [int(np.flatnonzero(row)[0]) for row in b[0]]
        e = np.zeros((len(pivots), b[0].shape[1]), dtype=np.int64)
        e[range(len(pivots)), pivots] = 1
        proj = linalg.matmul(linalg.conj_t(b), linalg.reduced(e, 1))
        assert linalg.mat_eq(linalg.matmul(proj, proj), proj)
        d = real(n, ctx).matrix
        x, den = linalg.matmul(d, proj)
        flipped = linalg.add(d, (linalg.scaled(x, -2), den))
        monkeypatch.setattr(duality, "duality_operator", lambda m, c: (
            DualityOperator(m, c, flipped) if m == n else real(m, c)))
        report = verify_characterization(n, ctx)
        assert report.params == {"q": q, "n": n}
        assert report.witness == "condition (ii) fails on a primitive"

    def test_commutes_with_induction_on_indicators(self, q2):
        # condition (i) spelled out on every degree (1,1) indicator tensor
        t1 = enumerate_orbits(1, q2)
        d1 = duality_operator(1, q2)
        d2 = duality_operator(2, q2)
        for i in range(len(t1)):
            for j in range(len(t1)):
                f = indicator_by_index(i, t1)
                g = indicator_by_index(j, t1)
                lhs = d2.apply(hc_induce(TensorFunction.outer([f, g]), (1, 1)))
                rhs = hc_induce(TensorFunction.outer([d1.apply(f),
                                                      d1.apply(g)]), (1, 1))
                assert lhs == rhs

    def test_isometry_on_functions(self, q3):
        from glnq.invfun import inner_product_rational
        table = enumerate_orbits(2, q3)
        d = duality_operator(2, q3)
        for i in range(len(table)):
            for j in range(len(table)):
                f = indicator_by_index(i, table)
                g = indicator_by_index(j, table)
                assert inner_product_rational(d.apply(f), d.apply(g)) == \
                    inner_product_rational(f, g)
