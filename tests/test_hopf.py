"""Graded bialgebra structure: product, coproduct, antipode, primitives."""
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hc_oracle
import linalg_oracle
from glnq import hopf, linalg
from glnq.field import fq
from glnq.hc import hc_restrict
from glnq.hopf import (PrimitiveBasis, antipode, antipode_function, antipode_matrix,
                       comultiply, counit, hilbert_series_check, is_primitive,
                       multiply, multiply_functions, precuspidal_spanning_rank,
                       primitive_subspace, unit, verify_bialgebra)
from glnq.invfun import (GradedElement, InvariantFunction, TensorFunction,
                         constant_one, indicator_by_index)
from glnq.orbits import enumerate_orbits

# every (q, n) that glnq verify runs by default
DEFAULT_BUDGETS = [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3),
                   (4, 1), (4, 2), (5, 1), (5, 2)]


class TestProduct:
    def test_unit_axiom(self, q2):
        table = enumerate_orbits(2, q2)
        b = GradedElement.homogeneous(indicator_by_index(3, table))
        assert multiply(unit(q2, 1), b) == b
        assert multiply(b, unit(q2, 1)) == b

    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_commutativity(self, data):
        ctx = fq(2)
        n1 = data.draw(st.integers(1, 2))
        n2 = data.draw(st.integers(1, 3 - n1))
        t1 = enumerate_orbits(n1, ctx)
        t2 = enumerate_orbits(n2, ctx)
        f = indicator_by_index(data.draw(st.integers(0, len(t1) - 1)), t1)
        g = indicator_by_index(data.draw(st.integers(0, len(t2) - 1)), t2)
        assert multiply_functions(f, g) == multiply_functions(g, f)

    def test_associativity(self, q2):
        t1 = enumerate_orbits(1, q2)
        f = indicator_by_index(0, t1)
        g = indicator_by_index(1, t1)
        h = constant_one(t1)
        assert multiply_functions(multiply_functions(f, g), h) == \
            multiply_functions(f, multiply_functions(g, h))


class TestCoproduct:
    def test_constant_proper_part(self, q2):
        one2 = constant_one(enumerate_orbits(2, q2))
        one1 = constant_one(enumerate_orbits(1, q2))
        proper = comultiply(one2).proper()
        assert set(proper) == {(1, 1)}
        assert proper[(1, 1)] == TensorFunction.outer([one1, one1])

    def test_counit_axiom(self, q2):
        # the (n, 0) component of the coproduct recovers f
        table = enumerate_orbits(2, q2)
        for i in range(len(table)):
            f = indicator_by_index(i, table)
            comps = comultiply(f).components
            assert comps[(2, 0)].values == \
                {(i, 0): v for (i,), v in hc_restrict(f, (2,)).values.items()}

    def test_counit_of_graded(self, q2):
        x = unit(q2, Fraction(5, 3))
        assert counit(x).as_rational() == Fraction(5, 3)

    def test_cocommutativity(self, q2, q3):
        for ctx in (q2, q3):
            table = enumerate_orbits(3, ctx)
            for i in range(len(table)):
                f = indicator_by_index(i, table)
                assert hc_restrict(f, (1, 2)).permute((1, 0)) == \
                    hc_restrict(f, (2, 1))

    def test_coassociativity(self, q2):
        # refining either factor of a two-step restriction gives the same
        # three-factor tensor
        from glnq.hc import tensor_restrict_factor
        table = enumerate_orbits(3, q2)
        for i in range(len(table)):
            f = indicator_by_index(i, table)
            left = tensor_restrict_factor(hc_restrict(f, (2, 1)), 0, (1, 1))
            right = tensor_restrict_factor(hc_restrict(f, (1, 2)), 1, (1, 1))
            assert left == right == hc_restrict(f, (1, 1, 1))


class TestBialgebra:
    def test_constants(self, q2):
        one1 = constant_one(enumerate_orbits(1, q2))
        [r] = verify_bialgebra((one1,), (one1,))
        assert r.passed

    @pytest.mark.parametrize("q", [2, 3])
    def test_all_indicators_degree_three(self, q):
        ctx = fq(q)
        t1 = enumerate_orbits(1, ctx)
        t2 = enumerate_orbits(2, ctx)
        reports = verify_bialgebra([indicator_by_index(i, t1) for i in range(len(t1))],
                                   [indicator_by_index(j, t2) for j in range(len(t2))])
        assert len(reports) == len(t1) * len(t2)
        assert all(r.passed for r in reports)


class TestPrimitives:
    def test_degree_one_everything_primitive(self, q2, q3, q5):
        for ctx in (q2, q3, q5):
            basis = primitive_subspace(ctx, 1)
            assert basis.dimension == ctx.q

    def test_degree_two_dimension(self, q2):
        assert primitive_subspace(q2, 2).dimension == 3

    def test_members_are_primitive(self, q2, q3):
        for ctx, n in [(q2, 2), (q2, 3), (q3, 2)]:
            for f in primitive_subspace(ctx, n).members:
                assert is_primitive(f)

    def test_members_share_no_writable_memory(self, q2, q3):
        # each member's values were a row of one writable stack
        for ctx, n in [(q2, 3), (q3, 2)]:
            for f in primitive_subspace.__wrapped__(ctx, n).members:
                base = f.num.base
                assert base is None or not base.flags.writeable

    def test_dimension_vs_kernel_rank(self, q2):
        # independent cross-check: dim ker = dim - rank of stacked restrictions
        from glnq.hc import restriction_matrix
        table = enumerate_orbits(2, q2)
        assert primitive_subspace(q2, 2).dimension == \
            len(table) - linalg.rank(restriction_matrix(q2, (1, 1)))

    @pytest.mark.parametrize("q,n", DEFAULT_BUDGETS)
    def test_members_match_oracle(self, q, n):
        basis = primitive_subspace(fq(q), n)
        want = linalg_oracle.primitive_members(fq(q), n)
        assert basis.members == tuple(want)
        x, den = basis.matrix
        assert [[Fraction(int(v), den) for v in row] for row in x] == \
            [[v.as_rational() for v in f.values] for f in want]


class TestAntipode:
    def test_scalar(self, q2):
        assert antipode(unit(q2, 7)) == unit(q2, 7)

    def test_negates_primitives(self, q2, q3):
        for ctx, n in [(q2, 1), (q2, 2), (q2, 3), (q3, 1), (q3, 2)]:
            for f in primitive_subspace(ctx, n).members:
                assert antipode_function(f) == f.scale(Fraction(-1))

    @pytest.mark.parametrize("q,max_n", [(2, 4), (3, 3)])
    def test_involutive(self, q, max_n):
        ctx = fq(q)
        for n in range(max_n + 1):
            s = antipode_matrix(ctx, n)
            assert linalg.mat_eq(linalg.matmul(s, s), linalg.identity(len(s[0])))

    def test_algebra_endomorphism(self, q2):
        # commutative algebra: S(fg) = S(f) S(g)
        t1 = enumerate_orbits(1, q2)
        for i in range(len(t1)):
            for j in range(len(t1)):
                f = indicator_by_index(i, t1)
                g = indicator_by_index(j, t1)
                assert antipode_function(multiply_functions(f, g)) == \
                    multiply_functions(antipode_function(f), antipode_function(g))

    def test_convolution_inverse(self, q2):
        # sum over splits of m(S x' ⊗ x'') vanishes in positive degree
        table = enumerate_orbits(2, q2)
        for i in range(len(table)):
            f = indicator_by_index(i, table)
            comps = comultiply(f).components
            acc = antipode_function(f) + f
            for (k, l), t in comps.items():
                if 0 in (k, l):
                    continue
                applied = TensorFunction(
                    t.tables,
                    {idx: v for idx, v in t.values.items()})
                # apply S to the first factor, then induce
                from glnq.hc import tensor_induce_span
                sk = hc_oracle.rows(antipode_matrix(q2, k))
                dims = [len(tb) for tb in t.tables]
                vals = {}
                for (a, b) in applied.values:
                    acc2 = sum((applied.values[(a2, b)] * sk[a][a2]
                                for a2 in range(dims[0])),
                               start=applied.values[(0, b)] * 0)
                    vals[(a, b)] = acc2
                twisted = TensorFunction(t.tables, vals)
                acc = acc + tensor_induce_span(twisted, 0, 2).as_function()
            assert acc.is_zero()


class TestSpanning:
    @pytest.mark.parametrize("q,n", DEFAULT_BUDGETS)
    def test_matches_oracle(self, q, n):
        rank, dim = precuspidal_spanning_rank(fq(q), n)
        assert (rank, dim) == linalg_oracle.precuspidal_spanning_rank(fq(q), n)
        assert rank == dim

    def test_dropped_primitive_lowers_rank(self, monkeypatch, q2):
        # without one degree-1 primitive, the products of degree 2 miss C_2
        real = hopf.primitive_subspace

        def dropped(ctx, m):
            basis = real(ctx, m)
            if m != 1:
                return basis
            x, den = basis.matrix
            return PrimitiveBasis(m, basis.members[1:], linalg.reduced(x[1:], den))
        monkeypatch.setattr(hopf, "primitive_subspace", dropped)
        rank, dim = precuspidal_spanning_rank(q2, 2)
        assert rank < dim == 6
        assert linalg_oracle.precuspidal_spanning_rank(q2, 2) == (rank, dim)

    def test_degree_zero(self, q2):
        # the empty product of primitives is the unit, which spans C_0
        assert precuspidal_spanning_rank(q2, 0) == (1, 1)

    def test_degree_one(self, q2):
        assert precuspidal_spanning_rank(q2, 1) == (2, 2)

    def test_degree_two(self, q2):
        assert precuspidal_spanning_rank(q2, 2) == (6, 6)

    def test_degree_three(self, q2):
        rank, dim = precuspidal_spanning_rank(q2, 3)
        assert rank == dim

    def test_degree_two_q3(self, q3):
        rank, dim = precuspidal_spanning_rank(q3, 2)
        assert rank == dim == 12


class TestHilbertSeries:
    @pytest.mark.parametrize("q,max_n", [(2, 4), (3, 3)])
    def test_identity(self, q, max_n):
        assert hilbert_series_check(fq(q), max_n).passed
