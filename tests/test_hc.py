"""Harish-Chandra restriction and induction: adjunction, transitivity,
parabolic independence, and the double-coset (Mackey) identity."""
import weakref
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
import random

from hypothesis import given, settings
from hypothesis import strategies as st

import hc_oracle
import orbit_oracle
from glnq import cli, glmat, hc, invfun, linalg
from glnq.field import Cyclotomic, fq
from glnq.glmat import compositions
from glnq.hc import (_parts, hc_induce, hc_restrict,
                     induction_matrix, mackey_index_set, mackey_rhs,
                     parabolic_group_order, restriction_matrix,
                     split_tables, tensor_induce_span, verify_adjunction, verify_mackey,
                     verify_parabolic_independence, verify_transitivity)
from glnq.hopf import verify_bialgebra
from glnq.invfun import (InvariantFunction, TensorFunction, adjoint, constant_one,
                         indicator_by_index, inner_product_rational)
from glnq.orbits import OrbitCountError, enumerate_orbits
from glnq.report import Report

# every default verify budget: (q, largest n)
BUDGETS = [(2, 4), (3, 3), (4, 2), (5, 2)]


def splits(n):
    """Every composition of n with at least two parts, and every split of n
    into two or three parts of which some are zero."""
    out = {c.parts for c in compositions(n) if len(c) >= 2}
    out |= {c for k in (2, 3) for c in product(range(n + 1), repeat=k) if sum(c) == n}
    return sorted(out)


def verify_transitivity_induction(t: TensorFunction, outer, subcomps) -> Report:
    """Inducing in stages equals inducing in one step."""
    outer_parts = _parts(outer)
    subs = [_parts(s) for s in subcomps]
    staged = t
    for start, s in enumerate(subs):
        staged = tensor_induce_span(staged, start, len(s))
    staged = tensor_induce_span(staged, 0, len(outer_parts))
    direct = tensor_induce_span(t, 0, sum(len(s) for s in subs))
    return Report("transitivity-induction",
                  {"outer": list(outer_parts), "subs": [list(s) for s in subs]},
                  None if staged == direct else "staged != direct")


class TestRestriction:
    def test_trivial_composition_is_identity(self, q2):
        table = enumerate_orbits(2, q2)
        for i in range(len(table)):
            f = indicator_by_index(i, table)
            assert hc_restrict(f, (2,)).as_function() == f

    def test_constant_restricts_to_constant(self, q2, q3):
        # averaging the constant function over the radical gives 1 x 1
        for ctx in (q2, q3):
            one2 = constant_one(enumerate_orbits(2, ctx))
            t = hc_restrict(one2, (1, 1))
            one1 = constant_one(enumerate_orbits(1, ctx))
            assert t == TensorFunction.outer([one1, one1])

    def test_boundary_splits(self, q2):
        one2 = constant_one(enumerate_orbits(2, q2))
        left = hc_restrict(one2, (0, 2))
        assert left.degrees == (0, 2)
        assert left.permute((1, 0)).values == hc_restrict(one2, (2, 0)).values

    def test_rows_are_averages(self, q2):
        # every row of the restriction matrix sums to 1: averaging over the
        # radical preserves the constant function
        for parts in [(1, 1), (1, 2), (2, 1)]:
            x, den = restriction_matrix(q2, parts)
            assert all(sum(row) == den for row in x)


class TestInduction:
    def test_trivial_composition_is_identity(self, q3):
        table = enumerate_orbits(2, q3)
        for i in range(len(table)):
            f = indicator_by_index(i, table)
            t = TensorFunction.outer([f])
            assert hc_induce(t, (2,)) == f

    def test_induced_constant_pairing(self, q2, q3, q5):
        # (R(1 x 1), 1) over gl_2 equals q^2/(q-1)^2
        for ctx in (q2, q3, q5):
            q = ctx.q
            one1 = constant_one(enumerate_orbits(1, ctx))
            one2 = constant_one(enumerate_orbits(2, ctx))
            ind = hc_induce(TensorFunction.outer([one1, one1]), (1, 1))
            assert inner_product_rational(ind, one2) == Fraction(q * q, (q - 1) ** 2)


@pytest.mark.parametrize("q", [2, 3])
class TestEmptySplit:
    """The split () of degree 0: both matrices are the 1 x 1 identity, and
    the function-level maps, whose tensor would have no factors and so no
    field, refuse it in one line."""

    def test_matrices_are_the_identity(self, q):
        # along the upper parabolic, and along the lower one by the oracle
        ctx = fq(q)
        for res, ind in ((restriction_matrix, induction_matrix),
                         (hc_oracle.lower_restriction_matrix, hc_oracle.lower_induction_matrix)):
            assert linalg.mat_eq(res(ctx, ()), linalg.identity(1))
            assert linalg.mat_eq(ind(ctx, ()), linalg.identity(1))

    def test_function_maps_raise(self, q):
        f = constant_one(enumerate_orbits(0, fq(q)))
        with pytest.raises(ValueError, match=r"empty split \(\)"):
            hc_restrict(f, ())
        t = TensorFunction((), {(): 1})
        with pytest.raises(ValueError, match=r"empty split \(\)"):
            hc_induce(t, ())


class TestCosetCount:
    """induction_matrix counts cosets P\\GL_n for splits of two nonzero
    parts, and takes every other split as the adjoint of its restriction;
    the count over all of GL_n divided by |P| (hc_oracle) is the witness of
    both routes, of the oracle's lower route (the adjoint of the lower
    restriction), and of the adjoint of every upper restriction, the route
    the two-part splits are to take."""

    @pytest.mark.parametrize("q,n", [(q, n) for q, top in BUDGETS
                                     for n in range(top + 1)])
    def test_matches_conjugation_count(self, q, n):
        ctx = fq(q)
        table_n = (enumerate_orbits(n, ctx),)
        for parts in splits(n):
            for lower, build in ((False, induction_matrix),
                                 (True, hc_oracle.lower_induction_matrix)):
                want = hc_oracle.conjugation_induction_matrix(ctx, parts, lower)
                assert linalg.mat_eq(build(ctx, parts), want), (parts, lower)
            res = restriction_matrix(ctx, parts)
            assert linalg.mat_eq(adjoint(res, table_n, split_tables(ctx, parts)),
                                 hc_oracle.conjugation_induction_matrix(ctx, parts)), parts

    @pytest.mark.parametrize("q,parts", [(2, (1, 3)), (2, (2, 2)), (3, (1, 2)),
                                         (5, (1, 1))])
    def test_one_coset_rep_per_coset(self, q, parts):
        ctx = fq(q)
        order = parabolic_group_order(ctx, parts)
        n = sum(parts)
        g, gi = hc._coset_reps(ctx, parts)
        assert len(g) * order == parabolic_group_order(ctx, (n,))
        assert (hc.batch_matmul(ctx, g, gi) == np.eye(n, dtype=np.int16)).all()

    def test_dropped_coset_fails_the_oracle(self, monkeypatch, q2):
        # one coset of P_(2,1)\GL_3 dropped: the (2, 1) count differs from
        # the oracle
        real = hc._coset_reps
        g, gi = real(q2, (2, 1))
        monkeypatch.setattr(hc, "_coset_reps", lambda ctx, parts: (
            (g[1:], gi[1:]) if parts == (2, 1) else real(ctx, parts)))
        got = induction_matrix.__wrapped__(q2, (2, 1))
        assert not linalg.mat_eq(got, hc_oracle.conjugation_induction_matrix(q2, (2, 1)))

    @pytest.mark.parametrize("parts", [(1, 2), (2, 1), (1, 1, 1)])
    def test_changed_lower_restriction_count_fails_the_oracle(self, monkeypatch, q2,
                                                             parts):
        # the oracle's lower induction is the adjoint of its lower
        # restriction: one count of that restriction one higher makes it
        # differ from the conjugation count
        real = hc_oracle.lower_restriction_matrix

        def corrupted(ctx, p):
            x, den = real(ctx, p)
            if p == parts:
                x = x.copy()
                x[0, 0] += 1
            return x, den

        monkeypatch.setattr(hc_oracle, "lower_restriction_matrix", corrupted)
        got = hc_oracle.lower_induction_matrix(q2, parts)
        assert not linalg.mat_eq(got, hc_oracle.conjugation_induction_matrix(q2, parts, True))

    @pytest.mark.parametrize("q,parts", [(2, (1, 1, 1)), (2, (1, 2, 1)), (2, (1, 1, 1, 1)),
                                         (3, (1, 1, 1))])
    def test_changed_upper_restriction_count_fails_the_oracle(self, monkeypatch, q,
                                                             parts):
        # upper induction along three or more parts is the adjoint of the
        # upper restriction: one count of it one higher shows
        ctx = fq(q)
        real = hc.restriction_matrix

        def corrupted(ctx, p):
            x, den = real(ctx, p)
            if p == parts:
                x = x.copy()
                x[0, 0] += 1
            return x, den

        monkeypatch.setattr(hc, "restriction_matrix", corrupted)
        got = induction_matrix.__wrapped__(ctx, parts)
        assert not linalg.mat_eq(got, hc_oracle.conjugation_induction_matrix(ctx, parts))

    @pytest.mark.parametrize("side", ["gl_n", "levi"])
    @pytest.mark.parametrize("q,parts,lower", [(2, (1, 1, 1), False), (2, (2, 1), True),
                                               (3, (1, 1, 1), False)])
    def test_changed_weight_fails_the_oracle(self, monkeypatch, q, parts, lower, side):
        # one orbit size in the Gram weights of gl_n or of the Levi tuples
        # one higher, at an orbit the induction reaches: the adjoint differs,
        # the library's upper one or the oracle's lower one
        ctx = fq(q)
        want = hc_oracle.conjugation_induction_matrix(ctx, parts, lower)
        tables = ((enumerate_orbits(sum(parts), ctx),) if side == "gl_n"
                  else split_tables(ctx, parts))
        axis = 1 if side == "gl_n" else 0
        reached = int(np.flatnonzero(want[0].any(axis=axis))[-1])
        real = invfun._weights

        def corrupted(tabs):
            w, order = real(tabs)
            if tabs == tables:
                w = w.copy()
                w[reached, 0] += 1
            return w, order

        monkeypatch.setattr(invfun, "_weights", corrupted)
        build = hc_oracle.lower_induction_matrix if lower else induction_matrix.__wrapped__
        assert not linalg.mat_eq(build(ctx, parts), want)

    def test_gl_stack_freed_once_the_cosets_are_counted(self, monkeypatch, q2):
        # gl_arrays and the row-space keys were cached, so GL_4(F_2) and its
        # inverses stayed for the rest of a verify run
        stacks = []

        def recorded(ctx, n):
            G, codes = glmat.gl_arrays(ctx, n)
            stacks.append(weakref.ref(G))
            return G, codes

        monkeypatch.setattr(hc, "gl_arrays", recorded)
        hc._coset_table.cache_clear()  # what the cache keeps must not hold G
        g, gi = hc._coset_reps(q2, (2, 2))
        assert len(g) == len(gi) == 35  # the 2-dim subspaces of F_2^4
        assert len(stacks) == 1 and stacks[0]() is None

    def test_gl_tables_freed_once_the_cosets_are_counted(self, monkeypatch, q2):
        # the 2^16 determinants and the mask of degree 4 are read once, by
        # gl_arrays, and go with the GL stack
        tables = {}

        def recorded(build):
            def wrapper(ctx, n):
                out = build(ctx, n)
                if n == 4:
                    tables[build.__name__] = weakref.ref(out)
                return out
            return wrapper

        for name in ("determinants", "gl_mask"):
            monkeypatch.setattr(glmat, name, recorded(getattr(glmat, name)))
        hc._coset_table.cache_clear()
        hc._coset_table(q2, 4)
        assert sorted(tables) == ["determinants", "gl_mask"]
        assert all(ref() is None for ref in tables.values())

    @pytest.mark.parametrize("q,n", [(q, n) for q, top in BUDGETS for n in range(2, top + 1)])
    def test_coset_table_matches_oracle(self, q, n):
        # the first matrix of each coset in code order, its inverse and the
        # coset's size, against cosets keyed by echelon forms and adjugates
        ctx = fq(q)
        want = hc_oracle.coset_table(ctx, n)
        got = hc._coset_table(ctx, n)
        assert got.keys() == want.keys()
        for lo, (g, gi, sizes) in got.items():
            assert g.dtype == gi.dtype == np.uint8
            order = np.argsort(glmat.encode_matrices(ctx, g))
            for x, y in zip((g[order], gi[order], sizes[order]), want[lo]):
                assert np.array_equal(x, y)

    def test_inverts_the_representatives_only(self, monkeypatch, q2):
        # one batch_inverse per split (1, 3), (2, 2), (3, 1) over its coset
        # representatives: 15 + 35 + 15 matrices, never all 20,160 of GL_4(F_2)
        inverted = []
        real = hc.batch_inverse

        def counted(ctx, a):
            inverted.append(len(a))
            return real(ctx, a)

        monkeypatch.setattr(hc, "batch_inverse", counted)
        hc._coset_table.__wrapped__(q2, 4)
        assert inverted == [15, 35, 15]

    @pytest.mark.parametrize("q,n,lo", [(2, 4, 2), (3, 3, 1), (3, 3, 2), (5, 2, 1)])
    def test_wrong_inverse_raises(self, monkeypatch, q, n, lo):
        # one entry of one representative's inverse changed: g g^-1 != I
        ctx = fq(q)
        g = hc._coset_table(ctx, n)[lo][0][-1]
        code = int(glmat.encode_matrices(ctx, g[None])[0])
        real = hc.batch_inverse
        calls = []

        def corrupted(ctx, a):
            calls.append(a)
            out = real(ctx, a).copy()
            if len(calls) == lo:
                out[-1, 0, 0] = ctx.ADD[out[-1, 0, 0], 1]
            return out

        monkeypatch.setattr(hc, "batch_inverse", corrupted)
        with pytest.raises(glmat.GLTableError, match=f"code {code} does not invert it"):
            hc._coset_table.__wrapped__(ctx, n)

    @pytest.mark.parametrize("parts", [(1, 1), (2, 1), (1, 2), (0, 2)])
    def test_wrong_parabolic_order_raises(self, monkeypatch, q3, parts):
        # the trivial split (0, 2) has no coset table entry: its one coset
        # is the oracle's, and the library's matrices are the identity
        order = parabolic_group_order(q3, parts)
        monkeypatch.setattr(hc, "parabolic_group_order", lambda ctx, p: order + 1)
        monkeypatch.setattr(hc, "_coset_table", hc._coset_table.__wrapped__)
        count = hc_oracle.one_part_coset_count if 0 in parts else hc._coset_reps
        with pytest.raises(OrbitCountError, match=f"not \\|P\\| = {order + 1}"):
            count(q3, parts)
        if 0 in parts:
            identity = linalg.identity(len(enumerate_orbits(2, q3)))
            assert linalg.mat_eq(induction_matrix.__wrapped__(q3, parts), identity)


class TestAdjunction:
    @pytest.mark.parametrize("q,parts", [(2, (1, 1)), (2, (1, 2)), (2, (2, 1)),
                                         (2, (1, 1, 1)), (3, (1, 1)), (3, (1, 2))])
    def test_constants(self, q, parts):
        ctx = fq(q)
        tabs = [enumerate_orbits(m, ctx) for m in parts]
        t = TensorFunction.outer([constant_one(tb) for tb in tabs])
        g = constant_one(enumerate_orbits(sum(parts), ctx))
        assert verify_adjunction(t, g, parts).passed

    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_indicator_pairs(self, data):
        ctx = fq(2)
        parts = data.draw(st.sampled_from([(1, 1), (1, 2), (2, 1)]))
        tabs = [enumerate_orbits(m, ctx) for m in parts]
        t = TensorFunction.outer(
            [indicator_by_index(data.draw(st.integers(0, len(tb) - 1)), tb)
             for tb in tabs])
        gt = enumerate_orbits(sum(parts), ctx)
        g = indicator_by_index(data.draw(st.integers(0, len(gt) - 1)), gt)
        assert verify_adjunction(t, g, parts).passed


class TestTransitivity:
    def test_restriction_staged(self, q2):
        table = enumerate_orbits(3, q2)
        for i in range(len(table)):
            f = indicator_by_index(i, table)
            assert verify_transitivity(f, (2, 1), ((1, 1), (1,))).passed

    def test_restriction_constant(self, q3):
        f = constant_one(enumerate_orbits(3, q3))
        assert verify_transitivity(f, (2, 1), ((1, 1), (1,))).passed

    def test_trivial_refinement(self, q2):
        f = constant_one(enumerate_orbits(2, q2))
        assert verify_transitivity(f, (1, 1), ((1,), (1,))).passed

    def test_induction_staged(self, q2):
        t1 = enumerate_orbits(1, q2)
        t = TensorFunction.outer([indicator_by_index(1, t1),
                                  constant_one(t1),
                                  indicator_by_index(0, t1)])
        assert verify_transitivity_induction(t, (2, 1), ((1, 1), (1,))).passed


class TestParabolicIndependence:
    @pytest.mark.parametrize("q,n,parts", [(2, 2, (1, 1)), (2, 3, (2, 1)),
                                           (2, 3, (1, 2)), (3, 2, (1, 1)),
                                           (2, 3, (1, 1, 1))])
    def test_upper_equals_lower(self, q, n, parts):
        report = verify_parabolic_independence(fq(q), parts)
        assert report.passed and report.params == {"n": n, "parts": list(parts)}

    def test_trivial(self, q2):
        assert verify_parabolic_independence(q2, (2,)).passed

    @pytest.mark.parametrize("q,n", [(q, n) for q, top in BUDGETS
                                     for n in range(top + 1)])
    def test_lower_oracle_is_the_reversed_upper(self, q, n):
        # the lower parabolic of c is w P_rev(c) w^-1: the oracle's directly
        # counted lower operators are the upper ones of the reversed split
        # with the Levi factors of each index tuple reversed
        ctx = fq(q)
        for parts in splits(n):
            dims = [len(tab) for tab in split_tables(ctx, parts[::-1])]
            order = range(len(parts))[::-1]
            res = hc._permute_factors(restriction_matrix(ctx, parts[::-1]), dims, order)
            assert linalg.mat_eq(hc_oracle.lower_restriction_matrix(ctx, parts), res), parts
            ind = hc._permute_factors(linalg.conj_t(induction_matrix(ctx, parts[::-1])),
                                      dims, order)
            assert linalg.mat_eq(linalg.conj_t(hc_oracle.lower_induction_matrix(ctx, parts)),
                                 ind), parts

    def test_changed_restriction_count_fails(self, monkeypatch, q2):
        # one count of Res_(2,1) one higher: the reversed side of (1, 2)
        real = hc.restriction_matrix

        def corrupted(ctx, parts):
            x, den = real(ctx, parts)
            if parts == (2, 1):
                x = x.copy()
                x[0, 0] += 1
            return x, den

        monkeypatch.setattr(hc, "restriction_matrix", corrupted)
        report = verify_parabolic_independence(q2, (1, 2))
        assert report.witness == "restriction matrices differ"

    def test_changed_coset_count_fails(self, monkeypatch, q2):
        # one coset count of Ind_(1,2) one higher: the reversed side of (2, 1)
        real = hc._coset_count

        def corrupted(ctx, parts):
            x, den = real(ctx, parts)
            if parts == (1, 2):
                x = x.copy()
                x[0, 0] += 1
            return x, den

        monkeypatch.setattr(hc, "_coset_count", corrupted)
        monkeypatch.setattr(hc, "induction_matrix", hc.induction_matrix.__wrapped__)
        report = verify_parabolic_independence(q2, (2, 1))
        assert report.witness == "induction matrices differ"


class TestTrivialSplits:
    """A split with at most one nonzero part has P = L = GL_n: both
    operators are the identity, built without U or the orbit lookup."""

    @pytest.mark.parametrize("q,n", [(q, n) for q, top in BUDGETS
                                     for n in range(top + 1)])
    def test_identity_matches_the_oracles(self, monkeypatch, q, n):
        ctx = fq(q)
        identity = linalg.identity(len(enumerate_orbits(n, ctx)))
        trivial = {(), (n,), (0, n), (n, 0)} - ({()} if n else set())
        for parts in sorted(trivial):
            assert linalg.mat_eq(hc_oracle.conjugation_induction_matrix(ctx, parts), identity)
            assert linalg.mat_eq(hc_oracle.one_part_coset_count(ctx, parts), identity)
            assert linalg.mat_eq(hc_oracle.lower_restriction_matrix(ctx, parts), identity)
        trivial.add(())
        with monkeypatch.context() as m:
            m.setattr(hc, "unipotent_radical_elems", None)
            m.setattr(hc, "_coset_count", None)
            for parts in sorted(trivial):
                for build in (restriction_matrix, induction_matrix):
                    want = linalg.identity(1) if not parts else identity
                    assert linalg.mat_eq(build.__wrapped__(ctx, parts), want), parts


def test_cold_verify_builds_each_operator_once(monkeypatch, q2):
    # the `lower` option made f(ctx, parts), f(ctx, parts, False) and
    # f(ctx, parts, lower=False) three cache keys: a cold verify --q 2 made
    # 105 builds of 67 distinct operators and counted 5 coset tables
    from glnq import duality, hopf, psh
    builders = (hc.restriction_matrix, hc.induction_matrix)
    for mod in (hc, duality, hopf, psh):
        for f in vars(mod).values():
            if hasattr(f, "cache_clear") and f.__module__ == mod.__name__:
                f.cache_clear()
    keys = {f: set() for f in builders}
    for f in builders:
        def recorded(ctx, parts, f=f):
            keys[f].add((ctx, tuple(parts)))
            return f(ctx, parts)
        for mod in (hc, duality, hopf, psh):
            if getattr(mod, f.__name__, None) is f:
                monkeypatch.setattr(mod, f.__name__, recorded)
    assert cli.main(["verify", "--q", "2", "--output", "/dev/null"]) == 0
    for f in builders:
        assert f.cache_info().misses == len(keys[f]), f.__name__
    assert sum(f.cache_info().misses for f in builders) <= 46
    assert hc._coset_table.cache_info().misses == 3  # GL_2, GL_3 and GL_4


class TestMackey:
    def test_index_set(self):
        assert mackey_index_set(1, 1, 1, 1) == [(0, 1, 1, 0), (1, 0, 0, 1)]
        assert mackey_index_set(2, 2, 2, 2) == [(0, 2, 2, 0), (1, 1, 1, 1),
                                                (2, 0, 0, 2)]
        assert mackey_index_set(2, 1, 3, 0) == [(2, 0, 1, 0)]

    def test_all_indicator_pairs_n2_q2(self, q2):
        t1 = enumerate_orbits(1, q2)
        fs = [indicator_by_index(i, t1) for i in range(len(t1))]
        for s in (0, 1, 2):
            reports = verify_mackey(fs, fs, s, 2 - s)
            assert len(reports) == len(t1) ** 2
            for r in reports:
                assert r.passed, r.witness

    def test_degenerate_split(self, q2):
        t1 = enumerate_orbits(1, q2)
        t2 = enumerate_orbits(2, q2)
        f = indicator_by_index(1, t1)
        g = indicator_by_index(4, t2)
        [r] = verify_mackey((f,), (g,), 3, 0)
        assert r.passed
        [r] = verify_mackey((f,), (g,), 0, 3)
        assert r.passed

    def test_constants_q3(self, q3):
        one1 = constant_one(enumerate_orbits(1, q3))
        one2 = constant_one(enumerate_orbits(2, q3))
        for s in range(4):
            [r] = verify_mackey((one1,), (one2,), s, 3 - s)
            assert r.passed

    def test_rhs_matches_direct_restriction(self, q2):
        # cross-check the double-coset assembly against restricting the
        # induced product computed independently
        one2 = constant_one(enumerate_orbits(2, q2))
        one1 = constant_one(enumerate_orbits(1, q2))
        prod = hc_induce(TensorFunction.outer([one1, one1]), (1, 1))
        assert (hc_restrict(prod, (1, 1)),) == mackey_rhs((one1,), (one1,), 1, 1)

    def test_witness_names_the_first_differing_pair(self, q3, monkeypatch):
        one1 = constant_one(enumerate_orbits(1, q3))
        one2 = constant_one(enumerate_orbits(2, q3))
        true_rhs, = mackey_rhs((one1,), (one2,), 1, 2)
        vals = dict(true_rhs.values)
        # two entries off by one; the witness is the first in product order
        first, later = (1, 3), (2, 0)
        want = vals[first]
        for idx in (later, first):
            vals[idx] = vals[idx] + 1
        monkeypatch.setattr(hc, "mackey_rhs",
                            lambda *args: (TensorFunction(true_rhs.tables, vals),))
        [r] = verify_mackey((one1,), (one2,), 1, 2)
        assert not r.passed
        assert r.witness == f"orbit pair {first}: {want!r} != {want + 1!r}"


class TestMackeyOperator:
    """mackey_rhs, one application of the cached operator, against the
    per-term route of hc_oracle."""

    @pytest.mark.parametrize("q,max_n", BUDGETS)
    def test_matches_per_term_route(self, q, max_n):
        # on every pair of indicators, so on every column of the operator
        ctx = fq(q)
        for n1 in range(max_n + 1):
            for n2 in range(max_n + 1 - n1):
                fs, gs = (tuple(indicator_by_index(i, tab) for i in range(len(tab)))
                          for tab in (enumerate_orbits(n1, ctx), enumerate_orbits(n2, ctx)))
                for s in range(n1 + n2 + 1):
                    got = mackey_rhs(fs, gs, s, n1 + n2 - s)
                    assert len(got) == len(fs) * len(gs)
                    for k, (f, g) in enumerate(product(fs, gs)):
                        assert got[k] == hc_oracle.mackey_rhs(f, g, s, n1 + n2 - s), (n1, n2, s, k)

    def test_corrupted_count_fails(self, q3, monkeypatch):
        # one count of *R_(1,1) one higher: the (1, 2) -> (1, 2) operator
        # reads it in its (0, 1, 1, 1) term; the Res . Ind side does not
        one1 = constant_one(enumerate_orbits(1, q3))
        one2 = constant_one(enumerate_orbits(2, q3))
        want = hc_oracle.mackey_rhs(one1, one2, 1, 2)
        real = hc.restriction_matrix

        def corrupted(ctx, parts):
            x, den = real(ctx, parts)
            if parts == (1, 1):
                x = x.copy()
                x[0, 0] += 1
            return x, den

        monkeypatch.setattr(hc, "restriction_matrix", corrupted)
        monkeypatch.setattr(hc, "mackey_operator", hc.mackey_operator.__wrapped__)
        assert mackey_rhs((one1,), (one2,), 1, 2) != (want,)
        [r] = verify_mackey((one1,), (one2,), 1, 2)
        assert not r.passed


def _pinned_reports(fs, gs):
    """The mackey reports of a block of test functions along every split,
    then its bialgebra reports, each list asserted equal, pair by pair
    (rho1 outer, rho2 inner), to the per-pair route of hc_oracle: name,
    params and witness."""
    n = fs[0].n + gs[0].n
    out = []
    for s in range(n + 1):
        got = verify_mackey(fs, gs, s, n - s)
        assert got == [hc_oracle.verify_mackey(f, g, s, n - s) for f, g in product(fs, gs)]
        out.append(got)
    got = verify_bialgebra(fs, gs)
    assert got == [hc_oracle.verify_bialgebra(f, g) for f, g in product(fs, gs)]
    return out, got


class TestStackedChecks:
    """verify_mackey and verify_bialgebra make one product per block of
    test functions; hc_oracle checks one pair at a time."""

    @pytest.mark.parametrize("all_indicators", [False, True],
                             ids=["default", "all-indicators"])
    @pytest.mark.parametrize("q,max_n", [(2, 4), (3, 3)])
    def test_matches_per_pair_route(self, q, max_n, all_indicators):
        ctx = fq(q)
        for n1 in range(max_n + 1):
            for n2 in range(max_n + 1 - n1):
                fs, gs = (cli._test_functions(enumerate_orbits(n, ctx), all_indicators)
                          for n in (n1, n2))
                mackey, bialgebra = _pinned_reports(fs, gs)
                assert all(r.passed for reports in mackey for r in reports + bialgebra)

    @given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 2 ** 32))
    @settings(max_examples=25, deadline=None)
    def test_random_cyclotomic_blocks(self, n1, n2, seed):
        ctx, rng = fq(3), random.Random(seed)
        n2 = min(n2, 3 - n1)

        def block(n):
            table = enumerate_orbits(n, ctx)
            return tuple(InvariantFunction(table, [
                Cyclotomic(3, [Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                               for _ in range(2)]) for _ in range(len(table))])
                for _ in range(rng.randint(1, 3)))

        mackey, bialgebra = _pinned_reports(block(n1), block(n2))
        assert all(r.passed for reports in mackey for r in reports + bialgebra)

    @staticmethod
    def _some_fail(reports):
        failed = sum(not r.passed for r in reports)
        return 0 < failed < len(reports)

    @pytest.mark.parametrize("all_indicators", [False, True],
                             ids=["default", "all-indicators"])
    @pytest.mark.parametrize("q", [2, 3])
    def test_corrupted_induction(self, q, all_indicators, monkeypatch):
        # one count of R_(1,1) one higher, read by Res . Ind along (1, 1)
        # and by no term of the (1, 1) -> (1, 1) operator
        real = hc.induction_matrix

        def corrupted(ctx, parts):
            x, den = real(ctx, parts)
            if tuple(parts) == (1, 1):
                x = x.copy()
                x[0, 0] += 1
            return x, den

        monkeypatch.setattr(hc, "induction_matrix", corrupted)
        # so that no Mackey operator is cached from the corrupted count
        monkeypatch.setattr(hc, "mackey_operator", hc.mackey_operator.__wrapped__)
        fs = cli._test_functions(enumerate_orbits(1, fq(q)), all_indicators)
        # a second block in another order tells rho1 from rho2
        mackey, bialgebra = _pinned_reports(fs, fs[::-1])
        assert self._some_fail(mackey[1]) and self._some_fail(bialgebra)

    @pytest.mark.parametrize("all_indicators", [False, True],
                             ids=["default", "all-indicators"])
    @pytest.mark.parametrize("q", [2, 3])
    def test_corrupted_mackey_operator(self, q, all_indicators, monkeypatch):
        # one entry of the (1, 1) -> (1, 1) and (1, 1) -> (2, 0) operators one
        # higher: a failing pair's bialgebra witness names the first split
        real = hc.mackey_operator

        def corrupted(ctx, n1, n2, s, t):
            x, den = real(ctx, n1, n2, s, t)
            if (n1, n2, s, t) in ((1, 1, 1, 1), (1, 1, 2, 0)):
                x = x.copy()
                x[0, 0] += 1
            return x, den

        monkeypatch.setattr(hc, "mackey_operator", corrupted)
        fs = cli._test_functions(enumerate_orbits(1, fq(q)), all_indicators)
        mackey, bialgebra = _pinned_reports(fs, fs[::-1])
        assert self._some_fail(mackey[1]) and self._some_fail(mackey[2])
        assert self._some_fail(bialgebra) and all(r.passed for r in mackey[0])

    def test_one_pair_block_per_check(self, q2, monkeypatch):
        # the block of rho1 x rho2 is built once for all n + 1 splits
        built = []
        real = hc._pair_block
        monkeypatch.setattr(hc, "_pair_block", lambda *args: built.append(args) or real(*args))
        fs = cli._test_functions(enumerate_orbits(2, q2), False)
        for check in (lambda: verify_bialgebra(fs, fs), lambda: verify_mackey(fs, fs, 1, 3),
                      lambda: mackey_rhs(fs, fs, 2, 2)):
            built.clear()
            check()
            assert len(built) == 1

    def test_empty_or_mixed_blocks_raise(self, q2, q3):
        one1, one2 = (constant_one(enumerate_orbits(n, q2)) for n in (1, 2))
        with pytest.raises(ValueError, match="at least one test function"):
            verify_mackey((), (one1,), 1, 0)
        with pytest.raises(ValueError, match="different orbit tables"):
            verify_bialgebra((one1, one2), (one1,))
        with pytest.raises(ValueError, match="different orbit tables"):
            mackey_rhs((one1,), (constant_one(enumerate_orbits(1, q3)),), 1, 1)


class TestParabolicOrder:
    @pytest.mark.parametrize("q,parts", [
        (2, (1, 1)), (2, (2, 1)), (2, (1, 2)), (2, (1, 1, 1)), (2, (2, 2)),
        (2, (1, 2, 1)), (2, (3, 1)), (2, (0, 2)), (2, (1, 0, 2)),
        (3, (1, 1)), (3, (1, 2)), (3, (2, 1)), (3, (1, 1, 1)), (3, (2, 0)),
        (4, (1, 1)), (5, (1, 1))])
    def test_closed_form_matches_count(self, q, parts):
        ctx = fq(q)
        order = parabolic_group_order(ctx, parts)
        for lower in (False, True):
            assert order == orbit_oracle.parabolic_order(ctx, parts, lower)


class TestMatrices:
    def test_shapes(self, q2):
        res = restriction_matrix(q2, (1, 2))
        ind = induction_matrix(q2, (1, 2))
        d1 = len(enumerate_orbits(1, q2))
        d2 = len(enumerate_orbits(2, q2))
        d3 = len(enumerate_orbits(3, q2))
        assert res[0].shape == (d1 * d2, d3)
        assert ind[0].shape == (d3, d1 * d2)

    def test_entries_nonnegative(self, q2, q3):
        for ctx in (q2, q3):
            for parts in [(1, 1), (1, 2)]:
                for x, den in (restriction_matrix(ctx, parts),
                               induction_matrix(ctx, parts)):
                    assert den > 0 and all(v >= 0 for v in x.flat)
