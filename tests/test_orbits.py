"""Adjoint-orbit enumeration, labeling, sizes, and the brute-force oracle."""
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import orbit_oracle
from glnq import orbits
from glnq.field import fq, poly_mul
from glnq.glmat import Matrix, enumerate_gl_order
from glnq.orbits import (OrbitCountError, OrbitLabel, OrbitTable,
                         centralizer_order, companion, enumerate_orbits,
                         irreducibles, matrix_label, nilpotent_orbit_count,
                         orbit_of, orbit_table_bruteforce, partitions,
                         representative)
from orbit_oracle import char_poly, conjugate, enumerate_gl

# sizes the oracle sweeps quickly; q=4 is the one extension field, and q > 2
# is where the torus generator takes part
ORACLE_SIZES = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (4, 2), (5, 2)]
# the largest default budgets (q=2 n=4, q=3 n=3) and two more extension fields
BUDGET_SIZES = ORACLE_SIZES + [(2, 4), (3, 3), (8, 2), (9, 2)]


class TestPolynomials:
    def test_irreducible_counts_f2(self, q2):
        polys = irreducibles(q2, 3)
        by_deg = {}
        for f in polys:
            by_deg.setdefault(len(f) - 1, []).append(f)
        assert len(by_deg[1]) == 2          # t, t+1
        assert by_deg[2] == [(1, 1, 1)]     # t^2+t+1 is the only one
        assert len(by_deg[3]) == 2          # (2^3-2)/3

    def test_irreducible_count_f3_deg2(self, q3):
        polys = [f for f in irreducibles(q3, 2) if len(f) == 3]
        assert len(polys) == (9 - 3) // 2

    def test_char_poly_of_companion(self, q2, q3):
        # char poly of the companion matrix of f recovers f
        for ctx in (q2, q3):
            for f in irreducibles(ctx, 3):
                assert char_poly(companion(ctx, f)) == f

    def test_char_poly_multiplicative_on_blocks(self, q2):
        from glnq.glmat import Matrix, _embed_blocks
        f = (1, 1)
        g = (1, 1, 1)
        x = Matrix(q2, _embed_blocks([companion(q2, f).a, companion(q2, g).a], (1, 2)))
        assert char_poly(x) == poly_mul(q2, f, g)


class TestPartitions:
    @pytest.mark.parametrize("n,count", [(0, 1), (1, 1), (2, 2), (3, 3),
                                         (4, 5), (5, 7), (6, 11)])
    def test_counts(self, n, count):
        ps = list(partitions(n))
        assert len(ps) == count
        assert all(sum(p) == n for p in ps)
        assert len(set(ps)) == count


class TestLabels:
    def test_zero_matrix(self, q2):
        assert matrix_label(Matrix.zero(q2, 2)) == OrbitLabel([((0, 1), (1, 1))])

    def test_regular_nilpotent(self, q2):
        x = Matrix(q2, [[0, 1], [0, 0]])
        assert matrix_label(x) == OrbitLabel([((0, 1), (2,))])

    def test_identity_q3(self, q3):
        # t - 1 = t + 2 over F_3
        assert matrix_label(Matrix(q3, np.eye(2))) == OrbitLabel([((2, 1), (1, 1))])

    def test_label_invariance(self, q2):
        x = Matrix(q2, [[1, 1], [0, 0]])
        for g in enumerate_gl(2, q2):
            assert matrix_label(conjugate(g, x)) == matrix_label(x)

    def test_serialize_roundtrip(self):
        lab = OrbitLabel([((0, 1), (2, 1)), ((1, 1), (1,))])
        assert OrbitLabel.parse(lab.serialize()) == lab

    def test_representative_has_its_label(self, q2, q3):
        for ctx in (q2, q3):
            table = enumerate_orbits(2, ctx)
            for lab in table.labels:
                assert matrix_label(representative(ctx, lab, 2)) == lab


class TestEnumeration:
    def test_n0(self, q2):
        table = enumerate_orbits(0, q2)
        assert len(table) == 1 and table.sizes == (1,)

    def test_n1(self, q2):
        table = enumerate_orbits(1, q2)
        labels = {lab.serialize() for lab in table.labels}
        assert labels == {"0,1:1", "1,1:1"}
        assert table.sizes == (1, 1)

    def test_n1_scalar_classes(self, q5):
        table = enumerate_orbits(1, q5)
        assert len(table) == 5 and all(s == 1 for s in table.sizes)

    def test_n2_q2(self, q2):
        table = enumerate_orbits(2, q2)
        assert len(table) == 6
        assert sorted(table.sizes) == [1, 1, 2, 3, 3, 6]
        assert sum(table.sizes) == 16

    def test_sizes_sum(self, q3):
        table = enumerate_orbits(2, q3)
        assert sum(table.sizes) == 3 ** 4

    def test_centralizer_times_orbit(self, q2):
        table = enumerate_orbits(2, q2)
        gl = enumerate_gl_order(2, q2)
        for rep, size in zip(table.reps, table.sizes):
            assert orbit_oracle.commutant_order(rep) * size == gl

    @pytest.mark.parametrize("q,n", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)])
    def test_bruteforce_oracle(self, q, n):
        ctx = fq(q)
        table = enumerate_orbits(n, ctx)
        claim, sizes = orbit_table_bruteforce(n, ctx)
        assert sorted(table.sizes) == sorted(sizes)
        # the two partitions agree cell by cell (bijective relabeling)
        pairs = set(zip(table.lookup.tolist(), claim.tolist()))
        assert len(pairs) == len(table) == len(sizes)

    def test_orbit_of(self, q2):
        table = enumerate_orbits(2, q2)
        x = Matrix(q2, [[0, 1], [0, 0]])
        assert orbit_of(x, table) == OrbitLabel([((0, 1), (2,))])

    @pytest.mark.parametrize("n,count", [(1, 1), (2, 2), (3, 3), (4, 5)])
    def test_nilpotent_counts(self, q2, n, count):
        assert nilpotent_orbit_count(enumerate_orbits(n, q2)) == count

    def test_json(self, q2):
        data = enumerate_orbits(2, q2).to_json()
        assert data["n"] == 2 and len(data["orbits"]) == 6

    @pytest.mark.parametrize("q,n,count", [(2, 5, 74), (3, 4, 129)])
    def test_past_the_lookup_range(self, q, n, count):
        table = enumerate_orbits(n, fq(q))
        assert len(table) == count and table.lookup is None
        assert sum(table.sizes) == q ** (n * n)

    @pytest.mark.parametrize("q,n", [(47, 2), (16, 3)])
    def test_more_irreducibles_than_the_recursion_limit(self, q, n):
        # 1,128 irreducibles of degree <= 2 over F_47 and 1,496 of degree
        # <= 3 over F_16: a label walk that recursed once per irreducible
        # raised RecursionError; gl_n has q^(n-1) + ... + q orbits here
        table = enumerate_orbits(n, fq(q))
        assert len(table) == sum(q ** i for i in range(1, n + 1))
        assert sum(table.sizes) == q ** (n * n)

    def test_negative_degree(self, q2):
        with pytest.raises(ValueError, match="n=-1"):
            enumerate_orbits(-1, q2)


class TestCentralizerOrder:
    """The closed form against the commutant count on every representative."""

    @pytest.mark.parametrize("q,n", [(2, 1), (2, 2), (2, 3), (2, 4),
                                     (3, 1), (3, 2), (3, 3)]
                             + [(q, n) for q in (4, 5, 7, 8, 9) for n in (1, 2)])
    def test_matches_commutant_count(self, q, n):
        ctx = fq(q)
        table = enumerate_orbits(n, ctx)
        for lab, rep in zip(table.labels, table.reps):
            assert centralizer_order(ctx, lab) == orbit_oracle.commutant_order(rep)


class TestMoveBFS:
    """The move-table sweep and the seedless partition against the
    matrix-product BFS they replaced."""

    @pytest.mark.parametrize("q,n", BUDGET_SIZES)
    def test_lookup_matches_oracle(self, q, n):
        table = enumerate_orbits(n, fq(q))
        claim, counts = orbit_oracle.lookup(table)
        assert np.array_equal(table.lookup, claim)
        assert counts == list(table.sizes)

    @pytest.mark.parametrize("q,n", BUDGET_SIZES)
    def test_bruteforce_matches_oracle(self, q, n):
        ctx = fq(q)
        claim, sizes = orbit_table_bruteforce(n, ctx)
        want_claim, want_sizes = orbit_oracle.partition(ctx, n)
        assert np.array_equal(claim, want_claim)
        assert sizes == want_sizes

    @pytest.mark.parametrize("q,n", orbit_oracle.DEFAULT_SIZES + [(4, 3)])
    def test_move_table_matches_oracle(self, q, n):
        ctx = fq(q)
        got = orbits._move_codes.__wrapped__(ctx, n)
        assert np.array_equal(got, orbit_oracle.move_codes(ctx, n))

    @pytest.mark.parametrize("q,n,rows", [(2, 0, 0), (2, 1, 0), (3, 1, 1), (2, 4, 2),
                                          (3, 3, 3), (16, 2, 3)])
    def test_one_move_per_generator(self, q, n, rows):
        # I + E_01 and P for n >= 2, diag(gamma, 1, ..., 1) for q > 2
        assert len(orbits._move_codes(fq(q), n)) == rows

    # at n = 1 the codes of F_256 fill uint8, and Q = q does not fit it
    @pytest.mark.parametrize("q,n", [(2, 4), (3, 3), (17, 2), (256, 1)])
    def test_codes_fit_their_dtype(self, q, n):
        moves = orbits._move_codes(fq(q), n)
        assert moves.dtype == np.min_scalar_type(q ** (n * n) - 1)
        assert not moves.flags.writeable


class TestMissingGenerator:
    """A move table without the cyclic shift, or without the torus generator
    where I + E_01 and P generate only GL_n(F_p) (not at q = 3, where the
    torus generator is redundant), leaves codes unreached: the seeded sweep
    raises OrbitCountError and the seedless partition splits classes."""

    @pytest.mark.parametrize("q,n,dropped", [(2, 3, 1), (2, 4, 1), (4, 2, 2), (9, 2, 2)])
    def test_table_without_a_generator(self, q, n, dropped):
        ctx = fq(q)
        moves = np.delete(orbits._move_codes(ctx, n), dropped, axis=0)
        want_claim, want_sizes = orbit_oracle.partition(ctx, n)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(orbits, "_move_codes", lambda ctx, n: moves)
            with pytest.raises(OrbitCountError, match="lie in no enumerated orbit"):
                enumerate_orbits.__wrapped__(n, ctx)
            claim, sizes = orbit_table_bruteforce(n, ctx)
        assert not np.array_equal(claim, want_claim) and sizes != want_sizes


@given(st.sampled_from([(2, 2), (2, 3), (3, 2), (4, 2)]), st.data())
@settings(max_examples=20, deadline=None)
def test_swapped_move_fails_the_comparison(qn, data):
    """Swapping the images of two codes from different orbits in one row of
    the move table keeps it a permutation, but the seeded sweep raises
    OrbitCountError or disagrees with the oracle, and so does the partition."""
    q, n = qn
    ctx = fq(q)
    table = enumerate_orbits(n, ctx)
    moves = orbits._move_codes(ctx, n)
    k = data.draw(st.integers(0, len(moves) - 1))
    a = data.draw(st.integers(0, q ** (n * n) - 1))
    others = np.flatnonzero(table.lookup != table.lookup[a])
    b = int(others[data.draw(st.integers(0, len(others) - 1))])
    swapped = moves.copy()
    swapped[k, [a, b]] = swapped[k, [b, a]]
    want_lookup, _ = orbit_oracle.lookup(table)
    want_claim, want_sizes = orbit_oracle.partition(ctx, n)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(orbits, "_move_codes", lambda ctx, n: swapped)
        try:
            got = enumerate_orbits.__wrapped__(n, ctx).lookup
        except OrbitCountError:
            got = None
        claim, sizes = orbit_table_bruteforce(n, ctx)
    assert got is None or not np.array_equal(got, want_lookup)
    assert not np.array_equal(claim, want_claim) and sizes != want_sizes


@given(st.sampled_from([(2, 2), (2, 3), (3, 2), (4, 2)]), st.data())
@settings(max_examples=30, deadline=None)
def test_swapped_row_move_entry_fails(qn, data):
    """Swapping two different entries of one table that _move_codes builds
    by batch_matmul (the Q-entry table of u g^-1, or one of the row sums
    sum_j g_ij u_j) either stops a move from permuting the codes or changes
    the move table against the digit-grid oracle."""
    q, n = qn
    ctx = fq(q)
    real = orbits.batch_matmul
    tables = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(orbits, "batch_matmul", lambda *args: tables.append(real(*args))
                   or tables[-1])
        orbits._move_codes.__wrapped__(ctx, n)
    c = data.draw(st.integers(0, len(tables) - 1))
    a, b = data.draw(st.lists(st.integers(0, len(tables[c]) - 1), min_size=2,
                              max_size=2, unique=True))
    assume(not np.array_equal(tables[c][a], tables[c][b]))
    calls = iter(range(len(tables)))

    def swapped(*args):
        table = real(*args)
        if next(calls) == c:
            table[[a, b]] = table[[b, a]]
        return table

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(orbits, "batch_matmul", swapped)
        try:
            got = orbits._move_codes.__wrapped__(ctx, n)
        except OrbitCountError:
            return
    assert not np.array_equal(got, orbit_oracle.move_codes(ctx, n))


@given(st.sampled_from([(2, 2), (2, 3), (3, 2), (4, 2), (5, 2)]), st.data())
@settings(max_examples=30, deadline=None)
def test_changed_generator_entry_fails(qn, data):
    """Changing one entry of one generator, keeping it invertible, changes
    its row of the move table against the oracle, which keeps its own
    generators: g' x g'^-1 = g x g^-1 for every x only if g' is a scalar
    multiple of g, and g has two nonzero entries for n >= 2."""
    q, n = qn
    ctx = fq(q)
    gens = orbits._generators(ctx, n)
    k = data.draw(st.integers(0, len(gens) - 1))
    i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    a = gens[k].a.copy()
    a[i, j] = data.draw(st.sampled_from([v for v in range(q) if v != a[i, j]]))
    assume(orbit_oracle.batch_det(ctx, a) != 0)
    changed = gens[:k] + [Matrix(ctx, a)] + gens[k + 1:]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(orbits, "_generators", lambda ctx, n: changed)
        got = orbits._move_codes.__wrapped__(ctx, n)
    assert not np.array_equal(got, orbit_oracle.move_codes(ctx, n))


class TestTypedErrors:
    """Each orbit count check raises OrbitCountError, also under python -O."""

    def test_label_weight_against_n(self, q2, monkeypatch):
        # rank 0 for every g(x)^j makes each of t, t + 1 and t^2 + t + 1 claim
        # all of F_2^2: a partition for each, of total degree 2 + 2 + 2
        monkeypatch.setattr(orbits, "row_reduce",
                            lambda ctx, a: (a, np.zeros(len(a), dtype=np.intp)))
        with pytest.raises(OrbitCountError, match="total degree 6, not n = 2"):
            matrix_label(Matrix(q2, [[0, 0], [0, 1]]))

    def test_label_kernels_against_partitions(self, q2, monkeypatch):
        # rank 1 for every g(x)^j gives t^2 + t + 1 a kernel of odd dimension
        monkeypatch.setattr(orbits, "row_reduce",
                            lambda ctx, a: (a, np.ones(len(a), dtype=np.intp)))
        with pytest.raises(OrbitCountError, match="not those of elementary divisors"):
            matrix_label(Matrix(q2, [[0, 0], [0, 1]]))

    def test_table_sizes_against_total(self, q2):
        table = enumerate_orbits(2, q2)
        sizes = table.sizes[:-1] + (table.sizes[-1] + 1,)
        with pytest.raises(OrbitCountError, match="not q"):
            OrbitTable(q2, 2, table.labels, table.reps, sizes)

    def test_bfs_count_against_centralizer(self, q3, monkeypatch):
        table = enumerate_orbits(2, q3)
        k = 4
        real = orbits.centralizer_order

        def corrupted(ctx, label):
            order = real(ctx, label)
            return 2 * order if label == table.labels[k] else order

        monkeypatch.setattr(orbits, "centralizer_order", corrupted)
        with pytest.raises(OrbitCountError,
                           match=re.escape(table.labels[k].serialize())):
            enumerate_orbits.__wrapped__(2, q3)

    @pytest.mark.parametrize("conjugated", [False, True])
    def test_two_seeds_in_one_orbit(self, q3, monkeypatch, conjugated):
        # label k's representative replaced by (a conjugate of) label j's
        labels = enumerate_orbits(2, q3).labels
        j, k = 4, 7
        real = orbits.representative
        g = Matrix(q3, [[1, 1], [0, 1]])

        def corrupted(ctx, label, n):
            if label != labels[k]:
                return real(ctx, label, n)
            x = real(ctx, labels[j], n)
            return conjugate(g, x) if conjugated else x

        assert conjugate(g, real(q3, labels[j], 2)) != real(q3, labels[j], 2)
        monkeypatch.setattr(orbits, "representative", corrupted)
        with pytest.raises(OrbitCountError) as err:
            enumerate_orbits.__wrapped__(2, q3)
        assert re.search(f"orbits {re.escape(labels[j].serialize())} and "
                         f"{re.escape(labels[k].serialize())} meet", str(err.value))

    def test_move_not_a_permutation(self, q3, monkeypatch):
        # a g^-1 with its last row zeroed makes x -> g x g^-1 forget the
        # last column of g x: q^n matrices go to each image
        real = orbits.batch_inverse

        def singular(ctx, a):
            inv = real(ctx, a).copy()
            inv[..., -1, :] = 0
            return inv

        monkeypatch.setattr(orbits, "batch_inverse", singular)
        with pytest.raises(OrbitCountError, match="not a permutation"):
            orbits._move_codes.__wrapped__(q3, 2)

    def test_lookup_coverage(self, q2, monkeypatch):
        real = orbits._label_candidates
        monkeypatch.setattr(orbits, "_label_candidates",
                            lambda ctx, n: list(real(ctx, n))[:-1])
        with pytest.raises(OrbitCountError, match="no enumerated orbit"):
            enumerate_orbits.__wrapped__(2, q2)


@given(st.sampled_from([(2, 2), (2, 3), (3, 2)]), st.data())
@settings(max_examples=30, deadline=None)
def test_lookup_agrees_with_label(qn, data):
    """The fast lookup index and the structural labeling agree on arbitrary
    matrices."""
    q, n = qn
    ctx = fq(q)
    table = enumerate_orbits(n, ctx)
    entries = data.draw(st.lists(st.integers(0, q - 1),
                                 min_size=n * n, max_size=n * n))
    x = Matrix(ctx, np.array(entries, dtype=np.int16).reshape(n, n))
    idx = table.index_of_matrix(x)
    assert table.labels[idx] == matrix_label(x)


# q=2 n=5 is past the lookup; q=8 and 9 have 28 and 45 irreducibles of degree <= 2
LABEL_SIZES = [(2, 5), (4, 3), (8, 2), (9, 2)]


def draw_matrix(data, ctx, n):
    entries = data.draw(st.lists(st.integers(0, ctx.q - 1), min_size=n * n,
                                 max_size=n * n))
    # half the draws are upper bidiagonal with eigenvalues 0 and 1, so
    # repeated factors and several parts per irreducible come up
    if data.draw(st.booleans()):
        entries = [e % 2 if i // n == i % n else e if i % n == i // n + 1 else 0
                   for i, e in enumerate(entries)]
    return Matrix(ctx, np.array(entries, dtype=np.int16).reshape(n, n))


@given(st.sampled_from(LABEL_SIZES), st.data())
@settings(max_examples=60, deadline=None)
def test_label_matches_char_poly_oracle(qn, data):
    """Labels read from one stack of kernel ranks against the characteristic
    polynomial and per-g kernel filtration."""
    q, n = qn
    ctx = fq(q)
    x = draw_matrix(data, ctx, n)
    assert matrix_label(x) == orbit_oracle.matrix_label(x)


@given(st.sampled_from(LABEL_SIZES), st.data())
@settings(max_examples=40, deadline=None)
def test_one_corrupted_rank_fails_the_comparison(qn, data):
    """Any one rank one too large makes the label differ from the oracle's or
    raises OrbitCountError."""
    q, n = qn
    ctx = fq(q)
    x = draw_matrix(data, ctx, n)
    real = orbits.row_reduce

    def corrupted(ctx, a):
        forms, ranks = real(ctx, a)
        ranks[data.draw(st.integers(0, len(ranks) - 1))] += 1
        return forms, ranks

    want = orbit_oracle.matrix_label(x)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(orbits, "row_reduce", corrupted)
        try:
            got = matrix_label(x)
        except OrbitCountError:
            return
    assert got != want


@given(st.sampled_from([(2, 3), (3, 2), (4, 2)]), st.data())
@settings(max_examples=30, deadline=None)
def test_label_parse_roundtrip(qn, data):
    q, n = qn
    table = enumerate_orbits(n, fq(q))
    lab = data.draw(st.sampled_from(table.labels))
    assert OrbitLabel.parse(lab.serialize()) == lab
