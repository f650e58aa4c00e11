"""Matrices over F_q, block shapes, and group enumeration."""
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hc_oracle
import orbit_oracle
from glnq import glmat, hc
from glnq.field import fq, undigits
from glnq.glmat import (Composition, GLTableError, Matrix,
                        ResourceBudgetError, ShapeError, SingularMatrixError,
                        _block_starts, _embed_blocks, _shape_mask,
                        all_matrices, batch_inverse, batch_matmul,
                        compositions, conjugate, determinants, encode_matrices,
                        enumerate_gl_order, gl_arrays, gl_mask, row_codes,
                        row_reduce, sub_mul, unipotent_radical_elems,
                        unipotent_radical_order)
from glnq.orbits import OrbitCountError
from orbit_oracle import enumerate_gl

# every default verify budget, two more extension fields, and q=4 n=3: past
# the orbit lookup but inside DEFAULT_BUDGET (glnq induce --q 4 --budget)
KERNEL_SIZES = [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3), (4, 1),
                (4, 2), (5, 1), (5, 2), (8, 2), (9, 2), (4, 3)]


def random_matrix(data, ctx, n):
    entries = data.draw(st.lists(st.integers(0, ctx.q - 1),
                                 min_size=n * n, max_size=n * n))
    return Matrix(ctx, np.array(entries, dtype=np.int16).reshape(n, n))


class TestMatrix:
    def test_arithmetic(self, q3):
        x = Matrix.from_rows(q3, [[1, 2], [0, 1]])
        y = Matrix.from_rows(q3, [[1, 1], [1, 0]])
        assert (x + y) - y == x
        assert x @ Matrix.identity(q3, 2) == x
        assert (-x) + x == Matrix.zero(q3, 2)

    def test_det_trace(self, q3):
        x = Matrix.from_rows(q3, [[1, 2], [1, 1]])
        assert x.det() == q3.element(2)
        assert x.trace() == q3.element(2)

    def test_inverse(self, q3):
        x = Matrix.from_rows(q3, [[1, 2], [1, 1]])
        assert x @ x.inverse() == Matrix.identity(q3, 2)
        with pytest.raises(SingularMatrixError):
            Matrix.zero(q3, 2).inverse()

    def test_size_zero(self, q2):
        z = Matrix.zero(q2, 0)
        assert z.inverse() == z
        assert z @ z == z

    def test_serialize_roundtrip(self, q4):
        x = Matrix.from_rows(q4, [[q4.from_coeffs([0, 1]), q4.one],
                                  [q4.zero, q4.from_coeffs([1, 1])]])
        assert Matrix.parse(q4, x.serialize()) == x

    @given(st.sampled_from([2, 4, 9]), st.integers(0, 3), st.data())
    @settings(max_examples=60, deadline=None)
    def test_parse_roundtrip(self, q, n, data):
        x = random_matrix(data, fq(q), n)
        assert Matrix.parse(x.ctx, x.serialize()) == x

    @pytest.mark.parametrize("text,named", [
        ("0,0,1 1,0;0,0 1,0", "'0,0,1'"),    # three coordinates over F_4
        ("1 0;0 1", "'1'"),                  # one coordinate over F_4
        ("2,0 0,0;0,0 1,0", "'2,0'"),        # coordinate outside F_2
        ("1,0 x;0,0 1,0", "'x'"),
        ("-1,0 0,0;0,0 1,0", "'-1,0'"),
        ("1,0 0,0;1,0", "row 1 '1,0'"),      # ragged
        ("1,0 0,0 1,1;0,0 1,0 0,1", "row 0"),  # not square
        ("1,0 0,0;", "row 1 ''"),
    ])
    def test_parse_rejects_what_serialize_cannot_emit(self, q4, text, named):
        with pytest.raises(ValueError, match=named):
            Matrix.parse(q4, text)


Q_ALL = [2, 3, 4, 5, 7, 8, 9, 16, 25, 27]
# (lead shape of a, lead shape of b) for each kind of operand pair
LEADS = {"matrix x matrix": ((), ()), "stack x matrix": ((4,), ()),
         "matrix x stack": ((), (4,)), "stack x stack": ((4,), (4,)),
         "broadcast stacks": ((2, 1), (3,))}


def check_against_tables(ctx, a, b, got):
    """Raise AssertionError unless got is the table kernel's a @ b, in
    value and shape, held in the narrowest unsigned dtype that holds q - 1."""
    want = orbit_oracle.batch_matmul_tables(ctx, a, b)
    np.testing.assert_array_equal(
        got, want.astype(np.min_scalar_type(ctx.q - 1)), strict=True)


class TestBatchMatmul:
    """The regular-representation matmul over F_p against the table kernel."""

    @pytest.mark.parametrize("q", Q_ALL)
    def test_every_kind_of_operand(self, q):
        ctx = fq(q)
        rng = np.random.default_rng(q)
        for la, lb in LEADS.values():
            for n, m, r in [(2, 3, 1), (3, 3, 3), (2, 0, 3), (0, 2, 3), (1, 1, 0)]:
                a = rng.integers(0, q, la + (n, m), dtype=np.int16)
                b = rng.integers(0, q, lb + (m, r), dtype=np.int16)
                got = batch_matmul(ctx, a, b)
                assert got.dtype == np.uint8
                check_against_tables(ctx, a, b, got)

    @given(st.sampled_from(Q_ALL), st.sampled_from(sorted(LEADS)),
           st.integers(0, 3), st.integers(0, 3), st.integers(0, 3), st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_table_oracle(self, q, lead, n, m, r, data):
        ctx = fq(q)
        la, lb = LEADS[lead]

        def draw(shape):
            size = int(np.prod(shape))
            entries = data.draw(st.lists(st.integers(0, q - 1),
                                         min_size=size, max_size=size))
            return np.array(entries, dtype=np.int16).reshape(shape)

        a, b = draw(la + (n, m)), draw(lb + (m, r))
        check_against_tables(ctx, a, b, batch_matmul(ctx, a, b))

    @pytest.mark.parametrize("q", [2, 3, 4, 9])
    def test_stacks_across_chunks(self, q, monkeypatch):
        monkeypatch.setattr(glmat, "MATMUL_CHUNK", 3)
        ctx = fq(q)
        rng = np.random.default_rng(q)
        for la, lb in [((10,), ()), ((), (7,)), ((8,), (8,)), ((2, 1), (4,))]:
            a = rng.integers(0, q, la + (3, 2), dtype=np.int16)
            b = rng.integers(0, q, lb + (2, 3), dtype=np.int16)
            check_against_tables(ctx, a, b, batch_matmul(ctx, a, b))

    @pytest.mark.parametrize("q", [2, 4, 9, 25])
    def test_one_corrupted_entry_fails_the_comparison(self, q):
        ctx = fq(q)
        rng = np.random.default_rng(q)
        a = rng.integers(0, q, (5, 3, 2), dtype=np.int16)
        b = rng.integers(0, q, (5, 2, 3), dtype=np.int16)
        got = batch_matmul(ctx, a, b)
        check_against_tables(ctx, a, b, got)
        bad = got.copy()
        bad[3, 1, 2] = (bad[3, 1, 2] + 1) % q
        with pytest.raises(AssertionError):
            check_against_tables(ctx, a, b, bad)


class TestAccumulator:
    """batch_matmul accumulates each output digit, a sum of m k products of
    digits below p, in the narrowest of int16, int32 and int64 that holds
    m k (p - 1)^2, and is exact on both sides of each switch."""

    Q_SWITCH = [2, 3, 4, 5, 7, 8, 9, 16, 19, 131]

    @staticmethod
    def _switch(ctx, dtype):
        """The largest m whose digit sums fit dtype."""
        return int(np.iinfo(dtype).max) // (ctx.k * (ctx.p - 1) ** 2)

    @pytest.mark.parametrize("q", Q_SWITCH)
    def test_narrowest_type(self, q):
        ctx = fq(q)
        m16, m32 = self._switch(ctx, np.int16), self._switch(ctx, np.int32)
        for m, dtype in [(1, np.int16), (m16, np.int16), (m16 + 1, np.int32),
                         (m32, np.int32), (m32 + 1, np.int64)]:
            assert glmat._accumulator(ctx, m) == dtype, m

    @pytest.mark.parametrize("q", Q_SWITCH)
    def test_largest_digit_sums_on_both_sides(self, q):
        # every product in an output digit as large as F_q allows: each entry
        # of a is the element whose multiplication matrix has the largest
        # row sum, each entry of b the element with every digit p - 1
        ctx = fq(q)
        p, k = ctx.p, ctx.k
        sums = ctx.MULMAT.astype(np.int64).sum(axis=2)
        widest = int(np.argmax(sums.max(axis=1)))
        m16 = self._switch(ctx, np.int16)
        for m in (m16, m16 + 1):
            a = np.full((2, 1, m), widest, dtype=np.int16)
            a[1, 0, ::3] = np.arange(len(a[1, 0, ::3])) % q  # some smaller terms
            b = np.full((m, 1), q - 1, dtype=np.int16)
            largest = m * int(sums.max()) * (p - 1)  # the exact digit sum
            assert (largest <= 2 ** 15 - 1) == (m == m16)
            check_against_tables(ctx, a, b, batch_matmul(ctx, a, b))
        if p > 2 and k > 1:
            # these sums pass int16 while m (p - 1)^2 alone does not, so an
            # accumulator read without the k factor wraps here, and a wrap
            # of 2^16 is seen mod an odd p
            assert m16 * (p - 1) ** 2 <= 2 ** 15 - 1 < largest


    @pytest.mark.parametrize("q", [127, 131])
    def test_digits_past_int8(self, q):
        # MULMAT holds every digit below p, int8 through p = 127 and int16
        # past it, where int8 would wrap 130 to -126: [[130]] @ [[130]] is 1
        # over F_131, and would read (-126)^2 = 25 mod 131
        ctx = fq(q)
        assert ctx.MULMAT.dtype == (np.int8 if q < 128 else np.int16)
        assert ctx.MULMAT.ravel().tolist() == list(range(q))
        top = np.array([[q - 1]], dtype=np.int16)
        assert batch_matmul(ctx, top, top).tolist() == [[1]]
        rng = np.random.default_rng(q)
        for m in (1, 2, 3):  # int16 accumulators at m = 1, int32 past it
            a = rng.integers(0, q, (5, 2, m), dtype=np.int16)
            b = rng.integers(0, q, (5, m, 3), dtype=np.int16)
            a[0], b[0] = q - 1, q - 1
            check_against_tables(ctx, a, b, batch_matmul(ctx, a, b))


class TestRowReduce:
    """The stack-wide row reduction against one list elimination per matrix."""

    @pytest.mark.parametrize("q", [2, 3, 4, 9])
    @pytest.mark.parametrize("shape", [(40, 3, 3), (40, 2, 5), (40, 5, 2), (30, 4, 4),
                                       (0, 3, 3), (5, 0, 3), (5, 3, 0)])
    def test_matches_oracle(self, q, shape):
        ctx = fq(q)
        rng = np.random.default_rng(q * 1000 + sum(shape))
        a = rng.integers(0, q, size=shape).astype(np.int16)
        # low-rank members: a product through a thinner middle dimension
        k = shape[0] // 2
        if shape[1] > 1 and shape[2] > 1:
            thin = shape[1] // 2
            a[:k] = batch_matmul(ctx, a[:k, :, :thin], a[:k, :thin, :])
        a[k:k + 1] = 0
        want_forms, want_ranks = orbit_oracle.row_reduce(ctx, a)
        forms, ranks, dets = row_reduce(ctx, a.copy())
        assert np.array_equal(forms, want_forms)
        assert np.array_equal(ranks, want_ranks)
        if shape[1] == shape[2]:
            assert np.array_equal(dets, orbit_oracle.batch_det(ctx, a))
        else:
            assert dets is None

    @given(st.sampled_from([2, 3, 4, 5, 8, 9]), st.integers(0, 5), st.data())
    @settings(max_examples=60, deadline=None)
    def test_determinants_match_cofactor_expansion(self, q, n, data):
        # random stacks with forced singular members: a repeated row, a zero
        # column, and a row that is a multiple of another
        ctx = fq(q)
        a = np.array(data.draw(st.lists(st.integers(0, q - 1), min_size=8 * n * n,
                                        max_size=8 * n * n)),
                     dtype=np.int16).reshape(8, n, n)
        if n >= 2:
            a[1, 1] = a[1, 0]
            a[2, :, n - 1] = 0
            a[3, n - 1] = ctx.MUL[data.draw(st.integers(0, q - 1)), a[3, 0]]
        assert np.array_equal(row_reduce(ctx, a.copy())[2], orbit_oracle.batch_det(ctx, a))
        if n >= 2:
            assert not row_reduce(ctx, a[1:4])[2].any()

    @pytest.mark.parametrize("q", [2, 3, 5, 9])
    def test_row_swap_negates_the_determinant(self, q):
        # a swap that the determinants missed would leave them unchanged;
        # over F_2^k negation is the identity, so -d == d there
        ctx = fq(q)
        rng = np.random.default_rng(q)
        a = rng.integers(0, q, size=(30, 4, 4)).astype(np.int16)
        dets = row_reduce(ctx, a.copy())[2]
        swapped = a[:, [1, 0, 2, 3]]
        assert np.array_equal(row_reduce(ctx, swapped)[2], ctx.NEG[dets])
        assert (dets != 0).any()
        if q % 2:
            assert not np.array_equal(ctx.NEG[dets], dets)

    def test_no_determinants_of_a_non_square_stack(self, q2):
        assert row_reduce(q2, np.zeros((3, 2, 3), dtype=np.int16))[2] is None

    @pytest.mark.parametrize("q", [2, 9, 181, 191])
    def test_sub_mul_matches_tables(self, q):
        # 181^2 - 1 is the largest flat index int16 holds; q=191 takes intp
        ctx = fq(q)
        rng = np.random.default_rng(q)
        x, y = rng.integers(0, q, size=(2, 50, 6)).astype(np.int16)
        f = rng.integers(0, q, size=(50, 1)).astype(np.int16)
        x[0, 0] = y[0, 0] = f[0, 0] = q - 1
        assert np.array_equal(sub_mul(ctx, x, f, y), ctx.SUB[x, ctx.MUL[f, y]])
        assert np.array_equal(sub_mul(ctx, x, ctx.NEG[q - 1], y),
                              ctx.ADD[x, ctx.MUL[q - 1, y]])

    def test_in_place_only_when_writeable(self, q3):
        a = np.array([[[1, 2], [2, 1]], [[0, 1], [1, 0]]], dtype=np.int16)
        forms, ranks, dets = row_reduce(q3, a)
        assert forms is a and ranks.tolist() == [1, 2] and dets.tolist() == [0, 2]
        b = a.copy()
        b.setflags(write=False)
        forms = row_reduce(q3, b)[0]
        assert forms is not b

    @given(st.sampled_from([2, 3, 4, 5]), st.data())
    @settings(max_examples=40, deadline=None)
    def test_rank(self, q, data):
        ctx = fq(q)
        x = random_matrix(data, ctx, data.draw(st.integers(0, 4)))
        assert x.rank() == orbit_oracle.rank(ctx, x.a)


class TestBatchInverse:
    """The reduced [a | I] against one elimination per matrix."""

    @pytest.mark.parametrize("q,n", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2),
                                     (4, 2), (5, 2)])
    def test_gl_matches_oracle(self, q, n):
        ctx = fq(q)
        G, Ginv = orbit_oracle.adjugate_gl_arrays(ctx, n)
        want = np.stack([orbit_oracle.inverse(Matrix(ctx, g)).a for g in G])
        assert np.array_equal(Ginv, want)
        assert np.array_equal(batch_inverse(ctx, G), want)
        eye = np.broadcast_to(np.eye(n, dtype=np.int16), G.shape)
        assert np.array_equal(batch_matmul(ctx, G, Ginv), eye)

    def test_one_singular_matrix_in_stack(self, q3):
        G, _ = gl_arrays(q3, 2)
        stack = G[:10].copy()
        stack[6] = [[1, 2], [2, 1]]          # second row = 2 * first row
        with pytest.raises(SingularMatrixError):
            batch_inverse(q3, stack)


class TestRowCodes:
    @pytest.mark.parametrize("q,n", [(2, 0), (2, 1), (2, 4), (3, 3), (17, 2)])
    def test_rows_of_all_matrices(self, q, n):
        rows = row_codes(fq(q), n)
        assert rows.dtype == np.min_scalar_type(q ** n - 1)
        assert not rows.flags.writeable
        assert np.array_equal(rows, undigits(all_matrices(fq(q), n), q).T)

    def test_budget(self, q2):
        with pytest.raises(ResourceBudgetError):
            row_codes(q2, 5)


class TestGLTables:
    """The determinant table, GL_n's mask and stack against the routes they
    replaced: the cofactor expansion of every digit grid
    (orbit_oracle.batch_det), and the adjugate inverses of all of GL_n
    (orbit_oracle.adjugate_gl_arrays) against batch_inverse, one
    Gauss-Jordan sweep over [G | I]."""

    @pytest.mark.parametrize("q,n", KERNEL_SIZES)
    def test_matches_oracles(self, q, n):
        ctx = fq(q)
        mats = all_matrices(ctx, n)
        dets = orbit_oracle.batch_det(ctx, mats)
        assert np.array_equal(determinants(ctx, n), dets)
        assert np.array_equal(gl_mask(ctx, n), dets != 0)
        G, codes = gl_arrays(ctx, n)
        assert G.dtype == np.uint8 and not G.flags.writeable
        assert np.array_equal(G, mats[dets != 0])
        assert np.array_equal(codes, np.flatnonzero(dets != 0))
        assert np.array_equal(encode_matrices(ctx, G), codes)
        Ginv = orbit_oracle.adjugate_gl_arrays(ctx, n)[1]
        assert np.array_equal(Ginv, batch_inverse(ctx, G))

    def test_degree_zero(self, q3):
        assert determinants(q3, 0).tolist() == [1]
        G, codes = gl_arrays(q3, 0)
        assert G.shape == (1, 0, 0) and codes.tolist() == [0]
        assert orbit_oracle.adjugate_gl_arrays(q3, 0)[1].shape == (1, 0, 0)

    def test_mask_count_against_closed_form(self, q3, monkeypatch):
        monkeypatch.setattr(glmat, "enumerate_gl_order", lambda n, ctx: 49)
        with pytest.raises(GLTableError, match=r"48 matrices .* not \|GL_2\| = 49"):
            gl_mask(q3, 2)

    def test_inverse_against_its_matrix(self, q3):
        # det [1] = 2 makes no cofactor vector zero or nonzero that was not,
        # so the mask count holds; it made the adjugates of GL_2 wrong, but
        # the coset representatives' inverses come from batch_inverse
        bad = np.array([0, 2, 2], dtype=np.int16)
        assert coset_table_or_typed_error(q3, 2, bad) is not None


def coset_table_or_typed_error(ctx, n, bad):
    """hc._coset_table of degree n, uncached, with the degree-(n-1)
    determinant table replaced by bad: it must raise a typed error (None is
    returned) or give the oracle's representatives, inverses and sizes (the
    table is)."""
    want = hc_oracle.coset_table(ctx, n)
    real = glmat.determinants
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(glmat, "determinants",
                       lambda ctx, k: bad if k == n - 1 else real(ctx, k))
            got = hc._coset_table.__wrapped__(ctx, n)
    except (GLTableError, OrbitCountError, SingularMatrixError):
        return None
    assert got.keys() == want.keys()
    for lo, (g, gi, sizes) in got.items():
        order = np.argsort(encode_matrices(ctx, g))
        for x, y in zip((g[order], gi[order], sizes[order]), want[lo]):
            assert np.array_equal(x, y)
    return got


@given(st.sampled_from([(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (4, 2), (5, 2)]),
       st.data())
@settings(max_examples=40, deadline=None)
def test_corrupted_determinant_fails(qn, data):
    """Changing one entry of the degree-(n-1) determinant table breaks the
    mask count (GLTableError), or a coset representative or its inverse
    (a typed error), or leaves the coset table as the oracle's."""
    q, n = qn
    ctx = fq(q)
    bad = determinants(ctx, n - 1).copy()
    code = data.draw(st.integers(0, len(bad) - 1))
    bad[code] = data.draw(st.sampled_from([v for v in range(q) if v != bad[code]]))
    coset_table_or_typed_error(ctx, n, bad)


class TestNegativeDegrees:
    def test_all_matrices(self, q2):
        with pytest.raises(ValueError, match="n=-1"):
            all_matrices(q2, -1)

    def test_gl_arrays(self, q2):
        with pytest.raises(ValueError, match="n=-1"):
            gl_arrays(q2, -1)

    def test_gl_order(self, q2):
        with pytest.raises(ValueError, match="n=-1"):
            enumerate_gl_order(-1, q2)

    def test_unipotent_radical_order(self, q2):
        with pytest.raises(ValueError, match=r"\(2, -1\)"):
            unipotent_radical_order(q2, (2, -1))

    def test_unipotent_radical_elems(self, q2):
        with pytest.raises(ValueError, match=r"\(2, -1\)"):
            unipotent_radical_elems(q2, (2, -1))


class TestConjugation:
    def test_identity(self, q3):
        x = Matrix.from_rows(q3, [[1, 2], [0, 1]])
        assert conjugate(Matrix.identity(q3, 2), x) == x

    def test_permutation_swaps_diagonal(self, q2):
        g = Matrix.from_rows(q2, [[0, 1], [1, 0]])
        x = Matrix.from_rows(q2, [[1, 0], [0, 0]])
        assert conjugate(g, x) == Matrix.from_rows(q2, [[0, 0], [0, 1]])

    @given(st.sampled_from([2, 3]), st.data())
    @settings(max_examples=40, deadline=None)
    def test_homomorphism_and_linearity(self, q, data):
        ctx = fq(q)
        n = data.draw(st.integers(1, 3))
        gs = [g for g in enumerate_gl(n, ctx)]
        g = data.draw(st.sampled_from(gs))
        h = data.draw(st.sampled_from(gs))
        x = random_matrix(data, ctx, n)
        y = random_matrix(data, ctx, n)
        assert conjugate(g @ h, x) == conjugate(g, conjugate(h, x))
        assert conjugate(g, x + y) == conjugate(g, x) + conjugate(g, y)
        tables = orbit_oracle.batch_matmul_tables
        want = tables(ctx, tables(ctx, g.a, x.a), orbit_oracle.inverse(g).a)
        assert conjugate(g, x) == Matrix(ctx, want)


# block-shape helpers over single matrices; the library works on stacks


@dataclass(frozen=True)
class BlockWitness:
    composition: Composition
    kind: str = "levi"

    def __post_init__(self):
        if self.kind not in ("levi", "parabolic-upper", "parabolic-lower"):
            raise ValueError(f"unknown kind {self.kind!r}")


def in_shape(x: Matrix, witness: BlockWitness) -> bool:
    parts = witness.composition.parts
    if sum(parts) != x.n:
        raise ShapeError("composition does not match matrix size")
    upper = _shape_mask(parts)  # the lower parabolic's zeros are its transpose
    mask = {"levi": upper | upper.T, "parabolic-upper": upper,
            "parabolic-lower": upper.T}[witness.kind]
    return not np.any(x.a[mask])


def _project_blocks(a: np.ndarray, parts):
    starts, n = _block_starts(parts)
    if a.shape[-1] != n:
        raise ShapeError("composition does not match matrix size")
    return [a[..., s:s + p, s:s + p] for s, p in zip(starts, parts)]


def levi_project(x: Matrix, c: Composition):
    """Diagonal blocks of x in the pattern of c, one Matrix per part."""
    return [Matrix(x.ctx, b) for b in _project_blocks(x.a, c.parts)]


def block_embed(xs, c: Composition) -> Matrix:
    if len(xs) != len(c.parts):
        raise ShapeError("need one block per part")
    ctx = xs[0].ctx
    return Matrix(ctx, _embed_blocks([x.a for x in xs], c.parts))


class TestBlockShapes:
    def test_diagonal_is_levi(self, q3):
        x = Matrix.from_rows(q3, [[1, 0, 0], [0, 2, 0], [0, 0, 1]])
        for c in compositions(3):
            assert in_shape(x, BlockWitness(c, "levi"))

    def test_strictly_upper(self, q2):
        x = Matrix.from_rows(q2, [[0, 1], [0, 0]])
        c = Composition((1, 1))
        assert in_shape(x, BlockWitness(c, "parabolic-upper"))
        assert not in_shape(x, BlockWitness(c, "levi"))

    def test_below_block_entry(self, q2):
        x = Matrix.zero(q2, 3).a.copy()
        x[2, 0] = 1
        assert not in_shape(Matrix(q2, x), BlockWitness(Composition((2, 1)),
                                                        "parabolic-upper"))

    def test_project_trivial(self, q3):
        x = Matrix.from_rows(q3, [[1, 2], [0, 1]])
        assert levi_project(x, Composition((2,))) == [x]

    def test_project_split(self, q3):
        x = Matrix.from_rows(q3, [[1, 2], [0, 2]])
        blocks = levi_project(x, Composition((1, 1)))
        assert blocks == [Matrix.from_rows(q3, [[1]]), Matrix.from_rows(q3, [[2]])]

    def test_embed_two_blocks(self, q3):
        a = Matrix.from_rows(q3, [[1]])
        d = Matrix.from_rows(q3, [[2]])
        assert block_embed([a, d], Composition((1, 1))) == \
            Matrix.from_rows(q3, [[1, 0], [0, 2]])

    @given(st.sampled_from([2, 3]), st.data())
    @settings(max_examples=30, deadline=None)
    def test_section_property(self, q, data):
        ctx = fq(q)
        parts = data.draw(st.lists(st.integers(1, 2), min_size=1, max_size=3))
        c = Composition(parts)
        xs = [random_matrix(data, ctx, p) for p in parts]
        assert levi_project(block_embed(xs, c), c) == xs


class TestGroupOrders:
    def test_gl1(self, q3):
        assert enumerate_gl_order(1, q3) == 2

    def test_gl2_f2_bruteforce(self, q2):
        assert sum(1 for _ in enumerate_gl(2, q2)) == 6
        assert enumerate_gl_order(2, q2) == 6

    def test_gl3_f2(self, q2):
        assert sum(1 for _ in enumerate_gl(3, q2)) == 168
        assert enumerate_gl_order(3, q2) == (8 - 1) * (8 - 2) * (8 - 4)

    @pytest.mark.parametrize("q,n", [(2, 1), (2, 2), (3, 1), (3, 2), (5, 1)])
    def test_closed_form_matches_scan(self, q, n):
        ctx = fq(q)
        assert enumerate_gl_order(n, ctx) == sum(1 for _ in enumerate_gl(n, ctx))

    def test_parabolic_and_radical_orders(self, q2, q3):
        for ctx in (q2, q3):
            q = ctx.q
            # |P| = |U| * |L| for the (1,1) parabolic in GL_2
            assert unipotent_radical_order(ctx, (1, 1)) == q
            assert orbit_oracle.parabolic_order(ctx, (1, 1)) == q * (q - 1) ** 2
            assert unipotent_radical_order(ctx, (2, 1)) == q ** 2
            elems = unipotent_radical_elems(ctx, (2, 1))
            assert len(elems) == q ** 2
            # every element is strictly upper-block with unit diagonal absent
            assert not np.any(elems[:, 2, :2])


class TestComposition:
    def test_parse_serialize(self):
        c = Composition.parse("2+1+1")
        assert c.parts == (2, 1, 1) and c.n == 4
        assert Composition.parse(c.serialize()) == c

    def test_invalid(self):
        with pytest.raises(ValueError):
            Composition((0, 2))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_count(self, n):
        cs = list(compositions(n))
        assert len(cs) == 2 ** (n - 1)
        assert len(set(c.parts for c in cs)) == len(cs)
        assert all(c.n == n for c in cs)
