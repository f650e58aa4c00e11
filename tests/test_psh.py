"""Positivity, self-adjointness, the irrational structure constant, and the
transported second orthogonal basis."""
import dataclasses
import re
from fractions import Fraction

import numpy as np
import pytest

from glnq import duality, hc, hopf, linalg, psh
from glnq.field import fq, rational_is_square
from glnq.hopf import multiply_functions
from glnq.invfun import (character_matrix, constant_one, fourier_character_basis,
                         inner_product_rational)
from glnq.orbits import enumerate_orbits
from glnq.psh import (coproduct_constants, nondescending_witness, omega_basis,
                      structure_constants, verify_nondescending,
                      verify_positivity, verify_second_psh,
                      verify_self_adjointness)

import psh_oracle
from psh_oracle import dual_omega_basis


def _norms(gram):
    """The squared norms of the characters: the diagonal of the Gram pair."""
    x, den = gram
    return tuple(Fraction(int(v), den) for v in np.diagonal(x))


class TestOmegaBasis:
    @pytest.mark.parametrize("q,n", [(2, 1), (2, 2), (3, 1), (3, 2)])
    def test_norms_positive(self, q, n):
        assert all(x > 0 for x in _norms(omega_basis(fq(q), n)))

    def test_degree_one_q2(self, q2):
        # two characters (trivial and sign), each of squared norm q/(q-1) = 2
        assert _norms(omega_basis(q2, 1)) == (2, 2)

    def test_irrational_pairing_raises(self, monkeypatch, fresh_caches, q5):
        # chi_0 plus its planes rolled by one has an irrational squared norm
        # over Q(zeta_5), so the first entry of the Gram matrix is not rational
        _characters_changed(monkeypatch, 1, np.s_[:, :, 0],
                            lambda x: x[:, :, 0] + np.roll(x[:, :, 0], 1, axis=0))
        with pytest.raises(ArithmeticError, match=re.escape(
                "degree-1 character Gram matrix: entry (0,0) is not rational")):
            omega_basis(q5, 1)

    @pytest.mark.parametrize("n", [1, 2])
    def test_fourier_is_the_character_matrix(self, q3, n):
        # one array, read as it is: no transposed copy
        assert psh._fourier(q3, n)[0] is character_matrix(enumerate_orbits(n, q3))[0]


class TestStructureConstants:
    def test_nonnegative_q2(self, q2):
        x, den = structure_constants(q2, 1, 1)
        assert x.shape == (4, 6) and den > 0
        assert (x >= 0).all()

    def test_trivial_character_recovers_pairing(self, q2):
        # the coefficient on the trivial character chi_{0} equals
        # (product, 1) / (1, 1)
        from glnq.glmat import Matrix
        chars = fourier_character_basis(enumerate_orbits(1, q2))
        t2 = enumerate_orbits(2, q2)
        k0 = t2.index_of_matrix(Matrix.zero(q2, 2))
        one2 = constant_one(t2)
        x, den = structure_constants(q2, 1, 1)
        for i in range(len(chars)):
            for j in range(len(chars)):
                prod = multiply_functions(chars[i], chars[j])
                expect = (inner_product_rational(prod, one2)
                          / inner_product_rational(one2, one2))
                assert Fraction(int(x[i * len(chars) + j, k0]), den) == expect

    def test_bad_basis_name(self, q2):
        # the constants come in the character basis only: no basis option
        with pytest.raises(TypeError):
            structure_constants(q2, 1, 1, "character")


class TestAxioms:
    @pytest.mark.parametrize("q,n1,n2", [(2, 1, 1), (2, 1, 2), (2, 2, 1),
                                         (3, 1, 1)])
    def test_positivity(self, q, n1, n2):
        assert verify_positivity(fq(q), n1, n2).passed

    @pytest.mark.parametrize("q,n1,n2", [(2, 1, 1), (2, 1, 2), (3, 1, 1),
                                         (3, 1, 2)])
    def test_self_adjointness(self, q, n1, n2):
        assert verify_self_adjointness(fq(q), n1, n2).passed


class TestWitness:
    @pytest.mark.parametrize("q,square", [(2, Fraction(3, 2)),
                                          (3, Fraction(4, 3)),
                                          (5, Fraction(6, 5))])
    def test_square_value(self, q, square):
        w = nondescending_witness(fq(q))
        assert w == square and type(w) is Fraction
        assert not rational_is_square(w)

    def test_square_free_check(self):
        assert not rational_is_square(Fraction(3, 2))

    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_report(self, q):
        assert verify_nondescending(fq(q)).passed


class TestSecondBasis:
    def test_degree_one_is_negated_basis(self, q2):
        chars = fourier_character_basis(enumerate_orbits(1, q2))
        dual = dual_omega_basis(q2, 1)
        assert list(dual) == [b.scale(Fraction(-1)) for b in chars]

    @pytest.mark.parametrize("q,n", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)])
    def test_orthogonal_same_norms(self, q, n):
        assert verify_second_psh(fq(q), n).passed

    def test_degree_two_differs(self, q2):
        # the transported basis is genuinely different: the image of the
        # trivial character has two constituents
        from glnq.duality import steinberg_constituents
        assert steinberg_constituents(2, q2) == 2


# ---------------------------------------------------------------------------
# the matrix path against the scalar oracle

ORACLE_CASES = [(2, 1, 1), (2, 1, 2), (2, 2, 1), (3, 1, 1), (4, 1, 1), (5, 1, 1)]


def _product_rows(pair, k_axis):
    """An oracle pair with axes (i, j, k), or (k, i, j) when k_axis is 0, laid
    out as glnq.psh returns constants: rows (i, j) in product order, columns k."""
    x, den = pair
    x = np.moveaxis(x, k_axis, -1)
    return x.reshape(-1, x.shape[-1]), den


class TestAgainstOracle:
    @pytest.mark.parametrize("q,n1,n2", ORACLE_CASES)
    def test_norms(self, q, n1, n2):
        for n in (n1, n2, n1 + n2):
            assert _norms(omega_basis(fq(q), n)) == psh_oracle.norms(fq(q), n)

    @pytest.mark.parametrize("q,n1,n2", ORACLE_CASES)
    @pytest.mark.parametrize("basis", ["character", "omega"])
    def test_structure_constants(self, q, n1, n2, basis):
        ctx = fq(q)
        x, den = got = structure_constants(ctx, n1, n2)
        want = psh_oracle.structure_constants(ctx, n1, n2, basis)
        if basis == "character":
            assert linalg.mat_eq(got, _product_rows(psh_oracle.as_pair(want), 2))
            return
        # the oracle's unit-normalized constants are the character pair
        # rescaled: sign(c) sqrt(c^2 |chi_k|^2 / (|chi_i|^2 |chi_j|^2))
        norms1, norms2, norms3 = (_norms(omega_basis(ctx, n)) for n in (n1, n2, n1 + n2))
        for (i, j, k), v in np.ndenumerate(x.reshape(len(norms1), len(norms2), -1)):
            c = Fraction(int(v), den)
            sign, square = want[i][j][k]
            assert sign == (c > 0) - (c < 0)
            assert square == c * c * norms3[k] / (norms1[i] * norms2[j])

    @pytest.mark.parametrize("q,n1,n2", ORACLE_CASES)
    def test_coproduct_constants(self, q, n1, n2):
        got = coproduct_constants(fq(q), n1, n2)
        want = _product_rows(psh_oracle.as_pair(psh_oracle.coproduct_constants(fq(q), n1, n2)),
                             0)
        assert linalg.mat_eq(got, want)

    @pytest.mark.parametrize("q,n1,n2", ORACLE_CASES)
    def test_reports(self, q, n1, n2):
        ctx = fq(q)
        for check in ("verify_positivity", "verify_self_adjointness"):
            got = getattr(psh, check)(ctx, n1, n2).to_json()
            assert got == getattr(psh_oracle, check)(ctx, n1, n2).to_json()
        got = verify_second_psh(ctx, n1 + n2).to_json()
        assert got == psh_oracle.verify_second_psh(ctx, n1 + n2).to_json()


# ---------------------------------------------------------------------------
# corrupted inputs: each check fails with the witness of the identity the
# corruption breaks; where the scalar oracle sees it too, the oracle fails


@pytest.fixture
def fresh_caches():
    """Cached results built from a corrupted input must not outlive it: every
    lru_cache defined in psh and duality is cleared before and after."""
    caches = [f for mod in (psh, duality) for f in vars(mod).values()
              if hasattr(f, "cache_clear") and f.__module__ == mod.__name__]
    assert psh.structure_constants in caches
    for c in caches:
        c.cache_clear()
    yield
    for c in caches:
        c.cache_clear()


def _one_count_changed(real, parts, index=(-1, -1), by=1):
    """induction_matrix or restriction_matrix with one count of the given
    split (by default the last) moved by the given amount."""
    def wrapper(ctx, c):
        x, den = real(ctx, c)
        if tuple(c) != parts:
            return x, den
        x = x.copy()
        x[index] += by
        return linalg.reduced(x, den)
    return wrapper


def _characters_changed(monkeypatch, n, slot, value):
    """psh.character_matrix with planes[slot] = value(planes) in the planes,
    indexed (plane, x, O), of the degree-n characters."""
    real = psh.character_matrix

    def changed(table):
        planes, den = real(table)
        if table.n == n:
            planes = planes.copy()
            planes[slot] = value(planes)
        return planes, den
    monkeypatch.setattr(psh, "character_matrix", changed)


def _assert_fails(got, witness, oracle=None):
    """got fails with the given witness, and the oracle's report, if given,
    fails too."""
    assert got.witness == witness
    assert oracle is None or not oracle.passed


class TestCorruptedInputs:
    def test_negated_character_breaks_positivity(self, monkeypatch, fresh_caches, q2):
        # the oracle finds a negative constant; F.Ind fails first
        real_basis = psh_oracle.fourier_character_basis

        def negated_basis(table):
            chars = real_basis(table)
            return ((-chars[0],) + chars[1:]) if table.n == 1 else chars

        _characters_changed(monkeypatch, 1, np.s_[:, :, 0], lambda x: -x[:, :, 0])
        monkeypatch.setattr(psh_oracle, "fourier_character_basis", negated_basis)
        want = psh_oracle.verify_positivity(q2, 1, 1)
        assert want.witness.startswith("c^")
        _assert_fails(verify_positivity(q2, 1, 1),
                      "F.Ind != q^1 Ind.(FxF) at (0,1,1): 6 != -6", want)

    def test_negated_plane_breaks_induction_intertwining(self, monkeypatch, fresh_caches,
                                                          q3):
        # plane 1 of the degree-2 character of orbit 0, which induction reaches
        _characters_changed(monkeypatch, 2, np.s_[1, :, 0], lambda x: -x[1, :, 0])
        witness = "F.Ind != q^1 Ind.(FxF) at (1,0,1): -3 != 3"
        _assert_fails(verify_positivity(q3, 1, 1), witness)
        _assert_fails(verify_self_adjointness(q3, 1, 1), witness)
        with pytest.raises(ArithmeticError, match=re.escape(witness)):
            structure_constants(q3, 1, 1)

    def test_lowered_restriction_count_breaks_coproduct_positivity(
            self, monkeypatch, fresh_caches, q2):
        # the oracle finds a negative coproduct constant; Res.F fails first
        corrupt = _one_count_changed(hc.restriction_matrix, (1, 1), (0, 0), -8)
        monkeypatch.setattr(hc, "restriction_matrix", corrupt)
        monkeypatch.setattr(psh, "restriction_matrix", corrupt)
        want = psh_oracle.verify_positivity(q2, 1, 1)
        assert want.witness.startswith("coproduct c^")
        _assert_fails(verify_positivity(q2, 1, 1),
                      "Res.F != q^1 (FxF).Res at (0,0,0): 4 != -4", want)

    def test_changed_restriction_count_breaks_restriction_intertwining(
            self, monkeypatch, fresh_caches, q3):
        monkeypatch.setattr(psh, "restriction_matrix",
                            _one_count_changed(hc.restriction_matrix, (1, 1), (2, 1)))
        witness = "Res.F != q^1 (FxF).Res at (0,0,1): 6 != 7"
        _assert_fails(verify_positivity(q3, 1, 1), witness)
        _assert_fails(verify_self_adjointness(q3, 1, 1), witness)
        with pytest.raises(ArithmeticError, match=re.escape(witness)):
            coproduct_constants(q3, 1, 1)

    @pytest.mark.parametrize("n1,n2", [(1, 1), (1, 2)])
    def test_changed_induction_count_breaks_self_adjointness(
            self, monkeypatch, fresh_caches, q2, n1, n2):
        corrupt = _one_count_changed(hc.induction_matrix, (n1, n2))
        monkeypatch.setattr(hc, "induction_matrix", corrupt)
        monkeypatch.setattr(psh, "induction_matrix", corrupt)
        witness = {(1, 1): "F.Ind != q^1 Ind.(FxF) at (0,1,3): 8 != 6",
                   (1, 2): "F.Ind != q^2 Ind.(FxF) at (0,4,11): 80 != 56"}[n1, n2]
        _assert_fails(verify_self_adjointness(q2, n1, n2), witness,
                      psh_oracle.verify_self_adjointness(q2, n1, n2))

    def test_doubled_induction_breaks_only_self_adjointness(self, monkeypatch,
                                                            fresh_caches, q3):
        # 2 Ind still intertwines F, so the constants stay nonnegative, but
        # it is no longer the adjoint of Res
        def doubled(ctx, c):
            x, den = hc.induction_matrix(ctx, c)
            return (linalg.reduced(linalg.scaled(x, 2), den) if tuple(c) == (1, 1)
                    else (x, den))
        monkeypatch.setattr(psh, "induction_matrix", doubled)
        assert verify_positivity(q3, 1, 1).passed
        _assert_fails(verify_self_adjointness(q3, 1, 1), "(0,0,2): 9/2 != 9/4")

    def test_changed_induction_count_breaks_second_psh(self, monkeypatch,
                                                       fresh_caches, q2):
        # D is built from the changed induction; the oracle's transported
        # basis loses its norms, and F.D = D.F fails first
        monkeypatch.setattr(duality, "induction_matrix",
                            _one_count_changed(hc.induction_matrix, (1, 1)))
        _assert_fails(verify_second_psh(q2, 2), "F.D != D.F at (0,1,3): 3 != 2",
                      psh_oracle.verify_second_psh(q2, 2))

    def test_changed_duality_entry_breaks_fourier_commutation(self, monkeypatch,
                                                              fresh_caches, q3):
        real = psh.duality_operator

        def changed(n, ctx):
            op = real(n, ctx)
            x, den = op.matrix
            x = x.copy()
            x[1, 2] += 1
            return dataclasses.replace(op, matrix=linalg.reduced(x, den))
        monkeypatch.setattr(psh, "duality_operator", changed)
        _assert_fails(verify_second_psh(q3, 2), "F.D != D.F at (0,1,0): 0 != 4")

    def test_doubled_duality_breaks_the_transported_norms(self, monkeypatch,
                                                          fresh_caches, q3):
        # 2D commutes with F, but the transported basis has four times the norms
        real = psh.duality_operator

        def doubled(n, ctx):
            op = real(n, ctx)
            x, den = op.matrix
            return dataclasses.replace(op, matrix=linalg.reduced(linalg.scaled(x, 2), den))
        monkeypatch.setattr(psh, "duality_operator", doubled)
        _assert_fails(verify_second_psh(q3, 2), "(0,0): 81 != 81/4")

    def test_added_character_breaks_plancherel(self, monkeypatch, fresh_caches, q3):
        # chi_1 + chi_0 in place of chi_1: the Plancherel diagonal G_2 is read
        # off the orbit sizes and stays, but the Gram matrix leaves it
        _characters_changed(monkeypatch, 2, np.s_[:, :, 1], lambda x: x[:, :, 1] + x[:, :, 0])
        with pytest.raises(ArithmeticError, match=re.escape(
                "degree-2 character Gram matrix != Plancherel diagonal "
                "at (0,1): 81/4 != 0")):
            omega_basis(q3, 2)


class TestReadOnlyResults:
    def test_cached_results_cannot_be_written(self, q2):
        # each is shared by every later caller through an lru_cache
        holders = [(hopf.primitive_subspace(q2, 2), "members"),
                   (duality.duality_operator(2, q2), "matrix")]
        for holder, field in holders:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(holder, field, ())
        assert isinstance(hopf.primitive_subspace(q2, 2).members, tuple)
        for x, _ in (omega_basis(q2, 1), structure_constants(q2, 1, 1),
                     coproduct_constants(q2, 1, 1)):
            with pytest.raises(ValueError):
                x[0, 0] = -5
        assert verify_positivity(q2, 1, 1).passed


class TestTypedErrors:
    @pytest.mark.parametrize("value,witness", [
        (lambda x: x[:, :, 1] + x[:, :, 0],
         "degree-2 character Gram matrix != Plancherel diagonal at (0,1): 81/4 != 0"),
        (lambda x: np.roll(x[:, :, 1], 1, axis=0),  # chi_1 with its two planes swapped
         "degree-2 character Gram matrix: entry (0,1) is not rational")])
    def test_failed_plancherel_check_is_a_report(self, monkeypatch, fresh_caches, q3,
                                                 value, witness):
        # omega_basis raises; the report that rests on it fails instead
        _characters_changed(monkeypatch, 2, np.s_[:, :, 1], value)
        with pytest.raises(ArithmeticError):
            omega_basis(q3, 2)
        got = verify_second_psh(q3, 2)
        assert got.to_json() == {"name": "psh-second-structure",
                                 "params": {"q": "3", "n": "2"}, "passed": False,
                                 "witness": witness}

    def test_witness_raises_on_wrong_square(self, monkeypatch, q2):
        real = psh.multiply_functions
        monkeypatch.setattr(psh, "multiply_functions",
                            lambda a, b: real(a, b).scale(2))
        with pytest.raises(ArithmeticError):
            nondescending_witness(q2)
        # the check reports the error instead of raising it
        assert verify_nondescending(q2).witness == \
            "witness square 6 is not (q+1)/q, a non-square"

    def test_steinberg_reconstruction_raises(self, monkeypatch, fresh_caches, q2):
        # fresh_caches: a count cached by an earlier test would skip coords
        real = duality.coords

        def shifted(f, basis):
            cs = real(f, basis)
            return [cs[0] + 1] + cs[1:]
        monkeypatch.setattr(duality, "coords", shifted)
        with pytest.raises(ArithmeticError):
            duality.steinberg_constituents(2, q2)
