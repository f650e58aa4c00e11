"""Positive self-adjoint Hopf-algebra structure over the real numbers in the
character basis chi_O = F(1_O), (F f)(x) = sum_a f(a) psi(tr(a x)): the
intertwinings F.Ind = q^(n1 n2) Ind.(F x F) and Res.F = q^(n1 n2) (F x F).Res
make the structure constants the Harish-Chandra counts, and Plancherel gives
the norms q^(n^2) |O| / |G_n|.  F is invfun.character_matrix itself, the
matrix F[x, O] = chi_O(x), and the Plancherel check is F* W F with W the Gram
weights of invfun._weights.  Each report checks on the characters the
identities it rests on.  Exact on (x, den) pairs (see linalg).
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import linalg
from .duality import duality_operator, steinberg_constituents
from .field import FqContext, rational_is_square
from .hc import hc_restrict  # noqa: F401  (a binding the perfbench tracer checks)
from .hc import induction_matrix, restriction_matrix
from .hopf import multiply_functions
from .invfun import _weights, character_matrix, constant_one, inner_product_rational
from .orbits import enumerate_orbits
from .report import Report


def _first_difference(a, b):
    """Witness text for the first entry at which two pairs differ, or None."""
    (x, dx), (y, dy) = a, b
    bad = np.argwhere(linalg.scaled(x, dy) != linalg.scaled(y, dx))
    if len(bad):
        index = tuple(bad[0])
        return (f"({','.join(map(str, index))}): "
                f"{Fraction(int(x[index]), dx)} != {Fraction(int(y[index]), dy)}")


def _require_equal(name, a, b):
    """ArithmeticError with name and the first difference unless a == b."""
    witness = _first_difference(a, b)
    if witness:
        raise ArithmeticError(f"{name} at {witness}")


def _multiple(c: int, pair):
    """The pair c . pair for an integer c."""
    return linalg.reduced(linalg.scaled(pair[0], c), pair[1])


@lru_cache(maxsize=None)
def omega_basis(ctx: FqContext, n: int):
    """G_n = diag(q^(n^2) |O| / |G_n|), the Gram matrix of the degree-n
    characters, as a read-only rational pair (see linalg), once F* W F equals
    it (else ArithmeticError): the characters are fourier_character_basis of
    the degree-n table, their squared norms the diagonal.  Entry (O, O') of
    F* W F is the conjugate of (chi_O, chi_O'), so (the Gram matrix being
    Hermitian) its first irrational entry or difference in row-major order
    is the Gram matrix's own."""
    f, (w, order) = _fourier(ctx, n), _weights((enumerate_orbits(n, ctx),))
    x, d = linalg.matmul(linalg.conj_t(f), (f[0] * w, f[1] * order))
    bad = np.argwhere(x[1:].any(axis=0))
    if len(bad):
        i, j = bad[0]
        raise ArithmeticError(f"degree-{n} character Gram matrix: entry ({i},{j}) is not rational")
    gram = linalg.reduced(np.diag(w[:, 0] * ctx.q ** (n * n)), order)
    _require_equal(f"degree-{n} character Gram matrix != Plancherel diagonal",
                   linalg.reduced(x[0], d), gram)
    return gram


def _fourier(ctx: FqContext, n: int):
    """F over Q(zeta_p) on the orbit values of degree n, F[x, O] = chi_O(x)."""
    return character_matrix(enumerate_orbits(n, ctx))


@lru_cache(maxsize=None)
def _intertwining(ctx: FqContext, n1: int, n2: int) -> int:
    """q^(n1 n2), once F.Ind = q^(n1 n2) Ind.(F x F) and Res.F = q^(n1 n2)
    (F x F).Res hold on the split (else ArithmeticError)."""
    f, ff = _fourier(ctx, n1 + n2), linalg.kron(_fourier(ctx, n1), _fourier(ctx, n2))
    ind, res = induction_matrix(ctx, (n1, n2)), restriction_matrix(ctx, (n1, n2))
    e = n1 * n2
    _require_equal(f"F.Ind != q^{e} Ind.(FxF)", linalg.matmul(f, ind),
                   _multiple(ctx.q ** e, linalg.matmul(ind, ff)))
    _require_equal(f"Res.F != q^{e} (FxF).Res", linalg.matmul(res, f),
                   _multiple(ctx.q ** e, linalg.matmul(ff, res)))
    return ctx.q ** e


def _triples(ctx: FqContext, n1: int, pair, axes=(0, 1, 2)):
    """A pair with rows (i, j), its x indexed (i, j, k) and then put in `axes` order."""
    x, d = pair
    return x.reshape(len(enumerate_orbits(n1, ctx)), -1, x.shape[1]).transpose(axes), d


@lru_cache(maxsize=None)
def structure_constants(ctx: FqContext, n1: int, n2: int):
    """m(chi_i x chi_j) = sum_k c^k_ij chi_k: Ind^T / q^(n1 n2), a read-only
    rational pair with rows (i, j) in product order, columns k."""
    c = _intertwining(ctx, n1, n2)
    x, d = linalg.conj_t(induction_matrix(ctx, (n1, n2)))
    return linalg.reduced(x, d * c)


def coproduct_constants(ctx: FqContext, n1: int, n2: int):
    """m*(chi_k) = sum_ij c^ij_k chi_i x chi_j on the (n1, n2) component:
    q^(n1 n2) Res, a read-only rational pair laid out as structure_constants."""
    return _multiple(_intertwining(ctx, n1, n2), restriction_matrix(ctx, (n1, n2)))


def verify_positivity(ctx: FqContext, n1: int, n2: int) -> Report:
    """The intertwining holds, and every product (scanned in (i, j, k) order)
    and coproduct (in (k, i, j) order) structure constant is >= 0."""
    witness = None
    try:
        for form, constants, axes in (("c^{2}_{0},{1}", structure_constants, (0, 1, 2)),
                                      ("coproduct c^{1},{2}_{0}", coproduct_constants,
                                       (2, 0, 1))):
            x, d = _triples(ctx, n1, constants(ctx, n1, n2), axes)
            negative = np.argwhere(x < 0)
            if len(negative):
                index = tuple(negative[0])
                witness = f"{form.format(*index)} = {Fraction(int(x[index]), d)} < 0"
                break
    except ArithmeticError as e:
        witness = str(e)
    return Report("psh-positivity", {"q": str(ctx.q), "n1": str(n1), "n2": str(n2)}, witness)


def verify_self_adjointness(ctx: FqContext, n1: int, n2: int) -> Report:
    """(m(chi_i x chi_j), chi_k) = (chi_i x chi_j, m* chi_k), exactly, on all
    character-basis triples: struct . G_n = (G_n1 x G_n2) . coprod, which in
    the character basis is the adjunction Ind^T W_n = W_L Res."""
    try:
        struct, coprod = structure_constants(ctx, n1, n2), coproduct_constants(ctx, n1, n2)
        g1, g2, g = (omega_basis(ctx, n) for n in (n1, n2, n1 + n2))
        lhs, rhs = linalg.matmul(struct, g), linalg.matmul(linalg.kron(g1, g2), coprod)
        witness = _first_difference(_triples(ctx, n1, lhs), _triples(ctx, n1, rhs))
    except ArithmeticError as e:
        witness = str(e)
    return Report("psh-self-adjoint", {"q": str(ctx.q), "n1": str(n1), "n2": str(n2)}, witness)


def nondescending_witness(ctx: FqContext) -> Fraction:
    """The square of the structure constant (m(f x f), h) for the
    unit-normalized constant functions f in degree 1 and h in degree 2, a
    positive number.  The square is (q+1)/q, checked, which is never a
    rational square, so no rescaled integral form exists."""
    one1 = constant_one(enumerate_orbits(1, ctx))
    one2 = constant_one(enumerate_orbits(2, ctx))
    c = inner_product_rational(multiply_functions(one1, one1), one2)
    n1, n2 = (inner_product_rational(f, f) for f in (one1, one2))
    square = c * c / (n1 * n1 * n2)
    if square != Fraction(ctx.q + 1, ctx.q) or rational_is_square(square):
        raise ArithmeticError(f"witness square {square} is not (q+1)/q, a non-square")
    return square


def verify_nondescending(ctx: FqContext) -> Report:
    """The witness exists; a wrong square is reported with its text."""
    try:
        nondescending_witness(ctx)
    except ArithmeticError as e:
        return Report("psh-nondescending", {"q": str(ctx.q)}, str(e))
    return Report("psh-nondescending", {"q": str(ctx.q)})


def verify_second_psh(ctx: FqContext, n: int) -> Report:
    """The basis transported by x -> (-1)^n D_n(x) has the same norms and is
    orthogonal: with F.D = D.F its Gram matrix is D^T G_n D, which must be
    G_n.  In degree 2 it genuinely differs from the original basis."""
    d, f = duality_operator(n, ctx).matrix, _fourier(ctx, n)
    try:
        g = omega_basis(ctx, n)
        _require_equal("F.D != D.F", linalg.matmul(f, d), linalg.matmul(d, f))
        witness = _first_difference(linalg.matmul(linalg.conj_t(d), linalg.matmul(g, d)), g)
    except ArithmeticError as e:
        witness = str(e)
    if witness is None and n == 2 and steinberg_constituents(2, ctx) < 2:
        witness = "transported basis does not differ in degree 2"
    return Report("psh-second-structure", {"q": str(ctx.q), "n": str(n)}, witness)
