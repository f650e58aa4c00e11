"""Positive self-adjoint Hopf-algebra structure over the real numbers:
the orthogonal character basis, nonnegative structure constants,
self-adjointness, and the irrational structure constant witnessing that no
rescaling descends to the rational numbers.  Each is a few exact matrix
products on (x, den) pairs (see linalg); the reports hold params as strings.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import linalg
from .duality import duality_operator, steinberg_constituents
from .field import FqContext, NotRationalError, SqrtRational, rational_is_square
from .hc import hc_restrict  # noqa: F401  (a binding the perfbench tracer checks)
from .hc import induction_matrix, restriction_matrix
from .hopf import multiply_functions
from .invfun import (_weights, character_matrix, constant_one,
                     fourier_character_basis, inner_product_rational)
from .orbits import enumerate_orbits
from .report import Report


@dataclass(frozen=True)
class OmegaBasis:
    """The orthogonal character basis of C_n together with its squared norms.
    The unit-length basis vectors are chi_i / sqrt(norms[i])."""

    n: int
    characters: tuple
    norms: tuple  # squared norms, positive rationals


def _pairing(a, b, *tables):
    """The rational pair a . W . b^* of inner products between the rows of a
    and of b (pairs over Q(zeta_p)), W = W_n1 x ... x W_nk over the tables
    and W_n = diag(|O|) / |G_n| the Gram matrix of the orbit indicators.  An
    entry is rational iff its planes 1..p-2 are zero; otherwise
    NotRationalError names the first offending entry in row-major order."""
    sizes, order = _weights(tables)
    x, d = a
    x, d = linalg.matmul((x * sizes.T, d * order), linalg.conj_t(b))
    bad = np.argwhere(x[1:].any(axis=0))
    if len(bad):
        i, j = (int(v) for v in bad[0])
        raise NotRationalError(f"entry ({i},{j}) is not rational")
    return linalg.reduced(x[0], d)


def _first_difference(a, b):
    """Witness text for the first entry, in row-major order, at which two
    rational pairs of one shape differ; None if they are equal."""
    (x, dx), (y, dy) = a, b
    bad = np.argwhere(linalg.scaled(x, dy) != linalg.scaled(y, dx))
    if len(bad):
        index = tuple(bad[0])
        return (f"({','.join(map(str, index))}): "
                f"{Fraction(int(x[index]), dx)} != {Fraction(int(y[index]), dy)}")


@lru_cache(maxsize=None)
def omega_basis(ctx: FqContext, n: int) -> OmegaBasis:
    table = enumerate_orbits(n, ctx)
    x, d = _pairing(character_matrix(table), character_matrix(table), table)
    if (np.diagonal(x) <= 0).any():
        raise ArithmeticError("character basis must have positive norms")
    return OmegaBasis(n, fourier_character_basis(table),
                      tuple(Fraction(int(v), d) for v in np.diagonal(x)))


@lru_cache(maxsize=None)
def _inverse_norms(ctx: FqContext, n: int):
    """The pair diag(1 / |chi_k|^2) over the characters of degree n."""
    norms = omega_basis(ctx, n).norms
    den = math.lcm(*(c.numerator for c in norms))
    return linalg.reduced(np.diag(np.array(
        [den // c.numerator * c.denominator for c in norms], dtype=object)), den)


@lru_cache(maxsize=None)
def _pairings(ctx: FqContext, n1: int, n2: int):
    """Two independently computed rational pairs, rows (i, j) in product
    order and columns k, as restriction_matrix((n1, n2)) lays out its rows:
    (m(chi_i x chi_j), chi_k) = (X_n1 x X_n2) . Ind^T . W_n . X_n^*, and
    (chi_i x chi_j, m* chi_k) = (X_n1 x X_n2) . (W_n1 x W_n2) . Res . X_n^*."""
    t1, t2, t3 = (enumerate_orbits(n, ctx) for n in (n1, n2, n1 + n2))
    outer = linalg.kron(character_matrix(t1), character_matrix(t2))
    ind_t = linalg.conj_t(induction_matrix(ctx, (n1, n2)))
    res_t = linalg.conj_t(restriction_matrix(ctx, (n1, n2)))
    return (_pairing(linalg.matmul(outer, ind_t), character_matrix(t3), t3),
            _pairing(outer, linalg.matmul(character_matrix(t3), res_t), t1, t2))


def _triples(ctx: FqContext, n1: int, pair, axes=(0, 1, 2)):
    """A pair with rows (i, j) in product order, its x indexed (i, j, k) and
    the axes then put in the order `axes`."""
    x, d = pair
    return x.reshape(len(enumerate_orbits(n1, ctx)), -1, x.shape[1]).transpose(axes), d


@lru_cache(maxsize=None)
def structure_constants(ctx: FqContext, n1: int, n2: int):
    """m(chi_i x chi_j) = sum_k c^k_ij chi_k in the character basis, as a
    read-only rational pair with rows (i, j) in product order, columns k."""
    return linalg.matmul(_pairings(ctx, n1, n2)[0], _inverse_norms(ctx, n1 + n2))


def coproduct_constants(ctx: FqContext, n1: int, n2: int):
    """m*(chi_k) = sum_ij c^ij_k chi_i x chi_j on the (n1, n2) component, as
    a read-only rational pair with rows (i, j) in product order, columns k:
    the coproduct pairing scaled by 1 / |chi_i|^2 |chi_j|^2 on row (i, j)."""
    return linalg.matmul(linalg.kron(_inverse_norms(ctx, n1), _inverse_norms(ctx, n2)),
                         _pairings(ctx, n1, n2)[1])


def verify_positivity(ctx: FqContext, n1: int, n2: int) -> Report:
    """Every product and coproduct structure constant in the character basis
    is >= 0; the product constants are scanned in (i, j, k) order, the
    coproduct ones in (k, i, j) order."""
    witness = None
    for form, constants, axes in (("c^{2}_{0},{1}", structure_constants, (0, 1, 2)),
                                  ("coproduct c^{1},{2}_{0}", coproduct_constants,
                                   (2, 0, 1))):
        x, d = _triples(ctx, n1, constants(ctx, n1, n2), axes)
        negative = np.argwhere(x < 0)
        if len(negative):
            index = tuple(negative[0])
            witness = f"{form.format(*index)} = {Fraction(int(x[index]), d)} < 0"
            break
    return Report("psh-positivity", {"q": str(ctx.q), "n1": str(n1), "n2": str(n2)}, witness)


def verify_self_adjointness(ctx: FqContext, n1: int, n2: int) -> Report:
    """(m(chi_i x chi_j), chi_k) = (chi_i x chi_j, m* chi_k), exactly, on all
    character-basis triples."""
    return Report("psh-self-adjoint", {"q": str(ctx.q), "n1": str(n1), "n2": str(n2)},
                  _first_difference(*(_triples(ctx, n1, p) for p in _pairings(ctx, n1, n2))))


def nondescending_witness(ctx: FqContext) -> SqrtRational:
    """The structure constant (m(f x f), h) for the unit-normalized constant
    functions f in degree 1 and h in degree 2.  Its square is (q+1)/q, which is
    never a rational square, so no rescaled integral form exists."""
    one1 = constant_one(enumerate_orbits(1, ctx))
    one2 = constant_one(enumerate_orbits(2, ctx))
    c = inner_product_rational(multiply_functions(one1, one1), one2)
    n1, n2 = (inner_product_rational(f, f) for f in (one1, one2))
    square = c * c / (n1 * n1 * n2)
    if square != Fraction(ctx.q + 1, ctx.q) or rational_is_square(square):
        raise ArithmeticError(f"witness square {square} is not (q+1)/q, a non-square")
    return SqrtRational(1, square)


def verify_nondescending(ctx: FqContext) -> Report:
    """The witness exists; a wrong square is reported with its text."""
    try:
        nondescending_witness(ctx)
    except ArithmeticError as e:
        return Report("psh-nondescending", {"q": str(ctx.q)}, str(e))
    return Report("psh-nondescending", {"q": str(ctx.q)})


def verify_second_psh(ctx: FqContext, n: int) -> Report:
    """The basis transported by x -> (-1)^n D_n(x), the rows of +-X_n . D^T,
    is again orthogonal with the same norms, and in degree 2 it genuinely
    differs from the original basis."""
    table = enumerate_orbits(n, ctx)
    chars = character_matrix(table)
    dual = linalg.matmul(chars, linalg.conj_t(duality_operator(n, ctx).matrix))
    x, d = _pairing(chars, chars, table)  # the Gram pair of the characters
    witness = _first_difference(_pairing(dual, dual, table), (np.diag(np.diagonal(x)), d))
    if witness is None and n == 2 and steinberg_constituents(2, ctx) < 2:
        witness = "transported basis does not differ in degree 2"
    return Report("psh-second-structure", {"q": str(ctx.q), "n": str(n)}, witness)
