"""Positive self-adjoint Hopf-algebra structure over the real numbers:
the orthogonal character basis, nonnegative structure constants,
self-adjointness, and the irrational structure constant witnessing that no
rescaling descends to the rational numbers.  Each is a few exact matrix
products over Q(zeta_p) (see linalg).  The checks' reports hold their
params as strings.
"""
from __future__ import annotations

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


@dataclass
class OmegaBasis:
    """The orthogonal character basis of C_n together with its squared norms.
    The unit-length basis vectors are chi_i / sqrt(norms[i])."""

    n: int
    characters: tuple
    norms: tuple  # squared norms, positive rationals


def _pairing(a, b, *tables):
    """The rational matrix a . W . b^* of inner products between the rows of
    a and of b (pairs over Q(zeta_p)), as nested lists of Fractions, where
    W = W_n1 x ... x W_nk over the given tables and W_n = diag(|O|) / |G_n|
    is the Gram matrix of the orbit indicators.  An entry is rational iff its
    planes 1..p-2 are zero, and then equals plane0 / den; otherwise
    NotRationalError names the first offending entry in row-major order."""
    sizes, order = _weights(tables)
    x, d = a
    x, d = linalg.matmul((x * sizes.T, d * order), linalg.conj_t(b))
    bad = np.argwhere(x[1:].any(axis=0))
    if len(bad):
        i, j = (int(v) for v in bad[0])
        raise NotRationalError(f"entry ({i},{j}) is not rational")
    return [[Fraction(int(v), d) for v in row] for row in x[0]]


def _first_difference(lhs, rhs, index=()):
    """Witness text for the first entry, in row-major order, at which two
    nested lists of rationals differ; None if they are equal."""
    if not isinstance(lhs, list):
        return None if lhs == rhs else f"({','.join(map(str, index))}): {lhs} != {rhs}"
    return next(filter(None, (_first_difference(a, b, index + (r,))
                              for r, (a, b) in enumerate(zip(lhs, rhs)))), None)


@lru_cache(maxsize=None)
def omega_basis(ctx: FqContext, n: int) -> OmegaBasis:
    table = enumerate_orbits(n, ctx)
    gram = _pairing(character_matrix(table), character_matrix(table), table)
    norms = tuple(gram[i][i] for i in range(len(table)))
    if any(x <= 0 for x in norms):
        raise ArithmeticError("character basis must have positive norms")
    return OmegaBasis(n, fourier_character_basis(table), norms)


@lru_cache(maxsize=None)
def _pairings(ctx: FqContext, n1: int, n2: int):
    """Two independently computed rational arrays p[i][j][k], the rows (i, j)
    of two matrix products unflattened:
    (m(chi_i x chi_j), chi_k) = (X_n1 x X_n2) . Ind^T . W_n . X_n^*, and
    (chi_i x chi_j, m* chi_k) = (X_n1 x X_n2) . (W_n1 x W_n2) . Res . X_n^*."""
    t1, t2, t3 = (enumerate_orbits(n, ctx) for n in (n1, n2, n1 + n2))
    outer = linalg.kron(character_matrix(t1), character_matrix(t2))
    ind_t = linalg.conj_t(induction_matrix(ctx, (n1, n2)))
    res_t = linalg.conj_t(restriction_matrix(ctx, (n1, n2)))
    pairings = (_pairing(linalg.matmul(outer, ind_t), character_matrix(t3), t3),
                _pairing(outer, linalg.matmul(character_matrix(t3), res_t), t1, t2))
    return tuple([m[r:r + len(t2)] for r in range(0, len(m), len(t2))]
                 for m in pairings)


@lru_cache(maxsize=None)
def structure_constants(ctx: FqContext, n1: int, n2: int, basis: str = "character"):
    """c[i][j][k] with m(chi_i x chi_j) = sum_k c^k_ij chi_k (basis="character",
    exact rationals), or the same constants for the unit-normalized basis
    (basis="omega", values SqrtRational)."""
    if basis not in ("character", "omega"):
        raise ValueError("basis must be 'character' or 'omega'")
    norms1, norms2, norms3 = (omega_basis(ctx, n).norms for n in (n1, n2, n1 + n2))
    cs = [[[c / n3 for c, n3 in zip(entry, norms3)] for entry in row]
          for row in _pairings(ctx, n1, n2)[0]]
    if basis == "omega":
        cs = [[[SqrtRational((c > 0) - (c < 0), c * c * n3 / (norms1[i] * norms2[j]))
                for c, n3 in zip(entry, norms3)] for j, entry in enumerate(row)]
              for i, row in enumerate(cs)]
    return cs


def coproduct_constants(ctx: FqContext, n1: int, n2: int):
    """c[k][i][j] with m*(chi_k) = sum_ij c^ij_k chi_i x chi_j on the (n1, n2)
    component, exact rationals."""
    norms1, norms2 = omega_basis(ctx, n1).norms, omega_basis(ctx, n2).norms
    cop = _pairings(ctx, n1, n2)[1]
    return [[[cop[i][j][k] / (ni * nj) for j, nj in enumerate(norms2)]
             for i, ni in enumerate(norms1)] for k in range(len(cop[0][0]))]


def verify_positivity(ctx: FqContext, n1: int, n2: int) -> Report:
    """Every product and coproduct structure constant in the character basis
    is >= 0."""
    cs = structure_constants(ctx, n1, n2, "character")
    negative = [f"c^{k}_{i},{j} = {c} < 0" for i, row in enumerate(cs)
                for j, entry in enumerate(row) for k, c in enumerate(entry) if c < 0]
    if not negative:
        negative = [f"coproduct c^{i},{j}_{k} = {c} < 0"
                    for k, entry in enumerate(coproduct_constants(ctx, n1, n2))
                    for i, row in enumerate(entry) for j, c in enumerate(row) if c < 0]
    return Report("psh-positivity", {"q": str(ctx.q), "n1": str(n1), "n2": str(n2)},
                  negative[0] if negative else None)


def verify_self_adjointness(ctx: FqContext, n1: int, n2: int) -> Report:
    """(m(chi_i x chi_j), chi_k) = (chi_i x chi_j, m* chi_k), exactly, on all
    character-basis triples."""
    return Report("psh-self-adjoint", {"q": str(ctx.q), "n1": str(n1), "n2": str(n2)},
                  _first_difference(*_pairings(ctx, n1, n2)))


def nondescending_witness(ctx: FqContext) -> SqrtRational:
    """The structure constant (m(f x f), h) for the unit-normalized constant
    functions f in degree 1 and h in degree 2.  Its square is (q+1)/q, which is
    never a rational square, so no rescaled integral form exists."""
    one1 = constant_one(enumerate_orbits(1, ctx))
    one2 = constant_one(enumerate_orbits(2, ctx))
    c = inner_product_rational(multiply_functions(one1, one1), one2)
    n1 = inner_product_rational(one1, one1)
    n2 = inner_product_rational(one2, one2)
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
    norms = omega_basis(ctx, n).norms
    dual = linalg.matmul(character_matrix(table),
                         linalg.conj_t(duality_operator(n, ctx).matrix))
    want = [[x if i == j else Fraction(0) for j in range(len(norms))] for i, x in enumerate(norms)]
    witness = _first_difference(_pairing(dual, dual, table), want)
    if witness is None and n == 2 and steinberg_constituents(2, ctx) < 2:
        witness = "transported basis does not differ in degree 2"
    return Report("psh-second-structure", {"q": str(ctx.q), "n": str(n)}, witness)
