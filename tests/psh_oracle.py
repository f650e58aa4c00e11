"""Scalar reference for glnq.psh: the structure constants and PSH checks
computed one inner product at a time, from InvariantFunction values.

This is the slow path the matrix computation in glnq.psh replaced; the tests
use it as the witness that both give the same constants, norms and reports.
Nothing here is cached, so a monkeypatched input reaches every call.
"""
import math
from fractions import Fraction

import numpy as np

from glnq import linalg
from glnq.duality import duality_operator, steinberg_constituents
from glnq.field import FqContext
from glnq.hc import hc_restrict
from glnq.hopf import multiply_functions
from glnq.invfun import (TensorFunction, fourier_character_basis,
                         inner_product_rational, tensor_inner_product)
from glnq.orbits import enumerate_orbits
from glnq.report import Report


def _report(name, params, witness=None) -> Report:
    """The psh suite's report form: params and witness as strings."""
    return Report(name, {k: str(v) for k, v in params.items()},
                  None if witness is None else str(witness))


def characters(ctx: FqContext, n: int):
    return fourier_character_basis(enumerate_orbits(n, ctx))


def norms(ctx: FqContext, n: int):
    return tuple(inner_product_rational(b, b) for b in characters(ctx, n))


def as_pair(constants):
    """Nested lists of rationals as the (x, den) pair in lowest terms that
    glnq.psh returns."""
    x = np.array(constants, dtype=object)
    den = math.lcm(*(c.denominator for c in x.flat))
    return linalg.reduced(np.frompyfunc(int, 1, 1)(x * den), den)


def structure_constants(ctx: FqContext, n1: int, n2: int, basis: str = "character"):
    """c[i][j][k] in the character basis, or with basis="omega" the same
    constants for the unit-normalized basis, each as the pair (sign, square)
    of the real number sign * sqrt(square)."""
    chars1, chars2, chars3 = (characters(ctx, n) for n in (n1, n2, n1 + n2))
    norms1, norms2, norms3 = (norms(ctx, n) for n in (n1, n2, n1 + n2))
    out = []
    for i, ci in enumerate(chars1):
        row = []
        for j, cj in enumerate(chars2):
            prod = multiply_functions(ci, cj)
            entry = []
            for k, ck in enumerate(chars3):
                c = inner_product_rational(prod, ck) / norms3[k]
                if basis == "character":
                    entry.append(c)
                else:
                    entry.append(((c > 0) - (c < 0),
                                  c * c * norms3[k] / (norms1[i] * norms2[j])))
            row.append(entry)
        out.append(row)
    return out


def coproduct_constants(ctx: FqContext, n1: int, n2: int):
    """c[k][i][j] = (m* chi_k, chi_i x chi_j) / (|chi_i|^2 |chi_j|^2)."""
    chars1, chars2, chars3 = (characters(ctx, n) for n in (n1, n2, n1 + n2))
    norms1, norms2 = norms(ctx, n1), norms(ctx, n2)
    out = []
    for ck in chars3:
        res = hc_restrict(ck, (n1, n2))
        out.append([[tensor_inner_product(res, TensorFunction.outer([ci, cj])).as_rational()
                     / (norms1[i] * norms2[j]) for j, cj in enumerate(chars2)]
                    for i, ci in enumerate(chars1)])
    return out


def verify_positivity(ctx: FqContext, n1: int, n2: int) -> Report:
    cs = structure_constants(ctx, n1, n2, "character")
    for i, row in enumerate(cs):
        for j, entry in enumerate(row):
            for k, c in enumerate(entry):
                if c < 0:
                    return _report("psh-positivity", {"q": ctx.q, "n1": n1, "n2": n2},
                                   f"c^{k}_{i},{j} = {c} < 0")
    for k, entry in enumerate(coproduct_constants(ctx, n1, n2)):
        for i, row in enumerate(entry):
            for j, c in enumerate(row):
                if c < 0:
                    return _report("psh-positivity", {"q": ctx.q, "n1": n1, "n2": n2},
                                   f"coproduct c^{i},{j}_{k} = {c} < 0")
    return _report("psh-positivity", {"q": ctx.q, "n1": n1, "n2": n2})


def verify_self_adjointness(ctx: FqContext, n1: int, n2: int) -> Report:
    chars1, chars2, chars3 = (characters(ctx, n) for n in (n1, n2, n1 + n2))
    restrictions = [hc_restrict(ck, (n1, n2)) for ck in chars3]
    for i, ci in enumerate(chars1):
        for j, cj in enumerate(chars2):
            outer = TensorFunction.outer([ci, cj])
            prod = multiply_functions(ci, cj)
            for k, ck in enumerate(chars3):
                lhs = inner_product_rational(prod, ck)
                rhs = tensor_inner_product(outer, restrictions[k]).as_rational()
                if lhs != rhs:
                    return _report("psh-self-adjoint",
                                   {"q": ctx.q, "n1": n1, "n2": n2},
                                   f"({i},{j},{k}): {lhs} != {rhs}")
    return _report("psh-self-adjoint", {"q": ctx.q, "n1": n1, "n2": n2})


def dual_omega_basis(ctx: FqContext, n: int):
    """Image of the character basis under the graded antipode-induced
    isometry x -> (-1)^n D_n(x)."""
    d = duality_operator(n, ctx)
    sign = Fraction((-1) ** n)
    return tuple(d.apply(b).scale(sign) for b in characters(ctx, n))


def verify_second_psh(ctx: FqContext, n: int) -> Report:
    base_norms = norms(ctx, n)
    dual = dual_omega_basis(ctx, n)
    for i, bi in enumerate(dual):
        for j, bj in enumerate(dual):
            ip = inner_product_rational(bi, bj)
            want = base_norms[i] if i == j else Fraction(0)
            if ip != want:
                return _report("psh-second-structure", {"q": ctx.q, "n": n},
                               f"({i},{j}): {ip} != {want}")
    if n == 2 and steinberg_constituents(2, ctx) < 2:
        return _report("psh-second-structure", {"q": ctx.q, "n": n},
                       "transported basis does not differ in degree 2")
    return _report("psh-second-structure", {"q": ctx.q, "n": n})
