"""The graded bialgebra structure on the tower of invariant-function spaces:
product, coproduct, unit/counit, the inductively computed antipode, and the
primitive (pre-cuspidal) subspaces.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product

import numpy as np

from . import linalg
from .field import FqContext
from .hc import (hc_induce, hc_restrict, induction_matrix, mackey_rhs,
                 restriction_matrix)
from .invfun import (GradedElement, InvariantFunction, TensorFunction,
                     apply_operator)
from .orbits import enumerate_orbits, partitions
from .report import Report


def multiply_functions(a: InvariantFunction, b: InvariantFunction) -> InvariantFunction:
    return hc_induce(TensorFunction.outer([a, b]), (a.n, b.n))


def multiply(a: GradedElement, b: GradedElement) -> GradedElement:
    if a.ctx != b.ctx:
        raise ValueError("mixed contexts")
    out = GradedElement(a.ctx, {})
    for fa in a.components.values():
        for fb in b.components.values():
            out = out + GradedElement.homogeneous(multiply_functions(fa, fb))
    return out


@dataclass
class CoproductExpansion:
    """All components of m* on one homogeneous function, including the
    boundary splits (0, n) and (n, 0)."""

    n: int
    components: dict  # (k, l) -> TensorFunction

    def proper(self):
        return {kl: t for kl, t in self.components.items() if 0 not in kl}


def comultiply(f: InvariantFunction) -> CoproductExpansion:
    n = f.n
    comps = {(k, n - k): hc_restrict(f, (k, n - k)) for k in range(n + 1)}
    return CoproductExpansion(n, comps)


def counit(x: GradedElement):
    return x.component(0).values[0]


def unit(ctx, value) -> GradedElement:
    return GradedElement.scalar(ctx, value)


def is_primitive(f: InvariantFunction) -> bool:
    return all(t.is_zero() for t in comultiply(f).proper().values())


def verify_bialgebra(rho1: InvariantFunction, rho2: InvariantFunction) -> Report:
    """m*(m(rho1 x rho2)) = m*(rho1) . m*(rho2), checked split by split."""
    n = rho1.n + rho2.n
    prod = multiply_functions(rho1, rho2)
    params = {"n1": rho1.n, "n2": rho2.n, "q": rho1.table.ctx.q}
    for s in range(n + 1):
        if hc_restrict(prod, (s, n - s)) != mackey_rhs(rho1, rho2, s, n - s):
            return Report("bialgebra", params, f"split ({s},{n - s}) differs")
    return Report("bialgebra", params)


# ---------------------------------------------------------------------------
# primitive subspaces


@dataclass
class PrimitiveBasis:
    n: int
    members: list  # InvariantFunction, rational values, reduced echelon form

    @property
    def dimension(self):
        return len(self.members)


@lru_cache(maxsize=None)
def primitive_subspace(ctx: FqContext, n: int) -> PrimitiveBasis:
    """Kernel of every proper two-part restriction, in the indicator basis."""
    if n < 1:
        raise ValueError("primitive subspaces start in degree 1")
    table = enumerate_orbits(n, ctx)
    if n == 1:
        basis = linalg.identity(len(table))[0]
    else:
        basis = linalg.kernel(np.vstack([restriction_matrix(ctx, (k, n - k))[0]
                                         for k in range(1, n)]))
    reduced, _ = linalg.rref(basis)
    members = [InvariantFunction(table, vec) for vec in reduced if any(vec)]
    return PrimitiveBasis(n, members)


@lru_cache(maxsize=None)
def antipode_matrix(ctx: FqContext, n: int):
    """Antipode on degree n, in the indicator basis, as a (x, den) pair (see
    linalg), by the connected-graded recursion
    S(x) = -x - sum over proper splits of m(S x' (x) x'')."""
    if n == 0:
        return linalg.identity(1)
    terms = [linalg.identity(len(enumerate_orbits(n, ctx)))]
    for k in range(1, n):
        l = n - k
        # (S_k tensor I_l) on the flattened tensor index
        skron = linalg.kron(antipode_matrix(ctx, k),
                            linalg.identity(len(enumerate_orbits(l, ctx))))
        terms.append(linalg.matmul(induction_matrix(ctx, (k, l)), linalg.matmul(
            skron, restriction_matrix(ctx, (k, l)))))
    return linalg.add(*((-x, den) for x, den in terms))


def antipode_function(f: InvariantFunction) -> InvariantFunction:
    return apply_operator(antipode_matrix(f.table.ctx, f.n),
                          TensorFunction.outer([f]), 0, 1, (f.table,)).as_function()


def antipode(x: GradedElement) -> GradedElement:
    return GradedElement(x.ctx, {n: antipode_function(f)
                                 for n, f in x.components.items()})


# ---------------------------------------------------------------------------
# spanning by induced products of primitives


def precuspidal_spanning_rank(ctx: FqContext, n: int):
    """(rank of the span of induced products of primitive elements, dim C_n)."""
    dim = len(enumerate_orbits(n, ctx))
    vectors, rank = [], 0
    for lam in sorted(partitions(n), reverse=True):
        bases = [primitive_subspace(ctx, m).members for m in lam]
        vectors.extend(hc_induce(TensorFunction.outer(choice), lam).rational_values()
                       for choice in product(*bases))
        rank = linalg.rank(vectors) if vectors else 0
        if rank == dim:
            break
    return (rank, dim)


def hilbert_series_check(ctx: FqContext, max_n: int) -> Report:
    """prod_k (1 - t^k)^(-dim p_k) must match sum_n (dim C_n) t^n."""
    prim_dims = {k: primitive_subspace(ctx, k).dimension for k in range(1, max_n + 1)}
    series = [Fraction(1)] + [Fraction(0)] * max_n
    for k, d in prim_dims.items():
        # multiply by (1 - t^k)^(-d) = product of d geometric series
        for _ in range(d):
            for i in range(k, max_n + 1):
                series[i] += series[i - k]
    expected = [len(enumerate_orbits(m, ctx)) for m in range(max_n + 1)]
    got = [int(series[m]) for m in range(max_n + 1)]
    return Report("hilbert-series", {"q": ctx.q, "max_n": max_n,
                                     "primitive_dims": prim_dims},
                  None if got == expected else f"{got} != {expected}")
