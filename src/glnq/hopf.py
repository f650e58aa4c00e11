"""The graded bialgebra structure on the tower of invariant-function spaces:
product, coproduct, unit/counit, the inductively computed antipode, and the
primitive (pre-cuspidal) subspaces.

The bialgebra check, like hc.verify_mackey, takes two sequences of test
functions: their products are induced as one block, restricted along every
(s, n - s) and compared with mackey_rhs, one Report per pair.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from . import linalg
from .field import FqContext
from .hc import (_mackey_sides, _pair_context, hc_induce, hc_restrict,
                 induction_matrix, restriction_matrix)
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


def verify_bialgebra(rhos1, rhos2) -> list:
    """m*(m(rho1 x rho2)) = m*(rho1) . m*(rho2) on every pair of test
    functions, split by split, one Report per pair, rho1 outer and rho2
    inner: the product block is induced once and restricted along every
    (s, n - s), and a pair's witness names its first differing split."""
    rhos1, rhos2 = tuple(rhos1), tuple(rhos2)
    ctx, n1, n2 = _pair_context(rhos1, rhos2)
    n = n1 + n2
    witnesses = [None] * (len(rhos1) * len(rhos2))
    for s, pairs in enumerate(_mackey_sides(rhos1, rhos2, [(s, n - s) for s in range(n + 1)])):
        for i, (lhs, rhs) in enumerate(pairs):
            if witnesses[i] is None and lhs != rhs:
                witnesses[i] = f"split ({s},{n - s}) differs"
    return [Report("bialgebra", {"n1": n1, "n2": n2, "q": ctx.q}, w)
            for w in witnesses]


# ---------------------------------------------------------------------------
# primitive subspaces


@dataclass(frozen=True)
class PrimitiveBasis:
    n: int
    members: tuple  # InvariantFunction, one per row of matrix
    matrix: tuple  # (x, den) in reduced echelon form, rows in the indicator basis

    @property
    def dimension(self):
        return len(self.members)


@lru_cache(maxsize=None)
def primitive_subspace(ctx: FqContext, n: int) -> PrimitiveBasis:
    """Kernel of every proper two-part restriction, in the indicator basis."""
    if n < 1:
        raise ValueError("primitive subspaces start in degree 1")
    table = enumerate_orbits(n, ctx)
    # no restriction in degree 1, where every function is primitive; scaling
    # a row of the stack leaves its kernel, so the dens are dropped
    stack = np.vstack([np.zeros((0, len(table)), dtype=np.int64)]
                      + [restriction_matrix(ctx, (k, n - k))[0] for k in range(1, n)])
    (x, den), _ = linalg.rref(linalg.kernel((stack, 1)))
    unit = np.eye(ctx.p - 1, 1, dtype=x.dtype)  # rational values: the coordinate of 1 only
    members = tuple(InvariantFunction._from_array((table,), unit * row, den) for row in x)
    return PrimitiveBasis(n, members, (x, den))


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
    return linalg.add(*((linalg.scaled(x, -1), den) for x, den in terms))


def antipode_function(f: InvariantFunction) -> InvariantFunction:
    return apply_operator(antipode_matrix(f.table.ctx, f.n),
                          TensorFunction.outer([f]), 0, 1, (f.table,)).as_function()


def antipode(x: GradedElement) -> GradedElement:
    return GradedElement(x.ctx, {n: antipode_function(f)
                                 for n, f in x.components.items()})


# ---------------------------------------------------------------------------
# spanning by induced products of primitives


def precuspidal_spanning_rank(ctx: FqContext, n: int):
    """(rank of the span of induced products of primitive elements, dim C_n):
    one rank of the products Ind_lam . (B_lam1^T x ... x B_lamk^T) side by
    side over the partitions lam of n, B_m the primitive basis of degree m,
    so each column is one induced product."""
    dim = len(enumerate_orbits(n, ctx))
    # scaling a column leaves the rank, so each product's den is dropped; in
    # degree 0 the one partition is empty and its product is the unit
    products = []
    for lam in partitions(n):
        kron = reduce(linalg.kron, (linalg.conj_t(primitive_subspace(ctx, m).matrix)
                                    for m in lam), linalg.identity(1))
        products.append(linalg.matmul(induction_matrix(ctx, lam), kron)[0])
    return (linalg.rank((np.hstack(products), 1)), dim)


def hilbert_series_check(ctx: FqContext, max_n: int) -> Report:
    """prod_k (1 - t^k)^(-dim p_k) must match sum_n (dim C_n) t^n."""
    prim_dims = {k: primitive_subspace(ctx, k).dimension for k in range(1, max_n + 1)}
    series = [1] + [0] * max_n
    for k, d in prim_dims.items():
        # multiply by (1 - t^k)^(-d) = product of d geometric series
        for _ in range(d):
            for i in range(k, max_n + 1):
                series[i] += series[i - k]
    expected = [len(enumerate_orbits(m, ctx)) for m in range(max_n + 1)]
    return Report("hilbert-series", {"q": ctx.q, "max_n": max_n,
                                     "primitive_dims": prim_dims},
                  None if series == expected else f"{series} != {expected}")
