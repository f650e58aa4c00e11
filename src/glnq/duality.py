"""The duality operation as an alternating sum over standard parabolics, the
Steinberg function, and the antipode/pre-cuspidal characterizations.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import linalg
from .field import FqContext
from .glmat import compositions
from .hc import induction_matrix, restriction_matrix
from .hopf import antipode_matrix, precuspidal_spanning_rank, primitive_subspace
from .invfun import (InvariantFunction, TensorFunction, adjoint, apply_operator,
                     character_matrix, constant_one, coords, fourier_character_basis)
from .orbits import enumerate_orbits
from .report import Report


@dataclass(frozen=True)
class DualityOperator:
    n: int
    ctx: FqContext
    matrix: tuple  # (x, den), indicator basis (see linalg)

    def apply(self, f: InvariantFunction) -> InvariantFunction:
        if f.n != self.n or f.table.ctx != self.ctx:
            raise ValueError("degree or context mismatch")
        return apply_operator(self.matrix, TensorFunction.outer([f]), 0, 1,
                              (f.table,)).as_function()


@lru_cache(maxsize=None)
def duality_operator(n: int, ctx: FqContext) -> DualityOperator:
    """Sum over compositions c of (-1)^(n - len(c)) R_c . *R_c; the sign is the
    semisimple rank of the corresponding standard Levi."""
    if n == 0:
        return DualityOperator(0, ctx, linalg.identity(1))
    terms = []
    for c in compositions(n):
        x, den = linalg.matmul(induction_matrix(ctx, c.parts),
                               restriction_matrix(ctx, c.parts))
        terms.append((linalg.scaled(x, (-1) ** (n - len(c.parts))), den))
    return DualityOperator(n, ctx, linalg.add(*terms))


def steinberg(n: int, ctx: FqContext) -> InvariantFunction:
    table = enumerate_orbits(n, ctx)
    return duality_operator(n, ctx).apply(constant_one(table))


def verify_antipode_is_duality(max_n: int, ctx: FqContext) -> Report:
    """S restricted to degree n equals (-1)^n D_n, as matrices."""
    for n in range(max_n + 1):
        x, den = duality_operator(n, ctx).matrix
        if not linalg.mat_eq(antipode_matrix(ctx, n), (linalg.scaled(x, (-1) ** n), den)):
            return Report("antipode-is-duality", {"q": ctx.q, "n": n},
                          f"matrices differ in degree {n}")
    return Report("antipode-is-duality", {"q": ctx.q, "max_n": max_n})


def verify_involutive_isometric(n: int, ctx: FqContext) -> Report:
    params = {"q": ctx.q, "n": n}
    d = duality_operator(n, ctx).matrix
    if not linalg.mat_eq(linalg.matmul(d, d), linalg.identity(len(d[0]))):
        return Report("duality-involutive-isometric", params, "D^2 != id")
    # with D^2 = id, D* W D = W exactly when D is its own adjoint
    table = (enumerate_orbits(n, ctx),)
    if not linalg.mat_eq(adjoint(d, table, table), d):
        return Report("duality-involutive-isometric", params, "Gram matrix not preserved")
    return Report("duality-involutive-isometric", params)


def verify_characterization(max_n: int, ctx: FqContext) -> Report:
    """The two defining conditions of the choices-free characterization, plus
    the finite-level spanning precondition for uniqueness."""
    for n in range(1, max_n + 1):
        # (ii) duality is (-1)^(n-1) on the pre-cuspidal subspace: D B^T =
        # (-1)^(n-1) B^T, the columns of B^T its basis
        basis = linalg.conj_t(primitive_subspace(ctx, n).matrix)
        want = (linalg.scaled(basis[0], (-1) ** (n - 1)), basis[1])
        if not linalg.mat_eq(linalg.matmul(duality_operator(n, ctx).matrix, basis), want):
            return Report("duality-characterization", {"q": ctx.q, "n": n},
                          "condition (ii) fails on a primitive")
        # uniqueness precondition: induced primitives span C_n
        rank, dim = precuspidal_spanning_rank(ctx, n)
        if rank != dim:
            return Report("duality-characterization", {"q": ctx.q, "n": n},
                          f"spanning rank {rank} < dim {dim}")
    # (i) duality commutes with Harish-Chandra induction
    for n1 in range(1, max_n):
        for n2 in range(1, max_n - n1 + 1):
            n = n1 + n2
            ind = induction_matrix(ctx, (n1, n2))
            dkron = linalg.kron(duality_operator(n1, ctx).matrix,
                                duality_operator(n2, ctx).matrix)
            lhs = linalg.matmul(duality_operator(n, ctx).matrix, ind)
            rhs = linalg.matmul(ind, dkron)
            if not linalg.mat_eq(lhs, rhs):
                return Report("duality-characterization",
                              {"q": ctx.q, "n1": n1, "n2": n2}, "condition (i) fails")
    return Report("duality-characterization", {"q": ctx.q, "max_n": max_n})


@lru_cache(maxsize=None)
def steinberg_constituents(n: int, ctx: FqContext) -> int:
    """Number of Fourier characters supporting the Steinberg function, cached:
    psh's degree-2 check and the steinberg suite share one expansion."""
    table = enumerate_orbits(n, ctx)
    st = steinberg(n, ctx)
    cs = coords(st, fourier_character_basis(table))
    # reconstruction check keeps the count honest: F . coords == St_n
    coeffs = TensorFunction.outer([InvariantFunction(table, cs)])
    if apply_operator(character_matrix(table), coeffs, 0, 1, (table,)).as_function() != st:
        raise ArithmeticError(f"Fourier coordinates of the degree-{n} Steinberg "
                              f"function do not reconstruct it")
    return sum(1 for c in cs if not c.is_zero())
