"""End-to-end acceptance checks. Every equality is exact (tolerance 0); each
criterion prints a single pass/fail line. Universal claims are checked on the
stated finite ranges: degrees up to 4 for q=2 and up to 3 for q=3 unless a
criterion says otherwise.
"""
from fractions import Fraction

from glnq import linalg
from glnq.duality import (duality_operator, steinberg, steinberg_constituents,
                          verify_antipode_is_duality, verify_characterization,
                          verify_involutive_isometric)
from glnq.field import fq, rational_is_square
from glnq.hc import (hc_induce, hc_restrict, tensor_restrict_factor,
                     verify_mackey)
from glnq.hopf import (antipode_matrix, hilbert_series_check, is_primitive,
                       multiply, multiply_functions, precuspidal_spanning_rank,
                       unit, verify_bialgebra)
from glnq.invfun import (GradedElement, TensorFunction, constant_one,
                         indicator_by_index, inner_product_rational)
from glnq.orbits import (enumerate_orbits, nilpotent_orbit_count,
                         orbit_table_bruteforce, partitions)
from glnq.psh import (nondescending_witness, verify_positivity,
                      verify_self_adjointness)

RANGES = ((2, 4), (3, 3))  # (q, largest total degree)


def report(num, desc, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] acceptance {num:02d}: {desc}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def degree_pairs(max_n):
    return [(n1, n2) for n1 in range(1, max_n)
            for n2 in range(1, max_n - n1 + 1)]


def indicators(ctx, n):
    table = enumerate_orbits(n, ctx)
    return [indicator_by_index(i, table) for i in range(len(table))]


def test_01_inner_product_norms():
    ok = True
    for q in (2, 3, 5):
        ctx = fq(q)
        one1 = constant_one(enumerate_orbits(1, ctx))
        one2 = constant_one(enumerate_orbits(2, ctx))
        ok &= inner_product_rational(one1, one1) == Fraction(q, q - 1)
        ok &= inner_product_rational(one2, one2) == \
            Fraction(q ** 4, q * (q - 1) ** 2 * (q + 1))
    report(1, "norms of constants in degrees 1 and 2, q in {2,3,5}", ok)


def test_02_nondescending_witness():
    ok = True
    for q in (2, 3, 5):
        w = nondescending_witness(fq(q))
        ok &= w.square == Fraction(q + 1, q)
        ok &= not rational_is_square(w.square)
    report(2, "unit-basis structure constant squares to (q+1)/q, irrational", ok)


def test_03_mackey_formula():
    ok = True
    for q, max_n in RANGES:
        ctx = fq(q)
        for n1, n2 in degree_pairs(max_n):
            fs = indicators(ctx, n1)
            gs = indicators(ctx, n2)
            for s in range(n1 + n2 + 1):
                reports = verify_mackey(fs, gs, s, n1 + n2 - s)
                ok &= len(reports) == len(fs) * len(gs)
                ok &= all(r.passed for r in reports)
    report(3, "double-coset formula, all splits and indicator tensors, "
              "degrees <=4 (q=2) / <=3 (q=3)", ok)


def test_04_bialgebra_identity():
    ok = True
    for q, max_n in RANGES:
        ctx = fq(q)
        for n1, n2 in degree_pairs(max_n):
            fs, gs = indicators(ctx, n1), indicators(ctx, n2)
            reports = verify_bialgebra(fs, gs)
            ok &= len(reports) == len(fs) * len(gs)
            ok &= all(r.passed for r in reports)
    report(4, "coproduct of a product equals product of coproducts, "
              "all indicator pairs on the stated ranges", ok)


def test_05_hopf_sanity():
    ok = True
    for q, max_n in RANGES:
        ctx = fq(q)
        # commutativity of the product
        for n1, n2 in degree_pairs(max_n):
            for f in indicators(ctx, n1):
                for g in indicators(ctx, n2):
                    ok &= multiply_functions(f, g) == multiply_functions(g, f)
        for n in range(1, max_n + 1):
            for f in indicators(ctx, n):
                # unit axiom
                x = GradedElement.homogeneous(f)
                ok &= multiply(unit(ctx, 1), x) == x
                for k in range(1, n):
                    # cocommutativity
                    ok &= hc_restrict(f, (k, n - k)).permute((1, 0)) == \
                        hc_restrict(f, (n - k, k))
                # counit axiom: the boundary splits reproduce f
                ok &= hc_restrict(f, (n, 0)).values == \
                    {(i, 0): v for (i,), v in
                     hc_restrict(f, (n,)).values.items()}
            # coassociativity on full splits
            if n >= 3:
                for f in indicators(ctx, n):
                    left = tensor_restrict_factor(
                        hc_restrict(f, (2, n - 2)), 0, (1, 1))
                    direct = hc_restrict(f, (1, 1, n - 2))
                    ok &= left == direct
    report(5, "commutativity, cocommutativity, unit/counit, coassociativity", ok)


def test_06_antipode_is_duality():
    ok = all(verify_antipode_is_duality(max_n, fq(q)).passed
             for q, max_n in RANGES)
    report(6, "antipode equals the signed alternating-sum operator, "
              "as matrices on every degree in range", ok)


def test_07_involutive_isometry():
    ok = True
    for q, max_n in RANGES:
        for n in range(1, max_n + 1):
            ok &= verify_involutive_isometric(n, fq(q)).passed
    report(7, "the degree-n operator squares to the identity and "
              "preserves the inner product", ok)


def test_08_precuspidal_spanning():
    ok = True
    for q, max_n in RANGES:
        ctx = fq(q)
        for n in range(1, max_n + 1):
            rank, dim = precuspidal_spanning_rank(ctx, n)
            ok &= rank == dim
        ok &= hilbert_series_check(ctx, max_n).passed
    report(8, "induced products of primitives span every degree; "
              "primitive dimensions reproduce the orbit-count series", ok)


def test_09_worked_example():
    ok = True
    for q in (2, 3):
        ctx = fq(q)
        one1 = constant_one(enumerate_orbits(1, ctx))
        one2 = constant_one(enumerate_orbits(2, ctx))
        st2 = steinberg(2, ctx)
        ind = hc_induce(TensorFunction.outer([one1, one1]), (1, 1))
        ok &= ind == st2 + one2
        ok &= is_primitive(st2 - one2)
        ok &= duality_operator(2, ctx).apply(st2) == one2
    report(9, "product of degree-1 constants, primitivity of the "
              "difference, and the dual of the degree-2 image, q in {2,3}", ok)


def test_10_psh_axioms():
    ok = True
    for q, max_n in RANGES:
        ctx = fq(q)
        for n1, n2 in degree_pairs(max_n):
            ok &= verify_positivity(ctx, n1, n2).passed
            ok &= verify_self_adjointness(ctx, n1, n2).passed
    report(10, "nonnegative structure constants and self-adjointness "
               "on all character-basis triples", ok)


def test_11_steinberg_constituents():
    ok = True
    for q in (2, 3):
        ctx = fq(q)
        for n in (1, 2, 3):
            count = steinberg_constituents(n, ctx)
            ok &= count == sum(1 for _ in partitions(n))
            ok &= count == nilpotent_orbit_count(enumerate_orbits(n, ctx))
    report(11, "support size in the character basis equals the "
               "nilpotent orbit count, n <= 3, q in {2,3}", ok)


def test_12_oracle_equivalence():
    ok = True
    for q, ns in ((2, (1, 2, 3, 4)), (3, (1, 2, 3))):
        ctx = fq(q)
        for n in ns:
            table = enumerate_orbits(n, ctx)
            claim, sizes = orbit_table_bruteforce(n, ctx)
            ok &= sorted(table.sizes) == sorted(sizes)
            pairs = set(zip(table.lookup.tolist(), claim.tolist()))
            ok &= len(pairs) == len(table) == len(sizes)
            ok &= sum(table.sizes) == q ** (n * n)
    report(12, "structural enumeration matches the brute-force orbit "
               "partition; sizes sum to q^(n^2)", ok)


def test_13_characterization_suite():
    ok = all(verify_characterization(max_n, fq(q)).passed
             for q, max_n in RANGES)
    report(13, "commutation with induction, sign action on primitives, "
               "and full spanning rank", ok)
