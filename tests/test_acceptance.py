"""Acceptance suite: one test per criterion, exact tolerances throughout.

Every expected value here is either frozen from an independent oracle
(fraction-free rank, permutation-filter enumeration, rank-nullity) or is a
stated reference value; where a computed value disagrees with a stated
reference the test flags the discrepancy explicitly instead of failing
silently or forcing agreement.
"""

import math
import random
from fractions import Fraction

import pytest

from helpers import (
    EXTRA_DEGREE3_COCYCLE,
    ZL2_COCYCLES,
    bareiss_rank,
    circle_by_filter,
    dense,
    flat,
    from_rows,
    matmul,
    random_cochain,
    random_leibniz_algebra,
    random_matrix,
    reference_degree3_family,
    shuffles_by_filter,
    zero_matrix,
)
from leibniz_deform.algebra import lambda6, validate
from leibniz_deform.cochain import (
    Cochain,
    coboundary,
    coboundary_matrix,
    cohomology,
)
from leibniz_deform.deform import (
    Deformation,
    leibniz_defect,
    massey2,
    massey3,
    universal_infinitesimal,
    versal_construct,
)
from leibniz_deform.graded import circle, graded_bracket, shuffles
from leibniz_deform.linalg import image_basis, kernel_basis, rank
from leibniz_deform.poly import LocalBase, TruncatedPolynomial
from leibniz_deform.pushforward import parse_poly, push_forward
from leibniz_deform.reports import deformation_report
from leibniz_deform.reps import lambda6_reference_representatives, with_representatives

F = Fraction

# Stated reference values for the degree-3 spaces of the builtin algebra.
# ZL3/BL3 are inconsistent with rank-nullity given dim ZL2 = 8 and with the
# exact kernel computation; the acceptance tests flag this rather than force
# agreement.  The HL3 value does reproduce.
REFERENCE_DEGREE3_DIMS = {"ZL3": 20, "BL3": 18, "HL3": 2}


def unit(h, i):
    return tuple(1 if k == i else 0 for k in range(h))


def test_criterion_1_degree2_cohomology_dimensions_and_span():
    alg = lambda6()
    space = cohomology(alg, 2)
    assert space.dim_cocycles == 8
    assert space.dim_coboundaries == 6
    assert space.dim == 2
    refs = [Cochain.from_entries(2, 3, e) for e in ZL2_COCYCLES]
    delta2 = coboundary_matrix(alg, 2)
    for r in refs:
        assert not delta2.matvec(r.entries)
    refs = [flat(r) for r in refs]
    kernel = [dense(v, 27) for v in kernel_basis(delta2).vectors]
    assert rank(from_rows(refs)) == 8
    assert rank(from_rows(kernel + refs)) == 8  # mutual membership
    print("ACCEPTANCE 1 PASS: degree-2 dims (8, 6, 2); cocycle span matches the 8-member reference family")


def test_criterion_2_degree3_dimensions_flag_reference_discrepancy():
    alg = lambda6()
    zl2 = cohomology(alg, 2).dim_cocycles
    space = cohomology(alg, 3)
    zl3, bl3, hl3 = space.dim_cocycles, space.dim_coboundaries, space.dim

    # authoritative oracle: rank-nullity on the degree-2 coboundary matrix
    assert bl3 == 27 - zl2 == 19
    # internal consistency, exact
    assert zl3 - bl3 == hl3

    # the kernel contains the 20-member reference family ...
    family = reference_degree3_family()
    delta3 = coboundary_matrix(alg, 3)
    for c in family:
        assert not delta3.matvec(c.entries)
    assert rank(from_rows(map(flat, family))) == 20
    # ... plus one more independent direction, so dim ZL3 = 21 exactly
    extra = Cochain.from_entries(3, 3, EXTRA_DEGREE3_COCYCLE)
    assert not delta3.matvec(extra.entries)
    assert rank(from_rows(map(flat, family + [extra]))) == 21
    assert zl3 == 21
    assert 81 - bareiss_rank(delta3.entries) == 21  # independent elimination

    flags = []
    for name, computed in (("ZL3", zl3), ("BL3", bl3), ("HL3", hl3)):
        stated = REFERENCE_DEGREE3_DIMS[name]
        if computed != stated:
            flags.append(f"{name}: computed {computed} != stated {stated}")
    assert hl3 == REFERENCE_DEGREE3_DIMS["HL3"] == 2
    assert flags  # the discrepancy must be detected, never silently absorbed
    print(
        "ACCEPTANCE 2 PASS: degree-3 dims computed (21, 19, 2); rank-nullity and "
        "internal consistency hold exactly; FLAGGED vs stated reference (20, 18, 2): "
        + "; ".join(flags)
    )


@pytest.mark.xfail(
    strict=True,
    reason="stated reference degree-3 counts (ZL3=20, BL3=18) fail the exact "
    "computation: the kernel has dimension 21 (certified by three independent "
    "methods) and rank-nullity forces dim BL3 = 19",
)
def test_criterion_2_stated_reference_degree3_counts():
    space = cohomology(lambda6(), 3)
    assert space.dim_cocycles == REFERENCE_DEGREE3_DIMS["ZL3"]
    assert space.dim_coboundaries == REFERENCE_DEGREE3_DIMS["BL3"]


def test_criterion_3_massey_brackets_all_trivial():
    alg = lambda6()
    mu1, mu2 = lambda6_reference_representatives()
    assert circle(alg, mu1, mu1).is_zero()
    assert circle(alg, mu2, mu2).is_zero()
    assert graded_bracket(alg, mu1, mu2).is_zero()

    hl2 = with_representatives(cohomology(alg, 2), [mu1, mu2], alg)
    for i in range(2):
        for j in range(i, 2):
            coords, rep = massey2(alg, hl2, unit(2, i), unit(2, j))
            assert coords == (F(0), F(0)) and rep.is_zero()
    for i in range(2):
        for j in range(i, 2):
            for k in range(j, 2):
                coords, rep, wits = massey3(alg, hl2, (unit(2, i), unit(2, j), unit(2, k)))
                assert coords == (F(0), F(0))
                assert rep.is_zero()
                assert all(w.is_zero() for _, w in wits)
    print("ACCEPTANCE 3 PASS: all second- and third-order Massey brackets vanish with zero representatives")


def test_criterion_4_versal_deformation_golden():
    alg = lambda6()
    mu1, mu2 = lambda6_reference_representatives()
    d, relations = versal_construct(alg, 3, [mu1, mu2])
    assert relations == {}
    assert d.base.relations == ()
    assert d.terms == {(1, 0): mu1, (0, 1): mu2}
    text, _ = deformation_report(d, alg)
    assert "[e_1,e_3] = e_2 + s*e_1" in text
    assert "[e_2,e_3] = -t*e_1" in text
    assert "[e_3,e_3] = e_1" in text
    assert text.count("[e_") == 3  # no other nonzero brackets
    defect = leibniz_defect(d)
    assert all(c.is_zero() for c in defect.values())
    print("ACCEPTANCE 4 PASS: versal bracket table exact, relation ideal empty, defect zero through order 3")


def test_criterion_5_pushforward_specializations():
    alg = lambda6()
    mu1, mu2 = lambda6_reference_representatives()
    d, _ = versal_construct(alg, 3, [mu1, mu2])

    t_base = LocalBase(("t",), 3)
    first = push_forward(d, t_base, {"t": parse_poly("t", t_base), "s": t_base.zero()})
    assert first.terms == {(1,): mu1}
    assert all(c.is_zero() for c in leibniz_defect(first).values())

    s_base = LocalBase(("s",), 3)
    second = push_forward(d, s_base, {"t": s_base.zero(), "s": parse_poly("s", s_base)})
    assert second.terms == {(1,): mu2}
    assert all(c.is_zero() for c in leibniz_defect(second).values())
    print("ACCEPTANCE 5 PASS: both one-parameter specializations reproduced exactly, defects zero")


def test_criterion_6a_coboundary_squares_to_zero():
    rng = random.Random(601)
    cases = 0
    for trial in range(100):
        dims = (2,) if trial % 10 < 7 else (3,)
        alg = random_leibniz_algebra(rng, dims=dims)
        assert validate(alg) == []
        for p in (0, 1, 2):
            prod = matmul(coboundary_matrix(alg, p + 1), coboundary_matrix(alg, p))
            assert prod == zero_matrix(prod.rows, prod.cols)
        cases += 1
    assert cases == 100
    print("ACCEPTANCE 6a PASS: coboundary composed with itself vanishes, p <= 2, 100 random validated algebras")


def test_criterion_6b_dgla_axioms():
    rng = random.Random(602)
    for case in range(100):
        alg = random_leibniz_algebra(rng, dims=(2,))
        da, db = rng.choice((0, 1, 2)), rng.choice((0, 1, 2))
        a = random_cochain(rng, da + 1, 2)
        b = random_cochain(rng, db + 1, 2)
        ab = graded_bracket(alg, a, b)
        ba = graded_bracket(alg, b, a)
        sign = F(-1) if (da * db) % 2 == 0 else F(1)
        assert ab == ba.scale(sign)

        dc = rng.choice((0, 1, 2))
        c = random_cochain(rng, dc + 1, 2)
        lhs = graded_bracket(alg, a, graded_bracket(alg, b, c))
        t1 = graded_bracket(alg, graded_bracket(alg, a, b), c)
        t2 = graded_bracket(alg, b, graded_bracket(alg, a, c))
        jsign = F(1) if (da * db) % 2 == 0 else F(-1)
        assert lhs == t1 + t2.scale(jsign)

        from helpers import dgla_differential

        dl = dgla_differential(alg, graded_bracket(alg, a, b))
        d1 = graded_bracket(alg, dgla_differential(alg, a), b)
        d2 = graded_bracket(alg, a, dgla_differential(alg, b))
        dsign = F(1) if da % 2 == 0 else F(-1)
        assert dl == d1 + d2.scale(dsign)
        assert dgla_differential(alg, dgla_differential(alg, a)).is_zero()
    print("ACCEPTANCE 6b PASS: graded antisymmetry, Jacobi and the derivation property of d, 100 cases")


def test_criterion_6c_rank_nullity():
    rng = random.Random(603)
    for _ in range(100):
        m = random_matrix(rng)
        assert kernel_basis(m).dim + image_basis(m).dim == m.cols
    print("ACCEPTANCE 6c PASS: rank-nullity on 100 random matrices")


def test_criterion_6d_maurer_cartan_degree2_identity():
    rng = random.Random(604)
    for case in range(100):
        alg = random_leibniz_algebra(rng, dims=(2,) if case % 5 else (3,))
        psi = random_cochain(rng, 2, alg.dim)
        terms = {} if psi.is_zero() else {(1,): psi}
        d = Deformation(alg, LocalBase(("t",), 2), terms)
        defect = leibniz_defect(d)
        assert defect[(1,)] == coboundary(alg, psi)
        half = graded_bracket(alg, psi, psi).scale(F(-1, 2))
        assert defect[(2,)] == half
    print("ACCEPTANCE 6d PASS: degree-2 defect equals -1/2 of the self-superbracket, 100 cases")


def test_criterion_6e_pushforward_functoriality():
    rng = random.Random(605)
    alg = lambda6()
    d = universal_infinitesimal(alg, lambda6_reference_representatives())
    d = d.with_base(d.base.with_truncation(2))
    mid = LocalBase(("u", "v"), 2)
    final = LocalBase(("w",), 2)
    for _ in range(100):
        f = {
            "t": TruncatedPolynomial(
                mid,
                {(1, 0): rng.randint(-3, 3), (0, 1): rng.randint(-3, 3), (1, 1): rng.randint(-3, 3)},
            ),
            "s": TruncatedPolynomial(
                mid, {(1, 0): rng.randint(-3, 3), (0, 2): rng.randint(-3, 3)}
            ),
        }
        g = {
            "u": TruncatedPolynomial(final, {(1,): rng.randint(-3, 3), (2,): rng.randint(-3, 3)}),
            "v": TruncatedPolynomial(final, {(1,): rng.randint(-3, 3)}),
        }
        two = push_forward(push_forward(d, mid, f), final, g)
        one = push_forward(d, final, {n: p.substitute(final, g) for n, p in f.items()})
        assert two.terms == one.terms
    print("ACCEPTANCE 6e PASS: push-forward functoriality on 100 random base homomorphisms")


def test_criterion_7_oracle_equivalence():
    # shuffle enumeration against the permutation-filter oracle
    for total in range(7):
        for p in range(total + 1):
            q = total - p
            ours = list(shuffles(p, q))
            assert ours == shuffles_by_filter(p, q)
            assert len(ours) == math.comb(total, p)

    # circle product against the oracle built on filtered shuffles
    rng = random.Random(701)
    for _ in range(3):
        alg = random_leibniz_algebra(rng, dims=(2,))
        a = random_cochain(rng, 2, 2)
        b = random_cochain(rng, 3, 2)
        assert circle(alg, a, b) == circle_by_filter(alg, a, b)

    # kernel and image dimensions against fraction-free elimination,
    # including the coboundary matrices up to 243 x 81
    alg = lambda6()
    for p in (0, 1, 2, 3):
        m = coboundary_matrix(alg, p)
        r = bareiss_rank(m.entries)
        assert image_basis(m).dim == r
        assert kernel_basis(m).dim == m.cols - r
    for _ in range(20):
        m = random_matrix(rng, 8, 8)
        if m.rows == 0:
            continue
        r = bareiss_rank(m.entries)
        assert image_basis(m).dim == r
        assert kernel_basis(m).dim == m.cols - r
    print("ACCEPTANCE 7 PASS: combination shuffles, circle product and rank oracles agree")
