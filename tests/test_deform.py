import random
from fractions import Fraction

import pytest

from helpers import random_cochain, random_leibniz_algebra
from leibniz_deform.algebra import abelian, lambda6
from leibniz_deform.cochain import (
    Cochain,
    coboundary,
    cohomology,
    lambda6_reference_representatives,
    with_representatives,
)
from leibniz_deform.deform import (
    Deformation,
    LocalBase,
    MasseyWitness,
    ObstructionReport,
    TruncatedPolynomial,
    check_equivalence,
    extend_to_order,
    leibniz_defect,
    massey2,
    massey3,
    obstruction_classes,
    push_forward,
    universal_infinitesimal,
    versal_construct,
)
from leibniz_deform.errors import PreconditionError
from leibniz_deform.graded import GradedElement, graded_bracket
from leibniz_deform.linalg import vec_is_zero

F = Fraction


def unit(h, i):
    return tuple(1 if k == i else 0 for k in range(h))


# ---------------------------------------------------------------------------
# truncated polynomials
# ---------------------------------------------------------------------------


def test_poly_truncation_drops_high_degrees():
    base = LocalBase(("t", "s"), 2)
    t, s = base.generator("t"), base.generator("s")
    p = (t + s) * (t + s) * t
    assert p.is_zero()
    q = (t + s) * (t - s)
    assert q == base.monomial((2, 0)) - base.monomial((0, 2))


def test_poly_relation_reduction():
    plain = LocalBase(("t",), 3)
    t2 = plain.monomial((2,))
    base = plain.with_relations([t2])
    t = base.generator("t")
    assert (t * t).is_zero()
    assert (t * t * t).is_zero()
    p = TruncatedPolynomial(base, {(0,): 1, (1,): 2, (2,): 5})
    assert p == base.constant(1) + 2 * base.generator("t")


def test_poly_relation_with_tail_substitutes():
    plain = LocalBase(("t", "s"), 2)
    # t^2 = s^2 in the quotient: leading monomial t^2 rewrites to s^2
    rel = plain.monomial((2, 0)) - plain.monomial((0, 2))
    base = plain.with_relations([rel])
    t, s = base.generator("t"), base.generator("s")
    assert t * t == s * s


def test_poly_substitution():
    src = LocalBase(("t", "s"), 2)
    dst = LocalBase(("u",), 2)
    u = dst.generator("u")
    p = src.generator("t") * src.generator("s") + 3 * src.generator("t")
    image = p.substitute(dst, {"t": u, "s": 2 * u})
    assert image == 2 * (u * u) + 3 * u


# ---------------------------------------------------------------------------
# universal first-order deformation
# ---------------------------------------------------------------------------


def test_universal_infinitesimal_reference_brackets():
    alg = lambda6()
    mu1, mu2 = lambda6_reference_representatives()
    d = universal_infinitesimal(alg, [mu1, mu2])
    assert d.base.generators == ("t", "s")
    assert d.base.truncation_order == 1
    t, s, zero = d.base.generator("t"), d.base.generator("s"), d.base.zero()
    one = d.base.one()
    assert d.basis_bracket(0, 2) == (s, one, zero)        # [e1,e3] = e2 + s e1
    assert d.basis_bracket(1, 2) == (-1 * t, zero, zero)  # [e2,e3] = -t e1
    assert d.basis_bracket(2, 2) == (one, zero, zero)     # [e3,e3] = e1
    for i in range(3):
        for j in range(3):
            if (i, j) not in ((0, 2), (1, 2), (2, 2)):
                assert all(p.is_zero() for p in d.basis_bracket(i, j))


def test_universal_infinitesimal_no_reps_is_trivial():
    alg = lambda6()
    d = universal_infinitesimal(alg, [])
    assert d.base.generators == ()
    assert d.terms == {}
    assert all(c.is_zero() for c in leibniz_defect(d).values())


def test_universal_infinitesimal_rejects_non_cocycle():
    alg = lambda6()
    bad = Cochain.from_entries(2, 3, {(0, 0): {0: 1}})
    with pytest.raises(PreconditionError):
        universal_infinitesimal(alg, [bad])


def test_single_cocycle_first_order_defect_vanishes():
    alg = lambda6()
    _, mu2 = lambda6_reference_representatives()
    d = universal_infinitesimal(alg, [mu2])
    assert all(c.is_zero() for c in leibniz_defect(d).values())


# ---------------------------------------------------------------------------
# deformed bracket evaluation
# ---------------------------------------------------------------------------


def test_bracket_e1_e3_under_versal():
    alg = lambda6()
    d, _ = versal_construct(alg, 3, lambda6_reference_representatives())
    out = d.bracket(d.embed_basis(0), d.embed_basis(2))
    s = d.base.generator("s")
    assert out == (s, d.base.one(), d.base.zero())


def test_bracket_degree_zero_part_is_undeformed():
    rng = random.Random(17)
    for _ in range(5):
        alg = random_leibniz_algebra(rng, dims=(2,))
        psi = random_cochain(rng, 2, alg.dim)
        base = LocalBase(("t",), 2)
        d = Deformation(alg, base, {(1,): psi} if not psi.is_zero() else {})
        for i in range(alg.dim):
            for j in range(alg.dim):
                av = d.basis_bracket(i, j)
                consts = tuple(p.constant_term() for p in av)
                assert consts == alg.bracket_basis(i, j)


def test_bracket_bilinearity_over_base_with_truncation():
    alg = lambda6()
    mu1, mu2 = lambda6_reference_representatives()
    d = universal_infinitesimal(alg, [mu1, mu2])
    d = d.with_base(d.base.with_truncation(2))
    t = d.base.generator("t")
    zero = d.base.zero()
    x = (zero, zero, t)  # t (x) e3
    out = d.bracket(x, x)
    # t^2 [e3,e3] = t^2 e1; the order-1 corrections are cut off at order 2
    assert out == (t * t, zero, zero)


# ---------------------------------------------------------------------------
# defect and the quadratic part
# ---------------------------------------------------------------------------


def test_versal_defect_vanishes_identically():
    alg = lambda6()
    d, _ = versal_construct(alg, 3, lambda6_reference_representatives())
    assert all(c.is_zero() for c in leibniz_defect(d).values())


def test_trivial_deformation_defect_vanishes():
    rng = random.Random(19)
    alg = random_leibniz_algebra(rng)
    d = Deformation(alg, LocalBase(("t",), 3), {})
    assert all(c.is_zero() for c in leibniz_defect(d).values())


def test_non_cocycle_first_order_defect_is_its_coboundary():
    alg = lambda6()
    psi = Cochain.from_entries(2, 3, {(0, 0): {0: 1}, (2, 1): {2: -2}})
    assert not coboundary(alg, psi).is_zero()
    d = Deformation(alg, LocalBase(("t",), 1), {(1,): psi})
    defect = leibniz_defect(d)
    assert defect[(1,)] == coboundary(alg, psi)


def test_degree2_defect_is_minus_half_self_bracket():
    rng = random.Random(23)
    for _ in range(8):
        alg = random_leibniz_algebra(rng, dims=(2, 3))
        psi = random_cochain(rng, 2, alg.dim)
        d = Deformation(alg, LocalBase(("t",), 2), {(1,): psi} if not psi.is_zero() else {})
        defect = leibniz_defect(d)
        self_bracket = graded_bracket(alg, GradedElement.of(psi), GradedElement.of(psi)).cochain
        assert defect[(2,)] == self_bracket.scale(F(-1, 2))
        assert defect[(1,)] == coboundary(alg, psi)


def test_quadratic_part_ordered_pairs_equal_half_symmetrized():
    # two-parameter deformation: the (1,1)-degree defect entry sums the two
    # ordered pairs once each and equals -1/2 ([a,b] + [b,a])
    rng = random.Random(29)
    alg = random_leibniz_algebra(rng, dims=(2, 3))
    a = random_cochain(rng, 2, alg.dim, density=1.0)
    b = random_cochain(rng, 2, alg.dim, density=1.0)
    d = Deformation(alg, LocalBase(("t", "s"), 2), {(1, 0): a, (0, 1): b})
    defect = leibniz_defect(d)
    gb = lambda x, y: graded_bracket(alg, GradedElement.of(x), GradedElement.of(y)).cochain
    half_sym = (gb(a, b) + gb(b, a)).scale(F(-1, 2))
    assert defect[(1, 1)] == half_sym


# ---------------------------------------------------------------------------
# obstructions and extension
# ---------------------------------------------------------------------------


def test_lambda6_obstructions_vanish():
    alg = lambda6()
    d = universal_infinitesimal(alg, lambda6_reference_representatives())
    d = d.with_base(d.base.with_truncation(2))
    report = obstruction_classes(d, 1)
    assert report.order == 2
    assert report.all_zero()
    assert report.relation_polynomials == ()


def test_extension_of_lambda6_adds_no_terms():
    alg = lambda6()
    d = universal_infinitesimal(alg, lambda6_reference_representatives())
    d = d.with_base(d.base.with_truncation(2))
    out = extend_to_order(d, 1)
    assert isinstance(out, Deformation)
    assert out.terms == d.terms


def test_obstructed_example_reports_nonzero_class():
    # on the 1-dimensional abelian algebra every 2-cochain is a cocycle and the
    # coboundary vanishes, so the quadratic part projects to itself
    alg = abelian(1)
    mu = Cochain.from_entries(2, 1, {(0, 0): {0: 1}})
    d = universal_infinitesimal(alg, [mu])
    d = d.with_base(d.base.with_truncation(2))
    out = extend_to_order(d, 1)
    assert isinstance(out, ObstructionReport)
    hl3 = cohomology(alg, 3)
    expected = hl3.project_to_classes(
        graded_bracket(alg, GradedElement.of(mu), GradedElement.of(mu)).cochain.scale(F(-1, 2))
    )
    assert out.classes[(2,)] == expected
    assert not vec_is_zero(expected)


def test_obstruction_requires_flat_defect():
    alg = lambda6()
    psi = Cochain.from_entries(2, 3, {(0, 0): {0: 1}})  # not a cocycle
    d = Deformation(alg, LocalBase(("t",), 2), {(1,): psi})
    with pytest.raises(PreconditionError):
        obstruction_classes(d, 1)


# ---------------------------------------------------------------------------
# Massey brackets
# ---------------------------------------------------------------------------


def _paper_hl2():
    alg = lambda6()
    return alg, with_representatives(cohomology(alg, 2), lambda6_reference_representatives(), alg)


def test_massey2_reference_classes_vanish():
    alg, hl2 = _paper_hl2()
    hl3 = cohomology(alg, 3)
    for i, j in ((0, 0), (0, 1), (1, 1)):
        coords, rep = massey2(alg, hl2, unit(2, i), unit(2, j), hl3)
        assert vec_is_zero(coords)
        assert rep.is_zero()


def test_massey2_zero_class_gives_zero():
    alg, hl2 = _paper_hl2()
    coords, rep = massey2(alg, hl2, (0, 0), (1, 1))
    assert vec_is_zero(coords) and rep.is_zero()


def test_massey2_independent_of_representatives():
    alg = lambda6()
    mu1, mu2 = lambda6_reference_representatives()
    g = Cochain.from_entries(1, 3, {(0,): {1: 2}, (2,): {0: -1}})
    shifted = with_representatives(
        cohomology(alg, 2), [mu1, mu2 + coboundary(alg, g)], alg
    )
    plain = with_representatives(cohomology(alg, 2), [mu1, mu2], alg)
    hl3 = cohomology(alg, 3)
    for i, j in ((0, 0), (0, 1), (1, 1)):
        c1, _ = massey2(alg, plain, unit(2, i), unit(2, j), hl3)
        c2, _ = massey2(alg, shifted, unit(2, i), unit(2, j), hl3)
        assert c1 == c2


def test_massey3_reference_triples_vanish_with_zero_witnesses():
    alg, hl2 = _paper_hl2()
    hl3 = cohomology(alg, 3)
    for t in ((0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 1, 1)):
        coords, rep, wits = massey3(alg, hl2, tuple(unit(2, i) for i in t), hl3=hl3)
        assert vec_is_zero(coords)
        assert rep.is_zero()
        assert all(w.witness.is_zero() for w in wits)


def test_massey3_triple_with_zero_class():
    alg, hl2 = _paper_hl2()
    coords, rep, _ = massey3(alg, hl2, ((0, 0), unit(2, 0), unit(2, 1)))
    assert vec_is_zero(coords) and rep.is_zero()


def test_massey3_independent_of_witness_choice():
    alg, hl2 = _paper_hl2()
    hl3 = cohomology(alg, 3)
    mu1, mu2 = lambda6_reference_representatives()
    baseline, _, _ = massey3(alg, hl2, tuple(unit(2, i) for i in (0, 1, 1)), hl3=hl3)
    shifted, _, wits = massey3(
        alg,
        hl2,
        tuple(unit(2, i) for i in (0, 1, 1)),
        witnesses={(0, 1): mu1, (1, 2): mu2, (0, 2): Cochain.zeros(2, 3)},
        hl3=hl3,
    )
    assert baseline == shifted
    assert {w.pair: w.witness for w in wits}[(0, 1)] == mu1


def test_massey3_rejects_bad_witness():
    alg, hl2 = _paper_hl2()
    bad = Cochain.from_entries(2, 3, {(0, 0): {0: 1}})  # not a cocycle: d(bad) != 0
    with pytest.raises(PreconditionError):
        massey3(alg, hl2, tuple(unit(2, i) for i in (0, 1, 1)), witnesses={(0, 1): bad})


# ---------------------------------------------------------------------------
# push-forward
# ---------------------------------------------------------------------------


def _versal():
    alg = lambda6()
    d, _ = versal_construct(alg, 3, lambda6_reference_representatives())
    return alg, d


def test_pushforward_kill_s():
    alg, d = _versal()
    target = LocalBase(("t",), 3)
    out = push_forward(d, target, {"t": target.generator("t"), "s": target.zero()})
    mu1, _ = lambda6_reference_representatives()
    assert out.terms == {(1,): mu1}


def test_pushforward_kill_t():
    alg, d = _versal()
    target = LocalBase(("s",), 3)
    out = push_forward(d, target, {"t": target.zero(), "s": target.generator("s")})
    _, mu2 = lambda6_reference_representatives()
    assert out.terms == {(1,): mu2}


def test_pushforward_identity_map():
    alg, d = _versal()
    images = {g: d.base.generator(g) for g in d.base.generators}
    out = push_forward(d, d.base, images)
    assert out.terms == d.terms


def test_pushforward_rejects_nonzero_constant_term():
    alg, d = _versal()
    target = LocalBase(("t",), 3)
    with pytest.raises(PreconditionError):
        push_forward(d, target, {"t": target.one(), "s": target.zero()})


def test_pushforward_functoriality():
    rng = random.Random(31)
    alg = lambda6()
    d = universal_infinitesimal(alg, lambda6_reference_representatives())
    d = d.with_base(d.base.with_truncation(3))
    mid = LocalBase(("u", "v"), 3)
    final = LocalBase(("w",), 3)
    for _ in range(5):
        f = {
            "t": TruncatedPolynomial(
                mid, {(1, 0): rng.randint(-2, 2), (0, 1): rng.randint(-2, 2), (1, 1): rng.randint(-2, 2)}
            ),
            "s": TruncatedPolynomial(mid, {(0, 1): rng.randint(-2, 2), (2, 0): rng.randint(-2, 2)}),
        }
        g = {
            "u": TruncatedPolynomial(final, {(1,): rng.randint(-2, 2), (2,): rng.randint(-2, 2)}),
            "v": TruncatedPolynomial(final, {(1,): rng.randint(-2, 2)}),
        }
        two_steps = push_forward(push_forward(d, mid, f), final, g)
        composed = {name: poly.substitute(final, g) for name, poly in f.items()}
        one_step = push_forward(d, final, composed)
        assert two_steps.terms == one_step.terms


# ---------------------------------------------------------------------------
# equivalence checking
# ---------------------------------------------------------------------------


def _identity_phi(base, n):
    return tuple(
        tuple(base.one() if i == j else base.zero() for j in range(n)) for i in range(n)
    )


def test_equivalence_identity_on_itself():
    alg, d = _versal()
    ok, detail = check_equivalence(_identity_phi(d.base, 3), d, d)
    assert ok and detail is None


def test_equivalence_detects_different_brackets():
    alg, d = _versal()
    collapsed = push_forward(
        d, d.base, {"t": d.base.generator("t"), "s": d.base.zero()}
    )
    ok, detail = check_equivalence(_identity_phi(d.base, 3), d, collapsed)
    assert not ok
    assert detail[:2] == (0, 2)  # brackets first differ at [e1, e3]


def test_equivalence_of_representative_change():
    alg = lambda6()
    _, mu2 = lambda6_reference_representatives()
    g = Cochain.from_entries(1, 3, {(0,): {0: 1, 1: -2}, (1,): {2: 3}, (2,): {0: 5}})
    d1 = universal_infinitesimal(alg, [mu2 + coboundary(alg, g)], names=("t",))
    d2 = universal_infinitesimal(alg, [mu2], names=("t",))
    t = d1.base.generator("t")
    phi = tuple(
        tuple(
            (d1.base.one() if i == j else d1.base.zero()) + t * g.eval_basis((j,))[i]
            for j in range(3)
        )
        for i in range(3)
    )
    ok, detail = check_equivalence(phi, d1, d2)
    assert ok, detail


def test_equivalence_rejects_non_identity_augmentation():
    alg, d = _versal()
    base = d.base
    phi = tuple(
        tuple(base.constant(2) if i == j else base.zero() for j in range(3))
        for i in range(3)
    )
    ok, detail = check_equivalence(phi, d, d)
    assert not ok
    assert detail == "evaluation at 0 is not the identity"


# ---------------------------------------------------------------------------
# versal construction
# ---------------------------------------------------------------------------


def test_versal_lambda6_is_the_first_order_deformation():
    alg = lambda6()
    mu1, mu2 = lambda6_reference_representatives()
    d, relations = versal_construct(alg, 3, [mu1, mu2])
    assert relations == {}
    assert d.base.relations == ()
    assert d.terms == {(1, 0): mu1, (0, 1): mu2}


def test_versal_order_one_equals_universal_infinitesimal():
    alg = lambda6()
    reps = lambda6_reference_representatives()
    d, relations = versal_construct(alg, 1, reps)
    assert relations == {}
    assert d.terms == universal_infinitesimal(alg, reps).terms
    assert d.base.truncation_order == 1


def test_versal_with_computed_representatives_is_flat():
    alg = lambda6()
    d, relations = versal_construct(alg, 3)
    assert relations == {}
    assert all(c.is_zero() for c in leibniz_defect(d).values())


def test_versal_obstructed_abelian_line_records_relation():
    alg = abelian(1)
    mu = Cochain.from_entries(2, 1, {(0, 0): {0: 1}})
    d, relations = versal_construct(alg, 2, [mu], names=("t",))
    assert list(relations) == [2]
    (poly,) = relations[2]
    assert poly.coeffs == {(2,): F(1)}
    assert d.base.relations != ()
    assert all(c.is_zero() for c in leibniz_defect(d).values())


def test_versal_requires_positive_order():
    with pytest.raises(PreconditionError):
        versal_construct(lambda6(), 0)
