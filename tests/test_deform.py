import itertools
import json
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (
    bareiss_rank,
    bracket_defect,
    check_equivalence,
    conjugate,
    embed_basis,
    flat,
    h3,
    hilbert_samuel,
    ideal_member,
    nf3,
    nf4,
    q4,
    random_cochain,
    random_leibniz_algebra,
)
from leibniz_deform import deform, graded, pushforward
from leibniz_deform.algebra import abelian, lambda6
from leibniz_deform.cochain import Cochain, coboundary, coboundary_matrix, cohomology
from leibniz_deform.deform import (
    Deformation,
    default_parameter_names,
    extend_to_order,
    leibniz_defect,
    massey2,
    massey3,
    obstruction_classes,
    universal_infinitesimal,
    versal_construct,
)
from leibniz_deform.errors import DimensionMismatch, LeibnizDeformError, PreconditionError
from leibniz_deform.graded import graded_bracket
from leibniz_deform.linalg import Matrix, rref
from leibniz_deform.poly import LocalBase, TruncatedPolynomial, render_poly
from leibniz_deform.pushforward import parse_poly, push_forward
from leibniz_deform.reps import lambda6_reference_representatives, with_representatives

F = Fraction


def unit(h, i):
    return tuple(1 if k == i else 0 for k in range(h))


# ---------------------------------------------------------------------------
# truncated polynomials
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("parts", range(6))
def test_monomials_in_render_order(parts):
    # ascending total degree, exponents lex-descending within a degree
    def key(mono):
        return sum(mono), tuple(-e for e in mono)

    oracle = sorted((m for m in itertools.product(range(8), repeat=parts) if sum(m) <= 7), key=key)
    base = LocalBase(default_parameter_names(parts), 7)
    assert base.monomials() == oracle
    for top in range(8):
        assert base.monomials(top) == [m for m in oracle if sum(m) <= top]


def test_poly_truncation_drops_high_degrees():
    base = LocalBase(("t", "s"), 2)
    t, s = parse_poly("t", base), parse_poly("s", base)
    p = (t + s) * (t + s) * t
    assert p.is_zero()
    q = (t + s) * (t - s)
    assert q == TruncatedPolynomial(base, {(2, 0): 1, (0, 2): -1})


def test_poly_relation_reduction():
    plain = LocalBase(("t",), 3)
    t2 = TruncatedPolynomial(plain, {(2,): 1})
    base = plain.with_relations([t2])
    t = parse_poly("t", base)
    assert (t * t).is_zero()
    assert (t * t * t).is_zero()
    p = TruncatedPolynomial(base, {(0,): 1, (1,): 2, (2,): 5})
    assert p == base.constant(1) + 2 * parse_poly("t", base)


def test_poly_relation_with_tail_substitutes():
    plain = LocalBase(("t", "s"), 2)
    # t^2 = s^2 in the quotient: t^2, the lex-larger monomial, is eliminated
    rel = TruncatedPolynomial(plain, {(2, 0): 1, (0, 2): -1})
    base = plain.with_relations([rel])
    t, s = parse_poly("t", base), parse_poly("s", base)
    assert t * t == s * s


def test_poly_substitution():
    src = LocalBase(("t", "s"), 2)
    dst = LocalBase(("u",), 2)
    u = parse_poly("u", dst)
    p = parse_poly("t", src) * parse_poly("s", src) + 3 * parse_poly("t", src)
    image = p.substitute(dst, {"t": u, "s": 2 * u})
    assert image == 2 * (u * u) + 3 * u


@st.composite
def normal_form_cases(draw):
    """A base in t (and s) truncated at 2..4 with 1..3 relations, and two
    polynomials; monomials reach one degree above the truncation order."""
    names = ("t", "s")[: draw(st.integers(1, 2))]
    top = draw(st.integers(2, 4))
    monos = LocalBase(names, top + 1).monomials()
    coeffs = st.integers(-3, 3).map(F)
    relation = st.dictionaries(st.sampled_from(monos[1:]), coeffs.filter(bool), min_size=1, max_size=3)
    relations = draw(st.lists(relation, min_size=1, max_size=3))
    base = LocalBase(names, top).with_relations([tuple(r.items()) for r in relations])
    poly = st.dictionaries(st.sampled_from(monos), coeffs, max_size=6)
    return base, draw(poly), draw(poly)


def _macaulay_rows(base):
    """Each product q r of a relation r and a monomial q with
    deg q + lowdeg r <= N, as raw coefficients."""
    for rel in base.relations:
        low = min(sum(m) for m, _ in rel)
        for q in base.monomials(base.truncation_order - low):
            yield {tuple(a + b for a, b in zip(q, m)): c for m, c in rel}


def _normal_form(base, coeffs):
    return TruncatedPolynomial(base, coeffs).coeffs


@given(normal_form_cases())
def test_normal_form_is_idempotent(case):
    base, p, _ = case
    assert _normal_form(base, _normal_form(base, p)) == _normal_form(base, p)


@given(normal_form_cases(), st.integers(-3, 3), st.integers(-3, 3))
def test_normal_form_is_linear(case, a, b):
    base, p, q = case
    combined = {m: a * p.get(m, 0) + b * q.get(m, 0) for m in p.keys() | q.keys()}
    p_nf, q_nf = _normal_form(base, p), _normal_form(base, q)
    expected = {m: a * p_nf.get(m, 0) + b * q_nf.get(m, 0) for m in p_nf.keys() | q_nf.keys()}
    assert _normal_form(base, combined) == {m: c for m, c in expected.items() if c}


@given(normal_form_cases())
def test_normal_form_kills_every_macaulay_row(case):
    base = case[0]
    assert all(not _normal_form(base, row) for row in _macaulay_rows(base))


@given(normal_form_cases(), st.data())
def test_normal_form_does_not_depend_on_relation_order(case, data):
    base, p, _ = case
    relations = data.draw(st.permutations(base.relations))
    permuted = LocalBase(base.generators, base.truncation_order, tuple(relations))
    assert _normal_form(permuted, p) == _normal_form(base, p)


@given(normal_form_cases(), st.data())
def test_normal_form_is_zero_exactly_on_the_ideal(case, data):
    # a combination of Macaulay rows, a member, plus possibly a polynomial
    base, p, _ = case
    rows = list(_macaulay_rows(base))
    weights = data.draw(st.lists(st.integers(-2, 2), min_size=len(rows), max_size=len(rows)))
    scale = data.draw(st.sampled_from([0, 1]))
    combined = {m: scale * c for m, c in p.items()}
    for w, row in zip(weights, rows):
        for m, c in row.items():
            combined[m] = combined.get(m, 0) + w * c
    assert (not _normal_form(base, combined)) == ideal_member(base, combined)
    if not scale:
        assert not _normal_form(base, combined)


# names that share a prefix (t, t1) or carry digits and _
GENERATOR_NAMES = ("t", "s", "u", "t1", "t2", "x_1", "_y")


@st.composite
def polynomials(draw):
    names = draw(st.lists(st.sampled_from(GENERATOR_NAMES), min_size=1, max_size=3, unique=True))
    base = LocalBase(tuple(names), draw(st.integers(0, 4)))
    coeffs = st.fractions(min_value=-7, max_value=7, max_denominator=6)
    return TruncatedPolynomial(base, draw(st.dictionaries(st.sampled_from(base.monomials()), coeffs, max_size=6)))


@given(polynomials())
def test_parse_poly_reads_back_render_poly(poly):
    text = render_poly(poly.base, poly.data())
    assert parse_poly(text, poly.base) == poly
    assert repr(poly) == f"TruncatedPolynomial({text!r})"


@pytest.mark.parametrize("names", [("1t",), ("t", "u*v"), ("t", "t", "s-1"), ("",)])
def test_local_base_rejects_a_bad_name_before_a_duplicate(names):
    bad = next(n for n in names if not n.isidentifier())
    with pytest.raises(PreconditionError, match=rf"^'{re.escape(bad)}' is not a generator name"):
        LocalBase(names, 2)


# ---------------------------------------------------------------------------
# universal first-order deformation
# ---------------------------------------------------------------------------


def test_universal_infinitesimal_reference_brackets():
    alg = lambda6()
    mu1, mu2 = lambda6_reference_representatives()
    d = universal_infinitesimal(alg, [mu1, mu2])
    assert d.base.generators == ("t", "s")
    assert d.base.truncation_order == 1
    t, s, zero = parse_poly("t", d.base), parse_poly("s", d.base), d.base.zero()
    one = d.base.constant(1)
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
    out = d.bracket(embed_basis(d, 0), embed_basis(d, 2))
    s = parse_poly("s", d.base)
    assert out == (s, d.base.constant(1), d.base.zero())


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
    t = parse_poly("t", d.base)
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
        self_bracket = graded_bracket(alg, psi, psi)
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
    gb = lambda x, y: graded_bracket(alg, x, y)
    half_sym = (gb(a, b) + gb(b, a)).scale(F(-1, 2))
    assert defect[(1, 1)] == half_sym


# Relations in the leading parameters, as exponent tuple -> coefficient, and
# the largest exponents of t and s up to which every monomial of degree 1..3
# is in normal form; terms sit at such monomials and at t.
DEFECT_RELATIONS = {
    "none": ((), (3, 3)),
    "t^2": (({(2,): 1},), (1, 3)),
    "t^2 - t^3": (({(2,): 1, (3,): -1},), (1, 3)),
    "t^2 - s^2, t s": (({(2, 0): 1, (0, 2): -1}, {(1, 1): 1}), (0, 2)),
}


def _random_deformation(rng, relation):
    alg = random_leibniz_algebra(rng)
    rels, caps = DEFECT_RELATIONS[relation]
    fewest = max((len(m) for rel in rels for m in rel), default=1)
    names = ("t", "s", "u")[: rng.randint(fewest, 3)]
    base = LocalBase(names, rng.randint(2, 4))
    pad = lambda m: m + (0,) * (len(names) - len(m))
    # raw data, so a t^3 above the truncation order stays in the relation
    base = base.with_relations([tuple((pad(m), F(c)) for m, c in rel.items()) for rel in rels])
    monos = [
        m
        for m in LocalBase(names, 3).monomials()
        if 1 <= sum(m) <= 3 and all(e <= cap for e, cap in zip(m, caps))
    ]
    chosen = {pad((1,))} | set(rng.sample(monos, rng.randint(0, min(3, len(monos)))))
    terms = {m: random_cochain(rng, 2, alg.dim, density=0.6) for m in sorted(chosen)}
    return Deformation(alg, base, terms)


@pytest.mark.parametrize("relation", sorted(DEFECT_RELATIONS))
@pytest.mark.parametrize("seed", range(6))
def test_defect_equals_bracket_expansion(relation, seed):
    d = _random_deformation(random.Random(seed * 31 + 7), relation)
    assert leibniz_defect(d) == bracket_defect(d)


def test_defect_vanishes_on_a_unit_multiple_of_a_relation():
    # t^2 = (t^2 - t^3)(1 + t + t^2) + t^5 lies in the ideal at order 4,
    # since 1 - t is a unit
    rng = random.Random(41)
    alg = random_leibniz_algebra(rng)
    base = LocalBase(("t",), 4).with_relations([(((2,), F(1)), ((3,), F(-1)))])
    a = random_cochain(rng, 2, alg.dim, density=1.0)
    b = random_cochain(rng, 2, alg.dim, density=1.0)
    d = Deformation(alg, base, {(1,): a, (2,): b})
    defect = leibniz_defect(d)
    assert defect == bracket_defect(d)
    assert TruncatedPolynomial(base, {(2,): 1}).is_zero()
    assert defect[(2,)].is_zero()


def test_defect_sums_products_moved_down_by_a_nonhomogeneous_relation():
    # t^3 = s^2 in the base, so t * t^2 and t^2 * t land on s^2
    rng = random.Random(41)
    alg = random_leibniz_algebra(rng)
    base = LocalBase(("t", "s"), 4).with_relations([(((3, 0), F(1)), ((0, 2), F(-1)))])
    assert TruncatedPolynomial(base, {(3, 0): 1}) == TruncatedPolynomial(base, {(0, 2): 1})
    assert not TruncatedPolynomial(base, {(0, 2): 1}).is_zero()
    a = random_cochain(rng, 2, alg.dim, density=1.0)
    b = random_cochain(rng, 2, alg.dim, density=1.0)
    d = Deformation(alg, base, {(1, 0): a, (2, 0): b})
    defect = leibniz_defect(d)
    assert defect == bracket_defect(d)
    assert not defect[(0, 2)].is_zero()
    assert defect[(3, 0)].is_zero()


def test_versal_loop_uses_one_defect_per_order_and_no_brackets(monkeypatch):
    brackets = []
    bracket = Deformation.bracket
    monkeypatch.setattr(
        Deformation, "bracket", lambda self, x, y: brackets.append(1) or bracket(self, x, y)
    )
    circles = []
    circle = deform.circle
    monkeypatch.setattr(deform, "circle", lambda *a: circles.append(a) or circle(*a))
    passes = []  # the degrees of each call of the defect core
    core = deform._defect_in_degrees
    monkeypatch.setattr(
        deform, "_defect_in_degrees", lambda d, js: passes.append(list(js)) or core(d, js)
    )
    per_order = {}
    extend = deform.extend_to_order

    def counted_extend(d, k):
        start = len(passes)
        out = extend(d, k)
        per_order[k] = passes[start:]
        return out

    monkeypatch.setattr(deform, "extend_to_order", counted_extend)
    versal_construct(lambda6(), 20)
    assert brackets == []
    # every order computes its own degree alone, and the post-check reuses that pass
    assert per_order == {k: [[k + 1]] for k in range(1, 20)}
    # the four products of two degree-1 terms; every later defect entry is zero
    assert len(circles) <= 4


# ---------------------------------------------------------------------------
# obstructions and extension
# ---------------------------------------------------------------------------


def test_lambda6_obstructions_vanish():
    alg = lambda6()
    d = universal_infinitesimal(alg, lambda6_reference_representatives())
    d = d.with_base(d.base.with_truncation(2))
    # every degree-2 defect entry is zero, so none is split
    assert obstruction_classes(d, 1) == {}


def test_extension_of_lambda6_adds_no_terms():
    alg = lambda6()
    d = universal_infinitesimal(alg, lambda6_reference_representatives())
    d = d.with_base(d.base.with_truncation(2))
    out, classes = extend_to_order(d, 1)
    assert out.terms == d.terms
    assert classes == {}


def test_obstructed_example_reports_nonzero_class():
    # on the 1-dimensional abelian algebra every 2-cochain is a cocycle and the
    # coboundary vanishes, so the quadratic part projects to itself
    alg = abelian(1)
    mu = Cochain.from_entries(2, 1, {(0, 0): {0: 1}})
    d = universal_infinitesimal(alg, [mu])
    d = d.with_base(d.base.with_truncation(2))
    out, classes = extend_to_order(d, 1)
    hl3 = cohomology(alg, 3)
    expected = hl3.project_to_classes(
        graded_bracket(alg, mu, mu).scale(F(-1, 2))
    )
    assert classes == {(2,): expected}
    assert any(expected)
    # the entry is all class: its coboundary part, and so its new term, is zero
    assert out.terms == d.terms


CORPUS = {
    "lambda6": lambda6,
    "nf4": nf4,
    "h3": h3,
    "q4": q4,
    "abelian1": lambda: abelian(1),
    "abelian2": lambda: abelian(2),
    "abelian3": lambda: abelian(3),
}


# Every split of every order: X_u - b_u - sum_j c_j rho_j vanishes at each
# free column of the degree-3 coboundary, b_u is a cocycle of zero class, and
# the entries that are not split are zero.
@pytest.mark.parametrize("algebra, max_order", [("nf4", 3), ("h3", 3), ("q4", 3), ("abelian2", 3)])
def test_obstruction_classes_split_each_defect_entry(monkeypatch, algebra, max_order):
    alg = CORPUS[algebra]()
    hl3 = cohomology(alg, 3)
    pivots = set(rref(coboundary_matrix(alg, 3))[1])
    splits = []
    real = deform.obstruction_classes
    monkeypatch.setattr(deform, "obstruction_classes", lambda d, k: splits.append((d, k, real(d, k))) or splits[-1][2])
    versal_construct(alg, max_order)
    assert [k for _, k, _ in splits] == list(range(1, max_order))
    for d, k, split in splits:
        defect = {m: e for m, e in leibniz_defect(d).items() if sum(m) == k + 1 and not e.is_zero()}
        assert set(split) == set(defect)
        for mono, (coords, b) in split.items():
            assert coboundary(alg, b).is_zero() and not any(hl3.project_to_classes(b))
            w = defect[mono] - b
            for c, rho in zip(coords, hl3.class_representatives):
                w = w - rho.scale(c)
            assert set(w.entries) <= pivots


@pytest.mark.parametrize(
    "algebra, max_order",
    [("lambda6", 20), ("nf4", 3), ("h3", 4), ("abelian1", 12), ("abelian2", 4), ("abelian3", 2)],
)
def test_versal_extends_once_per_order_and_relates_the_base_once(monkeypatch, algebra, max_order):
    orders, related = [], []
    extend = deform.extend_to_order
    monkeypatch.setattr(deform, "extend_to_order", lambda d, k: orders.append(k) or extend(d, k))
    with_relations = LocalBase.with_relations
    monkeypatch.setattr(
        LocalBase, "with_relations", lambda base, extra: related.append(len(extra)) or with_relations(base, extra)
    )
    d, relations = versal_construct(CORPUS[algebra](), max_order)
    assert orders == list(range(1, max_order))
    assert related == [len(d.base.relations)] == [sum(map(len, relations.values()))]


# Order k computes each product of two terms whose degrees sum to k+1 once,
# and the post-check two more per new term; nothing is landed or computed
# again.  h3 makes 1,039 of them, abelian(3) 729 and abelian(2) 64.
@pytest.mark.parametrize("algebra, max_order", [("abelian3", 2), ("h3", 4), ("abelian2", 6)])
def test_each_order_computes_its_circle_products_once(monkeypatch, algebra, max_order):
    circles, extended = [], []
    circle = deform.circle
    monkeypatch.setattr(deform, "circle", lambda *a: circles.append(a) or circle(*a))
    extend = deform.extend_to_order
    monkeypatch.setattr(deform, "extend_to_order", lambda d, k: extended.append(extend(d, k)) or extended[-1])
    versal_construct(CORPUS[algebra](), max_order)
    degrees = [sum(m) for m in extended[-1][0].terms]
    pairs = sum(1 for a in degrees for b in degrees if a + b <= max_order)
    assert len(circles) == pairs + 2 * sum(1 for a in degrees if a > 1)


# terms move into the related base by their monomials' normal forms, never by
# substituting the generators into themselves (52 and 16 calls when they were)
@pytest.mark.parametrize("algebra", ["h3", "abelian2"])
def test_versal_construct_substitutes_nothing(monkeypatch, algebra):
    calls = []
    substitute = TruncatedPolynomial.substitute
    monkeypatch.setattr(TruncatedPolynomial, "substitute", lambda *a: calls.append(a) or substitute(*a))
    _, relations = versal_construct(CORPUS[algebra](), 4)
    assert relations
    assert calls == []


def _nf4_to_order_2():
    alg = nf4()
    d = universal_infinitesimal(alg, cohomology(alg, 2).class_representatives)
    return d.with_base(d.base.with_truncation(2))


def test_extension_post_check_rejects_a_wrong_solution(monkeypatch):
    # NF4's order-2 defect has nonzero entries with zero class
    assert isinstance(extend_to_order(_nf4_to_order_2(), 1)[0], Deformation)
    solves = []
    real = graded.solve
    monkeypatch.setattr(graded, "solve", lambda m, rhs: solves.append(rhs) or {k: 2 * x for k, x in real(m, rhs).items()})
    with pytest.raises(LeibnizDeformError, match="extension failed to kill the defect"):
        extend_to_order(_nf4_to_order_2(), 1)
    assert solves


@pytest.mark.parametrize(
    "algebra, max_order",
    [("lambda6", 20), ("nf4", 3), ("h3", 4), ("abelian1", 12), ("abelian2", 4), ("abelian3", 2)],
)
def test_versal_construct_reaches_no_internal_error(algebra, max_order):
    try:
        d, _ = versal_construct(CORPUS[algebra](), max_order)
    except LeibnizDeformError as exc:
        pytest.fail(f"versal_construct raised {exc!r}")
    assert all(c.is_zero() for c in leibniz_defect(d).values())


# ---------------------------------------------------------------------------
# Massey brackets
# ---------------------------------------------------------------------------


def _paper_hl2():
    alg = lambda6()
    return alg, with_representatives(cohomology(alg, 2), lambda6_reference_representatives(), alg)


def test_massey2_reference_classes_vanish():
    alg, hl2 = _paper_hl2()
    for i, j in ((0, 0), (0, 1), (1, 1)):
        coords, rep = massey2(alg, hl2, unit(2, i), unit(2, j))
        assert not any(coords)
        assert rep.is_zero()


def test_massey2_zero_class_gives_zero():
    alg, hl2 = _paper_hl2()
    coords, rep = massey2(alg, hl2, (0, 0), (1, 1))
    assert not any(coords) and rep.is_zero()


def test_massey2_independent_of_representatives():
    alg = lambda6()
    mu1, mu2 = lambda6_reference_representatives()
    g = Cochain.from_entries(1, 3, {(0,): {1: 2}, (2,): {0: -1}})
    shifted = with_representatives(
        cohomology(alg, 2), [mu1, mu2 + coboundary(alg, g)], alg
    )
    plain = with_representatives(cohomology(alg, 2), [mu1, mu2], alg)
    for i, j in ((0, 0), (0, 1), (1, 1)):
        c1, _ = massey2(alg, plain, unit(2, i), unit(2, j))
        c2, _ = massey2(alg, shifted, unit(2, i), unit(2, j))
        assert c1 == c2


# At order 2 the defect of the universal infinitesimal deformation is
# -(1/2) sum [psi_m, psi_m'] over ordered pairs, and [,] is symmetric in
# degree 1: -<i,j> at t_i t_j and -(1/2)<i,i> at t_i^2.  This pins the circle
# products landed by deform against graded's brackets.
@pytest.mark.parametrize("algebra", ["lambda6", "nf4", "h3", "abelian2", "abelian3"])
def test_order_two_obstruction_classes_are_minus_the_massey_pair_brackets(algebra):
    alg = CORPUS[algebra]()
    hl2 = cohomology(alg, 2)
    d = universal_infinitesimal(alg, hl2.class_representatives)
    split = obstruction_classes(d.with_base(d.base.with_truncation(2)), 1)
    h = hl2.dim
    expected = {}
    for i, j in itertools.combinations_with_replacement(range(h), 2):
        coords, _ = graded.massey2(alg, hl2, unit(h, i), unit(h, j))
        mono = tuple(int(k == i) + int(k == j) for k in range(h))
        expected[mono] = tuple(-c / 2 if i == j else -c for c in coords)
    # an entry that is not split is zero, and so is its class
    zero = (F(0),) * cohomology(alg, 3).dim
    assert set(split) <= set(expected)
    assert {m: split[m][0] if m in split else zero for m in expected} == expected
    # lambda6 and NF4 are unobstructed at order 2, the others are not
    assert any(map(any, expected.values())) == (algebra not in ("lambda6", "nf4"))


def test_massey3_reference_triples_vanish_with_zero_witnesses():
    alg, hl2 = _paper_hl2()
    for t in ((0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 1, 1)):
        coords, rep, wits = massey3(alg, hl2, tuple(unit(2, i) for i in t))
        assert not any(coords)
        assert rep.is_zero()
        assert [pair for pair, _ in wits] == [(0, 1), (0, 2), (1, 2)]
        assert all(w.is_zero() for _, w in wits)


def test_massey3_triple_with_zero_class():
    alg, hl2 = _paper_hl2()
    coords, rep, _ = massey3(alg, hl2, ((0, 0), unit(2, 0), unit(2, 1)))
    assert not any(coords) and rep.is_zero()


def test_massey3_independent_of_witness_choice():
    alg, hl2 = _paper_hl2()
    mu1, mu2 = lambda6_reference_representatives()
    baseline, _, _ = massey3(alg, hl2, tuple(unit(2, i) for i in (0, 1, 1)))
    shifted, _, wits = massey3(
        alg,
        hl2,
        tuple(unit(2, i) for i in (0, 1, 1)),
        witnesses={(0, 1): mu1, (1, 2): mu2, (0, 2): Cochain(2, 3, {})},
    )
    assert baseline == shifted
    assert dict(wits)[(0, 1)] == mu1


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
    out = push_forward(d, target, {"t": parse_poly("t", target), "s": target.zero()})
    mu1, _ = lambda6_reference_representatives()
    assert out.terms == {(1,): mu1}


def test_pushforward_kill_t():
    alg, d = _versal()
    target = LocalBase(("s",), 3)
    out = push_forward(d, target, {"t": target.zero(), "s": parse_poly("s", target)})
    _, mu2 = lambda6_reference_representatives()
    assert out.terms == {(1,): mu2}


def test_pushforward_identity_map():
    alg, d = _versal()
    images = {g: parse_poly(g, d.base) for g in d.base.generators}
    out = push_forward(d, d.base, images)
    assert out.terms == d.terms


def _abelian2_terms_over_a_free_base():
    """A deformation of abelian(2) with a term at every monomial of degree 1
    and 2, and abelian(2)'s versal base to order 2, which has relations."""
    alg = abelian(2)
    d, relations = versal_construct(alg, 2)
    related = d.base
    assert relations[2] and related.relations
    free = LocalBase(related.generators, 2)
    reps = cohomology(alg, 2).class_representatives
    terms = {m: reps[i % len(reps)].scale(i) for i, m in enumerate(free.monomials()) if i}
    return Deformation(alg, free, terms), related


def test_with_base_is_the_identity_push_forward():
    raw, related = _abelian2_terms_over_a_free_base()
    moved = raw.with_base(related)
    # the relations redistribute the degree-2 terms
    assert moved.terms != raw.terms
    assert moved.terms == push_forward(raw, related, {g: parse_poly(g, related) for g in related.generators}).terms
    with pytest.raises(DimensionMismatch):
        raw.with_base(LocalBase(related.generators[::-1], 2))


def test_with_base_lands_terms_without_push_forward_or_substitute(monkeypatch):
    raw, related = _abelian2_terms_over_a_free_base()
    calls = []
    monkeypatch.setattr(pushforward, "push_forward", lambda *a: calls.append("push_forward"))
    monkeypatch.setattr(TruncatedPolynomial, "substitute", lambda *a: calls.append("substitute"))
    assert raw.with_base(related).terms != raw.terms
    assert calls == []


def test_with_base_refuses_a_base_where_an_old_relation_survives():
    d, relations = versal_construct(abelian(1), 2)
    assert [render_poly(d.base, p.data()) for p in relations[2]] == ["t^2"]
    with pytest.raises(PreconditionError) as info:
        d.with_base(LocalBase(("t",), 2))
    assert str(info.value) == "relation t^2 maps to t^2, not 0"


def test_pushforward_rejects_nonzero_constant_term():
    alg, d = _versal()
    target = LocalBase(("t",), 3)
    with pytest.raises(PreconditionError):
        push_forward(d, target, {"t": target.constant(1), "s": target.zero()})


def test_pushforward_rejects_image_of_unknown_generator():
    alg, d = _versal()
    target = LocalBase(("x",), 3)
    x = parse_poly("x", target)
    with pytest.raises(PreconditionError, match="'q', which is not a source generator"):
        push_forward(d, target, {"t": x, "s": target.zero(), "q": target.constant(1)})


def test_pushforward_sends_every_source_relation_to_zero():
    d, relations = versal_construct(abelian(1), 2)
    assert [p.data() for p in relations[2]] == [(((2,), F(1)),)]  # t^2
    free = LocalBase(("x",), 2)
    with pytest.raises(PreconditionError, match=r"relation t\^2 maps to x\^2, not 0"):
        push_forward(d, free, {"t": parse_poly("x", free)})
    assert push_forward(d, free, {"t": free.zero()}).terms == {}
    related = free.with_relations([TruncatedPolynomial(free, {(2,): 1})])
    assert push_forward(d, related, {"t": parse_poly("x", related)}).terms == d.terms


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
        tuple(base.constant(1) if i == j else base.zero() for j in range(n)) for i in range(n)
    )


def test_equivalence_identity_on_itself():
    alg, d = _versal()
    ok, detail = check_equivalence(_identity_phi(d.base, 3), d, d)
    assert ok and detail is None


def test_equivalence_detects_different_brackets():
    alg, d = _versal()
    collapsed = push_forward(
        d, d.base, {"t": parse_poly("t", d.base), "s": d.base.zero()}
    )
    ok, detail = check_equivalence(_identity_phi(d.base, 3), d, collapsed)
    assert not ok
    assert detail[:2] == (0, 2)  # brackets first differ at [e1, e3]


def test_equivalence_of_representative_change():
    alg = lambda6()
    _, mu2 = lambda6_reference_representatives()
    g = Cochain.from_entries(1, 3, {(0,): {0: 1, 1: -2}, (1,): {2: 3}, (2,): {0: 5}})
    d1 = universal_infinitesimal(alg, [mu2 + coboundary(alg, g)])
    d2 = universal_infinitesimal(alg, [mu2])
    t = parse_poly("t", d1.base)
    phi = tuple(
        tuple(
            (d1.base.constant(1) if i == j else d1.base.zero()) + t * g.eval_basis((j,))[i]
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
    d, relations = versal_construct(alg, 2, [mu])
    assert list(relations) == [2]
    (poly,) = relations[2]
    assert poly.coeffs == {(2,): F(1)}
    assert d.base.relations != ()
    assert all(c.is_zero() for c in leibniz_defect(d).values())


def test_versal_nf3_records_no_relation():
    # NF3 is lambda6 with its basis renamed, and lambda6's base is smooth
    d, relations = versal_construct(nf3(), 4)
    assert relations == {}
    assert d.base.relations == ()
    assert all(c.is_zero() for c in leibniz_defect(d).values())


GOLDEN = Path(__file__).resolve().parent.parent / "bench" / "golden"


def _pairwise_massey_rank(golden):
    doc = json.loads((GOLDEN / f"{golden}.json").read_text())
    return bareiss_rank([[F(x) for x in pair["class"]] for pair in doc["pairwise"]])


# The quadratic parts of the kappa_j span as much as the pairwise Massey
# classes in the goldens: the order-2 entries are minus those brackets.  The
# kappa_j per lowest degree are not pinned, as they depend on the basis: h3
# has 14 quadratic and 3 cubic ones in its standard basis, 17 quadratic ones
# under a shear.
@pytest.mark.parametrize(
    "algebra, max_order, rank, massey",
    [("h3", 4, 11, "massey-h3"), ("abelian2", 2, 15, "massey-abelian2"), ("abelian3", 2, 81, None)],
)
def test_versal_relations_have_the_quadratic_rank_of_the_massey_pairs(algebra, max_order, rank, massey):
    d, relations = versal_construct(CORPUS[algebra](), max_order)
    quadratic = [m for m in d.base.monomials() if sum(m) == 2]
    kappa = [p for polys in relations.values() for p in polys]
    assert bareiss_rank([[p.coeff(m) for m in quadratic] for p in kappa]) == rank
    if massey:
        assert rank == _pairwise_massey_rank(massey)
    assert all(c.is_zero() for c in leibniz_defect(d).values())


# HS(k) = dim (m^k + J)/(m^(k+1) + J) of the versal base ring does not depend
# on the basis: it is the same at the standard basis and under both shears
# f_n = e_n +- e_1.
HILBERT_SAMUEL = {"h3": (1, 8, 25, 56, 103), "q4": (1, 6, 21, 53, 109), "abelian2": (1, 8, 21, 32, 50)}


@pytest.mark.parametrize("sign", [0, 1, -1])
@pytest.mark.parametrize("algebra", sorted(HILBERT_SAMUEL))
def test_versal_base_has_one_hilbert_samuel_function_in_every_basis(algebra, sign):
    alg = CORPUS[algebra]()
    if sign:
        n = alg.dim
        alg = conjugate(alg, Matrix(n, n, [{i: 1, **({n - 1: sign} if i == 0 else {})} for i in range(n)]))
    d, _ = versal_construct(alg, 4)
    assert hilbert_samuel(d.base) == HILBERT_SAMUEL[algebra]


# Every pair bracket of Q4 vanishes, so the coefficient of kappa_j at
# t_a t_b t_c is a fixed multiple of the triple bracket <a, b, c>_j as the
# massey command computes it: 1 for three distinct indices, 1/2 for t_a^2 t_b.
# No t_a^3 carries a nonzero bracket or class.
def test_q4_cubic_relations_are_its_triple_brackets():
    alg = q4()
    hl2, hl3 = cohomology(alg, 2), cohomology(alg, 3)
    h, reps = hl2.dim, hl2.class_representatives
    d = universal_infinitesimal(alg, reps)
    d, quadratic = extend_to_order(d.with_base(d.base.with_truncation(3)), 1)
    assert not any(map(any, quadratic.values()))
    _, cubic = extend_to_order(d, 2)
    pairs = itertools.combinations_with_replacement(range(h), 2)
    wits = {(a, b): graded.massey_witness(alg, massey2(alg, hl2, unit(h, a), unit(h, b))[1]) for a, b in pairs}
    zero = (F(0),) * hl3.dim
    nonzero = 0
    for a, b, c in itertools.combinations_with_replacement(range(h), 3):
        triple, _ = graded._triple_bracket(
            alg, [reps[a], reps[b], reps[c]], {(0, 1): wits[(a, b)], (0, 2): wits[(a, c)], (1, 2): wits[(b, c)]}
        )
        factor = {3: 1, 2: F(1, 2), 1: 0}[len({a, b, c})]
        mono = tuple((a, b, c).count(x) for x in range(h))
        assert cubic.get(mono, zero) == tuple(factor * x for x in triple)
        assert factor or not any(triple)
        nonzero += any(triple)
    assert nonzero == 12
    assert set(cubic) <= {m for m in d.base.monomials() if sum(m) == 3}


def test_abelian2_twelfth_relation_adds_nothing_to_the_ideal():
    # a kappa_j that depends on the others stays, and adds nothing to the ideal
    d, _ = versal_construct(abelian(2), 3)
    rels = d.base.relations
    assert render_poly(d.base, rels[11]) == "t2*t7 + t3*t6 - t4*t5 + t4*t8"
    others = LocalBase(d.base.generators, 3, rels[:11] + rels[12:])
    assert ideal_member(others, *map(dict, rels))
    assert ideal_member(d.base, *map(dict, others.relations))


# h3 runs to order 3 only: at order 4 its Macaulay matrix has 507 rows, and
# the dense oracle takes about 10 s on it.
@pytest.mark.parametrize("algebra, max_order", [("h3", 3), ("abelian2", 2), ("abelian3", 2)])
def test_versal_defect_lies_in_the_recorded_ideal(algebra, max_order):
    d, _ = versal_construct(CORPUS[algebra](), max_order)
    # the defect over the base without relations, which reduces nothing
    plain = Deformation(d.algebra, LocalBase(d.base.generators, max_order), d.terms)
    flats = {m: flat(entry) for m, entry in bracket_defect(plain).items()}
    width = len(flats[d.base.zero_monomial()])
    coordinates = [{m: flat[i] for m, flat in flats.items() if flat[i]} for i in range(width)]
    assert any(coordinates)
    assert ideal_member(d.base, *filter(None, coordinates))


def test_versal_requires_positive_order():
    with pytest.raises(PreconditionError):
        versal_construct(lambda6(), 0)
