"""Value semantics of the package's record classes.

Immutable records (algebras, cochains, bases and subspace bases) compare
by their fields and refuse assignment, and only algebras, which key the
caches, hash; the mutable ones (cohomology spaces and deformations) are
plain attribute holders.  All of them take their fields by position or by
keyword and validate them on construction.
"""

from fractions import Fraction

import pytest

from helpers import from_flat
from leibniz_deform import poly
from leibniz_deform.algebra import LeibnizAlgebra, abelian, lambda6
from leibniz_deform.cochain import Cochain, CohomologySpace, cohomology
from leibniz_deform.deform import Deformation
from leibniz_deform.errors import DimensionMismatch, PreconditionError
from leibniz_deform.linalg import SubspaceBasis
from leibniz_deform.poly import LocalBase, TruncatedPolynomial
from leibniz_deform.pushforward import parse_poly
from leibniz_deform.values import F0, F1

F = Fraction


def _table(n, entries=()):
    """An n-dimensional structure constant table with the given nonzero entries."""
    t = [[[F0] * n for _ in range(n)] for _ in range(n)]
    for i, j, k, c in entries:
        t[i][j][k] = F(c)
    return tuple(tuple(tuple(row) for row in plane) for plane in t)


# Two equal instances built separately, and one that differs, per immutable record.
EQUAL_AND_DIFFERENT = {
    "LeibnizAlgebra": lambda: (
        LeibnizAlgebra(3, _table(3, [(0, 2, 1, 1), (2, 2, 0, 1)])),
        lambda6(),
        LeibnizAlgebra(3, _table(3, [(0, 2, 1, 1), (2, 2, 0, 2)])),
    ),
    "LeibnizAlgebra from_brackets": lambda: (
        LeibnizAlgebra.from_brackets(3, {(0, 2): {1: "1/2"}, (2, 2): {0: 1, 2: 0}}),
        LeibnizAlgebra(3, _table(3, [(0, 2, 1, F(1, 2)), (2, 2, 0, 1)])),
        LeibnizAlgebra.from_brackets(3, {(0, 2): {1: "1/2"}, (2, 2): {2: 1}}),
    ),
    "Cochain": lambda: (
        Cochain.from_entries(1, 2, {(0,): {1: 3}}),
        from_flat(1, 2, (F0, F(3), F0, F0)),
        Cochain(1, 2, {1: 3, 3: 1}),
    ),
    "Cochain arity": lambda: (
        Cochain(0, 4, {}),
        Cochain.from_entries(0, 4, {(): {2: 0}}),
        Cochain(1, 2, {}),
    ),
    "LocalBase": lambda: (
        LocalBase(("t", "s"), 2),
        LocalBase(("t", "s"), 2, ()),
        LocalBase(("t", "s"), 3),
    ),
    "LocalBase relations": lambda: (
        LocalBase(("t",), 3, ((((2,), F1),),)),
        LocalBase(("t",), 3).with_relations([TruncatedPolynomial(LocalBase(("t",), 3), {(2,): 1})]),
        LocalBase(("t",), 3, ((((3,), F1),),)),
    ),
    "SubspaceBasis": lambda: (
        SubspaceBasis(2, ({0: 1},)),
        SubspaceBasis(2, ({0: F(1)},)),
        SubspaceBasis(2, ({1: 1},)),
    ),
}


@pytest.mark.parametrize("name", sorted(EQUAL_AND_DIFFERENT))
def test_equal_records_compare_equal_and_only_algebras_hash(name):
    a, b, c = EQUAL_AND_DIFFERENT[name]()
    assert a is not b
    assert a == b and not (a != b)
    assert a != c and not (a == c)
    assert a != object()
    if isinstance(a, LeibnizAlgebra):
        assert hash(a) == hash(b) and len({a, b, c}) == 2
    else:
        with pytest.raises(TypeError, match="unhashable"):
            hash(a)


def test_records_differ_from_other_classes_and_from_tuples():
    zero = Cochain(0, 2, {})
    assert zero != SubspaceBasis(2, (zero.entries,))
    assert zero != (0, 2, {})


def test_lru_cache_keys_hit_on_equal_algebras():
    first = cohomology(lambda6(), 2)
    hits = cohomology.cache_info().hits
    assert cohomology(LeibnizAlgebra(3, _table(3, [(0, 2, 1, 1), (2, 2, 0, 1)])), 2) is first
    assert cohomology.cache_info().hits == hits + 1


def test_keyword_and_positional_construction_agree():
    table = _table(2, [(1, 1, 0, 1)])
    alg = LeibnizAlgebra(dim=2, structure_constants=table)
    assert alg == LeibnizAlgebra(2, table)

    entries = {1: 1}
    assert Cochain(arity=1, dim=2, entries=entries) == Cochain(1, 2, entries)

    base = LocalBase(generators=("t",), truncation_order=2)
    assert base == LocalBase(("t",), 2) and base.relations == ()

    assert SubspaceBasis(ambient_dim=2, vectors=({0: 1},)) == SubspaceBasis(2, ({0: 1},))

    hl2 = cohomology(lambda6(), 2)
    space = CohomologySpace(
        degree=2,
        dim_cocycles=hl2.dim_cocycles,
        dim_coboundaries=hl2.dim_coboundaries,
        class_representatives=hl2.class_representatives,
        _project=hl2._project,
    )
    positional = CohomologySpace(
        2, hl2.dim_cocycles, hl2.dim_coboundaries, hl2.class_representatives, hl2._project
    )
    for s in (space, positional):
        assert (s.degree, s.dim, s.dim_cocycles, s.dim_coboundaries) == (2, 2, 8, 6)
        assert s.project_to_classes(hl2.class_representatives[1]) == (F0, F1)


def test_deformation_terms_default_to_a_fresh_empty_dict():
    alg, base = abelian(2), LocalBase(("t",), 2)
    first, second = Deformation(alg, base), Deformation(algebra=alg, base=base)
    assert first.terms == {} and second.terms == {}
    first.terms[(1,)] = Cochain(2, 2, {})
    assert second.terms == {}
    assert Deformation(alg, base).terms == {}


def test_deformation_keeps_its_own_copy_of_the_nonzero_terms():
    alg, base = abelian(1), LocalBase(("t",), 2)
    psi = Cochain(2, 1, {0: 1})
    given = {(1,): psi, (2,): Cochain(2, 1, {})}
    d = Deformation(alg, base, given)
    assert d.terms == {(1,): psi}
    given[(1,)] = Cochain(2, 1, {})
    assert d.terms == {(1,): psi}
    assert Deformation(algebra=alg, base=base, terms={(1,): psi}).terms == d.terms


@pytest.mark.parametrize(
    "record, field",
    [
        (lambda6(), "dim"),
        (lambda6(), "structure_constants"),
        (Cochain(1, 2, {}), "entries"),
        (Cochain(1, 2, {}), "arity"),
        (LocalBase(("t",), 2), "truncation_order"),
        (LocalBase(("t",), 2), "relations"),
        (SubspaceBasis(1, ()), "vectors"),
    ],
    ids=lambda x: x if isinstance(x, str) else type(x).__name__,
)
def test_immutable_record_fields_cannot_be_assigned_or_deleted(record, field):
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, before)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert getattr(record, field) is before


def test_local_base_echelon_is_built_once_per_instance(monkeypatch):
    built = []

    class CountingReducer(poly.Reducer):
        def __init__(self, *args, **kwargs):
            built.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(poly, "Reducer", CountingReducer)
    base = LocalBase(("t",), 4).with_relations([TruncatedPolynomial(LocalBase(("t",), 4), {(2,): 1})])
    first = base._echelon
    assert base._echelon is first
    assert parse_poly("t", base) * parse_poly("t", base) == base.zero()  # normalizes through it
    assert len(built) == 1
    # an equal instance builds its own, and equality ignores the cache
    twin = LocalBase(base.generators, base.truncation_order, base.relations)
    assert twin == base
    assert twin._echelon is not first
    assert len(built) == 2


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: LeibnizAlgebra(2, _table(3)), "wrong shape"),
        (lambda: LeibnizAlgebra(2, (_table(2)[0], _table(2)[1][:1])), "wrong shape"),
        (lambda: LeibnizAlgebra(2, (((F0,) * 2, (F0,)), _table(2)[1])), "wrong shape"),
        (lambda: LeibnizAlgebra.from_brackets(2, {(0, 2): {0: 1}}), r"bracket index \(0,2\) out of range"),
        (lambda: LeibnizAlgebra.from_brackets(2, {(1, 0): {-1: 1}}), "basis index -1 out of range"),
        (lambda: Cochain.from_entries(1, 2, {(2,): {0: 1}}), "bad input tuple"),
        (lambda: Cochain(-1, 2, ()), "nonnegative"),
        (lambda: SubspaceBasis(2, ({0: 1}, {2: 1})), "ambient dimension"),
        (lambda: LocalBase(("t",), 2, ((((1, 1), F1),),)), "wrong arity"),
        (lambda: Deformation(abelian(2), LocalBase(("t",), 2), {(1, 0): Cochain(2, 2, {})}), "wrong arity"),
        (lambda: Deformation(abelian(2), LocalBase(("t",), 2), {(1,): Cochain(1, 2, {})}), "2-cochains"),
    ],
)
def test_construction_rejects_mismatched_dimensions(build, message):
    with pytest.raises(DimensionMismatch, match=message):
        build()


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: LocalBase(("t", "t"), 2), "duplicate generator"),
        (lambda: LocalBase(("t",), -1), "nonnegative"),
        (lambda: LocalBase(("t",), 2, ((((0,), F1), ((1,), F1)),)), "constant term"),
        (lambda: Deformation(abelian(1), LocalBase(("t",), 2), {(0,): Cochain(2, 1, {0: 1})}), "implicit"),
    ],
)
def test_construction_rejects_violated_preconditions(build, message):
    with pytest.raises(PreconditionError, match=message):
        build()
