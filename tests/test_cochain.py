import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    BL2_COBOUNDARIES,
    ZL2_COCYCLES,
    ZL2_CONSTRAINTS,
    constraint_vector,
    dense,
    direct_coboundary,
    expected_delta_g,
    flat,
    from_rows,
    matmul,
    misoriented_nf4,
    nf3,
    q4,
    random_cochain,
    random_leibniz_algebra,
    sl2,
)
from leibniz_deform.algebra import abelian, lambda6
from leibniz_deform.cochain import (
    Cochain,
    cocycle_relations,
    coboundary,
    coboundary_matrix,
    cohomology,
)
from leibniz_deform.errors import DimensionMismatch, FormatError, PreconditionError
from leibniz_deform.graded import circle
from leibniz_deform.linalg import image_basis, kernel_basis, rank
from leibniz_deform.reports import cochain_to_json
from leibniz_deform.reps import cochain_from_json, lambda6_reference_representatives, with_representatives

F = Fraction


def test_coboundary_of_zero_is_zero():
    alg = lambda6()
    assert coboundary(alg, Cochain(2, 3, {})).is_zero()


def test_coboundary_over_abelian_is_zero():
    alg = abelian(3)
    rng = random.Random(0)
    for arity in (0, 1, 2):
        f = random_cochain(rng, arity, 3)
        assert coboundary(alg, f).is_zero()


def test_delta_g_matches_reference_table_on_basis():
    alg = lambda6()
    for i in range(3):
        for j in range(3):
            g_rows = [[F(0)] * 3 for _ in range(3)]
            g_rows[i][j] = F(1)
            g = Cochain.from_entries(1, 3, {(i,): {j: 1}})
            assert coboundary(alg, g) == expected_delta_g(g_rows)


def test_delta_g_matches_reference_table_on_random():
    alg = lambda6()
    rng = random.Random(5)
    for _ in range(10):
        g_rows = [[F(rng.randint(-3, 3)) for _ in range(3)] for _ in range(3)]
        g = Cochain.from_entries(
            1, 3, {(i,): {j: g_rows[i][j] for j in range(3)} for i in range(3)}
        )
        assert coboundary(alg, g) == expected_delta_g(g_rows)


def test_delta_g_column_e1_e3():
    # (dg)(e1,e3) = (g_1^3 - g_2^1) e1 + (g_3^3 + g_1^1 - g_2^2) e2 - g_2^3 e3
    alg = lambda6()
    g = Cochain.from_entries(
        1, 3, {(0,): {0: 1, 2: 7}, (1,): {0: 2, 1: 3, 2: 5}, (2,): {2: 11}}
    )
    assert coboundary(alg, g).eval_basis((0, 2)) == (F(7 - 2), F(11 + 1 - 3), F(-5))


def test_lambda6_degree2_dimensions():
    space = cohomology(lambda6(), 2)
    assert (space.dim_cocycles, space.dim_coboundaries, space.dim) == (8, 6, 2)


def test_lambda6_degree3_dimensions_consistent():
    alg = lambda6()
    space = cohomology(alg, 3)
    assert space.dim_coboundaries == 27 - cohomology(alg, 2).dim_cocycles
    assert space.dim == space.dim_cocycles - space.dim_coboundaries


def test_lambda6_zl2_span_matches_reference_family():
    alg = lambda6()
    refs = [Cochain.from_entries(2, 3, e) for e in ZL2_COCYCLES]
    for r in refs:
        assert not coboundary_matrix(alg, 2).matvec(r.entries)
    refs = [flat(r) for r in refs]
    kernel = [dense(v, 27) for v in kernel_basis(coboundary_matrix(alg, 2)).vectors]
    assert rank(from_rows(refs)) == 8
    assert rank(from_rows(kernel)) == 8
    assert rank(from_rows(refs + kernel)) == 8


def test_lambda6_bl2_span_matches_reference_family():
    alg = lambda6()
    refs = [flat(Cochain.from_entries(2, 3, e)) for e in BL2_COBOUNDARIES]
    image = [dense(v, 27) for v in image_basis(coboundary_matrix(alg, 1)).vectors]
    assert rank(from_rows(refs)) == 6
    assert rank(from_rows(refs + image)) == 6


def test_lambda6_zl2_constraints_annihilate_kernel():
    kernel = kernel_basis(coboundary_matrix(lambda6(), 2)).vectors
    vectors = [constraint_vector(c) for c in ZL2_CONSTRAINTS]
    for v in vectors:
        for kv in kernel:
            assert sum(v[j] * x for j, x in kv.items()) == 0
    # 19 independent constraints cut the 27-dimensional space down to the kernel
    assert rank(from_rows(vectors)) == 19


def test_abelian_dim1_degree2():
    space = cohomology(abelian(1), 2)
    assert (space.dim_cocycles, space.dim_coboundaries, space.dim) == (1, 0, 1)


# (ZL^p, BL^p) for p = 1, 2, 3.  NF3 is lambda6 with its basis renamed, so it
# has lambda6's dimensions (in degree 3 as computed, 21 and 19, not the
# paper's 20 and 18); sl(2) is semisimple, so every HL^p is 0; the coboundary
# of an abelian algebra is 0, so ZL^p holds all n^(p+1) coordinates; Q4 has
# HL^p = 4, 6, 23.
@pytest.mark.parametrize("algebra, expected", [
    (nf3, [(3, 1), (8, 6), (21, 19)]),
    (sl2, [(3, 3), (6, 6), (21, 21)]),
    (lambda: abelian(2), [(4, 0), (8, 0), (16, 0)]),
    (q4, [(7, 3), (15, 9), (72, 49)]),
], ids=["nf3", "sl2", "abelian2", "q4"])
def test_cohomology_dimensions_equal_known_answers(algebra, expected):
    alg = algebra()
    spaces = [cohomology(alg, p) for p in (1, 2, 3)]
    assert [(s.dim_cocycles, s.dim_coboundaries, s.dim) for s in spaces] == [(z, b, z - b) for z, b in expected]


def test_representatives_are_cocycles_and_projection_kills_coboundaries():
    alg = lambda6()
    space = cohomology(alg, 2)
    for rep in space.class_representatives:
        assert coboundary(alg, rep).is_zero()
    rng = random.Random(9)
    for _ in range(10):
        g = random_cochain(rng, 1, 3, density=1.0)
        dg = coboundary(alg, g)
        assert space.project_to_classes(dg) == (F(0), F(0))


def test_project_recovers_class_coordinates():
    alg = lambda6()
    space = cohomology(alg, 2)
    r1, r2 = space.class_representatives
    combo = r1.scale(3) + r2.scale(F(-1, 2))
    assert space.project_to_classes(combo) == (F(3), F(-1, 2))


def test_with_representatives_override():
    alg = lambda6()
    mu1, mu2 = lambda6_reference_representatives()
    space = with_representatives(cohomology(alg, 2), [mu1, mu2], alg)
    assert space.class_representatives == (mu1, mu2)
    assert space.project_to_classes(mu1) == (F(1), F(0))
    assert space.project_to_classes(mu2) == (F(0), F(1))
    g = Cochain.from_entries(1, 3, {(0,): {2: 1}})
    assert space.project_to_classes(mu1 + coboundary(alg, g)) == (F(1), F(0))


def test_with_representatives_rejects_non_cocycle():
    alg = lambda6()
    bad = Cochain.from_entries(2, 3, {(0, 0): {0: 1}})
    with pytest.raises(PreconditionError):
        with_representatives(cohomology(alg, 2), [bad, bad], alg)


def test_with_representatives_rejects_dependent_family():
    alg = lambda6()
    mu1, _ = lambda6_reference_representatives()
    with pytest.raises(PreconditionError):
        with_representatives(cohomology(alg, 2), [mu1, mu1.scale(2)], alg)


def test_cocycle_relations_lambda6():
    rels = cocycle_relations(lambda6(), 2)
    for expected in (
        "a_{2,1}^1 = 0",
        "a_{2,1}^2 = 0",
        "a_{2,1}^3 = 0",
        "a_{1,1}^2 = -a_{3,3}^3",
        "a_{3,1}^1 = -a_{3,3}^3",
        "a_{1,2}^2 = a_{3,2}^1",
        "a_{1,3}^3 = -a_{3,2}^1",
    ):
        assert expected in rels
    # rank of the defining system equals the number of relations
    assert len(rels) == 19


def test_cocycle_relations_abelian_empty():
    assert cocycle_relations(abelian(2), 2) == []


def test_rank_nullity_across_degrees():
    rng = random.Random(21)
    for _ in range(5):
        alg = random_leibniz_algebra(rng, dims=(2,))
        n = alg.dim
        for p in (1, 2):
            zl = cohomology(alg, p).dim_cocycles
            bl_next = rank(coboundary_matrix(alg, p))
            assert zl + bl_next == n ** p * n


def test_delta_squared_zero_on_corpus():
    rng = random.Random(33)
    algebras = [lambda6(), abelian(3)] + [random_leibniz_algebra(rng) for _ in range(6)]
    for alg in algebras:
        top = 3 if alg.dim == 2 else 2
        for p in range(top + 1):
            prod = matmul(coboundary_matrix(alg, p + 1), coboundary_matrix(alg, p))
            assert prod.is_zero()


def test_matrix_agrees_with_coboundary_on_random_cochains():
    rng = random.Random(37)
    for _ in range(6):
        alg = random_leibniz_algebra(rng)
        for p in range(4):
            f = random_cochain(rng, p, alg.dim)
            expected = direct_coboundary(alg, f)
            assert coboundary_matrix(alg, p).matvec(f.entries) == expected.entries
            assert coboundary(alg, f) == expected


@pytest.mark.parametrize("k", [-1, 3])
def test_from_entries_rejects_output_index_out_of_range(k):
    with pytest.raises(DimensionMismatch, match=rf"output index {k} of input tuple \(1, 2\)"):
        Cochain.from_entries(2, 3, {(1, 2): {k: -1}})
    ok = Cochain.from_entries(2, 3, {(1, 2): {0: -1, 2: 1}})
    assert ok.eval_basis((1, 2)) == (F(-1), F(0), F(1))


@pytest.mark.parametrize("arity, dim", [(40, 3), (20, 6)])
def test_a_cochain_too_large_to_allocate_is_refused_naming_its_shape(arity, dim):
    # 3^41 coordinates overflowed the list size and 6^21 ran out of memory
    shape = rf"arity {arity} and dimension {dim} has {dim}\^{arity + 1} coordinates"
    with pytest.raises(DimensionMismatch, match=shape):
        Cochain.from_entries(arity, dim, {})
    with pytest.raises(FormatError, match=shape):
        cochain_from_json({"arity": arity, "dim": dim, "entries": []})


def test_a_coboundary_matrix_of_more_than_max_rows_is_refused_before_any_row():
    # abelian(10) has 10^5 rows in degree 3, the most that are built, and 10^6 in degree 4
    assert coboundary_matrix.__wrapped__(abelian(10), 3).rows == 10 ** 5
    with pytest.raises(DimensionMismatch, match=r"^the coboundary of degree 4 on dimension 10 has 10\^6 = 1000000 rows,"
                                                r" more than 100000$"):
        coboundary_matrix(abelian(10), 4)


@pytest.mark.parametrize("arity, dim", [(-2, 3), (1, -1)])
def test_a_cochain_of_negative_arity_or_dimension_is_refused(arity, dim):
    # arity -2 used to fail on a float list size, dim -1 made a one-coordinate cochain
    with pytest.raises(FormatError, match=rf"arity {arity} and dimension {dim}: both must be nonnegative"):
        cochain_from_json({"arity": arity, "dim": dim, "entries": []})


def test_cohomology_requires_positive_degree():
    with pytest.raises(PreconditionError):
        cohomology(lambda6(), 0)


@pytest.mark.parametrize("degree", [2, 3])
def test_cohomology_rejects_non_leibniz_input_naming_the_triple(degree):
    with pytest.raises(PreconditionError, match=r"\(e_1,e_1,e_1\)"):
        cohomology(misoriented_nf4(), degree)


# ---------------------------------------------------------------------------
# A cochain stores its nonzero coordinates only
# ---------------------------------------------------------------------------


@st.composite
def sparse_entries(draw):
    arity, dim = draw(st.integers(0, 3)), draw(st.integers(1, 3))
    inputs = st.tuples(*[st.integers(0, dim - 1)] * arity)
    values = st.dictionaries(
        st.integers(0, dim - 1), st.fractions(-3, 3, max_denominator=3), max_size=dim
    )
    return arity, dim, draw(st.dictionaries(inputs, values, max_size=5))


@given(sparse_entries())
def test_flat_storage_agrees_with_sparse_entries(case):
    arity, dim, entries = case
    c = Cochain.from_entries(arity, dim, entries)
    dense = {idx: tuple(F(v.get(k, 0)) for k in range(dim)) for idx, v in entries.items()}
    # exactly the nonzero entries, in lexicographic order of the input tuples
    assert list(c.nonzero_entries()) == sorted((idx, v) for idx, v in dense.items() if any(v))
    for t, idx in enumerate(itertools.product(range(dim), repeat=arity)):
        assert c.eval_basis(idx) == flat(c)[t * dim: (t + 1) * dim] == dense.get(idx, (F(0),) * dim)
    assert cochain_from_json(cochain_to_json(c)) == c


def _canonical(c: Cochain) -> bool:
    """No stored value is zero, and an integral one is an int."""
    return all(type(x) is int and x or type(x) is F and x.denominator != 1 for x in c.entries.values())


def test_equal_cochains_built_by_different_routes_are_stored_alike():
    alg = lambda6()
    mu1, mu2 = lambda6_reference_representatives()
    bracket = Cochain.from_entries(2, 3, {(0, 2): {1: 1}, (2, 2): {0: 1}})  # lambda6's own bracket
    zeros = [
        Cochain.from_entries(2, 3, {(0, 0): {0: 0, 1: F(0)}, (1, 2): {2: "0/5"}}),
        mu1 + mu1.scale(-1),
        mu2 - mu2,
        mu1.scale(0),
        mu1.scale(F(0)),
        # bracket o bracket is minus the Leibniz identity, whose nonzero terms cancel
        circle(alg, bracket, bracket).scale(-1),
        coboundary(alg, mu1),  # mu1 is a cocycle
    ]
    for z in zeros:
        assert z.entries == {} and z.is_zero()
        assert z == Cochain(z.arity, 3, {}) and hash(z) == hash(Cochain(z.arity, 3, {}))
    copies = [
        Cochain.from_entries(2, 3, {(1, 2): {0: F(-2, 2), 1: 0}}),
        mu1 + mu2 - mu2,
        mu1.scale(F(1, 2)) + mu1.scale(F(1, 2)),
        -(-mu1),
        mu1 + Cochain.from_entries(2, 3, {}),
    ]
    for c in copies:
        assert _canonical(c)
        assert c == mu1 and hash(c) == hash(mu1)
        assert c.entries == {15: -1} and type(c.entries[15]) is int
    assert len({*copies, mu1, mu2, *zeros[:5]}) == 3


def test_nonzero_entries_come_in_lexicographic_order_whatever_the_insertion_order():
    c = Cochain.from_entries(2, 3, {(2, 2): {1: 1}, (0, 1): {2: F(1, 2)}, (1, 0): {0: 1, 2: 3}})
    c = c + Cochain.from_entries(2, 3, {(0, 0): {0: 7}})
    assert [idx for idx, _ in c.nonzero_entries()] == [(0, 0), (0, 1), (1, 0), (2, 2)]
    assert dict(c.nonzero_entries())[(1, 0)] == (F(1), F(0), F(3))
    assert all(type(x) is F for _, v in c.nonzero_entries() for x in v)
