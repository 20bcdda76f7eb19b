import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    circle_by_filter,
    dense_combination,
    dgla_differential,
    h3,
    nf4,
    random_cochain,
    random_leibniz_algebra,
    shuffles_by_filter,
)
from leibniz_deform.algebra import abelian, lambda6
from leibniz_deform.cochain import Cochain, coboundary, cohomology
from leibniz_deform.graded import _combine, circle, graded_bracket, massey2, shuffles
from leibniz_deform.reps import lambda6_reference_representatives

F = Fraction


def test_shuffles_zero_block_is_identity():
    for q in range(4):
        sh = shuffles(0, q)
        assert len(sh) == 1
        assert sh[0] == (tuple(range(1, q + 1)), 1)


def test_shuffles_1_1():
    sh = shuffles(1, 1)
    assert sh == (((1, 2), 1), ((2, 1), -1))


def test_shuffles_2_1_signs():
    sh = shuffles(2, 1)
    assert len(sh) == 3
    assert sh == (
        ((1, 2, 3), 1),
        ((1, 3, 2), -1),
        ((2, 3, 1), 1),
    )


def test_shuffles_match_filter_oracle_up_to_six():
    for total in range(7):
        for p in range(total + 1):
            q = total - p
            ours = list(shuffles(p, q))
            oracle = shuffles_by_filter(p, q)
            assert ours == oracle
            assert len(ours) == math.comb(p + q, p)


def test_shuffles_sorted_lexicographically():
    for p in range(4):
        for q in range(4):
            perms = [perm for perm, _ in shuffles(p, q)]
            assert perms == sorted(perms)


def test_circle_reference_cocycles_square_to_zero():
    alg = lambda6()
    mu1, mu2 = lambda6_reference_representatives()
    assert circle(alg, mu1, mu1).is_zero()
    assert circle(alg, mu2, mu2).is_zero()


def test_circle_with_zero_is_zero():
    alg = lambda6()
    rng = random.Random(1)
    a = random_cochain(rng, 2, 3)
    z = Cochain(2, 3, {})
    assert circle(alg, a, z).is_zero()
    assert circle(alg, z, a).is_zero()


def test_circle_degree1_explicit_expansion():
    # For degree-1 elements: (a o b)(x,y,z) = a(b(x,y),z) - a(b(x,z),y) - a(x,b(y,z))
    alg = lambda6()
    rng = random.Random(2)
    a, b = random_cochain(rng, 2, 3), random_cochain(rng, 2, 3)
    got = circle(alg, a, b)
    for x in range(3):
        for y in range(3):
            for z in range(3):
                bxy, bxz, byz = b.eval_basis((x, y)), b.eval_basis((x, z)), b.eval_basis((y, z))
                expected = [F(0)] * 3
                for c in range(3):
                    if bxy[c]:
                        for k in range(3):
                            expected[k] += bxy[c] * a.eval_basis((c, z))[k]
                    if bxz[c]:
                        for k in range(3):
                            expected[k] -= bxz[c] * a.eval_basis((c, y))[k]
                    if byz[c]:
                        for k in range(3):
                            expected[k] -= byz[c] * a.eval_basis((x, c))[k]
                assert got.eval_basis((x, y, z)) == tuple(expected)


def test_circle_matches_filter_oracle():
    rng = random.Random(4)
    for _ in range(4):
        alg = random_leibniz_algebra(rng, dims=(2,))
        for pa, pb in ((1, 1), (1, 2), (2, 1), (2, 2)):
            a = random_cochain(rng, pa + 1, 2)
            b = random_cochain(rng, pb + 1, 2)
            assert circle(alg, a, b) == circle_by_filter(alg, a, b)


def _very_sparse_cochain(rng, arity, dim, count):
    """A cochain with at most ``count`` nonzero rational coordinates."""
    entries = {}
    for _ in range(count):
        idx = tuple(rng.randrange(dim) for _ in range(arity))
        coeff = F(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2, 3)))
        entries.setdefault(idx, {})[rng.randrange(dim)] = coeff
    return Cochain.from_entries(arity, dim, entries)


SPARSE_CIRCLE_ALGEBRAS = {
    "lambda6": lambda6,
    "nf4": nf4,
    "random": lambda: random_leibniz_algebra(random.Random(5)),
}


@pytest.mark.parametrize("pa, pb", [(pa, pb) for pa in range(3) for pb in range(3)])
@pytest.mark.parametrize("algebra", sorted(SPARSE_CIRCLE_ALGEBRAS))
def test_circle_matches_filter_oracle_on_very_sparse_cochains(algebra, pa, pb):
    alg = SPARSE_CIRCLE_ALGEBRAS[algebra]()
    rng = random.Random(f"{algebra}-{pa}-{pb}")
    # a zero operand on either side, then nonzero on both
    counts = [(0, rng.randint(1, 3)), (rng.randint(1, 3), 0)]
    counts += [(rng.randint(1, 3), rng.randint(1, 3)) for _ in range(3)]
    for ca, cb in counts:
        a = _very_sparse_cochain(rng, pa + 1, alg.dim, ca)
        b = _very_sparse_cochain(rng, pb + 1, alg.dim, cb)
        assert circle(alg, a, b) == circle_by_filter(alg, a, b)


def test_bracket_of_reference_cocycles_vanishes():
    alg = lambda6()
    mu1, mu2 = lambda6_reference_representatives()
    assert graded_bracket(alg, mu1, mu2).is_zero()


def test_bracket_with_zero():
    alg = lambda6()
    rng = random.Random(6)
    a = random_cochain(rng, 2, 3)
    z = Cochain(3, 3, {})
    assert graded_bracket(alg, a, z).is_zero()


def test_self_bracket_is_twice_circle_in_degree_one():
    alg = lambda6()
    rng = random.Random(7)
    a = random_cochain(rng, 2, 3)
    assert graded_bracket(alg, a, a) == circle(alg, a, a).scale(2)


def test_differential_of_cocycle_is_zero():
    alg = lambda6()
    for mu in lambda6_reference_representatives():
        assert dgla_differential(alg, mu).is_zero()


def test_differential_squares_to_zero():
    rng = random.Random(8)
    for _ in range(5):
        alg = random_leibniz_algebra(rng, dims=(2, 3))
        a = random_cochain(rng, rng.choice((1, 2)), alg.dim)
        once = dgla_differential(alg, a)
        assert dgla_differential(alg, once).is_zero()


def _antisymmetry_case(alg, a, b):
    lhs = graded_bracket(alg, a, b)
    rhs = graded_bracket(alg, b, a)
    sign = F(-1) if ((a.arity - 1) * (b.arity - 1)) % 2 == 0 else F(1)
    assert lhs == rhs.scale(sign)


def test_graded_antisymmetry():
    rng = random.Random(10)
    for _ in range(10):
        alg = random_leibniz_algebra(rng, dims=(2,))
        a = random_cochain(rng, rng.choice((1, 2, 3)), 2)
        b = random_cochain(rng, rng.choice((1, 2, 3)), 2)
        _antisymmetry_case(alg, a, b)


def _jacobi_case(alg, a, b, c):
    # [a,[b,c]] = [[a,b],c] + (-1)^{pq} [b,[a,c]]
    lhs = graded_bracket(alg, a, graded_bracket(alg, b, c))
    t1 = graded_bracket(alg, graded_bracket(alg, a, b), c)
    t2 = graded_bracket(alg, b, graded_bracket(alg, a, c))
    sign = F(1) if ((a.arity - 1) * (b.arity - 1)) % 2 == 0 else F(-1)
    assert lhs == t1 + t2.scale(sign)


def test_graded_jacobi_low_degrees():
    rng = random.Random(12)
    for _ in range(6):
        alg = random_leibniz_algebra(rng, dims=(2,))
        degs = [rng.choice((0, 1, 2)) for _ in range(3)]
        a, b, c = (random_cochain(rng, d + 1, 2) for d in degs)
        _jacobi_case(alg, a, b, c)


def test_differential_is_a_derivation():
    rng = random.Random(13)
    for _ in range(6):
        alg = random_leibniz_algebra(rng, dims=(2,))
        a = random_cochain(rng, rng.choice((1, 2)), 2)
        b = random_cochain(rng, rng.choice((1, 2)), 2)
        lhs = dgla_differential(alg, graded_bracket(alg, a, b))
        t1 = graded_bracket(alg, dgla_differential(alg, a), b)
        t2 = graded_bracket(alg, a, dgla_differential(alg, b))
        sign = F(1) if (a.arity - 1) % 2 == 0 else F(-1)
        assert lhs == t1 + t2.scale(sign)


def test_derivation_and_jacobi_on_lambda6_degree_one():
    alg = lambda6()
    rng = random.Random(14)
    a, b, c = (random_cochain(rng, 2, 3, density=0.3) for _ in range(3))
    _antisymmetry_case(alg, a, b)
    _jacobi_case(alg, a, b, c)
    lhs = dgla_differential(alg, graded_bracket(alg, a, b))
    t1 = graded_bracket(alg, dgla_differential(alg, a), b)
    t2 = graded_bracket(alg, a, dgla_differential(alg, b))
    assert lhs == t1 + t2.scale(F(-1))


@pytest.mark.parametrize("alg", [lambda6(), h3(), abelian(2)], ids=["lambda6", "h3", "abelian2"])
def test_massey2_equals_the_bracket_of_dense_combinations(alg):
    hl2 = cohomology(alg, 2)
    h, reps = hl2.dim, hl2.class_representatives
    units = [tuple(int(k == i) for k in range(h)) for i in range(h)]
    zero = (0,) * h
    mixed = tuple(F((-1) ** k * (k + 1), 2) for k in range(h))
    scaled = tuple(2 * c for c in units[-1])
    pairs = [(units[0], units[0]), (units[0], units[-1]), (zero, units[0]), (units[0], zero), (zero, zero),
             (mixed, units[0]), (scaled, mixed), (mixed, mixed), (units[-1], scaled), (scaled, scaled)]
    for a, b in pairs:
        xa, xb = dense_combination(reps, a), dense_combination(reps, b)
        # in graded degree 1 the superbracket is x o y + y o x
        rep = circle_by_filter(alg, xa, xb) + circle_by_filter(alg, xb, xa)
        assert massey2(alg, hl2, a, b) == (cohomology(alg, 3).project_to_classes(rep), rep)
    # a unit coordinate vector selects the stored representative itself
    assert all(_combine(reps, u) is rep for u, rep in zip(units, reps))
