"""The graded Lie algebra structure on cochains.

The products here take and return ``Cochain``s.  A cochain's graded
degree is its arity minus one, so a (p+1)-cochain has degree p.  For a of
degree p and b of degree q the circle product a o b is the degree p+q element

    (a o b)(x_1..x_{p+q+1}) = sum_{k=1..p+1} (-1)^{q(k-1)}
        sum_{s in Sh(q, p-k+1)} sgn(s)
            a(x_1,..,x_{k-1}, b(x_k, x_{s(k+1)},..,x_{s(k+q)}),
              x_{s(k+q+1)},..,x_{s(p+q+1)})

where Sh(q, r) are the (q, r)-shuffles of the argument positions after the
slot of b.  The superbracket [a, b] = a o b + (-1)^{pq+1} b o a and the
differential d a = (-1)^{deg a} (coboundary of a) make this a differential
graded Lie algebra; the tests check antisymmetry, the graded Jacobi identity
and that d (``dgla_differential`` in ``tests/helpers.py``) is a square-zero
derivation of the bracket.

Massey brackets are built from the degree-2 classes: x_a combines the stored
representatives with a class's coordinates, and <a, b> is the class of
[x_a, x_b].  When it vanishes, the witness x_ab solves d x_ab = [x_a, x_b],
and <a, b, c> is the class of [x_ab, x_c] + [x_a, x_bc] + [x_ac, x_b].  A
witness also gives the versal term of a defect entry's coboundary part.
The classes are given by coordinates on a family of representatives:
``_hl2_representatives`` gives the family that the ``massey`` and the
deformation commands start from, HL^2's own or the checked ``--reps``; it
loads ``reps``, the ``--reps`` reader, only when that option is given.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping, Sequence
from functools import lru_cache

from .algebra import LeibnizAlgebra
from . import reps
from .cochain import Cochain, coboundary_matrix, cohomology
from .errors import DimensionMismatch, PreconditionError
from .linalg import _axpy, _scaled, solve
from .values import Exact, Sparse, Vec, _exact


@lru_cache(maxsize=None)
def shuffles(p: int, q: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """All (p,q)-shuffles as (permutation, sign) pairs, lexicographic by
    permutation.  A shuffle is increasing on the first p and on the last q
    positions; its permutation holds the images of 1..p+q, 1-based.

    Generated by choosing the image set of the first block; the count is
    binomial(p+q, p).  The i-th image of the first block, first[i-1], is
    larger than first[i-1] - i images of the second, and no other pair is an
    inversion, so the sign is (-1)^(sum(first) - p(p+1)/2).
    """
    if p < 0 or q < 0:
        raise PreconditionError("shuffle block sizes must be nonnegative")
    letters = range(1, p + q + 1)
    out = []
    for first in itertools.combinations(letters, p):
        rest = tuple(x for x in letters if x not in first)
        out.append((first + rest, -1 if (sum(first) - p * (p + 1) // 2) % 2 else 1))
    return tuple(out)


def circle(alg: LeibnizAlgebra, a: Cochain, b: Cochain) -> Cochain:
    """The circle product; the result has degree deg(a) + deg(b).

    Only the nonzero entries of the operands are visited: for each slot k,
    every nonzero coordinate c of a value b(y_0..y_q) meets every nonzero
    value of a with c in slot k, once per shuffle, and their product lands on
    the one output tuple that shuffle builds from a's prefix, y_0 and the
    shuffled window.  The output is summed into a sparse dict, and the
    coordinates whose terms cancel are dropped.  ``circle_by_filter`` in
    ``tests/helpers.py``, which evaluates the formula above on every output
    tuple, is the test oracle.
    """
    if a.dim != alg.dim or b.dim != alg.dim:
        raise DimensionMismatch("cochain dimension differs from algebra dimension")
    n = alg.dim
    p, q = a.arity - 1, b.arity - 1
    arity = p + q + 1
    a_entries, b_entries = a._by_input(), b._by_input()
    out: dict[int, Exact] = {}
    for k in range(1, p + 2):
        k_sign = -1 if (q * (k - 1)) % 2 else 1
        by_slot: dict[int, list] = {}
        for args, values in a_entries:
            by_slot.setdefault(args[k - 1], []).append((args[: k - 1], args[k:], values))
        for perm, sign in shuffles(q, p - k + 1):
            s = k_sign * sign
            for b_args, b_values in b_entries:
                for c, coeff in b_values:
                    if c not in by_slot:
                        continue
                    w = coeff if s == 1 else -coeff
                    for prefix, rest, a_values in by_slot[c]:
                        # window position perm[j] holds b's (j+1)-th argument
                        # for j < q, then a's arguments after slot k
                        window = [0] * (arity - k)
                        for pos, arg in zip(perm, b_args[1:] + rest):
                            window[pos - 1] = arg
                        t = Cochain._flat_input(n, prefix + (b_args[0],) + tuple(window)) * n
                        for r, y in a_values:
                            out[t + r] = out.get(t + r, 0) + w * y
    return Cochain(arity, n, {key: _exact(x) for key, x in out.items() if x})


def graded_bracket(alg: LeibnizAlgebra, a: Cochain, b: Cochain) -> Cochain:
    """[a, b] = a o b + (-1)^{pq+1} b o a."""
    ab, ba = circle(alg, a, b), circle(alg, b, a)
    return ab + ba if ((a.arity - 1) * (b.arity - 1) + 1) % 2 == 0 else ab - ba


def _hl2_representatives(alg: LeibnizAlgebra, reps_spec: str | None) -> tuple[Cochain, ...]:
    """The representatives of HL^2's classes: those of ``--reps reps_spec``
    when given, else the stored ones."""
    hl2 = cohomology(alg, 2)
    if reps_spec is None:
        return hl2.class_representatives
    return reps.with_representatives(hl2, reps._load_reps(reps_spec, alg), alg)


def _combine(family: Sequence[Cochain], coords: Sequence) -> Cochain:
    """sum c_i family[i]; unit coordinates give the stored representative itself."""
    if not family:
        raise PreconditionError("no representatives available")
    terms = [(c, r) for c, r in zip(map(_exact, coords), family) if c]
    if len(terms) == 1 and terms[0][0] == 1:
        return terms[0][1]
    out: Sparse = {}
    for c, r in terms:
        _axpy(out, c, r.entries)
    return Cochain(2, family[0].dim, out)


def massey2(
    alg: LeibnizAlgebra, family: Sequence[Cochain], class_a: Sequence, class_b: Sequence
) -> tuple[Vec, Cochain]:
    """The second-order bracket <a, b> of two classes given by coordinates on
    ``family``: its degree-3 class coordinates and the representing [x_a, x_b]."""
    xa = _combine(family, class_a)
    xb = _combine(family, class_b)
    rep = graded_bracket(alg, xa, xb)
    return cohomology(alg, 3).project_to_classes(rep), rep


def massey_witness(alg: LeibnizAlgebra, bracket: Cochain) -> Cochain:
    """The deterministic 2-cochain x with d x = ``bracket``, a superbracket of
    degree-2 classes whose second-order Massey bracket vanishes; also the
    versal term of the coboundary part of a defect entry."""
    sol = solve(coboundary_matrix(alg, 2), _scaled(-1, bracket.entries))
    if sol is None:
        raise PreconditionError("no witness exists; contradicts vanishing second-order bracket")
    return Cochain(2, alg.dim, sol)


def _triple_bracket(alg: LeibnizAlgebra, xs: Sequence[Cochain], wits: Mapping[tuple[int, int], Cochain]):
    """The third-order bracket's class and representative from the x_i and the witnesses x_ij."""
    rep = graded_bracket(alg, wits[(0, 1)], xs[2]) + graded_bracket(alg, xs[0], wits[(1, 2)])
    rep = rep + graded_bracket(alg, wits[(0, 2)], xs[1])
    return cohomology(alg, 3).project_to_classes(rep), rep
