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
witness is also the correction term of a defect entry with zero class.
``_hl2_with_reps`` gives the degree-2 classes that the ``massey`` and the
deformation commands start from; it loads ``reps``, the ``--reps`` reader,
only when that option is given.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping, Sequence
from fractions import Fraction
from functools import lru_cache

from .algebra import LeibnizAlgebra
from . import reps
from .cochain import Cochain, CohomologySpace, coboundary_matrix, cohomology
from .errors import DimensionMismatch, PreconditionError
from .linalg import solve
from .values import F0, Vec, as_scalar


def _parity_sign(perm: tuple[int, ...]) -> int:
    inversions = 0
    for a, b in itertools.combinations(perm, 2):
        if a > b:
            inversions += 1
    return -1 if inversions % 2 else 1


@lru_cache(maxsize=None)
def shuffles(p: int, q: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """All (p,q)-shuffles as (permutation, sign) pairs, lexicographic by
    permutation.  A shuffle is increasing on the first p and on the last q
    positions; its permutation holds the images of 1..p+q, 1-based.

    Generated by choosing the image set of the first block; the count is
    binomial(p+q, p).
    """
    if p < 0 or q < 0:
        raise PreconditionError("shuffle block sizes must be nonnegative")
    letters = range(1, p + q + 1)
    out = []
    for first in itertools.combinations(letters, p):
        rest = tuple(x for x in letters if x not in first)
        perm = first + rest
        out.append((perm, _parity_sign(perm)))
    return tuple(out)


def circle(alg: LeibnizAlgebra, a: Cochain, b: Cochain) -> Cochain:
    """The circle product; the result has degree deg(a) + deg(b).

    Only the nonzero entries of the operands are visited: for each slot k,
    every nonzero value b(y_0..y_q) whose c-th coordinate is nonzero meets
    every nonzero value of a with c in slot k, once per shuffle, and their
    product lands on the one output tuple that shuffle builds from a's prefix,
    y_0 and the shuffled window, written straight into the flat output.
    ``circle_by_filter`` in ``tests/helpers.py``, which evaluates the formula
    above on every output tuple, is the test oracle.
    """
    if a.dim != alg.dim or b.dim != alg.dim:
        raise DimensionMismatch("cochain dimension differs from algebra dimension")
    n = alg.dim
    p, q = a.arity - 1, b.arity - 1
    arity = p + q + 1
    a_entries = list(a.nonzero_entries())
    b_entries = list(b.nonzero_entries())
    out = [F0] * n ** (arity + 1)
    for k in range(1, p + 2):
        k_sign = -1 if (q * (k - 1)) % 2 else 1
        by_slot: dict[int, list] = {}
        for args, value in a_entries:
            by_slot.setdefault(args[k - 1], []).append((args[: k - 1], args[k:], value))
        for perm, sign in shuffles(q, p - k + 1):
            s = k_sign * sign
            for b_args, b_value in b_entries:
                for c, coeff in enumerate(b_value):
                    if not coeff or c not in by_slot:
                        continue
                    w = coeff if s == 1 else -coeff
                    for prefix, rest, a_value in by_slot[c]:
                        # window position perm[j] holds b's (j+1)-th argument
                        # for j < q, then a's arguments after slot k
                        window = [0] * (arity - k)
                        for pos, arg in zip(perm, b_args[1:] + rest):
                            window[pos - 1] = arg
                        t = Cochain._flat_input(n, prefix + (b_args[0],) + tuple(window)) * n
                        for r, y in enumerate(a_value):
                            if y:
                                out[t + r] += w * y
    return Cochain(arity, n, tuple(out))


def graded_bracket(alg: LeibnizAlgebra, a: Cochain, b: Cochain) -> Cochain:
    """[a, b] = a o b + (-1)^{pq+1} b o a."""
    sign = Fraction(1) if ((a.arity - 1) * (b.arity - 1) + 1) % 2 == 0 else Fraction(-1)
    return circle(alg, a, b) + circle(alg, b, a).scale(sign)


def _hl2_with_reps(alg: LeibnizAlgebra, reps_spec: str | None) -> CohomologySpace:
    """HL^2, presented on the representatives of ``--reps reps_spec`` when given."""
    hl2 = cohomology(alg, 2)
    if reps_spec is not None:
        hl2 = reps.with_representatives(hl2, reps._load_reps(reps_spec, alg), alg)
    return hl2


def _combine(family: Sequence[Cochain], coords: Sequence) -> Cochain:
    """sum c_i family[i]; unit coordinates give the stored representative itself."""
    if not family:
        raise PreconditionError("no representatives available")
    terms = [(c, r) for c, r in zip(map(as_scalar, coords), family) if c]
    if len(terms) == 1 and terms[0][0] == 1:
        return terms[0][1]
    out = Cochain.zeros(2, family[0].dim)
    for c, r in terms:
        out = out + r.scale(c)
    return out


def massey2(alg: LeibnizAlgebra, hl2: CohomologySpace, class_a: Sequence, class_b: Sequence) -> tuple[Vec, Cochain]:
    """The second-order bracket <a, b>: its degree-3 class coordinates and the representing [x_a, x_b]."""
    xa = _combine(hl2.class_representatives, class_a)
    xb = _combine(hl2.class_representatives, class_b)
    rep = graded_bracket(alg, xa, xb)
    return cohomology(alg, 3).project_to_classes(rep), rep


def massey_witness(alg: LeibnizAlgebra, bracket: Cochain) -> Cochain:
    """The deterministic 2-cochain x with d x = ``bracket``, a superbracket of
    degree-2 classes whose second-order Massey bracket vanishes; also the
    correction term of a defect entry whose obstruction class vanishes."""
    sol = solve(coboundary_matrix(alg, 2), tuple(-x for x in bracket.flat))
    if sol is None:
        raise PreconditionError("no witness exists; contradicts vanishing second-order bracket")
    return Cochain(2, alg.dim, sol)


def _triple_bracket(alg: LeibnizAlgebra, xs: Sequence[Cochain], wits: Mapping[tuple[int, int], Cochain]):
    """The third-order bracket's class and representative from the x_i and the witnesses x_ij."""
    rep = graded_bracket(alg, wits[(0, 1)], xs[2]) + graded_bracket(alg, xs[0], wits[(1, 2)])
    rep = rep + graded_bracket(alg, wits[(0, 2)], xs[1])
    return cohomology(alg, 3).project_to_classes(rep), rep
