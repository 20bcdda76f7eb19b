"""Deformations of a Leibniz algebra over truncated local bases.

A deformation base is a truncated polynomial ring modulo relations, a
``poly.LocalBase``.  A deformation assigns to every nonzero monomial of the
base a 2-cochain; the degree-0 part is always the original bracket, so the
evaluation-at-0 map is a homomorphism onto the undeformed algebra.

The failure of the Leibniz identity for the deformed bracket,

    D(x,y,z) = [x,[y,z]] - [[x,y],z] + [[x,z],y],

is a sum of circle products.  With psi_0 the bracket of the algebra as a
2-cochain, D = - sum t^m t^m' (psi_m o psi_m') over the ordered pairs of
monomials carrying a term, psi_0 included.  Each product lands at the normal
form of -m m' in the base, which a relation that is not homogeneous can move
to another degree; a pair above the truncation order computes no product.
Collecting the pairs that contain psi_0 gives the degree-u entry

    D_u = (coboundary of psi_u) - (1/2) sum_{m m' = u} [psi_m, psi_m']

over ordered pairs of nonconstant monomials, with [,] the superbracket.

The versal construction is the Kuranishi recursion (W. Goldman and J.
Millson, in M. Manetti's DGLA form), one step per order over the truncated
base without relations.  ``obstruction_classes`` splits each degree-(k+1)
entry as X_u = b_u + sum_j c_j rho_j + w_u: b_u a coboundary, rho_j the HL^3
representatives and w_u zero at the free columns of the degree-3 coboundary.
``extend_to_order`` solves (coboundary) psi_u = -b_u, and c_j t^u joins
kappa_j, one relation per HL^3 direction.  The splitting gives 1 - ip =
dh + hd on 3-cochains, so the defect lies in (kappa) + m^(N+1) order by
order, and the terms land once on the base modulo the nonzero kappa_j.  An
unobstructed entry is a coboundary: it is its own b_u.  One rule, ``_land``,
puts cochains into a base: a cochain paired with a base polynomial is added,
times each coefficient, at that coefficient's monomial.  Products land as
above, and terms moved by ``with_base`` or ``pushforward.push_forward`` at
their monomials' images.

Base elements, their normal form and their text and JSON format are
``poly``'s.  No command runs ``massey3``: the ``massey`` command takes its
brackets from ``graded``, and ``bench/tracing.py`` still wraps it.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Iterable, Mapping, Sequence
from fractions import Fraction

from .algebra import LeibnizAlgebra
from .cochain import Cochain, coboundary, coboundary_matrix, cohomology
from .errors import DimensionMismatch, LeibnizDeformError, PreconditionError
from .graded import _combine, _triple_bracket, circle, massey2, massey_witness
from .linalg import _axpy, kernel_lift
from .poly import (AVector, LocalBase, Monomial, TruncatedPolynomial, _degree, _mono_mul,
                   _render_key, _unit, render_monomial, render_poly)
from .values import F0, F1, Sparse, Vec, _exact

_DEFAULT_NAMES = ("t", "s", "u", "v", "w")


class Deformation:
    """A base-valued bracket: one 2-cochain per nonzero monomial of the base.

    The zero-monomial coefficient is implicitly the bracket of ``algebra``;
    ``terms`` keeps the nonzero terms in a dict of its own.
    """

    def __init__(self, algebra: LeibnizAlgebra, base: LocalBase, terms: Mapping[Monomial, Cochain] | None = None):
        self.algebra = algebra
        self.base = base
        self.terms = {}
        for mono, psi in (terms or {}).items():
            mono = tuple(mono)
            if len(mono) != base.num_generators:
                raise DimensionMismatch("term monomial has wrong arity")
            if _degree(mono) == 0:
                raise PreconditionError("the zero monomial term is implicit")
            if psi.arity != 2 or psi.dim != algebra.dim:
                raise DimensionMismatch("deformation terms must be 2-cochains over the algebra")
            if not psi.is_zero():
                self.terms[mono] = psi

    def basis_bracket(self, i: int, j: int) -> AVector:
        """[1 x e_i, 1 x e_j] as a vector of base polynomials."""
        n = self.algebra.dim
        coeffs: list[dict[Monomial, Fraction]] = [dict() for _ in range(n)]
        zero_mono = self.base.zero_monomial()
        row = self.algebra.bracket_basis(i, j)
        for k in range(n):
            if row[k]:
                coeffs[k][zero_mono] = row[k]
        for mono, psi in self.terms.items():
            val = psi.eval_basis((i, j))
            for k in range(n):
                if val[k]:
                    coeffs[k][mono] = coeffs[k].get(mono, F0) + val[k]
        return tuple(TruncatedPolynomial(self.base, c) for c in coeffs)

    def bracket(self, x: AVector, y: AVector) -> AVector:
        n = self.algebra.dim
        if len(x) != n or len(y) != n:
            raise DimensionMismatch("operand length differs from algebra dimension")
        for p in itertools.chain(x, y):
            if p.base != self.base:
                raise DimensionMismatch("operand lives over a different base")
        out = [self.base.zero()] * n
        for i in range(n):
            if x[i].is_zero():
                continue
            for j in range(n):
                if y[j].is_zero():
                    continue
                c = x[i] * y[j]
                bb = self.basis_bracket(i, j)
                for k in range(n):
                    if not bb[k].is_zero():
                        out[k] = out[k] + c * bb[k]
        return tuple(out)

    def with_base(self, base: LocalBase) -> "Deformation":
        """Transport the terms onto another base over the same generators.

        Each term lands at its monomial's normal form there (adding relations
        redistributes coefficients); every old relation must vanish there.
        """
        if base.generators != self.base.generators:
            raise DimensionMismatch("bases have different generators")
        return _transport(self, base, lambda coeffs: TruncatedPolynomial(base, coeffs))


def default_parameter_names(count: int) -> tuple[str, ...]:
    if count <= len(_DEFAULT_NAMES):
        return _DEFAULT_NAMES[:count]
    return tuple(f"t{i + 1}" for i in range(count))


def universal_infinitesimal(alg: LeibnizAlgebra, reps: Sequence[Cochain]) -> Deformation:
    """The first-order deformation with one parameter per representative cocycle.

    Over K[t_1..t_h] truncated at order 1, the bracket of 1 x e_i and 1 x e_j
    is 1 x [e_i,e_j] + sum_i t_i x mu_i(e_i,e_j).  Every representative must
    be a cocycle, which is exactly the first-order Leibniz identity.
    """
    for mu in reps:
        if mu.arity != 2 or mu.dim != alg.dim:
            raise DimensionMismatch("representatives must be 2-cochains over the algebra")
        if not coboundary(alg, mu).is_zero():
            raise PreconditionError("representative is not a cocycle")
    h = len(reps)
    base = LocalBase(default_parameter_names(h), 1)
    return Deformation(alg, base, {_unit(h, i): mu for i, mu in enumerate(reps)})


def _bracket_cochain(alg: LeibnizAlgebra) -> Cochain:
    flat = (x for plane in alg.structure_constants for v in plane for x in v)
    return Cochain(2, alg.dim, {i: _exact(x) for i, x in enumerate(flat) if x})


def _land(pairs: Iterable[tuple[TruncatedPolynomial, Cochain]]) -> dict[Monomial, Cochain]:
    """Each cochain times each coefficient of its polynomial, summed at that
    coefficient's monomial: one sparse ``_axpy`` per landed term, so a sum
    that cancels holds no entry and lands as the zero cochain."""
    sums: dict[Monomial, tuple[Cochain, Sparse]] = {}
    for poly, psi in pairs:
        for m, c in poly.coeffs.items():
            _axpy(sums.setdefault(m, (psi, {}))[1], _exact(c), psi.entries)
    return {m: Cochain(psi.arity, psi.dim, acc) for m, (psi, acc) in sums.items()}


def _defect_in_degrees(d: Deformation, degrees: Sequence[int]) -> dict[int, dict[Monomial, Cochain]]:
    """Per degree j of ``degrees``, the defect summed over the ordered pairs of
    terms of total degree j, keyed by the monomials the products land on."""
    alg = d.algebra
    by_degree = {0: [(d.base.zero_monomial(), _bracket_cochain(alg))]}
    for mono, psi in d.terms.items():
        by_degree.setdefault(_degree(mono), []).append((mono, psi))

    def products(j: int):
        for a in range(j + 1):
            for m1, psi1 in by_degree.get(a, ()):
                for m2, psi2 in by_degree.get(j - a, ()):
                    landing = TruncatedPolynomial(d.base, {_mono_mul(m1, m2): -F1})  # 0 above the truncation order
                    if landing.coeffs:
                        yield landing, circle(alg, psi1, psi2)
    return {j: _land(products(j)) for j in degrees}


def leibniz_defect(d: Deformation) -> dict[Monomial, Cochain]:
    """Per-monomial failure of the Leibniz identity for the deformed bracket.

    Returns one 3-cochain for every monomial of the base (zero monomial
    included); the deformation satisfies the identity over its truncated base
    iff every entry is zero.
    """
    by_degree = _defect_in_degrees(d, range(d.base.truncation_order + 1)).values()
    defect = dict.fromkeys(d.base.monomials(), Cochain(3, d.algebra.dim, {}))
    defect.update(_land((TruncatedPolynomial(d.base, {m: F1}), e) for entries in by_degree for m, e in entries.items()))
    return defect


def obstruction_classes(d: Deformation, k: int) -> dict[Monomial, tuple[Vec, Cochain]]:
    """The split (c_u, b_u) of each nonzero degree-(k+1) defect entry X_u of d.

    X_u = b_u + sum_j c_j rho_j + w_u, with rho_j the HL^3 representatives.
    z_u, the ``kernel_lift`` of X_u through the degree-3 coboundary, is the
    cocycle with X_u's free coordinates.  c_u are its class coordinates,
    b_u = z_u - sum_j c_j rho_j is a coboundary, and w_u = X_u - z_u is zero
    at every free column.
    """
    if k < 1:
        raise PreconditionError("order must be at least 1")
    alg = d.algebra
    hl3, delta = cohomology(alg, 3), coboundary_matrix(alg, 3)
    split = {}
    for mono, entry in _defect_in_degrees(d, (k + 1,))[k + 1].items():
        if entry.is_zero():
            continue
        z = kernel_lift(delta, entry.entries)
        coords = hl3.project_to_classes(Cochain(3, alg.dim, z))
        for c, rho in zip(coords, hl3.class_representatives):
            if c:
                _axpy(z, _exact(-c), rho.entries)
        split[mono] = coords, Cochain(3, alg.dim, z)
    return split


def extend_to_order(d: Deformation, k: int) -> tuple[Deformation, dict[Monomial, Vec]]:
    """d plus its degree-(k+1) terms, and the class coordinates {u: c_u} of
    ``obstruction_classes``.  Each nonzero b_u gets the deterministic witness
    psi_u of (coboundary) psi_u = -b_u, in render order of u; the post-check
    adds psi_u's only new pairs, (psi_0, psi_u) and (psi_u, psi_0), which
    land on u and must sum to b_u."""
    alg = d.algebra
    split = obstruction_classes(d, k)
    added = {m: massey_witness(alg, split[m][1]) for m in sorted(split, key=_render_key) if not split[m][1].is_zero()}
    mu = _bracket_cochain(alg)
    for mono, psi in added.items():
        if circle(alg, mu, psi) + circle(alg, psi, mu) != split[mono][1]:
            raise LeibnizDeformError(
                f"extension failed to kill the defect at order {k + 1}, monomial {render_monomial(d.base, mono)};"
                " internal error"
            )
    return Deformation(alg, d.base, {**d.terms, **added}), {m: coords for m, (coords, _) in split.items()}


def massey3(
    alg: LeibnizAlgebra, family: Sequence[Cochain], classes: Sequence[Sequence],
) -> tuple[Vec, Cochain, tuple[tuple[tuple[int, int], Cochain], ...]]:
    """Third-order bracket [x12,x3] + [x1,x23] + [x13,x2] of three classes
    given by coordinates on ``family``, as a class.

    Defined only when all pairwise second-order brackets vanish; the
    witnesses x_ij of d x_ij = [x_i, x_j] are the deterministic solver's.
    Returns the class coordinates, the representative and the (pair,
    witness) tuples in pair order.
    """
    if len(classes) != 3:
        raise PreconditionError("need exactly three classes")
    xs = [_combine(family, c) for c in classes]
    witnesses = {}
    for i, j in ((0, 1), (0, 2), (1, 2)):
        coords, rep = massey2(alg, family, classes[i], classes[j])
        if any(coords):
            raise PreconditionError(f"second-order bracket of classes {i} and {j} does not vanish")
        witnesses[(i, j)] = massey_witness(alg, rep)
    return (*_triple_bracket(alg, xs, witnesses), tuple(witnesses.items()))


def _transport(d: Deformation, base: LocalBase, image: Callable[[dict], TruncatedPolynomial]) -> Deformation:
    """d over ``base``, each term landed at the image of its monomial under a
    linear map that must send every relation of d's base to 0."""
    for rel in d.base.relations:
        rel_image = image(dict(rel))
        if not rel_image.is_zero():
            raise PreconditionError(
                f"relation {render_poly(d.base, rel)} maps to {render_poly(base, rel_image.data())}, not 0"
            )
    return Deformation(d.algebra, base, _land((image({mono: F1}), psi) for mono, psi in d.terms.items()))


def versal_construct(
    alg: LeibnizAlgebra,
    max_order: int,
    reps: Sequence[Cochain] | None = None,
) -> tuple[Deformation, dict[int, tuple[TruncatedPolynomial, ...]]]:
    """Order-by-order construction of a versal deformation up to max_order.

    Starts from the universal first-order deformation on the given (or
    computed) degree-2 representatives, truncated at max_order and without
    relations.  Each order is one ``extend_to_order``, whose class
    coordinates c_u add c_j t^u to kappa_j, the relation of HL^3 direction j.
    The terms then land once on the base modulo the nonzero kappa_j, in j
    order.  Returns the deformation and those kappa_j over the relation-free
    base, keyed by the degree of each one's lowest term (an empty record
    means the base is smooth up to max_order).
    """
    if max_order < 1:
        raise PreconditionError("max_order must be at least 1")
    if reps is None:
        reps = cohomology(alg, 2).class_representatives
    d = universal_infinitesimal(alg, reps)
    d = d.with_base(d.base.with_truncation(max_order))
    kappa: dict[int, dict[Monomial, Fraction]] = {}
    for k in range(1, max_order):
        d, classes = extend_to_order(d, k)
        for mono, coords in classes.items():
            for j, c in enumerate(coords):
                if c:
                    kappa.setdefault(j, {})[mono] = c
    relations = [TruncatedPolynomial(d.base, kappa[j]) for j in sorted(kappa)]
    by_degree: dict[int, list[TruncatedPolynomial]] = {}
    for p in relations:
        by_degree.setdefault(min(map(_degree, p.coeffs)), []).append(p)
    return d.with_base(d.base.with_relations(relations)), {low: tuple(ps) for low, ps in sorted(by_degree.items())}
