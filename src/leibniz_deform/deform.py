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

over ordered pairs of nonconstant monomials, with [,] the superbracket.  When
D vanishes through degree k, the degree-(k+1) entries are closed 3-cochains
whose classes obstruct extension: the deformation extends to order k+1 iff
they all vanish, and the new terms are particular solutions of (coboundary)
psi_u = -D_u.  Accumulating the nonzero class polynomials as base relations
instead yields the versal construction.  These order-by-order steps group the
products by the degree of m m', which is where they land when the relations
are homogeneous, as the versal construction's are.  A step computes degree
k+1 only, and checks degrees 0..k too unless the last step proved them flat.
One rule, ``_land``, puts cochains into a base: a cochain paired with a base
polynomial is added, times each coefficient, at that coefficient's monomial.
Products land as above, terms moved by ``with_base`` or
``pushforward.push_forward`` at their monomials' images, and an obstructed
order's entries, not recomputed, at their monomials' normal forms in the
enlarged base, where they are solved.

Base elements, their normal form and their text and JSON format are
``poly``'s.  ``massey3`` is kept only for the tests: the ``massey`` command
takes its brackets from ``graded``.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Iterable, Mapping, Sequence
from fractions import Fraction

from .algebra import LeibnizAlgebra
from .cochain import Cochain, CohomologySpace, coboundary, cohomology
from .errors import DimensionMismatch, LeibnizDeformError, PreconditionError
from .graded import _combine, _triple_bracket, circle, massey2, massey_witness
from .linalg import Reducer
from .poly import (AVector, LocalBase, Monomial, TruncatedPolynomial, _degree, _mono_mul, _monomials_of_degree,
                   _render_key, _unit, render_monomial, render_poly)
from .values import F0, F1, Vec, _exact, vec_is_zero, zero_vec

_DEFAULT_NAMES = ("t", "s", "u", "v", "w")


class Deformation:
    """A base-valued bracket: one 2-cochain per nonzero monomial of the base.

    The zero-monomial coefficient is implicitly the bracket of ``algebra``;
    ``terms`` keeps the nonzero terms in a dict of its own.
    """

    _flat_through = -1  # the degree through which extend_to_order proved it flat

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

    def truncate_terms(self, max_degree: int) -> "Deformation":
        kept = {m: psi for m, psi in self.terms.items() if _degree(m) <= max_degree}
        return Deformation(self.algebra, self.base, kept)

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
    return Cochain(2, alg.dim, tuple(x for plane in alg.structure_constants for v in plane for x in v))


def _land(pairs: Iterable[tuple[TruncatedPolynomial, Cochain]]) -> dict[Monomial, Cochain]:
    """Each cochain times each coefficient of its polynomial, summed at that coefficient's monomial."""
    sums: dict[Monomial, tuple[Cochain, list[Fraction]]] = {}
    for poly, psi in pairs:
        for m, c in poly.coeffs.items():
            _, acc = sums.setdefault(m, (psi, [F0] * len(psi.flat)))
            for i, x in enumerate(psi.flat):
                if x:
                    acc[i] += c * x
    return {m: Cochain(psi.arity, psi.dim, tuple(acc)) for m, (psi, acc) in sums.items()}


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
    defect = dict.fromkeys(d.base.monomials(), Cochain.zeros(3, d.algebra.dim))
    defect.update(_land((TruncatedPolynomial(d.base, {m: F1}), e) for entries in by_degree for m, e in entries.items()))
    return defect


def obstruction_classes(d: Deformation, k: int) -> "ObstructionReport":
    """Classes of the degree-(k+1) defect entries of a deformation flat to order k.

    Requires the defect to vanish in degrees up to k: checked in the pass of
    degree k+1, and skipped when ``extend_to_order`` proved d flat through k.
    Each nonzero degree-(k+1) entry is checked to be closed (anything else
    signals a sign error) and projected to degree-3 cohomology, and a zero
    entry has the zero class; the per-class-direction polynomials that must
    vanish on the base are assembled from the projections.
    """
    if k < 1:
        raise PreconditionError("order must be at least 1")
    hl3 = cohomology(d.algebra, 3)
    degrees = (k + 1,) if d._flat_through >= k else range(k + 2)
    by_degree = _defect_in_degrees(d.truncate_terms(k), degrees)
    defect = by_degree.pop(k + 1)
    for entries in by_degree.values():
        nonzero = [m for m, entry in entries.items() if not entry.is_zero()]
        if nonzero:
            mono = min(nonzero, key=_render_key)
            raise PreconditionError(
                f"defect does not vanish at degree {_degree(mono)} (monomial {render_monomial(d.base, mono)})"
            )
    zero_class = zero_vec(hl3.dim)
    classes: dict[Monomial, Vec] = {}
    tops = _monomials_of_degree(k + 1, d.base.num_generators) if k < d.base.truncation_order else ()
    for mono in tops:
        entry = defect.get(mono)
        if entry is None or entry.is_zero():
            classes[mono] = zero_class
            continue
        if not coboundary(d.algebra, entry).is_zero():
            raise LeibnizDeformError(
                f"obstruction candidate at order {k + 1}, monomial {render_monomial(d.base, mono)}, is not closed;"
                " this signals an internal sign error"
            )
        classes[mono] = hl3.project_to_classes(entry)
    relation_polynomials = []
    for j in range(hl3.dim):
        poly = TruncatedPolynomial(d.base, {m: coords[j] for m, coords in classes.items()})
        if not poly.is_zero():
            relation_polynomials.append((j, poly))
    return ObstructionReport(k + 1, classes, tuple(relation_polynomials), defect)


class ObstructionReport:
    """Obstruction classes at one order, the induced base relations, and the
    defect entries of that order that some product reaches."""

    def __init__(self, order: int, classes: dict[Monomial, Vec],
                 relation_polynomials: tuple[tuple[int, TruncatedPolynomial], ...], defect: dict[Monomial, Cochain]):
        self.order = order
        self.classes = classes
        self.relation_polynomials = relation_polynomials
        self.defect = defect

    def all_zero(self) -> bool:
        return all(vec_is_zero(c) for c in self.classes.values())


def extend_to_order(d: Deformation, k: int) -> "Deformation | ObstructionReport":
    """Extend a deformation flat to order k by one more order, if unobstructed.

    On success the new degree-(k+1) terms are the deterministic particular
    solutions of (coboundary) psi = -defect entry; otherwise the obstruction
    report is returned."""
    report = obstruction_classes(d, k)
    return _solve_order(d, k, report.defect) if report.all_zero() else report


def _solve_order(d: Deformation, k: int, defect: Mapping[Monomial, Cochain]) -> Deformation:
    """d to order k plus the solutions psi_u of (coboundary) psi_u = -D_u of its
    degree-(k+1) entries D_u, whose classes vanish; the post-check adds the only
    new pairs, (psi_0, psi_u) and (psi_u, psi_0), which land on u."""
    alg = d.algebra
    added = {m: massey_witness(alg, defect[m])  # the class vanished: the entry is a coboundary
             for m in sorted(defect, key=_render_key) if _degree(m) == k + 1 and not defect[m].is_zero()}
    mu = _bracket_cochain(alg)
    for mono, entry in defect.items():
        if mono in added:
            entry = entry - circle(alg, mu, added[mono]) - circle(alg, added[mono], mu)
        if not entry.is_zero():
            raise LeibnizDeformError(
                f"extension failed to kill the defect at order {k + 1}, monomial {render_monomial(d.base, mono)};"
                " internal error"
            )
    extended = Deformation(alg, d.base, {**d.truncate_terms(k).terms, **added})
    extended._flat_through = k + 1
    return extended


def massey3(
    alg: LeibnizAlgebra, hl2: CohomologySpace, classes: Sequence[Sequence],
    witnesses: Mapping[tuple[int, int], Cochain] | None = None,
) -> tuple[Vec, Cochain, tuple[tuple[tuple[int, int], Cochain], ...]]:
    """Third-order bracket [x12,x3] + [x1,x23] + [x13,x2] as a class.

    Defined only when all pairwise second-order brackets vanish; witnesses
    x_ij satisfying d x_ij = [x_i, x_j] are found by the deterministic solver
    when not supplied, and verified exactly when they are.  Returns the class
    coordinates, the representative and the (pair, witness) tuples in pair
    order.
    """
    if len(classes) != 3:
        raise PreconditionError("need exactly three classes")
    xs = [_combine(hl2.class_representatives, c) for c in classes]
    brackets = {}
    for i, j in ((0, 1), (0, 2), (1, 2)):
        coords, rep = massey2(alg, hl2, classes[i], classes[j])
        if not vec_is_zero(coords):
            raise PreconditionError(f"second-order bracket of classes {i} and {j} does not vanish")
        brackets[(i, j)] = rep
    chosen: dict[tuple[int, int], Cochain] = {}
    for key, rep in brackets.items():
        w = witnesses.get(key) if witnesses else None
        if w is None:
            w = massey_witness(alg, rep)
        elif -coboundary(alg, w) != rep:  # d w = -(coboundary of w) in degree 1
            raise PreconditionError(f"supplied witness for pair {key} fails its equation")
        chosen[key] = w
    return (*_triple_bracket(alg, xs, chosen), tuple(sorted(chosen.items())))


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
    computed) degree-2 representatives.  At each order the obstruction
    classes either vanish, yielding correction terms, or their class
    polynomials are adjoined to the base relation ideal and the report's
    entries, landed again at the new normal forms of their monomials, are
    solved there.  Returns the deformation and the relations recorded per
    order (an empty record means the base is smooth up to max_order).
    """
    if max_order < 1:
        raise PreconditionError("max_order must be at least 1")
    if reps is None:
        reps = cohomology(alg, 2).class_representatives
    d = universal_infinitesimal(alg, reps)
    d = d.with_base(d.base.with_truncation(max_order))
    relations_log: dict[int, tuple[TruncatedPolynomial, ...]] = {}
    for k in range(1, max_order):
        result = extend_to_order(d, k)
        if isinstance(result, ObstructionReport):
            index, span = {}, Reducer()  # the class polynomials are normal: keep those that raise the rank
            polys = tuple(p for _, p in result.relation_polynomials
                          if span.insert({index.setdefault(m, len(index)): _exact(c) for m, c in p.coeffs.items()}))
            relations_log[k + 1] = polys
            d = d.with_base(d.base.with_relations(polys))
            if not all(TruncatedPolynomial(d.base, p.coeffs).is_zero() for _, p in result.relation_polynomials):
                raise LeibnizDeformError(
                    f"the order-{k + 1} obstruction survived its own relations"
                    f" {', '.join(render_poly(d.base, p.data()) for p in polys)}; internal error"
                )
            # relations of degree k+1 change no term of degree 0..k; the new normal form is linear and
            # zero on the old ideal, which lies in the new one, so NF_new(NF_old(m m')) = NF_new(m m')
            defect = _land((TruncatedPolynomial(d.base, {mono: F1}), entry) for mono, entry in result.defect.items())
            result = _solve_order(d, k, defect)
        d = result
    return d, relations_log
