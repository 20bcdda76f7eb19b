"""Deformations of a Leibniz algebra over truncated local bases.

A deformation base is K[t_1..t_m] cut off above a fixed total degree, with an
optional ideal of relation polynomials.  A deformation assigns to every
nonzero monomial of the base a 2-cochain; the degree-0 part is always the
original bracket, so the evaluation-at-0 map is a homomorphism onto the
undeformed algebra.

Base elements are kept in one normal form modulo J = I + m^(N+1), with I the
relation ideal and N the truncation order.  J is held as its Macaulay echelon:
the products q r of each relation r with deg q + lowdeg r <= N, truncated,
fully reduced over the monomials in lex-descending order, so that each pivot is
the lex-largest monomial of its row and is eliminated first (t^2 - s^2
rewrites t^2 to s^2, and abelian(1)'s recorded relation t^2 reduces to zero).
The normal form is the residual modulo these rows: linear, independent of the
order of the relations and zero exactly on J, unit multiples included (modulo
t^2 - t^3 at order 4, t^2 = (t^2 - t^3)(1 + t + t^2) + t^5 is zero).

The failure of the Leibniz identity for the deformed bracket,

    D(x,y,z) = [x,[y,z]] - [[x,y],z] + [[x,z],y],

is a sum of circle products.  With psi_0 the bracket of the algebra as a
2-cochain, D = - sum t^m t^m' (psi_m o psi_m') over the ordered pairs of
monomials carrying a term, psi_0 included.  Each product is summed into the
normal form of m m' in the base, which a relation that is not homogeneous can
move to another degree, and pairs above the truncation order are skipped.
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

Base elements have one text and JSON format, kept here: ``render_poly`` and
``poly_to_json`` write terms in render order, ascending total degree and
earlier generators first within a degree (``1 - 1/2*s + t^2*s``), and
``parse_poly`` reads the text back.  ``massey3`` is kept only for the tests:
the ``massey`` command takes its brackets from ``graded``.
"""

from __future__ import annotations

import itertools
import re
from collections.abc import Mapping, Sequence
from fractions import Fraction
from functools import cached_property

from .algebra import LeibnizAlgebra
from .cochain import Cochain, CohomologySpace, coboundary, cohomology
from .errors import DimensionMismatch, FormatError, LeibnizDeformError, PreconditionError
from .graded import _combine, _triple_bracket, circle, massey2, massey_witness
from .linalg import Reducer
from .values import F0, F1, Record, Sparse, Vec, _exact, _join_terms, as_scalar, vec_is_zero, zero_vec

Monomial = tuple[int, ...]
PolyData = tuple[tuple[Monomial, Fraction], ...]

_DEFAULT_NAMES = ("t", "s", "u", "v", "w")
# compiled on first use by re's own cache, not by every command at import
_NAME = r"[A-Za-z_]\w*"  # a generator name
_TERM = rf"^(?:(-?\d+(?:/\d+)?)\*?)?((?:{_NAME}(?:\^\d+)?)(?:\*{_NAME}(?:\^\d+)?)*)?$"


def _degree(mono: Monomial) -> int:
    return sum(mono)


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x + y for x, y in zip(a, b))


def _unit(parts: int, i: int) -> Monomial:
    """The exponents of the i-th generator, or the i-th unit coordinate vector."""
    return tuple(1 if k == i else 0 for k in range(parts))


def _render_key(mono: Monomial):
    # ascending total degree; within a degree the earlier generators come first
    return (_degree(mono), tuple(-e for e in mono))


def _canonical_poly_data(coeffs: Mapping[Monomial, Fraction]) -> PolyData:
    return tuple(sorted(((m, c) for m, c in coeffs.items() if c), key=lambda mc: _render_key(mc[0])))


class LocalBase(Record):
    """K[t_1..t_m] truncated above ``truncation_order``, modulo ``relations``.

    The maximal ideal is generated by the parameters; evaluation at 0 is the
    augmentation.  A generator name is a letter or ``_`` followed by letters,
    digits and ``_`` (``t``, ``t1``, ``x_2``), so that ``parse_poly`` reads
    back what ``render_poly`` writes; names are checked before duplicates.
    Relations are stored as canonical coefficient tables (``PolyData``, in
    render order) and must have zero constant term.

    Elements are kept normal modulo I + m^(N+1): reduced by its Macaulay
    echelon over lex-descending monomials, unit multiples included.  No
    ``__slots__``: the echelon is cached in the instance ``__dict__``.
    """

    _fields = ("generators", "truncation_order", "relations")

    def __init__(self, generators: tuple[str, ...], truncation_order: int, relations: tuple[PolyData, ...] = ()):
        for name in generators:
            if not re.fullmatch(_NAME, name):
                raise PreconditionError(
                    f"{name!r} is not a generator name (letters, digits and _, not starting with a digit)"
                )
        if len(set(generators)) != len(generators):
            raise PreconditionError("duplicate generator names")
        if truncation_order < 0:
            raise PreconditionError("truncation order must be nonnegative")
        for rel in relations:
            for mono, coeff in rel:
                if len(mono) != len(generators):
                    raise DimensionMismatch("relation monomial has wrong arity")
                if _degree(mono) == 0 and coeff:
                    raise PreconditionError("relation has a nonzero constant term")
        super().__init__(generators, truncation_order, relations)

    @property
    def num_generators(self) -> int:
        return len(self.generators)

    def zero_monomial(self) -> Monomial:
        return (0,) * self.num_generators

    def monomials(self, max_degree: int | None = None) -> list[Monomial]:
        """Every exponent tuple up to the truncation order, in render order."""
        top = self.truncation_order if max_degree is None else min(max_degree, self.truncation_order)
        return [mono for d in range(top + 1) for mono in _monomials_of_degree(d, self.num_generators)]

    def zero(self) -> "TruncatedPolynomial":
        return TruncatedPolynomial(self, {})

    def constant(self, c) -> "TruncatedPolynomial":
        return TruncatedPolynomial(self, {self.zero_monomial(): as_scalar(c)})

    def generator(self, name: str) -> "TruncatedPolynomial":
        return TruncatedPolynomial(self, {_unit(self.num_generators, self.generators.index(name)): F1})

    def with_truncation(self, order: int) -> "LocalBase":
        return LocalBase(self.generators, order, self.relations)

    def with_relations(self, extra: Sequence["TruncatedPolynomial | PolyData"]) -> "LocalBase":
        new = list(self.relations)
        for rel in extra:
            data = rel.data() if isinstance(rel, TruncatedPolynomial) else _canonical_poly_data(dict(rel))
            if data:
                new.append(data)
        return LocalBase(self.generators, self.truncation_order, tuple(new))

    @cached_property
    def _echelon(self) -> tuple[tuple[Monomial, ...], dict[Monomial, int], Reducer]:
        """The monomials in lex-descending order, their column indices and
        the Macaulay echelon of the relations."""
        columns = tuple(sorted(self.monomials(), reverse=True))
        index = {m: i for i, m in enumerate(columns)}
        echelon = Reducer()
        for rel in self.relations:
            low = min(_degree(m) for m, _ in rel)
            for q in self.monomials(self.truncation_order - low):
                echelon.insert(_sparse_poly(index, ((_mono_mul(q, m), c) for m, c in rel)))
        return columns, index, echelon


def _sparse_poly(index: dict[Monomial, int], terms) -> Sparse:
    """The terms at the indexed monomials as a sparse vector; others are dropped."""
    return {index[m]: _exact(c) for m, c in terms if m in index}


def _monomials_of_degree(degree: int, parts: int) -> list[Monomial]:
    """The exponent tuples of one total degree in render order: index
    multisets in lex order count out exponents in lex-descending order."""
    combos = itertools.combinations_with_replacement(range(parts), degree)
    return [tuple(combo.count(i) for i in range(parts)) for combo in combos]


def _normalize(base: LocalBase, coeffs: dict[Monomial, Fraction]) -> dict[Monomial, Fraction]:
    work = {m: c for m, c in coeffs.items() if c and _degree(m) <= base.truncation_order}
    if not base.relations:
        return work
    columns, index, echelon = base._echelon
    residual, _ = echelon._reduce({index[m]: c for m, c in work.items()})
    return {columns[i]: as_scalar(c) for i, c in residual.items()}


class TruncatedPolynomial:
    """Element of a LocalBase, kept in normal form at all times."""

    __slots__ = ("base", "coeffs")

    def __init__(self, base: LocalBase, coeffs: Mapping[Monomial, object]):
        self.base = base
        self.coeffs = _normalize(base, {tuple(m): as_scalar(c) for m, c in coeffs.items()})

    def data(self) -> PolyData:
        return _canonical_poly_data(self.coeffs)

    def coeff(self, mono: Monomial) -> Fraction:
        return self.coeffs.get(tuple(mono), F0)

    def constant_term(self) -> Fraction:
        return self.coeffs.get(self.base.zero_monomial(), F0)

    def is_zero(self) -> bool:
        return not self.coeffs

    def _check_base(self, other: "TruncatedPolynomial"):
        if self.base != other.base:
            raise DimensionMismatch("polynomials live over different bases")

    def __add__(self, other: "TruncatedPolynomial") -> "TruncatedPolynomial":
        self._check_base(other)
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            out[m] = out.get(m, F0) + c
        return TruncatedPolynomial(self.base, out)

    def __sub__(self, other: "TruncatedPolynomial") -> "TruncatedPolynomial":
        return self + (-other)

    def __neg__(self) -> "TruncatedPolynomial":
        return TruncatedPolynomial(self.base, {m: -c for m, c in self.coeffs.items()})

    def __mul__(self, other) -> "TruncatedPolynomial":
        if isinstance(other, TruncatedPolynomial):
            self._check_base(other)
            out: dict[Monomial, Fraction] = {}
            top = self.base.truncation_order
            for m1, c1 in self.coeffs.items():
                d1 = _degree(m1)
                for m2, c2 in other.coeffs.items():
                    if d1 + _degree(m2) > top:
                        continue
                    m = _mono_mul(m1, m2)
                    out[m] = out.get(m, F0) + c1 * c2
            return TruncatedPolynomial(self.base, out)
        c = as_scalar(other)
        return TruncatedPolynomial(self.base, {m: c * v for m, v in self.coeffs.items()})

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedPolynomial):
            return NotImplemented
        return self.base == other.base and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.base, self.data()))

    def substitute(self, target_base: LocalBase, images: Mapping[str, "TruncatedPolynomial"]) -> "TruncatedPolynomial":
        """Evaluate under a generator substitution into another base."""
        result = target_base.zero()
        for mono, c in self.coeffs.items():
            term = target_base.constant(c)
            for gen, e in zip(self.base.generators, mono):
                for _ in range(e):
                    term = term * images[gen]
            result = result + term
        return result

    def __repr__(self):
        return f"TruncatedPolynomial({render_poly(self.base, self.data())!r})"


AVector = tuple[TruncatedPolynomial, ...]


def render_monomial(base: LocalBase, mono: Monomial) -> str:
    factors = [gen if e == 1 else f"{gen}^{e}" for gen, e in zip(base.generators, mono) if e]
    return "*".join(factors) or "1"


def render_poly(base: LocalBase, terms: PolyData) -> str:
    """Canonical terms over ``base`` as text, such as ``2*t^2*s - 1/2*t``."""
    return _join_terms([(c, render_monomial(base, m) if _degree(m) else "") for m, c in terms])


def render_avector(av: AVector, alg: LeibnizAlgebra) -> str:
    """A vector of base polynomials as one sum, monomial by monomial."""
    terms = []
    for mono in sorted({m for p in av for m in p.coeffs}, key=_render_key):
        prefix = f"{render_monomial(av[0].base, mono)}*" if _degree(mono) else ""
        terms += [(p.coeff(mono), prefix + alg.label(k)) for k, p in enumerate(av) if p.coeff(mono)]
    return _join_terms(terms)


def poly_to_json(base: LocalBase, terms: PolyData) -> list:
    return [{"monomial": {g: e for g, e in zip(base.generators, m) if e}, "coeff": str(c)} for m, c in terms]


def base_to_json(base: LocalBase) -> dict:
    return {
        "generators": list(base.generators),
        "truncation_order": base.truncation_order,
        "relations": [poly_to_json(base, rel) for rel in base.relations],
    }


def parse_poly(expr: str, base: LocalBase) -> TruncatedPolynomial:
    """The element of ``base`` written as ``expr``, such as ``0``, ``t`` or
    ``2*t^2*s - 1/2*t``: spaces are ignored, and terms joined by ``+`` or
    ``-`` are each an optional integer or ``p/q`` coefficient, an optional
    ``*`` and factors ``NAME`` or ``NAME^k`` joined by ``*``, NAME a generator
    of ``base``.  Raises FormatError naming the term or generator at fault.
    """
    text = expr.replace(" ", "")
    if not text:
        raise FormatError("empty polynomial expression")
    coeffs: dict[Monomial, Fraction] = {}
    for chunk in re.split(r"(?=[+-])", text):
        if not chunk:
            continue
        sign = -F1 if chunk[0] == "-" else F1
        if chunk[0] in "+-":
            chunk = chunk[1:]
        m = re.match(_TERM, chunk)
        if not m or (m.group(1) is None and m.group(2) is None):
            raise FormatError(f"cannot parse polynomial term {chunk!r} in {expr!r}")
        try:
            coeff = sign * Fraction(m.group(1)) if m.group(1) else sign
        except ZeroDivisionError:
            raise FormatError(f"zero denominator in polynomial term {chunk!r} in {expr!r}") from None
        mono = [0] * base.num_generators
        if m.group(2):
            for factor in m.group(2).split("*"):
                name, _, power = factor.partition("^")
                if name not in base.generators:
                    raise FormatError(f"unknown generator {name!r} in {expr!r}")
                mono[base.generators.index(name)] += int(power or 1)
        key = tuple(mono)
        coeffs[key] = coeffs.get(key, F0) + coeff
    return TruncatedPolynomial(base, coeffs)


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

        Term monomials are re-normalized there, so adding relations
        redistributes the affected coefficients.
        """
        if base.generators != self.base.generators:
            raise DimensionMismatch("bases have different generators")
        return push_forward(self, base, {g: base.generator(g) for g in base.generators})


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


def _defect_in_degrees(d: Deformation, degrees: Sequence[int]) -> dict[int, dict[Monomial, Cochain]]:
    """Per degree j of ``degrees``, the defect summed over the ordered pairs of
    terms of total degree j.

    Each entry is keyed by the monomials the products land on; a monomial that
    no product reaches is left out.
    """
    alg = d.algebra
    by_degree = {0: [(d.base.zero_monomial(), _bracket_cochain(alg))]}
    for mono, psi in d.terms.items():
        by_degree.setdefault(_degree(mono), []).append((mono, psi))
    out = {}
    for j in degrees:
        sums: dict[Monomial, list[Fraction]] = {}
        for a in range(j + 1):
            for m1, psi1 in by_degree.get(a, ()):
                for m2, psi2 in by_degree.get(j - a, ()):
                    # empty above the truncation order
                    landing = TruncatedPolynomial(d.base, {_mono_mul(m1, m2): F1}).coeffs
                    if not landing:
                        continue
                    product = circle(alg, psi1, psi2).flat
                    for m, c in landing.items():
                        acc = sums.setdefault(m, [F0] * len(product))
                        for i, x in enumerate(product):
                            if x:
                                acc[i] -= c * x
        out[j] = {m: Cochain(3, alg.dim, tuple(acc)) for m, acc in sums.items()}
    return out


def leibniz_defect(d: Deformation) -> dict[Monomial, Cochain]:
    """Per-monomial failure of the Leibniz identity for the deformed bracket.

    Returns one 3-cochain for every monomial of the base (zero monomial
    included); the deformation satisfies the identity over its truncated base
    iff every entry is zero.
    """
    zero = Cochain.zeros(3, d.algebra.dim)
    defect = dict.fromkeys(d.base.monomials(), zero)
    for entries in _defect_in_degrees(d, range(d.base.truncation_order + 1)).values():
        for mono, entry in entries.items():
            defect[mono] = defect[mono] + entry
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
                f"defect does not vanish at degree {_degree(mono)} (monomial {mono})"
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
    report is returned.  The new psi_u is in only the degree-(k+1) pairs
    (psi_0, psi_u) and (psi_u, psi_0), which land on u: the post-check updates
    the obstruction pass by them and marks the result flat through k+1.
    """
    report = obstruction_classes(d, k)
    if not report.all_zero():
        return report
    alg = d.algebra
    added: dict[Monomial, Cochain] = {}
    for mono in report.classes:
        entry = report.defect.get(mono)
        if entry is None or entry.is_zero():
            continue
        added[mono] = massey_witness(alg, entry)  # the class vanished: the entry is a coboundary
    mu = _bracket_cochain(alg)
    for mono, entry in report.defect.items():
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


class MasseyWitness(Record):
    """A 2-cochain x_ij with d x_ij = [x_i, x_j] in the graded sense."""

    __slots__ = _fields = ("pair", "witness")

    def __init__(self, pair: tuple[int, int], witness: Cochain):
        super().__init__(pair, witness)


def massey3(
    alg: LeibnizAlgebra, hl2: CohomologySpace, classes: Sequence[Sequence],
    witnesses: Mapping[tuple[int, int], Cochain] | None = None,
) -> tuple[Vec, Cochain, tuple[MasseyWitness, ...]]:
    """Third-order bracket [x12,x3] + [x1,x23] + [x13,x2] as a class.

    Defined only when all pairwise second-order brackets vanish; witnesses
    x_ij satisfying d x_ij = [x_i, x_j] are found by the deterministic solver
    when not supplied, and verified exactly when they are.
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
    witness_objs = tuple(MasseyWitness(k, chosen[k]) for k in sorted(chosen))
    return (*_triple_bracket(alg, xs, chosen), witness_objs)


def push_forward(
    d: Deformation,
    target_base: LocalBase,
    images: Mapping[str, TruncatedPolynomial],
) -> Deformation:
    """Transport a deformation along a base homomorphism.

    The homomorphism is given by the images of the generators, one for each
    source generator and no other, which must be polynomials over the target
    base with zero constant term, and must send every source relation to 0.
    """
    n = d.algebra.dim
    for gen in images:
        if gen not in d.base.generators:
            raise PreconditionError(f"image supplied for {gen!r}, which is not a source generator")
    for gen in d.base.generators:
        if gen not in images:
            raise PreconditionError(f"no image supplied for generator {gen!r}")
        img = images[gen]
        if img.base != target_base:
            raise DimensionMismatch("image lives over the wrong base")
        if img.constant_term():
            raise PreconditionError(f"image of {gen!r} has a nonzero constant term")
    source_proxy = LocalBase(d.base.generators, d.base.truncation_order)
    for rel in d.base.relations:
        image = TruncatedPolynomial(source_proxy, dict(rel)).substitute(target_base, images)
        if not image.is_zero():
            raise PreconditionError(
                f"relation {render_poly(d.base, rel)} maps to {render_poly(target_base, image.data())}, not 0"
            )
    new_terms: dict[Monomial, Cochain] = {}
    for mono, psi in d.terms.items():
        poly = TruncatedPolynomial(source_proxy, {mono: F1}).substitute(target_base, images)
        for m2, c2 in poly.coeffs.items():
            if _degree(m2) == 0:
                raise PreconditionError("relations reduce a term to a constant")
            cur = new_terms.get(m2, Cochain.zeros(2, n))
            new_terms[m2] = cur + psi.scale(c2)
    return Deformation(d.algebra, target_base, new_terms)


def versal_construct(
    alg: LeibnizAlgebra,
    max_order: int,
    reps: Sequence[Cochain] | None = None,
) -> tuple[Deformation, dict[int, tuple[TruncatedPolynomial, ...]]]:
    """Order-by-order construction of a versal deformation up to max_order.

    Starts from the universal first-order deformation on the given (or
    computed) degree-2 representatives.  At each order the obstruction
    classes either vanish, yielding correction terms, or their class
    polynomials are adjoined to the base relation ideal, after which the
    extension goes through in the quotient.  Returns the deformation and the
    relations recorded per order (an empty record means the base is smooth up
    to max_order).
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
            # the class polynomials are normal: keep those that raise the rank
            _, index, _ = d.base._echelon
            span = Reducer()
            polys = tuple(
                p for _, p in result.relation_polynomials if span.insert(_sparse_poly(index, p.coeffs.items()))
            )
            relations_log[k + 1] = polys
            d = d.with_base(d.base.with_relations(polys))
            # the first try proved d flat through k, and relations homogeneous
            # of degree k+1 change no term or normal form of degree 0..k
            d._flat_through = k
            result = extend_to_order(d, k)
            if isinstance(result, ObstructionReport):
                raise LeibnizDeformError(
                    f"the order-{k + 1} obstruction survived its own relations"
                    f" {', '.join(render_poly(d.base, p.data()) for p in polys)}; internal error"
                )
        d = result
    return d, relations_log
