"""Deformations of a Leibniz algebra over truncated local bases.

A deformation base is K[t_1..t_m] cut off above a fixed total degree, with an
optional ideal of relation polynomials.  A deformation assigns to every
nonzero monomial of the base a 2-cochain; the degree-0 part is always the
original bracket, so the evaluation-at-0 map is a homomorphism onto the
undeformed algebra.

The failure of the Leibniz identity for the deformed bracket,

    D(x,y,z) = [x,[y,z]] - [[x,y],z] + [[x,z],y],

expands monomial by monomial.  Its degree-u entry is

    D_u = (coboundary of psi_u) - (1/2) sum_{m m' = u} [psi_m, psi_m']

where the sum runs over ordered pairs of nonconstant monomials and [,] is the
superbracket; the implementation sums ordered pairs once each, which avoids
the division by two.  When D vanishes through degree k, the degree-(k+1)
entries are closed 3-cochains whose classes obstruct extension: the
deformation extends to order k+1 iff they all vanish, and the new terms are
particular solutions of (coboundary) psi_u = -D_u.  Accumulating the nonzero
class polynomials as base relations instead yields the versal construction.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Mapping, Optional, Sequence

from .algebra import LeibnizAlgebra
from .cochain import (
    Cochain,
    CohomologySpace,
    coboundary,
    coboundary_matrix,
    cohomology,
)
from .errors import DimensionMismatch, LeibnizDeformError, PreconditionError
from .graded import GradedElement, graded_bracket
from .linalg import F0, F1, Vec, as_scalar, solve, vec_is_zero

Monomial = tuple[int, ...]
PolyData = tuple[tuple[Monomial, Fraction], ...]

_DEFAULT_NAMES = ("t", "s", "u", "v", "w")


def _degree(mono: Monomial) -> int:
    return sum(mono)


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x + y for x, y in zip(a, b))


def _divides(a: Monomial, b: Monomial) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _render_key(mono: Monomial):
    # ascending total degree; within a degree the earlier generators come first
    return (_degree(mono), tuple(-e for e in mono))


def _canonical_poly_data(coeffs: Mapping[Monomial, Fraction]) -> PolyData:
    return tuple(sorted(((m, c) for m, c in coeffs.items() if c), key=lambda mc: _render_key(mc[0])))


@dataclass(frozen=True)
class LocalBase:
    """K[t_1..t_m] truncated above ``truncation_order``, modulo ``relations``.

    The maximal ideal is generated by the parameters; evaluation at 0 is the
    augmentation.  Relations are stored as canonical coefficient tables and
    must have zero constant term.
    """

    generators: tuple[str, ...]
    truncation_order: int
    relations: tuple[PolyData, ...] = ()

    def __post_init__(self):
        if len(set(self.generators)) != len(self.generators):
            raise PreconditionError("duplicate generator names")
        if self.truncation_order < 0:
            raise PreconditionError("truncation order must be nonnegative")
        for rel in self.relations:
            for mono, coeff in rel:
                if len(mono) != len(self.generators):
                    raise DimensionMismatch("relation monomial has wrong arity")
                if _degree(mono) == 0 and coeff:
                    raise PreconditionError("relation has a nonzero constant term")

    @property
    def num_generators(self) -> int:
        return len(self.generators)

    def zero_monomial(self) -> Monomial:
        return (0,) * self.num_generators

    def monomials(self, max_degree: Optional[int] = None) -> list[Monomial]:
        """Every exponent tuple up to the truncation order, in render order."""
        top = self.truncation_order if max_degree is None else min(max_degree, self.truncation_order)
        out: list[Monomial] = []
        m = self.num_generators
        for d in range(top + 1):
            out.extend(sorted(_compositions(d, m), key=_render_key))
        return out

    def zero(self) -> "TruncatedPolynomial":
        return TruncatedPolynomial(self, {})

    def one(self) -> "TruncatedPolynomial":
        return self.constant(F1)

    def constant(self, c) -> "TruncatedPolynomial":
        return TruncatedPolynomial(self, {self.zero_monomial(): as_scalar(c)})

    def generator(self, name: str) -> "TruncatedPolynomial":
        idx = self.generators.index(name)
        mono = tuple(1 if i == idx else 0 for i in range(self.num_generators))
        return TruncatedPolynomial(self, {mono: F1})

    def monomial(self, mono: Monomial, coeff=1) -> "TruncatedPolynomial":
        return TruncatedPolynomial(self, {tuple(mono): as_scalar(coeff)})

    def with_truncation(self, order: int) -> "LocalBase":
        return LocalBase(self.generators, order, self.relations)

    def with_relations(self, extra: Sequence["TruncatedPolynomial | PolyData"]) -> "LocalBase":
        new = list(self.relations)
        for rel in extra:
            data = rel.data() if isinstance(rel, TruncatedPolynomial) else _canonical_poly_data(dict(rel))
            if data:
                new.append(data)
        return LocalBase(self.generators, self.truncation_order, tuple(new))


def _compositions(total: int, parts: int) -> list[Monomial]:
    if parts == 0:
        return [()] if total == 0 else []
    if parts == 1:
        return [(total,)]
    out = []
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            out.append((first,) + rest)
    return out


@lru_cache(maxsize=None)
def _reduction_rules(base: LocalBase):
    """Per relation: (leading monomial, substitution terms).

    The leading monomial is the lexicographically largest one; the relation
    coefficient-normalized so the substitution reads leading = sum(terms).
    """
    rules = []
    for rel in base.relations:
        lead_mono, lead_coeff = max(rel, key=lambda mc: mc[0])
        rest = tuple((m, -c / lead_coeff) for m, c in rel if m != lead_mono)
        rules.append((lead_mono, rest))
    return tuple(rules)


def _normalize(base: LocalBase, coeffs: dict[Monomial, Fraction]) -> dict[Monomial, Fraction]:
    work = {m: c for m, c in coeffs.items() if c and _degree(m) <= base.truncation_order}
    rules = _reduction_rules(base)
    if not rules:
        return work
    while True:
        target = None
        for m in work:
            for lead, rest in rules:
                if _divides(lead, m):
                    target = (m, lead, rest)
                    break
            if target:
                break
        if target is None:
            return work
        m, lead, rest = target
        c = work.pop(m)
        q = tuple(x - y for x, y in zip(m, lead))
        for m2, c2 in rest:
            nm = _mono_mul(q, m2)
            if _degree(nm) > base.truncation_order:
                continue
            nv = work.get(nm, F0) + c * c2
            if nv:
                work[nm] = nv
            else:
                work.pop(nm, None)


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

    def degree(self) -> int:
        return max((_degree(m) for m in self.coeffs), default=0)

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
        self._check_base(other)
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            out[m] = out.get(m, F0) - c
        return TruncatedPolynomial(self.base, out)

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
        from .reports import render_poly

        return f"TruncatedPolynomial({render_poly(self)!r})"


AVector = tuple[TruncatedPolynomial, ...]


@dataclass
class Deformation:
    """A base-valued bracket: one 2-cochain per nonzero monomial of the base.

    The zero-monomial coefficient is implicitly the bracket of ``algebra``.
    """

    algebra: LeibnizAlgebra
    base: LocalBase
    terms: dict[Monomial, Cochain] = field(default_factory=dict)

    def __post_init__(self):
        n = self.algebra.dim
        cleaned = {}
        for mono, psi in self.terms.items():
            mono = tuple(mono)
            if len(mono) != self.base.num_generators:
                raise DimensionMismatch("term monomial has wrong arity")
            if _degree(mono) == 0:
                raise PreconditionError("the zero monomial term is implicit")
            if psi.arity != 2 or psi.dim != n:
                raise DimensionMismatch("deformation terms must be 2-cochains over the algebra")
            if not psi.is_zero():
                cleaned[mono] = psi
        self.terms = cleaned

    def embed_basis(self, i: int) -> AVector:
        one = self.base.one()
        zero = self.base.zero()
        return tuple(one if k == i else zero for k in range(self.algebra.dim))

    def embed(self, v: Vec) -> AVector:
        return tuple(self.base.constant(c) for c in v)

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
        new_terms: dict[Monomial, Cochain] = {}
        n = self.algebra.dim
        for mono, psi in self.terms.items():
            poly = TruncatedPolynomial(base, {mono: F1})
            for m2, c2 in poly.coeffs.items():
                if _degree(m2) == 0:
                    raise PreconditionError("relations reduce a term to a constant")
                cur = new_terms.get(m2, Cochain.zeros(2, n))
                new_terms[m2] = cur + psi.scale(c2)
        return Deformation(self.algebra, base, new_terms)


def default_parameter_names(count: int) -> tuple[str, ...]:
    if count <= len(_DEFAULT_NAMES):
        return _DEFAULT_NAMES[:count]
    return tuple(f"t{i + 1}" for i in range(count))


def universal_infinitesimal(
    alg: LeibnizAlgebra,
    reps: Sequence[Cochain],
    names: Optional[Sequence[str]] = None,
) -> Deformation:
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
    gen_names = tuple(names) if names is not None else default_parameter_names(h)
    if len(gen_names) != h:
        raise DimensionMismatch("need one parameter name per representative")
    base = LocalBase(gen_names, 1)
    terms = {}
    for i, mu in enumerate(reps):
        mono = tuple(1 if k == i else 0 for k in range(h))
        terms[mono] = mu
    return Deformation(alg, base, terms)


def leibniz_defect(d: Deformation) -> dict[Monomial, Cochain]:
    """Per-monomial failure of the Leibniz identity for the deformed bracket.

    Returns one 3-cochain for every monomial of the base (zero monomial
    included); the deformation satisfies the identity over its truncated base
    iff every entry is zero.
    """
    n = d.algebra.dim
    monos = d.base.monomials()
    tables: dict[Monomial, list[Vec]] = {m: [] for m in monos}
    embeds = [d.embed_basis(i) for i in range(n)]
    pair = {}
    for b in range(n):
        for c in range(n):
            pair[(b, c)] = d.basis_bracket(b, c)
    for a, b, c in itertools.product(range(n), repeat=3):
        t1 = d.bracket(embeds[a], pair[(b, c)])
        t2 = d.bracket(pair[(a, b)], embeds[c])
        t3 = d.bracket(pair[(a, c)], embeds[b])
        jet = tuple(t1[k] - t2[k] + t3[k] for k in range(n))
        for m in monos:
            tables[m].append(tuple(p.coeff(m) for p in jet))
    return {m: Cochain(3, n, tuple(tables[m])) for m in monos}


def obstruction_classes(
    d: Deformation, k: int, hl3: Optional[CohomologySpace] = None
) -> "ObstructionReport":
    """Classes of the degree-(k+1) defect entries of a deformation flat to order k.

    Requires the defect to vanish in every degree up to k.  Each degree-(k+1)
    entry is checked to be closed (anything else signals a sign error) and
    projected to degree-3 cohomology; the per-class-direction polynomials that
    must vanish on the base are assembled from the projections.
    """
    if k < 1:
        raise PreconditionError("order must be at least 1")
    if hl3 is None:
        hl3 = cohomology(d.algebra, 3)
    flat = d.truncate_terms(k)
    defect = leibniz_defect(flat)
    for mono, entry in defect.items():
        if _degree(mono) <= k and not entry.is_zero():
            raise PreconditionError(
                f"defect does not vanish at degree {_degree(mono)} (monomial {mono})"
            )
    classes: dict[Monomial, Vec] = {}
    for mono in d.base.monomials(k + 1):
        if _degree(mono) != k + 1:
            continue
        entry = defect[mono]
        if not coboundary(d.algebra, entry).is_zero():
            raise LeibnizDeformError(
                "obstruction candidate is not closed; this signals an internal sign error"
            )
        classes[mono] = hl3.project_to_classes(entry)
    relation_polynomials = []
    for j in range(hl3.dim):
        poly = TruncatedPolynomial(d.base, {m: coords[j] for m, coords in classes.items()})
        if not poly.is_zero():
            relation_polynomials.append((j, poly))
    return ObstructionReport(k + 1, classes, tuple(relation_polynomials))


@dataclass
class ObstructionReport:
    """Obstruction classes at one order, plus the induced base relations."""

    order: int
    classes: dict[Monomial, Vec]
    relation_polynomials: tuple[tuple[int, TruncatedPolynomial], ...]

    def all_zero(self) -> bool:
        return all(vec_is_zero(c) for c in self.classes.values())


def extend_to_order(
    d: Deformation, k: int, hl3: Optional[CohomologySpace] = None
) -> "Deformation | ObstructionReport":
    """Extend a deformation flat to order k by one more order, if unobstructed.

    On success the new degree-(k+1) terms are the deterministic particular
    solutions of (coboundary) psi = -defect entry; otherwise the obstruction
    report is returned.
    """
    report = obstruction_classes(d, k, hl3)
    if not report.all_zero():
        return report
    alg = d.algebra
    flat = d.truncate_terms(k)
    defect = leibniz_defect(flat)
    delta2 = coboundary_matrix(alg, 2)
    new_terms = dict(flat.terms)
    for mono in d.base.monomials(k + 1):
        if _degree(mono) != k + 1:
            continue
        entry = defect[mono]
        if entry.is_zero():
            continue
        rhs = tuple(-x for x in entry.flat())
        sol = solve(delta2, rhs)
        assert sol is not None  # the class vanished, so the entry is a coboundary
        new_terms[mono] = Cochain.from_flat(2, alg.dim, sol)
    extended = Deformation(alg, d.base, new_terms)
    check = leibniz_defect(extended.truncate_terms(k + 1))
    for mono, entry in check.items():
        if _degree(mono) <= k + 1 and not entry.is_zero():
            raise LeibnizDeformError("extension failed to kill the defect; internal error")
    return extended


@dataclass(frozen=True)
class MasseyWitness:
    """A 2-cochain x_ij with d x_ij = [x_i, x_j] in the graded sense."""

    pair: tuple[int, int]
    witness: Cochain


def _combine(reps: Sequence[Cochain], coords: Sequence) -> Cochain:
    out = Cochain.zeros(2, reps[0].dim) if reps else None
    if out is None:
        raise PreconditionError("no representatives available")
    for c, r in zip(coords, reps):
        c = as_scalar(c)
        if c:
            out = out + r.scale(c)
    return out


def massey2(
    alg: LeibnizAlgebra,
    hl2: CohomologySpace,
    class_a: Sequence,
    class_b: Sequence,
    hl3: Optional[CohomologySpace] = None,
) -> tuple[Vec, Cochain]:
    """Second-order bracket: the superbracket of representatives, as a class.

    Returns the degree-3 class coordinates and the representing 3-cochain.
    """
    if hl3 is None:
        hl3 = cohomology(alg, 3)
    xa = _combine(hl2.class_representatives, class_a)
    xb = _combine(hl2.class_representatives, class_b)
    rep = graded_bracket(alg, GradedElement.of(xa), GradedElement.of(xb)).cochain
    return hl3.project_to_classes(rep), rep


def massey3(
    alg: LeibnizAlgebra,
    hl2: CohomologySpace,
    classes: Sequence[Sequence],
    witnesses: Optional[Mapping[tuple[int, int], Cochain]] = None,
    hl3: Optional[CohomologySpace] = None,
) -> tuple[Vec, Cochain, tuple[MasseyWitness, ...]]:
    """Third-order bracket [x12,x3] + [x1,x23] + [x13,x2] as a class.

    Defined only when all pairwise second-order brackets vanish; witnesses
    x_ij satisfying d x_ij = [x_i, x_j] are found by the deterministic solver
    when not supplied, and verified exactly when they are.
    """
    if len(classes) != 3:
        raise PreconditionError("need exactly three classes")
    if hl3 is None:
        hl3 = cohomology(alg, 3)
    xs = [_combine(hl2.class_representatives, c) for c in classes]
    brackets = {}
    for i, j in ((0, 1), (0, 2), (1, 2)):
        coords, rep = massey2(alg, hl2, classes[i], classes[j], hl3)
        if not vec_is_zero(coords):
            raise PreconditionError(f"second-order bracket of classes {i} and {j} does not vanish")
        brackets[(i, j)] = rep
    delta2 = coboundary_matrix(alg, 2)
    chosen: dict[tuple[int, int], Cochain] = {}
    for key, rep in brackets.items():
        if witnesses is not None and key in witnesses:
            w = witnesses[key]
            # d w = -(coboundary of w) in degree 1
            if (-coboundary(alg, w)) != rep:
                raise PreconditionError(f"supplied witness for pair {key} fails its equation")
            chosen[key] = w
        else:
            sol = solve(delta2, tuple(-x for x in rep.flat()))
            if sol is None:
                raise PreconditionError("no witness exists; contradicts vanishing second-order bracket")
            chosen[key] = Cochain.from_flat(2, alg.dim, sol)
    def gb(a: Cochain, b: Cochain) -> Cochain:
        return graded_bracket(alg, GradedElement.of(a), GradedElement.of(b)).cochain
    rep3 = gb(chosen[(0, 1)], xs[2]) + gb(xs[0], chosen[(1, 2)]) + gb(chosen[(0, 2)], xs[1])
    witness_objs = tuple(MasseyWitness(k, chosen[k]) for k in sorted(chosen))
    return hl3.project_to_classes(rep3), rep3, witness_objs


def push_forward(
    d: Deformation,
    target_base: LocalBase,
    images: Mapping[str, TruncatedPolynomial],
) -> Deformation:
    """Transport a deformation along a base homomorphism.

    The homomorphism is given by the images of the generators, which must be
    polynomials over the target base with zero constant term.
    """
    n = d.algebra.dim
    for gen in d.base.generators:
        if gen not in images:
            raise PreconditionError(f"no image supplied for generator {gen!r}")
        img = images[gen]
        if img.base != target_base:
            raise DimensionMismatch("image lives over the wrong base")
        if img.constant_term():
            raise PreconditionError(f"image of {gen!r} has a nonzero constant term")
    new_terms: dict[Monomial, Cochain] = {}
    source_proxy = LocalBase(d.base.generators, d.base.truncation_order)
    for mono, psi in d.terms.items():
        poly = TruncatedPolynomial(source_proxy, {mono: F1}).substitute(target_base, images)
        for m2, c2 in poly.coeffs.items():
            if _degree(m2) == 0:
                continue
            cur = new_terms.get(m2, Cochain.zeros(2, n))
            new_terms[m2] = cur + psi.scale(c2)
    return Deformation(d.algebra, target_base, new_terms)


def check_equivalence(
    phi: Sequence[Sequence[TruncatedPolynomial]],
    d1: Deformation,
    d2: Deformation,
):
    """Decide whether a base-linear map intertwines two deformed brackets.

    ``phi[i][j]`` is the e_i coefficient of the image of 1 x e_j.  True needs
    the constant part of the matrix to be invertible, the evaluation-at-0
    condition (constant part equal to the identity) and the intertwining
    identity on every basis pair modulo truncation.  Returns (ok, detail)
    where detail is None or the first counterexample.
    """
    if d1.algebra != d2.algebra or d1.base != d2.base:
        raise PreconditionError("deformations must share their algebra and base")
    n = d1.algebra.dim
    base = d1.base
    if len(phi) != n or any(len(row) != n for row in phi):
        raise DimensionMismatch("map matrix has wrong shape")
    const = [[phi[i][j].constant_term() for j in range(n)] for i in range(n)]
    from .linalg import Matrix, rank

    if rank(Matrix.from_rows(const)) != n:
        return False, "constant part of the matrix is not invertible"
    identity = all(const[i][j] == (1 if i == j else 0) for i in range(n) for j in range(n))
    if not identity:
        return False, "evaluation at 0 is not the identity"

    def apply(av: AVector) -> AVector:
        return tuple(
            sum((phi[i][j] * av[j] for j in range(n)), base.zero()) for i in range(n)
        )

    columns = [tuple(phi[i][j] for i in range(n)) for j in range(n)]
    for i in range(n):
        for j in range(n):
            lhs = apply(d1.basis_bracket(i, j))
            rhs = d2.bracket(columns[i], columns[j])
            if lhs != rhs:
                return False, (i, j, lhs, rhs)
    return True, None


def versal_construct(
    alg: LeibnizAlgebra,
    max_order: int,
    reps: Optional[Sequence[Cochain]] = None,
    names: Optional[Sequence[str]] = None,
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
    hl3 = cohomology(alg, 3)
    d = universal_infinitesimal(alg, reps, names)
    d = d.with_base(d.base.with_truncation(max_order))
    relations_log: dict[int, tuple[TruncatedPolynomial, ...]] = {}
    for k in range(1, max_order):
        result = extend_to_order(d, k, hl3)
        if isinstance(result, ObstructionReport):
            polys = tuple(p for _, p in result.relation_polynomials)
            relations_log[k + 1] = polys
            d = d.with_base(d.base.with_relations(polys))
            result = extend_to_order(d, k, hl3)
            if isinstance(result, ObstructionReport):
                raise LeibnizDeformError(
                    "obstruction survived its own relation ideal; the reduction is too weak"
                )
        d = result
    return d, relations_log
