"""Truncated polynomial bases: the local rings that deformations live over.

A base is K[t_1..t_m] cut off above a fixed total degree, with an optional
ideal of relation polynomials; monomials are exponent tuples.

Base elements are kept in one normal form modulo J = I + m^(N+1), with I the
relation ideal and N the truncation order.  J is held as its Macaulay echelon:
the products q r of each relation r with deg q + lowdeg r <= N, truncated,
fully reduced over the monomials in lex-descending order, so that each pivot is
the lex-largest monomial of its row and is eliminated first (t^2 - s^2
rewrites t^2 to s^2, and abelian(1)'s recorded relation t^2 reduces to zero).
The normal form is the residual modulo these rows: linear, independent of the
order of the relations and zero exactly on J, unit multiples included (modulo
t^2 - t^3 at order 4, t^2 = (t^2 - t^3)(1 + t + t^2) + t^5 is zero).

Base elements have one text and JSON format, kept here: ``render_poly`` and
``poly_to_json`` write terms in render order, ascending total degree and
earlier generators first within a degree (``1 - 1/2*s + t^2*s``).
``pushforward.parse_poly``, which only the ``pushforward`` command needs,
reads the text back.
"""

from __future__ import annotations

import itertools
import re
from collections.abc import Mapping, Sequence
from fractions import Fraction
from functools import cached_property

from .algebra import LeibnizAlgebra
from .errors import DimensionMismatch, PreconditionError
from .linalg import Reducer
from .values import F0, Record, Sparse, _exact, _join_terms, as_scalar

Monomial = tuple[int, ...]
PolyData = tuple[tuple[Monomial, Fraction], ...]

_NAME = r"[A-Za-z_]\w*"  # a generator name


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
    digits and ``_`` (``t``, ``t1``, ``x_2``), so that
    ``pushforward.parse_poly`` reads back what ``render_poly`` writes; names
    are checked before duplicates.
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
    residual = echelon._reduce({index[m]: c for m, c in work.items()})
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
