"""Exact values that every layer shares: rational scalars, vectors and records.

A scalar is a ``fractions.Fraction``; ``as_scalar`` coerces an int, a
string like ``"3/4"`` or a Fraction to one, and ``_exact`` gives the stored
form, an ``int`` when integral.  ``Sparse``, a dict from coordinate index to
a nonzero stored scalar, is the vector that cochains and ``linalg`` compute
with and pass between them.  ``Vec``, a tuple of Fractions with ``F0`` for
its zeros, is a dense view for output: structure constants, the values of a
cochain and class coordinates.  ``Record`` is the base of the package's
immutable values, and ``_join_terms`` writes a signed sum as text for every
renderer.  Only what needs nothing but ``fractions`` belongs here: this
module imports no other module of the package, so loading it compiles no
elimination or cochain code.
"""

from __future__ import annotations

from fractions import Fraction

F0 = Fraction(0)
F1 = Fraction(1)

Vec = tuple[Fraction, ...]
Exact = int | Fraction  # a stored scalar: int when integral
Sparse = dict[int, Exact]


class Record:
    """An immutable value with the fields named in ``_fields``.

    ``__init__`` sets them in order; instances of one class compare and hash
    by them, and assigning an attribute raises AttributeError.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init__(self, *values):
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._values() == other._values()

    def __hash__(self):
        return hash(_frozen(self._values()))

    def __repr__(self):
        return f"{type(self).__name__}({', '.join(f'{n}={getattr(self, n)!r}' for n in self._fields)})"


def _frozen(x):
    """x with each dict in it, at any depth of tuples, replaced by the frozen set of its items."""
    if type(x) is dict:
        return frozenset(x.items())
    return tuple(map(_frozen, x)) if type(x) is tuple else x


def as_scalar(x) -> Fraction:
    """Coerce an int, string like ``"3/4"`` or Fraction to an exact scalar."""
    return x if type(x) is Fraction else Fraction(x)


def _exact(x) -> Exact:
    """The stored form of a scalar: an int when integral, else a Fraction."""
    if type(x) is int:
        return x
    x = as_scalar(x)
    return x.numerator if x.denominator == 1 else x


def _join_terms(terms: list[tuple[int | Fraction, str]]) -> str:
    """Assemble signed terms; ``body`` may be empty for a bare coefficient."""
    if not terms:
        return "0"
    parts = []
    for coeff, body in terms:
        mag = abs(coeff)
        if body:
            piece = body if mag == 1 else f"{mag}*{body}"
        else:
            piece = str(mag)
        if not parts:
            parts.append(piece if coeff > 0 else f"-{piece}")
        else:
            parts.append(f"+ {piece}" if coeff > 0 else f"- {piece}")
    return " ".join(parts)
