"""Finite-dimensional Leibniz algebras given by structure constants.

A Leibniz algebra is a vector space with a bilinear bracket satisfying

    [x, [y, z]] = [[x, y], z] - [[x, z], y]

without any antisymmetry assumption.  An algebra of dimension n is stored as
the dense table c[i][j][k] with [e_i, e_j] = sum_k c[i][j][k] e_k; all
indices in code are 0-based, while serialized files and rendered reports use
1-based labels e_1..e_n.

Algebras are deliberately not validated at construction: the deformation
machinery builds candidate brackets that may fail the identity, and
``validate`` reports exactly where.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from fractions import Fraction

from .errors import DimensionMismatch, FormatError
from .values import F0, Record, Vec, as_scalar

# The most coordinates of a cochain, or structure constants of an algebra file,
# that the package allocates: far above its needs, far below what exhausts memory.
MAX_COORDINATES = 10_000_000


class LeibnizAlgebra(Record):
    _fields = ("dim", "structure_constants")
    __slots__ = (*_fields, "_hash")  # the hash, computed once: cache keys hash the algebra on every call

    def __init__(self, dim: int, structure_constants: tuple[tuple[Vec, ...], ...]):
        if len(structure_constants) != dim:
            raise DimensionMismatch("structure constant table has wrong shape")
        for plane in structure_constants:
            if len(plane) != dim or any(len(row) != dim for row in plane):
                raise DimensionMismatch("structure constant table has wrong shape")
        super().__init__(dim, structure_constants)
        object.__setattr__(self, "_hash", hash(self._values()))

    def __hash__(self):
        return self._hash

    @classmethod
    def from_brackets(cls, dim: int, brackets: Mapping[tuple[int, int], Mapping[int, object]]) -> "LeibnizAlgebra":
        """Build an algebra from the nonzero brackets only (0-based indices)."""
        table = [[[F0] * dim for _ in range(dim)] for _ in range(dim)]
        for (i, j), value in brackets.items():
            if not (0 <= i < dim and 0 <= j < dim):
                raise DimensionMismatch(f"bracket index ({i},{j}) out of range")
            for k, coeff in value.items():
                if not 0 <= k < dim:
                    raise DimensionMismatch(f"basis index {k} out of range")
                table[i][j][k] = as_scalar(coeff)
        entries = tuple(tuple(tuple(row) for row in plane) for plane in table)
        return cls(dim, entries)

    def bracket_basis(self, i: int, j: int) -> Vec:
        """[e_i, e_j] as a coordinate vector."""
        return self.structure_constants[i][j]

    def label(self, i: int) -> str:
        return f"e_{i + 1}"


def nonzero_constants(alg: LeibnizAlgebra) -> tuple[list, list[list], list[list]]:
    """The nonzero structure constants c_{ab}^m = x as (a, b, m, x) in
    lexicographic order, and in that order by a as (b, m, x) and by b as
    (a, m, x).  Integral x are ``int``s, so that sums of products are int sums."""
    nonzero = [(a, b, m, int(x) if x.denominator == 1 else x) for a, plane in enumerate(alg.structure_constants)
               for b, row in enumerate(plane) for m, x in enumerate(row) if x]
    by_left = [[(b, m, x) for a, b, m, x in nonzero if a == i] for i in range(alg.dim)]
    by_right = [[(a, m, x) for a, b, m, x in nonzero if b == i] for i in range(alg.dim)]
    return nonzero, by_left, by_right


def validate(alg: LeibnizAlgebra) -> list[tuple[tuple[int, int, int], Vec]]:
    """All basis triples violating the Leibniz identity, with their defects.

    By trilinearity the identity holds on the whole algebra iff it holds on
    basis triples, so an empty list certifies the algebra.  Each violation is
    ((i, j, k), [e_i,[e_j,e_k]] - [[e_i,e_j],e_k] + [[e_i,e_k],e_j]), and the
    triples come in lexicographic order.  Each of the three terms is summed
    over pairs of nonzero structure constants only.
    """
    n = alg.dim
    nonzero, by_left, by_right = nonzero_constants(alg)
    defects: dict[tuple[int, int, int], list] = {}
    for a, b, m, x in nonzero:
        terms = [((i, a, b), out, x * y) for i, out, y in by_right[m]]  # [e_i,[e_a,e_b]]
        for c, out, y in by_left[m]:  # [[e_a,e_b],e_c], subtracted at (a, b, c) and added at (a, c, b)
            terms += [((a, b, c), out, -x * y), ((a, c, b), out, x * y)]
        for triple, out, value in terms:
            defects.setdefault(triple, [F0] * n)[out] += value
    return [(t, tuple(defects[t])) for t in sorted(defects) if any(defects[t])]


def lambda6() -> LeibnizAlgebra:
    """The 3-dimensional nilpotent algebra with [e_1,e_3] = e_2 and [e_3,e_3] = e_1."""
    return LeibnizAlgebra.from_brackets(3, {(0, 2): {1: 1}, (2, 2): {0: 1}})


def abelian(dim: int) -> LeibnizAlgebra:
    """The algebra with every bracket zero."""
    return LeibnizAlgebra.from_brackets(dim, {})


# ---------------------------------------------------------------------------
# JSON file format.  1-based indices; rational coefficients as "p/q" or "p";
# unlisted brackets are zero.  Serialization is canonical (brackets sorted by
# (left, right), entries by basis index) so round-trips are bit-exact.
# ---------------------------------------------------------------------------


def vector_to_json(v: Vec) -> list[dict]:
    """The nonzero coordinates of a vector, as 1-based ``basis`` and ``coeff``."""
    return [{"basis": k + 1, "coeff": str(x)} for k, x in enumerate(v) if x]


def algebra_to_json(alg: LeibnizAlgebra) -> str:
    brackets = []
    for i in range(alg.dim):
        for j in range(alg.dim):
            value = vector_to_json(alg.bracket_basis(i, j))
            if value:
                brackets.append({"left": i + 1, "right": j + 1, "value": value})
    doc = {"dim": alg.dim, "brackets": brackets}
    return json.dumps(doc, indent=2, sort_keys=True)


def json_index(x, what: str) -> int:
    """An integer read from JSON; TypeError for anything else, a bool or float included."""
    if type(x) is not int:
        raise TypeError(f"{what} is {json.dumps(x)}, not an integer")
    return x


def vector_from_json(terms, dim: int, where: str) -> dict[int, Fraction]:
    """The 0-based {basis: coeff} table of a ``vector_to_json`` list.

    Raises FormatError naming ``where`` and the basis when a term's basis is
    not an index in 1..dim or repeats an earlier one, or its coeff is not a
    rational or has an exponent beyond 4300, whose power of 10 ``Fraction``
    would compute.
    """
    if not isinstance(terms, list):
        raise FormatError(f"{where} has value {json.dumps(terms)}; expected a list")
    value: dict[int, Fraction] = {}
    for term in terms:
        k = term.get("basis") if isinstance(term, dict) else None
        if type(k) is not int or not 1 <= k <= dim:  # a bool or float is no index
            raise FormatError(f"{where} has basis {json.dumps(k)}; expected an index in 1..{dim}")
        if k - 1 in value:
            raise FormatError(f"{where} repeats basis {k}")
        try:
            coeff = str(term["coeff"])
            if abs(int(coeff.lower().partition("e")[2] or 0)) > 4300:
                raise FormatError(f"{where} has a 'coeff' with an exponent beyond 4300 at basis {k}")
            value[k - 1] = Fraction(coeff)
        except (KeyError, ValueError, ZeroDivisionError) as e:
            raise FormatError(f"{where} has no rational 'coeff' at basis {k}") from e
    return value


class _ExactNumber(float):
    """A JSON number with a fraction or an exponent: a float whose ``str`` is its
    source text, which ``Fraction`` reads exactly."""

    def __init__(self, text: str):
        self.text = text

    def __str__(self):
        return self.text


def parse_json(text: str):
    """The document of JSON ``text``, its numbers with a fraction or an exponent
    ``_ExactNumber``s.  Malformed JSON, a number too long or nesting too deep
    raises FormatError."""
    try:
        return json.loads(text, parse_float=_ExactNumber)
    except json.JSONDecodeError as e:
        raise FormatError(f"invalid JSON: {e.msg}", line=e.lineno, column=e.colno) from e
    except (ValueError, RecursionError) as e:
        raise FormatError(f"invalid JSON: {e}") from e


def algebra_from_json(text: str) -> LeibnizAlgebra:
    doc = parse_json(text)
    if not isinstance(doc, dict):
        raise FormatError("algebra document must be a JSON object")
    dim = doc.get("dim")
    if type(dim) is not int or dim < 1:  # a bool or float is no dimension
        raise FormatError("'dim' must be a positive integer")
    if dim ** 3 > MAX_COORDINATES:
        raise FormatError(f"'dim' is {dim}: more than {MAX_COORDINATES} structure constants")
    items = doc.get("brackets", [])
    if not isinstance(items, list):
        raise FormatError("'brackets' must be a list")
    brackets: dict[tuple[int, int], dict[int, Fraction]] = {}
    for pos, item in enumerate(items):
        where = f"brackets[{pos}]"
        if not isinstance(item, dict):
            raise FormatError(f"{where} must be an object")
        try:
            i, j = json_index(item["left"], "'left'"), json_index(item["right"], "'right'")
        except (KeyError, TypeError) as e:
            raise FormatError(f"{where} needs integer 'left' and 'right'") from e
        if not (1 <= i <= dim and 1 <= j <= dim):
            raise FormatError(f"{where}: index out of range for dim {dim}")
        if (i - 1, j - 1) in brackets:
            raise FormatError(f"{where} repeats the bracket of left {i} and right {j}")
        brackets[(i - 1, j - 1)] = vector_from_json(item.get("value", []), dim, where)
    return LeibnizAlgebra.from_brackets(dim, brackets)


def read_text(path: str, what: str) -> str:
    """The text of the UTF-8 file ``path``.  A file that cannot be read, or
    holds a byte that is not UTF-8, raises FormatError naming ``what``, the
    path and the byte's offset."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise FormatError(f"cannot read {what} {path!r}: {e}") from e
    except UnicodeDecodeError as e:
        raise FormatError(f"cannot read {what} {path!r}: byte 0x{e.object[e.start]:02x}"
                          f" at offset {e.start} is not UTF-8") from e


def load_algebra(path_or_name: str) -> LeibnizAlgebra:
    """Load an algebra file, or resolve the builtin name ``lambda6``."""
    if path_or_name == "lambda6":
        return lambda6()
    return algebra_from_json(read_text(path_or_name, "algebra file"))
