"""Readers of the JSON input files, an algebra file or a ``--reps`` file: only a
file loads this module, so a run on the builtin ``lambda6`` compiles none of it.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .algebra import LeibnizAlgebra
from .errors import FormatError

# The most structure constants of an algebra file that are allocated: far
# above the package's needs, far below what exhausts memory.
MAX_CONSTANTS = 10_000_000


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
    if dim ** 3 > MAX_CONSTANTS:
        raise FormatError(f"'dim' is {dim}: more than {MAX_CONSTANTS} structure constants")
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
