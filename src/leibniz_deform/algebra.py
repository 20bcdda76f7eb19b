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
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from .errors import DimensionMismatch, FormatError
from .linalg import F0, Vec, as_scalar, vec_is_zero


@dataclass(frozen=True)
class LeibnizAlgebra:
    dim: int
    structure_constants: tuple[tuple[Vec, ...], ...]
    basis_labels: Optional[tuple[str, ...]] = None

    def __post_init__(self):
        n = self.dim
        if len(self.structure_constants) != n:
            raise DimensionMismatch("structure constant table has wrong shape")
        for plane in self.structure_constants:
            if len(plane) != n or any(len(row) != n for row in plane):
                raise DimensionMismatch("structure constant table has wrong shape")
        if self.basis_labels is not None and len(self.basis_labels) != n:
            raise DimensionMismatch("wrong number of basis labels")

    @classmethod
    def from_brackets(
        cls,
        dim: int,
        brackets: Mapping[tuple[int, int], Mapping[int, object]],
        basis_labels: Optional[Sequence[str]] = None,
    ) -> "LeibnizAlgebra":
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
        labels = tuple(basis_labels) if basis_labels is not None else None
        return cls(dim, entries, labels)

    def bracket_basis(self, i: int, j: int) -> Vec:
        """[e_i, e_j] as a coordinate vector."""
        return self.structure_constants[i][j]

    def label(self, i: int) -> str:
        if self.basis_labels is not None:
            return self.basis_labels[i]
        return f"e_{i + 1}"


def bracket_eval(alg: LeibnizAlgebra, x: Sequence, y: Sequence) -> Vec:
    """Bilinear extension of the structure constants to arbitrary vectors."""
    n = alg.dim
    if len(x) != n or len(y) != n:
        raise DimensionMismatch("vector length differs from algebra dimension")
    out = [F0] * n
    for i in range(n):
        xi = x[i]
        if not xi:
            continue
        for j in range(n):
            yj = y[j]
            if not yj:
                continue
            c = xi * yj
            row = alg.structure_constants[i][j]
            for k in range(n):
                if row[k]:
                    out[k] += c * row[k]
    return tuple(out)


def validate(alg: LeibnizAlgebra) -> list[tuple[tuple[int, int, int], Vec]]:
    """All basis triples violating the Leibniz identity, with their defects.

    By trilinearity the identity holds on the whole algebra iff it holds on
    basis triples, so an empty list certifies the algebra.  Each violation is
    ((i, j, k), [e_i,[e_j,e_k]] - [[e_i,e_j],e_k] + [[e_i,e_k],e_j]).
    """
    n = alg.dim
    basis = [tuple(F0 if t != i else Fraction(1) for t in range(n)) for i in range(n)]
    violations = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                lhs = bracket_eval(alg, basis[i], alg.bracket_basis(j, k))
                r1 = bracket_eval(alg, alg.bracket_basis(i, j), basis[k])
                r2 = bracket_eval(alg, alg.bracket_basis(i, k), basis[j])
                defect = tuple(a - b + c for a, b, c in zip(lhs, r1, r2))
                if not vec_is_zero(defect):
                    violations.append(((i, j, k), defect))
    return violations


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


def algebra_to_json(alg: LeibnizAlgebra) -> str:
    brackets = []
    for i in range(alg.dim):
        for j in range(alg.dim):
            row = alg.bracket_basis(i, j)
            value = [
                {"basis": k + 1, "coeff": str(row[k])}
                for k in range(alg.dim)
                if row[k]
            ]
            if value:
                brackets.append({"left": i + 1, "right": j + 1, "value": value})
    doc = {"dim": alg.dim, "brackets": brackets}
    return json.dumps(doc, indent=2, sort_keys=True)


def algebra_from_json(text: str) -> LeibnizAlgebra:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise FormatError(f"invalid JSON: {e.msg}", line=e.lineno, column=e.colno) from e
    if not isinstance(doc, dict):
        raise FormatError("algebra document must be a JSON object")
    dim = doc.get("dim")
    if not isinstance(dim, int) or dim < 1:
        raise FormatError("'dim' must be a positive integer")
    brackets: dict[tuple[int, int], dict[int, Fraction]] = {}
    for pos, item in enumerate(doc.get("brackets", [])):
        where = f"brackets[{pos}]"
        if not isinstance(item, dict):
            raise FormatError(f"{where} must be an object")
        try:
            i, j = int(item["left"]), int(item["right"])
        except (KeyError, TypeError, ValueError) as e:
            raise FormatError(f"{where} needs integer 'left' and 'right'") from e
        if not (1 <= i <= dim and 1 <= j <= dim):
            raise FormatError(f"{where}: index out of range for dim {dim}")
        value: dict[int, Fraction] = {}
        for vpos, term in enumerate(item.get("value", [])):
            vwhere = f"{where}.value[{vpos}]"
            try:
                k = int(term["basis"])
                coeff = Fraction(str(term["coeff"]))
            except (KeyError, TypeError, ValueError, ZeroDivisionError) as e:
                raise FormatError(f"{vwhere} needs 'basis' and rational 'coeff'") from e
            if not 1 <= k <= dim:
                raise FormatError(f"{vwhere}: basis index out of range")
            value[k - 1] = coeff
        brackets[(i - 1, j - 1)] = value
    return LeibnizAlgebra.from_brackets(dim, brackets)


def load_algebra(path_or_name: str) -> LeibnizAlgebra:
    """Load an algebra file, or resolve the builtin name ``lambda6``."""
    if path_or_name == "lambda6":
        return lambda6()
    try:
        with open(path_or_name, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise FormatError(f"cannot read algebra file {path_or_name!r}: {e}") from e
    return algebra_from_json(text)
