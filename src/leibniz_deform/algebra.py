"""Finite-dimensional Leibniz algebras given by structure constants.

A Leibniz algebra is a vector space with a bilinear bracket satisfying

    [x, [y, z]] = [[x, y], z] - [[x, z], y]

without any antisymmetry assumption.  An algebra of dimension n is stored as
the dense table c[i][j][k] with [e_i, e_j] = sum_k c[i][j][k] e_k; all
indices in code are 0-based, while serialized files and rendered reports use
1-based labels e_1..e_n.

Algebras are deliberately not validated at construction: the deformation
machinery builds candidate brackets that may fail the identity, and
``validate`` reports exactly where.  Algebra files are written here and read
by ``readers``, which ``load_algebra`` loads only for a path, so a run on the
builtin ``lambda6`` compiles no reader.
"""

from __future__ import annotations

import json
from collections.abc import Mapping

from . import readers
from .errors import DimensionMismatch
from .values import F0, Record, Vec, as_scalar


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


def load_algebra(path_or_name: str) -> LeibnizAlgebra:
    """Load an algebra file with ``readers``, or resolve the builtin name ``lambda6``."""
    if path_or_name == "lambda6":
        return lambda6()
    return readers.algebra_from_json(readers.read_text(path_or_name, "algebra file"))
