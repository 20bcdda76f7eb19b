"""Cochain spaces, the coboundary operator and cohomology with adjoint coefficients.

A p-cochain is a p-linear map L^{tensor p} -> L.  Its n^(p+1) coordinates
are numbered once, for every matrix in the package: the input tuples
(i_1, ..., i_p) are ordered lexicographically, matching the ordered tensor
basis e_1 x e_1, e_1 x e_2, ..., e_n x e_n, and output k of the value at the
t-th input tuple is coordinate t*n + k.  A cochain stores its nonzero
coordinates only, as the ``values.Sparse`` dict ``entries``, which is the
vector format of ``linalg`` too: the coboundary, the witness solve and the
class projection hand ``entries`` to it and take its results as they are.

The coboundary of a p-cochain f is the (p+1)-cochain

    (df)(x_1..x_{p+1}) = [x_1, f(x_2..x_{p+1})]
        + sum_{i=2..p+1} (-1)^i [f(x_1..^x_i..x_{p+1}), x_i]
        + sum_{1<=i<j<=p+1} (-1)^{j+1} f(x_1,..,x_{i-1},[x_i,x_j],x_{i+1},..,^x_j,..,x_{p+1})

and satisfies d(d(f)) = 0, making the graded space a cochain complex.  ZL^p,
BL^p and HL^p denote cocycles, coboundaries and their quotient.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Mapping
from functools import lru_cache

from .algebra import MAX_COORDINATES, LeibnizAlgebra, nonzero_constants, validate
from .errors import DimensionMismatch, PreconditionError
from .linalg import Matrix, _axpy, _scaled, quotient_representatives, rank
from .values import F0, Exact, Record, Sparse, Vec, _exact, _join_terms, as_scalar

# The most rows of a coboundary matrix that are built: a sparse row costs far
# more than a coordinate.  lambda6 has 59,049 rows in degree 8, 177,147 in 9.
MAX_ROWS = 100_000


def check_shape(arity: int, dim: int) -> None:
    """Raise DimensionMismatch for a negative arity or dimension, or a shape of
    more than ``MAX_COORDINATES`` coordinates, without computing the power."""
    if arity < 0 or dim < 0:
        raise DimensionMismatch(f"a cochain of arity {arity} and dimension {dim}: both must be nonnegative")
    # a long arity is refused unpowered: dim >= 2 gives dim ** (arity + 1) >= 2 ** 25
    if dim > 1 and (arity >= MAX_COORDINATES.bit_length() or dim ** (arity + 1) > MAX_COORDINATES):
        raise DimensionMismatch(f"a cochain of arity {arity} and dimension {dim} has {dim}^{arity + 1}"
                                f" coordinates, more than {MAX_COORDINATES}")


class Cochain(Record):
    """A p-linear map L^{tensor p} -> L stored as its nonzero coordinates,
    numbered as in the module docstring; a 0-cochain is a single vector.
    ``entries`` must hold no zero value and must not be modified."""

    __slots__ = _fields = ("arity", "dim", "entries")

    def __init__(self, arity: int, dim: int, entries: Sparse):
        if arity < 0:
            raise DimensionMismatch("arity must be nonnegative")
        super().__init__(arity, dim, entries)

    @classmethod
    def from_entries(
        cls, arity: int, dim: int, entries: Mapping[tuple[int, ...], Mapping[int, object]]
    ) -> "Cochain":
        """Build from values at input tuples; 0-based indices throughout.

        A shape that ``check_shape`` refuses raises DimensionMismatch before
        anything is built.
        """
        check_shape(arity, dim)
        out: Sparse = {}
        for idx, value in entries.items():
            if len(idx) != arity or not all(0 <= i < dim for i in idx):
                raise DimensionMismatch(f"bad input tuple {idx}")
            t = cls._flat_input(dim, idx) * dim
            for k, coeff in value.items():
                if not 0 <= k < dim:
                    raise DimensionMismatch(f"output index {k} of input tuple {idx} is outside 0..{dim - 1}")
                if x := _exact(coeff):
                    out[t + k] = x
        return cls(arity, dim, out)

    @staticmethod
    def _flat_input(dim: int, idx: tuple[int, ...]) -> int:
        t = 0
        for i in idx:
            t = t * dim + i
        return t

    def eval_basis(self, idx: tuple[int, ...]) -> Vec:
        t = self._flat_input(self.dim, idx) * self.dim
        return tuple(as_scalar(self.entries.get(t + k, F0)) for k in range(self.dim))

    def is_zero(self) -> bool:
        return not self.entries

    def __add__(self, other: "Cochain") -> "Cochain":
        if self.arity != other.arity or self.dim != other.dim:
            raise DimensionMismatch("cochain shapes differ")
        out = dict(self.entries)
        _axpy(out, 1, other.entries)
        return Cochain(self.arity, self.dim, out)

    def __sub__(self, other: "Cochain") -> "Cochain":
        return self + -other

    def __neg__(self) -> "Cochain":
        return self.scale(-1)

    def scale(self, c) -> "Cochain":
        c = _exact(c)
        return Cochain(self.arity, self.dim, _scaled(c, self.entries) if c else {})

    def _by_input(self) -> list[tuple[tuple[int, ...], list[tuple[int, Exact]]]]:
        """(input tuple, [(output index, value)]) for the inputs with a nonzero
        value, in lexicographic order, outputs in increasing order."""
        n, by_t = self.dim, {}
        for key in sorted(self.entries):
            by_t.setdefault(key // n, []).append((key % n, self.entries[key]))
        places = [n ** e for e in range(self.arity - 1, -1, -1)]
        return [(tuple(t // w % n for w in places), values) for t, values in by_t.items()]

    def nonzero_entries(self):
        """Yield (input tuple, value vector) for the nonzero values, inputs in
        lexicographic order."""
        for idx, _ in self._by_input():
            yield idx, self.eval_basis(idx)


def coboundary(alg: LeibnizAlgebra, f: Cochain) -> Cochain:
    """The coboundary of f; raises on dimension mismatch."""
    if f.dim != alg.dim:
        raise DimensionMismatch("cochain dimension differs from algebra dimension")
    return Cochain(f.arity + 1, alg.dim, coboundary_matrix(alg, f.arity).matvec(f.entries))


@lru_cache(maxsize=None)
def coboundary_matrix(alg: LeibnizAlgebra, p: int) -> Matrix:
    """Matrix of the coboundary from p-cochains to (p+1)-cochains.

    Rows and columns use the flattened coordinates described in the module
    docstring; the matrix has n^{p+2} rows and n^{p+1} columns.  It is
    assembled as sparse rows, term by term from the defining formula, visiting
    only the nonzero structure constants: the dense table is never built.
    The tests pin agreement with the direct evaluation ``direct_coboundary``
    in ``tests/helpers.py``.  A (p+1)-cochain shape that ``check_shape``
    refuses, or more than ``MAX_ROWS`` rows, raises DimensionMismatch before
    any row is built.
    """
    if p < 0:
        raise PreconditionError("degree must be nonnegative")
    n = alg.dim
    check_shape(p + 1, n)
    if n ** (p + 2) > MAX_ROWS:
        raise DimensionMismatch(f"the coboundary of degree {p} on dimension {n} has {n}^{p + 2} = {n ** (p + 2)}"
                                f" rows, more than {MAX_ROWS}")
    # [e_a, e_b] = sum_k v e_k, nonzero terms only, by the left argument a, by
    # the right argument b, and by the pair (a, b); integral v are ints
    nonzero, by_left, by_right = nonzero_constants(alg)
    by_pair = [[[] for _ in range(n)] for _ in range(n)]
    for a, b, k, v in nonzero:
        by_pair[a][b].append((k, v))

    rows: list[dict[int, object]] = []
    for x in itertools.product(range(n), repeat=p + 1):
        out = [{} for _ in range(n)]  # the rows of the outputs e_1 .. e_n at x

        # [x_1, f(x_2 .. x_{p+1})]: reads f at x[1:], acts by the left bracket
        col_base = Cochain._flat_input(n, x[1:]) * n
        for c, k, v in by_left[x[0]]:
            row = out[k]
            row[col_base + c] = row.get(col_base + c, 0) + v

        # (-1)^i [f(x_1 .. ^x_i ..), x_i]
        for i1 in range(2, p + 2):
            col_base = Cochain._flat_input(n, x[: i1 - 1] + x[i1:]) * n
            sign = 1 if i1 % 2 == 0 else -1
            for c, k, v in by_right[x[i1 - 1]]:
                row = out[k]
                row[col_base + c] = row.get(col_base + c, 0) + sign * v

        # (-1)^{j+1} f(x_1,..,[x_i,x_j],..,^x_j,..): output passes through
        for i1 in range(1, p + 1):
            for j1 in range(i1 + 1, p + 2):
                sign = 1 if (j1 + 1) % 2 == 0 else -1
                prefix = x[: i1 - 1]
                suffix = x[i1: j1 - 1] + x[j1:]
                for c, v in by_pair[x[i1 - 1]][x[j1 - 1]]:
                    col_base = Cochain._flat_input(n, prefix + (c,) + suffix) * n
                    for k, row in enumerate(out):
                        row[col_base + k] = row.get(col_base + k, 0) + sign * v
        rows.extend(out)

    return Matrix(n ** (p + 1) * n, n ** p * n, rows)


class CohomologySpace:
    """The dimensions of the cocycles and coboundaries in one degree, and
    chosen class representatives with the projection onto them."""

    def __init__(self, degree: int, dim_cocycles: int, dim_coboundaries: int,
                 class_representatives: tuple[Cochain, ...], _project: Callable[[Sparse], Vec]):
        self.degree = degree
        self.dim_cocycles = dim_cocycles
        self.dim_coboundaries = dim_coboundaries
        self.class_representatives = class_representatives
        self._project = _project

    @property
    def dim(self) -> int:
        return len(self.class_representatives)

    def project_to_classes(self, cocycle: Cochain) -> Vec:
        """Coordinates of a cocycle on the class representatives modulo coboundaries."""
        return self._project(cocycle.entries)


@lru_cache(maxsize=None)
def cohomology(alg: LeibnizAlgebra, p: int) -> CohomologySpace:
    """dim ZL^p, dim BL^p and HL^p with deterministic greedy representatives.

    The row echelon of the degree-p coboundary matrix is the only elimination
    at ambient length: dim ZL^p is its number of free columns, and
    ``quotient_representatives`` reads dim BL^p, the representatives and
    their projection off those columns.  Raises PreconditionError, naming the
    first violating basis triple, when the algebra does not satisfy the
    Leibniz identity.
    """
    if p < 1:
        raise PreconditionError("cohomology degree must be at least 1")
    violations = validate(alg)
    if violations:
        triple = ",".join(alg.label(i) for i in violations[0][0])
        raise PreconditionError(f"not a Leibniz algebra: the identity fails on ({triple})")
    delta = coboundary_matrix(alg, p)
    reps, project, dim_bl = quotient_representatives(delta, coboundary_matrix(alg, p - 1))
    classes = tuple(Cochain(p, alg.dim, v) for v in reps.vectors)
    return CohomologySpace(p, delta.cols - rank(delta), dim_bl, classes, project)


def cocycle_relations(alg: LeibnizAlgebra, p: int) -> list[str]:
    """Human-readable linear relations among cochain coordinates defining ZL^p.

    Each relation is one stored row of the reduced echelon form of the
    coboundary matrix, read from its cached elimination, and expresses a
    bound coordinate a_{i_1,..,i_p}^k in terms of the free ones.
    """
    if p < 1:
        raise PreconditionError("degree must be at least 1")
    labels = range(1, alg.dim + 1)
    names = ["a_{%s}^%d" % (",".join(map(str, idx)), k) for idx in itertools.product(labels, repeat=p) for k in labels]
    rows = coboundary_matrix(alg, p)._row_echelon.rows
    return [
        f"{names[q]} = {_join_terms([(-x, names[c]) for c, x in sorted(rows[q].items()) if c != q])}"
        for q in sorted(rows)
    ]
