"""Cochain spaces, the coboundary operator and cohomology with adjoint coefficients.

A p-cochain is a p-linear map L^{tensor p} -> L stored as a dense table of
values on basis tuples.  Coordinates are fixed once and used by every matrix
in the package:

* input tuples (i_1, ..., i_p) are ordered lexicographically, matching the
  ordered tensor basis e_1 x e_1, e_1 x e_2, ..., e_n x e_n;
* the flattened coordinate vector of a cochain lists, for each input tuple in
  that order, the n output coordinates (output index varies fastest).

The coboundary of a p-cochain f is the (p+1)-cochain

    (df)(x_1..x_{p+1}) = [x_1, f(x_2..x_{p+1})]
        + sum_{i=2..p+1} (-1)^i [f(x_1..^x_i..x_{p+1}), x_i]
        + sum_{1<=i<j<=p+1} (-1)^{j+1} f(x_1,..,x_{i-1},[x_i,x_j],x_{i+1},..,^x_j,..,x_{p+1})

and satisfies d(d(f)) = 0, making the graded space a cochain complex.  ZL^p,
BL^p and HL^p denote cocycles, coboundaries and their quotient.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Mapping, Optional, Sequence

from .algebra import LeibnizAlgebra, validate
from .errors import DimensionMismatch, PreconditionError
from .linalg import (
    F0,
    F1,
    Matrix,
    SubspaceBasis,
    Vec,
    as_scalar,
    image_basis,
    kernel_basis,
    quotient_representatives,
    rref,
    solve,
    vec_add,
    vec_is_zero,
    vec_scale,
    zero_vec,
)


@dataclass(frozen=True)
class Cochain:
    """Dense p-linear map L^{tensor p} -> L; a 0-cochain is a single vector."""

    arity: int
    dim: int
    values: tuple[Vec, ...]

    def __post_init__(self):
        if self.arity < 0:
            raise DimensionMismatch("arity must be nonnegative")
        if len(self.values) != self.dim ** self.arity:
            raise DimensionMismatch("cochain table has wrong length")
        for v in self.values:
            if len(v) != self.dim:
                raise DimensionMismatch("cochain value has wrong length")

    @classmethod
    def zeros(cls, arity: int, dim: int) -> "Cochain":
        return cls(arity, dim, tuple(zero_vec(dim) for _ in range(dim ** arity)))

    @classmethod
    def from_entries(
        cls, arity: int, dim: int, entries: Mapping[tuple[int, ...], Mapping[int, object]]
    ) -> "Cochain":
        """Build from the nonzero values only; 0-based indices throughout."""
        table = [[F0] * dim for _ in range(dim ** arity)]
        for idx, value in entries.items():
            if len(idx) != arity or not all(0 <= i < dim for i in idx):
                raise DimensionMismatch(f"bad input tuple {idx}")
            t = cls._flat_input(dim, idx)
            for k, coeff in value.items():
                table[t][k] = as_scalar(coeff)
        return cls(arity, dim, tuple(tuple(row) for row in table))

    @classmethod
    def from_flat(cls, arity: int, dim: int, flat: Sequence) -> "Cochain":
        if len(flat) != dim ** arity * dim:
            raise DimensionMismatch("flat vector has wrong length")
        vals = tuple(
            tuple(as_scalar(flat[t * dim + k]) for k in range(dim))
            for t in range(dim ** arity)
        )
        return cls(arity, dim, vals)

    @staticmethod
    def _flat_input(dim: int, idx: tuple[int, ...]) -> int:
        t = 0
        for i in idx:
            t = t * dim + i
        return t

    def input_tuples(self):
        return itertools.product(range(self.dim), repeat=self.arity)

    def eval_basis(self, idx: tuple[int, ...]) -> Vec:
        return self.values[self._flat_input(self.dim, idx)]

    def flat(self) -> Vec:
        return tuple(x for v in self.values for x in v)

    def is_zero(self) -> bool:
        return all(vec_is_zero(v) for v in self.values)

    def __add__(self, other: "Cochain") -> "Cochain":
        self._check_shape(other)
        return Cochain(
            self.arity, self.dim,
            tuple(vec_add(a, b) for a, b in zip(self.values, other.values)),
        )

    def __sub__(self, other: "Cochain") -> "Cochain":
        self._check_shape(other)
        return Cochain(
            self.arity, self.dim,
            tuple(tuple(x - y for x, y in zip(a, b)) for a, b in zip(self.values, other.values)),
        )

    def __neg__(self) -> "Cochain":
        return self.scale(Fraction(-1))

    def scale(self, c) -> "Cochain":
        c = as_scalar(c)
        return Cochain(self.arity, self.dim, tuple(vec_scale(c, v) for v in self.values))

    def _check_shape(self, other: "Cochain"):
        if self.arity != other.arity or self.dim != other.dim:
            raise DimensionMismatch("cochain shapes differ")

    def nonzero_entries(self):
        """Yield (input tuple, value vector) for the nonzero table entries."""
        for idx in self.input_tuples():
            v = self.eval_basis(idx)
            if not vec_is_zero(v):
                yield idx, v


def eval_with_vector_slot(
    f: Cochain, prefix: tuple[int, ...], vector: Vec, suffix: tuple[int, ...]
) -> Vec:
    """Evaluate f on basis arguments with one general vector in the middle slot."""
    out = zero_vec(f.dim)
    for c, coeff in enumerate(vector):
        if coeff:
            out = vec_add(out, vec_scale(coeff, f.eval_basis(prefix + (c,) + suffix)))
    return out


def coboundary(alg: LeibnizAlgebra, f: Cochain) -> Cochain:
    """The coboundary of f; raises on dimension mismatch."""
    if f.dim != alg.dim:
        raise DimensionMismatch("cochain dimension differs from algebra dimension")
    n = alg.dim
    p = f.arity
    values = []
    for x in itertools.product(range(n), repeat=p + 1):
        acc = [F0] * n

        def add(sign: int, v: Vec):
            if sign == 1:
                for k in range(n):
                    if v[k]:
                        acc[k] += v[k]
            else:
                for k in range(n):
                    if v[k]:
                        acc[k] -= v[k]

        # [x_1, f(x_2 .. x_{p+1})]
        inner = f.eval_basis(x[1:])
        row = alg.structure_constants[x[0]]
        for c, coeff in enumerate(inner):
            if coeff:
                add(1, vec_scale(coeff, row[c]))

        # (-1)^i [f(x_1 .. ^x_i .. x_{p+1}), x_i] for i = 2 .. p+1 (1-based)
        for i1 in range(2, p + 2):
            args = x[: i1 - 1] + x[i1:]
            v = f.eval_basis(args)
            sign = 1 if i1 % 2 == 0 else -1
            xi = x[i1 - 1]
            for c, coeff in enumerate(v):
                if coeff:
                    add(sign, vec_scale(coeff, alg.structure_constants[c][xi]))

        # (-1)^{j+1} f(x_1,..,x_{i-1},[x_i,x_j],x_{i+1},..,^x_j,..) for i < j
        for i1 in range(1, p + 1):
            for j1 in range(i1 + 1, p + 2):
                bracket = alg.bracket_basis(x[i1 - 1], x[j1 - 1])
                if vec_is_zero(bracket):
                    continue
                prefix = x[: i1 - 1]
                suffix = x[i1: j1 - 1] + x[j1:]
                sign = 1 if (j1 + 1) % 2 == 0 else -1
                add(sign, eval_with_vector_slot(f, prefix, bracket, suffix))

        values.append(tuple(acc))
    return Cochain(p + 1, n, tuple(values))


@lru_cache(maxsize=None)
def coboundary_matrix(alg: LeibnizAlgebra, p: int) -> Matrix:
    """Matrix of the coboundary from p-cochains to (p+1)-cochains.

    Rows and columns use the flattened coordinates described in the module
    docstring; the matrix has n^{p+2} rows and n^{p+1} columns.  Assembled
    term by term from the defining formula rather than column by column; the
    tests pin agreement with ``coboundary`` applied to basis cochains.
    """
    if p < 0:
        raise PreconditionError("degree must be nonnegative")
    n = alg.dim
    ncols = n ** p * n
    nrows = n ** (p + 1) * n
    entries = [[F0] * ncols for _ in range(nrows)]
    sc = alg.structure_constants

    def flat_input(idx: tuple[int, ...]) -> int:
        t = 0
        for i in idx:
            t = t * n + i
        return t

    for x in itertools.product(range(n), repeat=p + 1):
        row_base = flat_input(x) * n

        # [x_1, f(x_2 .. x_{p+1})]: reads f at x[1:], acts by the left bracket
        col_base = flat_input(x[1:]) * n
        left = sc[x[0]]
        for c in range(n):
            for k in range(n):
                if left[c][k]:
                    entries[row_base + k][col_base + c] += left[c][k]

        # (-1)^i [f(x_1 .. ^x_i ..), x_i]
        for i1 in range(2, p + 2):
            col_base = flat_input(x[: i1 - 1] + x[i1:]) * n
            sign = 1 if i1 % 2 == 0 else -1
            xi = x[i1 - 1]
            for c in range(n):
                row_c = sc[c][xi]
                for k in range(n):
                    if row_c[k]:
                        entries[row_base + k][col_base + c] += sign * row_c[k]

        # (-1)^{j+1} f(x_1,..,[x_i,x_j],..,^x_j,..): output passes through
        for i1 in range(1, p + 1):
            for j1 in range(i1 + 1, p + 2):
                bracket = alg.bracket_basis(x[i1 - 1], x[j1 - 1])
                if vec_is_zero(bracket):
                    continue
                sign = 1 if (j1 + 1) % 2 == 0 else -1
                prefix = x[: i1 - 1]
                suffix = x[i1: j1 - 1] + x[j1:]
                for c in range(n):
                    if bracket[c]:
                        col_base = flat_input(prefix + (c,) + suffix) * n
                        coeff = sign * bracket[c]
                        for k in range(n):
                            entries[row_base + k][col_base + k] += coeff

    return Matrix(nrows, ncols, tuple(tuple(r) for r in entries))


@dataclass
class CohomologySpace:
    """Cocycles, coboundaries and chosen class representatives in one degree."""

    degree: int
    cocycle_basis: SubspaceBasis
    coboundary_basis: SubspaceBasis
    class_representatives: tuple[Cochain, ...]
    _project: Callable[[Sequence], Vec] = field(repr=False)

    @property
    def dim_cocycles(self) -> int:
        return self.cocycle_basis.dim

    @property
    def dim_coboundaries(self) -> int:
        return self.coboundary_basis.dim

    @property
    def dim(self) -> int:
        return len(self.class_representatives)

    def project_to_classes(self, cocycle) -> Vec:
        """Coordinates of a cocycle on the class representatives modulo coboundaries."""
        if isinstance(cocycle, Cochain):
            cocycle = cocycle.flat()
        return self._project(cocycle)


@lru_cache(maxsize=None)
def cohomology(alg: LeibnizAlgebra, p: int) -> CohomologySpace:
    """ZL^p, BL^p and HL^p with deterministic greedy representatives.

    Raises PreconditionError, naming the first violating basis triple, when
    the algebra does not satisfy the Leibniz identity.
    """
    if p < 1:
        raise PreconditionError("cohomology degree must be at least 1")
    violations = validate(alg)
    if violations:
        triple = ",".join(alg.label(i) for i in violations[0][0])
        raise PreconditionError(f"not a Leibniz algebra: the identity fails on ({triple})")
    zl = kernel_basis(coboundary_matrix(alg, p))
    bl = image_basis(coboundary_matrix(alg, p - 1))
    reps_basis, project = quotient_representatives(bl, zl)
    reps = tuple(Cochain.from_flat(p, alg.dim, v) for v in reps_basis.vectors)
    return CohomologySpace(p, zl, bl, reps, project)


def with_representatives(space: CohomologySpace, reps: Sequence[Cochain], alg: LeibnizAlgebra) -> CohomologySpace:
    """The same cohomology space presented on user-chosen representative cocycles.

    Each representative must be a cocycle and the family must be independent
    modulo coboundaries and of the right size.
    """
    if len(reps) != space.dim:
        raise PreconditionError(
            f"need exactly {space.dim} representatives, got {len(reps)}"
        )
    for r in reps:
        if not coboundary(alg, r).is_zero():
            raise PreconditionError("representative is not a cocycle")
    change = Matrix.from_columns(
        [space.project_to_classes(r) for r in reps], nrows=space.dim
    ) if space.dim else Matrix.zeros(0, 0)
    if len(rref(change)[1]) != space.dim:
        raise PreconditionError("representatives are dependent modulo coboundaries")
    old_project = space._project

    def project(v: Sequence) -> Vec:
        sol = solve(change, old_project(v))
        assert sol is not None  # change of basis is invertible
        return sol

    return CohomologySpace(
        space.degree, space.cocycle_basis, space.coboundary_basis, tuple(reps), project
    )


def lambda6_reference_representatives() -> tuple[Cochain, Cochain]:
    """The degree-2 class representatives that give the builtin 3-dimensional
    algebra its simplest deformed bracket table: mu_1 sends (e_2,e_3) to -e_1
    and mu_2 sends (e_1,e_3) to e_1, both zero elsewhere."""
    mu1 = Cochain.from_entries(2, 3, {(1, 2): {0: -1}})
    mu2 = Cochain.from_entries(2, 3, {(0, 2): {0: 1}})
    return mu1, mu2


def _coordinate_name(dim: int, flat_index: int, arity: int) -> str:
    idx = []
    t, k = divmod(flat_index, dim)
    for _ in range(arity):
        t, r = divmod(t, dim)
        idx.append(r + 1)
    idx.reverse()
    return "a_{%s}^%d" % (",".join(str(i) for i in idx), k + 1)


def cocycle_relations(alg: LeibnizAlgebra, p: int) -> list[str]:
    """Human-readable linear relations among cochain coordinates defining ZL^p.

    Each relation comes from one row of the reduced echelon form of the
    coboundary matrix and expresses a bound coordinate a_{i_1,..,i_p}^k in
    terms of the free ones.
    """
    if p < 1:
        raise PreconditionError("degree must be at least 1")
    reduced, pivots = rref(coboundary_matrix(alg, p))
    relations = []
    for ri, pcol in enumerate(pivots):
        row = reduced.entries[ri]
        terms = []
        for c in range(pcol + 1, reduced.cols):
            if row[c]:
                terms.append((-row[c], c))
        lhs = _coordinate_name(alg.dim, pcol, p)
        if not terms:
            relations.append(f"{lhs} = 0")
            continue
        parts = []
        for coeff, c in terms:
            name = _coordinate_name(alg.dim, c, p)
            mag = abs(coeff)
            body = name if mag == 1 else f"{mag}*{name}"
            if not parts:
                parts.append(body if coeff > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if coeff > 0 else f"- {body}")
        relations.append(f"{lhs} = " + " ".join(parts))
    return relations
