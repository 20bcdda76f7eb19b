"""Deterministic exact linear algebra over the rationals.

Scalars are ``fractions.Fraction`` values in lowest terms; no floating point
is used anywhere.  Elimination is sparse: a row being reduced is a dict from
column index to its nonzero ``Fraction`` entries, absent columns being zero.
A ``Reducer`` grows a fully reduced echelon basis one inserted vector at a
time, optionally recording each pivot row as a combination of the inserted
vectors.

Factor once: each ``Matrix`` is eliminated at most once per side, and the
result is cached on the instance.  Its rows give ``rref``, ``rank`` and
``kernel_basis``; its columns, inserted in order with combinations tracked,
give ``image_basis`` and ``solve``.  Later queries on the same matrix, and the
``project`` returned by ``quotient_representatives``, only reduce one vector
against the stored pivot rows.

Outputs do not depend on how elimination is organised: the reduced row
echelon form is unique, its pivot columns are the greedily independent
columns, quotient representatives are chosen greedily in the order given, and
``solve`` returns the unique solution with every free variable zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterable, Optional, Sequence

from .errors import DimensionMismatch, PreconditionError

F0 = Fraction(0)
F1 = Fraction(1)

Vec = tuple[Fraction, ...]
Sparse = dict[int, Fraction]


def as_scalar(x) -> Fraction:
    """Coerce an int, string like ``"3/4"`` or Fraction to an exact scalar."""
    return x if type(x) is Fraction else Fraction(x)


def vec(entries: Iterable) -> Vec:
    return tuple(as_scalar(x) for x in entries)


def zero_vec(n: int) -> Vec:
    return (F0,) * n


def vec_add(a: Vec, b: Vec) -> Vec:
    return tuple(x + y for x, y in zip(a, b, strict=True))


def vec_scale(c: Fraction, a: Vec) -> Vec:
    return tuple(c * x for x in a)


def vec_is_zero(a: Vec) -> bool:
    return all(x == 0 for x in a)


def _sparse(v: Sequence) -> Sparse:
    # Dense zeros are mostly the shared F0; the identity test skips the
    # comparatively slow Fraction.__bool__ for them.
    return {j: x for j, x in enumerate(v) if x is not F0 and x}


def _axpy(y: Sparse, a: Fraction, x: Sparse) -> None:
    """y += a * x in place, dropping entries that cancel; a must be nonzero."""
    for c, xc in x.items():
        t = y.get(c)
        if t is None:
            y[c] = a * xc
        else:
            t += a * xc
            if t:
                y[c] = t
            else:
                del y[c]


class Reducer:
    """Sparse incremental Gauss-Jordan elimination.

    ``rows`` maps each pivot column to its fully reduced pivot row.  With
    ``track``, ``combos`` maps each pivot column to the coefficients, keyed
    by insertion index, of the inserted vectors that sum to its row.
    ``independent`` lists the insertion indices that raised the rank.
    """

    def __init__(self, track: bool = False):
        self.rows: dict[int, Sparse] = {}
        self.combos: Optional[dict[int, Sparse]] = {} if track else None
        self.independent: list[int] = []
        self.inserted = 0

    def _reduce(self, v: Sparse) -> tuple[Sparse, list[tuple[int, Fraction]]]:
        """The residual of v modulo the pivot rows, and the multiples subtracted.

        Pivot rows vanish at each other's pivot columns, so the multiples are
        just v's own entries at pivot columns.
        """
        rows = self.rows
        hits = [(p, x) for p, x in v.items() if p in rows]
        residual = dict(v)
        for p, f in hits:
            _axpy(residual, -f, rows[p])
        return residual, hits

    def insert(self, v: Sparse) -> bool:
        """Add v to the spanning set; True when it raised the rank."""
        index = self.inserted
        self.inserted += 1
        row, hits = self._reduce(v)
        if not row:
            return False
        p = min(row)
        inv = 1 / row[p]
        if inv != 1:
            row = {c: x * inv for c, x in row.items()}
        combos = self.combos
        if combos is not None:
            combo = {index: F1}
            for q, f in hits:
                _axpy(combo, -f, combos[q])
            if inv != 1:
                combo = {i: x * inv for i, x in combo.items()}
        for q, other in self.rows.items():
            f = other.get(p)
            if f:
                _axpy(other, -f, row)
                if combos is not None:
                    _axpy(combos[q], -f, combo)
        self.rows[p] = row
        if combos is not None:
            combos[p] = combo
        self.independent.append(index)
        return True

    def coordinates(self, v: Sparse) -> Optional[Sparse]:
        """Coefficients, keyed by insertion index, of the independent inserted
        vectors that sum to v; None when v is outside their span.  Needs ``track``."""
        residual, hits = self._reduce(v)
        if residual:
            return None
        out: Sparse = {}
        for p, f in hits:
            _axpy(out, f, self.combos[p])
        return out


def _eliminate(vectors: Iterable[Sequence], track: bool = False) -> Reducer:
    """Insert dense vectors, in order, into a fresh reducer."""
    reducer = Reducer(track)
    for v in vectors:
        reducer.insert(_sparse(v))
    return reducer


@dataclass(frozen=True)
class Matrix:
    """Dense row-major matrix of exact rationals."""

    rows: int
    cols: int
    entries: tuple[Vec, ...]

    def __post_init__(self):
        if len(self.entries) != self.rows:
            raise DimensionMismatch("row count does not match entries")
        for row in self.entries:
            if len(row) != self.cols:
                raise DimensionMismatch("ragged matrix rows")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "Matrix":
        entries = tuple(vec(r) for r in rows)
        ncols = len(entries[0]) if entries else 0
        return cls(len(entries), ncols, entries)

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence], nrows: Optional[int] = None) -> "Matrix":
        cols = [vec(c) for c in columns]
        if nrows is None:
            if not cols:
                raise DimensionMismatch("cannot infer row count of an empty column list")
            nrows = len(cols[0])
        entries = tuple(tuple(c[i] for c in cols) for i in range(nrows))
        return cls(nrows, len(cols), entries)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        return cls(rows, cols, tuple(zero_vec(cols) for _ in range(rows)))

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls(n, n, tuple(tuple(F1 if i == j else F0 for j in range(n)) for i in range(n)))

    def column(self, j: int) -> Vec:
        return tuple(row[j] for row in self.entries)

    def matvec(self, v: Sequence) -> Vec:
        if len(v) != self.cols:
            raise DimensionMismatch(f"matvec: {self.cols} columns vs vector of length {len(v)}")
        w = vec(v)
        return tuple(sum((r[j] * w[j] for j in range(self.cols) if w[j]), F0) for r in self.entries)

    def matmul(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise DimensionMismatch("matmul: inner dimensions differ")
        out = []
        for r in self.entries:
            nz = [(j, r[j]) for j in range(self.cols) if r[j]]
            row = [F0] * other.cols
            for j, c in nz:
                orow = other.entries[j]
                for k in range(other.cols):
                    if orow[k]:
                        row[k] += c * orow[k]
            out.append(tuple(row))
        return Matrix(self.rows, other.cols, tuple(out))

    def is_zero(self) -> bool:
        return all(vec_is_zero(r) for r in self.entries)

    @cached_property
    def _row_echelon(self) -> Reducer:
        return _eliminate(self.entries)

    @cached_property
    def _column_echelon(self) -> Reducer:
        columns = zip(*self.entries) if self.rows else [()] * self.cols
        return _eliminate(columns, track=True)


@dataclass(frozen=True)
class SubspaceBasis:
    """A list of linearly independent coordinate vectors in a fixed ambient space."""

    ambient_dim: int
    vectors: tuple[Vec, ...]

    def __post_init__(self):
        for v in self.vectors:
            if len(v) != self.ambient_dim:
                raise DimensionMismatch("basis vector length differs from ambient dimension")

    @property
    def dim(self) -> int:
        return len(self.vectors)


def rref(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form and the (strictly increasing) pivot columns."""
    echelon = m._row_echelon
    pivots = tuple(sorted(echelon.rows))
    dense = []
    for p in pivots:
        row = [F0] * m.cols
        for c, x in echelon.rows[p].items():
            row[c] = x
        dense.append(tuple(row))
    dense.extend([zero_vec(m.cols)] * (m.rows - len(pivots)))
    return Matrix(m.rows, m.cols, tuple(dense)), pivots


def rank(m: Matrix) -> int:
    return len(m._row_echelon.rows)


def kernel_basis(m: Matrix) -> SubspaceBasis:
    """Basis of the null space {v : m v = 0}.

    The basis is the standard free-variable one read off the reduced echelon
    form, with free variables taken in increasing column order.
    """
    rows = m._row_echelon.rows
    vectors = {f: [F0] * m.cols for f in range(m.cols) if f not in rows}
    for f, v in vectors.items():
        v[f] = F1
    for p, row in rows.items():
        for c, x in row.items():
            if c != p:
                vectors[c][p] = -x
    return SubspaceBasis(m.cols, tuple(tuple(v) for v in vectors.values()))


def image_basis(m: Matrix) -> SubspaceBasis:
    """Basis of the column space: the original columns in pivot positions."""
    return SubspaceBasis(m.rows, tuple(m.column(j) for j in m._column_echelon.independent))


def solve(m: Matrix, rhs: Sequence) -> Optional[Vec]:
    """One exact solution of ``m x = rhs``, or None when the system is inconsistent.

    The returned solution is the particular one with every free variable set
    to zero, which makes it deterministic.
    """
    if len(rhs) != m.rows:
        raise DimensionMismatch(f"solve: {m.rows} rows vs right-hand side of length {len(rhs)}")
    coords = m._column_echelon.coordinates(_sparse(vec(rhs)))
    if coords is None:
        return None
    return tuple(coords.get(j, F0) for j in range(m.cols))


def quotient_representatives(
    sub: SubspaceBasis, full: SubspaceBasis
) -> tuple[SubspaceBasis, Callable[[Sequence], Vec]]:
    """Extend ``sub`` to a basis of span(full) and return quotient coordinates.

    Representatives are chosen greedily from ``full`` in order.  The returned
    ``project`` callable maps any vector of span(full) to its coordinates on
    the representatives modulo span(sub).  It is a fault if ``sub`` is not
    contained in span(full).
    """
    if sub.ambient_dim != full.ambient_dim:
        raise DimensionMismatch("sub and full live in different ambient spaces")
    span = _eliminate(full.vectors)
    if any(span._reduce(_sparse(v))[0] for v in sub.vectors):
        raise PreconditionError("sub is not contained in the span of full")

    joint = _eliminate(sub.vectors, track=True)
    nsub = len(sub.vectors)
    rep_indices = []  # insertion indices into joint: sub first, then full
    for j, v in enumerate(full.vectors):
        if len(joint.rows) == len(span.rows):
            break
        if joint.insert(_sparse(v)):
            rep_indices.append(nsub + j)
    reps = tuple(full.vectors[i - nsub] for i in rep_indices)

    def project(v: Sequence) -> Vec:
        if len(v) != full.ambient_dim:
            raise DimensionMismatch(f"project: ambient dimension {full.ambient_dim} vs vector of length {len(v)}")
        coords = joint.coordinates(_sparse(vec(v)))
        if coords is None:
            raise PreconditionError("vector is not in the span of full")
        return tuple(coords.get(i, F0) for i in rep_indices)

    return SubspaceBasis(full.ambient_dim, reps), project
