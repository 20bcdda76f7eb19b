"""Deterministic exact linear algebra over the rationals.

No floating point is used anywhere.  A ``Matrix`` is stored as sparse rows:
dicts from column index to the nonzero entries, absent columns being zero.
A ``Reducer`` grows a fully reduced echelon basis one inserted sparse vector
at a time.

Scalar policy: in the stored rows, throughout elimination and in every
vector, an integral entry is a Python ``int`` and only a non-integral one is
a ``fractions.Fraction``: the stored form of ``values._exact``.  Integer
structure constants keep most entries integral, and ``int`` arithmetic skips
the ``Fraction`` overhead.  A pivot is inverted as ``Fraction(1, p)``, never
``1 / p``, and an integral ``Fraction`` result is demoted back to ``int``.
Vectors go in and out as ``values.Sparse`` dicts of nonzero stored scalars
(``matvec``, ``solve``, kernel and image vectors, quotient representatives
and ``project``'s argument); none is modified, and one handed out may be
shared with the matrix's caches.  Dense views leave as ``Fraction``s:
``Matrix.entries``, ``rref``, ``echelon_rows`` and ``project``'s coordinates.

Factor once: each ``Matrix`` is eliminated at most once per side, and the
result is cached on the instance.  Its rows, inserted sparsest first, give
``rref``, ``echelon_rows``, ``rank``, ``kernel_basis``, ``image_basis`` and
the quotient of ``quotient_representatives``; its columns, each extended by
a unit entry into [m | I], serve ``solve`` only.  Later queries, and the
``project`` returned by ``quotient_representatives``, only reduce one vector
against stored rows.

Outputs do not depend on how elimination is organised: the reduced row
echelon form is unique, its pivot columns are the greedily independent
columns, quotient representatives are chosen greedily in the order given, and
``solve`` returns the unique solution with every free variable zero.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping, Sequence
from fractions import Fraction
from functools import cached_property

from .errors import DimensionMismatch, PreconditionError
from .values import F0, Exact, Record, Sparse, Vec, _exact, as_scalar


def _check_keys(v: Sparse, n: int, what: str) -> None:
    """Raise DimensionMismatch unless every key of v is in 0..n-1."""
    if v and (min(v) < 0 or max(v) >= n):
        raise DimensionMismatch(f"{what}: a key outside 0..{n - 1}")


def _axpy(y: Sparse, a: Exact, x: Sparse) -> None:
    """y += a * x in place, dropping entries that cancel and demoting
    integral Fractions to int; a must be nonzero."""
    for c, xc in x.items():
        t = y.get(c)
        if t is None:
            t = a * xc
        else:
            t += a * xc
            if not t:
                del y[c]
                continue
        if type(t) is not int and t.denominator == 1:
            t = t.numerator
        y[c] = t


def _scaled(a: Exact, x: Sparse) -> Sparse:
    """a * x; a must be nonzero."""
    out: Sparse = {}
    _axpy(out, a, x)
    return out


class Reducer:
    """Sparse incremental Gauss-Jordan elimination.

    ``rows`` maps each pivot key to its fully reduced pivot row, whose pivot
    is its smallest key.  Callers choose the keys to choose the pivots:
    ``quotient_representatives`` keys free column f by -f, so the image
    pivots on the largest free columns, and ``solve`` appends to column j of
    an r x c matrix a unit entry at key r + c - 1 - j, after every row key
    and smaller for later columns, so a dependent column pivots on its own
    key.  Inserted vectors hold stored scalars and are not modified.
    """

    def __init__(self):
        self.rows: dict[int, Sparse] = {}

    def _reduce(self, v: Sparse) -> Sparse:
        """The residual of v modulo the pivot rows.  Pivot rows vanish at each
        other's pivot keys, so each subtracts v's own entry at its pivot."""
        rows = self.rows
        residual = dict(v)
        for p, f in v.items():
            if p in rows:
                _axpy(residual, -f, rows[p])
        return residual

    def insert(self, v: Sparse) -> bool:
        """Add v to the spanning set; True when it raised the rank."""
        row = self._reduce(v)
        if not row:
            return False
        p = min(row)
        if row[p] != 1:
            row = _scaled(_exact(Fraction(1, row[p])), row)
        for other in self.rows.values():
            f = other.get(p)
            if f:
                _axpy(other, -f, row)
        self.rows[p] = row
        return True


def _eliminate(vectors: Iterable[Sparse]) -> Reducer:
    """Insert sparse vectors, in order, into a fresh reducer."""
    reducer = Reducer()
    for v in vectors:
        reducer.insert(v)
    return reducer


class Matrix:
    """Matrix of exact rationals, stored as sparse rows.

    ``Matrix(rows, cols, row_dicts)`` has entry x at row i and column c for
    each c: x in ``row_dicts[i]``; absent columns and zero entries are zero.
    ``entries`` is the dense view, all ``Fraction``, built on first use.
    """

    def __init__(self, rows: int, cols: int, row_dicts: Sequence[Mapping[int, object]]):
        if len(row_dicts) != rows:
            raise DimensionMismatch("row count does not match entries")
        self.rows = rows
        self.cols = cols
        self._row_dicts = tuple({c: y for c, x in r.items() if (y := _exact(x))} for r in row_dicts)
        if any(not 0 <= c < cols for r in self._row_dicts for c in r):
            raise DimensionMismatch("column index out of range")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.rows, self.cols, self._row_dicts) == (other.rows, other.cols, other._row_dicts)

    def __repr__(self) -> str:
        return f"Matrix({self.rows}, {self.cols}, {self._row_dicts!r})"

    @cached_property
    def entries(self) -> tuple[Vec, ...]:
        return tuple(tuple(as_scalar(r.get(j, F0)) for j in range(self.cols)) for r in self._row_dicts)

    @cached_property
    def _columns(self) -> tuple[Sparse, ...]:
        columns: list[Sparse] = [{} for _ in range(self.cols)]
        for i, r in enumerate(self._row_dicts):
            for c, x in r.items():
                columns[c][i] = x
        return tuple(columns)

    def matvec(self, v: Sparse) -> Sparse:
        _check_keys(v, self.cols, "matvec")
        out: Sparse = {}
        columns = self._columns
        for j, x in v.items():
            _axpy(out, x, columns[j])
        return out

    @cached_property
    def _row_echelon(self) -> Reducer:
        # Nonzero rows, sparsest first by a stable sort: the reduced form is
        # unique, and short pivot rows keep the fill-in of later rows small.
        return _eliminate(sorted(filter(None, self._row_dicts), key=len))

    @cached_property
    def _kernel(self) -> dict[int, Sparse]:
        """The free-variable null space basis by free column, in increasing
        order: 1 at its free column f, minus the reduced rows' entries at f."""
        rows = self._row_echelon.rows
        kernel = {f: {f: 1} for f in range(self.cols) if f not in rows}
        for p, row in rows.items():
            for c, x in row.items():
                if c != p:
                    kernel[c][p] = -x
        return kernel

    @cached_property
    def _column_echelon(self) -> Reducer:
        # the columns of [self | I], column j's unit entry keyed as in the Reducer docstring
        last = self.rows + self.cols - 1
        return _eliminate({**column, last - j: 1} for j, column in enumerate(self._columns))


class SubspaceBasis(Record):
    """A list of linearly independent sparse vectors in a fixed ambient space."""

    __slots__ = _fields = ("ambient_dim", "vectors")

    def __init__(self, ambient_dim: int, vectors: tuple[Sparse, ...]):
        for v in vectors:
            _check_keys(v, ambient_dim, f"a basis vector of ambient dimension {ambient_dim}")
        super().__init__(ambient_dim, vectors)

    @property
    def dim(self) -> int:
        return len(self.vectors)


def echelon_rows(m: Matrix) -> tuple[tuple[int, dict[int, Fraction]], ...]:
    """The nonzero rows of the reduced row echelon form, sparse: (pivot
    column, {column: entry}) pairs, pivots and columns in increasing order."""
    rows = m._row_echelon.rows
    return tuple((p, {c: as_scalar(x) for c, x in sorted(rows[p].items())}) for p in sorted(rows))


def rref(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form and the (strictly increasing) pivot columns."""
    reduced = echelon_rows(m)
    rows = [row for _, row in reduced] + [{}] * (m.rows - len(reduced))
    return Matrix(m.rows, m.cols, rows), tuple(p for p, _ in reduced)


def rank(m: Matrix) -> int:
    return len(m._row_echelon.rows)


def kernel_basis(m: Matrix) -> SubspaceBasis:
    """Basis of the null space {v : m v = 0}.

    The basis is the standard free-variable one read off the reduced echelon
    form, with free variables taken in increasing column order.
    """
    return SubspaceBasis(m.cols, tuple(m._kernel.values()))


def kernel_lift(m: Matrix, v: Sparse) -> Sparse:
    """The vector of ker m with v's entries at m's free columns: the
    combination of ``kernel_basis(m)`` that they give.  It is v exactly when
    v is in ker m, and a new dict that the caller may modify."""
    kernel, lift = m._kernel, {}
    for f, x in v.items():
        if f in kernel:
            _axpy(lift, x, kernel[f])
    return lift


def image_basis(m: Matrix) -> SubspaceBasis:
    """Basis of the column space: the original columns at the pivots of the
    reduced row echelon form, which are the greedily independent columns."""
    return SubspaceBasis(m.rows, tuple(m._columns[j] for j in sorted(m._row_echelon.rows)))


def solve(m: Matrix, rhs: Sparse) -> Sparse | None:
    """One exact solution of ``m x = rhs``, or None when the system is inconsistent.

    The returned solution is the particular one with every free variable set
    to zero, which makes it deterministic.  Gauss-Jordan on [m | I] reduces
    (rhs, 0) to a residual without row keys exactly when m x = rhs has a
    solution, and the residual is then (0, -x); each dependent column's unit
    key is a pivot, so its free variable is zero.  A key of rhs outside
    0..rows-1 would meet a unit key, and raises DimensionMismatch.
    """
    _check_keys(rhs, m.rows, "solve")
    residual = m._column_echelon._reduce(rhs)
    if residual and min(residual) < m.rows:
        return None
    last = m.rows + m.cols - 1
    return {last - k: -x for k, x in residual.items()}


def quotient_representatives(
    d: Matrix, d_prev: Matrix
) -> tuple[SubspaceBasis, Callable[[Sparse], Vec], int]:
    """Representatives of ker d modulo im d_prev, the ``project`` to their
    coordinates, and the dimension of im d_prev.

    Only d's reduced rows are eliminated at ambient length.  A vector of
    ker d is its own ``kernel_lift``, so restricting to d's free columns is
    injective on ker d, and the restricted image of d_prev has the rank of
    im d_prev.  The representatives, the kernel basis vectors chosen
    greedily in order modulo the image, are at the free columns that are not
    pivots of the restricted image eliminated in descending column order.
    It is a fault if a column of d_prev, or a projected vector, is not in
    ker d.
    """
    if d_prev.rows != d.cols:
        raise DimensionMismatch(f"d has {d.cols} columns but d_prev has {d_prev.rows} rows")
    n, kernel = d.cols, d._kernel

    def restricted(v: Sparse) -> Sparse:
        # keyed by -f, so that the reducer pivots on the largest free column
        return {-f: x for f, x in v.items() if f in kernel}

    columns = d_prev._columns
    if any(kernel_lift(d, c) != c for c in columns):
        raise PreconditionError("a column of d_prev is not in the kernel of d")
    image = _eliminate(map(restricted, columns))
    reps = [f for f in kernel if -f not in image.rows]

    def project(v: Sparse) -> Vec:
        _check_keys(v, n, "project")
        if kernel_lift(d, v) != v:
            raise PreconditionError("vector is not in the kernel of d")
        residual = image._reduce(restricted(v))
        return tuple(as_scalar(residual[-f]) if -f in residual else F0 for f in reps)

    return SubspaceBasis(n, tuple(kernel[f] for f in reps)), project, len(image.rows)
