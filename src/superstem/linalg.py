"""Exact linear algebra over the rationals.

A scalar is an int when its value is integral and a Fraction in lowest
terms, with denominator greater than 1, otherwise; no float is ever
accepted.  Integral values stay ints because int arithmetic is about
eighty times cheaper than Fraction arithmetic, and equality and hashing do
not tell the two apart (Fraction(2) == 2 and both hash alike), so results
compare exactly as they would over Fractions.  `frac` coerces inputs to
this canonical form, and every value the kernel stores is brought back to
it after arithmetic that may leave an integral Fraction.

A Matrix stores only the nonzero (column, value) pairs of each row, in
column order, so equality of matrices is field equality; its dense rows
are a view built on request.  Every operation is a pure function, so values
can be shared freely between threads.  Spans are kept in reduced row echelon
form, which makes equality of subspaces plain tuple equality.

There is one sparse kernel: a reduction loop over rows given by the
(column, value) pairs of their nonzero entries.  `_Echelon.insert` is the
one step that adds a row to a reduced echelon form: it reduces the row
against the rows kept so far and clears the new pivot from the kept rows
that hold it, which a column index over the kept rows names, so an
elimination costs what its fill costs (T. A. Davis, Direct Methods for
Sparse Linear Systems, SIAM 2006).  Elimination inserts the rows of a
matrix one at a time; `extend` and the sums and intersections of spaces
take up the stored rows of an echelon basis, which insert unchanged, and
reduce only the new rows; `reduce_mod` reduces one vector against an
echelon basis at the pivots in the vector's support alone and returns the
residual only (the coordinates of a member are its values at the pivot
columns); a kernel is one elimination with the columns in reverse order,
whose kernel vectors are already in reduced echelon form.
"""

from __future__ import annotations

from collections import defaultdict
from functools import cached_property
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from ._record import Record

Scalar = int | Fraction
ZERO = 0
ONE = 1
# the nonzero (column, value) pairs of a row, in increasing column order
Row = tuple[tuple[int, Scalar], ...]


def _canon(x: Scalar) -> Scalar:
    """x as an int when it is integral, else x itself."""
    return x.numerator if x.denominator == 1 else x


def frac(value) -> Scalar:
    """Coerce an int, a string like '-2/3', or a Fraction to a canonical Scalar.

    Raises TypeError on a float: its value is a binary fraction, so 0.1
    would silently become 3602879701896397/36028797018963968.
    """
    if isinstance(value, (int, Fraction)):
        return _canon(value)
    if isinstance(value, float):
        raise TypeError(f"{value!r} is a float; give an int, a Fraction or a string like '1/10'")
    return _canon(Fraction(value))


def _div(x: Scalar, p: Scalar) -> Scalar:
    """x / p as a canonical Scalar; ints are divided exactly, never by `/`."""
    if isinstance(x, int) and isinstance(p, int):
        q, rem = divmod(x, p)
        return Fraction(x, p) if rem else q
    return _canon(x / p)


class Matrix(Record):
    """A rows x cols matrix held as each row's nonzero (column, value) pairs.

    A row holds sorted, in-range nonzero pairs: columns increase and lie in
    0 .. cols-1, and no stored value is zero.  Every library path builds
    that form; a hand-made row out of order still compares unequal to the
    sorted one, and `entries` refuses a column out of range.
    """

    rows: int
    cols: int
    support: tuple[Row, ...]

    @property
    def entries(self) -> tuple[tuple[Scalar, ...], ...]:
        """The dense rows, filled with the shared ZERO and built on each call.

        Raises ValueError for a stored column outside 0 .. cols-1.
        """
        dense = [[ZERO] * self.cols for _ in self.support]
        for out, row in zip(dense, self.support):
            for j, x in row:
                if not 0 <= j < self.cols:
                    raise ValueError(f"column {j} is outside a matrix of {self.cols} columns")
                out[j] = x
        return tuple(map(tuple, dense))


def matrix(rows: Iterable[Sequence], cols: int | None = None) -> Matrix:
    """Build a Matrix from dense rows, coercing entries with frac and dropping zeros."""
    rows = [[frac(x) for x in r] for r in rows]
    if rows:
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ValueError("ragged rows")
        if cols is not None and cols != width:
            raise ValueError(f"expected {cols} columns, rows have {width}")
        cols = width
    elif cols is None:
        raise ValueError("an empty matrix needs an explicit column count")
    return Matrix(len(rows), cols, tuple(map(nonzeros, rows)))


def sparse_matrix(rows: Sequence[Mapping[int, Scalar]], cols: int) -> Matrix:
    """Build a Matrix from rows given as {column: value} dicts of Scalars,
    dropping zeros and turning integral Fractions into ints."""
    return Matrix(len(rows), cols, tuple([
        tuple(sorted([(j, x if type(x) is int else _canon(x)) for j, x in r.items() if x])) if r else ()
        for r in rows]))


def nonzeros(row: Sequence[Scalar]) -> Row:
    """(index, value) of each nonzero entry of row, in index order.

    Entries that are the shared ZERO are skipped by identity, which is
    cheaper than testing their value; any other zero, such as a
    Fraction(0), is dropped by its value.  Values are kept as given.
    """
    return tuple([(j, x) for j, x in enumerate(row) if x is not ZERO and x])


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if a.cols != b.rows:
        raise ValueError("inner dimensions do not match")
    out: list[dict[int, Scalar]] = [{} for _ in a.support]
    for arow, acc in zip(a.support, out):
        for k, x in arow:
            for j, y in b.support[k]:
                acc[j] = acc.get(j, ZERO) + x * y
    return sparse_matrix(out, b.cols)


class EchelonBasis(Record):
    """A subspace held as a reduced row echelon matrix with its pivot columns.

    Zero rows are dropped, pivots are 1 and are the only nonzero entry in
    their column, and pivot columns strictly increase row by row.
    """

    matrix: Matrix
    pivot_cols: tuple[int, ...]

    @property
    def dim(self) -> int:
        return self.matrix.rows

    @property
    def width(self) -> int:
        return self.matrix.cols

    @cached_property
    def rows_at(self) -> dict[int, Row]:
        """{pivot column: its row}, built on first use."""
        return dict(zip(self.pivot_cols, self.matrix.support))


def _reduce(
    work: dict[int, Scalar], rows: Iterable[tuple[int, Iterable[tuple[int, Scalar]]]]
) -> None:
    """Clear each (pivot, nonzeros) row's pivot from work, in place.

    Entries that cancel stay in work as zeros; every value written is
    canonical.
    """
    for p, row in rows:
        c = work.get(p, ZERO)
        if c:
            for j, x in row:
                y = work.get(j, ZERO) - c * x
                work[j] = y if type(y) is int else _canon(y)


class _Echelon:
    """A reduced echelon form being built: the kept rows as {pivot: nonzeros
    of its row}, and a column index {column: pivots of the rows nonzero
    there} over the same rows.

    `insert` is the one step that adds a row.  The index lets it clear a new
    pivot from the rows that hold it alone, instead of scanning every kept
    row, so an elimination costs what its fill costs.  The rows of an echelon
    basis are inserted unchanged, so a stored basis is taken up by inserting
    its rows.
    """

    def __init__(self) -> None:
        self.rows: dict[int, dict[int, Scalar]] = {}
        self.where: defaultdict[int, set[int]] = defaultdict(set)

    def insert(self, row: Iterable[tuple[int, Scalar]]) -> bool:
        """Insert one row, in place; whether it added a pivot.

        The row is reduced against the kept rows, scaled to a unit pivot at
        its first nonzero column (only when the pivot is not already 1), and
        its pivot is cleared from the kept rows that hold it.  Kept rows are
        zero in each other's pivots, so the order of the reductions does not
        matter, and each row is zero left of its pivot.
        """
        rows, where = self.rows, self.where
        work = dict(row)
        _reduce(work, [(p, rows[p].items()) for p in work.keys() & rows.keys()])
        work = {j: x for j, x in work.items() if x}
        if not work:
            return False
        q = min(work)
        pivot = work[q]
        if pivot != ONE:
            work = {j: _div(x, pivot) for j, x in work.items()}
        for p in tuple(where[q]):
            other = rows[p]
            _reduce(other, ((q, work.items()),))
            for j in work:
                if other[j]:
                    where[j].add(p)
                else:
                    del other[j]
                    where[j].discard(p)
        for j in work:
            where[j].add(q)
        rows[q] = work
        return True


def _eliminate(rows: Iterable[Iterable[tuple[int, Scalar]]]) -> _Echelon:
    """The reduced echelon form of a span."""
    kept = _Echelon()
    for row in rows:
        kept.insert(row)
    return kept


def _basis(kept: dict[int, dict[int, Scalar]], width: int) -> EchelonBasis:
    pivots = tuple(sorted(kept))
    return EchelonBasis(sparse_matrix([kept[p] for p in pivots], width), pivots)


def rref(m: Matrix) -> EchelonBasis:
    """Reduced row echelon form with zero rows dropped."""
    return _basis(_eliminate(m.support).rows, m.cols)


def empty_basis(width: int) -> EchelonBasis:
    return EchelonBasis(Matrix(0, width, ()), ())


def reduce_mod(v: Iterable[tuple[int, Scalar]], b: EchelonBasis) -> dict[int, Scalar]:
    """The residual of a vector, given by its (index, value) pairs, modulo an
    echelon basis, as a dict of its nonzero canonical entries.

    It is empty exactly when v lies in the span.  Every row of b is zero at
    the other rows' pivots, so the multiple of row t taken off is v's value
    at pivot column t: for a member, the coordinates are its values at the
    pivot columns, and only the pivots in v's support are visited.
    """
    work = {j: x if type(x) is int else _canon(x) for j, x in v}
    rows = b.rows_at
    _reduce(work, [(p, rows[p]) for p in work.keys() & rows.keys()])
    return {j: x for j, x in work.items() if x}


def extend(basis: EchelonBasis, rows: Iterable[Row]) -> tuple[EchelonBasis, list[Row]]:
    """The span of basis and rows, with the rows, in order, that added a pivot.

    The stored rows of basis are already a reduced echelon form, so they
    are inserted unchanged and only the new rows are reduced.
    """
    kept = _eliminate(basis.matrix.support)
    added = [row for row in rows if kept.insert(row)]
    return _basis(kept.rows, basis.width), added


def sum_spaces(a: EchelonBasis, b: EchelonBasis) -> EchelonBasis:
    if a.width != b.width:
        raise ValueError("ambient widths differ")
    return extend(a, b.matrix.support)[0]


def kernel_basis(m: Matrix) -> EchelonBasis:
    """Echelonized basis of the right null space {x : m x = 0}, from one
    elimination.

    The rows are eliminated with the columns in reverse order, so each kept
    row's pivot p is its last nonzero column.  The kernel vector of free
    column f, e_f minus row_p[f] e_p over the pivots p, is then zero left
    of f and at every other free column: the vectors already are the
    reduced echelon basis, in increasing order of f.
    """
    last = m.cols - 1
    kept = _eliminate([(last - j, x) for j, x in row] for row in m.support).rows
    vectors = {f: {f: ONE} for f in range(m.cols) if last - f not in kept}
    for q, row in kept.items():
        for g, x in row.items():
            if g != q:
                vectors[last - g][last - q] = -x
    return EchelonBasis(sparse_matrix(list(vectors.values()), m.cols), tuple(vectors))


def intersect_spaces(a: EchelonBasis, b: EchelonBasis) -> EchelonBasis:
    """Intersection by one elimination of [a | a] stacked over [b | 0].

    The rows [a | a] are already reduced, with a's pivots, so they are
    inserted unchanged and only b's rows are reduced.  The rows of the result whose left half is zero are the
    (0, x . rows(a)) with x . rows(a) = -y . rows(b), so their right halves
    are an echelon basis of the intersection.
    """
    if a.width != b.width:
        raise ValueError("ambient widths differ")
    w = a.width
    kept = _eliminate(row + tuple((j + w, x) for j, x in row) for row in a.matrix.support)
    for row in b.matrix.support:
        kept.insert(row)
    return _basis({p - w: {j - w: x for j, x in row.items()} for p, row in kept.rows.items() if p >= w}, w)
