"""Exact linear algebra over the rationals.

Matrices are immutable tuples of Fraction rows and every operation is a
pure function, so values can be shared freely between threads.  Spans are
kept in reduced row echelon form, which makes equality of subspaces plain
tuple equality.

There is one sparse kernel: a reduction loop over rows given by the
(column, value) pairs of their nonzero entries.  Elimination inserts the
rows of a matrix one at a time, reducing each against the rows kept so far
and clearing its pivot from them; `reduce_mod` reduces one vector against
the cached nonzeros of an echelon basis; kernels and intersections are
eliminations of sparse rows built from an echelon form.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

Scalar = Fraction
ZERO = Fraction(0)
ONE = Fraction(1)


def frac(value) -> Fraction:
    """Coerce an int, a string like '-2/3', or a Fraction to a Scalar."""
    if isinstance(value, Fraction):
        return value
    return Fraction(value)


@dataclass(frozen=True)
class Matrix:
    rows: int
    cols: int
    entries: tuple[tuple[Fraction, ...], ...]

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self.entries[i]


def matrix(rows: Iterable[Sequence], cols: int | None = None) -> Matrix:
    """Build a Matrix from an iterable of rows, coercing entries to Fraction."""
    ents = tuple(tuple(frac(x) for x in r) for r in rows)
    if ents:
        width = len(ents[0])
        if any(len(r) != width for r in ents):
            raise ValueError("ragged rows")
        if cols is not None and cols != width:
            raise ValueError(f"expected {cols} columns, rows have {width}")
        cols = width
    elif cols is None:
        raise ValueError("an empty matrix needs an explicit column count")
    return Matrix(len(ents), cols, ents)


def nonzeros(row: Sequence[Fraction]) -> tuple[tuple[int, Fraction], ...]:
    """(index, value) of each nonzero entry of row, in index order.

    Entries that are the shared ZERO are skipped by identity, which is much
    cheaper than testing a Fraction's value; any other zero, such as a fresh
    Fraction(0), is dropped by its value.
    """
    return tuple([(j, x) for j, x in enumerate(row) if x is not ZERO and x])


def unit_vector(n: int, i: int) -> tuple[Fraction, ...]:
    return tuple(ONE if j == i else ZERO for j in range(n))


def mat_vec(m: Matrix, v: Sequence[Fraction]) -> tuple[Fraction, ...]:
    if len(v) != m.cols:
        raise ValueError("vector length does not match column count")
    out = []
    for row in m.entries:
        acc = ZERO
        for a, b in zip(row, v):
            if a and b:
                acc += a * b
        out.append(acc)
    return tuple(out)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if a.cols != b.rows:
        raise ValueError("inner dimensions do not match")
    out = [[ZERO] * b.cols for _ in range(a.rows)]
    for i, arow in enumerate(a.entries):
        orow = out[i]
        for k, x in enumerate(arow):
            if x:
                for j, y in enumerate(b.entries[k]):
                    if y:
                        orow[j] += x * y
    return Matrix(a.rows, b.cols, tuple(tuple(r) for r in out))


@dataclass(frozen=True)
class EchelonBasis:
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

    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        return self.matrix.entries

    @cached_property
    def row_support(self) -> tuple[tuple[tuple[int, Fraction], ...], ...]:
        """The nonzero (column, value) pairs of each row."""
        return tuple(nonzeros(row) for row in self.matrix.entries)


def _reduce(
    work: dict[int, Fraction], rows: Iterable[tuple[int, Iterable[tuple[int, Fraction]]]]
) -> list[Fraction]:
    """Clear each (pivot, nonzeros) row's pivot from work, in place.

    Returns the multiple of each row that was subtracted.  Entries that
    cancel stay in work as zeros.
    """
    coords = []
    for p, row in rows:
        c = work.get(p, ZERO)
        coords.append(c)
        if c:
            for j, x in row:
                work[j] = work.get(j, ZERO) - c * x
    return coords


def _eliminate(rows: Iterable[Iterable[tuple[int, Fraction]]]) -> dict[int, dict[int, Fraction]]:
    """The reduced echelon form of a span, as {pivot: nonzeros of its row}.

    Each row is reduced against the rows kept so far, scaled to a unit pivot
    at its first nonzero column, and its pivot is cleared from the kept
    rows.  Kept rows are zero in each other's pivots, so the order of the
    reductions does not matter, and each row is zero left of its pivot.
    """
    kept: dict[int, dict[int, Fraction]] = {}
    for row in rows:
        work = dict(row)
        _reduce(work, [(p, kept[p].items()) for p in work.keys() & kept.keys()])
        work = {j: x for j, x in work.items() if x}
        if not work:
            continue
        q = min(work)
        if work[q] != ONE:
            inv = ONE / work[q]
            work = {j: x * inv for j, x in work.items()}
        for p, other in kept.items():
            if q in other:
                _reduce(other, ((q, work.items()),))
                kept[p] = {j: x for j, x in other.items() if x}
        kept[q] = work
    return kept


def _basis(kept: dict[int, dict[int, Fraction]], width: int) -> EchelonBasis:
    pivots = tuple(sorted(kept))
    ents = []
    for p in pivots:
        row = [ZERO] * width
        for j, x in kept[p].items():
            row[j] = x
        ents.append(tuple(row))
    return EchelonBasis(Matrix(len(ents), width, tuple(ents)), pivots)


def rref(m: Matrix) -> EchelonBasis:
    """Reduced row echelon form with zero rows dropped."""
    return _basis(_eliminate(map(nonzeros, m.entries)), m.cols)


def echelon(rows: Iterable[Sequence], width: int) -> EchelonBasis:
    """Echelonized span of a list of vectors."""
    return rref(matrix(rows, cols=width))


def empty_basis(width: int) -> EchelonBasis:
    return EchelonBasis(Matrix(0, width, ()), ())


def reduce_mod(
    v: Iterable[tuple[int, Fraction]], b: EchelonBasis
) -> tuple[dict[int, Fraction], tuple[Fraction, ...]]:
    """Reduce a vector, given by its (index, value) pairs, against an echelon basis.

    Returns (residual, coords) with v == residual + coords . rows(b) and the
    residual as a dict of its nonzero entries, so it is empty exactly when v
    lies in the span.
    """
    work = dict(v)
    coords = _reduce(work, zip(b.pivot_cols, b.row_support))
    return {j: x for j, x in work.items() if x}, tuple(coords)


def membership(v: Sequence[Fraction], b: EchelonBasis) -> tuple[bool, tuple[Fraction, ...] | None]:
    """Decide whether v lies in span(b); on success return its coordinates."""
    if len(v) != b.width:
        raise ValueError("vector length does not match basis width")
    residual, coords = reduce_mod(nonzeros([frac(x) for x in v]), b)
    if residual:
        return False, None
    return True, coords


def sum_spaces(a: EchelonBasis, b: EchelonBasis) -> EchelonBasis:
    if a.width != b.width:
        raise ValueError("ambient widths differ")
    return _basis(_eliminate(a.row_support + b.row_support), a.width)


def kernel_basis(m: Matrix) -> EchelonBasis:
    """Echelonized basis of the right null space {x : m x = 0}."""
    e = rref(m)
    # the kernel vector of free column f is e_f - sum over pivots p of
    # row_p[f] e_p
    pivots = set(e.pivot_cols)
    vectors = {f: {f: ONE} for f in range(m.cols) if f not in pivots}
    for p, row in zip(e.pivot_cols, e.row_support):
        for f, x in row:
            if f != p:
                vectors[f][p] = -x
    return _basis(_eliminate(v.items() for v in vectors.values()), m.cols)


def intersect_spaces(a: EchelonBasis, b: EchelonBasis) -> EchelonBasis:
    """Intersection by one elimination of [a | a] stacked over [b | 0].

    The rows of the result whose left half is zero are the (0, x . rows(a))
    with x . rows(a) = -y . rows(b), so their right halves are an echelon
    basis of the intersection.
    """
    if a.width != b.width:
        raise ValueError("ambient widths differ")
    w = a.width
    stacked = [row + tuple((j + w, x) for j, x in row) for row in a.row_support]
    kept = _eliminate(stacked + list(b.row_support))
    return _basis({p - w: {j - w: x for j, x in row.items()} for p, row in kept.items() if p >= w}, w)
