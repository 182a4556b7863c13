"""Exact linear algebra over the rationals.

Matrices are immutable tuples of Fraction rows and every operation is a
pure function, so values can be shared freely between threads.  Spans are
kept in reduced row echelon form, which makes equality of subspaces plain
tuple equality.  Elimination is dense; reduction against a span walks a
cached sparse view of its rows, the (column, value) pairs of their nonzero
entries, and `reduce_sparse` takes its input in the same sparse form.
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


def transpose(m: Matrix) -> Matrix:
    ents = tuple(tuple(m.entries[i][j] for i in range(m.rows)) for j in range(m.cols))
    return Matrix(m.cols, m.rows, ents)


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


def rref(m: Matrix) -> EchelonBasis:
    """Reduced row echelon form with zero rows dropped."""
    work = [list(r) for r in m.entries]
    nrows, ncols = m.rows, m.cols
    pivots: list[int] = []
    lead = 0
    for col in range(ncols):
        pivot_row = None
        for r in range(lead, nrows):
            if work[r][col]:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        work[lead], work[pivot_row] = work[pivot_row], work[lead]
        inv = ONE / work[lead][col]
        if inv != ONE:
            work[lead] = [x * inv for x in work[lead]]
        for r in range(nrows):
            if r != lead and work[r][col]:
                factor = work[r][col]
                row_r, row_l = work[r], work[lead]
                for j in range(col, ncols):
                    if row_l[j]:
                        row_r[j] -= factor * row_l[j]
        pivots.append(col)
        lead += 1
        if lead == nrows:
            break
    ents = tuple(tuple(work[i]) for i in range(len(pivots)))
    return EchelonBasis(Matrix(len(pivots), ncols, ents), tuple(pivots))


def echelon(rows: Iterable[Sequence], width: int) -> EchelonBasis:
    """Echelonized span of a list of vectors."""
    return rref(matrix(rows, cols=width))


def empty_basis(width: int) -> EchelonBasis:
    return EchelonBasis(Matrix(0, width, ()), ())


def reduce_mod(v: Sequence[Fraction], b: EchelonBasis) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """Reduce v against an echelon basis.

    Returns (residual, coords) with v == residual + coords . rows(b); the
    residual is zero exactly when v lies in the span.
    """
    if len(v) != b.width:
        raise ValueError("vector length does not match basis width")
    work = [frac(x) for x in v]
    coords = []
    for row, p in zip(b.row_support, b.pivot_cols):
        c = work[p]
        coords.append(c)
        if c:
            for j, x in row:
                work[j] -= c * x
    return tuple(work), tuple(coords)


def reduce_sparse(
    v: Iterable[tuple[int, Fraction]], b: EchelonBasis
) -> tuple[dict[int, Fraction], tuple[Fraction, ...]]:
    """reduce_mod for a vector given by its (index, value) pairs.

    Returns (residual, coords) with the residual as a dict of its nonzero
    entries, so it is empty exactly when v lies in the span.
    """
    work = dict(v)
    coords = []
    for row, p in zip(b.row_support, b.pivot_cols):
        c = work.get(p, ZERO)
        coords.append(c)
        if c:
            for j, x in row:
                work[j] = work.get(j, ZERO) - c * x
    return {j: x for j, x in work.items() if x}, tuple(coords)


def membership(v: Sequence[Fraction], b: EchelonBasis) -> tuple[bool, tuple[Fraction, ...] | None]:
    """Decide whether v lies in span(b); on success return its coordinates."""
    residual, coords = reduce_mod(v, b)
    if any(residual):
        return False, None
    return True, coords


def sum_spaces(a: EchelonBasis, b: EchelonBasis) -> EchelonBasis:
    if a.width != b.width:
        raise ValueError("ambient widths differ")
    return echelon(a.matrix.entries + b.matrix.entries, a.width)


def kernel_basis(m: Matrix) -> EchelonBasis:
    """Echelonized basis of the right null space {x : m x = 0}."""
    e = rref(m)
    pivot_set = set(e.pivot_cols)
    free_cols = [j for j in range(m.cols) if j not in pivot_set]
    vectors = []
    for f in free_cols:
        v = [ZERO] * m.cols
        v[f] = ONE
        for t, p in enumerate(e.pivot_cols):
            coeff = e.matrix.entries[t][f]
            if coeff:
                v[p] = -coeff
        vectors.append(v)
    return echelon(vectors, m.cols)


def intersect_spaces(a: EchelonBasis, b: EchelonBasis) -> EchelonBasis:
    """Intersection via the kernel of the stacked-generator matrix.

    A relation x . rows(a) + y . rows(b) = 0 makes x . rows(a) an element
    of both spans, and all such elements arise this way.
    """
    if a.width != b.width:
        raise ValueError("ambient widths differ")
    if a.dim == 0 or b.dim == 0:
        return empty_basis(a.width)
    stacked = matrix(a.matrix.entries + b.matrix.entries, cols=a.width)
    rel = kernel_basis(transpose(stacked))
    vectors = []
    for row in rel.matrix.entries:
        x = row[: a.dim]
        vec = [ZERO] * a.width
        for coeff, gen in zip(x, a.matrix.entries):
            if coeff:
                for j, g in enumerate(gen):
                    if g:
                        vec[j] += coeff * g
        vectors.append(vec)
    return echelon(vectors, a.width)

