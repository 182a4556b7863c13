"""Z2-graded algebras presented by structure constants over the rationals.

Basis vectors are indexed 0..r-1 (even part) then r..r+s-1 (odd part).  The
structure tensor stores both orientations, tensor[i][j][k] being the
coefficient of basis vector k in the bracket of basis vectors i and j.
`from_brackets` is the one writer of the tensor: every constructor hands it
the sparse brackets of basis pairs.  The tensor is read once, into sparse
brackets with coefficients made canonical by `linalg.frac` (an int when
integral); the rest of the library reads them by `basis_bracket(i, j)`, one
pair, or by `nonzero_brackets`, a walk over the nonzero pairs alone.

A graded subspace is one reduced echelon basis in these n coordinates.  Its
rows are homogeneous, so every reader works in full coordinates and the
graded dimension is read from which side of r each pivot falls.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import cached_property, wraps
from typing import Iterable, Iterator, Mapping, Sequence

from ._record import Record
from .linalg import (
    EchelonBasis,
    ONE,
    ZERO,
    Scalar,
    empty_basis,
    frac,
    intersect_spaces,
    nonzeros,
    reduce_mod,
    rref,
    sparse_matrix,
    sum_spaces,
)


class MixedParityError(ValueError):
    """A vector expected to be homogeneous has both even and odd support."""


class GradingError(ValueError):
    """A nonzero bracket of two basis vectors hits a basis vector of the
    wrong parity, so the table is not graded."""


class SuperDim(Record):
    """A graded dimension (even, odd), partially ordered componentwise."""

    even: int
    odd: int

    @property
    def total(self) -> int:
        return self.even + self.odd

    def __le__(self, other: "SuperDim") -> bool:
        return self.even <= other.even and self.odd <= other.odd

    def __ge__(self, other: "SuperDim") -> bool:
        return other.__le__(self)

    def __add__(self, other: "SuperDim") -> "SuperDim":
        return SuperDim(self.even + other.even, self.odd + other.odd)

    def __sub__(self, other: "SuperDim") -> "SuperDim":
        if not other <= self:
            raise ValueError(f"{other} does not divide {self} componentwise")
        return SuperDim(self.even - other.even, self.odd - other.odd)

    def __iter__(self):
        yield self.even
        yield self.odd

    def __str__(self) -> str:
        return f"({self.even}|{self.odd})"


Tensor = tuple[tuple[tuple[Scalar, ...], ...], ...]

# The most basis vectors an algebra may have: the structure tensor holds
# n x n x n values, so larger algebras are refused before it is built.
MAX_BASIS = 128


class LieSuperalgebra(Record):
    name: str
    even_names: tuple[str, ...]
    odd_names: tuple[str, ...]
    tensor: Tensor

    @property
    def sdim(self) -> SuperDim:
        return SuperDim(len(self.even_names), len(self.odd_names))

    @property
    def n(self) -> int:
        return len(self.even_names) + len(self.odd_names)

    @property
    def basis_names(self) -> tuple[str, ...]:
        return self.even_names + self.odd_names

    def parity(self, i: int) -> int:
        return 0 if i < len(self.even_names) else 1

    @cached_property
    def _support(self) -> tuple[tuple[tuple[tuple[int, Scalar], ...], ...], ...]:
        # any() runs in C, so the all-zero rows, most of the n^2, are not
        # scanned entry by entry
        return tuple(
            tuple(
                tuple((k, frac(c)) for k, c in enumerate(row) if c) if any(row) else ()
                for row in plane
            )
            for plane in self.tensor
        )

    def basis_bracket(self, i: int, j: int) -> tuple[tuple[int, Scalar], ...]:
        """Sparse [b_i, b_j] as (index, coefficient) pairs."""
        return self._support[i][j]

    @cached_property
    def nonzero_brackets(self) -> tuple[tuple[int, int, tuple[tuple[int, Scalar], ...]], ...]:
        """Each nonzero [b_i, b_j] as (i, j, basis_bracket(i, j)), in (i, j) order, none mirrored."""
        return tuple((i, j, s) for i, plane in enumerate(self._support) for j, s in enumerate(plane) if s)

    @cached_property
    def _grading_violation(self) -> LawViolation | None:
        # the first bracket that breaks the grading, found once per algebra
        return next(grading_violations(self), None)

    @cached_property
    def _memo(self) -> dict:
        # the value of each _per_algebra solver on this algebra, by its name
        return {}

    def bracket(self, x: Sequence[Scalar], y: Sequence[Scalar]) -> tuple[Scalar, ...]:
        """Bilinear extension of the structure tensor to coordinate vectors."""
        n = self.n
        if len(x) != n or len(y) != n:
            raise ValueError("coordinate vectors must have full length")
        out = sparse_bracket(self, nonzeros(x), nonzeros(y))
        return tuple(out.get(k, ZERO) for k in range(n))

    def zero(self) -> tuple[Scalar, ...]:
        return (ZERO,) * self.n

    def basis_vector(self, i: int) -> tuple[Scalar, ...]:
        return tuple(ONE if j == i else ZERO for j in range(self.n))


def from_brackets(
    name: str,
    even_names: Sequence[str],
    odd_names: Sequence[str],
    brackets: Mapping[tuple[int, int], Iterable[tuple[int, Scalar]]],
) -> LieSuperalgebra:
    """The algebra with [b_i, b_j] = sum of c b_k over the (k, c) pairs of
    brackets[i, j], each k at most once; pairs left out bracket to zero.

    No law is checked and no orientation is filled in.  This is the one
    place that writes a structure tensor; it raises ValueError for more than
    MAX_BASIS basis vectors.
    """
    even_names, odd_names = tuple(even_names), tuple(odd_names)
    n = len(even_names) + len(odd_names)
    if n > MAX_BASIS:
        raise ValueError(f"{n} basis vectors, more than the {MAX_BASIS} an algebra may have")
    zero_row = (ZERO,) * n
    tensor = [[zero_row] * n for _ in range(n)]
    for (i, j), pairs in brackets.items():
        row = list(zero_row)
        for k, c in pairs:
            row[k] = c
        tensor[i][j] = tuple(row)
    return LieSuperalgebra(name, even_names, odd_names, tuple(map(tuple, tensor)))


def sparse_bracket(
    alg: LieSuperalgebra, x: Iterable[tuple[int, Scalar]], y: Iterable[tuple[int, Scalar]]
) -> dict[int, Scalar]:
    """[x, y] for vectors given by their (index, value) pairs, as a dict of its
    nonzeros in canonical form (see linalg.frac)."""
    y = tuple(y)
    out: dict[int, Scalar] = {}
    for i, a in x:
        for j, b in y:
            for k, c in alg.basis_bracket(i, j):
                out[k] = out.get(k, ZERO) + a * b * c
    return {k: frac(c) for k, c in out.items() if c}


def vector_parity(alg: LieSuperalgebra, v: Sequence[Scalar]) -> int | None:
    """Parity of a homogeneous vector, None for zero.

    Raises MixedParityError when both graded parts are nonzero.
    """
    r = alg.sdim.even
    has_even = any(v[:r])
    has_odd = any(v[r:])
    if has_even and has_odd:
        raise MixedParityError("vector has both even and odd components")
    if has_even:
        return 0
    if has_odd:
        return 1
    return None


class LawViolation(Record):
    law: str
    indices: tuple[int, ...]
    detail: str


class ValidationReport(Record):
    grading_ok: bool
    skew_ok: bool
    jacobi_ok: bool
    violations: tuple[LawViolation, ...]

    @property
    def ok(self) -> bool:
        return self.grading_ok and self.skew_ok and self.jacobi_ok


def _sign(exponent: int) -> int:
    return -1 if exponent % 2 else 1


def grading_violations(alg: LieSuperalgebra) -> Iterator[LawViolation]:
    """Each (i, j, k) whose nonzero [b_i, b_j] hits b_k of the wrong parity,
    in (i, j) order."""
    names, r = alg.basis_names, alg.sdim.even
    for i, j, support in alg.nonzero_brackets:
        for k, _ in support:
            if (k >= r) != ((i >= r) != (j >= r)):
                yield LawViolation(
                    "grading", (i, j, k),
                    f"[{names[i]}, {names[j]}] hits {names[k]} of the wrong parity")


def check_grading(alg: LieSuperalgebra) -> None:
    """Raise GradingError naming the first bracket that breaks the grading.

    The solvers read the parities of the basis and trust them: on a table
    that is not graded they would give wrong answers with no error.  The
    brackets are walked once per algebra, for this check and validate's
    grading law together.
    """
    if alg._grading_violation is not None:
        raise GradingError(f"{alg.name}: {alg._grading_violation.detail}")


def _per_algebra(solve):
    """solve(alg), kept in alg's memo after its first call.  Algebras and
    solved values are immutable, so a kept value is what a fresh solve
    returns.  The grading is checked on every call: a table that is not
    graded raises GradingError each time and nothing is kept."""

    key = solve.__name__  # a name, not the function, so that an algebra still pickles

    @wraps(solve)
    def solved_once(alg: LieSuperalgebra):
        check_grading(alg)
        if key not in alg._memo:
            alg._memo[key] = solve(alg)
        return alg._memo[key]

    return solved_once


def validate(alg: LieSuperalgebra) -> ValidationReport:
    """Check grading, super skew symmetry, and the graded Jacobi identity.

    Returns a ValidationReport; the first violation of each law is recorded.
    Every law walks the stored nonzero brackets, not the n^2 basis pairs.
    The Jacobi law sums only the triples that a nonzero bracket reaches:
    (i, j, k) is checked when some term s [b_a, [b_b, b_c]] of its cyclic
    sum has [b_b, b_c] != 0 and [b_a, b_m] != 0 for a b_m in its support.
    Any other triple sums to zero, whatever the table, so the first
    violation is the one that a walk over every i <= j <= k finds first.
    """
    n, names = alg.n, alg.basis_names
    p = [alg.parity(i) for i in range(n)]

    def skew():
        # a pair whose two orientations are both zero keeps the law
        for i, j in sorted({(min(i, j), max(i, j)) for i, j, _ in alg.nonzero_brackets}):
            s = _sign(p[i] * p[j])
            mirror = {k: -s * c for k, c in alg.basis_bracket(i, j)}
            twin = dict(alg.basis_bracket(j, i))
            if twin != mirror:
                k = min(k for k in twin.keys() | mirror.keys() if twin.get(k) != mirror.get(k))
                yield LawViolation(
                    "skew", (i, j, k),
                    f"[{names[j]}, {names[i]}] is not the signed mirror of the (i, j) orientation")

    def jacobi():
        # a term s [b_a, [b_b, b_c]] of the cyclic sum is zero unless [b_b, b_c]
        # is a stored nonzero bracket reaching some b_m with [b_a, b_m] != 0, so
        # only the sorted triples of such (a, b, c) are summed, in increasing order
        hits: list[list[int]] = [[] for _ in range(n)]
        for a, m, _ in alg.nonzero_brackets:
            hits[m].append(a)
        reached = {tuple(sorted((a, b, c)))
                   for b, c, support in alg.nonzero_brackets for m, _ in support for a in hits[m]}
        for i, j, k in sorted(reached):
            acc: dict[int, Scalar] = {}
            for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
                s = _sign(p[a] * p[c])
                for m, coeff in alg.basis_bracket(b, c):
                    for t, coeff2 in alg.basis_bracket(a, m):
                        acc[t] = acc.get(t, ZERO) + s * coeff * coeff2
            if any(acc.values()):
                yield LawViolation(
                    "jacobi", (i, j, k),
                    f"graded Jacobi fails on ({names[i]}, {names[j]}, {names[k]})")

    first = [alg._grading_violation] + [next(law, None) for law in (skew(), jacobi())]
    return ValidationReport(*(v is None for v in first), tuple(v for v in first if v is not None))


class GradedSubspace(Record):
    """A graded subspace held as one reduced echelon basis of width n.

    Every row is homogeneous: its nonzeros lie all below even_width (an even
    row) or all from it on (an odd row).  The even rows' pivots are the ones
    below even_width, so they come first.  Equality of graded subspaces is
    field equality.
    """

    basis: EchelonBasis
    even_width: int

    @property
    def sdim(self) -> SuperDim:
        even = bisect_left(self.basis.pivot_cols, self.even_width)
        return SuperDim(even, self.basis.dim - even)


def zero_subspace(alg: LieSuperalgebra) -> GradedSubspace:
    return GradedSubspace(empty_basis(alg.n), alg.sdim.even)


def sparse_span(alg: LieSuperalgebra, vectors: Iterable[Iterable[tuple[int, Scalar]]]) -> GradedSubspace:
    """Span of homogeneous vectors given by their (index, value) pairs,
    echelonized.

    Raises MixedParityError when a vector has both even and odd nonzeros.
    """
    r = alg.sdim.even
    rows = []
    for v in vectors:
        v = {k: x for k, x in v if x}
        if not v:
            continue
        odd = min(v) >= r
        if any((k >= r) != odd for k in v):
            raise MixedParityError("vector has both even and odd components")
        rows.append(v)
    return GradedSubspace(rref(sparse_matrix(rows, alg.n)), r)


def graded_span(alg: LieSuperalgebra, vectors: Iterable[Sequence[Scalar]]) -> GradedSubspace:
    """Span of homogeneous full-length coordinate vectors; see sparse_span."""
    rows = []
    for v in vectors:
        if len(v) != alg.n:
            raise ValueError("coordinate vectors must have full length")
        rows.append(nonzeros([frac(x) for x in v]))
    return sparse_span(alg, rows)


def _same_ambient(a: GradedSubspace, b: GradedSubspace) -> None:
    if (a.basis.width, a.even_width) != (b.basis.width, b.even_width):
        raise ValueError("subspaces of different algebras")


def subspace_sum(a: GradedSubspace, b: GradedSubspace) -> GradedSubspace:
    _same_ambient(a, b)
    return GradedSubspace(sum_spaces(a.basis, b.basis), a.even_width)


def subspace_intersect(a: GradedSubspace, b: GradedSubspace) -> GradedSubspace:
    _same_ambient(a, b)
    return GradedSubspace(intersect_spaces(a.basis, b.basis), a.even_width)


def subspace_contains(alg: LieSuperalgebra, space: GradedSubspace, v: Sequence[Scalar]) -> bool:
    if (space.basis.width, space.even_width) != (alg.n, alg.sdim.even):
        raise ValueError("subspace of a different algebra")
    if len(v) != alg.n:
        raise ValueError("coordinate vectors must have full length")
    return not reduce_mod(nonzeros([frac(x) for x in v]), space.basis)


def subspace_leq(a: GradedSubspace, b: GradedSubspace) -> bool:
    """Whether a is contained in b."""
    _same_ambient(a, b)
    return all(not reduce_mod(row, b.basis) for row in a.basis.matrix.support)
