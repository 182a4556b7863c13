"""Z2-graded algebras presented by structure constants over the rationals.

Basis vectors are indexed 0..r-1 (even part) then r..r+s-1 (odd part).  The
structure tensor stores both orientations, tensor[i][j][k] being the
coefficient of basis vector k in the bracket of basis vectors i and j.  It is
read once, into the sparse brackets of basis pairs that `basis_bracket`
returns; brackets, law validation and everything built on them use those.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

from .linalg import (
    EchelonBasis,
    ZERO,
    echelon,
    empty_basis,
    frac,
    intersect_spaces,
    membership,
    sum_spaces,
)


class MixedParityError(ValueError):
    """A vector expected to be homogeneous has both even and odd support."""


@dataclass(frozen=True)
class SuperDim:
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


Tensor = tuple[tuple[tuple[Fraction, ...], ...], ...]


@dataclass(frozen=True)
class LieSuperalgebra:
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
    def _support(self) -> tuple[tuple[tuple[tuple[int, Fraction], ...], ...], ...]:
        n = self.n
        return tuple(
            tuple(
                tuple((k, c) for k, c in enumerate(self.tensor[i][j]) if c)
                for j in range(n)
            )
            for i in range(n)
        )

    def basis_bracket(self, i: int, j: int) -> tuple[tuple[int, Fraction], ...]:
        """Sparse [b_i, b_j] as (index, coefficient) pairs."""
        return self._support[i][j]

    def bracket(self, x: Sequence[Fraction], y: Sequence[Fraction]) -> tuple[Fraction, ...]:
        """Bilinear extension of the structure tensor to coordinate vectors."""
        n = self.n
        if len(x) != n or len(y) != n:
            raise ValueError("coordinate vectors must have full length")
        out = [ZERO] * n
        for i, xi in enumerate(x):
            if not xi:
                continue
            row = self._support[i]
            for j, yj in enumerate(y):
                if not yj:
                    continue
                for k, c in row[j]:
                    out[k] += xi * yj * c
        return tuple(out)

    def zero(self) -> tuple[Fraction, ...]:
        return (ZERO,) * self.n

    def basis_vector(self, i: int) -> tuple[Fraction, ...]:
        return tuple(frac(1) if j == i else ZERO for j in range(self.n))


def vector_parity(alg: LieSuperalgebra, v: Sequence[Fraction]) -> int | None:
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


@dataclass(frozen=True)
class LawViolation:
    law: str
    indices: tuple[int, ...]
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    grading_ok: bool
    skew_ok: bool
    jacobi_ok: bool
    violations: tuple[LawViolation, ...]

    @property
    def ok(self) -> bool:
        return self.grading_ok and self.skew_ok and self.jacobi_ok


def _sign(exponent: int) -> int:
    return -1 if exponent % 2 else 1


def validate(alg: LieSuperalgebra) -> ValidationReport:
    """Check grading, super skew symmetry, and the graded Jacobi identity.

    Returns a ValidationReport; the first violation of each law is recorded.
    Every law reads the sparse brackets of basis pairs only.
    """
    n, names = alg.n, alg.basis_names
    p = [alg.parity(i) for i in range(n)]

    def grading():
        for i in range(n):
            for j in range(n):
                for k, _ in alg.basis_bracket(i, j):
                    if p[k] != (p[i] + p[j]) % 2:
                        yield LawViolation(
                            "grading", (i, j, k),
                            f"[{names[i]}, {names[j]}] hits {names[k]} of the wrong parity")

    def skew():
        for i in range(n):
            for j in range(i, n):
                s = _sign(p[i] * p[j])
                mirror = {k: -s * c for k, c in alg.basis_bracket(i, j)}
                twin = dict(alg.basis_bracket(j, i))
                if twin != mirror:
                    k = min(k for k in twin.keys() | mirror.keys() if twin.get(k) != mirror.get(k))
                    yield LawViolation(
                        "skew", (i, j, k),
                        f"[{names[j]}, {names[i]}] is not the signed mirror of the (i, j) orientation")

    def jacobi():
        for i in range(n):
            for j in range(i, n):
                for k in range(j, n):
                    acc: dict[int, Fraction] = {}
                    for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
                        s = _sign(p[a] * p[c])
                        for m, coeff in alg.basis_bracket(b, c):
                            for t, coeff2 in alg.basis_bracket(a, m):
                                acc[t] = acc.get(t, ZERO) + s * coeff * coeff2
                    if any(acc.values()):
                        yield LawViolation(
                            "jacobi", (i, j, k),
                            f"graded Jacobi fails on ({names[i]}, {names[j]}, {names[k]})")

    first = [next(law(), None) for law in (grading, skew, jacobi)]
    return ValidationReport(*(v is None for v in first), tuple(v for v in first if v is not None))


@dataclass(frozen=True)
class GradedSubspace:
    """A graded subspace held as echelon bases of its even and odd parts.

    The even basis lives in even coordinates (width r), the odd basis in odd
    coordinates (width s); equality of graded subspaces is dataclass equality.
    """

    even: EchelonBasis
    odd: EchelonBasis

    @property
    def sdim(self) -> SuperDim:
        return SuperDim(self.even.dim, self.odd.dim)


def zero_subspace(alg: LieSuperalgebra) -> GradedSubspace:
    return GradedSubspace(empty_basis(alg.sdim.even), empty_basis(alg.sdim.odd))


def split_vector(alg: LieSuperalgebra, v: Sequence[Fraction]) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    r = alg.sdim.even
    return tuple(frac(x) for x in v[:r]), tuple(frac(x) for x in v[r:])


def embed_even(alg: LieSuperalgebra, part: Sequence[Fraction]) -> tuple[Fraction, ...]:
    return tuple(part) + (ZERO,) * alg.sdim.odd


def embed_odd(alg: LieSuperalgebra, part: Sequence[Fraction]) -> tuple[Fraction, ...]:
    return (ZERO,) * alg.sdim.even + tuple(part)


def graded_span(alg: LieSuperalgebra, vectors: Iterable[Sequence[Fraction]]) -> GradedSubspace:
    """Span of homogeneous vectors, split by parity and echelonized."""
    even_rows, odd_rows = [], []
    for v in vectors:
        par = vector_parity(alg, v)
        ev, od = split_vector(alg, v)
        if par == 0:
            even_rows.append(ev)
        elif par == 1:
            odd_rows.append(od)
    return GradedSubspace(
        echelon(even_rows, alg.sdim.even),
        echelon(odd_rows, alg.sdim.odd),
    )


def subspace_sum(a: GradedSubspace, b: GradedSubspace) -> GradedSubspace:
    return GradedSubspace(sum_spaces(a.even, b.even), sum_spaces(a.odd, b.odd))


def subspace_intersect(a: GradedSubspace, b: GradedSubspace) -> GradedSubspace:
    return GradedSubspace(intersect_spaces(a.even, b.even), intersect_spaces(a.odd, b.odd))


def subspace_contains(alg: LieSuperalgebra, space: GradedSubspace, v: Sequence[Fraction]) -> bool:
    ev, od = split_vector(alg, v)
    in_even, _ = membership(ev, space.even)
    in_odd, _ = membership(od, space.odd)
    return in_even and in_odd


def subspace_leq(a: GradedSubspace, b: GradedSubspace) -> bool:
    """Whether a is contained in b, partwise."""
    return all(membership(row, b.even)[0] for row in a.even.rows()) and all(
        membership(row, b.odd)[0] for row in a.odd.rows()
    )


def full_rows(alg: LieSuperalgebra, space: GradedSubspace) -> tuple[tuple[Fraction, ...], ...]:
    """Basis of the subspace as full-width vectors, even rows first."""
    rows = [embed_even(alg, r) for r in space.even.rows()]
    rows += [embed_odd(alg, r) for r in space.odd.rows()]
    return tuple(rows)
