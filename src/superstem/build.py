"""Constructors: relation lists, standard families, direct sums, quotients."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .core import (
    GradedSubspace,
    LieSuperalgebra,
    full_rows,
    subspace_contains,
)
from .linalg import ZERO, frac, nonzeros, reduce_mod


class StructureConflictError(ValueError):
    """Two declared relations force incompatible structure constants."""


class NotIdealError(ValueError):
    """The subspace handed to quotient() is not an ideal."""


Relation = tuple[int, int, Mapping[int, Fraction]]


def algebra_from_relations(
    name: str,
    even_names: Sequence[str],
    odd_names: Sequence[str],
    relations: Iterable[Relation],
) -> LieSuperalgebra:
    """Build an algebra from brackets on basis pairs, one orientation each.

    The mirror orientation is filled in by super skew symmetry; declaring
    both orientations is allowed only when they agree, and a nonzero bracket
    of an even basis vector with itself is rejected outright.
    """
    names = tuple(even_names) + tuple(odd_names)
    n = len(names)
    r = len(even_names)
    if len(set(names)) != n:
        raise StructureConflictError("duplicate basis names")

    def parity(i: int) -> int:
        return 0 if i < r else 1

    table: dict[tuple[int, int], dict[int, Fraction]] = {}
    for i, j, terms in relations:
        if not (0 <= i < n and 0 <= j < n):
            raise StructureConflictError(f"basis index out of range in relation ({i}, {j})")
        value = {k: frac(c) for k, c in terms.items() if frac(c)}
        sign = -1 if (parity(i) * parity(j)) % 2 else 1
        mirror = {k: -sign * c for k, c in value.items()}
        if i == j and value != mirror:
            raise StructureConflictError(
                f"[{names[i]}, {names[i]}] must vanish for an even basis vector")
        for key, val in ((i, j), value), ((j, i), mirror):
            if key in table and table[key] != val:
                raise StructureConflictError(
                    f"conflicting values for [{names[key[0]]}, {names[key[1]]}]")
            table[key] = val

    tensor = tuple(
        tuple(
            tuple(table.get((i, j), {}).get(k, ZERO) for k in range(n))
            for j in range(n)
        )
        for i in range(n)
    )
    return LieSuperalgebra(name, tuple(even_names), tuple(odd_names), tensor)


def abelian(k: int, l: int) -> LieSuperalgebra:
    """A(k|l): the abelian superalgebra of graded dimension (k|l)."""
    if k < 0 or l < 0:
        raise ValueError("graded dimensions must be non-negative")
    return algebra_from_relations(
        f"A({k}|{l})",
        tuple(f"a{i + 1}" for i in range(k)),
        tuple(f"b{i + 1}" for i in range(l)),
        (),
    )


def heisenberg_even(m: int, n: int) -> LieSuperalgebra:
    """H(m, n): Heisenberg with even centre; sdim (2m+1 | n).

    Even basis x1..x2m, z with [x_i, x_{m+i}] = z; odd basis y1..yn with
    [y_j, y_j] = z.
    """
    if m < 0 or n < 0 or m + n < 1:
        raise ValueError("need m, n >= 0 with m + n >= 1")
    even = tuple(f"x{i + 1}" for i in range(2 * m)) + ("z",)
    odd = tuple(f"y{j + 1}" for j in range(n))
    z = 2 * m
    rels: list[Relation] = [(i, m + i, {z: frac(1)}) for i in range(m)]
    rels += [(2 * m + 1 + j, 2 * m + 1 + j, {z: frac(1)}) for j in range(n)]
    return algebra_from_relations(f"H({m},{n})", even, odd, rels)


def heisenberg_odd(m: int) -> LieSuperalgebra:
    """H_m: Heisenberg with odd centre; sdim (m | m+1).

    Even basis x1..xm, odd basis y1..ym, z with [x_j, y_j] = z.
    """
    if m < 1:
        raise ValueError("need m >= 1")
    even = tuple(f"x{j + 1}" for j in range(m))
    odd = tuple(f"y{j + 1}" for j in range(m)) + ("z",)
    z = 2 * m
    rels: list[Relation] = [(j, m + j, {z: frac(1)}) for j in range(m)]
    return algebra_from_relations(f"H_{m}", even, odd, rels)


def tower(t: int) -> LieSuperalgebra:
    """The filiform tower on t+3 even generators s, s1..s_{t+2}.

    [s, s_i] = s_{i+1} for 1 <= i <= t+1.
    """
    if t < 1:
        raise ValueError("need t >= 1")
    names = ("s",) + tuple(f"s{i}" for i in range(1, t + 3))
    rels: list[Relation] = [(0, i, {i + 1: frac(1)}) for i in range(1, t + 2)]
    return algebra_from_relations(f"tower({t})", names, (), rels)


def _uniquify(taken: set[str], name: str) -> str:
    if name not in taken:
        return name
    k = 2
    while f"{name}_{k}" in taken:
        k += 1
    return f"{name}_{k}"


def direct_sum(a: LieSuperalgebra, b: LieSuperalgebra) -> LieSuperalgebra:
    """Direct sum with componentwise bracket; clashing names get suffixed."""
    taken = set(a.basis_names)
    b_even = []
    for nm in b.even_names:
        nm2 = _uniquify(taken, nm)
        taken.add(nm2)
        b_even.append(nm2)
    b_odd = []
    for nm in b.odd_names:
        nm2 = _uniquify(taken, nm)
        taken.add(nm2)
        b_odd.append(nm2)

    ra, sa = a.sdim.even, a.sdim.odd
    rb, sb = b.sdim.even, b.sdim.odd
    n = a.n + b.n

    def to_new(i: int, side: str) -> int:
        if side == "a":
            return i if i < ra else rb + i
        return ra + i if i < rb else ra + sa + i

    tensor = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
    for alg, side in ((a, "a"), (b, "b")):
        for i in range(alg.n):
            ni = to_new(i, side)
            for j in range(alg.n):
                nj = to_new(j, side)
                for k, c in alg.basis_bracket(i, j):
                    tensor[ni][nj][to_new(k, side)] = c
    return LieSuperalgebra(
        f"{a.name}+{b.name}",
        a.even_names + tuple(b_even),
        a.odd_names + tuple(b_odd),
        tuple(tuple(tuple(row) for row in plane) for plane in tensor),
    )


@dataclass(frozen=True)
class QuotientMap:
    """Projection onto L/I and the section that lifts cosets back into L.

    Coordinates kept in the quotient are the non-pivot coordinates of the
    ideal's echelon bases, so lift(project(v)) differs from v by an element
    of I and project(lift(w)) == w.
    """

    ideal: GradedSubspace
    domain_even: int
    domain_odd: int
    even_kept: tuple[int, ...]
    odd_kept: tuple[int, ...]

    def project(self, v: Sequence[Fraction]) -> tuple[Fraction, ...]:
        r = self.domain_even
        ev_res, _ = reduce_mod(nonzeros([frac(x) for x in v[:r]]), self.ideal.even)
        od_res, _ = reduce_mod(nonzeros([frac(x) for x in v[r:]]), self.ideal.odd)
        return tuple(ev_res.get(i, ZERO) for i in self.even_kept) + tuple(
            od_res.get(i, ZERO) for i in self.odd_kept)

    def lift(self, w: Sequence[Fraction]) -> tuple[Fraction, ...]:
        ev = [ZERO] * self.domain_even
        od = [ZERO] * self.domain_odd
        ne = len(self.even_kept)
        for pos, x in zip(self.even_kept, w[:ne]):
            ev[pos] = frac(x)
        for pos, x in zip(self.odd_kept, w[ne:]):
            od[pos] = frac(x)
        return tuple(ev) + tuple(od)


def quotient(alg: LieSuperalgebra, ideal: GradedSubspace) -> tuple[LieSuperalgebra, QuotientMap]:
    """Quotient superalgebra L/I together with its projection map."""
    r, s = alg.sdim.even, alg.sdim.odd
    if ideal.even.width != r or ideal.odd.width != s:
        raise ValueError("ideal widths do not match the algebra")
    for row in full_rows(alg, ideal):
        for i in range(alg.n):
            if not subspace_contains(alg, ideal, alg.bracket(alg.basis_vector(i), row)):
                raise NotIdealError(
                    f"[{alg.basis_names[i]}, -] leaves the subspace")

    even_pivots = set(ideal.even.pivot_cols)
    odd_pivots = set(ideal.odd.pivot_cols)
    even_kept = tuple(i for i in range(r) if i not in even_pivots)
    odd_kept = tuple(i for i in range(s) if i not in odd_pivots)
    qmap = QuotientMap(ideal, r, s, even_kept, odd_kept)

    q_even_names = tuple(alg.even_names[i] for i in even_kept)
    q_odd_names = tuple(alg.odd_names[i] for i in odd_kept)
    reps = [alg.basis_vector(i) for i in even_kept]
    reps += [alg.basis_vector(r + i) for i in odd_kept]

    qn = len(reps)
    tensor = tuple(
        tuple(qmap.project(alg.bracket(reps[i], reps[j])) for j in range(qn))
        for i in range(qn)
    )
    qalg = LieSuperalgebra(f"{alg.name}/~", q_even_names, q_odd_names, tensor)
    return qalg, qmap
