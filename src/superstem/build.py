"""Constructors: relation lists, standard families and direct sums."""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from .core import MAX_BASIS, LieSuperalgebra, from_brackets
from .linalg import ONE, Scalar, frac


class StructureConflictError(ValueError):
    """A relation list that defines no structure constants.

    `relation` is the position of the failing relation in the list given to
    algebra_from_relations (None when the basis names clash), and `earlier`
    the position of the relation whose mirror it contradicts, None for an
    even self-bracket or an index out of range.
    """

    def __init__(self, message: str, relation: int | None = None, earlier: int | None = None):
        super().__init__(message)
        self.relation = relation
        self.earlier = earlier


Relation = tuple[int, int, Mapping[int, Scalar]]


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

    # the value of each ordered pair, and the position of the relation that set it
    table: dict[tuple[int, int], tuple[dict[int, Scalar], int]] = {}
    for pos, (i, j, terms) in enumerate(relations):
        if not (0 <= i < n and 0 <= j < n):
            raise StructureConflictError(f"basis index out of range in relation ({i}, {j})", pos)
        if any(not 0 <= k < n for k in terms):
            raise StructureConflictError(f"target index out of range in relation ({i}, {j})", pos)
        value = {k: c for k, x in terms.items() if (c := frac(x))}
        sign = -1 if (parity(i) * parity(j)) % 2 else 1
        mirror = {k: -sign * c for k, c in value.items()}
        if i == j and value != mirror:
            raise StructureConflictError(
                f"[{names[i]}, {names[i]}] must vanish for an even basis vector", pos)
        for key, val in ((i, j), value), ((j, i), mirror):
            if key not in table:
                table[key] = val, pos
            elif table[key][0] != val:
                raise StructureConflictError(
                    f"conflicting values for [{names[key[0]]}, {names[key[1]]}]", pos, table[key][1])

    return from_brackets(name, even_names, odd_names, {key: val.items() for key, (val, _) in table.items()})


def numbered_names(prefix: str, count: int) -> tuple[str, ...]:
    """prefix1 .. prefix<count>, refused above MAX_BASIS before a name is built."""
    if count > MAX_BASIS:
        raise ValueError(f"at least {count} basis vectors, more than the {MAX_BASIS} an algebra may have")
    return tuple(f"{prefix}{i + 1}" for i in range(count))


def abelian(k: int, l: int) -> LieSuperalgebra:
    """A(k|l): the abelian superalgebra of graded dimension (k|l)."""
    if k < 0 or l < 0:
        raise ValueError("graded dimensions must be non-negative")
    return algebra_from_relations(f"A({k}|{l})", numbered_names("a", k), numbered_names("b", l), ())


def heisenberg_even(m: int, n: int) -> LieSuperalgebra:
    """H(m, n): Heisenberg with even centre; sdim (2m+1 | n).

    Even basis x1..x2m, z with [x_i, x_{m+i}] = z; odd basis y1..yn with
    [y_j, y_j] = z.
    """
    if m < 0 or n < 0 or m + n < 1:
        raise ValueError("need m, n >= 0 with m + n >= 1")
    even = numbered_names("x", 2 * m) + ("z",)
    odd = numbered_names("y", n)
    z = 2 * m
    rels: list[Relation] = [(i, m + i, {z: ONE}) for i in range(m)]
    rels += [(2 * m + 1 + j, 2 * m + 1 + j, {z: ONE}) for j in range(n)]
    return algebra_from_relations(f"H({m},{n})", even, odd, rels)


def heisenberg_odd(m: int) -> LieSuperalgebra:
    """H_m: Heisenberg with odd centre; sdim (m | m+1).

    Even basis x1..xm, odd basis y1..ym, z with [x_j, y_j] = z.
    """
    if m < 1:
        raise ValueError("need m >= 1")
    even = numbered_names("x", m)
    odd = numbered_names("y", m) + ("z",)
    z = 2 * m
    rels: list[Relation] = [(j, m + j, {z: ONE}) for j in range(m)]
    return algebra_from_relations(f"H_{m}", even, odd, rels)


def tower(t: int) -> LieSuperalgebra:
    """The filiform tower on t+3 even generators s, s1..s_{t+2}.

    [s, s_i] = s_{i+1} for 1 <= i <= t+1.
    """
    if t < 1:
        raise ValueError("need t >= 1")
    names = ("s",) + numbered_names("s", t + 2)
    rels: list[Relation] = [(0, i, {i + 1: ONE}) for i in range(1, t + 2)]
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
    rb = b.sdim.even

    def to_new(i: int, side: str) -> int:
        if side == "a":
            return i if i < ra else rb + i
        return ra + i if i < rb else ra + sa + i

    brackets = {
        (to_new(i, side), to_new(j, side)): [(to_new(k, side), c) for k, c in support]
        for alg, side in ((a, "a"), (b, "b"))
        for i, j, support in alg.nonzero_brackets
    }
    return from_brackets(
        f"{a.name}+{b.name}", a.even_names + tuple(b_even), a.odd_names + tuple(b_odd), brackets)
