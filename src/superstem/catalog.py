"""The built-in catalog of low-dimensional stem nilpotent superalgebras.

Each entry carries its defining relations on a homogeneous basis (even part
e1..ek, odd part f1..fl, one orientation per bracket) together with the
stored row (sdim L/Z, minimal generator pair of L/Z, sdim [L,L]) that the
verification pass recomputes from scratch.
"""

from __future__ import annotations

from dataclasses import dataclass

from .build import abelian, algebra_from_relations, direct_sum
from .core import LieSuperalgebra, SuperDim
from .invariants import _nilpotent_report, st
from .linalg import frac

# name, even count, odd count, relations; a relation is
# (lhs, rhs, ((coefficient, target), ...))
_DEFS = (
    ("(4|0)_2", 4, 0, (
        ("e1", "e2", ((1, "e3"),)),
        ("e1", "e3", ((1, "e4"),)),
    )),
    ("(2|2)_1", 2, 2, (
        ("f1", "f1", ((1, "e1"),)),
        ("f2", "f2", ((1, "e2"),)),
    )),
    ("(2|2)_4", 2, 2, (
        ("f1", "f2", ((1, "e1"),)),
        ("f2", "f2", ((1, "e2"),)),
    )),
    ("(2|2)_6", 2, 2, (
        ("e2", "f2", ((1, "f1"),)),
        ("f2", "f2", ((1, "e1"),)),
    )),
    ("(1|3)_1", 1, 3, (
        ("e1", "f2", ((1, "f1"),)),
        ("e1", "f3", ((1, "f2"),)),
    )),
    ("(5|0)_3", 5, 0, (
        ("e1", "e2", ((1, "e3"),)),
        ("e1", "e3", ((1, "e4"),)),
        ("e1", "e4", ((1, "e5"),)),
        ("e2", "e3", ((1, "e5"),)),
    )),
    ("(5|0)_4", 5, 0, (
        ("e1", "e2", ((1, "e3"),)),
        ("e1", "e3", ((1, "e4"),)),
        ("e1", "e4", ((1, "e5"),)),
    )),
    ("(5|0)_5", 5, 0, (
        ("e1", "e2", ((1, "e3"),)),
        ("e1", "e4", ((1, "e5"),)),
        ("e2", "e3", ((1, "e5"),)),
    )),
    ("(5|0)_6", 5, 0, (
        ("e1", "e2", ((1, "e3"),)),
        ("e1", "e3", ((1, "e4"),)),
        ("e2", "e3", ((1, "e5"),)),
    )),
    ("(5|0)_8", 5, 0, (
        ("e1", "e2", ((1, "e4"),)),
        ("e1", "e3", ((1, "e5"),)),
    )),
    ("(4|1)_4", 4, 1, (
        ("e1", "e2", ((1, "e3"),)),
        ("f1", "f1", ((1, "e4"),)),
    )),
    ("(4|1)_6", 4, 1, (
        ("e1", "e2", ((1, "e3"),)),
        ("e1", "e3", ((1, "e4"),)),
        ("f1", "f1", ((1, "e4"),)),
    )),
    ("(1|4)_7", 1, 4, (
        ("e1", "f2", ((1, "f1"),)),
        ("e1", "f3", ((1, "f2"),)),
        ("e1", "f4", ((1, "f3"),)),
    )),
    ("(1|4)_8", 1, 4, (
        ("e1", "f2", ((1, "f1"),)),
        ("e1", "f4", ((1, "f3"),)),
    )),
    ("(3|2)_5", 3, 2, (
        ("f1", "f1", ((1, "e2"),)),
        ("f1", "f2", ((1, "e1"),)),
        ("f2", "f2", ((1, "e3"),)),
    )),
    ("(3|2)_11", 3, 2, (
        ("e1", "e2", ((1, "e3"),)),
        ("e1", "f2", ((1, "f1"),)),
    )),
    ("(3|2)_12", 3, 2, (
        ("e1", "e2", ((1, "e3"),)),
        ("e1", "f2", ((1, "f1"),)),
        ("f2", "f2", ((1, "e3"),)),
    )),
    ("(3|2)_13", 3, 2, (
        ("e1", "e2", ((1, "e3"),)),
        ("e1", "f2", ((1, "f1"),)),
        ("f1", "f2", ((1, "e3"),)),
        ("f2", "f2", ((2, "e2"),)),
    )),
    ("(2|3)_5", 2, 3, (
        ("f1", "f1", ((1, "e1"),)),
        ("f2", "f2", ((1, "e2"),)),
        ("f3", "f3", ((1, "e1"),)),
    )),
    ("(2|3)_6", 2, 3, (
        ("f1", "f1", ((1, "e1"),)),
        ("f2", "f2", ((1, "e2"),)),
        ("f3", "f3", ((1, "e1"), (1, "e2"))),
    )),
    ("(2|3)_8", 2, 3, (
        ("f1", "f2", ((1, "e1"),)),
        ("f2", "f2", ((2, "e2"),)),
        ("f2", "f3", ((1, "e2"),)),
    )),
    ("(2|3)_9", 2, 3, (
        ("f1", "f2", ((1, "e1"),)),
        ("f2", "f2", ((2, "e2"),)),
        ("f3", "f3", ((1, "e1"),)),
    )),
    ("(2|3)_10", 2, 3, (
        ("f1", "f2", ((1, "e1"),)),
        ("f2", "f2", ((2, "e2"),)),
        ("f3", "f3", ((1, "e1"), (1, "e2"))),
    )),
    ("(2|3)_11", 2, 3, (
        ("f1", "f2", ((1, "e1"),)),
        ("f2", "f2", ((2, "e2"),)),
        ("f2", "f3", ((1, "e2"),)),
        ("f3", "f3", ((1, "e1"),)),
    )),
    ("(2|3)_13", 2, 3, (
        ("e1", "f3", ((1, "f1"),)),
        ("f2", "f2", ((1, "e2"),)),
    )),
    ("(2|3)_14", 2, 3, (
        ("e1", "f3", ((1, "f1"),)),
        ("f2", "f3", ((1, "e2"),)),
    )),
    ("(2|3)_16", 2, 3, (
        ("e1", "f3", ((1, "f1"),)),
        ("f2", "f2", ((1, "e2"),)),
        ("f3", "f3", ((1, "e2"),)),
    )),
    ("(2|3)_18", 2, 3, (
        ("e1", "f3", ((1, "f1"),)),
        ("e2", "f2", ((1, "f1"),)),
        ("f2", "f3", ((-1, "e1"),)),
        ("f3", "f3", ((2, "e2"),)),
    )),
    ("(2|3)_19", 2, 3, (
        ("e1", "f3", ((1, "f1"),)),
        ("e2", "f3", ((1, "f2"),)),
    )),
    ("(2|3)_20", 2, 3, (
        ("e1", "f2", ((1, "f1"),)),
        ("e1", "f3", ((1, "f2"),)),
        ("f3", "f3", ((1, "e2"),)),
    )),
    ("(2|3)_21", 2, 3, (
        ("e1", "f2", ((1, "f1"),)),
        ("e1", "f3", ((1, "f2"),)),
        ("f1", "f3", ((-1, "e2"),)),
        ("f2", "f2", ((1, "e2"),)),
    )),
    ("(2|3)_22", 2, 3, (
        ("e1", "f2", ((1, "f1"),)),
        ("e1", "f3", ((1, "f2"),)),
        ("e2", "f3", ((1, "f1"),)),
    )),
)

# stored rows: sdim L/Z(L), minimal generator pair of L/Z(L), sdim [L,L]
_TABLE = {
    "(4|0)_2": ((3, 0), (2, 0), (2, 0)),
    "(2|2)_1": ((0, 2), (0, 2), (2, 0)),
    "(2|2)_4": ((0, 2), (0, 2), (2, 0)),
    "(2|2)_6": ((1, 1), (1, 1), (1, 1)),
    "(1|3)_1": ((1, 2), (1, 1), (0, 2)),
    "(5|0)_3": ((4, 0), (2, 0), (3, 0)),
    "(5|0)_4": ((4, 0), (2, 0), (3, 0)),
    "(5|0)_5": ((4, 0), (3, 0), (2, 0)),
    "(5|0)_6": ((3, 0), (2, 0), (3, 0)),
    "(5|0)_8": ((3, 0), (3, 0), (2, 0)),
    "(4|1)_4": ((2, 1), (2, 1), (2, 0)),
    "(4|1)_6": ((3, 1), (2, 1), (2, 0)),
    "(1|4)_7": ((1, 3), (1, 1), (0, 3)),
    "(1|4)_8": ((1, 2), (1, 2), (0, 2)),
    "(3|2)_5": ((0, 2), (0, 2), (3, 0)),
    "(3|2)_11": ((2, 1), (2, 1), (1, 1)),
    "(3|2)_12": ((2, 1), (2, 1), (1, 1)),
    "(3|2)_13": ((2, 2), (1, 1), (2, 1)),
    "(2|3)_5": ((0, 3), (0, 3), (2, 0)),
    "(2|3)_6": ((0, 3), (0, 3), (2, 0)),
    "(2|3)_8": ((0, 3), (0, 3), (2, 0)),
    "(2|3)_9": ((0, 3), (0, 3), (2, 0)),
    "(2|3)_10": ((0, 3), (0, 3), (2, 0)),
    "(2|3)_11": ((0, 3), (0, 3), (2, 0)),
    "(2|3)_13": ((1, 2), (1, 2), (1, 1)),
    "(2|3)_14": ((1, 2), (1, 2), (1, 1)),
    "(2|3)_16": ((1, 2), (1, 2), (1, 1)),
    "(2|3)_18": ((2, 2), (0, 2), (2, 1)),
    "(2|3)_19": ((2, 1), (2, 1), (0, 2)),
    "(2|3)_20": ((1, 2), (1, 1), (1, 2)),
    "(2|3)_21": ((1, 3), (1, 1), (1, 2)),
    "(2|3)_22": ((2, 2), (2, 1), (0, 2)),
}


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    algebra: LieSuperalgebra
    sdim_central_quotient: SuperDim
    generator_pair: SuperDim
    sdim_derived: SuperDim


def _build(name: str, k: int, l: int, rels) -> LieSuperalgebra:
    even = tuple(f"e{i + 1}" for i in range(k))
    odd = tuple(f"f{i + 1}" for i in range(l))
    index = {nm: i for i, nm in enumerate(even + odd)}
    relations = [
        (index[a], index[b], {index[t]: frac(c) for c, t in terms})
        for a, b, terms in rels
    ]
    return algebra_from_relations(name, even, odd, relations)


def _entries() -> dict[str, CatalogEntry]:
    out = {}
    for name, k, l, rels in _DEFS:
        row = _TABLE[name]
        out[name] = CatalogEntry(
            name,
            _build(name, k, l, rels),
            SuperDim(*row[0]),
            SuperDim(*row[1]),
            SuperDim(*row[2]),
        )
    return out


_ENTRIES = _entries()


class UnknownEntryError(KeyError):
    """No catalog entry has the requested name."""


def names() -> tuple[str, ...]:
    return tuple(e[0] for e in _DEFS)


def get(name: str) -> CatalogEntry:
    try:
        return _ENTRIES[name]
    except KeyError:
        raise UnknownEntryError(name) from None


def entries() -> tuple[CatalogEntry, ...]:
    return tuple(_ENTRIES[name] for name, *_ in _DEFS)


@dataclass(frozen=True)
class TableRowCheck:
    name: str
    stored: tuple[SuperDim, SuperDim, SuperDim]
    computed: tuple[SuperDim, SuperDim, SuperDim]

    @property
    def ok(self) -> bool:
        return self.stored == self.computed


@dataclass(frozen=True)
class Table1Report:
    rows: tuple[TableRowCheck, ...]

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.rows)


def verify_table1() -> Table1Report:
    """Recompute every stored row from the structure constants alone."""
    rows = []
    for entry in entries():
        rep = _nilpotent_report(entry.algebra)
        computed = (rep.sdim - rep.sdim_center, rep.generator_pair, rep.sdim_derived)
        stored = (entry.sdim_central_quotient, entry.generator_pair, entry.sdim_derived)
        rows.append(TableRowCheck(entry.name, stored, computed))
    return Table1Report(tuple(rows))


@dataclass(frozen=True)
class ClassificationCheck:
    description: str
    expected_st: SuperDim | None
    computed_st: SuperDim
    ok: bool


@dataclass(frozen=True)
class ClassificationReport:
    checks: tuple[ClassificationCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)


_MAX_PAD = 2


def verify_classification() -> ClassificationReport:
    """Check the classified st values two ways.

    Forward: every listed head, padded by abelian summands up to _MAX_PAD in
    each parity, computes to the st value of its item.  Backward: every
    catalog entry whose computed st is one of the classified values appears
    as a head of that item, and every other entry has t >= 3.
    """
    from .classify import classified_values, heads_for

    checks: list[ClassificationCheck] = []
    for value in classified_values():
        for head_name, head_alg in heads_for(value):
            for a in range(_MAX_PAD + 1):
                for b in range(_MAX_PAD + 1):
                    alg = direct_sum(head_alg, abelian(a, b)) if a or b else head_alg
                    got = st(alg)
                    desc = head_name if not (a or b) else f"{head_name} + A({a}|{b})"
                    checks.append(ClassificationCheck(desc, value, got, got == value))

    classified = set(classified_values())
    for entry in entries():
        got = st(entry.algebra)
        if got in classified:
            head_names = {nm for nm, _ in heads_for(got)}
            ok = entry.name in head_names
            checks.append(ClassificationCheck(
                f"{entry.name} listed under st={got}", got, got, ok))
        else:
            checks.append(ClassificationCheck(
                f"{entry.name} unclassified, t >= 3", None, got, got.total >= 3))
    return ClassificationReport(tuple(checks))
