"""The built-in catalog of low-dimensional stem nilpotent superalgebras, and
the classification stated over it.

Each entry carries its defining relations on a homogeneous basis (even part
e1..ek, odd part f1..fl, one orientation per bracket) together with its
stored Table-1 row (sdim L/Z, minimal generator pair of L/Z, sdim [L,L])
that verify_table1 recomputes from scratch.

The theorem carried here: every finite-dimensional nilpotent Lie
superalgebra L with st(L) in {(0,0), (1,0), (0,1), (2,0), (0,2), (1,1)} is
the direct sum of one head algebra and an abelian summand.  The heads are
the Heisenberg superalgebras H(m,n) and H_m for st = (0,0) and the catalog
entries listed in _CATALOG_HEADS otherwise; no algebra has st = (0,1).
classify_by_st answers queries from that list, and verify_classification
checks it against the catalog.
"""

from __future__ import annotations

from ._record import Record
from .build import abelian, algebra_from_relations, direct_sum, heisenberg_even, heisenberg_odd, numbered_names
from .core import LieSuperalgebra, SuperDim
from .invariants import _nilpotent_report, st
from .linalg import frac

# name, even count, odd count, stored row, relations.  The stored row is
# (sdim L/Z(L), minimal generator pair of L/Z(L), sdim [L,L]); a relation
# is (lhs, rhs, ((coefficient, target), ...)).
_DEFS = (
    ("(4|0)_2", 4, 0, ((3, 0), (2, 0), (2, 0)), (
        ("e1", "e2", ((1, "e3"),)),
        ("e1", "e3", ((1, "e4"),)),
    )),
    ("(2|2)_1", 2, 2, ((0, 2), (0, 2), (2, 0)), (
        ("f1", "f1", ((1, "e1"),)),
        ("f2", "f2", ((1, "e2"),)),
    )),
    ("(2|2)_4", 2, 2, ((0, 2), (0, 2), (2, 0)), (
        ("f1", "f2", ((1, "e1"),)),
        ("f2", "f2", ((1, "e2"),)),
    )),
    ("(2|2)_6", 2, 2, ((1, 1), (1, 1), (1, 1)), (
        ("e2", "f2", ((1, "f1"),)),
        ("f2", "f2", ((1, "e1"),)),
    )),
    ("(1|3)_1", 1, 3, ((1, 2), (1, 1), (0, 2)), (
        ("e1", "f2", ((1, "f1"),)),
        ("e1", "f3", ((1, "f2"),)),
    )),
    ("(5|0)_3", 5, 0, ((4, 0), (2, 0), (3, 0)), (
        ("e1", "e2", ((1, "e3"),)),
        ("e1", "e3", ((1, "e4"),)),
        ("e1", "e4", ((1, "e5"),)),
        ("e2", "e3", ((1, "e5"),)),
    )),
    ("(5|0)_4", 5, 0, ((4, 0), (2, 0), (3, 0)), (
        ("e1", "e2", ((1, "e3"),)),
        ("e1", "e3", ((1, "e4"),)),
        ("e1", "e4", ((1, "e5"),)),
    )),
    ("(5|0)_5", 5, 0, ((4, 0), (3, 0), (2, 0)), (
        ("e1", "e2", ((1, "e3"),)),
        ("e1", "e4", ((1, "e5"),)),
        ("e2", "e3", ((1, "e5"),)),
    )),
    ("(5|0)_6", 5, 0, ((3, 0), (2, 0), (3, 0)), (
        ("e1", "e2", ((1, "e3"),)),
        ("e1", "e3", ((1, "e4"),)),
        ("e2", "e3", ((1, "e5"),)),
    )),
    ("(5|0)_8", 5, 0, ((3, 0), (3, 0), (2, 0)), (
        ("e1", "e2", ((1, "e4"),)),
        ("e1", "e3", ((1, "e5"),)),
    )),
    ("(4|1)_4", 4, 1, ((2, 1), (2, 1), (2, 0)), (
        ("e1", "e2", ((1, "e3"),)),
        ("f1", "f1", ((1, "e4"),)),
    )),
    ("(4|1)_6", 4, 1, ((3, 1), (2, 1), (2, 0)), (
        ("e1", "e2", ((1, "e3"),)),
        ("e1", "e3", ((1, "e4"),)),
        ("f1", "f1", ((1, "e4"),)),
    )),
    ("(1|4)_7", 1, 4, ((1, 3), (1, 1), (0, 3)), (
        ("e1", "f2", ((1, "f1"),)),
        ("e1", "f3", ((1, "f2"),)),
        ("e1", "f4", ((1, "f3"),)),
    )),
    ("(1|4)_8", 1, 4, ((1, 2), (1, 2), (0, 2)), (
        ("e1", "f2", ((1, "f1"),)),
        ("e1", "f4", ((1, "f3"),)),
    )),
    ("(3|2)_5", 3, 2, ((0, 2), (0, 2), (3, 0)), (
        ("f1", "f1", ((1, "e2"),)),
        ("f1", "f2", ((1, "e1"),)),
        ("f2", "f2", ((1, "e3"),)),
    )),
    ("(3|2)_11", 3, 2, ((2, 1), (2, 1), (1, 1)), (
        ("e1", "e2", ((1, "e3"),)),
        ("e1", "f2", ((1, "f1"),)),
    )),
    ("(3|2)_12", 3, 2, ((2, 1), (2, 1), (1, 1)), (
        ("e1", "e2", ((1, "e3"),)),
        ("e1", "f2", ((1, "f1"),)),
        ("f2", "f2", ((1, "e3"),)),
    )),
    ("(3|2)_13", 3, 2, ((2, 2), (1, 1), (2, 1)), (
        ("e1", "e2", ((1, "e3"),)),
        ("e1", "f2", ((1, "f1"),)),
        ("f1", "f2", ((1, "e3"),)),
        ("f2", "f2", ((2, "e2"),)),
    )),
    ("(2|3)_5", 2, 3, ((0, 3), (0, 3), (2, 0)), (
        ("f1", "f1", ((1, "e1"),)),
        ("f2", "f2", ((1, "e2"),)),
        ("f3", "f3", ((1, "e1"),)),
    )),
    ("(2|3)_6", 2, 3, ((0, 3), (0, 3), (2, 0)), (
        ("f1", "f1", ((1, "e1"),)),
        ("f2", "f2", ((1, "e2"),)),
        ("f3", "f3", ((1, "e1"), (1, "e2"))),
    )),
    ("(2|3)_8", 2, 3, ((0, 3), (0, 3), (2, 0)), (
        ("f1", "f2", ((1, "e1"),)),
        ("f2", "f2", ((2, "e2"),)),
        ("f2", "f3", ((1, "e2"),)),
    )),
    ("(2|3)_9", 2, 3, ((0, 3), (0, 3), (2, 0)), (
        ("f1", "f2", ((1, "e1"),)),
        ("f2", "f2", ((2, "e2"),)),
        ("f3", "f3", ((1, "e1"),)),
    )),
    ("(2|3)_10", 2, 3, ((0, 3), (0, 3), (2, 0)), (
        ("f1", "f2", ((1, "e1"),)),
        ("f2", "f2", ((2, "e2"),)),
        ("f3", "f3", ((1, "e1"), (1, "e2"))),
    )),
    ("(2|3)_11", 2, 3, ((0, 3), (0, 3), (2, 0)), (
        ("f1", "f2", ((1, "e1"),)),
        ("f2", "f2", ((2, "e2"),)),
        ("f2", "f3", ((1, "e2"),)),
        ("f3", "f3", ((1, "e1"),)),
    )),
    ("(2|3)_13", 2, 3, ((1, 2), (1, 2), (1, 1)), (
        ("e1", "f3", ((1, "f1"),)),
        ("f2", "f2", ((1, "e2"),)),
    )),
    ("(2|3)_14", 2, 3, ((1, 2), (1, 2), (1, 1)), (
        ("e1", "f3", ((1, "f1"),)),
        ("f2", "f3", ((1, "e2"),)),
    )),
    ("(2|3)_16", 2, 3, ((1, 2), (1, 2), (1, 1)), (
        ("e1", "f3", ((1, "f1"),)),
        ("f2", "f2", ((1, "e2"),)),
        ("f3", "f3", ((1, "e2"),)),
    )),
    ("(2|3)_18", 2, 3, ((2, 2), (0, 2), (2, 1)), (
        ("e1", "f3", ((1, "f1"),)),
        ("e2", "f2", ((1, "f1"),)),
        ("f2", "f3", ((-1, "e1"),)),
        ("f3", "f3", ((2, "e2"),)),
    )),
    ("(2|3)_19", 2, 3, ((2, 1), (2, 1), (0, 2)), (
        ("e1", "f3", ((1, "f1"),)),
        ("e2", "f3", ((1, "f2"),)),
    )),
    ("(2|3)_20", 2, 3, ((1, 2), (1, 1), (1, 2)), (
        ("e1", "f2", ((1, "f1"),)),
        ("e1", "f3", ((1, "f2"),)),
        ("f3", "f3", ((1, "e2"),)),
    )),
    ("(2|3)_21", 2, 3, ((1, 3), (1, 1), (1, 2)), (
        ("e1", "f2", ((1, "f1"),)),
        ("e1", "f3", ((1, "f2"),)),
        ("f1", "f3", ((-1, "e2"),)),
        ("f2", "f2", ((1, "e2"),)),
    )),
    ("(2|3)_22", 2, 3, ((2, 2), (2, 1), (0, 2)), (
        ("e1", "f2", ((1, "f1"),)),
        ("e1", "f3", ((1, "f2"),)),
        ("e2", "f3", ((1, "f1"),)),
    )),
)


class CatalogEntry(Record):
    name: str
    algebra: LieSuperalgebra
    sdim_central_quotient: SuperDim
    generator_pair: SuperDim
    sdim_derived: SuperDim


def _build(name: str, k: int, l: int, rels) -> LieSuperalgebra:
    even, odd = numbered_names("e", k), numbered_names("f", l)
    index = {nm: i for i, nm in enumerate(even + odd)}
    relations = [
        (index[a], index[b], {index[t]: frac(c) for c, t in terms})
        for a, b, terms in rels
    ]
    return algebra_from_relations(name, even, odd, relations)


_ENTRIES = {
    name: CatalogEntry(name, _build(name, k, l, rels), *(SuperDim(*sd) for sd in row))
    for name, k, l, row, rels in _DEFS
}


class UnknownEntryError(KeyError):
    """No catalog entry has the requested name."""


def names() -> tuple[str, ...]:
    return tuple(_ENTRIES)


def get(name: str) -> CatalogEntry:
    try:
        return _ENTRIES[name]
    except KeyError:
        raise UnknownEntryError(name) from None


def entries() -> tuple[CatalogEntry, ...]:
    return tuple(_ENTRIES.values())


class TableRowCheck(Record):
    name: str
    stored: tuple[SuperDim, SuperDim, SuperDim]
    computed: tuple[SuperDim, SuperDim, SuperDim]

    @property
    def ok(self) -> bool:
        return self.stored == self.computed


class Table1Report(Record):
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


class UnsupportedStError(ValueError):
    """The requested st value is outside the classified range."""


class FamilyInstance(Record):
    description: str
    algebra: LieSuperalgebra
    st: SuperDim


# catalog heads per classified value; the abelian complement may have any
# graded dimension, so the constraint on (k|l) is just head.sdim <= (k|l)
_CATALOG_HEADS = {
    SuperDim(1, 0): ("(4|0)_2", "(1|3)_1"),
    SuperDim(0, 1): (),
    SuperDim(2, 0): ("(5|0)_3", "(5|0)_4", "(5|0)_5", "(1|4)_7", "(2|3)_21"),
    SuperDim(0, 2): ("(2|2)_1", "(2|2)_4", "(2|3)_18", "(2|3)_22"),
    SuperDim(1, 1): ("(2|2)_6", "(4|1)_6", "(3|2)_13"),
}

_CLASSIFIED = (SuperDim(0, 0), *_CATALOG_HEADS)


def classified_values() -> tuple[SuperDim, ...]:
    return _CLASSIFIED


def heads_for(value: SuperDim) -> tuple[tuple[str, LieSuperalgebra], ...]:
    """A finite list of head algebras for one classified st value.

    For st = (0,0) the families are parametric, so representatives with
    small parameters stand in for them.
    """
    if value == SuperDim(0, 0):
        heads: list[tuple[str, LieSuperalgebra]] = [
            ("A(1|0)", abelian(1, 0)),
            ("A(0|1)", abelian(0, 1)),
        ]
        for m, n in ((1, 0), (0, 1), (1, 1), (2, 0), (0, 2)):
            alg = heisenberg_even(m, n)
            heads.append((alg.name, alg))
        for m in (1, 2):
            alg = heisenberg_odd(m)
            heads.append((alg.name, alg))
        return tuple(heads)
    if value in _CATALOG_HEADS:
        return tuple((nm, _ENTRIES[nm].algebra) for nm in _CATALOG_HEADS[value])
    raise UnsupportedStError(str(value))


def _padded(head: LieSuperalgebra, desc: str, pad: SuperDim) -> tuple[str, LieSuperalgebra]:
    if pad == SuperDim(0, 0):
        return desc, head
    return f"{desc} + A({pad.even}|{pad.odd})", direct_sum(head, abelian(pad.even, pad.odd))


def classify_by_st(value: SuperDim, sdim: SuperDim) -> tuple[FamilyInstance, ...]:
    """All algebras of graded dimension sdim with the given st, up to
    isomorphism, each rebuilt and recomputed before being returned.

    Raises UnsupportedStError for st values outside the classified six.
    """
    if value not in _CLASSIFIED:
        raise UnsupportedStError(f"st={value} is not classified")
    k, l = sdim.even, sdim.odd
    found: list[FamilyInstance] = []

    if value == SuperDim(0, 0):
        if k + l >= 1:
            found.append(FamilyInstance(f"A({k}|{l})", abelian(k, l), SuperDim(0, 0)))
        for m in range(0, (k + 1) // 2 + 1):
            for n in range(0, l + 1):
                if m + n < 1 or 2 * m + 1 > k or n > l:
                    continue
                head = heisenberg_even(m, n)
                desc, alg = _padded(head, head.name, SuperDim(k - 2 * m - 1, l - n))
                found.append(FamilyInstance(desc, alg, SuperDim(0, 0)))
        for m in range(1, min(k, l - 1) + 1):
            head = heisenberg_odd(m)
            desc, alg = _padded(head, head.name, SuperDim(k - m, l - m - 1))
            found.append(FamilyInstance(desc, alg, SuperDim(0, 0)))
    else:
        for nm in _CATALOG_HEADS[value]:
            head = _ENTRIES[nm].algebra
            if head.sdim <= sdim:
                desc, alg = _padded(head, nm, sdim - head.sdim)
                found.append(FamilyInstance(desc, alg, value))

    for inst in found:
        if inst.algebra.sdim != sdim:
            raise RuntimeError(f"{inst.description}: wrong graded dimension")
        got = st(inst.algebra)
        if got != value:
            raise RuntimeError(
                f"{inst.description}: recomputed st={got}, expected {value}")
    return tuple(found)


class ClassificationCheck(Record):
    description: str
    expected_st: SuperDim | None
    computed_st: SuperDim
    ok: bool


class ClassificationReport(Record):
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
    checks: list[ClassificationCheck] = []
    for value in _CLASSIFIED:
        for head_name, head_alg in heads_for(value):
            for a in range(_MAX_PAD + 1):
                for b in range(_MAX_PAD + 1):
                    desc, alg = _padded(head_alg, head_name, SuperDim(a, b))
                    got = st(alg)
                    checks.append(ClassificationCheck(desc, value, got, got == value))

    for entry in entries():
        got = st(entry.algebra)
        if got in _CLASSIFIED:
            head_names = {nm for nm, _ in heads_for(got)}
            ok = entry.name in head_names
            checks.append(ClassificationCheck(
                f"{entry.name} listed under st={got}", got, got, ok))
        else:
            checks.append(ClassificationCheck(
                f"{entry.name} unclassified, t >= 3", None, got, got.total >= 3))
    return ClassificationReport(tuple(checks))
