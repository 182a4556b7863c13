"""Answers to classification queries: which nilpotent superalgebras of a
given graded dimension have a given st value.

Every algebra with st in {(0,0), (1,0), (0,1), (2,0), (0,2), (1,1)} is a
direct sum of one head algebra and an abelian complement; the heads are the
Heisenberg families for st = (0,0) and specific catalog entries otherwise,
and no algebra at all has st = (0,1).
"""

from __future__ import annotations

from dataclasses import dataclass

from . import catalog
from .build import abelian, direct_sum, heisenberg_even, heisenberg_odd
from .core import LieSuperalgebra, SuperDim
from .invariants import st


class UnsupportedStError(ValueError):
    """The requested st value is outside the classified range."""


@dataclass(frozen=True)
class FamilyInstance:
    description: str
    algebra: LieSuperalgebra
    st: SuperDim


_CLASSIFIED = (
    SuperDim(0, 0),
    SuperDim(1, 0),
    SuperDim(0, 1),
    SuperDim(2, 0),
    SuperDim(0, 2),
    SuperDim(1, 1),
)

# catalog heads per classified value; the abelian complement may have any
# graded dimension, so the constraint on (k|l) is just head.sdim <= (k|l)
_CATALOG_HEADS = {
    SuperDim(1, 0): ("(4|0)_2", "(1|3)_1"),
    SuperDim(0, 1): (),
    SuperDim(2, 0): ("(5|0)_3", "(5|0)_4", "(5|0)_5", "(1|4)_7", "(2|3)_21"),
    SuperDim(0, 2): ("(2|2)_1", "(2|2)_4", "(2|3)_18", "(2|3)_22"),
    SuperDim(1, 1): ("(2|2)_6", "(4|1)_6", "(3|2)_13"),
}


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
        return tuple((nm, catalog.get(nm).algebra) for nm in _CATALOG_HEADS[value])
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
            head = catalog.get(nm).algebra
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
