"""JSON views of report objects.

`KEYS` is the schema: for each report type, and for each part a report
nests, its JSON keys in output order.  A key is also the attribute it
reads, unless it is given as a (key, attribute) pair.  One recursive view
turns a report into plain JSON values: a type in `KEYS` becomes an object,
a tuple a list and a SuperDim an [even, odd] pair, so byte-identical
inputs give byte-identical output.  No report carries a rational, so every
other value is a plain JSON type already.
"""

from __future__ import annotations

import json

from .catalog import ClassificationCheck, ClassificationReport, Table1Report, TableRowCheck
from .core import LawViolation, SuperDim, ValidationReport
from .derivations import DerivationReport, IdStarBoundReport
from .invariants import InvariantReport, LadderRung, PropositionAuditReport, SchurBoundReport

KEYS = {
    InvariantReport: ("name", "sdim", "sdim_derived", "sdim_center", "central_series",
                      "nilpotency_class", "is_stem", "generator_pair", ("lambda", "lam"), "st", "t"),
    ValidationReport: ("grading_ok", "skew_ok", "jacobi_ok", "ok", "violations"),
    SchurBoundReport: ("name", "sdim_central_quotient", "generator_pair", ("lambda", "lam"),
                       ("schur_bound_holds", "holds")),
    IdStarBoundReport: ("name", "sdim_id_star", "generator_pair", ("lambda", "lam"),
                        ("idstar_bound_holds", "holds")),
    DerivationReport: ("name", "sdim_der", "sdim_inner", "sdim_id", "sdim_id_star", "chain_ok", "bound"),
    PropositionAuditReport: ("name", "derived_total", "t", "rungs", "ok"),
    Table1Report: ("rows", "ok"),
    ClassificationReport: ("checks", "ok"),
    LawViolation: ("law", "indices", "detail"),
    LadderRung: ("derived_at_least", "t_at_least", "applies", "holds"),
    TableRowCheck: ("name", "stored", "computed", "ok"),
    ClassificationCheck: ("description", "expected_st", "computed_st", "ok"),
}

# the parts a report nests have a view but are not reports of their own
PARTS = frozenset((LawViolation, LadderRung, TableRowCheck, ClassificationCheck))

_FIELDS = {kind: tuple((k, k) if isinstance(k, str) else k for k in keys) for kind, keys in KEYS.items()}


def view(value):
    """The JSON value of a report, a part of one, or a value a part holds."""
    if isinstance(value, SuperDim):
        return [value.even, value.odd]
    if isinstance(value, tuple):
        return [view(v) for v in value]
    fields = _FIELDS.get(type(value))
    if fields is None:
        return value
    return {key: view(getattr(value, attr)) for key, attr in fields}


def emit_report(report) -> str:
    """Render any report object as stable, indented JSON text."""
    if type(report) not in KEYS or type(report) in PARTS:
        raise TypeError(f"no JSON view for {type(report).__name__}")
    return json.dumps(view(report), indent=2) + "\n"
