"""JSON views of report objects.

Keys are emitted in a fixed order and graded dimensions as [even, odd]
pairs, so byte-identical inputs give byte-identical output.  No report
carries a rational, so every value is a plain JSON type.
"""

from __future__ import annotations

import json

from .catalog import ClassificationReport, Table1Report
from .core import SuperDim, ValidationReport
from .derivations import DerivationReport, IdStarBoundReport
from .invariants import InvariantReport, PropositionAuditReport, SchurBoundReport


def _sd(x: SuperDim | None):
    return None if x is None else [x.even, x.odd]


def invariant_dict(rep: InvariantReport) -> dict:
    return {
        "name": rep.name,
        "sdim": _sd(rep.sdim),
        "sdim_derived": _sd(rep.sdim_derived),
        "sdim_center": _sd(rep.sdim_center),
        "central_series": [_sd(z) for z in rep.central_series],
        "nilpotency_class": rep.nilpotency_class,
        "is_stem": rep.is_stem,
        "generator_pair": _sd(rep.generator_pair),
        "lambda": _sd(rep.lam),
        "st": _sd(rep.st),
        "t": rep.t,
    }


def validation_dict(rep: ValidationReport) -> dict:
    return {
        "grading_ok": rep.grading_ok,
        "skew_ok": rep.skew_ok,
        "jacobi_ok": rep.jacobi_ok,
        "ok": rep.ok,
        "violations": [
            {"law": v.law, "indices": list(v.indices), "detail": v.detail}
            for v in rep.violations
        ],
    }


def schur_dict(rep: SchurBoundReport) -> dict:
    return {
        "name": rep.name,
        "sdim_central_quotient": _sd(rep.sdim_central_quotient),
        "generator_pair": _sd(rep.generator_pair),
        "lambda": _sd(rep.lam),
        "schur_bound_holds": rep.holds,
    }


def idstar_dict(rep: IdStarBoundReport) -> dict:
    return {
        "name": rep.name,
        "sdim_id_star": _sd(rep.sdim_id_star),
        "generator_pair": _sd(rep.generator_pair),
        "lambda": _sd(rep.lam),
        "idstar_bound_holds": rep.holds,
    }


def derivation_dict(rep: DerivationReport) -> dict:
    return {
        "name": rep.name,
        "sdim_der": _sd(rep.sdim_der),
        "sdim_inner": _sd(rep.sdim_inner),
        "sdim_id": _sd(rep.sdim_id),
        "sdim_id_star": _sd(rep.sdim_id_star),
        "chain_ok": rep.chain_ok,
        "bound": None if rep.bound is None else idstar_dict(rep.bound),
    }


def proposition_dict(rep: PropositionAuditReport) -> dict:
    return {
        "name": rep.name,
        "derived_total": rep.derived_total,
        "t": rep.t,
        "rungs": [
            {
                "derived_at_least": r.derived_at_least,
                "t_at_least": r.t_at_least,
                "applies": r.applies,
                "holds": r.holds,
            }
            for r in rep.rungs
        ],
        "ok": rep.ok,
    }


def table1_dict(rep: Table1Report) -> dict:
    return {
        "rows": [
            {
                "name": r.name,
                "stored": [_sd(x) for x in r.stored],
                "computed": [_sd(x) for x in r.computed],
                "ok": r.ok,
            }
            for r in rep.rows
        ],
        "ok": rep.ok,
    }


def classification_dict(rep: ClassificationReport) -> dict:
    return {
        "checks": [
            {
                "description": c.description,
                "expected_st": _sd(c.expected_st),
                "computed_st": _sd(c.computed_st),
                "ok": c.ok,
            }
            for c in rep.checks
        ],
        "ok": rep.ok,
    }


_DISPATCH = {
    InvariantReport: invariant_dict,
    ValidationReport: validation_dict,
    SchurBoundReport: schur_dict,
    IdStarBoundReport: idstar_dict,
    DerivationReport: derivation_dict,
    PropositionAuditReport: proposition_dict,
    Table1Report: table1_dict,
    ClassificationReport: classification_dict,
}


def emit_report(report) -> str:
    """Render any report object as stable, indented JSON text."""
    fn = _DISPATCH.get(type(report))
    if fn is None:
        raise TypeError(f"no JSON view for {type(report).__name__}")
    return json.dumps(fn(report), indent=2) + "\n"
