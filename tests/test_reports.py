"""The JSON view of every report type that emit_report dispatches on.

Each view is checked on a real report: the top-level keys come in a fixed
order, the text parses back to the view's own dict, and it ends in exactly
one newline.  No report carries a Fraction, so json.dumps takes each view
as it is.
"""

import json

import pytest

from superstem.catalog import (
    ClassificationReport,
    Table1Report,
    get,
    verify_classification,
    verify_table1,
)
from superstem.core import ValidationReport, validate
from superstem.derivations import (
    DerivationReport,
    IdStarBoundReport,
    derivation_report,
    idstar_bound_check,
)
from superstem.invariants import (
    InvariantReport,
    PropositionAuditReport,
    SchurBoundReport,
    invariant_report,
    proposition_audit,
    schur_bound_check,
)
from superstem.reports import _DISPATCH, emit_report

ALG = get("(3|2)_13").algebra

VIEWS = [
    (InvariantReport, lambda: invariant_report(ALG), [
        "name", "sdim", "sdim_derived", "sdim_center", "central_series", "nilpotency_class",
        "is_stem", "generator_pair", "lambda", "st", "t"]),
    (ValidationReport, lambda: validate(ALG), ["grading_ok", "skew_ok", "jacobi_ok", "ok", "violations"]),
    (SchurBoundReport, lambda: schur_bound_check(ALG), [
        "name", "sdim_central_quotient", "generator_pair", "lambda", "schur_bound_holds"]),
    (IdStarBoundReport, lambda: idstar_bound_check(ALG), [
        "name", "sdim_id_star", "generator_pair", "lambda", "idstar_bound_holds"]),
    (DerivationReport, lambda: derivation_report(ALG), [
        "name", "sdim_der", "sdim_inner", "sdim_id", "sdim_id_star", "chain_ok", "bound"]),
    (PropositionAuditReport, lambda: proposition_audit(ALG), ["name", "derived_total", "t", "rungs", "ok"]),
    (Table1Report, verify_table1, ["rows", "ok"]),
    (ClassificationReport, verify_classification, ["checks", "ok"]),
]


def test_every_dispatched_type_has_a_case():
    assert [kind for kind, _, _ in VIEWS] == list(_DISPATCH)


@pytest.mark.parametrize("kind, make, keys", VIEWS, ids=[kind.__name__ for kind, _, _ in VIEWS])
def test_json_view(kind, make, keys):
    report = make()
    assert type(report) is kind
    text = emit_report(report)
    data = json.loads(text)
    assert list(data) == keys
    assert data == _DISPATCH[kind](report)
    assert text.endswith("}\n")


@pytest.mark.parametrize("thing", [ALG, object(), {"name": "x"}], ids=["algebra", "object", "dict"])
def test_unknown_types_have_no_view(thing):
    with pytest.raises(TypeError, match="no JSON view"):
        emit_report(thing)
