"""The JSON view of every report type that emit_report accepts, and of every
part a report nests.

Each view is checked on a real report: the keys come in a fixed order, the
text parses back to the view, and it ends in exactly one newline.  The key
lists are written out here, so a change to the key table in reports.py
shows as a failing test.  No report carries a Fraction, so json.dumps takes
each view as it is.
"""

import json

import pytest

from superstem.build import algebra_from_relations
from superstem.catalog import (
    ClassificationCheck,
    ClassificationReport,
    Table1Report,
    TableRowCheck,
    get,
    verify_classification,
    verify_table1,
)
from superstem.core import LawViolation, SuperDim, ValidationReport, validate
from superstem.derivations import (
    DerivationReport,
    IdStarBoundReport,
    derivation_report,
    idstar_bound_check,
)
from superstem.invariants import (
    InvariantReport,
    LadderRung,
    PropositionAuditReport,
    SchurBoundReport,
    invariant_report,
    proposition_audit,
    schur_bound_check,
)
from superstem.reports import KEYS, PARTS, emit_report, view

ALG = get("(3|2)_13").algebra

# [e1, e2] = e3, [e2, e3] = e1, [e3, e1] = e3: graded and skew, but the
# Jacobi identity fails on (e1, e2, e3)
JACOBI_BREAKING = algebra_from_relations(
    "bad", ("e1", "e2", "e3"), (), [(0, 1, {2: 1}), (1, 2, {0: 1}), (2, 0, {2: 1})])

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

# (report, field holding the part, the part's keys); each field is a list
# of parts but `bound`, which is one
NESTED = [
    pytest.param(lambda: validate(JACOBI_BREAKING), "violations", ["law", "indices", "detail"],
                 id="violations"),
    pytest.param(lambda: proposition_audit(ALG), "rungs",
                 ["derived_at_least", "t_at_least", "applies", "holds"], id="rungs"),
    pytest.param(verify_table1, "rows", ["name", "stored", "computed", "ok"], id="rows"),
    pytest.param(verify_classification, "checks", ["description", "expected_st", "computed_st", "ok"],
                 id="checks"),
    pytest.param(lambda: derivation_report(ALG), "bound",
                 ["name", "sdim_id_star", "generator_pair", "lambda", "idstar_bound_holds"], id="bound"),
]


def json_keys(kind) -> list[str]:
    return [key if isinstance(key, str) else key[0] for key in KEYS[kind]]


def test_every_dispatched_type_has_a_case():
    assert [kind for kind, _, _ in VIEWS] == [kind for kind in KEYS if kind not in PARTS]
    assert PARTS == {LawViolation, LadderRung, TableRowCheck, ClassificationCheck}


@pytest.mark.parametrize("kind, make, keys", VIEWS, ids=[kind.__name__ for kind, _, _ in VIEWS])
def test_json_view(kind, make, keys):
    report = make()
    assert type(report) is kind
    text = emit_report(report)
    data = json.loads(text)
    assert list(data) == keys == json_keys(kind)
    assert data == view(report)
    assert text.endswith("}\n")


@pytest.mark.parametrize("make, field, keys", NESTED)
def test_nested_part_keys(make, field, keys):
    data = json.loads(emit_report(make()))
    parts = data[field] if isinstance(data[field], list) else [data[field]]
    assert parts
    for part in parts:
        assert list(part) == keys


def test_values_become_plain_json():
    assert view(SuperDim(2, 1)) == [2, 1]
    assert view((SuperDim(1, 0), (3, None))) == [[1, 0], [3, None]]
    row = verify_table1().rows[0]
    assert view(row)["stored"] == [list(x) for x in row.stored]
    bad = validate(JACOBI_BREAKING)
    assert view(bad)["violations"] == [{"law": "jacobi", "indices": [0, 1, 2],
                                        "detail": "graded Jacobi fails on (e1, e2, e3)"}]


@pytest.mark.parametrize("thing", [ALG, object(), {"name": "x"}], ids=["algebra", "object", "dict"])
def test_unknown_types_have_no_view(thing):
    with pytest.raises(TypeError, match="no JSON view"):
        emit_report(thing)


@pytest.mark.parametrize("part", [
    LawViolation("jacobi", (0, 1, 2), "x"),
    LadderRung(2, 1, True, True),
    TableRowCheck("x", (), ()),
    ClassificationCheck("x", None, SuperDim(0, 0), True),
], ids=lambda part: type(part).__name__)
def test_nested_parts_are_not_reports(part):
    """A part has a view inside its report but is refused on its own."""
    assert type(part) in KEYS
    with pytest.raises(TypeError, match="no JSON view"):
        emit_report(part)
