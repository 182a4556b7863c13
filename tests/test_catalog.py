import pytest
from hypothesis import given, settings
from hypothesis import strategies as strat

from superstem.catalog import (
    UnknownEntryError,
    entries,
    get,
    names,
    verify_classification,
    verify_table1,
)
from superstem.core import SuperDim, validate
from superstem.invariants import is_stem, st


def test_catalog_size_and_names():
    assert len(names()) == 32
    assert len(set(names())) == 32
    assert [e.name for e in entries()] == list(names())


def test_unknown_entry():
    with pytest.raises(UnknownEntryError):
        get("(9|9)_1")


def test_entry_shape_matches_its_name():
    for entry in entries():
        k, rest = entry.name[1:].split("|")
        l = rest.split(")")[0]
        assert entry.algebra.sdim == SuperDim(int(k), int(l)), entry.name


@settings(max_examples=40, deadline=None)
@given(strat.sampled_from(names()))
def test_every_entry_satisfies_the_law(name):
    assert validate(get(name).algebra).ok


def test_every_entry_is_stem():
    for entry in entries():
        assert is_stem(entry.algebra), entry.name


def test_stored_rows():
    frozen = {
        "(4|0)_2": (SuperDim(3, 0), SuperDim(2, 0), SuperDim(2, 0)),
        "(3|2)_13": (SuperDim(2, 2), SuperDim(1, 1), SuperDim(2, 1)),
        "(2|3)_21": (SuperDim(1, 3), SuperDim(1, 1), SuperDim(1, 2)),
    }
    for name, (quot, pair, derived) in frozen.items():
        entry = get(name)
        assert entry.sdim_central_quotient == quot
        assert entry.generator_pair == pair
        assert entry.sdim_derived == derived


def test_table_verification_is_exact():
    report = verify_table1()
    assert len(report.rows) == 32
    assert report.ok
    for row in report.rows:
        assert row.stored == row.computed, row.name


def test_classification_verification():
    report = verify_classification()
    assert report.ok
    assert len(report.checks) > 100
    described = {c.description for c in report.checks}
    assert "(4|0)_2" in described
    assert "(2|2)_6 + A(2|2)" in described


def test_classified_st_values_by_entry():
    by_value = {}
    for entry in entries():
        by_value.setdefault(str(st(entry.algebra)), set()).add(entry.name)
    assert by_value["(1|0)"] == {"(4|0)_2", "(1|3)_1"}
    assert by_value["(2|0)"] == {"(5|0)_3", "(5|0)_4", "(5|0)_5", "(1|4)_7", "(2|3)_21"}
    assert by_value["(0|2)"] == {"(2|2)_1", "(2|2)_4", "(2|3)_18", "(2|3)_22"}
    assert by_value["(1|1)"] == {"(2|2)_6", "(4|1)_6", "(3|2)_13"}
    # no entry with st = (0|0) or (0|1); the rest sit at t >= 3
    assert "(0|0)" not in by_value
    assert "(0|1)" not in by_value
    others = set(names())
    for key in ("(1|0)", "(2|0)", "(0|2)", "(1|1)"):
        others -= by_value[key]
    for name in others:
        assert st(get(name).algebra).total >= 3, name
