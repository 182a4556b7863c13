"""End-to-end acceptance gate.

Each test exercises one released guarantee over the full corpus it applies
to, appends a PASS/FAIL line to the run summary, and enforces the stated
runtime budget where one exists.  Corpus: every catalog entry, Heisenberg
families through the stated sizes, towers, and pairwise direct sums of five
sampled entries.
"""

import time
from contextlib import contextmanager

import pytest

from superstem.build import abelian, direct_sum, heisenberg_even, heisenberg_odd, tower
from superstem.catalog import classify_by_st, entries, get, verify_table1
from superstem.cli import main
from superstem.core import SuperDim, subspace_intersect, validate
from superstem.derivations import der_bracket, derivation_report, derivation_space
from superstem.fileformat import (
    BadRationalError,
    ConflictingRelationError,
    UnknownBasisNameError,
    export,
    parse,
)
from superstem.invariants import (
    center,
    derived_subalgebra,
    invariant_report,
    is_stem,
    proposition_audit,
    schur_bound_check,
    st,
    stem_decomposition,
)

SAMPLE = ("(4|0)_2", "(2|2)_6", "(1|3)_1", "(3|2)_13", "(2|3)_18")

_corpus_cache: list | None = None


def corpus():
    """The criterion-2 algebra list, built once and reused downstream."""
    global _corpus_cache
    if _corpus_cache is None:
        algs = [e.algebra for e in entries()]
        algs += [
            heisenberg_even(m, s - m) for s in range(1, 7) for m in range(s + 1)
        ]
        algs += [heisenberg_odd(m) for m in range(1, 5)]
        algs += [tower(t) for t in range(1, 7)]
        algs += [
            direct_sum(get(a).algebra, get(b).algebra)
            for a in SAMPLE
            for b in SAMPLE
        ]
        _corpus_cache = algs
    return _corpus_cache


@contextmanager
def criterion(record, num: int, label: str):
    try:
        yield
    except BaseException:
        record(f"acceptance {num:02d} {label}: FAIL")
        raise
    record(f"acceptance {num:02d} {label}: PASS")


def test_01_table_reproduction(acceptance_recorder):
    with criterion(acceptance_recorder, 1, "catalog table exact"):
        start = time.perf_counter()
        report = verify_table1()
        elapsed = time.perf_counter() - start
        assert len(report.rows) == 32
        for row in report.rows:
            assert row.stored == row.computed, row.name
        assert report.ok
        assert elapsed < 1.0, f"took {elapsed:.3f}s"


def test_02_law_validation(acceptance_recorder):
    with criterion(acceptance_recorder, 2, "bracket laws on corpus"):
        start = time.perf_counter()
        algs = corpus()
        assert len(algs) == 94
        for alg in algs:
            report = validate(alg)
            assert report.ok, (alg.name, report.violations[:1])
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"took {elapsed:.3f}s"


def test_03_central_quotient_bound(acceptance_recorder):
    with criterion(acceptance_recorder, 3, "central quotient bound"):
        violations = [
            rep.name
            for rep in map(schur_bound_check, corpus())
            if not rep.holds
        ]
        assert violations == []


def test_04_idstar_bound_and_chain(acceptance_recorder):
    with criterion(acceptance_recorder, 4, "ID* bound and chain"):
        start = time.perf_counter()
        algs = [e.algebra for e in entries()]
        algs += [
            heisenberg_even(m, s - m) for s in range(1, 5) for m in range(s + 1)
        ]
        algs += [heisenberg_odd(m) for m in range(1, 5)]
        algs += [tower(t) for t in range(1, 6)]
        for alg in algs:
            rep = derivation_report(alg)
            assert rep.chain_ok, alg.name
            assert rep.bound is not None and rep.bound.holds, alg.name
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"took {elapsed:.3f}s"


def test_05_classification_queries(acceptance_recorder):
    with criterion(acceptance_recorder, 5, "classification queries"):
        sdims = [
            SuperDim(k, l)
            for k in range(8)
            for l in range(8)
            if k + l <= 7
        ]
        for sdim in sdims:
            assert classify_by_st(SuperDim(0, 1), sdim) == ()

        for value in (SuperDim(0, 0), SuperDim(1, 0), SuperDim(2, 0),
                      SuperDim(0, 2), SuperDim(1, 1)):
            for sdim in sdims:
                for inst in classify_by_st(value, sdim):
                    assert inst.algebra.sdim == sdim, inst.description
                    assert st(inst.algebra) == value, inst.description

        exact = classify_by_st(SuperDim(1, 1), SuperDim(3, 3))
        assert [inst.description for inst in exact] == [
            "(2|2)_6 + A(1|1)",
            "(3|2)_13 + A(0|1)",
        ]


def test_06_proposition_ladder(acceptance_recorder):
    with criterion(acceptance_recorder, 6, "derived-size ladder"):
        for alg in corpus():
            audit = proposition_audit(alg)
            assert audit.ok, (alg.name, audit)


def test_07_tower_family(acceptance_recorder):
    with criterion(acceptance_recorder, 7, "tower family st values"):
        for t in range(1, 7):
            assert st(tower(t)) == SuperDim(t, 0), t
        base = invariant_report(tower(1))
        reference = invariant_report(get("(4|0)_2").algebra)
        assert base._replace(name="") == reference._replace(name="")


def test_08_stem_decomposition_roundtrip(acceptance_recorder):
    with criterion(acceptance_recorder, 8, "stem decomposition round-trip"):
        for entry in entries():
            for a in range(3):
                for b in range(3):
                    padded = (
                        direct_sum(entry.algebra, abelian(a, b))
                        if a or b
                        else entry.algebra
                    )
                    t_alg, pad = stem_decomposition(padded)
                    assert pad == SuperDim(a, b), (entry.name, a, b)
                    core = subspace_intersect(
                        derived_subalgebra(padded), center(padded))
                    assert center(t_alg).sdim == core.sdim, (entry.name, a, b)
                    assert is_stem(t_alg), (entry.name, a, b)
                    assert st(padded) == st(entry.algebra), (entry.name, a, b)


def test_09_derivation_oracle(acceptance_recorder):
    with criterion(acceptance_recorder, 9, "derivation law oracle"):
        for alg in corpus():
            space = derivation_space(alg)
            maps = space.maps(0) + space.maps(1)
            for m in maps:
                for i in range(alg.n):
                    sign = -1 if (m.parity * alg.parity(i)) % 2 else 1
                    for j in range(alg.n):
                        lhs = m.apply(alg.bracket(alg.basis_vector(i), alg.basis_vector(j)))
                        ra = alg.bracket(m.apply(alg.basis_vector(i)), alg.basis_vector(j))
                        rb = alg.bracket(alg.basis_vector(i), m.apply(alg.basis_vector(j)))
                        assert lhs == tuple(x + sign * y for x, y in zip(ra, rb)), (alg.name, i, j)
            for d in maps:
                for e in maps:
                    assert space.contains(der_bracket(d, e)), alg.name


def test_10_io_roundtrip_and_errors(acceptance_recorder, tmp_path):
    with criterion(acceptance_recorder, 10, "file IO round-trip"):
        for entry in entries():
            again = parse(export(entry.algebra))
            assert again.tensor == entry.algebra.tensor, entry.name

        malformed = {
            "unknown.alg": (
                'algebra "x"\neven: e1\nodd:\n[e1, e9] = e1\n',
                UnknownBasisNameError,
            ),
            "conflict.alg": (
                'algebra "x"\neven: e1 e2 e3\nodd:\n[e1, e2] = e3\n[e2, e1] = e3\n',
                ConflictingRelationError,
            ),
            "rational.alg": (
                'algebra "x"\neven: e1 e2\nodd:\n[e1, e2] = 1/0 e1\n',
                BadRationalError,
            ),
        }
        for fname, (text, expected) in malformed.items():
            with pytest.raises(expected):
                parse(text)
            path = tmp_path / fname
            path.write_text(text, encoding="utf-8")
            assert main(["validate", str(path)]) != 0, fname
