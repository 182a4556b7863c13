"""Each invariant and derivation space is solved once per algebra object.

An algebra keeps what was solved for it, so a repeat report, a bound check
after another, or the second half of `catalog verify` reads the kept value
instead of solving again.  Every test here works on fresh objects, copies
made by `parse(export(alg))`, so that nothing an earlier test kept on a
shared object is read.
"""

import io
import pickle
import sys
from contextlib import redirect_stdout

import pytest
from hypothesis import given, settings

from superstem import catalog, cli, invariants, linalg
from superstem.catalog import get
from superstem.core import GradingError, SuperDim
from superstem.derivations import (
    derivation_report,
    derivation_space,
    id_star,
    idstar_bound_check,
    inner_derivations,
)
from superstem.fileformat import export, parse
from superstem.invariants import (
    center,
    derived_subalgebra,
    invariant_report,
    is_stem,
    schur_bound_check,
    stem_decomposition,
    upper_central_series,
)

from test_acceptance import corpus
from test_central_extensions import nilpotent_superalgebras
from test_derivations import mis_graded

GUARD_NAMES = ("(3|2)_13", "(2|3)_18", "(4|0)_2", "(2|2)_6")


def fresh(alg):
    return parse(export(alg))


@pytest.fixture
def calls(monkeypatch):
    """calls(module, name) records the positional arguments of every later
    call of module.name, through the module's own binding."""

    def record(module, name):
        seen = []
        original = getattr(module, name)

        def recording(*args, **kwargs):
            seen.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, recording)
        return seen

    return record


@pytest.fixture
def eliminations(monkeypatch):
    """(function name, width) of every `kernel_basis` and `rref` call,
    wherever a superstem module binds them."""
    widths = []
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "superstem"]
    for fn in (linalg.kernel_basis, linalg.rref):
        def counting(m, fn=fn):
            widths.append((fn.__name__, m.cols))
            return fn(m)

        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is fn:
                    monkeypatch.setattr(mod, key, counting)
    return widths


def bounds(alg):
    """What the `bounds` command computes."""
    return schur_bound_check(alg), idstar_bound_check(alg)


@pytest.mark.parametrize("name", GUARD_NAMES)
@pytest.mark.parametrize("run", (derivation_report, id_star, bounds), ids=lambda fn: fn.__name__)
def test_second_pass_runs_no_elimination(eliminations, run, name):
    alg = fresh(get(name).algebra)
    first = run(alg)
    assert eliminations
    eliminations.clear()
    assert run(alg) == first
    assert eliminations == []


@pytest.mark.parametrize("name", GUARD_NAMES)
def test_derivation_report_solves_each_part_once(calls, eliminations, name):
    """One [L,L] span, one Z(L) kernel (the central step from zero) and one
    n^2-wide Der kernel."""
    spans = calls(invariants, "sparse_span")
    steps = calls(invariants, "_central_step")
    alg = fresh(get(name).algebra)
    derivation_report(alg)
    assert len(spans) == 1
    assert [z.basis.dim for _, z in steps].count(0) == 1
    assert eliminations.count(("kernel_basis", alg.n ** 2)) == 1


@pytest.mark.parametrize("name", GUARD_NAMES)
def test_bound_checks_solve_the_invariants_once(calls, name):
    reports = calls(invariants, "InvariantReport")
    spans = calls(invariants, "sparse_span")
    schur, idstar = bounds(fresh(get(name).algebra))
    assert schur.holds and idstar.holds
    assert (len(reports), len(spans)) == (1, 1)


def test_catalog_verify_solves_no_algebra_twice(calls, monkeypatch):
    """Each invariant_report solve takes its algebra's upper central series
    once, so the series' arguments are the algebras solved.  They are kept
    alive in the record, so no two of them share an id()."""
    monkeypatch.setattr(catalog, "_ENTRIES", {
        name: entry._replace(algebra=fresh(entry.algebra)) for name, entry in catalog._ENTRIES.items()})
    solved = calls(invariants, "upper_central_series")
    with redirect_stdout(io.StringIO()):
        assert cli.main(["catalog", "verify"]) == 0
    assert len(solved) == 225
    assert len({id(alg) for alg, in solved}) == len(solved)


MEMOIZED = (derived_subalgebra, center, upper_central_series, invariant_report,
            derivation_space, inner_derivations, id_star)


@pytest.mark.parametrize("fn", MEMOIZED, ids=lambda fn: fn.__name__)
def test_mis_graded_table_raises_on_every_call(fn):
    alg = mis_graded()
    for _ in range(2):
        with pytest.raises(GradingError, match=r"\[x1, x2\] hits y of the wrong parity"):
            fn(alg)


@pytest.mark.parametrize("name", GUARD_NAMES)
def test_equal_copy_solves_afresh(eliminations, name):
    alg = fresh(get(name).algebra)
    rep = derivation_report(alg)
    eliminations.clear()
    copy = fresh(alg)
    assert copy == alg and copy is not alg
    assert derivation_report(copy) == rep
    assert eliminations.count(("kernel_basis", alg.n ** 2)) == 1


def test_algebra_with_kept_values_pickles():
    alg = fresh(get("(3|2)_13").algebra)
    rep = derivation_report(alg)
    copy = pickle.loads(pickle.dumps(alg))
    assert copy == alg and derivation_report(copy) == rep


def check_is_stem(alg):
    """is_stem, asked first of a fresh object, against the report of another
    and against the abelian part of a stem decomposition of a third."""
    stem = is_stem(fresh(alg))
    assert stem == invariant_report(fresh(alg)).is_stem
    assert stem == (stem_decomposition(fresh(alg))[1] == SuperDim(0, 0))


@pytest.mark.parametrize("alg", corpus(), ids=lambda a: a.name)
def test_is_stem_agrees_with_the_report_on_the_corpus(alg):
    check_is_stem(alg)


@settings(max_examples=50, deadline=None)
@given(nilpotent_superalgebras())
def test_is_stem_agrees_with_the_report_on_random_draws(alg):
    check_is_stem(alg)
