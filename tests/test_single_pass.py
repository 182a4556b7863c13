"""The one-pass invariants against the quotient-algebra method they replace.

The upper central series is computed as one kernel per step on L itself,
and the generator pair of L/Z(L) as sdim L - sdim([L,L] + Z(L)).  The
differential tests rebuild both the old way, through `quotient` and
`QuotientMap.lift`; the guard tests check that the report paths build no
quotient algebra and solve each derivation system once.
"""

import sys

import pytest

import superstem.derivations
from superstem.build import (
    abelian,
    algebra_from_relations,
    direct_sum,
    heisenberg_even,
    heisenberg_odd,
    quotient,
    tower,
)
from superstem.catalog import entries, get, verify_classification, verify_table1
from superstem.core import full_rows, graded_span, subspace_sum, zero_subspace
from superstem.derivations import derivation_report, idstar_bound_check
from superstem.invariants import (
    NotNilpotentError,
    center,
    central_quotient,
    generator_pair,
    invariant_report,
    schur_bound_check,
    st,
    upper_central_series,
)
from superstem.linalg import frac

SAMPLE = ("(4|0)_2", "(2|2)_6", "(1|3)_1", "(3|2)_13", "(2|3)_18")


def non_nilpotent_example():
    return algebra_from_relations("solvable", ("e1", "e2"), (), [(0, 1, {1: frac(1)})])


def differential_corpus():
    """The acceptance corpus, two scaling points and one non-nilpotent algebra."""
    algs = [e.algebra for e in entries()]
    algs += [heisenberg_even(m, s - m) for s in range(1, 7) for m in range(s + 1)]
    algs += [heisenberg_odd(m) for m in range(1, 5)]
    algs += [tower(t) for t in range(1, 7)]
    algs += [direct_sum(get(a).algebra, get(b).algebra) for a in SAMPLE for b in SAMPLE]
    algs += [heisenberg_even(10, 0), tower(20), non_nilpotent_example()]
    return algs


def quotient_series(alg):
    """Each step pulls the centre of L / Z_i back along the quotient map."""
    chain = []
    z_prev = zero_subspace(alg)
    while True:
        q, qmap = quotient(alg, z_prev)
        lifted = [qmap.lift(row) for row in full_rows(q, center(q))]
        z_next = subspace_sum(z_prev, graded_span(alg, lifted))
        if z_next.sdim == z_prev.sdim:
            break
        chain.append(z_next)
        z_prev = z_next
        if z_next.sdim == alg.sdim:
            break
    return tuple(chain)


@pytest.mark.parametrize("alg", differential_corpus(), ids=lambda a: a.name)
def test_kernel_series_matches_quotient_series(alg):
    assert upper_central_series(alg) == quotient_series(alg)


@pytest.mark.parametrize("alg", differential_corpus(), ids=lambda a: a.name)
def test_report_matches_central_quotient(alg):
    rep = invariant_report(alg)
    q_alg = central_quotient(alg)
    assert rep.sdim - rep.sdim_center == q_alg.sdim
    if rep.st is None:
        with pytest.raises(NotNilpotentError):
            generator_pair(q_alg)
    else:
        assert rep.generator_pair == generator_pair(q_alg)
        assert schur_bound_check(alg).sdim_central_quotient == q_alg.sdim


@pytest.fixture
def no_quotients(monkeypatch):
    """Make `quotient` raise under every name a superstem module binds it to."""

    def refuse(*args, **kwargs):
        raise AssertionError("quotient algebra built on a report path")

    bound = [
        (mod, attr)
        for name, mod in list(sys.modules.items())
        if name == "superstem" or name.startswith("superstem.")
        for attr, value in vars(mod).items()
        if value is quotient
    ]
    assert bound
    for mod, attr in bound:
        monkeypatch.setattr(mod, attr, refuse)


GUARD_ALGEBRAS = ("(3|2)_13", "(2|3)_18", "(4|0)_2")


@pytest.mark.parametrize("name", GUARD_ALGEBRAS)
def test_report_paths_build_no_quotient(no_quotients, name):
    alg = get(name).algebra
    rep = invariant_report(alg)
    assert st(alg) == rep.st
    assert schur_bound_check(alg).holds
    assert idstar_bound_check(alg).holds
    assert derivation_report(alg).bound == idstar_bound_check(alg)


def test_non_nilpotent_paths_build_no_quotient(no_quotients):
    alg = non_nilpotent_example()
    assert invariant_report(alg).st is None
    assert derivation_report(alg).bound is None
    for fn in (st, schur_bound_check, idstar_bound_check):
        with pytest.raises(NotNilpotentError, match="solvable is not nilpotent"):
            fn(alg)


def test_catalog_verification_builds_no_quotient(no_quotients):
    assert verify_table1().ok
    assert verify_classification().ok


@pytest.mark.parametrize("alg", [get("(3|2)_13").algebra, heisenberg_even(2, 1),
                                 tower(3), abelian(1, 2)], ids=lambda a: a.name)
def test_derivation_report_solves_six_systems(monkeypatch, alg):
    calls = []
    solve = superstem.derivations._solve

    def counting(*args, **kwargs):
        calls.append(args[1])
        return solve(*args, **kwargs)

    monkeypatch.setattr(superstem.derivations, "_solve", counting)
    derivation_report(alg)
    assert sorted(calls) == [0, 0, 0, 1, 1, 1]
