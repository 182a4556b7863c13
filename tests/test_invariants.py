import pytest
from hypothesis import given, settings
from hypothesis import strategies as strat

from superstem.build import abelian, direct_sum, heisenberg_even, heisenberg_odd, tower
from superstem.catalog import get, names
from superstem.core import SuperDim, subspace_contains, subspace_leq
from superstem.invariants import (
    NotNilpotentError,
    center,
    derived_subalgebra,
    generator_pair,
    invariant_report,
    is_nilpotent,
    is_stem,
    lambda_pair,
    nilpotency_class,
    proposition_audit,
    schur_bound_check,
    st,
    stem_decomposition,
    t_scalar,
    upper_central_series,
)
from test_single_pass import central_quotient, non_nilpotent_example


def test_center_of_catalog_entry():
    alg = get("(2|2)_6").algebra
    c = center(alg)
    assert c.sdim == SuperDim(1, 1)
    assert c.basis.matrix.entries == ((1, 0, 0, 0), (0, 0, 1, 0))
    # definition check: the rows really annihilate every basis vector
    for v in (alg.basis_vector(0), alg.basis_vector(2)):
        for i in range(alg.n):
            assert alg.bracket(v, alg.basis_vector(i)) == alg.zero()
    # and a generator is certainly not central
    assert alg.bracket(alg.basis_vector(1), alg.basis_vector(3)) != alg.zero()


def test_center_of_families():
    assert center(heisenberg_even(2, 3)).sdim == SuperDim(1, 0)
    assert center(heisenberg_odd(2)).sdim == SuperDim(0, 1)
    assert center(abelian(2, 3)).sdim == SuperDim(2, 3)
    assert center(tower(4)).sdim == SuperDim(1, 0)


def test_derived_subalgebra_values():
    alg = get("(3|2)_13").algebra
    d = derived_subalgebra(alg)
    assert d.sdim == SuperDim(2, 1)
    assert d.basis.matrix.entries == (
        (0, 1, 0, 0, 0),
        (0, 0, 1, 0, 0),
        (0, 0, 0, 1, 0),
    )


@settings(max_examples=20, deadline=None)
@given(strat.sampled_from(names()))
def test_derived_contains_every_bracket(name):
    alg = get(name).algebra
    d = derived_subalgebra(alg)
    for i in range(alg.n):
        for j in range(alg.n):
            w = alg.bracket(alg.basis_vector(i), alg.basis_vector(j))
            assert subspace_contains(alg, d, w)


def test_upper_central_series_chain():
    series = upper_central_series(get("(4|0)_2").algebra)
    assert [z.sdim for z in series] == [SuperDim(1, 0), SuperDim(2, 0), SuperDim(4, 0)]
    for lower, upper in zip(series, series[1:]):
        assert subspace_leq(lower, upper) and lower.sdim != upper.sdim


def test_upper_central_series_tower():
    series = upper_central_series(tower(2))
    assert [z.sdim for z in series] == [
        SuperDim(1, 0), SuperDim(2, 0), SuperDim(3, 0), SuperDim(5, 0),
    ]
    assert nilpotency_class(tower(2)) == 4


def test_nilpotency_classes():
    assert nilpotency_class(heisenberg_even(2, 1)) == 2
    assert nilpotency_class(heisenberg_odd(3)) == 2
    assert nilpotency_class(abelian(3, 2)) == 1
    assert nilpotency_class(abelian(0, 0)) == 0
    assert nilpotency_class(get("(4|0)_2").algebra) == 3
    assert nilpotency_class(get("(2|3)_21").algebra) == 4


def test_non_nilpotent_detection():
    alg = non_nilpotent_example()
    assert not is_nilpotent(alg)
    assert upper_central_series(alg) == ()
    for fn in (nilpotency_class, generator_pair, st, t_scalar, schur_bound_check):
        with pytest.raises(NotNilpotentError):
            fn(alg)


def test_empty_algebra_is_nilpotent_of_class_zero_and_stem():
    alg = abelian(0, 0)
    none = SuperDim(0, 0)
    rep = invariant_report(alg)
    assert (rep.sdim, rep.sdim_derived, rep.sdim_center, rep.generator_pair, rep.lam, rep.st) == (none,) * 6
    assert rep.central_series == () and rep.nilpotency_class == 0 and rep.is_stem and rep.t == 0
    assert is_nilpotent(alg) and nilpotency_class(alg) == 0 and is_stem(alg)
    assert generator_pair(alg) == none
    t_alg, pad = stem_decomposition(alg)
    assert t_alg.sdim == pad == none
    audit = proposition_audit(alg)
    assert audit.derived_total == 0 and audit.t == 0
    assert all(not r.applies and r.holds for r in audit.rungs)


def test_is_stem():
    assert is_stem(get("(3|2)_13").algebra)
    assert not is_stem(abelian(1, 0))
    assert not is_stem(direct_sum(heisenberg_even(1, 0), abelian(1, 0)))


def test_generator_pairs():
    assert generator_pair(get("(4|0)_2").algebra) == SuperDim(2, 0)
    assert generator_pair(get("(2|3)_21").algebra) == SuperDim(1, 1)
    assert generator_pair(abelian(2, 3)) == SuperDim(2, 3)


def test_lambda_pair_values():
    assert lambda_pair(SuperDim(2, 1), 2, 0) == SuperDim(4, 2)
    assert lambda_pair(SuperDim(1, 2), 1, 1) == SuperDim(3, 3)
    with pytest.raises(ValueError):
        lambda_pair(SuperDim(1, 1), -1, 0)


@given(
    strat.integers(0, 5), strat.integers(0, 5),
    strat.integers(0, 4), strat.integers(0, 4),
)
def test_lambda_pair_structure(k0, k1, p, q):
    k = SuperDim(k0, k1)
    assert lambda_pair(k, 1, 0) == k
    assert lambda_pair(k, 0, 1) == SuperDim(k1, k0)
    direct = lambda_pair(k, p, q)
    split = lambda_pair(k, p, 0) + lambda_pair(k, 0, q)
    assert direct == split


def test_st_spot_values():
    cases = {
        "(4|0)_2": SuperDim(1, 0),
        "(2|3)_21": SuperDim(2, 0),
        "(3|2)_5": SuperDim(0, 4),
        "(5|0)_6": SuperDim(3, 0),
        "(2|2)_6": SuperDim(1, 1),
    }
    for name, expected in cases.items():
        assert st(get(name).algebra) == expected, name


def test_st_vanishes_exactly_on_heisenberg_and_abelian():
    for alg in (abelian(2, 2), heisenberg_even(2, 1), heisenberg_odd(2)):
        assert st(alg) == SuperDim(0, 0)
        assert t_scalar(alg) == 0


def test_schur_bound_on_tower():
    rep = schur_bound_check(tower(4))
    assert rep.sdim_central_quotient == SuperDim(6, 0)
    assert rep.generator_pair == SuperDim(2, 0)
    assert rep.lam == SuperDim(10, 0)
    assert rep.holds


@settings(max_examples=40, deadline=None)
@given(strat.sampled_from(names()))
def test_schur_bound_holds_on_catalog(name):
    assert schur_bound_check(get(name).algebra).holds


def test_proposition_audit_rungs():
    vacuous = proposition_audit(abelian(2, 1))
    assert vacuous.derived_total == 0 and vacuous.t == 0
    assert all(not r.applies and r.holds for r in vacuous.rungs)

    low = proposition_audit(get("(4|0)_2").algebra)
    assert low.derived_total == 2 and low.t == 1
    assert [r.applies for r in low.rungs] == [True, False, False]
    assert low.ok

    mid = proposition_audit(get("(5|0)_6").algebra)
    assert mid.derived_total == 3 and mid.t == 3
    assert [r.applies for r in mid.rungs] == [True, True, False]
    assert mid.ok

    high = proposition_audit(tower(3))
    assert high.derived_total == 4 and high.t == 3
    assert all(r.applies and r.holds for r in high.rungs)


def test_stem_decomposition_of_abelian():
    t_alg, pad = stem_decomposition(abelian(2, 1))
    assert t_alg.sdim == SuperDim(0, 0)
    assert pad == SuperDim(2, 1)


def test_stem_decomposition_of_stem_algebra_is_trivial():
    alg = get("(2|2)_6").algebra
    t_alg, pad = stem_decomposition(alg)
    assert pad == SuperDim(0, 0)
    assert t_alg.sdim == alg.sdim
    assert st(t_alg) == st(alg)


def test_stem_decomposition_strips_padding():
    alg = get("(3|2)_13").algebra
    padded = direct_sum(alg, abelian(1, 2))
    t_alg, pad = stem_decomposition(padded)
    assert pad == SuperDim(1, 2)
    assert t_alg.sdim == alg.sdim
    assert is_stem(t_alg)
    assert st(t_alg) == st(alg)


@settings(max_examples=25, deadline=None)
@given(strat.sampled_from(names()), strat.integers(0, 2), strat.integers(0, 2))
def test_st_is_stable_under_abelian_padding(name, a, b):
    alg = get(name).algebra
    assert st(direct_sum(alg, abelian(a, b))) == st(alg)


def test_invariant_report_fields():
    rep = invariant_report(get("(4|0)_2").algebra)
    assert rep.name == "(4|0)_2"
    assert rep.sdim == SuperDim(4, 0)
    assert rep.sdim_derived == SuperDim(2, 0)
    assert rep.sdim_center == SuperDim(1, 0)
    assert rep.central_series == (SuperDim(1, 0), SuperDim(2, 0), SuperDim(4, 0))
    assert rep.nilpotency_class == 3
    assert rep.is_stem
    assert rep.generator_pair == SuperDim(2, 0)
    assert rep.lam == SuperDim(4, 0)
    assert rep.st == SuperDim(1, 0)
    assert rep.t == 1


def test_invariant_report_non_nilpotent():
    rep = invariant_report(non_nilpotent_example())
    assert rep.nilpotency_class is None
    assert rep.generator_pair is None and rep.lam is None
    assert rep.st is None and rep.t is None
    assert rep.central_series == ()


def test_central_quotient_of_heisenberg_is_abelian():
    q = central_quotient(heisenberg_even(2, 2))
    assert q.sdim == SuperDim(4, 2)
    assert derived_subalgebra(q).sdim == SuperDim(0, 0)
