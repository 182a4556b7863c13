import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as strat

from superstem.build import abelian, algebra_from_relations, heisenberg_even, heisenberg_odd, tower
from superstem.catalog import entries, get, names
from superstem.core import (
    GradingError,
    SuperDim,
    check_grading,
    grading_violations,
    subspace_contains,
    validate,
    vector_parity,
)
from superstem.derivations import (
    GradedLinearMap,
    der_bracket,
    derivation_report,
    derivation_space,
    id_star,
    idstar_bound_check,
    inner_derivations,
)
from superstem.invariants import (
    center,
    derived_subalgebra,
    generator_pair,
    invariant_report,
    is_nilpotent,
    is_stem,
    nilpotency_class,
    proposition_audit,
    schur_bound_check,
    st,
    stem_decomposition,
    t_scalar,
    upper_central_series,
)
from superstem.linalg import frac, matrix

from test_sparse_maps import flatten_map, map_of


def assert_is_derivation(alg, m: GradedLinearMap) -> None:
    """Re-verify the defining law on every ordered basis pair."""
    for i in range(alg.n):
        sign = frac(-1 if (m.parity * alg.parity(i)) % 2 else 1)
        for j in range(alg.n):
            lhs = m.apply(alg.bracket(alg.basis_vector(i), alg.basis_vector(j)))
            rhs_a = alg.bracket(m.apply(alg.basis_vector(i)), alg.basis_vector(j))
            rhs_b = alg.bracket(alg.basis_vector(i), m.apply(alg.basis_vector(j)))
            rhs = tuple(a + sign * b for a, b in zip(rhs_a, rhs_b))
            assert lhs == rhs, (i, j)


@settings(max_examples=12, deadline=None)
@given(strat.sampled_from(["(4|0)_2", "(2|2)_6", "(1|3)_1", "(2|3)_21", "(2|2)_1"]))
def test_solved_derivations_satisfy_the_law(name):
    alg = get(name).algebra
    space = derivation_space(alg)
    for parity in (0, 1):
        for m in space.maps(parity):
            assert_is_derivation(alg, m)


def test_abelian_derivation_dimensions():
    for k, l in ((0, 0), (1, 0), (2, 1), (1, 3)):
        rep = derivation_report(abelian(k, l))
        assert rep.sdim_der == SuperDim(k * k + l * l, 2 * k * l)
        assert rep.sdim_inner == SuperDim(0, 0)
        assert rep.sdim_id == SuperDim(0, 0)
        assert rep.sdim_id_star == SuperDim(0, 0)
        assert rep.chain_ok


def test_derivation_spaces_of_two_algebras_do_not_compare():
    # H(1,0) and H_1 both have n = 3; their even widths are 3 and 1
    a, b = derivation_space(heisenberg_even(1, 0)), derivation_space(heisenberg_odd(1))
    with pytest.raises(ValueError, match="different algebras"):
        a.leq(b)


def test_even_heisenberg_derivation_dimensions():
    rep = derivation_report(heisenberg_even(1, 0))
    assert rep.sdim_der == SuperDim(6, 0)
    assert rep.sdim_inner == SuperDim(2, 0)
    assert rep.sdim_id == SuperDim(2, 0)
    assert rep.sdim_id_star == SuperDim(2, 0)
    assert rep.bound is not None and rep.bound.lam == SuperDim(2, 0)
    assert rep.bound.holds and rep.sdim_id_star == rep.bound.lam

    # dim Der(H(m,0)) follows the classical count m(2m+1) + 2m + 1
    rep2 = derivation_report(heisenberg_even(2, 0))
    assert rep2.sdim_der == SuperDim(15, 0)
    assert rep2.sdim_inner == SuperDim(4, 0)


def test_purely_odd_heisenberg_derivation_dimensions():
    rep = derivation_report(heisenberg_even(0, 1))
    assert rep.sdim_der == SuperDim(1, 1)
    assert rep.sdim_inner == SuperDim(0, 1)
    assert rep.sdim_id == SuperDim(0, 1)
    assert rep.sdim_id_star == SuperDim(0, 1)
    assert rep.chain_ok


def test_odd_centre_heisenberg_derivation_dimensions():
    rep1 = derivation_report(heisenberg_odd(1))
    assert rep1.sdim_der == SuperDim(3, 2)
    assert rep1.sdim_inner == SuperDim(1, 1)
    assert rep1.sdim_id_star == SuperDim(1, 1)
    assert rep1.bound is not None and rep1.bound.lam == SuperDim(1, 1)

    rep2 = derivation_report(heisenberg_odd(2))
    assert rep2.sdim_der == SuperDim(7, 6)
    assert rep2.sdim_inner == SuperDim(2, 2)
    assert rep2.sdim_id_star == SuperDim(2, 2)


def test_catalog_derivation_dimensions():
    frozen = {
        "(2|2)_6": (SuperDim(4, 4), SuperDim(1, 1), SuperDim(2, 2), SuperDim(2, 2)),
        "(1|3)_1": (SuperDim(4, 3), SuperDim(1, 2), SuperDim(2, 2), SuperDim(2, 2)),
        "(3|2)_13": (SuperDim(5, 4), SuperDim(2, 2), SuperDim(3, 3), SuperDim(3, 3)),
        "(2|3)_21": (SuperDim(4, 3), SuperDim(1, 3), SuperDim(2, 3), SuperDim(2, 3)),
    }
    for name, (d, a, i, s) in frozen.items():
        rep = derivation_report(get(name).algebra)
        assert (rep.sdim_der, rep.sdim_inner, rep.sdim_id, rep.sdim_id_star) == (d, a, i, s), name
        assert rep.chain_ok


def test_tower_derivation_dimensions():
    rep = derivation_report(tower(1))
    assert rep.sdim_der == SuperDim(7, 0)
    assert rep.sdim_inner == SuperDim(3, 0)
    assert rep.sdim_id == SuperDim(4, 0)
    assert rep.sdim_id_star == SuperDim(4, 0)


@settings(max_examples=40, deadline=None)
@given(strat.sampled_from(names()))
def test_inner_dimension_is_codimension_of_centre(name):
    alg = get(name).algebra
    assert inner_derivations(alg).sdim == alg.sdim - center(alg).sdim


def test_image_and_kernel_side_conditions_reverified():
    alg = get("(3|2)_13").algebra
    derived = derived_subalgebra(alg)
    cent = center(alg)
    id_space, idstar_space = id_star(alg)
    for parity in (0, 1):
        for m in id_space.maps(parity):
            assert_is_derivation(alg, m)
            for j in range(alg.n):
                assert subspace_contains(alg, derived, m.apply(alg.basis_vector(j)))
        for m in idstar_space.maps(parity):
            for z in cent.basis.matrix.entries:
                assert m.apply(z) == alg.zero()


def test_inner_derivations_are_adjoint_maps():
    alg = get("(2|2)_6").algebra
    inner = inner_derivations(alg)
    for i in range(alg.n):
        cols = tuple(
            tuple(alg.bracket(alg.basis_vector(i), alg.basis_vector(j))[k] for j in range(alg.n))
            for k in range(alg.n)
        )
        ad_i = map_of(alg.parity(i), matrix(cols, cols=alg.n))
        assert inner.contains(ad_i)
        assert_is_derivation(alg, ad_i)


def test_der_bracket_grading_skew_and_closure():
    alg = get("(2|2)_6").algebra
    space = derivation_space(alg)
    maps = space.maps(0) + space.maps(1)
    for d in maps:
        for e in maps:
            br = der_bracket(d, e)
            assert br.parity == (d.parity + e.parity) % 2
            rev = der_bracket(e, d)
            sign = -1 if (d.parity * e.parity) % 2 else 1
            assert flatten_map(br) == tuple(-sign * x for x in flatten_map(rev))
            assert space.contains(br)


def test_idstar_bound_tight_and_slack_cases():
    tight = idstar_bound_check(heisenberg_even(1, 0))
    assert tight.holds and tight.sdim_id_star == tight.lam == SuperDim(2, 0)

    slack = idstar_bound_check(get("(2|3)_21").algebra)
    assert slack.holds
    assert slack.sdim_id_star == SuperDim(2, 3)
    assert slack.lam == SuperDim(3, 3)
    assert slack.sdim_id_star != slack.lam


def test_graded_linear_map_apply():
    m = map_of(0, matrix(((frac(1), frac(2)), (frac(0), frac(3))), cols=2))
    assert m.apply((frac(1), frac(1))) == (frac(3), frac(3))


def test_derivation_parity_respects_grading():
    alg = get("(2|3)_18").algebra
    space = derivation_space(alg)
    for parity in (0, 1):
        for m in space.maps(parity):
            for j in range(alg.n):
                image = m.apply(alg.basis_vector(j))
                if any(image):
                    assert vector_parity(alg, image) == (alg.parity(j) + parity) % 2


@settings(max_examples=25, deadline=None)
@given(strat.sampled_from(names()))
def test_derivation_chain_on_catalog(name):
    rep = derivation_report(get(name).algebra)
    assert rep.chain_ok
    assert rep.bound is not None and rep.bound.holds


def mis_graded():
    """A table whose one bracket [x1, x2] = y sends two even vectors to an
    odd one; skew symmetry and Jacobi hold."""
    return algebra_from_relations("mixed", ("x1", "x2"), ("y",), [(0, 1, {2: 1})])


MIS_GRADED_READERS = (derivation_space, inner_derivations, id_star, derivation_report,
                      idstar_bound_check, invariant_report, st, t_scalar, schur_bound_check,
                      proposition_audit, derived_subalgebra, center, upper_central_series,
                      is_nilpotent, nilpotency_class, is_stem, generator_pair, stem_decomposition)


@pytest.mark.parametrize("fn", MIS_GRADED_READERS, ids=lambda fn: fn.__name__)
def test_mis_graded_table_raises_grading_error(fn):
    """The solvers trust the parities of the basis, so a table that is not
    graded is refused before any solve, naming its first bad bracket."""
    with pytest.raises(GradingError, match=r"\[x1, x2\] hits y of the wrong parity"):
        fn(mis_graded())


def test_center_of_a_mis_graded_table_raises():
    """[y, z] = w sends an odd and an even vector to an even one.  Unchecked,
    the centre came out as the row x - y, which mixes the two parities, with
    sdim (2|0)."""
    alg = algebra_from_relations("mixed2", ("x", "z", "w"), ("y",), [(0, 1, {2: 1}), (3, 1, {2: 1})])
    with pytest.raises(GradingError, match=r"\[z, y\] hits w of the wrong parity"):
        center(alg)


def test_grading_check_and_validate_share_one_law():
    alg = mis_graded()
    assert issubclass(GradingError, ValueError)
    assert [v.indices for v in grading_violations(alg)] == [(0, 1, 2), (1, 0, 2)]
    assert validate(alg).violations == (next(grading_violations(alg)),)
    for entry in entries():
        assert next(grading_violations(entry.algebra), None) is None
        check_grading(entry.algebra)


@pytest.mark.parametrize("build, args, sdim_der", [
    pytest.param(tower, (120,), SuperDim(245, 0), id="tower(120)"),
    pytest.param(heisenberg_even, (60, 0), SuperDim(7381, 0), id="H(60,0)"),
    pytest.param(heisenberg_odd, (60,), SuperDim(3661, 3660), id="H_60"),
])
def test_derivation_report_scales_past_n_120(build, args, sdim_der):
    """Der at n = 121 and 123 is one kernel of about n^2 columns whose
    elimination costs what its fill costs: each report takes a fraction of
    a second (tower(120) took 5-10 s when each new pivot was cleared by a
    scan of every kept row)."""
    alg = build(*args)
    start = time.perf_counter()
    rep = derivation_report(alg)
    elapsed = time.perf_counter() - start
    assert rep.sdim_der == sdim_der and rep.chain_ok
    assert elapsed < 2.0, f"{alg.name}: derivation_report took {elapsed:.2f} s"
