import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as strat

from superstem.build import (
    StructureConflictError,
    abelian,
    algebra_from_relations,
    direct_sum,
    heisenberg_even,
    heisenberg_odd,
    tower,
)
from superstem.catalog import classify_by_st, get, names
from superstem.core import SuperDim, graded_span, subspace_contains, validate, zero_subspace
from superstem.invariants import center, derived_subalgebra
from superstem.linalg import frac, matrix
from test_single_pass import central_quotient, quotient


def test_abelian_shape():
    alg = abelian(2, 3)
    assert alg.sdim == SuperDim(2, 3)
    assert all(c == 0 for plane in alg.tensor for row in plane for c in row)
    assert validate(alg).ok


def test_heisenberg_even_shape_and_relations():
    alg = heisenberg_even(2, 2)
    assert alg.sdim == SuperDim(5, 2)
    assert alg.even_names == ("x1", "x2", "x3", "x4", "z")
    z = alg.basis_vector(4)
    assert alg.bracket(alg.basis_vector(0), alg.basis_vector(2)) == z
    assert alg.bracket(alg.basis_vector(5), alg.basis_vector(5)) == z
    assert validate(alg).ok


def test_heisenberg_even_center_is_the_z_line():
    alg = heisenberg_even(2, 2)
    c = center(alg)
    assert c.sdim == SuperDim(1, 0)
    # oracle: a center row really brackets to zero with every basis vector
    (v,) = c.basis.matrix.entries
    for i in range(alg.n):
        assert alg.bracket(v, alg.basis_vector(i)) == alg.zero()
    assert v == alg.basis_vector(4)


def test_heisenberg_odd_shape():
    alg = heisenberg_odd(3)
    assert alg.sdim == SuperDim(3, 4)
    z = alg.basis_vector(6)
    assert alg.bracket(alg.basis_vector(0), alg.basis_vector(3)) == z
    assert center(alg).sdim == SuperDim(0, 1)
    assert validate(alg).ok


def test_tower_shape():
    alg = tower(3)
    assert alg.sdim == SuperDim(6, 0)
    assert derived_subalgebra(alg).sdim == SuperDim(4, 0)
    assert validate(alg).ok


def test_constructor_argument_checks():
    with pytest.raises(ValueError):
        heisenberg_even(0, 0)
    with pytest.raises(ValueError):
        heisenberg_odd(0)
    with pytest.raises(ValueError):
        tower(0)
    with pytest.raises(ValueError):
        abelian(-1, 0)


@pytest.mark.parametrize("build", [
    lambda: abelian(10**5, 0),
    lambda: heisenberg_even(10**5, 0),
    lambda: heisenberg_odd(10**5),
    lambda: tower(10**5),
    lambda: classify_by_st(SuperDim(1, 0), SuperDim(10**5, 0)),
], ids=["abelian", "heisenberg_even", "heisenberg_odd", "tower", "classify"])
def test_oversized_families_are_refused_before_they_are_built(build):
    """A family above MAX_BASIS raises before its names and relations are
    allocated: building 10^5 of them would peak at tens of MB."""
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="more than the 128"):
            build()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_even_self_bracket_rejected():
    with pytest.raises(StructureConflictError):
        algebra_from_relations("bad", ("e1", "e2"), (), [(0, 0, {1: frac(1)})])


def test_odd_self_bracket_allowed():
    alg = algebra_from_relations("ok", ("e1",), ("f1",), [(1, 1, {0: frac(1)})])
    assert alg.bracket(alg.basis_vector(1), alg.basis_vector(1)) == alg.basis_vector(0)


def test_mirror_fill_and_conflicts():
    # declaring both orientations consistently is fine
    alg = algebra_from_relations(
        "ok", ("e1", "e2", "e3"), (),
        [(0, 1, {2: frac(1)}), (1, 0, {2: frac(-1)})],
    )
    assert alg.bracket(alg.basis_vector(1), alg.basis_vector(0)) == tuple(
        -x for x in alg.basis_vector(2)
    )
    with pytest.raises(StructureConflictError):
        algebra_from_relations(
            "bad", ("e1", "e2", "e3"), (),
            [(0, 1, {2: frac(1)}), (1, 0, {2: frac(1)})],
        )


@pytest.mark.parametrize("relations, where", [
    ([(0, 1, {2: 1}), (1, 0, {2: 1})], (1, 0)),
    ([(0, 1, {2: 1}), (1, 2, {}), (1, 1, {2: 1})], (2, None)),
    ([(0, 1, {2: 1}), (0, 2, {3: 1})], (1, None)),
])
def test_conflict_names_the_relations(relations, where):
    # a mirror conflict, an even self-bracket, a target index out of range
    with pytest.raises(StructureConflictError) as info:
        algebra_from_relations("bad", ("e1", "e2", "e3"), (), relations)
    assert (info.value.relation, info.value.earlier) == where


def test_direct_sum_blocks_and_names():
    a = get("(2|2)_6").algebra
    b = abelian(1, 2)
    s = direct_sum(a, b)
    assert s.sdim == a.sdim + b.sdim
    assert s.even_names == ("e1", "e2", "a1")
    assert s.odd_names == ("f1", "f2", "b1", "b2")
    # the two summands do not talk to each other
    assert s.bracket(s.basis_vector(0), s.basis_vector(2)) == s.zero()
    assert validate(s).ok


def test_direct_sum_renames_clashes():
    a = get("(4|0)_2").algebra
    s = direct_sum(a, a)
    assert len(set(s.basis_names)) == s.n
    assert s.even_names[4:] == ("e1_2", "e2_2", "e3_2", "e4_2")


def test_direct_sum_center_and_derived_are_componentwise():
    a = get("(3|2)_13").algebra
    b = heisenberg_even(1, 1)
    s = direct_sum(a, b)
    assert center(s).sdim == center(a).sdim + center(b).sdim
    assert derived_subalgebra(s).sdim == derived_subalgebra(a).sdim + derived_subalgebra(b).sdim


@pytest.mark.parametrize("k", (2, 5, -1))
def test_target_index_out_of_range_is_rejected(k):
    with pytest.raises(StructureConflictError):
        algebra_from_relations("x", ("e1", "e2"), (), [(0, 1, {k: 1})])


def test_floats_are_refused_at_every_entry_point():
    """A float is a binary fraction (0.1 is 3602879701896397/2**55), so no
    entry point turns one into a rational; 0.5 is refused like any other."""
    alg = get("(4|0)_2").algebra
    ideal = graded_span(alg, [alg.basis_vector(3)])
    with pytest.raises(TypeError):
        frac(0.1)
    with pytest.raises(TypeError):
        algebra_from_relations("x", ("e1", "e2", "e3"), (), [(0, 1, {2: 0.5})])
    with pytest.raises(TypeError):
        matrix([[1, 0.5]])
    with pytest.raises(TypeError):
        graded_span(alg, [(0, 0, 0, 0.5)])
    with pytest.raises(TypeError):
        subspace_contains(alg, ideal, (0, 0, 0, 0.5))


# The quotient below is the dense one in test_single_pass, the one quotient
# algebra in the project; no library path builds one.
def test_quotient_of_top_grade_is_heisenberg():
    alg = get("(4|0)_2").algebra
    q, lift = quotient(alg, graded_span(alg, [alg.basis_vector(3)]))
    assert q.tensor == heisenberg_even(1, 0).tensor
    assert q.even_names == ("e1", "e2", "e3")
    # the lift puts the coordinates back on e1, e2, e3
    assert lift((frac(1), frac(2), frac(3))) == (frac(1), frac(2), frac(3), frac(0))


def test_quotient_by_zero_is_identity_on_tensors():
    alg = get("(2|3)_18").algebra
    q, _ = quotient(alg, zero_subspace(alg))
    assert q.tensor == alg.tensor


@settings(max_examples=25, deadline=None)
@given(strat.sampled_from(names()))
def test_quotient_by_center_is_valid(name):
    assert validate(central_quotient(get(name).algebra)).ok
