from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as strat

from superstem.linalg import (
    frac,
    intersect_spaces,
    kernel_basis,
    matrix,
    mat_mul,
    mat_vec,
    nonzeros,
    reduce_mod,
    rref,
    sum_spaces,
)

rationals = strat.fractions(max_denominator=6).map(frac)


def small_matrix(max_dim=5):
    return strat.integers(1, max_dim).flatmap(
        lambda c: strat.lists(
            strat.lists(rationals, min_size=c, max_size=c), min_size=1, max_size=max_dim
        ).map(matrix)
    )


def test_rref_hand_example():
    e = rref(matrix([[0, 1, 1], [1, 0, 2]]))
    assert e.pivot_cols == (0, 1)
    assert e.matrix.entries == (
        (frac(1), frac(0), frac(2)),
        (frac(0), frac(1), frac(1)),
    )


def test_rref_drops_zero_rows_and_orders_pivots():
    e = rref(matrix([[0, 0, 0], [2, 4, 6], [1, 2, 3]]))
    assert e.dim == 1
    assert e.pivot_cols == (0,)
    assert e.matrix.entries == ((frac(1), frac(2), frac(3)),)


def test_kernel_hand_example():
    m = matrix([[1, 1, 1]])
    k = kernel_basis(m)
    assert k.dim == 2
    for row in k.rows():
        assert all(x == 0 for x in mat_vec(m, row))


def test_membership_and_coordinates():
    b = rref(matrix([[1, 0, 2], [0, 1, 1]]))
    assert reduce_mod(nonzeros([frac(2), frac(3), frac(7)]), b) == {}
    assert reduce_mod(nonzeros([frac(0), frac(0), frac(1)]), b) == {2: frac(1)}


def test_intersection_hand_example():
    a = rref(matrix([[1, 0], [0, 1]]))
    b = rref(matrix([[1, 1]]))
    meet = intersect_spaces(a, b)
    assert meet.dim == 1
    assert meet.matrix.entries == ((frac(1), frac(1)),)


@pytest.mark.parametrize("width", (0, 1, 3))
def test_kernel_of_no_conditions_is_the_whole_space(width):
    k = kernel_basis(matrix([], cols=width))
    assert k.pivot_cols == tuple(range(width))
    assert k.rows() == tuple(tuple(frac(int(i == j)) for j in range(width)) for i in range(width))


@settings(max_examples=60)
@given(small_matrix())
def test_rref_is_idempotent(m):
    e = rref(m)
    again = rref(e.matrix)
    assert again == e


@settings(max_examples=60)
@given(small_matrix())
def test_rank_nullity(m):
    assert rref(m).dim + kernel_basis(m).dim == m.cols


@settings(max_examples=60)
@given(small_matrix())
def test_kernel_rows_annihilate(m):
    for row in kernel_basis(m).rows():
        assert all(x == 0 for x in mat_vec(m, row))


@settings(max_examples=60)
@given(small_matrix())
def test_pivot_columns_are_unit(m):
    e = rref(m)
    for t, p in enumerate(e.pivot_cols):
        col = [e.matrix.entries[i][p] for i in range(e.dim)]
        assert col[t] == 1 and all(x == 0 for i, x in enumerate(col) if i != t)


@settings(max_examples=40)
@given(small_matrix(4), small_matrix(4))
def test_grassmann_dimension_identity(m1, m2):
    if m1.cols != m2.cols:
        return
    a, b = rref(m1), rref(m2)
    total = sum_spaces(a, b)
    meet = intersect_spaces(a, b)
    assert a.dim + b.dim == total.dim + meet.dim
    for row in meet.rows():
        assert not reduce_mod(nonzeros(row), a) and not reduce_mod(nonzeros(row), b)


@settings(max_examples=40)
@given(small_matrix(4), strat.lists(rationals, min_size=4, max_size=4))
def test_span_membership_of_combinations(m, weights):
    e = rref(m)
    combo = [Fraction(0)] * m.cols
    for w, row in zip(weights, e.rows()):
        for j, x in enumerate(row):
            combo[j] += w * x
    assert reduce_mod(nonzeros(combo), e) == {}
    # every row is zero at the other rows' pivots, so the coordinates of a
    # member are its values at the pivot columns (stem_decomposition reads
    # the coordinates of brackets this way)
    assert [combo[p] for p in e.pivot_cols] == weights[: e.dim]


def test_mat_mul_identity_and_shapes():
    a = matrix([[1, 2], [3, 4], [5, 6]])
    eye = matrix([[1, 0], [0, 1]])
    assert mat_mul(a, eye).entries == a.entries
