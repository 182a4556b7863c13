from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as strat

from superstem.linalg import (
    empty_basis,
    extend,
    frac,
    intersect_spaces,
    kernel_basis,
    matrix,
    mat_mul,
    nonzeros,
    reduce_mod,
    rref,
    sum_spaces,
)

rationals = strat.fractions(max_denominator=6).map(frac)


def mat_vec(m, v):
    """m v as a dense loop over the rows of m.entries."""
    if len(v) != m.cols:
        raise ValueError("vector length does not match column count")
    return tuple(frac(sum((a * b for a, b in zip(row, v) if a and b), Fraction(0))) for row in m.entries)


def dense_reduce(v, b):
    """reduce_mod as a loop over every column right of each pivot."""
    work = [frac(x) for x in v]
    coords = []
    for row, p in zip(b.matrix.entries, b.pivot_cols):
        c = work[p]
        coords.append(c)
        if c:
            for j in range(p, b.width):
                if row[j]:
                    work[j] -= c * row[j]
    return tuple(work), tuple(coords)


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
    for row in k.matrix.entries:
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
    assert k.matrix.entries == tuple(tuple(frac(int(i == j)) for j in range(width)) for i in range(width))


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
    for row in kernel_basis(m).matrix.entries:
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
    for row in meet.matrix.entries:
        assert not reduce_mod(nonzeros(row), a) and not reduce_mod(nonzeros(row), b)


@settings(max_examples=40)
@given(small_matrix(4), strat.lists(rationals, min_size=4, max_size=4))
def test_span_membership_of_combinations(m, weights):
    e = rref(m)
    combo = [Fraction(0)] * m.cols
    for w, row in zip(weights, e.matrix.entries):
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


def assert_reduced(e):
    """e is a reduced row echelon form: strictly increasing pivots, each row
    zero left of its pivot, and each pivot column a unit column."""
    assert list(e.pivot_cols) == sorted(set(e.pivot_cols))
    ents = e.matrix.entries
    for t, (row, p) in enumerate(zip(ents, e.pivot_cols)):
        assert not any(row[:p]) and row[p] == 1
        assert all(other[p] == 0 for u, other in enumerate(ents) if u != t)


def dense_rref(rows, width):
    """(rows, pivots) of the reduced row echelon form, by Gauss-Jordan on
    dense lists of Fractions; it shares no code with linalg."""
    m = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    for col in range(width):
        r = len(pivots)
        hit = next((i for i in range(r, len(m)) if m[i][col]), None)
        if hit is None:
            continue
        m[r], m[hit] = m[hit], m[r]
        m[r] = [x / m[r][col] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col]:
                f = m[i][col]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(col)
    return [tuple(row) for row in m[: len(pivots)]], pivots


def dense(row, width):
    out = [Fraction(0)] * width
    for j, x in row:
        out[j] += x
    return out


def vectors(width):
    return strat.lists(rationals, min_size=width, max_size=width)


def echelon_bases(width, max_dim=5):
    """Echelon bases of the given width, the empty one included."""
    return strat.lists(vectors(width), max_size=max_dim).map(lambda rows: rref(matrix(rows, cols=width)))


@strat.composite
def basis_and_rows(draw, max_dim=5):
    """An echelon basis (possibly empty) and candidate rows for it, as
    (column, value) pairs: free rows with non-integer values, zero rows
    (no pairs, or explicit zero values), and rational combinations of the
    basis and of the rows drawn before, which lie in the span so far."""
    width = draw(strat.integers(1, max_dim))
    basis = draw(echelon_bases(width, max_dim))
    spanning = [list(r) for r in basis.matrix.entries]
    rows = []
    for kind in draw(strat.lists(strat.sampled_from(("free", "zero", "member")), max_size=max_dim + 2)):
        if kind == "free":
            v = draw(vectors(width))
        elif kind == "zero":
            v = [0] * width
        else:
            weights = draw(vectors(len(spanning)))
            v = [sum((w * r[j] for w, r in zip(weights, spanning)), Fraction(0)) for j in range(width)]
        spanning.append(v)
        explicit = draw(strat.booleans())
        rows.append(tuple((j, frac(x)) for j, x in enumerate(v) if explicit or x))
    return basis, rows


def extend_by_candidates(basis, rows):
    """The per-candidate algorithm extend replaces: keep a row when it
    leaves a residual, then re-echelonize the stacked rows."""
    added = []
    for row in rows:
        if reduce_mod(row, basis):
            added.append(row)
            basis = rref(matrix(basis.matrix.entries + (dense(row, basis.width),), cols=basis.width))
    return basis, added


@settings(max_examples=100)
@given(basis_and_rows())
def test_extend_matches_per_candidate_elimination(case):
    basis, rows = case
    grown, added = extend(basis, rows)
    assert (grown, added) == extend_by_candidates(basis, rows)
    assert_reduced(grown)
    # the rows that added a pivot are the input rows themselves, in order
    assert all(any(a is r for r in rows) for a in added)
    assert grown.dim == basis.dim + len(added)


def test_extend_of_an_empty_basis_keeps_independent_rows():
    rows = [((0, frac("1/2")), (1, 1), (2, 3)), (), ((0, 1), (1, 2), (2, 6)), ((0, 0), (1, 0)), ((1, frac("-2/3")),)]
    grown, added = extend(empty_basis(3), rows)
    assert added == [rows[0], rows[4]]
    assert grown.pivot_cols == (0, 1)
    assert grown.matrix.entries == ((1, 0, 6), (0, 1, 0))
    assert extend(grown, rows) == (grown, [])
    with pytest.raises(ValueError):
        sum_spaces(grown, empty_basis(4))


@settings(max_examples=60)
@given(strat.integers(1, 5).flatmap(lambda w: strat.tuples(echelon_bases(w), echelon_bases(w))))
def test_sum_spaces_matches_stacked_rref(pair):
    a, b = pair
    total = sum_spaces(a, b)
    assert total == rref(matrix(a.matrix.entries + b.matrix.entries, cols=a.width))
    assert_reduced(total)


@settings(max_examples=60)
@given(basis_and_rows())
def test_intersect_spaces_matches_dense_zassenhaus(case):
    """[a | a] over [b | 0], reduced by dense Gauss-Jordan: the rows with a
    zero left half are the intersection's reduced echelon form."""
    a, rows = case
    w = a.width
    b = rref(matrix([dense(r, w) for r in rows], cols=w))
    meet = intersect_spaces(a, b)
    stacked = [list(r) + list(r) for r in a.matrix.entries] + [list(r) + [0] * w for r in b.matrix.entries]
    ref_rows, ref_pivots = dense_rref(stacked, 2 * w)
    assert meet.pivot_cols == tuple(p - w for p in ref_pivots if p >= w)
    assert meet.matrix.entries == tuple(r[w:] for r, p in zip(ref_rows, ref_pivots) if p >= w)
    assert_reduced(meet)
