"""The exact elimination kernel against an independent implementation.

`rref`, `kernel_basis`, `intersect_spaces` and `mat_mul` are checked
against sympy's `DomainMatrix` over QQ, which shares no code with
superstem, on hypothesis matrices and on the Der systems (`_law_rows`) of
the catalog entries.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as strat

from superstem.catalog import entries
from superstem.derivations import _allowed_positions, _law_rows
from superstem.invariants import center, derived_subalgebra
from superstem.linalg import intersect_spaces, kernel_basis, mat_mul, matrix, rref, sparse_matrix

QQ = pytest.importorskip("sympy").QQ
DomainMatrix = pytest.importorskip("sympy.polys.matrices").DomainMatrix


def domain(rows, cols):
    ents = [[QQ(x.numerator, x.denominator) for x in row] for row in rows]
    return DomainMatrix(ents, (len(rows), cols), QQ)


def fractions(dm, nrows):
    return tuple(
        tuple(Fraction(int(x.numerator), int(x.denominator)) for x in row)
        for row in dm.to_list()[:nrows]
    )


def check_rref(m):
    ref, pivots = domain(m.entries, m.cols).rref()
    e = rref(m)
    assert e.pivot_cols == pivots
    assert e.matrix.entries == fractions(ref, len(pivots))


def check_kernel(m):
    ref, pivots = domain(m.entries, m.cols).nullspace().rref()
    k = kernel_basis(m)
    assert k.pivot_cols == pivots
    assert k.matrix.entries == fractions(ref, len(pivots))


def check_intersection(a, b):
    w = a.width
    meet = intersect_spaces(a, b)
    assert meet.width == w
    assert meet.dim == a.dim + b.dim - domain(a.matrix.entries + b.matrix.entries, w).rank()
    assert domain(meet.matrix.entries, w).rank() == meet.dim
    for row in meet.matrix.entries:
        for space in (a, b):
            assert domain(space.matrix.entries + (row,), w).rank() == space.dim


rationals = strat.one_of(
    strat.just(0), strat.just(0), strat.fractions(min_value=-5, max_value=5, max_denominator=4))


def sparse_matrices(cols):
    return strat.lists(strat.lists(rationals, min_size=cols, max_size=cols), max_size=7).map(
        lambda rows: matrix(rows, cols=cols))


@settings(max_examples=150, deadline=None)
@given(strat.integers(0, 8).flatmap(sparse_matrices))
def test_rref_and_kernel_match_sympy(m):
    check_rref(m)
    check_kernel(m)


@settings(max_examples=150, deadline=None)
@given(strat.integers(0, 7).flatmap(lambda c: strat.tuples(sparse_matrices(c), sparse_matrices(c))))
def test_intersection_matches_sympy(pair):
    check_intersection(rref(pair[0]), rref(pair[1]))


def shaped_matrices(rows, cols):
    return strat.lists(strat.lists(rationals, min_size=cols, max_size=cols),
                       min_size=rows, max_size=rows).map(lambda ents: matrix(ents, cols=cols))


@settings(max_examples=150, deadline=None)
@given(strat.tuples(*[strat.integers(0, 6)] * 3).flatmap(
    lambda s: strat.tuples(shaped_matrices(s[0], s[1]), shaped_matrices(s[1], s[2]))))
def test_mat_mul_matches_sympy(pair):
    a, b = pair
    prod = mat_mul(a, b)
    assert (prod.rows, prod.cols) == (a.rows, b.cols)
    assert prod.entries == fractions(domain(a.entries, a.cols) * domain(b.entries, b.cols), a.rows)


@pytest.mark.parametrize("entry", entries(), ids=lambda e: e.name)
def test_der_systems_match_sympy(entry):
    alg = entry.algebra
    for parity in (0, 1):
        positions = _allowed_positions(alg, parity)
        rows = _law_rows(alg, parity, {pos: t for t, pos in enumerate(positions)})
        m = sparse_matrix(rows, len(positions))
        check_rref(m)
        check_kernel(m)
        kernel = kernel_basis(m)
        check_intersection(kernel, rref(m))
        check_intersection(kernel, kernel)
    derived, cent = derived_subalgebra(alg), center(alg)
    check_intersection(derived.basis, cent.basis)
