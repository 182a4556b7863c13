"""The exact elimination kernel against an independent implementation.

`rref`, `kernel_basis` and `intersect_spaces` are checked against sympy's
`DomainMatrix` over QQ, which shares no code with superstem, on hypothesis
matrices and on the Der systems (`_law_rows`) of the catalog entries.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as strat

from superstem.catalog import entries
from superstem.derivations import _allowed_positions, _law_rows
from superstem.invariants import center, derived_subalgebra
from superstem.linalg import intersect_spaces, kernel_basis, matrix, rref

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
    assert e.rows() == fractions(ref, len(pivots))


def check_kernel(m):
    ref, pivots = domain(m.entries, m.cols).nullspace().rref()
    k = kernel_basis(m)
    assert k.pivot_cols == pivots
    assert k.rows() == fractions(ref, len(pivots))


def check_intersection(a, b):
    w = a.width
    meet = intersect_spaces(a, b)
    assert meet.width == w
    assert meet.dim == a.dim + b.dim - domain(a.rows() + b.rows(), w).rank()
    assert domain(meet.rows(), w).rank() == meet.dim
    for row in meet.rows():
        for space in (a, b):
            assert domain(space.rows() + (row,), w).rank() == space.dim


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


@pytest.mark.parametrize("entry", entries(), ids=lambda e: e.name)
def test_der_systems_match_sympy(entry):
    alg = entry.algebra
    for parity in (0, 1):
        positions = _allowed_positions(alg, parity)
        rows = _law_rows(alg, parity, {pos: t for t, pos in enumerate(positions)})
        m = matrix(rows, cols=len(positions))
        check_rref(m)
        check_kernel(m)
        kernel = kernel_basis(m)
        check_intersection(kernel, rref(m))
        check_intersection(kernel, kernel)
    derived, cent = derived_subalgebra(alg), center(alg)
    check_intersection(derived.even, cent.even)
    check_intersection(derived.odd, cent.odd)
