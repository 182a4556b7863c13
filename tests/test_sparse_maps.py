"""The sparse derivation query path against the dense code it replaced.

`GradedLinearMap.apply`, `der_bracket`, `DerivationSpace.contains`,
`DerivationSpace.leq` and `reduce_mod` work on the nonzero (column, value)
pairs of maps and echelon rows.  The references are the dense versions:
`mat_vec` for apply, and test-local copies of two full matrix products and
an entrywise combine for the bracket, and of a reduction of the n^2-wide
flattening over every column for membership.
Zeros are skipped by identity with the shared ZERO first, so the
robustness tests feed in zeros that are other Fraction(0) objects.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as strat

from superstem.catalog import entries, get
from superstem.derivations import (
    GradedLinearMap,
    _allowed_positions,
    der_bracket,
    derivation_space,
    flatten_map,
    id_star,
    inner_derivations,
)
from superstem.linalg import (
    ZERO,
    EchelonBasis,
    Matrix,
    frac,
    mat_mul,
    mat_vec,
    matrix,
    nonzeros,
    reduce_mod,
    rref,
)

from test_single_pass import rescaled


def dense_bracket(d, e):
    de = mat_mul(d.matrix, e.matrix)
    ed = mat_mul(e.matrix, d.matrix)
    sign = -1 if (d.parity * e.parity) % 2 else 1
    ents = tuple(
        tuple(x - sign * y for x, y in zip(r1, r2))
        for r1, r2 in zip(de.entries, ed.entries)
    )
    return GradedLinearMap((d.parity + e.parity) % 2, Matrix(de.rows, de.cols, ents))


def dense_reduce(v, b):
    """reduce_mod as a loop over every column right of each pivot."""
    work = [frac(x) for x in v]
    coords = []
    for row, p in zip(b.rows(), b.pivot_cols):
        c = work[p]
        coords.append(c)
        if c:
            for j in range(p, b.width):
                if row[j]:
                    work[j] -= c * row[j]
    return tuple(work), tuple(coords)


def dense_contains(space, m):
    residual, _ = dense_reduce(flatten_map(m), space.part(m.parity))
    return not any(residual)


def dense_leq(a, b):
    return all(
        not any(dense_reduce(row, b.part(par))[0])
        for par in (0, 1)
        for row in a.part(par).rows()
    )


def unit_map(n, parity, i, j):
    ents = tuple(tuple(Fraction(1) if (r, c) == (i, j) else ZERO for c in range(n)) for r in range(n))
    return GradedLinearMap(parity, Matrix(n, n, ents))


def add_maps(a, b):
    ents = tuple(tuple(x + y for x, y in zip(r1, r2)) for r1, r2 in zip(a.matrix.entries, b.matrix.entries))
    return GradedLinearMap(a.parity, Matrix(a.matrix.rows, a.matrix.cols, ents))


def fresh_zeros(m):
    """The same map with every entry a new Fraction object."""
    ents = tuple(tuple(Fraction(x.numerator, x.denominator) for x in row) for row in m.matrix.entries)
    return GradedLinearMap(m.parity, Matrix(m.matrix.rows, m.matrix.cols, ents))


def outside_unit(alg, space, parity):
    """A unit map at an allowed position of this parity that is not in the
    space, or None when the space holds them all."""
    for i, j in _allowed_positions(alg, parity):
        u = unit_map(alg.n, parity, i, j)
        if not dense_contains(space, u):
            return u
    return None


CATALOG = [e.algebra for e in entries()]


@pytest.mark.parametrize("alg", CATALOG + [rescaled(a) for a in CATALOG], ids=lambda a: a.name)
def test_bracket_and_contains_match_dense(alg):
    space = derivation_space(alg)
    maps = space.maps(0) + space.maps(1)
    outside = {par: outside_unit(alg, space, par) for par in (0, 1)}
    assert any(outside.values())
    for d in maps:
        for e in maps:
            br = der_bracket(d, e)
            assert br == dense_bracket(d, e)
            assert space.contains(br) and dense_contains(space, br)
            u = outside[br.parity]
            if u is not None:
                off = add_maps(br, u)
                assert not dense_contains(space, off)
                assert not space.contains(off)


@pytest.mark.parametrize("alg", CATALOG + [rescaled(a) for a in CATALOG[:8]], ids=lambda a: a.name)
def test_leq_matches_dense(alg):
    der = derivation_space(alg)
    inner = inner_derivations(alg)
    id_space, idstar_space = id_star(alg)
    spaces = (der, inner, id_space, idstar_space)
    for a in spaces:
        for b in spaces:
            assert a.leq(b) == dense_leq(a, b)


@pytest.mark.parametrize("alg", CATALOG[::4] + [rescaled(a) for a in CATALOG[::4]], ids=lambda a: a.name)
def test_apply_matches_mat_vec(alg):
    space = derivation_space(alg)
    vectors = [alg.basis_vector(i) for i in range(alg.n)]
    vectors.append(tuple(Fraction(i - 2, i + 1) for i in range(alg.n)))
    for m in space.maps(0) + space.maps(1):
        for v in vectors:
            assert m.apply(v) == mat_vec(m.matrix, v)
            assert fresh_zeros(m).apply(v) == mat_vec(m.matrix, v)
        with pytest.raises(ValueError):
            m.apply(vectors[0][1:])


def test_fresh_zeros_in_maps():
    alg = get("(3|2)_13").algebra
    space = derivation_space(alg)
    for parity in (0, 1):
        u = outside_unit(alg, space, parity)
        assert u is not None
        for m in space.maps(parity):
            fresh = fresh_zeros(m)
            assert any(x == 0 and x is not ZERO for row in fresh.matrix.entries for x in row)
            assert fresh == m
            assert space.contains(fresh)
            assert not space.contains(fresh_zeros(add_maps(m, u)))
    maps = space.maps(0) + space.maps(1)
    for d in maps:
        for e in maps:
            assert der_bracket(fresh_zeros(d), fresh_zeros(e)) == der_bracket(d, e)


def test_raw_matrix_adjoint_maps():
    """ad maps built from a raw Matrix whose zeros are fresh objects: each is
    in ad(L) and Der(L), and [ad x, ad y] = ad [x, y] on basis vectors."""
    alg = get("(2|2)_6").algebra
    n = alg.n
    der, inner = derivation_space(alg), inner_derivations(alg)

    def ad(v, parity):
        cols = tuple(
            tuple(Fraction(alg.bracket(v, alg.basis_vector(j))[k]) for j in range(n))
            for k in range(n)
        )
        return GradedLinearMap(parity, Matrix(n, n, cols))

    ads = [ad(alg.basis_vector(i), alg.parity(i)) for i in range(n)]
    for i, m in enumerate(ads):
        assert inner.contains(m) and der.contains(m)
        for j, other in enumerate(ads):
            want = ad(alg.bracket(alg.basis_vector(i), alg.basis_vector(j)), m.parity ^ other.parity)
            assert der_bracket(m, other) == want


def test_fresh_zeros_in_vectors_and_bases():
    basis = rref(matrix([[1, 0, 2, 0, 1], [0, 1, -1, 0, 3], [0, 0, 0, 1, Fraction(1, 2)]]))
    fresh_basis = EchelonBasis(
        Matrix(basis.dim, basis.width, tuple(tuple(Fraction(x) for x in row) for row in basis.rows())),
        basis.pivot_cols,
    )
    assert fresh_basis.row_support == basis.row_support
    for v in ([2, 3, 1, 5, Fraction(17, 2)], [0, 0, 1, 0, 0], [0, 0, 0, 0, 0]):
        fresh = [Fraction(x) for x in v]
        want = dense_reduce(fresh, basis)
        for b in (basis, fresh_basis):
            residual, coords = reduce_mod(list(enumerate(fresh)), b)
            assert coords == want[1]
            assert residual == {j: x for j, x in enumerate(want[0]) if x}
    assert nonzeros([Fraction(0), Fraction(0, 3), ZERO]) == ()
    assert nonzeros([Fraction(0), Fraction(-2, 3)]) == ((1, Fraction(-2, 3)),)


rationals = strat.one_of(strat.just(0), strat.fractions(min_value=-4, max_value=4, max_denominator=5))


@strat.composite
def bases_and_vectors(draw):
    width = draw(strat.integers(1, 7))
    rows = draw(strat.lists(strat.lists(rationals, min_size=width, max_size=width), max_size=6))
    basis = rref(matrix(rows, cols=width))
    if basis.dim and draw(strat.booleans()):
        # a member of the span, plus perhaps one unit of noise
        coeffs = draw(strat.lists(rationals, min_size=basis.dim, max_size=basis.dim))
        v = [sum((c * row[j] for c, row in zip(coeffs, basis.rows())), Fraction(0)) for j in range(width)]
        if draw(strat.booleans()):
            v[draw(strat.integers(0, width - 1))] += 1
    else:
        v = draw(strat.lists(rationals, min_size=width, max_size=width))
    return basis, [Fraction(x) for x in v]


@settings(max_examples=200, deadline=None)
@given(bases_and_vectors())
def test_sparse_reduction_matches_dense_loop(case):
    basis, v = case
    want = dense_reduce(v, basis)
    residual, coords = reduce_mod(nonzeros(v), basis)
    assert coords == want[1]
    assert residual == {j: x for j, x in enumerate(want[0]) if x}
