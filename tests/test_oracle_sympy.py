"""The exact elimination kernel against an independent implementation.

`rref`, `kernel_basis`, `intersect_spaces` and `mat_mul` are checked
against sympy's `DomainMatrix` over QQ, which shares no code with
superstem, on hypothesis matrices and on the Der system (`_law_rows`, one
n^2-wide system for both degrees) of each catalog entry.  Der, ID, ID* and ad are then checked against spaces
that sympy solves from their definitions, read off the dense structure
tensor without `_law_rows` or `inner_derivations`, on the catalog, on
random nilpotent superalgebras and on the rescaled and sheared copies of
the non-stem examples, where the stacked reference of test_single_pass
shares `_law_rows` with the code it checks.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as strat

from superstem.catalog import entries
from superstem.derivations import _law_rows, derivation_space, id_star, inner_derivations
from superstem.invariants import center, derived_subalgebra
from superstem.linalg import intersect_spaces, kernel_basis, mat_mul, matrix, rref, sparse_matrix
from test_central_extensions import nilpotent_superalgebras
from test_single_pass import non_stem_examples, rescaled, sheared

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
    m = sparse_matrix(_law_rows(alg), alg.n ** 2)
    check_rref(m)
    check_kernel(m)
    kernel = kernel_basis(m)
    check_intersection(kernel, rref(m))
    check_intersection(kernel, kernel)
    derived, cent = derived_subalgebra(alg), center(alg)
    check_intersection(derived.basis, cent.basis)


def sparse_domain(rows, cols):
    """The DomainMatrix over QQ with the given {column: value} rows."""
    ents = {t: {c: QQ(x.numerator, x.denominator) for c, x in row.items() if x}
            for t, row in enumerate(rows)}
    return DomainMatrix({t: row for t, row in ents.items() if row}, (len(rows), cols), QQ)


def null_vectors(rows, cols):
    """A basis of {x : row . x = 0 for every row}, as dense lists."""
    if not cols:
        return []
    return [list(v) for v in fractions(sparse_domain(rows, cols).nullspace(), cols)]


def echelon_form(vectors, cols):
    """(pivots, rows) of the RREF of the span of dense vectors."""
    ref, pivots = sparse_domain([dict(enumerate(v)) for v in vectors], cols).rref()
    return tuple(pivots), fractions(ref, len(pivots))


def reference_spaces(alg, parity):
    """Der, ID, ID* and ad of one parity, each as (pivots, rows) in the
    row-major n^2 flattening (entry (i, j) the b_i-coefficient of D(b_j)),
    solved by sympy from their definitions on the dense tensor."""
    n, t = alg.n, alg.tensor
    p = [alg.parity(i) for i in range(n)]
    unknowns = [(i, j) for i in range(n) for j in range(n) if p[i] == (p[j] + parity) % 2]
    col = {pos: u for u, pos in enumerate(unknowns)}

    def condition(terms):
        row = {}
        for pos, c in terms:
            if pos in col and c:
                row[col[pos]] = row.get(col[pos], 0) + c
        return row

    # D[b_a, b_b] = [D b_a, b_b] + (-1)^(alpha |a|) [b_a, D b_b], coordinate m
    leibniz = [
        condition([((m, k), t[a][b][k]) for k in range(n)]
                  + [((i, a), -t[i][b][m]) for i in range(n)]
                  + [((i, b), -(-1) ** (parity * p[a]) * t[a][i][m]) for i in range(n)])
        for a in range(n) for b in range(n) for m in range(n)
    ]
    # [L, L] through its annihilator, Z(L) as {x : [x, b_j] = 0 for all j}
    brackets = [dict(enumerate(t[i][j])) for i in range(n) for j in range(n)]
    annihilator = null_vectors(brackets, n)
    centre = null_vectors([{i: t[i][j][k] for i in range(n)} for j in range(n) for k in range(n)], n)
    in_derived = [condition([((i, j), w[i]) for i in range(n)]) for w in annihilator for j in range(n)]
    kills_centre = [condition([((m, j), z[j]) for j in range(n)]) for z in centre for m in range(n)]

    def space(rows):
        full = []
        for v in null_vectors(rows, len(unknowns)):
            flat = [0] * (n * n)
            for (i, j), x in zip(unknowns, v):
                flat[i * n + j] = x
            full.append(flat)
        return echelon_form(full, n * n)

    ad = [[t[i][j][k] for k in range(n) for j in range(n)] for i in range(n) if p[i] == parity]
    return (space(leibniz), space(leibniz + in_derived), space(leibniz + in_derived + kills_centre),
            echelon_form(ad, n * n))


def check_derivation_spaces(alg):
    """Each space is the one sympy solves for each degree apart, its rows
    those of both degrees sorted by pivot; maps(parity) are the rows of
    that degree."""
    der = derivation_space(alg)
    id_space, star = id_star(alg)
    inner = inner_derivations(alg)
    even, odd = reference_spaces(alg, 0), reference_spaces(alg, 1)
    for space, (even_pivots, even_rows), (odd_pivots, odd_rows) in zip((der, id_space, star, inner), even, odd):
        merged = sorted(zip(even_pivots + odd_pivots, even_rows + odd_rows))
        assert (space.basis.pivot_cols, space.basis.matrix.entries) == (
            tuple(p for p, _ in merged), tuple(row for _, row in merged))
        assert tuple(space.sdim) == (len(even_pivots), len(odd_pivots))
        for parity, rows in ((0, even_rows), (1, odd_rows)):
            assert [tuple(x for row in m.matrix.entries for x in row) for m in space.maps(parity)] == list(rows)


@pytest.mark.parametrize("entry", entries(), ids=lambda e: e.name)
def test_derivation_spaces_match_sympy(entry):
    check_derivation_spaces(entry.algebra)


@settings(max_examples=30, deadline=None)
@given(nilpotent_superalgebras())
def test_derivation_spaces_of_random_nilpotent_superalgebras_match_sympy(alg):
    check_derivation_spaces(alg)


@pytest.mark.parametrize("alg", [copy(alg) for alg in non_stem_examples() for copy in (rescaled, sheared)],
                         ids=lambda a: a.name)
def test_derivation_spaces_on_rescaled_and_sheared_bases_match_sympy(alg):
    check_derivation_spaces(alg)
