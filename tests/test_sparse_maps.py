"""The sparse derivation query path against the dense code it replaced.

`GradedLinearMap.apply`, `der_bracket`, `DerivationSpace.contains`,
`DerivationSpace.leq` and `reduce_mod` work on the nonzero (column, value)
pairs of maps and echelon rows.  The references are the dense versions,
all test-local: `mat_vec` for apply, two full matrix products and an
entrywise combine for the bracket, and a reduction of the n^2-wide
flattening over every column for membership.
`matrix()` drops zeros by identity with the shared ZERO first and then by
value, so the robustness tests feed it dense rows whose zeros are other
Fraction(0) objects.  Every stored scalar is canonical: an int when its
value is integral, a Fraction only for a true rational, never a float or a
bool; the scalar guard feeds integral Fractions such as Fraction(4, 2) in
beside ints and checks each result against the same one built from
Fractions alone.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as strat

from superstem.build import abelian
from superstem.catalog import entries, get
from superstem.core import sparse_bracket
from superstem.derivations import (
    GradedLinearMap,
    der_bracket,
    derivation_report,
    derivation_space,
    id_star,
    inner_derivations,
)
from superstem.fileformat import export, parse
from superstem.invariants import invariant_report
from superstem.linalg import (
    ZERO,
    EchelonBasis,
    Matrix,
    frac,
    intersect_spaces,
    kernel_basis,
    mat_mul,
    matrix,
    nonzeros,
    reduce_mod,
    rref,
    sum_spaces,
)

from test_linalg import dense_reduce, mat_vec
from test_acceptance import corpus
from test_central_extensions import nilpotent_superalgebras_of_shape
from test_nilradical import FAMILY, nilradical
from test_single_pass import allowed_positions, part, rescaled


def map_of(parity, m):
    """The map with the entries of the square Matrix m, values as stored."""
    n = m.rows
    return GradedLinearMap(parity, n, tuple((i * n + j, x) for i, row in enumerate(m.support) for j, x in row))


def flatten_map(m):
    """The row-major flattening of a map's dense n x n matrix."""
    return tuple(x for row in m.matrix.entries for x in row)


def dense_bracket(d, e):
    de = mat_mul(d.matrix, e.matrix)
    ed = mat_mul(e.matrix, d.matrix)
    sign = -1 if (d.parity * e.parity) % 2 else 1
    ents = tuple(
        tuple(x - sign * y for x, y in zip(r1, r2))
        for r1, r2 in zip(de.entries, ed.entries)
    )
    return map_of((d.parity + e.parity) % 2, matrix(ents, cols=de.cols))


def dense_contains(space, m):
    residual, _ = dense_reduce(flatten_map(m), part(space, m.parity))
    return not any(residual)


def dense_leq(a, b):
    return all(
        not any(dense_reduce(row, part(b, par))[0])
        for par in (0, 1)
        for row in part(a, par).matrix.entries
    )


def unit_map(n, parity, i, j):
    ents = tuple(tuple(Fraction(1) if (r, c) == (i, j) else ZERO for c in range(n)) for r in range(n))
    return map_of(parity, matrix(ents, cols=n))


def add_maps(a, b):
    ents = tuple(tuple(x + y for x, y in zip(r1, r2)) for r1, r2 in zip(a.matrix.entries, b.matrix.entries))
    return map_of(a.parity, matrix(ents, cols=a.matrix.cols))


def fresh_rows(m):
    """The dense rows of a map with every entry a new Fraction object."""
    return tuple(tuple(Fraction(x.numerator, x.denominator) for x in row) for row in m.matrix.entries)


def fresh_zeros(m):
    """The same map, built by matrix() from its fresh dense rows."""
    return map_of(m.parity, matrix(fresh_rows(m), cols=m.matrix.cols))


def outside_unit(alg, space, parity):
    """A unit map at an allowed position of this parity that is not in the
    space, or None when the space holds them all."""
    for i, j in allowed_positions(alg, parity):
        u = unit_map(alg.n, parity, i, j)
        if not dense_contains(space, u):
            return u
    return None


CATALOG = [e.algebra for e in entries()]
NILRADICALS = [nilradical(*shape) for shape, _ in FAMILY]


@pytest.mark.parametrize("alg", CATALOG + [rescaled(a) for a in CATALOG] + NILRADICALS, ids=lambda a: a.name)
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


def test_contains_refuses_mislabelled_maps():
    """The span of the stored rows holds every derivation of either degree,
    so membership also asks that each nonzero of a map be of its labelled
    degree: an odd derivation labelled even is not in the space, and
    neither is the sum of an even and an odd one, under either label."""
    space = derivation_space(get("(2|2)_6").algebra)
    even, odd = space.maps(0), space.maps(1)
    assert even and odd
    for m in odd:
        relabelled = m._replace(parity=0)
        assert space.contains(m)
        assert not space.contains(relabelled) and not dense_contains(space, relabelled)
    for label in (0, 1):
        mixed = add_maps(even[0], odd[0])._replace(parity=label)
        assert not space.contains(mixed) and not dense_contains(space, mixed)


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
            rows = fresh_rows(m)
            assert any(x == 0 and x is not ZERO for row in rows for x in row)
            fresh = map_of(m.parity, matrix(rows, cols=m.matrix.cols))
            assert all(x for row in fresh.matrix.support for _, x in row)
            assert fresh == m
            assert space.contains(fresh)
            assert not space.contains(fresh_zeros(add_maps(m, u)))
    maps = space.maps(0) + space.maps(1)
    for d in maps:
        for e in maps:
            assert der_bracket(fresh_zeros(d), fresh_zeros(e)) == der_bracket(d, e)


def test_raw_matrix_adjoint_maps():
    """ad maps built by matrix() from dense rows whose zeros are fresh
    objects: each is in ad(L) and Der(L), and [ad x, ad y] = ad [x, y] on
    basis vectors."""
    alg = get("(2|2)_6").algebra
    n = alg.n
    der, inner = derivation_space(alg), inner_derivations(alg)

    def ad(v, parity):
        cols = tuple(
            tuple(Fraction(alg.bracket(v, alg.basis_vector(j))[k]) for j in range(n))
            for k in range(n)
        )
        return map_of(parity, matrix(cols, cols=n))

    ads = [ad(alg.basis_vector(i), alg.parity(i)) for i in range(n)]
    for i, m in enumerate(ads):
        assert inner.contains(m) and der.contains(m)
        for j, other in enumerate(ads):
            want = ad(alg.bracket(alg.basis_vector(i), alg.basis_vector(j)), m.parity ^ other.parity)
            assert der_bracket(m, other) == want


def test_fresh_zeros_in_vectors_and_bases():
    basis = rref(matrix([[1, 0, 2, 0, 1], [0, 1, -1, 0, 3], [0, 0, 0, 1, Fraction(1, 2)]]))
    fresh_basis = EchelonBasis(
        matrix(tuple(tuple(Fraction(x) for x in row) for row in basis.matrix.entries), cols=basis.width),
        basis.pivot_cols,
    )
    assert fresh_basis.matrix.support == basis.matrix.support
    for v in ([2, 3, 1, 5, Fraction(17, 2)], [0, 0, 1, 0, 0], [0, 0, 0, 0, 0]):
        fresh = [Fraction(x) for x in v]
        want = dense_reduce(fresh, basis)
        for b in (basis, fresh_basis):
            residual = reduce_mod(list(enumerate(fresh)), b)
            assert tuple(fresh[p] for p in b.pivot_cols) == want[1]
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
        v = [sum((c * row[j] for c, row in zip(coeffs, basis.matrix.entries)), Fraction(0)) for j in range(width)]
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
    residual = reduce_mod(nonzeros(v), basis)
    assert tuple(v[p] for p in basis.pivot_cols) == want[1]
    assert residual == {j: x for j, x in enumerate(want[0]) if x}


def canonical(x):
    """An int, or a Fraction whose denominator is greater than 1; never a
    bool or a float."""
    return type(x) is int or (type(x) is Fraction and x.denominator > 1)


def assert_canonical(m):
    """Each row's support is in increasing column order, in range and free
    of zeros, and each value is a canonical scalar, so the stored form is
    the one the dense rows determine."""
    assert len(m.support) == m.rows
    for row in m.support:
        cols = [j for j, _ in row]
        assert cols == sorted(set(cols)) and all(0 <= j < m.cols for j in cols)
        assert all(canonical(x) and x for _, x in row)
    assert matrix(m.entries, cols=m.cols) == m


@strat.composite
def chained_matrices(draw):
    r, k, c = (draw(strat.integers(0, 6)) for _ in range(3))

    def shaped(rows, cols):
        return matrix(draw(strat.lists(strat.lists(rationals, min_size=cols, max_size=cols),
                                       min_size=rows, max_size=rows)), cols=cols)

    return shaped(r, k), shaped(k, c)


@settings(max_examples=150, deadline=None)
@given(chained_matrices())
def test_linalg_results_have_canonical_support(pair):
    a, b = pair
    for m in (a, b, rref(a).matrix, kernel_basis(a).matrix, mat_mul(a, b)):
        assert_canonical(m)


@pytest.mark.parametrize("alg", CATALOG[::4] + [rescaled(a) for a in CATALOG[::4]], ids=lambda a: a.name)
def test_derivation_results_have_canonical_support(alg):
    space = derivation_space(alg)
    assert_canonical(space.basis.matrix)
    maps = space.maps(0) + space.maps(1)
    for d in maps:
        assert_canonical(d.matrix)
        for e in maps:
            assert_canonical(der_bracket(d, e).matrix)


@pytest.fixture
def no_dense_view(monkeypatch):
    """Make building the dense rows of any Matrix raise."""

    def refuse(self):
        raise AssertionError("dense view of a Matrix built")

    monkeypatch.setattr(Matrix, "entries", property(refuse))


def test_reports_and_closure_build_no_dense_view(no_dense_view):
    # fresh copies, so that every solver runs rather than reading what an
    # earlier test kept on the shared corpus objects
    for alg in map(parse, map(export, corpus())):
        invariant_report(alg)
        assert derivation_report(alg).chain_ok
        space = derivation_space(alg)
        maps = space.maps(0) + space.maps(1)
        assert all(space.contains(der_bracket(d, e)) for d in maps for e in maps)



# ints, integral Fractions such as Fraction(4, 2), and true rationals
mixed_scalars = strat.one_of(
    strat.integers(-4, 4),
    strat.builds(lambda k, d: Fraction(k * d, d), strat.integers(-4, 4), strat.integers(2, 4)),
    strat.fractions(min_value=-4, max_value=4, max_denominator=5),
)


def mixed_rows(rows, cols):
    return strat.lists(strat.lists(mixed_scalars, min_size=cols, max_size=cols), min_size=rows, max_size=rows)


def as_fractions(m):
    """The same matrix with every stored value a Fraction, integral or not,
    built without matrix() so that nothing is made canonical on the way in."""
    return Matrix(m.rows, m.cols, tuple(tuple((j, Fraction(x)) for j, x in row) for row in m.support))


def forms(rows, cols):
    """The dense rows as three Matrix values: through matrix(), with the
    drawn values stored as they are, and with every value a Fraction."""
    canon = matrix(rows, cols=cols)
    raw = Matrix(len(rows), cols, tuple(tuple((j, x) for j, x in enumerate(row) if x) for row in rows))
    return canon, raw, as_fractions(canon)


def assert_same(got, want):
    assert got == want and hash(got) == hash(want)


@strat.composite
def mixed_inputs(draw):
    r, k, c, t = (draw(strat.integers(0, 5)) for _ in range(4))
    return (forms(draw(mixed_rows(r, k)), k), forms(draw(mixed_rows(k, c)), c),
            forms(draw(mixed_rows(t, k)), k), draw(strat.lists(mixed_scalars, min_size=k, max_size=k)))


@settings(max_examples=100, deadline=None)
@given(mixed_inputs())
def test_kernel_results_are_canonical_and_match_fraction_inputs(case):
    """Each result is canonical and equal, hash included, whether the
    inputs went through matrix(), kept their drawn mixed values, or were
    all Fractions."""
    a_forms, b_forms, other_forms, vector = case
    for canon, raw, fractions in (a_forms, b_forms, other_forms):
        assert_canonical(canon)
        assert_same(raw, canon)
        assert_same(fractions, canon)
    vectors = ([frac(x) for x in vector], vector, [Fraction(x) for x in vector])
    results = [
        (rref(a), kernel_basis(a), sum_spaces(rref(a), rref(other)), intersect_spaces(rref(a), rref(other)),
         mat_mul(a, b), reduce_mod(list(enumerate(v)), rref(a)))
        for a, b, other, v in zip(a_forms, b_forms, other_forms, vectors)
    ]
    for got in results:
        *spaces, product, residual = got
        for m in [s.matrix for s in spaces] + [product]:
            assert_canonical(m)
        assert all(canonical(x) and x for x in residual.values())
    frozen = [(*got[:5], tuple(sorted(got[5].items()))) for got in results]
    assert_same(frozen[1], frozen[0])
    assert_same(frozen[2], frozen[0])


@strat.composite
def mixed_maps(draw):
    n = draw(strat.integers(1, 5))
    parities = draw(strat.tuples(strat.integers(0, 1), strat.integers(0, 1)))
    return tuple(map_of(par, matrix(draw(mixed_rows(n, n)), cols=n)) for par in parities)


@settings(max_examples=100, deadline=None)
@given(mixed_maps())
def test_der_bracket_of_mixed_maps_is_canonical_and_matches_fractions(maps):
    d, e = maps
    got = der_bracket(d, e)
    assert_canonical(got.matrix)
    want = der_bracket(*(map_of(m.parity, as_fractions(m.matrix)) for m in maps))
    assert_same(got, want)
    assert_same(got, dense_bracket(d, e))


@strat.composite
def maps_and_spaces(draw):
    """Der of a random nilpotent superalgebra of n <= 7 basis vectors, and
    two maps of its shape.  Each map is a sparse draw at the positions of
    its degree, a member of Der, one of those with one nonzero of the wrong
    degree added, or zero; the entries and coefficients are mixed scalars,
    integral Fractions included."""
    n = draw(strat.integers(0, 7))
    r = draw(strat.integers(0, n))
    space = derivation_space(draw(nilpotent_superalgebras_of_shape(r, n - r)))

    def graded_map():
        parity = draw(strat.integers(0, 1))
        kind = draw(strat.sampled_from(("sparse", "member", "stray", "zero")))
        rows = [[ZERO] * n for _ in range(n)]
        if kind == "sparse":
            allowed = [(i, j) for i in range(n) for j in range(n) if ((i >= r) != (j >= r)) == bool(parity)]
            if allowed:
                for i, j in draw(strat.lists(strat.sampled_from(allowed), max_size=2 * n)):
                    rows[i][j] = draw(mixed_scalars)
        elif kind in ("member", "stray"):
            for m in space.maps(parity):
                c = draw(mixed_scalars)
                for i, row in enumerate(m.matrix.support):
                    for j, x in row:
                        rows[i][j] += c * x
            wrong = [(i, j) for i in range(n) for j in range(n) if ((i >= r) != (j >= r)) != bool(parity)]
            if kind == "stray" and wrong:
                i, j = draw(strat.sampled_from(wrong))
                rows[i][j] = draw(mixed_scalars.filter(bool))
        return map_of(parity, matrix(rows, cols=n))

    return space, graded_map(), graded_map()


@settings(max_examples=200, deadline=None)
@given(maps_and_spaces())
def test_der_bracket_and_contains_of_random_sparse_maps_match_dense(case):
    space, d, e = case
    br = der_bracket(d, e)
    assert_same(br, dense_bracket(d, e))
    assert_canonical(br.matrix)
    for m in (d, e, br):
        assert space.contains(m) == dense_contains(space, m)


def test_zero_by_zero_maps():
    space = derivation_space(abelian(0, 0))
    for p in (0, 1):
        for q in (0, 1):
            d, e = GradedLinearMap(p, 0, ()), GradedLinearMap(q, 0, ())
            br = der_bracket(d, e)
            assert br == GradedLinearMap((p + q) % 2, 0, ()) == dense_bracket(d, e)
            assert space.contains(br) and dense_contains(space, br)
    empty, one = GradedLinearMap(0, 0, ()), GradedLinearMap(0, 1, ())
    with pytest.raises(ValueError, match="same size"):
        der_bracket(empty, one)
    with pytest.raises(ValueError, match="same size"):
        der_bracket(one, empty)
    with pytest.raises(ValueError, match="not n x n"):
        space.contains(one)
    with pytest.raises(ValueError, match="not n x n"):
        derivation_space(abelian(1, 0)).contains(empty)


@pytest.mark.parametrize("column", [-1, 4, 7], ids=("negative", "n^2", "past n^2"))
def test_map_view_refuses_a_column_out_of_range(column):
    """-1 would otherwise land at entry (1, 1) of a 2 x 2 map."""
    with pytest.raises(ValueError, match=f"column {column} "):
        GradedLinearMap(0, 2, ((column, 1),)).matrix


@pytest.mark.parametrize("column", [-1, 2, 5], ids=("negative", "cols", "past cols"))
def test_matrix_entries_refuse_a_column_out_of_range(column):
    """-1 would otherwise land in the last column."""
    with pytest.raises(ValueError, match=f"column {column} "):
        Matrix(1, 2, (((column, 5),),)).entries


MIXED_ALGEBRAS = [get("(3|2)_13").algebra, rescaled(get("(3|2)_13").algebra), get("(2|2)_6").algebra]


@settings(max_examples=100, deadline=None)
@given(strat.sampled_from(MIXED_ALGEBRAS), strat.data())
def test_sparse_bracket_of_mixed_vectors_is_canonical_and_matches_fractions(alg, data):
    x, y = (data.draw(strat.lists(mixed_scalars, min_size=alg.n, max_size=alg.n)) for _ in range(2))
    got = sparse_bracket(alg, nonzeros(x), nonzeros(y))
    assert all(canonical(c) and c for c in got.values())
    want = sparse_bracket(alg, [(j, Fraction(v)) for j, v in enumerate(x)],
                          [(j, Fraction(v)) for j, v in enumerate(y)])
    assert_same(tuple(sorted(got.items())), tuple(sorted(want.items())))
    assert all(canonical(c) for i in range(alg.n) for j in range(alg.n) for _, c in alg.basis_bracket(i, j))


@settings(max_examples=100, deadline=None)
@given(strat.integers(-6, 6).filter(bool), strat.integers(1, 4), strat.integers(1, 4))
def test_parse_gives_canonical_constants(k, d, e):
    """`4/2 x` parses to the int 2; a true rational stays a Fraction."""
    text = (f'algebra "h"\neven: x1 x2 z\nodd:\n'
            f"[x1, x2] = {k * d}/{d} z\n[x1, z] = 0\n")
    alg = parse(text)
    assert alg.basis_bracket(0, 1) == ((2, k),) and type(alg.basis_bracket(0, 1)[0][1]) is int
    assert_same(alg, parse(text.replace(f"{k * d}/{d} z", f"{k} z")))
    rational = parse(text.replace(f"{k * d}/{d} z", f"{k}/{e + 1} z"))
    c = rational.basis_bracket(0, 1)[0][1]
    assert canonical(c) and c == Fraction(k, e + 1)
