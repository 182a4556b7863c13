"""The one-pass invariants against the quotient-algebra method they replace.

The upper central series is computed as one kernel per step on L itself,
and the generator pair of L/Z(L) as sdim L - sdim([L,L] + Z(L)).  The
differential tests rebuild both the old way, through the dense `quotient`
below and its `lift`, the one quotient algebra in the project: the library
reads every invariant from subspaces of L.  The guard tests check that the
report paths solve Der once, as one n^2-wide system.  ID and ID* are found
inside the Der solution; they are checked against stacked systems that
solve each parity apart, in that parity's own positions, on the corpus and
on rescaled and sheared bases.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings

import superstem.derivations
from superstem.build import (
    abelian,
    algebra_from_relations,
    direct_sum,
    heisenberg_even,
    heisenberg_odd,
    tower,
)
from superstem.catalog import entries, get, verify_classification, verify_table1
from superstem.core import (
    GradedSubspace,
    LieSuperalgebra,
    graded_span,
    subspace_sum,
    validate,
    vector_parity,
    zero_subspace,
)
from superstem.derivations import (
    DerivationSpace,
    _law_rows,
    derivation_report,
    id_star,
    idstar_bound_check,
)
from superstem.fileformat import export, parse
from superstem.invariants import (
    NotNilpotentError,
    center,
    derived_subalgebra,
    generator_pair,
    invariant_report,
    schur_bound_check,
    st,
    upper_central_series,
)
from superstem.linalg import ZERO, EchelonBasis, Matrix, frac, kernel_basis, matrix, rref, sparse_matrix

from test_acceptance import corpus
from test_central_extensions import solvable_superalgebras
from test_linalg import dense_reduce


def parity_parts(space):
    """The even and odd parts of a graded subspace as echelon bases in their
    own coordinates (widths r and s), each eliminated afresh from the even
    or the odd nonzeros of every row."""
    r, rows = space.even_width, space.basis.matrix.support
    even = [{j: x for j, x in row if j < r} for row in rows]
    odd = [{j - r: x for j, x in row if j >= r} for row in rows]
    return rref(sparse_matrix(even, r)), rref(sparse_matrix(odd, space.basis.width - r))


def graded(even, odd):
    """The graded subspace whose parts are the echelon bases even (width r)
    and odd (width s): the even rows, then the odd rows shifted past the even
    coordinates."""
    r = even.width
    odd_rows = tuple(tuple((r + j, x) for j, x in row) for row in odd.matrix.support)
    basis = EchelonBasis(Matrix(even.dim + odd.dim, r + odd.width, even.matrix.support + odd_rows),
                         even.pivot_cols + tuple(r + p for p in odd.pivot_cols))
    return GradedSubspace(basis, r)


def allowed_positions(alg, parity):
    """The positions (i, j) that a map of this parity may fill, in row-major
    order: those with parity(i) = parity(j) + parity."""
    return [(i, j) for i in range(alg.n) for j in range(alg.n)
            if alg.parity(i) == (alg.parity(j) + parity) % 2]


def embedded(e, positions, n):
    """An echelon basis over the given positions, moved into the row-major
    n^2 flattening; it stays reduced because the positions increase in
    row-major order."""
    flat = [i * n + j for i, j in positions]
    support = tuple(tuple((flat[t], x) for t, x in row) for row in e.matrix.support)
    return EchelonBasis(Matrix(e.dim, n * n, support), tuple(flat[p] for p in e.pivot_cols))


def from_parts(alg, even, odd):
    """The DerivationSpace whose maps of degree 0 and 1 are spanned by the
    n^2-wide echelon bases even and odd: their rows, sorted by pivot."""
    rows = sorted(zip(even.pivot_cols + odd.pivot_cols, even.matrix.support + odd.matrix.support))
    basis = EchelonBasis(Matrix(len(rows), alg.n ** 2, tuple(row for _, row in rows)),
                         tuple(p for p, _ in rows))
    return DerivationSpace(alg.n, basis, alg.sdim.even)


def part(space, parity):
    """The rows of a DerivationSpace whose pivot is of the given degree, as
    an n^2-wide echelon basis."""
    n, r = space.n, space.even_width
    rows = [(p, row) for p, row in zip(space.basis.pivot_cols, space.basis.matrix.support)
            if ((p // n >= r) != (p % n >= r)) == bool(parity)]
    return EchelonBasis(Matrix(len(rows), n * n, tuple(row for _, row in rows)),
                        tuple(p for p, _ in rows))


def non_nilpotent_example():
    # [e1, e2] = e2 has trivial centre, so the series never leaves zero
    return algebra_from_relations("solvable", ("e1", "e2"), (), [(0, 1, {1: frac(1)})])


def differential_corpus():
    """The acceptance corpus, two scaling points and one non-nilpotent algebra."""
    return corpus() + [heisenberg_even(10, 0), tower(20), non_nilpotent_example()]


def quotient(alg, ideal):
    """L/I as an algebra, and the lift that scatters its coordinates back
    into L.  The basis vectors kept are those that are not pivots of I's
    echelon basis; each bracket of two of them, reduced modulo I by the
    dense loop over I's rows, lies on the kept coordinates alone."""
    basis = ideal.basis
    kept = [i for i in range(alg.n) if i not in basis.pivot_cols]
    vectors = [alg.basis_vector(i) for i in kept]
    tensor = tuple(
        tuple(tuple(dense_reduce(alg.bracket(x, y), basis)[0][k] for k in kept) for y in vectors)
        for x in vectors
    )
    r = alg.sdim.even
    q = LieSuperalgebra(f"{alg.name}/~", tuple(alg.basis_names[i] for i in kept if i < r),
                        tuple(alg.basis_names[i] for i in kept if i >= r), tensor)

    def lift(w):
        out = [ZERO] * alg.n
        for i, x in zip(kept, w):
            out[i] = x
        return tuple(out)

    return q, lift


def central_quotient(alg):
    """L/Z(L) as an algebra, the way the invariants were computed before."""
    q, _ = quotient(alg, center(alg))
    return q


def quotient_series(alg):
    """Each step pulls the centre of L / Z_i back along the quotient map."""
    chain = []
    z_prev = zero_subspace(alg)
    while True:
        q, lift = quotient(alg, z_prev)
        lifted = [lift(row) for row in center(q).basis.matrix.entries]
        z_next = subspace_sum(z_prev, graded_span(alg, lifted))
        if z_next.sdim == z_prev.sdim:
            break
        chain.append(z_next)
        z_prev = z_next
        if z_next.sdim == alg.sdim:
            break
    return tuple(chain)


@pytest.mark.parametrize("alg", differential_corpus(), ids=lambda a: a.name)
def test_kernel_series_matches_quotient_series(alg):
    assert upper_central_series(alg) == quotient_series(alg)


@settings(max_examples=50, deadline=None)
@given(solvable_superalgebras())
def test_kernel_series_matches_quotient_series_on_solvable_draws(alg):
    assert upper_central_series(alg) == quotient_series(alg)


@pytest.mark.parametrize("alg", differential_corpus(), ids=lambda a: a.name)
def test_report_matches_central_quotient(alg):
    rep = invariant_report(alg)
    q_alg = central_quotient(alg)
    assert rep.sdim - rep.sdim_center == q_alg.sdim
    if rep.st is None:
        with pytest.raises(NotNilpotentError):
            generator_pair(q_alg)
    else:
        assert rep.generator_pair == generator_pair(q_alg)
        assert schur_bound_check(alg).sdim_central_quotient == q_alg.sdim


GUARD_ALGEBRAS = ("(3|2)_13", "(2|3)_18", "(4|0)_2")


@pytest.mark.parametrize("name", GUARD_ALGEBRAS)
def test_report_paths_build_no_quotient(name):
    alg = get(name).algebra
    rep = invariant_report(alg)
    assert st(alg) == rep.st
    assert schur_bound_check(alg).holds
    assert idstar_bound_check(alg).holds
    assert derivation_report(alg).bound == idstar_bound_check(alg)


def test_non_nilpotent_paths_build_no_quotient():
    alg = non_nilpotent_example()
    assert invariant_report(alg).st is None
    assert derivation_report(alg).bound is None
    for fn in (st, schur_bound_check, idstar_bound_check):
        with pytest.raises(NotNilpotentError, match="solvable is not nilpotent"):
            fn(alg)


def test_catalog_verification_builds_no_quotient():
    assert verify_table1().ok
    assert verify_classification().ok


@pytest.fixture
def kernel_widths(monkeypatch):
    """The widths of the kernels `derivations` solves, in call order."""
    widths = []
    solve = superstem.derivations.kernel_basis

    def counting(m):
        widths.append(m.cols)
        return solve(m)

    monkeypatch.setattr(superstem.derivations, "kernel_basis", counting)
    return widths


SOLVE_GUARD_ALGEBRAS = [get("(3|2)_13").algebra, heisenberg_even(2, 1), tower(3), abelian(1, 2)]


# each guard runs on a fresh copy: an algebra object keeps what was solved
# for it, so on a shared one the guard would read a kept value
@pytest.mark.parametrize("alg", SOLVE_GUARD_ALGEBRAS, ids=lambda a: a.name)
def test_derivation_report_solves_der_once(kernel_widths, alg):
    """Der is one n^2-wide kernel; ID is cut in Der's coordinates and ID*
    in ID's, one kernel each."""
    rep = derivation_report(parse(export(alg)))
    assert kernel_widths == [alg.n ** 2, rep.sdim_der.total, rep.sdim_id.total]


@pytest.mark.parametrize("alg", SOLVE_GUARD_ALGEBRAS, ids=lambda a: a.name)
def test_idstar_bound_check_solves_der_once(kernel_widths, alg):
    idstar_bound_check(parse(export(alg)))
    assert len(kernel_widths) == 3 and kernel_widths[0] == alg.n ** 2


def stacked_id_star(alg):
    """(ID, ID*) the way they were first computed: the derivation law, the
    image rows (each D(b_j) lies in [L,L]) and, for ID*, the kill rows
    (D vanishes on Z(L)) stacked into one system per parity, over the
    positions that parity allows.  The law rows are taken from `_law_rows`
    and moved into those positions; each is homogeneous, so it falls in one
    parity's system."""
    n, r = alg.n, alg.sdim.even
    law_rows = _law_rows(alg)
    derived = parity_parts(derived_subalgebra(alg))
    cent_rows = center(alg).basis.matrix.entries

    def image_rows(parity, pos_index):
        rows = []
        for j in range(n):
            out = (alg.parity(j) + parity) % 2
            part, offset = derived[out], (0, r)[out]
            for u in range(part.width):
                if u in part.pivot_cols:
                    continue
                row = [0] * len(pos_index)
                row[pos_index[offset + u, j]] = 1
                for basis_row, p in zip(part.matrix.entries, part.pivot_cols):
                    row[pos_index[offset + p, j]] -= basis_row[u]
                rows.append(row)
        return rows

    def kill_rows(parity, pos_index):
        rows = []
        for z in cent_rows:
            out = (vector_parity(alg, z) + parity) % 2
            for m in range(n):
                if alg.parity(m) == out:
                    row = [0] * len(pos_index)
                    for j, x in enumerate(z):
                        if x:
                            row[pos_index[m, j]] = x
                    rows.append(row)
        return rows

    def solve(parity, kill):
        positions = allowed_positions(alg, parity)
        pos_index = {pos: t for t, pos in enumerate(positions)}
        rows = []
        for law in law_rows:
            at = {pos_index.get(divmod(f, n)): x for f, x in law.items()}
            if None not in at:
                rows.append([at.get(t, 0) for t in range(len(positions))])
        rows += image_rows(parity, pos_index)
        if kill:
            rows += kill_rows(parity, pos_index)
        return embedded(kernel_basis(matrix(rows, cols=len(positions))), positions, n)

    return tuple(from_parts(alg, solve(0, kill), solve(1, kill)) for kill in (False, True))


def rescaled(alg):
    """The same algebra on the basis s_i b_i, s_i = (i+2)/(i+1):
    c'_ij^k = c_ij^k s_i s_j / s_k, so the systems are no longer integral."""
    s = [Fraction(i + 2, i + 1) for i in range(alg.n)]
    tensor = tuple(
        tuple(tuple(c * s[i] * s[j] / s[k] for k, c in enumerate(cell))
              for j, cell in enumerate(row))
        for i, row in enumerate(alg.tensor)
    )
    return LieSuperalgebra(f"{alg.name}*", alg.even_names, alg.odd_names, tensor)


def non_stem_examples():
    """Algebras with a central element outside [L,L], so that ID* < ID; on
    the acceptance corpus ID* = ID throughout and the kill rows cut nothing."""
    return [
        direct_sum(heisenberg_even(1, 0), abelian(1, 0)),
        direct_sum(heisenberg_odd(1), abelian(0, 1)),
        direct_sum(tower(3), abelian(1, 1)),
        direct_sum(get("(3|2)_13").algebra, abelian(0, 1)),
        direct_sum(get("(2|3)_18").algebra, abelian(1, 0)),
    ]


@pytest.mark.parametrize("alg", non_stem_examples(), ids=lambda a: a.name)
def test_non_stem_examples_separate_id_star_from_id(alg):
    id_space, idstar_space = id_star(alg)
    assert idstar_space.leq(id_space) and idstar_space.sdim != id_space.sdim


@pytest.mark.parametrize("alg", corpus() + non_stem_examples() + [non_nilpotent_example()],
                         ids=lambda a: a.name)
def test_id_star_matches_stacked_systems(alg):
    assert id_star(alg) == stacked_id_star(alg)


@pytest.mark.parametrize("alg", [e.algebra for e in entries()] + non_stem_examples(),
                         ids=lambda a: a.name)
def test_id_star_on_rescaled_basis(alg):
    copy = rescaled(alg)
    assert validate(copy).ok
    assert id_star(copy) == stacked_id_star(copy)
    rep, rep_copy = derivation_report(alg), derivation_report(copy)
    assert (rep_copy.sdim_der, rep_copy.sdim_inner, rep_copy.sdim_id, rep_copy.sdim_id_star) == (
        rep.sdim_der, rep.sdim_inner, rep.sdim_id, rep.sdim_id_star)
    assert st(copy) == st(alg)


def sheared(alg):
    """The same algebra on the basis b'_j = sum of b_i over the i <= j of
    b_j's parity block, so a basis of Z(L) is no longer made of (multiples
    of) basis vectors."""
    n, r = alg.n, alg.sdim.even
    start = [0 if j < r else r for j in range(n)]
    cols = [[Fraction(int(start[j] <= i <= j)) for i in range(n)] for j in range(n)]

    def coords(w):
        # the inverse change of basis: y_i = w_i - w_(i+1) inside a block
        return tuple(w[i] - w[i + 1] if i + 1 < n and start[i + 1] == start[i] else w[i]
                     for i in range(n))

    tensor = tuple(tuple(coords(alg.bracket(cols[i], cols[j])) for j in range(n)) for i in range(n))
    return LieSuperalgebra(f"{alg.name}/", alg.even_names, alg.odd_names, tensor)


@pytest.mark.parametrize("alg", non_stem_examples(), ids=lambda a: a.name)
def test_id_star_on_sheared_basis(alg):
    copy = sheared(alg)
    assert validate(copy).ok
    assert any(sum(map(bool, z)) > 1 for z in center(copy).basis.matrix.entries)
    id_space, idstar_space = id_star(copy)
    assert (id_space, idstar_space) == stacked_id_star(copy)
    assert (id_space.sdim, idstar_space.sdim) == tuple(s.sdim for s in id_star(alg))
