"""A search of the paper's classification over random nilpotent superalgebras.

Every finite-dimensional nilpotent Lie superalgebra arises from an abelian
one by iterated central extensions (Skjelbred and Sund, C. R. Acad. Sci.
Paris 286, 1978).  The strategy below draws A(a|b) and extends it 1-5
times by a central basis vector z of drawn parity, with
[b_i, b_j] += theta(b_i, b_j) z for a graded 2-cocycle theta.  Each draw is
then checked against the theorem that `catalog` carries: st(L) >= (0|0),
st(L) != (0|1), and for a classified st the stem part of L looks like a
listed head.  "Looks like" is an equal fingerprint, a necessary condition
and not an isomorphism test.  The draws also carry a check that the
invariants do not depend on the basis.  `solvable_superalgebras` extends a
nilpotent draw by an even derivation, for the tests elsewhere that need
draws which are mostly not nilpotent.
"""

from fractions import Fraction
from functools import cache

from hypothesis import given, settings
from hypothesis import strategies as strat

from superstem.build import abelian, algebra_from_relations, heisenberg_even, heisenberg_odd
from superstem.catalog import classified_values, heads_for
from superstem.core import SuperDim, from_brackets, validate
from superstem.derivations import derivation_report, derivation_space
from superstem.invariants import invariant_report, stem_decomposition
from superstem.linalg import kernel_basis, sparse_matrix


def cocycle_basis(alg, pz):
    """The pairs (i, j), i <= j, that a graded 2-cocycle theta of alg with
    values in F z, |z| = pz, may be nonzero on, and a basis of those
    cocycles, each row the support of its values on the pairs.

    The unknowns are theta(b_i, b_j) for i <= j with |i| + |j| = |z|, none
    for i = j even.  Each triple i <= j <= k gives the row
    sum over the cyclic shifts (a, b, c) of (i, j, k) of
    (-1)^(|a||c|) theta(b_a, [b_b, b_c]): the z-part of the graded Jacobi
    sum that `validate` checks.
    """
    n = alg.n
    p = [alg.parity(i) for i in range(n)]
    pairs = [(i, j) for i in range(n) for j in range(i, n)
             if (p[i] + p[j]) % 2 == pz and not (i == j and p[i] == 0)]
    col = {pair: c for c, pair in enumerate(pairs)}

    def theta(a, m):
        """theta(b_a, b_m) as {unknown: coefficient}."""
        if a <= m:
            return {col[a, m]: 1} if (a, m) in col else {}
        return {col[m, a]: -(-1) ** (p[a] * p[m])} if (m, a) in col else {}

    rows = []
    for i in range(n):
        for j in range(i, n):
            for k in range(j, n):
                row = {}
                for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                    s = (-1) ** (p[a] * p[c])
                    for m, x in alg.basis_bracket(b, c):
                        for u, y in theta(a, m).items():
                            row[u] = row.get(u, 0) + s * x * y
                rows.append(row)
    return pairs, kernel_basis(sparse_matrix(rows, len(pairs))).matrix.support


def central_extension(draw, alg, pz):
    """alg extended by a central basis vector z of parity pz, with
    [b_i, b_j] += theta(b_i, b_j) z for a drawn integer combination theta of
    the graded 2-cocycles."""
    pairs, cocycles = cocycle_basis(alg, pz)
    theta = {}
    for cocycle in cocycles:
        c = draw(strat.integers(-2, 2))
        for u, x in cocycle:
            theta[pairs[u]] = theta.get(pairs[u], 0) + c * x
    r, n = alg.sdim.even, alg.n
    # z goes last among the basis vectors of its parity
    z = r if pz == 0 else n
    move = [i if i < z else i + 1 for i in range(n)]
    relations = []
    for i in range(n):
        for j in range(i, n):
            value = {move[k]: x for k, x in alg.basis_bracket(i, j)}
            if theta.get((i, j)):
                value[z] = theta[i, j]
            if value:
                relations.append((move[i], move[j], value))
    even, odd = list(alg.even_names), list(alg.odd_names)
    (odd if pz else even).append(f"z{n + 1}")
    return algebra_from_relations("draw", even, odd, relations)


@strat.composite
def nilpotent_superalgebras(draw):
    alg = abelian(draw(strat.integers(1, 3)), draw(strat.integers(0, 3)))
    for _ in range(draw(strat.integers(1, 5))):
        alg = central_extension(draw, alg, draw(strat.integers(0, 1)))
    return alg


def semidirect_extension(draw, alg):
    """alg with an even basis vector h added, [h, x] = D(x) and
    [x, h] = -D(x), for D a drawn integer combination of the even maps of
    derivation_space(alg).  Jacobi holds because D is an even derivation;
    [h, h] = 0 as h is even."""
    n, h = alg.n, alg.sdim.even
    # h goes last among the even basis vectors
    move = [i if i < h else i + 1 for i in range(n)]
    values = [{} for _ in range(n)]  # D(b_j) in the new basis; zeros are dropped later
    for d in derivation_space(alg).maps(0):
        c = draw(strat.integers(-2, 2))
        for f, x in d.row:
            i, j = divmod(f, n)
            values[j][move[i]] = values[j].get(move[i], 0) + c * x
    relations = [(move[i], move[j], {move[k]: x for k, x in support})
                 for i, j, support in alg.nonzero_brackets if i <= j]
    relations += [(h, move[j], value) for j, value in enumerate(values) if value]
    return algebra_from_relations("draw+h", (*alg.even_names, "h"), alg.odd_names, relations)


@strat.composite
def solvable_superalgebras(draw):
    """A nilpotent draw extended by an even derivation: mostly not
    nilpotent, and h reaches every basis vector in the image of D."""
    return semidirect_extension(draw, draw(nilpotent_superalgebras()))


@strat.composite
def nilpotent_superalgebras_of_shape(draw, even, odd):
    """A random nilpotent superalgebra of sdim (even|odd): an abelian one,
    extended centrally by the remaining basis vectors in a drawn order."""
    a, b = draw(strat.integers(0, even)), draw(strat.integers(0, odd))
    alg = abelian(a, b)
    for pz in draw(strat.permutations([0] * (even - a) + [1] * (odd - b))):
        alg = central_extension(draw, alg, pz)
    return alg


def fingerprint(alg):
    rep, der = invariant_report(alg), derivation_report(alg)
    return (rep.sdim, rep.sdim_derived, rep.sdim_center, rep.central_series,
            der.sdim_der, der.sdim_inner, der.sdim_id, der.sdim_id_star)


@cache
def head_fingerprints(value):
    return {fingerprint(head) for _, head in heads_for(value)}


def heisenberg_fingerprints(sdim):
    """The fingerprints of H((p-1)/2, q) and H_p for sdim (p|q), for those
    of the two that exist."""
    p, q = sdim.even, sdim.odd
    heads = []
    if p % 2 and (p - 1) // 2 + q >= 1:
        heads.append(heisenberg_even((p - 1) // 2, q))
    if p >= 1 and q == p + 1:
        heads.append(heisenberg_odd(p))
    return {fingerprint(head) for head in heads}


@settings(max_examples=100, deadline=None)
@given(nilpotent_superalgebras())
def test_random_nilpotent_superalgebras_obey_the_classification(alg):
    assert validate(alg).ok
    value = invariant_report(alg).st
    assert value is not None
    assert SuperDim(0, 0) <= value and value != SuperDim(0, 1)
    if value not in classified_values():
        return
    stem, _ = stem_decomposition(alg)
    if value != SuperDim(0, 0):
        assert fingerprint(stem) in head_fingerprints(value)
    elif stem.n:
        assert fingerprint(stem) in heisenberg_fingerprints(stem.sdim)


SCALES = tuple(Fraction(x) for x in ("1", "-1", "2", "-2", "1/2", "-1/2", "3", "1/3", "2/3", "-3/2"))


def rebased(alg, rng):
    """alg in the basis of the columns of P = U D, U unit upper-triangular
    with k // 2 off-diagonal entries +-1 in each parity block of size k and
    D a diagonal of small rationals, so every new basis vector is
    homogeneous; the new table is denser and no longer integral."""
    n, r = alg.n, alg.sdim.even
    upper = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for lo, hi in ((0, r), (r, n)):
        for j in rng.sample(range(lo + 1, hi), (hi - lo) // 2):
            upper[rng.randrange(lo, j)][j] = Fraction(rng.choice((1, -1)))
    diag = [rng.choice(SCALES) for _ in range(n)]
    cols = [[upper[i][j] * diag[j] for i in range(n)] for j in range(n)]

    def coords(w):
        # solve U D y = w by back substitution
        y = [Fraction(0)] * n
        for k in reversed(range(n)):
            y[k] = w[k] - sum(upper[k][m] * y[m] for m in range(k + 1, n))
        return [y[k] / diag[k] for k in range(n)]

    brackets = {(i, j): [(k, x) for k, x in enumerate(coords(alg.bracket(cols[i], cols[j]))) if x]
                for i in range(n) for j in range(n)}
    return from_brackets("rebased", alg.even_names, alg.odd_names, brackets)


def basis_free_part(alg):
    rep, der = invariant_report(alg), derivation_report(alg)
    bound = None if der.bound is None else der.bound._replace(name=None)
    return rep._replace(name=None), der._replace(name=None, bound=bound)


@settings(max_examples=50, deadline=None)
@given(nilpotent_superalgebras(), strat.randoms(use_true_random=False))
def test_invariants_do_not_depend_on_the_basis(alg, rng):
    changed = rebased(alg, rng)
    assert validate(changed).ok
    rep, der = basis_free_part(alg)
    assert basis_free_part(changed) == (rep, der)
    # every draw is nilpotent, so the chain and the ID* bound of the paper hold
    assert der.chain_ok and der.bound is not None and der.bound.holds
