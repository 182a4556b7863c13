"""`validate` against the dense law check it replaced.

`validate` reads only the sparse brackets of basis pairs, and its Jacobi
check visits only the triples with a nonzero inner bracket.  The reference
below is the earlier version, which compared skew symmetry over the dense
structure tensor and visited every triple i <= j <= k; both must give
identical reports, every law flag and every (law, indices, detail), on the
acceptance corpus, on H(25,0) and tower(30), and on corrupted copies of
them, some of whose overwritten constants are fresh Fraction(0) objects.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as strat

from superstem.build import heisenberg_even, tower
from superstem.core import LawViolation, LieSuperalgebra, ValidationReport, validate
from superstem.linalg import ZERO

from test_acceptance import corpus


def _sign(exponent):
    return -1 if exponent % 2 else 1


def dense_validate(alg):
    n = alg.n
    p = [alg.parity(i) for i in range(n)]
    violations = []

    grading_ok = True
    for i in range(n):
        for j in range(n):
            want = (p[i] + p[j]) % 2
            for k, c in alg.basis_bracket(i, j):
                if p[k] != want:
                    grading_ok = False
                    violations.append(LawViolation(
                        "grading", (i, j, k),
                        f"[{alg.basis_names[i]}, {alg.basis_names[j]}] hits "
                        f"{alg.basis_names[k]} of the wrong parity"))
                    break
            if not grading_ok:
                break
        if not grading_ok:
            break

    skew_ok = True
    for i in range(n):
        for j in range(i, n):
            s = _sign(p[i] * p[j])
            for k in range(n):
                if alg.tensor[j][i][k] != -s * alg.tensor[i][j][k]:
                    skew_ok = False
                    violations.append(LawViolation(
                        "skew", (i, j, k),
                        f"[{alg.basis_names[j]}, {alg.basis_names[i]}] is not "
                        f"the signed mirror of the (i, j) orientation"))
                    break
            if not skew_ok:
                break
        if not skew_ok:
            break

    jacobi_ok = True
    for i in range(n):
        for j in range(i, n):
            for k in range(j, n):
                acc = [ZERO] * n
                for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
                    s = _sign(p[a] * p[c])
                    for m, coeff in alg.basis_bracket(b, c):
                        for t, coeff2 in alg.basis_bracket(a, m):
                            acc[t] += s * coeff * coeff2
                if any(acc):
                    jacobi_ok = False
                    violations.append(LawViolation(
                        "jacobi", (i, j, k),
                        f"graded Jacobi fails on ({alg.basis_names[i]}, "
                        f"{alg.basis_names[j]}, {alg.basis_names[k]})"))
                    break
            if not jacobi_ok:
                break
        if not jacobi_ok:
            break

    return ValidationReport(grading_ok, skew_ok, jacobi_ok, tuple(violations))


CORPUS = corpus()


@pytest.mark.parametrize("alg", CORPUS, ids=lambda a: a.name)
def test_corpus_matches_dense(alg):
    rep = validate(alg)
    assert rep == dense_validate(alg)
    assert rep.ok


values = strat.one_of(
    strat.builds(Fraction, strat.just(0)),
    strat.fractions(min_value=-3, max_value=3, max_denominator=3),
)


# sparse and large: 50 and 62 nonzero ordered brackets, n = 51 and 33
LARGE = [heisenberg_even(25, 0), tower(30)]


@pytest.mark.parametrize("alg", LARGE, ids=lambda a: a.name)
def test_large_sparse_algebras_match_dense(alg):
    rep = validate(alg)
    assert rep == dense_validate(alg)
    assert rep.ok


@strat.composite
def corrupted(draw, pool=CORPUS, writes=(1, 3)):
    """An algebra of the pool with some structure constants overwritten
    (1-3 by default); each write may also set the signed mirror, so that
    skew symmetry can hold while grading or Jacobi fail."""
    alg = pool[draw(strat.integers(0, len(pool) - 1))]
    n = alg.n
    tensor = [[list(row) for row in plane] for plane in alg.tensor]
    index = strat.integers(0, n - 1)
    for _ in range(draw(strat.integers(*writes))):
        i, j, k = draw(index), draw(index), draw(index)
        c = draw(values)
        tensor[i][j][k] = c
        if draw(strat.booleans()):
            tensor[j][i][k] = -_sign(alg.parity(i) * alg.parity(j)) * c
    frozen = tuple(tuple(tuple(row) for row in plane) for plane in tensor)
    return LieSuperalgebra(alg.name, alg.even_names, alg.odd_names, frozen)


@settings(max_examples=400, deadline=None)
@given(corrupted())
def test_corruptions_match_dense(alg):
    assert validate(alg) == dense_validate(alg)


@settings(max_examples=25, deadline=None)
@given(corrupted(LARGE, (1, 1)))
def test_large_algebras_with_one_corrupted_constant_match_dense(alg):
    assert validate(alg) == dense_validate(alg)


@pytest.mark.parametrize("alg, spot, first", [
    (LARGE[0], (30, 40, 7), (30, 32, 40)),   # [x31, x41] = x8, and [x8, x33] = z
    (LARGE[1], (20, 25, 27), (0, 19, 25)),   # [s20, s25] = s27, and [s, s19] = s20
], ids=("H(25,0)", "tower(30)"))
def test_late_jacobi_violation_is_found_first_in_order(alg, spot, first):
    """One skew-consistent corrupted bracket: the first Jacobi violation in
    i <= j <= k order is the dense reference's, well past the first triples."""
    i, j, k = spot
    tensor = [[list(row) for row in plane] for plane in alg.tensor]
    tensor[i][j][k] = Fraction(1)
    tensor[j][i][k] = Fraction(-1)
    broken = LieSuperalgebra(alg.name, alg.even_names, alg.odd_names,
                             tuple(tuple(map(tuple, plane)) for plane in tensor))
    rep = validate(broken)
    assert rep == dense_validate(broken)
    assert rep.skew_ok and rep.grading_ok and not rep.jacobi_ok
    assert rep.violations[0].indices == first
