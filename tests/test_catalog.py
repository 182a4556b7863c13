from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as strat

from superstem.build import algebra_from_relations, heisenberg_even
from superstem.catalog import (
    UnknownEntryError,
    entries,
    get,
    names,
    verify_classification,
    verify_table1,
)
from superstem.core import SuperDim, validate
from superstem.derivations import derivation_report
from superstem.invariants import invariant_report, is_stem, st


def test_catalog_size_and_names():
    assert len(names()) == 32
    assert len(set(names())) == 32
    assert [e.name for e in entries()] == list(names())


def test_unknown_entry():
    with pytest.raises(UnknownEntryError):
        get("(9|9)_1")


def test_entry_shape_matches_its_name():
    for entry in entries():
        k, rest = entry.name[1:].split("|")
        l = rest.split(")")[0]
        assert entry.algebra.sdim == SuperDim(int(k), int(l)), entry.name


@settings(max_examples=40, deadline=None)
@given(strat.sampled_from(names()))
def test_every_entry_satisfies_the_law(name):
    assert validate(get(name).algebra).ok


def test_every_entry_is_stem():
    for entry in entries():
        assert is_stem(entry.algebra), entry.name


def test_stored_rows():
    frozen = {
        "(4|0)_2": (SuperDim(3, 0), SuperDim(2, 0), SuperDim(2, 0)),
        "(3|2)_13": (SuperDim(2, 2), SuperDim(1, 1), SuperDim(2, 1)),
        "(2|3)_21": (SuperDim(1, 3), SuperDim(1, 1), SuperDim(1, 2)),
    }
    for name, (quot, pair, derived) in frozen.items():
        entry = get(name)
        assert entry.sdim_central_quotient == quot
        assert entry.generator_pair == pair
        assert entry.sdim_derived == derived


def test_table_verification_is_exact():
    report = verify_table1()
    assert len(report.rows) == 32
    assert report.ok
    for row in report.rows:
        assert row.stored == row.computed, row.name


def test_classification_verification():
    report = verify_classification()
    assert report.ok
    assert len(report.checks) > 100
    described = {c.description for c in report.checks}
    assert "(4|0)_2" in described
    assert "(2|2)_6 + A(2|2)" in described


def test_classified_st_values_by_entry():
    by_value = {}
    for entry in entries():
        by_value.setdefault(str(st(entry.algebra)), set()).add(entry.name)
    assert by_value["(1|0)"] == {"(4|0)_2", "(1|3)_1"}
    assert by_value["(2|0)"] == {"(5|0)_3", "(5|0)_4", "(5|0)_5", "(1|4)_7", "(2|3)_21"}
    assert by_value["(0|2)"] == {"(2|2)_1", "(2|2)_4", "(2|3)_18", "(2|3)_22"}
    assert by_value["(1|1)"] == {"(2|2)_6", "(4|1)_6", "(3|2)_13"}
    # no entry with st = (0|0) or (0|1); the rest sit at t >= 3
    assert "(0|0)" not in by_value
    assert "(0|1)" not in by_value
    others = set(names())
    for key in ("(1|0)", "(2|0)", "(0|2)", "(1|1)"):
        others -= by_value[key]
    for name in others:
        assert st(get(name).algebra).total >= 3, name


# The list is complete over an algebraically closed field, not over Q.
# K = <z | y1, y2> with [y1, y1] = z, [y2, y2] = -z has the fingerprint of
# H(0,2), and T = <e1, e2 | f1, f2> with [f1, f1] = e1, [f2, f2] = c e1,
# [f1, f2] = e2 (c = 2) that of (2|2)_1; one exact invariant of the odd forms
# [y_a, y_b] in each even basis vector tells each pair apart over Q.
K = algebra_from_relations("K", ("z",), ("y1", "y2"), [(1, 1, {0: 1}), (2, 2, {0: -1})])


def twist(c):
    return algebra_from_relations("T", ("e1", "e2"), ("f1", "f2"),
                                  [(2, 2, {0: 1}), (3, 3, {0: c}), (2, 3, {1: 1})])


def odd_forms(alg):
    """Q_k[a][b], the coefficient of the k-th even vector in [y_a, y_b]."""
    r, n = alg.sdim.even, alg.n
    return [[[dict(alg.basis_bracket(a, b)).get(k, 0) for b in range(r, n)] for a in range(r, n)]
            for k in range(r)]


def signature(q):
    """Positive minus negative pivots of the symmetric rational form q, by
    symmetric elimination; a zero diagonal is first mended by x_i += x_j."""
    q = [[Fraction(x) for x in row] for row in q]
    sig = 0
    while q:
        k = next((i for i in range(len(q)) if q[i][i]), None)
        if k is None:
            pair = next(((i, j) for i, row in enumerate(q) for j, x in enumerate(row) if x), None)
            if pair is None:
                break
            k, j = pair
            for row in q:
                row[k] += row[j]
            q[k] = [x + y for x, y in zip(q[k], q[j])]
        p = q[k][k]
        sig += 1 if p > 0 else -1
        q = [[x - row[k] * q[k][j] / p for j, x in enumerate(row) if j != k]
             for i, row in enumerate(q) if i != k]
    return sig


def pencil_has_rational_root(alg):
    """Whether det(a Q1 + b Q2) = alpha a^2 + beta ab + gamma b^2 vanishes
    at a rational point [a:b]: its discriminant is a rational square."""
    (p, q), (s, t) = odd_forms(alg)[0]
    (u, v), (w, x) = odd_forms(alg)[1]
    alpha, gamma, beta = p * t - q * s, u * x - v * w, p * x + t * u - q * w - s * v
    d = Fraction(beta * beta - 4 * alpha * gamma)
    return d >= 0 and isqrt(d.numerator) ** 2 == d.numerator and isqrt(d.denominator) ** 2 == d.denominator


def without_names(report):
    bound = getattr(report, "bound", None)
    return report._replace(name="", **({"bound": bound._replace(name="")} if bound else {}))


@pytest.mark.parametrize("alg, head, sdim_st", [
    (K, heisenberg_even(0, 2), SuperDim(0, 0)),
    (twist(2), get("(2|2)_1").algebra, SuperDim(0, 2)),
], ids=["K", "T"])
def test_rational_twin_has_the_fingerprint_of_its_head(alg, head, sdim_st):
    assert validate(alg).ok and is_stem(alg) and st(alg) == sdim_st
    for report in (invariant_report, derivation_report):
        assert without_names(report(alg)) == without_names(report(head))


def test_odd_form_signature_separates_k_from_h02():
    # a hyperbolic plane and diag(3, -1) in another basis: zero and nonzero diagonals
    assert signature([[0, 1], [1, 0]]) == signature([[1, 2], [2, 1]]) == 0
    assert signature(odd_forms(K)[0]) == 0
    assert abs(signature(odd_forms(heisenberg_even(0, 2))[0])) == 2


def test_pencil_separates_t_from_2_2_1():
    assert not pencil_has_rational_root(twist(2))
    assert pencil_has_rational_root(get("(2|2)_1").algebra)
    assert pencil_has_rational_root(twist(1)) and pencil_has_rational_root(twist(4))
