import pytest
from hypothesis import given, settings
from hypothesis import strategies as strat

from superstem.build import algebra_from_relations, heisenberg_even, heisenberg_odd
from superstem.catalog import get
from superstem.core import (
    MAX_BASIS,
    MixedParityError,
    SuperDim,
    from_brackets,
    graded_span,
    subspace_contains,
    subspace_intersect,
    subspace_leq,
    subspace_sum,
    validate,
    vector_parity,
)
from superstem.invariants import center, derived_subalgebra
from superstem.linalg import ONE, ZERO, frac

rationals = strat.fractions(max_denominator=4).map(frac)


def test_superdim_arithmetic():
    a, b = SuperDim(3, 1), SuperDim(1, 1)
    assert a + b == SuperDim(4, 2)
    assert a - b == SuperDim(2, 0)
    assert a.total == 4
    assert str(a) == "(3|1)"
    assert tuple(a) == (3, 1)


def test_from_brackets_refuses_more_than_max_basis():
    names = tuple(f"e{i}" for i in range(MAX_BASIS + 1))
    assert from_brackets("fits", names[:-1], (), {}).n == MAX_BASIS
    with pytest.raises(ValueError, match="129 basis vectors"):
        from_brackets("big", names[:-1], names[-1:], {})


def test_basis_vector_uses_shared_scalars():
    alg = get("(2|2)_6").algebra
    for i in range(alg.n):
        v = alg.basis_vector(i)
        assert all(x is (ONE if j == i else ZERO) for j, x in enumerate(v))


def test_superdim_partial_order():
    assert SuperDim(1, 1) <= SuperDim(2, 1)
    assert not SuperDim(2, 0) <= SuperDim(1, 3)
    assert not SuperDim(1, 3) <= SuperDim(2, 0)
    with pytest.raises(ValueError):
        SuperDim(1, 0) - SuperDim(0, 1)


def test_parity_and_names():
    alg = get("(3|2)_13").algebra
    assert alg.sdim == SuperDim(3, 2)
    assert [alg.parity(i) for i in range(alg.n)] == [0, 0, 0, 1, 1]
    assert alg.basis_names == ("e1", "e2", "e3", "f1", "f2")


def test_bracket_on_basis():
    alg = get("(3|2)_13").algebra
    f2 = alg.basis_vector(4)
    # [f2, f2] = 2 e2
    assert alg.bracket(f2, f2) == (frac(0), frac(2), frac(0), frac(0), frac(0))
    # mirror orientation of [e1, f2] = f1 carries the sign -(-1)^(0*1) = -1
    e1 = alg.basis_vector(0)
    assert alg.bracket(f2, e1) == (frac(0), frac(0), frac(0), frac(-1), frac(0))


def vectors(n):
    return strat.lists(rationals, min_size=n, max_size=n).map(tuple)


@settings(max_examples=40)
@given(strat.data())
def test_bracket_is_bilinear(data):
    alg = get("(2|3)_21").algebra
    x = data.draw(vectors(alg.n))
    y = data.draw(vectors(alg.n))
    z = data.draw(vectors(alg.n))
    c = data.draw(rationals)
    lhs = alg.bracket(tuple(a + c * b for a, b in zip(x, y)), z)
    rhs = tuple(
        p + c * q for p, q in zip(alg.bracket(x, z), alg.bracket(y, z))
    )
    assert lhs == rhs


@settings(max_examples=40)
@given(strat.data())
def test_super_skew_on_homogeneous_vectors(data):
    alg = get("(2|3)_18").algebra
    r = alg.sdim.even
    par = data.draw(strat.integers(0, 1))
    if par == 0:
        x = data.draw(vectors(r)) + (frac(0),) * alg.sdim.odd
        y = data.draw(vectors(r)) + (frac(0),) * alg.sdim.odd
    else:
        x = (frac(0),) * r + data.draw(vectors(alg.sdim.odd))
        y = (frac(0),) * r + data.draw(vectors(alg.sdim.odd))
    sign = -1 if par == 1 else 1
    lhs = alg.bracket(x, y)
    rhs = tuple(sign * -v for v in alg.bracket(y, x))
    assert lhs == rhs


def test_vector_parity():
    alg = get("(2|2)_6").algebra
    assert vector_parity(alg, (frac(1), frac(2), frac(0), frac(0))) == 0
    assert vector_parity(alg, (frac(0), frac(0), frac(1), frac(0))) == 1
    assert vector_parity(alg, alg.zero()) is None
    with pytest.raises(MixedParityError):
        vector_parity(alg, (frac(1), frac(0), frac(1), frac(0)))


def test_validate_accepts_catalog_entry():
    rep = validate(get("(2|3)_21").algebra)
    assert rep.ok and rep.violations == ()


def test_validate_catches_grading_violation():
    # an even-odd bracket landing in the even part
    alg = algebra_from_relations("bad", ("e1",), ("f1",), [(0, 1, {0: frac(1)})])
    rep = validate(alg)
    assert not rep.grading_ok
    assert rep.violations[0].law == "grading"


def test_validate_catches_skew_violation():
    # hand-built tensor with both orientations equal (no mirror sign)
    one, zero = frac(1), frac(0)
    tensor = (
        ((zero, zero, zero), (zero, zero, one), (zero, zero, zero)),
        ((zero, zero, one), (zero, zero, zero), (zero, zero, zero)),
        ((zero, zero, zero), (zero, zero, zero), (zero, zero, zero)),
    )
    from superstem.core import LieSuperalgebra

    alg = LieSuperalgebra("bad", ("e1", "e2", "e3"), (), tensor)
    rep = validate(alg)
    assert not rep.skew_ok


def test_validate_catches_even_jacobi_violation():
    # [e1,e2]=e3, [e2,e3]=e1, [e3,e1]=e3 fails on the triple (e1,e2,e3)
    alg = algebra_from_relations(
        "bad", ("e1", "e2", "e3"), (),
        [(0, 1, {2: frac(1)}), (1, 2, {0: frac(1)}), (2, 0, {2: frac(1)})],
    )
    rep = validate(alg)
    assert rep.grading_ok and rep.skew_ok and not rep.jacobi_ok
    assert rep.violations[0].indices == (0, 1, 2)


def test_validate_catches_odd_jacobi_violation():
    # [f1,f1]=e1 with [e1,f1]=f1 breaks the odd triple (f1,f1,f1)
    alg = algebra_from_relations(
        "bad", ("e1",), ("f1",),
        [(1, 1, {0: frac(1)}), (0, 1, {1: frac(1)})],
    )
    rep = validate(alg)
    assert not rep.jacobi_ok


def test_graded_span_and_containment():
    alg = heisenberg_even(1, 1)  # even x1, x2, z; odd y1
    z = alg.basis_vector(2)
    y = alg.basis_vector(3)
    space = graded_span(alg, [z, y])
    assert space.sdim == SuperDim(1, 1)
    assert subspace_contains(alg, space, tuple(2 * a + 3 * b for a, b in zip(z, y)))
    assert not subspace_contains(alg, space, alg.basis_vector(0))


# H(1,0) and H_1 both have n = 3, with even widths 3 and 1; H(1,1) has n = 4
H10, H_1, H11 = heisenberg_even(1, 0), heisenberg_odd(1), heisenberg_even(1, 1)


@pytest.mark.parametrize("op", (subspace_sum, subspace_intersect, subspace_leq), ids=lambda op: op.__name__)
def test_subspace_operations_refuse_two_algebras(op):
    for other in (H_1, H11):
        with pytest.raises(ValueError, match="different algebras"):
            op(center(H10), derived_subalgebra(other))


def test_subspace_contains_refuses_a_subspace_of_another_algebra():
    # z is even in H(1,0) and odd in H_1, at index 2 in both
    for other in (H_1, H11):
        with pytest.raises(ValueError, match="different algebra"):
            subspace_contains(H10, center(other), H10.basis_vector(2))


def test_graded_span_rejects_mixed_vectors():
    alg = heisenberg_even(1, 1)
    mixed = tuple(a + b for a, b in zip(alg.basis_vector(0), alg.basis_vector(3)))
    with pytest.raises(MixedParityError):
        graded_span(alg, [mixed])
