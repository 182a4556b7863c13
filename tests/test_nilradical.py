"""The nilradical family n(m|k), a dense exact test family.

n(m|k) is the strictly upper triangular part of gl(m|k): the matrix units
E_ab, a < b, over the indices 0 .. m+k-1 of which the first m are even,
with |E_ab| = |a| + |b| and the supercommutator

    [E_ab, E_cd] = delta_bc E_ad - (-1)^(|E_ab| |E_cd|) delta_da E_cb.

Jacobi holds because gl(m|k) is a Lie superalgebra and the strictly upper
triangular part is closed under its bracket.  The family is dense: the
ordered basis pairs with a nonzero bracket are the (E_ab, E_bd) and
(E_bd, E_ab) for a < b < d, 2 C(m+k, 3) of them, against about 2n for
the towers, so its Der system is far denser than theirs.  The closure
of Der against the dense references runs on these algebras in
`test_sparse_maps.py`, the sympy oracle on n(2|2), n(3|3) and n(4|4) in
`test_oracle_sympy.py`.
"""

from math import comb

import pytest

from superstem.build import algebra_from_relations
from superstem.core import validate
from superstem.derivations import derivation_space
from superstem.invariants import invariant_report


def nilradical(m: int, k: int):
    """n(m|k), its basis E_ab named "e{a}{b}", even units before odd ones."""
    size = m + k
    units = [(a, b) for a in range(size) for b in range(a + 1, size)]

    def parity(unit):
        return ((unit[0] >= m) + (unit[1] >= m)) % 2

    basis = [u for u in units if not parity(u)] + [u for u in units if parity(u)]
    index = {u: t for t, u in enumerate(basis)}
    relations = []
    for s, (a, b) in enumerate(basis):
        for (c, d) in basis[s:]:
            value = {}
            if b == c:
                value[index[a, d]] = 1
            if d == a:
                value[index[c, b]] = -(-1) ** (parity((a, b)) * parity((c, d)))
            if value:
                relations.append((s, index[c, d], value))
    names = [f"e{a}{b}" for a, b in basis]
    even = sum(1 for u in basis if not parity(u))
    return algebra_from_relations(f"n({m}|{k})", names[:even], names[even:], relations)


# (m, k) and the dimension of Der(n(m|k))
FAMILY = [((2, 2), 11), ((3, 2), 17), ((3, 3), 24)]


@pytest.mark.parametrize("shape, der_dim", FAMILY, ids=str)
def test_nilradical_is_a_nilpotent_superalgebra(shape, der_dim):
    m, k = shape
    alg = nilradical(m, k)
    size = m + k
    assert alg.n == size * (size - 1) // 2
    assert len(alg.nonzero_brackets) == 2 * comb(size, 3)
    assert validate(alg).ok
    assert invariant_report(alg).nilpotency_class == size - 1
    assert sum(derivation_space(alg).sdim) == der_dim

