"""Seeded, parity-preserving changes of basis for the rebased items of the
`derivations` workload.

The new basis is the columns of P = U D, built separately on the even and
the odd block so that every new basis vector stays homogeneous:

* U is unit upper-triangular.  Of the columns after the first of its
  block, k // 2 chosen at random (k the size of the block) get a single
  off-diagonal entry +1 or -1 in a random earlier row of the same block.
* D is diagonal, each entry drawn from a short list of small rationals.

Every invariant the benchmark checks (Der, ad, ID, ID* dimensions, the
chain and the bound) is basis-independent, so a rebased algebra must give
the original's output apart from its name.  The new structure constants
are denser than the original ones and are no longer integers, which is
what these items are for.

Why this form and not a dense random matrix: the cost of the exact solvers
grows with the density and the height of the structure constants, and a
dense change of basis makes both explode.  Measured on a 2-core x86-64 box
(Python 3.11): `derivation_report(tower(8))` takes 0.19-0.34 s as given, 5.2 s
after a sparse unit-triangular change whose off-diagonal entries appear
with probability 0.3, 24 s after a dense unit-triangular change with
entries in [-3, 3], and 200 s after a dense random matrix with entries
in [-3, 3] (its structure tensor goes from 18 to 1188 nonzeros).
One such item would dominate every pass and swing with the seed, so the
workload keeps the sparse form and leaves the dense one out.  The number of
off-diagonal entries is fixed rather than drawn for the same reason: the
cost of `derivations` on a rebased (5|0) algebra goes from about 20 ms
with none to 190 ms with four, so a drawn count made the slowest items,
and with them item_tail_ms, swing with the seed.
"""

from __future__ import annotations

import random
from fractions import Fraction

from superstem.build import algebra_from_relations
from superstem.core import LieSuperalgebra, validate

SCALES = tuple(Fraction(x) for x in ("1", "-1", "2", "-2", "1/2", "-1/2", "3", "1/3", "2/3", "-3/2"))


def rebase(alg: LieSuperalgebra, rng: random.Random, name: str) -> LieSuperalgebra:
    """`alg` rewritten in a random sparse homogeneous basis, checked with validate."""
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
            y[k] = w[k] - sum(upper[k][l] * y[l] for l in range(k + 1, n) if upper[k][l])
        return [y[k] / diag[k] for k in range(n)]

    rels = []
    for i in range(n):
        for j in range(i, n):
            if i == j and i < r:
                continue
            c = coords(alg.bracket(cols[i], cols[j]))
            if any(c):
                rels.append((i, j, {k: x for k, x in enumerate(c) if x}))
    out = algebra_from_relations(name, alg.even_names, alg.odd_names, rels)
    report = validate(out)
    if not report.ok:
        raise ValueError(f"rebased {alg.name} breaks a bracket law: {report.violations[:1]}")
    return out
