"""Superderivation spaces and their distinguished subspaces.

A degree-alpha map D satisfies D[x, y] = [Dx, y] + (-1)^(alpha |x|) [x, Dy]
on homogeneous x, y.  Matrices follow the column convention: M[i][j] is the
coefficient of basis vector i in D(basis vector j), so only positions with
parity(i) = parity(j) + alpha can be nonzero.  A space of maps, both degrees
together, is one reduced echelon basis in the row-major flattening i n + j
of the full n x n matrix, with homogeneous rows whose degree is read from
their pivots.  Der is one kernel of the law rows over all n^2 positions, ad
one row reduction, and ID and ID* one kernel each in the coordinates of the
space they are cut from.  Each space is solved once per algebra object and
kept (core._per_algebra), so ID, ID* and the reports read the kept Der,
[L,L] and Z(L).  The solvers trust the parities of the basis, so every call
first checks that the table is graded (core.check_grading).

Maps and echelon bases are Matrix values, which store only the nonzero
(column, value) pairs of each row.  The law rows, applying a map, brackets
of maps, membership in a space, containment of spaces and the images of the
centre are built from and work on these pairs alone, so their cost follows
the nonzeros rather than n^2.  A map keeps the list of its nonzero entries
(i, j, x) after its first bracket, as an echelon basis keeps its rows by
pivot, and `der_bracket` walks those entries and the rows they name, sums
into one dict keyed (i, j) and builds only the rows that come out nonzero;
`contains` passes over the empty rows of a map, stops at its first nonzero
of the wrong degree and reduces nothing for the zero map.  So a bracket and
a membership test cost the nonzeros of their maps, not n rows each.
"""

from __future__ import annotations

from functools import cached_property
from typing import Sequence

from ._record import Record
from .core import LieSuperalgebra, SuperDim, _per_algebra
from .invariants import _nilpotent_report, center, derived_subalgebra, invariant_report
from .linalg import (
    EchelonBasis,
    Matrix,
    ONE,
    ZERO,
    Scalar,
    _canon,
    frac,
    kernel_basis,
    mat_mul,
    reduce_mod,
    rref,
    sparse_matrix,
)


class GradedLinearMap(Record):
    parity: int
    matrix: Matrix

    def apply(self, v: Sequence[Scalar]) -> tuple[Scalar, ...]:
        if len(v) != self.matrix.cols:
            raise ValueError("vector length does not match column count")
        return tuple(frac(sum([x * v[j] for j, x in row if v[j]], ZERO)) for row in self.matrix.support)

    @cached_property
    def _entries(self) -> tuple[tuple[int, int, Scalar], ...]:
        """The nonzero entries (i, j, x), in row-major order, built on first use."""
        return tuple([(i, j, x) for i, row in enumerate(self.matrix.support) if row for j, x in row])


def _square(n: int, rows: dict[int, list[tuple[int, Scalar]]]) -> Matrix:
    """The n x n Matrix whose nonzero rows are given as {i: (j, x) pairs in
    column order}; every other row is the shared empty one."""
    support: list[tuple[tuple[int, Scalar], ...]] = [()] * n
    for i, row in rows.items():
        support[i] = tuple(row)
    return Matrix(n, n, tuple(support))


class DerivationSpace(Record):
    """A space of maps of L held as one reduced echelon basis of width n^2.

    Entry (i, j) of a map, the coefficient of b_i in D(b_j), is column
    i n + j.  Every row is homogeneous: its degree is |i| + |j| at each of
    its nonzeros, read against even_width, and so at its pivot.  Equality
    of spaces is field equality.
    """

    n: int
    basis: EchelonBasis
    even_width: int

    def _degree(self, f: int) -> int:
        """The degree of the maps whose only nonzero is at column f."""
        i, j = divmod(f, self.n)
        return int((i >= self.even_width) != (j >= self.even_width))

    @property
    def sdim(self) -> SuperDim:
        odd = sum(map(self._degree, self.basis.pivot_cols))
        return SuperDim(self.basis.dim - odd, odd)

    def maps(self, parity: int) -> tuple[GradedLinearMap, ...]:
        n = self.n
        out = []
        for p, flat in zip(self.basis.pivot_cols, self.basis.matrix.support):
            if self._degree(p) == parity:
                rows: dict[int, list[tuple[int, Scalar]]] = {}
                for f, x in flat:
                    i, j = divmod(f, n)
                    rows.setdefault(i, []).append((j, x))
                out.append(GradedLinearMap(parity, _square(n, rows)))
        return tuple(out)

    def contains(self, m: GradedLinearMap) -> bool:
        """Whether m lies in the space; False when a nonzero of m is not of
        m's own degree."""
        n, r, odd = self.n, self.even_width, bool(m.parity)
        if (m.matrix.rows, m.matrix.cols) != (n, n):
            raise ValueError("map is not n x n")
        flat = []
        for i, row in enumerate(m.matrix.support):
            if row:
                for j, x in row:
                    if ((i >= r) != (j >= r)) != odd:
                        return False
                    flat.append((i * n + j, x))
        return not flat or not reduce_mod(flat, self.basis)

    def leq(self, other: "DerivationSpace") -> bool:
        if (self.n, self.even_width) != (other.n, other.even_width):
            raise ValueError("derivation spaces of different algebras")
        return all(not reduce_mod(row, other.basis) for row in self.basis.matrix.support)


def _law_rows(alg: LieSuperalgebra) -> list[dict[int, Scalar]]:
    # row (a <= b, m) is coordinate m of D[b_a, b_b] - [D b_a, b_b] - (-1)^(alpha |a|) [b_a, D b_b],
    # over the columns i n + j of D; on a graded table every term of the row
    # has degree alpha = |a| + |b| + |m|, so its solutions split by degree.
    # A nonzero [b_i, b_j] enters rows (i, j), (a <= j, j) and (i, b >= i)
    n = alg.n
    p = [alg.parity(i) for i in range(n)]
    rows: dict[tuple[int, int, int], dict[int, Scalar]] = {}

    def bump(a: int, b: int, m: int, col: int, c: Scalar) -> None:
        row = rows.setdefault((a, b, m), {})
        row[col] = row.get(col, ZERO) + c

    for i, j, support in alg.nonzero_brackets:
        if i <= j:
            for k, c in support:
                for m in range(n):
                    bump(i, j, m, m * n + k, c)
        for a in range(j + 1):
            for m, c in support:
                bump(a, j, m, i * n + a, -c)
        for b in range(i, n):
            sign = -ONE if (p[i] * (p[j] + p[b])) % 2 else ONE
            for m, c in support:
                bump(i, b, m, j * n + b, -sign * c)
    return [row for row in rows.values() if any(row.values())]


@_per_algebra
def derivation_space(alg: LieSuperalgebra) -> DerivationSpace:
    """All superderivations, both degrees, as one kernel of the law rows."""
    n = alg.n
    return DerivationSpace(n, kernel_basis(sparse_matrix(_law_rows(alg), n * n)), alg.sdim.even)


@_per_algebra
def inner_derivations(alg: LieSuperalgebra) -> DerivationSpace:
    """ad(L), spanned by the adjoint maps of the basis vectors."""
    n = alg.n
    flats: list[dict[int, Scalar]] = [{} for _ in range(n)]
    for i, j, support in alg.nonzero_brackets:
        for k, c in support:
            flats[i][k * n + j] = c
    return DerivationSpace(n, rref(sparse_matrix(flats, n * n)), alg.sdim.even)


def _vanishing(basis: EchelonBasis, values: list[dict[int, Scalar]]) -> EchelonBasis:
    """The elements of span(basis) on which some linear conditions vanish.

    values[k] maps each condition that is nonzero on the k-th basis row to
    its value there, so the kernel of the (conditions x dim) matrix holds
    the coefficients of the combinations that satisfy them.  Kernel and
    basis are both in RREF, so coefficients times basis is already the RREF
    of the subspace: its pivots are the basis pivots that the kernel's
    pivots pick.
    """
    conditions: dict[int, dict[int, Scalar]] = {}
    for k, row in enumerate(values):
        for c, x in row.items():
            conditions.setdefault(c, {})[k] = x
    coeffs = kernel_basis(sparse_matrix([conditions[c] for c in sorted(conditions)], basis.dim))
    pivots = tuple(basis.pivot_cols[k] for k in coeffs.pivot_cols)
    return EchelonBasis(mat_mul(coeffs.matrix, basis.matrix), pivots)


@_per_algebra
def id_star(alg: LieSuperalgebra) -> tuple[DerivationSpace, DerivationSpace]:
    """The pair (ID(L), ID*(L)), found inside Der(L) by one kernel each.

    ID(L) = {D in Der : D(b_j) in [L, L] for every j}, the superderivations
    with image inside [L, L], is cut from Der by the residues of its columns;
    ID*(L) = {D in ID : D(Z(L)) = 0} is cut from ID by the images of a basis
    of the centre.  [L, L] and Z(L) have homogeneous bases, so each
    condition is nonzero on maps of one degree only, and both degrees are
    cut at once.
    """
    n, der = alg.n, derivation_space(alg)
    derived = derived_subalgebra(alg).basis
    # the centre's basis z_0, z_1, ... as {j: z_t[j]} over its nonzeros
    cent = [dict(z) for z in center(alg).basis.matrix.support]

    def residues(d: tuple[tuple[int, Scalar], ...]) -> dict[int, Scalar]:
        """The residues of D(b_0), D(b_1), ... modulo [L, L] laid end to end."""
        columns: dict[int, list] = {}
        for f, x in d:
            i, j = divmod(f, n)
            columns.setdefault(j, []).append((i, x))
        return {j * n + k: x for j, column in columns.items()
                for k, x in reduce_mod(column, derived).items()}

    def central_images(d: tuple[tuple[int, Scalar], ...]) -> dict[int, Scalar]:
        """D(z_0), D(z_1), ... laid end to end, from the nonzeros of D's flattening."""
        out: dict[int, Scalar] = {}
        for f, x in d:
            i, j = divmod(f, n)
            for t, z in enumerate(cent):
                if j in z:
                    out[t * n + i] = out.get(t * n + i, ZERO) + x * z[j]
        return {k: x for k, x in out.items() if x}

    id_basis = _vanishing(der.basis, [residues(d) for d in der.basis.matrix.support])
    star_basis = _vanishing(id_basis, [central_images(d) for d in id_basis.matrix.support])
    return DerivationSpace(n, id_basis, der.even_width), DerivationSpace(n, star_basis, der.even_width)


def der_bracket(d: GradedLinearMap, e: GradedLinearMap) -> GradedLinearMap:
    """[D, E] = DE - (-1)^(|D||E|) ED, summed over the nonzero entries of D
    and E into one dict keyed (i, j): only the rows that come out nonzero
    are built."""
    n = d.matrix.rows
    if (d.matrix.cols, e.matrix.rows, e.matrix.cols) != (n, n, n):
        raise ValueError("maps must be square and of the same size")
    both_odd = (d.parity * e.parity) % 2
    acc: dict[tuple[int, int], Scalar] = {}
    rows = e.matrix.support
    for i, k, x in d._entries:
        for j, y in rows[k]:
            acc[i, j] = acc.get((i, j), ZERO) + x * y
    rows = d.matrix.support
    for i, k, x in e._entries:
        if not both_odd:
            x = -x
        for j, y in rows[k]:
            acc[i, j] = acc.get((i, j), ZERO) + x * y
    # the keys in (i, j) order, so each row's pairs come out in column order
    out: dict[int, list[tuple[int, Scalar]]] = {}
    for i, j in sorted(acc):
        x = acc[i, j]
        if x:
            out.setdefault(i, []).append((j, x if type(x) is int else _canon(x)))
    return GradedLinearMap((d.parity + e.parity) % 2, _square(n, out))


class IdStarBoundReport(Record):
    name: str
    sdim_id_star: SuperDim
    generator_pair: SuperDim
    lam: SuperDim
    holds: bool


def idstar_bound_check(alg: LieSuperalgebra) -> IdStarBoundReport:
    """Check sdim ID*(L) <= lambda([L,L], p, q) componentwise."""
    rep, sd = _nilpotent_report(alg), id_star(alg)[1].sdim
    return IdStarBoundReport(rep.name, sd, rep.generator_pair, rep.lam, sd <= rep.lam)


class DerivationReport(Record):
    name: str
    sdim_der: SuperDim
    sdim_inner: SuperDim
    sdim_id: SuperDim
    sdim_id_star: SuperDim
    chain_ok: bool
    bound: IdStarBoundReport | None


def derivation_report(alg: LieSuperalgebra) -> DerivationReport:
    """Dimensions of Der, ad, ID, ID* plus the containment chain and, for
    nilpotent L, the ID* bound."""
    der = derivation_space(alg)
    inner = inner_derivations(alg)
    id_space, idstar_space = id_star(alg)
    chain_ok = inner.leq(idstar_space) and idstar_space.leq(id_space) and id_space.leq(der)
    bound = idstar_bound_check(alg) if invariant_report(alg).lam is not None else None
    return DerivationReport(
        alg.name, der.sdim, inner.sdim, id_space.sdim, idstar_space.sdim, chain_ok, bound)
