"""Superderivation spaces and their distinguished subspaces.

A degree-alpha map D satisfies D[x, y] = [Dx, y] + (-1)^(alpha |x|) [x, Dy]
on homogeneous x, y.  Matrices follow the column convention: M[i][j] is the
coefficient of basis vector i in D(basis vector j), so only positions with
parity(i) = parity(j) + alpha can be nonzero.  Spaces are stored as echelon
bases in the row-major flattening of the full n x n matrix.

A map also keeps the nonzero (column, value) pairs of each row, and an
echelon basis those of its rows, both computed on first use.  Applying a
map, brackets of maps, membership in a space, containment of spaces and the
images of the centre work on these pairs alone, so their cost follows the
nonzeros rather than n^2.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .core import LieSuperalgebra, SuperDim, full_rows
from .invariants import (
    InvariantReport,
    _nilpotent_report,
    center,
    derived_subalgebra,
    invariant_report,
)
from .linalg import (
    EchelonBasis,
    Matrix,
    ONE,
    ZERO,
    echelon,
    kernel_basis,
    matrix,
    mat_mul,
    nonzeros,
    reduce_mod,
)


@dataclass(frozen=True)
class GradedLinearMap:
    parity: int
    matrix: Matrix

    @cached_property
    def _support(self) -> tuple[tuple[tuple[int, Fraction], ...], ...]:
        """The nonzero (column, value) pairs of each row."""
        return tuple(nonzeros(row) for row in self.matrix.entries)

    def apply(self, v: Sequence[Fraction]) -> tuple[Fraction, ...]:
        if len(v) != self.matrix.cols:
            raise ValueError("vector length does not match column count")
        return tuple(sum([x * v[j] for j, x in row if v[j]], ZERO) for row in self._support)


def flatten_map(m: GradedLinearMap) -> tuple[Fraction, ...]:
    return tuple(x for row in m.matrix.entries for x in row)


def unflatten_map(row: Sequence[Fraction], n: int, parity: int) -> GradedLinearMap:
    ents = tuple(tuple(row[i * n + j] for j in range(n)) for i in range(n))
    return GradedLinearMap(parity, Matrix(n, n, ents))


@dataclass(frozen=True)
class DerivationSpace:
    n: int
    even_part: EchelonBasis
    odd_part: EchelonBasis

    @property
    def sdim(self) -> SuperDim:
        return SuperDim(self.even_part.dim, self.odd_part.dim)

    def part(self, parity: int) -> EchelonBasis:
        return self.even_part if parity == 0 else self.odd_part

    def maps(self, parity: int) -> tuple[GradedLinearMap, ...]:
        basis = self.part(parity)
        return tuple(unflatten_map(row, self.n, parity) for row in basis.rows())

    def contains(self, m: GradedLinearMap) -> bool:
        part = self.part(m.parity)
        cols = m.matrix.cols
        if m.matrix.rows * cols != part.width:
            raise ValueError("vector length does not match basis width")
        flat = ((i * cols + j, x) for i, row in enumerate(m._support) for j, x in row)
        return not reduce_mod(flat, part)[0]

    def leq(self, other: "DerivationSpace") -> bool:
        if self.n != other.n:
            raise ValueError("ambient widths differ")
        return all(
            not reduce_mod(row, other.part(par))[0]
            for par in (0, 1)
            for row in self.part(par).row_support
        )


def _allowed_positions(alg: LieSuperalgebra, parity: int) -> list[tuple[int, int]]:
    return [
        (i, j)
        for i in range(alg.n)
        for j in range(alg.n)
        if alg.parity(i) == (alg.parity(j) + parity) % 2
    ]


def _embed_echelon(e: EchelonBasis, positions: list[tuple[int, int]], n: int) -> EchelonBasis:
    # scattering restricted columns into the n^2 flattening preserves RREF
    # because the position list is increasing in row-major order
    full = []
    for row in e.rows():
        vec = [ZERO] * (n * n)
        for (i, j), x in zip(positions, row):
            if x:
                vec[i * n + j] = x
        full.append(tuple(vec))
    pivots = tuple(positions[p][0] * n + positions[p][1] for p in e.pivot_cols)
    return EchelonBasis(Matrix(len(full), n * n, tuple(full)), pivots)


def _law_rows(alg: LieSuperalgebra, parity: int, pos_index: dict) -> list[list[Fraction]]:
    n = alg.n
    width = len(pos_index)
    rows = []
    for a in range(n):
        pa = alg.parity(a)
        sign = -ONE if (parity * pa) % 2 else ONE
        for b in range(a, n):
            target_parity = (pa + alg.parity(b) + parity) % 2
            per_m: dict[int, list] = {}

            def bump(m: int, i: int, j: int, c: Fraction) -> None:
                row = per_m.setdefault(m, [ZERO] * width)
                row[pos_index[i, j]] += c

            for k, c in alg.basis_bracket(a, b):
                for m in range(n):
                    if alg.parity(m) == target_parity:
                        bump(m, m, k, c)
            for i in range(n):
                if alg.parity(i) != (pa + parity) % 2:
                    continue
                for m, c in alg.basis_bracket(i, b):
                    bump(m, i, a, -c)
            for i in range(n):
                if alg.parity(i) != (alg.parity(b) + parity) % 2:
                    continue
                for m, c in alg.basis_bracket(a, i):
                    bump(m, i, b, -sign * c)
            rows.extend(row for row in per_m.values() if any(row))
    return rows


def _solve(alg: LieSuperalgebra, parity: int) -> EchelonBasis:
    positions = _allowed_positions(alg, parity)
    pos_index = {pos: t for t, pos in enumerate(positions)}
    rows = _law_rows(alg, parity, pos_index)
    return _embed_echelon(kernel_basis(matrix(rows, cols=len(positions))), positions, alg.n)


def derivation_space(alg: LieSuperalgebra) -> DerivationSpace:
    """All superderivations, both parities, as echelonized matrix spaces."""
    return DerivationSpace(alg.n, _solve(alg, 0), _solve(alg, 1))


def inner_derivations(alg: LieSuperalgebra) -> DerivationSpace:
    """ad(L), spanned by the adjoint maps of the basis vectors."""
    n = alg.n
    flats: dict[int, list] = {0: [], 1: []}
    for i in range(n):
        vec = [ZERO] * (n * n)
        for j in range(n):
            for k, c in alg.basis_bracket(i, j):
                vec[k * n + j] = c
        flats[alg.parity(i)].append(vec)
    return DerivationSpace(n, echelon(flats[0], n * n), echelon(flats[1], n * n))


def _vanishing(basis: EchelonBasis, values: list[list[Fraction]]) -> EchelonBasis:
    """The elements of span(basis) on which some linear conditions vanish.

    values[k] lists the conditions evaluated on the k-th basis row, so the
    kernel of the (conditions x dim) matrix holds the coefficients of the
    combinations that satisfy them.  Kernel and basis are both in RREF, so
    coefficients times basis is already the RREF of the subspace: its pivots
    are the basis pivots that the kernel's pivots pick.
    """
    conditions = [c for c in zip(*values) if any(c)]
    coeffs = kernel_basis(matrix(conditions, cols=basis.dim))
    pivots = tuple(basis.pivot_cols[k] for k in coeffs.pivot_cols)
    return EchelonBasis(mat_mul(coeffs.matrix, basis.matrix), pivots)


def _id_spaces(alg: LieSuperalgebra, der: DerivationSpace) -> tuple[DerivationSpace, DerivationSpace]:
    """(ID(L), ID*(L)) found inside der = Der(L), one parity at a time.

    ID = {D in Der : D(b_j) = 0 mod [L, L] for every j} is cut from Der by
    the residues of its columns; ID* = {D in ID : D(z) = 0 for z in Z(L)} is
    cut from ID by the images of a basis of the centre.
    """
    n = alg.n
    derived = echelon(full_rows(alg, derived_subalgebra(alg)), n)
    cent = full_rows(alg, center(alg))
    # the nonzero (t, z_t[j]) of column j over the centre's basis z_0, z_1, ...
    cent_cols = [[(t, z[j]) for t, z in enumerate(cent) if z[j]] for j in range(n)]

    def residues(d: tuple[tuple[int, Fraction], ...]) -> list[Fraction]:
        """The residues of D(b_0), D(b_1), ... modulo [L, L] laid end to end."""
        columns: dict[int, list] = {}
        for f, x in d:
            i, j = divmod(f, n)
            columns.setdefault(j, []).append((i, x))
        out = [ZERO] * (n * n)
        for j, column in columns.items():
            for k, x in reduce_mod(column, derived)[0].items():
                out[j * n + k] = x
        return out

    def central_images(d: tuple[tuple[int, Fraction], ...]) -> list[Fraction]:
        """D(z_0), D(z_1), ... laid end to end, from the nonzeros of D's flattening."""
        out = [ZERO] * (len(cent) * n)
        for f, x in d:
            i, j = divmod(f, n)
            for t, z in cent_cols[j]:
                out[t * n + i] += x * z
        return out

    id_parts, star_parts = [], []
    for parity in (0, 1):
        basis = der.part(parity)
        id_part = _vanishing(basis, [residues(d) for d in basis.row_support])
        id_parts.append(id_part)
        star_parts.append(_vanishing(id_part, [central_images(d) for d in id_part.row_support]))
    return DerivationSpace(n, *id_parts), DerivationSpace(n, *star_parts)


def id_star(alg: LieSuperalgebra) -> tuple[DerivationSpace, DerivationSpace]:
    """The pair (ID(L), ID*(L)).

    ID(L) is the space of superderivations with image inside [L, L]; ID*(L)
    is the subspace of those that also vanish on the centre.  Der(L) is
    solved once per parity; ID and ID* are small kernels in the coordinates
    of its basis, ID = {D in Der : D(b_j) in [L, L] for all j} and
    ID* = {D in ID : D(Z(L)) = 0}.
    """
    return _id_spaces(alg, derivation_space(alg))


def der_bracket(d: GradedLinearMap, e: GradedLinearMap) -> GradedLinearMap:
    """[D, E] = DE - (-1)^(|D||E|) ED, multiplied over the nonzeros of D and E."""
    n = d.matrix.rows
    if (d.matrix.cols, e.matrix.rows, e.matrix.cols) != (n, n, n):
        raise ValueError("maps must be square and of the same size")
    both_odd = (d.parity * e.parity) % 2
    ds, es = d._support, e._support
    out = [[ZERO] * n for _ in range(n)]
    for i, orow in enumerate(out):
        for k, x in ds[i]:
            for j, y in es[k]:
                orow[j] += x * y
        for k, y in es[i]:
            if not both_odd:
                y = -y
            for j, x in ds[k]:
                orow[j] += y * x
    return GradedLinearMap((d.parity + e.parity) % 2, Matrix(n, n, tuple(map(tuple, out))))


@dataclass(frozen=True)
class IdStarBoundReport:
    name: str
    sdim_id_star: SuperDim
    generator_pair: SuperDim
    lam: SuperDim
    holds: bool


def _idstar_bound(rep: InvariantReport, idstar_space: DerivationSpace) -> IdStarBoundReport:
    sd = idstar_space.sdim
    return IdStarBoundReport(rep.name, sd, rep.generator_pair, rep.lam, sd <= rep.lam)


def idstar_bound_check(alg: LieSuperalgebra) -> IdStarBoundReport:
    """Check sdim ID*(L) <= lambda([L,L], p, q) componentwise."""
    return _idstar_bound(_nilpotent_report(alg), id_star(alg)[1])


@dataclass(frozen=True)
class DerivationReport:
    name: str
    sdim_der: SuperDim
    sdim_inner: SuperDim
    sdim_id: SuperDim
    sdim_id_star: SuperDim
    chain_ok: bool
    bound: IdStarBoundReport | None


def derivation_report(alg: LieSuperalgebra) -> DerivationReport:
    """Dimensions of Der, ad, ID, ID* plus the containment chain and bound.

    Two n^2-wide kernel solves, Der per parity.  ID and ID* are found
    inside that Der as in id_star, ID* is shared with the bound, and the bound's (p|q)
    and lambda come from invariant_report.
    """
    der = derivation_space(alg)
    inner = inner_derivations(alg)
    id_space, idstar_space = _id_spaces(alg, der)
    chain_ok = inner.leq(idstar_space) and idstar_space.leq(id_space) and id_space.leq(der)
    rep = invariant_report(alg)
    bound = _idstar_bound(rep, idstar_space) if rep.lam is not None else None
    return DerivationReport(
        alg.name, der.sdim, inner.sdim, id_space.sdim, idstar_space.sdim, chain_ok, bound)
