"""Structural invariants: derived subalgebra, centre, central series, stem
decompositions, minimal generator pairs, and the size invariants built from
them.

Each quantity is a function of the algebra alone: `derived_subalgebra`,
`center`, `upper_central_series` and `invariant_report` solve once per
algebra object and keep the value (core._per_algebra), and the rest read
them.  Each call of the four checks the grading first (core.check_grading),
so a table that is not graded raises GradingError before any solve.
"""

from __future__ import annotations

from ._record import Record
from .core import (
    GradedSubspace,
    LieSuperalgebra,
    SuperDim,
    _per_algebra,
    from_brackets,
    sparse_bracket,
    sparse_span,
    subspace_intersect,
    subspace_leq,
    subspace_sum,
    zero_subspace,
)
from .linalg import ONE, extend, kernel_basis, mat_mul, reduce_mod, sparse_matrix


class NotNilpotentError(ValueError):
    """Raised when an invariant defined only for nilpotent algebras is
    requested for an algebra whose upper central series stalls below L."""


class StemDecompositionError(RuntimeError):
    """Internal consistency check of a stem decomposition failed."""


@_per_algebra
def derived_subalgebra(alg: LieSuperalgebra) -> GradedSubspace:
    """The span of all brackets, [L, L]."""
    return sparse_span(alg, (support for i, j, support in alg.nonzero_brackets if i <= j))


def _central_step(alg: LieSuperalgebra, z: GradedSubspace) -> GradedSubspace:
    """{x : [x, L] in z}; Z_{i+1} for z = Z_i.

    One kernel over the n coordinates of x, with one constraint row per
    (j, k) whose column i holds coordinate k of the residue of [b_i, b_j]
    modulo z.  Only basis vectors b_i of one parity reach a given (j, k),
    so the system splits by parity and its kernel basis is homogeneous.
    """
    rows: dict[tuple[int, int], dict] = {}
    for i, j, support in alg.nonzero_brackets:
        for k, c in reduce_mod(support, z.basis).items():
            rows.setdefault((j, k), {})[i] = c
    return GradedSubspace(kernel_basis(sparse_matrix(list(rows.values()), alg.n)), z.even_width)


@_per_algebra
def center(alg: LieSuperalgebra) -> GradedSubspace:
    """Z(L) = {x : [x, L] = 0}, the central step taken from the zero subspace."""
    return _central_step(alg, zero_subspace(alg))


@_per_algebra
def upper_central_series(alg: LieSuperalgebra) -> tuple[GradedSubspace, ...]:
    """The strictly increasing chain Z_1(L) < Z_2(L) < ... until it stalls.

    Z_1 = Z(L), so the chain is empty when Z(L) = 0.  Each later step is one
    kernel on L itself, Z_{i+1} = {x : [x, L] in Z_i}: its constraint rows
    are the residues of [b_i, b_j] modulo Z_i, so no quotient is built.
    """
    chain: list[GradedSubspace] = []
    z = center(alg)
    while z.basis.dim > (chain[-1].basis.dim if chain else 0):
        chain.append(z)
        if z.basis.dim < alg.n:  # else z = L, and the loop ends
            z = _central_step(alg, z)
    return tuple(chain)


def is_nilpotent(alg: LieSuperalgebra) -> bool:
    return invariant_report(alg).nilpotency_class is not None


def nilpotency_class(alg: LieSuperalgebra) -> int:
    """Least k with Z_k(L) = L; raises NotNilpotentError if there is none."""
    return _nilpotent_report(alg).nilpotency_class


def is_stem(alg: LieSuperalgebra) -> bool:
    """Whether Z(L) is contained in the derived subalgebra."""
    return subspace_leq(center(alg), derived_subalgebra(alg))


def generator_pair(alg: LieSuperalgebra) -> SuperDim:
    """Minimal (p|q) such that p even and q odd elements generate L.

    For nilpotent L this is sdim L - sdim [L, L], the graded dimension of
    L / [L, L].
    """
    rep = _nilpotent_report(alg)
    return rep.sdim - rep.sdim_derived


def lambda_pair(k: SuperDim, p: int, q: int) -> SuperDim:
    """The bound lambda(K, p, q) = (p k0 + q k1 | q k0 + p k1)."""
    if p < 0 or q < 0:
        raise ValueError("generator counts must be non-negative")
    return SuperDim(p * k.even + q * k.odd, q * k.even + p * k.odd)


def st(alg: LieSuperalgebra) -> SuperDim:
    """The defect st(L) = lambda([L,L], p, q) - sdim L/Z(L), componentwise.

    (p|q) is the minimal generator pair of L/Z(L); the subtraction is
    guaranteed non-negative by the converse Schur-type bound.  Read from
    invariant_report, which needs no quotient algebra.
    """
    return _nilpotent_report(alg).st


def t_scalar(alg: LieSuperalgebra) -> int:
    """The plain integer defect, the component sum of st(L)."""
    return _nilpotent_report(alg).t


class SchurBoundReport(Record):
    name: str
    sdim_central_quotient: SuperDim
    generator_pair: SuperDim
    lam: SuperDim
    holds: bool


def schur_bound_check(alg: LieSuperalgebra) -> SchurBoundReport:
    """Check sdim L/Z(L) <= lambda([L,L], p, q) componentwise."""
    rep = _nilpotent_report(alg)
    quot = rep.sdim - rep.sdim_center
    return SchurBoundReport(alg.name, quot, rep.generator_pair, rep.lam, quot <= rep.lam)


class LadderRung(Record):
    derived_at_least: int
    t_at_least: int
    applies: bool
    holds: bool


class PropositionAuditReport(Record):
    name: str
    derived_total: int
    t: int
    rungs: tuple[LadderRung, ...]

    @property
    def ok(self) -> bool:
        return all(r.holds for r in self.rungs)


_LADDER = ((2, 1), (3, 2), (4, 3))


def proposition_audit(alg: LieSuperalgebra) -> PropositionAuditReport:
    """Audit the ladder: dim [L,L] >= 2, 3, 4 forces t(L) >= 1, 2, 3."""
    rep = _nilpotent_report(alg)
    derived_total, t = rep.sdim_derived.total, rep.t
    rungs = []
    for threshold, required in _LADDER:
        applies = derived_total >= threshold
        rungs.append(LadderRung(threshold, required, applies, (not applies) or t >= required))
    return PropositionAuditReport(alg.name, derived_total, t, tuple(rungs))


def stem_decomposition(alg: LieSuperalgebra) -> tuple[LieSuperalgebra, SuperDim]:
    """Split L as T + A with A abelian and T stem; returns (T, sdim A).

    A is a graded complement of [L,L] n Z(L) inside Z(L); T is spanned by
    [L,L] together with standard basis vectors chosen away from A.  The
    centre of the rebuilt T is verified to be [L,L] n Z(L) before returning.
    Each choice is one `extend`, which inserts every candidate once into the
    kept echelon form: A is the rows of Z(L)'s basis that grow
    [L,L] n Z(L), and T's extra units are those that grow [L,L] + A.  Both
    are one pass over full-width homogeneous rows: whether an even row lies
    in a graded span never depends on its odd rows, so one pass picks what
    a pass per parity would.
    """
    derived = derived_subalgebra(alg)
    cent = center(alg)
    core_part = subspace_intersect(derived, cent)

    n, r = alg.n, alg.sdim.even
    _, a_rows = extend(core_part.basis, cent.basis.matrix.support)
    avoid, _ = extend(derived.basis, a_rows)
    _, t_extra = extend(avoid, (((i, ONE),) for i in range(n)))
    t_space = GradedSubspace(extend(derived.basis, t_extra)[0], r)
    # each row of A is a homogeneous row of Z(L)'s basis: its pivot's side
    # of r is its parity
    a_even = sum(row[0][0] < r for row in a_rows)
    pad = SuperDim(a_even, len(a_rows) - a_even)
    if t_space.sdim + pad != alg.sdim:
        raise StemDecompositionError("parts do not fill the algebra")

    basis = t_space.basis
    rows = basis.matrix.support
    brackets = {}
    for a, va in enumerate(rows):
        for b, vb in enumerate(rows):
            w = sparse_bracket(alg, va, vb)
            if reduce_mod(w.items(), basis):
                raise StemDecompositionError("bracket left the stem part")
            # the basis is in reduced echelon form, so the coordinates of w
            # are its values at the pivot columns
            brackets[a, b] = [(t, w[p]) for t, p in enumerate(basis.pivot_cols) if p in w]
    p, q = t_space.sdim.even, t_space.sdim.odd
    t_alg = from_brackets(
        f"stem({alg.name})",
        tuple(f"t{i + 1}" for i in range(p)),
        tuple(f"u{i + 1}" for i in range(q)),
        brackets,
    )

    # centre of T must coincide with [L,L] n Z(L), mapped back into L
    zt = center(t_alg)
    zt_in_l = mat_mul(zt.basis.matrix, basis.matrix)
    if sparse_span(alg, zt_in_l.support) != core_part:
        raise StemDecompositionError("centre of the stem part is off")
    return t_alg, pad


class InvariantReport(Record):
    name: str
    sdim: SuperDim
    sdim_derived: SuperDim
    sdim_center: SuperDim
    central_series: tuple[SuperDim, ...]
    nilpotency_class: int | None
    is_stem: bool
    generator_pair: SuperDim | None
    lam: SuperDim | None
    st: SuperDim | None
    t: int | None


@_per_algebra
def invariant_report(alg: LieSuperalgebra) -> InvariantReport:
    """Every invariant of one algebra in a single pass.

    Only [L,L], Z(L) and the upper central series are computed.  For
    nilpotent L the rest follows without quotient algebras:
    sdim L/Z(L) = sdim L - sdim Z(L), and the generator pair of L/Z(L), the
    one the bound uses, is sdim L - sdim([L,L] + Z(L)), because
    [L/Z, L/Z] = ([L,L] + Z)/Z.  Fields depending on nilpotency are None
    when the series stalls.  A table that is not graded raises GradingError
    first.
    """
    derived = derived_subalgebra(alg)
    cent = center(alg)
    series = upper_central_series(alg)
    top = series[-1].sdim if series else cent.sdim
    if top == alg.sdim:
        klass: int | None = len(series)
        pq: SuperDim | None = alg.sdim - subspace_sum(derived, cent).sdim
        lam: SuperDim | None = lambda_pair(derived.sdim, pq.even, pq.odd)
        st_val: SuperDim | None = lam - (alg.sdim - cent.sdim)
        t_val: int | None = st_val.total
    else:
        klass = pq = lam = st_val = t_val = None
    return InvariantReport(
        name=alg.name,
        sdim=alg.sdim,
        sdim_derived=derived.sdim,
        sdim_center=cent.sdim,
        central_series=tuple(z.sdim for z in series),
        nilpotency_class=klass,
        is_stem=subspace_leq(cent, derived),
        generator_pair=pq,
        lam=lam,
        st=st_val,
        t=t_val,
    )


def _nilpotent_report(alg: LieSuperalgebra) -> InvariantReport:
    """invariant_report(alg), raising NotNilpotentError when the series stalls."""
    rep = invariant_report(alg)
    if rep.st is None:
        raise NotNilpotentError(f"{alg.name} is not nilpotent")
    return rep
