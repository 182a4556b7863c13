"""One builder for the structure tensor, and sparse brackets on the library paths.

`core.from_brackets` is the only code that writes `LieSuperalgebra.tensor`;
`algebra_from_relations`, `direct_sum` and `stem_decomposition` hand it
sparse brackets.  [L, L] and the bracket and coordinate loop of
`stem_decomposition` take brackets from `basis_bracket` and reduce against
the subspace's full-width echelon basis.  The references below are the
dense versions they replace: brackets of dense basis vectors, dense
membership (`dense_reduce`) and dense echelon forms, one parity at a time;
`parity_parts` and `graded` convert between that form and a
`GradedSubspace`.  The dense quotient of `test_single_pass` is checked
against the sdims the library reads from subspaces of L.  The structure tests keep the one-builder rule from
regressing and keep `/` and `Fraction(` inside linalg, and the guard test
checks that the library paths never build a dense bracket.  Loops find the
nonzero brackets through `nonzero_brackets`, never by calling
`basis_bracket` on every index pair, which a structure test also checks.
"""

import ast
from pathlib import Path

import pytest

import superstem
from superstem.build import abelian, algebra_from_relations, direct_sum
from superstem.catalog import entries
from superstem.core import (
    GradingError,
    LieSuperalgebra,
    MixedParityError,
    SuperDim,
    from_brackets,
    sparse_span,
    subspace_intersect,
    subspace_sum,
    validate,
    vector_parity,
    zero_subspace,
)
from superstem.derivations import derivation_report
from superstem.fileformat import export, parse
from superstem.invariants import (
    center,
    derived_subalgebra,
    invariant_report,
    stem_decomposition,
    upper_central_series,
)
from superstem.linalg import frac, mat_mul, matrix, rref, sum_spaces
from test_acceptance import corpus
from test_linalg import dense_reduce
from test_single_pass import graded, non_stem_examples, parity_parts, quotient, rescaled, sheared

# catalog entries plus abelian summands, so that stem parts have a complement
CORPUS = corpus() + [
    direct_sum(e.algebra, abelian(a, b)) for e in entries() for a, b in ((1, 0), (0, 1), (1, 1))
]


def echelon(rows, width):
    return rref(matrix(rows, cols=width))


def unit_vector(n, i):
    return tuple(frac(int(j == i)) for j in range(n))


def dense_span(alg, vectors):
    r, s = alg.sdim.even, alg.sdim.odd
    parts = ([], [])
    for v in vectors:
        par = vector_parity(alg, v)
        if par is not None:
            parts[par].append(v[r:] if par else v[:r])
    return graded(echelon(parts[0], r), echelon(parts[1], s))


def dense_derived(alg):
    vectors = []
    for i in range(alg.n):
        for j in range(i, alg.n):
            if alg.basis_bracket(i, j):
                vectors.append(alg.bracket(alg.basis_vector(i), alg.basis_vector(j)))
    return dense_span(alg, vectors)


def _extend(ech, candidates):
    added = []
    for v in candidates:
        if any(dense_reduce(v, ech)[0]):
            added.append(v)
            ech = sum_spaces(ech, echelon([v], ech.width))
    return added


def dense_stem_decomposition(alg):
    derived = dense_derived(alg)
    cent = center(alg)
    core_part = subspace_intersect(derived, cent)
    (core_even, core_odd), (cent_even, cent_odd) = parity_parts(core_part), parity_parts(cent)
    a_even = _extend(core_even, cent_even.matrix.entries)
    a_odd = _extend(core_odd, cent_odd.matrix.entries)

    r, s = alg.sdim.even, alg.sdim.odd
    der_even, der_odd = parity_parts(derived)
    avoid_even = echelon(list(der_even.matrix.entries) + a_even, r)
    avoid_odd = echelon(list(der_odd.matrix.entries) + a_odd, s)
    t_extra_even = _extend(avoid_even, (unit_vector(r, i) for i in range(r)))
    t_extra_odd = _extend(avoid_odd, (unit_vector(s, i) for i in range(s)))
    t_even = echelon(list(der_even.matrix.entries) + t_extra_even, r)
    t_odd = echelon(list(der_odd.matrix.entries) + t_extra_odd, s)
    t_space = graded(t_even, t_odd)
    basis = t_space.basis.matrix.entries
    tensor = []
    for va in basis:
        row = []
        for vb in basis:
            w = alg.bracket(va, vb)
            (rest_e, ce), (rest_o, co) = dense_reduce(w[:r], t_even), dense_reduce(w[r:], t_odd)
            assert not any(rest_e) and not any(rest_o)
            row.append(ce + co)
        tensor.append(tuple(row))
    p, q = t_space.sdim.even, t_space.sdim.odd
    t_alg = LieSuperalgebra(
        f"stem({alg.name})",
        tuple(f"t{i + 1}" for i in range(p)),
        tuple(f"u{i + 1}" for i in range(q)),
        tuple(tensor),
    )
    zt = center(t_alg).basis.matrix
    assert dense_span(alg, mat_mul(zt, matrix(basis, cols=alg.n)).entries) == core_part
    return t_alg, SuperDim(len(a_even), len(a_odd))


@pytest.mark.parametrize("alg", CORPUS, ids=lambda a: a.name)
def test_derived_subalgebra_matches_dense(alg):
    assert derived_subalgebra(alg) == dense_derived(alg)


@pytest.mark.parametrize("alg", CORPUS, ids=lambda a: a.name)
def test_quotient_matches_dense(alg):
    """The dense quotient agrees with what the library reads from subspaces
    of L: L/Z_i has sdim L - sdim Z_i, its centre has sdim Z_{i+1} - sdim Z_i,
    and its derived algebra has sdim([L,L] + Z_i) - sdim Z_i; L/[L,L] is
    abelian.  The sheared basis puts the ideals off the basis vectors."""
    for a in (alg, sheared(alg)):
        derived = derived_subalgebra(a)
        series = upper_central_series(a)
        for z, z_next in zip((zero_subspace(a),) + series, series):
            q, _ = quotient(a, z)
            assert validate(q).ok
            assert q.sdim == a.sdim - z.sdim
            assert center(q).sdim == z_next.sdim - z.sdim
            assert derived_subalgebra(q).sdim == subspace_sum(derived, z).sdim - z.sdim
        q, _ = quotient(a, derived)
        assert q.sdim == a.sdim - derived.sdim
        assert center(q).sdim == q.sdim


@pytest.mark.parametrize("alg", CORPUS, ids=lambda a: a.name)
def test_stem_decomposition_matches_dense(alg):
    assert stem_decomposition(alg) == dense_stem_decomposition(alg)


def test_derived_subalgebra_rejects_mixed_brackets():
    # [x1, x2] = x3 + y breaks the grading: the bracket has both parities.
    # The table is refused before any span is built; the span itself would
    # refuse the mixed bracket too.
    alg = algebra_from_relations("mixed", ("x1", "x2", "x3"), ("y",), [(0, 1, {2: 1, 3: 1})])
    assert not validate(alg).grading_ok
    with pytest.raises(GradingError, match=r"\[x1, x2\] hits y of the wrong parity"):
        derived_subalgebra(alg)
    with pytest.raises(GradingError, match=r"\[x1, x2\] hits y of the wrong parity"):
        stem_decomposition(alg)
    with pytest.raises(MixedParityError):
        sparse_span(alg, [alg.basis_bracket(0, 1)])


def test_builders_copy_brackets_exactly():
    # one orientation only: no constructor fills in the skew mirror
    lopsided = from_brackets("lopsided", ("x1", "x2", "x3"), (), {(0, 1): [(2, frac(1))]})
    assert not validate(lopsided).skew_ok
    s = direct_sum(lopsided, abelian(1, 0))
    assert s.basis_bracket(0, 1) == ((2, frac(1)),) and s.basis_bracket(1, 0) == ()
    # the view of the nonzero brackets lists what is stored, unmirrored
    assert lopsided.nonzero_brackets == ((0, 1, ((2, 1),)),)


@pytest.fixture
def no_dense_brackets(monkeypatch):
    """Make the dense bracket, basis vectors and zero vector raise."""

    def refuse(*args, **kwargs):
        raise AssertionError("dense bracket or coordinate vector built")

    for name in ("bracket", "basis_vector", "zero"):
        monkeypatch.setattr(LieSuperalgebra, name, refuse)


def test_library_paths_build_no_dense_bracket(no_dense_brackets):
    # fresh copies, so that every solver runs rather than reading what an
    # earlier test kept on the shared corpus objects
    for alg in map(parse, map(export, corpus())):
        invariant_report(alg)
        assert derivation_report(alg).chain_ok
        direct_sum(alg, alg)
        stem_decomposition(alg)
        assert parse(export(alg)) == alg


def test_only_from_brackets_writes_the_tensor():
    """No module but core calls LieSuperalgebra( or reads .tensor, core calls
    it only in from_brackets, and no module calls the dense bracket."""
    offences = []
    for path in sorted(Path(superstem.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        allowed = set()
        if path.name == "core.py":
            builder = next(node for node in tree.body
                           if isinstance(node, ast.FunctionDef) and node.name == "from_brackets")
            allowed = {id(node) for node in ast.walk(builder)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and id(node) not in allowed:
                func = node.func
                if isinstance(func, ast.Name) and func.id == "LieSuperalgebra":
                    offences.append(f"{path.name}:{node.lineno} calls LieSuperalgebra(")
                if isinstance(func, ast.Attribute) and func.attr in ("bracket", "basis_vector", "zero"):
                    offences.append(f"{path.name}:{node.lineno} calls .{func.attr}(")
            if isinstance(node, ast.Attribute) and node.attr in ("tensor", "_support") \
                    and path.name != "core.py":
                offences.append(f"{path.name}:{node.lineno} reads .{node.attr}")
    assert offences == []


def range_pair_probes(tree):
    """The lines of calls basis_bracket(x, y) whose two arguments are both
    names bound by enclosing for statements or comprehensions over range(...)."""
    found = []

    def over_range(it):
        return isinstance(it, ast.Call) and getattr(it.func, "id", None) == "range"

    def bound_by(target):
        return {node.id for node in ast.walk(target) if isinstance(node, ast.Name)}

    def visit(node, bound):
        if isinstance(node, ast.For) and over_range(node.iter):
            bound = bound | bound_by(node.target)
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            for gen in node.generators:
                if over_range(gen.iter):
                    bound = bound | bound_by(gen.target)
        if isinstance(node, ast.Call) and "basis_bracket" in (
                getattr(node.func, "id", None), getattr(node.func, "attr", None)):
            if len(node.args) == 2 and all(isinstance(a, ast.Name) and a.id in bound for a in node.args):
                found.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child, bound)

    visit(tree, frozenset())
    return found


def test_no_loop_probes_index_pairs():
    """Which basis pairs have a nonzero bracket is read from
    nonzero_brackets, so no library loop calls basis_bracket on every index
    pair to find out."""
    offences = [
        f"{path.name}:{line}"
        for path in sorted(Path(superstem.__file__).parent.glob("*.py"))
        for line in range_pair_probes(ast.parse(path.read_text()))
    ]
    assert offences == []


def test_range_pair_probes_sees_loops_and_comprehensions():
    src = """
for i in range(n):
    for j in range(i, n):
        alg.basis_bracket(i, j)
[alg.basis_bracket(a, b) for a in range(n) for b in range(n)]
for i, j, s in alg.nonzero_brackets:
    alg.basis_bracket(j, i)
for a in range(n):
    for m, c in alg.basis_bracket(a, a):
        alg.basis_bracket(a, m)
"""
    assert range_pair_probes(ast.parse(src)) == [4, 5, 9]


def test_no_import_inside_a_function():
    """Every import sits at the top of its module, so an import cycle fails
    when the package is imported, not later inside one call."""
    offences = []
    for path in sorted(Path(superstem.__file__).parent.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                offences += [f"{path.name}:{node.lineno} imports inside {fn.name}"
                             for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert offences == []


def test_no_module_imports_argparse():
    """The command line reads argv against its own command table."""
    offences = []
    for path in sorted(Path(superstem.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module]
            else:
                continue
            if "argparse" in names:
                offences.append(f"{path.name}:{node.lineno} imports argparse")
    assert offences == []


def test_only_linalg_divides_or_builds_fractions():
    """Scalars are ints when integral and Fractions only for true rationals,
    which linalg alone makes (through frac and its exact division); `/` on
    two ints would give a float, so no other module divides or calls
    Fraction(."""
    offences = []
    for path in sorted(Path(superstem.__file__).parent.glob("*.py")):
        if path.name == "linalg.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
                offences.append(f"{path.name}:{node.lineno} divides with /")
            if isinstance(node, ast.Call) and "Fraction" in (
                    getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                offences.append(f"{path.name}:{node.lineno} calls Fraction(")
    assert offences == []


def homogeneous_form_corpus():
    """CORPUS with the rescaled and sheared copies of the non-stem examples
    and the catalog, whose subspaces are spanned by non-unit vectors."""
    bases = [e.algebra for e in entries()] + non_stem_examples()
    return CORPUS + [rescaled(a) for a in bases] + [sheared(a) for a in bases]


@pytest.mark.parametrize("alg", homogeneous_form_corpus(), ids=lambda a: a.name)
def test_subspace_rows_are_homogeneous(alg):
    """The one-basis form relies on every row of a graded subspace lying on
    one side of r, so that sdim can be read from the pivots."""
    r = alg.sdim.even
    derived, cent = derived_subalgebra(alg), center(alg)
    spaces = [derived, subspace_intersect(derived, cent), subspace_sum(derived, cent)]
    spaces += upper_central_series(alg)
    for space in spaces:
        assert space.even_width == r and space.basis.width == alg.n
        for row in space.basis.matrix.support:
            assert len({j < r for j, _ in row}) == 1
        assert space.sdim == SuperDim(*(part.dim for part in parity_parts(space)))
