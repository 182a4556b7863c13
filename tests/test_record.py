"""The contract of the library's frozen value classes.

Every value class derives from `superstem._record.Record` and behaves as
a frozen dataclass with the same fields: immutable, equal only to its own
class with equal fields, hashed as the tuple of its fields, and shown by
the same repr.  One sample per class is checked against the repr such a
dataclass prints; the walk over the subclasses makes sure a new class
gets a sample.  The last tests keep importing the package cheap:
no `dataclasses` (or the `inspect` it imports) at start-up, and no
generated code outside the base.
"""

import ast
import copy
import inspect
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import superstem
from superstem import catalog, cli, core, derivations, invariants, linalg
from superstem._record import Record
from superstem.core import SuperDim
from superstem.invariants import invariant_report

M = linalg.Matrix(2, 3, (((0, 1),), ((1, Fraction(1, 2)), (2, -3))))
E = linalg.EchelonBasis(linalg.Matrix(1, 2, (((1, 1),),)), (1,))
S = SuperDim(1, 0)
A = core.from_brackets("A", ("e1",), ("f1",), {})
LV = core.LawViolation("jacobi", (0, 1, 2), "graded Jacobi fails on (x, y, z)")
LR = invariants.LadderRung(2, 1, True, False)
TR = catalog.TableRowCheck("(4|0)_2", (S, S, SuperDim(0, 1)), (S, S, SuperDim(0, 1)))
CC = catalog.ClassificationCheck("A(1|1)", None, S, False)
ISB = derivations.IdStarBoundReport("H", SuperDim(0, 1), SuperDim(2, 0), S, True)
REPORT = invariants.InvariantReport(name="A", sdim=SuperDim(1, 1), sdim_derived=SuperDim(0, 0),
                                    sdim_center=SuperDim(1, 1), central_series=(SuperDim(1, 1),),
                                    nilpotency_class=1, is_stem=False, generator_pair=None, lam=None,
                                    st=None, t=None)

# each sample with the repr a frozen dataclass with the same fields prints
SAMPLES = [
    (M, "Matrix(rows=2, cols=3, support=(((0, 1),), ((1, Fraction(1, 2)), (2, -3))))"),
    (E, "EchelonBasis(matrix=Matrix(rows=1, cols=2, support=(((1, 1),),)), pivot_cols=(1,))"),
    (S, "SuperDim(even=1, odd=0)"),
    (A, "LieSuperalgebra(name='A', even_names=('e1',), odd_names=('f1',), "
        "tensor=(((0, 0), (0, 0)), ((0, 0), (0, 0))))"),
    (LV, "LawViolation(law='jacobi', indices=(0, 1, 2), detail='graded Jacobi fails on (x, y, z)')"),
    (core.ValidationReport(True, False, True, (LV,)),
     "ValidationReport(grading_ok=True, skew_ok=False, jacobi_ok=True, violations=(LawViolation("
     "law='jacobi', indices=(0, 1, 2), detail='graded Jacobi fails on (x, y, z)'),))"),
    (core.GradedSubspace(E, 1),
     "GradedSubspace(basis=EchelonBasis(matrix=Matrix(rows=1, cols=2, support=(((1, 1),),)), "
     "pivot_cols=(1,)), even_width=1)"),
    (derivations.GradedLinearMap(1, 2, ((1, 1), (2, Fraction(1, 2)), (3, -3))),
     "GradedLinearMap(parity=1, n=2, row=((1, 1), (2, Fraction(1, 2)), (3, -3)))"),
    (derivations.DerivationSpace(2, E, 1),
     "DerivationSpace(n=2, basis=EchelonBasis(matrix=Matrix(rows=1, cols=2, support=(((1, 1),),)), "
     "pivot_cols=(1,)), even_width=1)"),
    (ISB, "IdStarBoundReport(name='H', sdim_id_star=SuperDim(even=0, odd=1), generator_pair=SuperDim("
          "even=2, odd=0), lam=SuperDim(even=1, odd=0), holds=True)"),
    (derivations.DerivationReport("H", SuperDim(5, 2), S, S, S, True, ISB),
     "DerivationReport(name='H', sdim_der=SuperDim(even=5, odd=2), sdim_inner=SuperDim(even=1, odd=0), "
     "sdim_id=SuperDim(even=1, odd=0), sdim_id_star=SuperDim(even=1, odd=0), chain_ok=True, "
     "bound=IdStarBoundReport(name='H', sdim_id_star=SuperDim(even=0, odd=1), generator_pair=SuperDim("
     "even=2, odd=0), lam=SuperDim(even=1, odd=0), holds=True))"),
    (invariants.SchurBoundReport("H", SuperDim(2, 0), SuperDim(2, 0), S, True),
     "SchurBoundReport(name='H', sdim_central_quotient=SuperDim(even=2, odd=0), generator_pair="
     "SuperDim(even=2, odd=0), lam=SuperDim(even=1, odd=0), holds=True)"),
    (LR, "LadderRung(derived_at_least=2, t_at_least=1, applies=True, holds=False)"),
    (invariants.PropositionAuditReport("H", 1, 0, (LR,)),
     "PropositionAuditReport(name='H', derived_total=1, t=0, rungs=(LadderRung(derived_at_least=2, "
     "t_at_least=1, applies=True, holds=False),))"),
    (REPORT,
     "InvariantReport(name='A', sdim=SuperDim(even=1, odd=1), sdim_derived=SuperDim(even=0, odd=0), "
     "sdim_center=SuperDim(even=1, odd=1), central_series=(SuperDim(even=1, odd=1),), "
     "nilpotency_class=1, is_stem=False, generator_pair=None, lam=None, st=None, t=None)"),
    (catalog.CatalogEntry("A", A, S, S, SuperDim(0, 0)),
     "CatalogEntry(name='A', algebra=LieSuperalgebra(name='A', even_names=('e1',), odd_names=('f1',), "
     "tensor=(((0, 0), (0, 0)), ((0, 0), (0, 0)))), sdim_central_quotient=SuperDim(even=1, odd=0), "
     "generator_pair=SuperDim(even=1, odd=0), sdim_derived=SuperDim(even=0, odd=0))"),
    (TR, "TableRowCheck(name='(4|0)_2', stored=(SuperDim(even=1, odd=0), SuperDim(even=1, odd=0), "
         "SuperDim(even=0, odd=1)), computed=(SuperDim(even=1, odd=0), SuperDim(even=1, odd=0), "
         "SuperDim(even=0, odd=1)))"),
    (catalog.Table1Report((TR,)),
     "Table1Report(rows=(TableRowCheck(name='(4|0)_2', stored=(SuperDim(even=1, odd=0), SuperDim("
     "even=1, odd=0), SuperDim(even=0, odd=1)), computed=(SuperDim(even=1, odd=0), SuperDim(even=1, "
     "odd=0), SuperDim(even=0, odd=1))),))"),
    (catalog.FamilyInstance("A(1|1)", A, SuperDim(0, 0)),
     "FamilyInstance(description='A(1|1)', algebra=LieSuperalgebra(name='A', even_names=('e1',), "
     "odd_names=('f1',), tensor=(((0, 0), (0, 0)), ((0, 0), (0, 0)))), st=SuperDim(even=0, odd=0))"),
    (CC, "ClassificationCheck(description='A(1|1)', expected_st=None, computed_st=SuperDim(even=1, "
         "odd=0), ok=False)"),
    (catalog.ClassificationReport((CC,)),
     "ClassificationReport(checks=(ClassificationCheck(description='A(1|1)', expected_st=None, "
     "computed_st=SuperDim(even=1, odd=0), ok=False),))"),
    (cli.Command(len, (("x", "y"),)),
     "Command(run=<built-in function len>, usage=(('x', 'y'),), positionals=(), flags=(), "
     "values=(), required=())"),
]
VALUES = [value for value, _ in SAMPLES]
IDS = [type(value).__name__ for value in VALUES]


def record_classes(cls=Record):
    for sub in cls.__subclasses__():
        yield sub
        yield from record_classes(sub)


def fields(value):
    return tuple(getattr(value, f) for f in type(value)._fields)


def test_every_record_class_has_one_sample():
    assert sorted(type(v).__name__ for v in VALUES) == sorted(c.__name__ for c in record_classes())
    assert len(VALUES) == 22


@pytest.mark.parametrize("value, text", SAMPLES, ids=IDS)
def test_repr_is_the_frozen_dataclass_repr(value, text):
    assert repr(value) == text


@pytest.mark.parametrize("value", VALUES, ids=IDS)
def test_assignment_and_deletion_are_refused(value):
    before = fields(value)
    for name in type(value)._fields + ("not_a_field",):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert fields(value) == before


@pytest.mark.parametrize("value", VALUES, ids=IDS)
def test_equality_and_hash_are_by_fields(value):
    twin = type(value)(*fields(value))
    assert twin == value and twin is not value and not twin != value
    # as a frozen dataclass: the hash of the tuple of the fields, also for
    # one field, so the iteration order of a set of records is unchanged
    assert hash(twin) == hash(value) == hash(fields(value))
    # another class, even a tuple of the same values, is not equal
    assert value.__eq__(fields(value)) is NotImplemented
    assert value != fields(value)


def test_one_field_record_does_not_hash_its_bare_value():
    rows = (TR,)
    report = catalog.Table1Report(rows)
    assert hash(report) == hash((rows,)) != hash(rows)


def test_records_of_other_classes_with_equal_fields_differ():
    assert SuperDim(1, 0) != (1, 0) and (1, 0) != SuperDim(1, 0)
    schur = invariants.SchurBoundReport(*fields(ISB))
    assert fields(schur) == fields(ISB) and schur != ISB and ISB != schur


@pytest.mark.parametrize("value", VALUES, ids=IDS)
def test_wrong_arity_is_a_type_error(value):
    cls = type(value)
    with pytest.raises(TypeError):
        cls(*fields(value), None)
    with pytest.raises(TypeError):
        cls()


def test_keywords_and_defaults():
    values = dict(zip(invariants.InvariantReport._fields, fields(REPORT)))
    assert invariants.InvariantReport(**values) == REPORT
    assert str(inspect.signature(cli.Command)) == (
        "(run, usage, positionals=(), flags=(), values=(), required=())")
    command = cli.Command(len, (), flags=("--x",))
    assert (command.positionals, command.flags, command.values, command.required) == ((), ("--x",), (), ())
    assert cli.Command(run=len, usage=()) == cli.Command(len, (), (), (), (), ())
    with pytest.raises(TypeError):
        cli.Command(len, (), colour=True)


def test_replace_changes_only_the_named_fields():
    other = REPORT._replace(name="B", t=3)
    assert (other.name, other.t) == ("B", 3) and other._replace(name="A", t=None) == REPORT
    assert REPORT._replace() == REPORT
    with pytest.raises(TypeError):
        REPORT._replace(colour=1)


@pytest.mark.parametrize("value", VALUES, ids=IDS)
def test_match_args_and_signature_are_the_fields(value):
    cls = type(value)
    assert cls.__match_args__ == cls._fields == tuple(inspect.signature(cls).parameters)


def test_match_by_position():
    match SuperDim(2, 3):
        case SuperDim(even, odd):
            assert (even, odd) == (2, 3)
        case _:
            pytest.fail("SuperDim did not match by position")


@pytest.mark.parametrize("value", VALUES, ids=IDS)
def test_pickle_and_deepcopy_round_trip(value):
    for twin in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
        assert type(twin) is type(value) and twin == value and repr(twin) == repr(value)
        with pytest.raises(AttributeError):
            setattr(twin, type(value)._fields[0], None)


def test_algebra_with_kept_values_survives_pickle_and_deepcopy():
    alg = core.from_brackets("H", ("x", "y", "z"), (), {(0, 1): ((2, 1),), (1, 0): ((2, -1),)})
    rep = invariant_report(alg)
    assert alg._memo
    for twin in (pickle.loads(pickle.dumps(alg)), copy.deepcopy(alg)):
        assert twin == alg and twin is not alg
        assert twin._memo.keys() == alg._memo.keys()
        assert invariant_report(twin) == rep


def test_map_with_kept_entries_is_the_same_value():
    """A map keeps its n x n Matrix view once it is read; that is no field,
    so equality, hash, repr, pickle, deepcopy and the refusal of assignment
    see the same map."""
    d = derivations.GradedLinearMap(0, 2, ((0, 1), (1, Fraction(1, 2))))
    e = derivations.GradedLinearMap(1, 2, ((2, -3),))
    twin = type(d)(*fields(d))
    derivations.der_bracket(d, e)
    assert "matrix" in vars(d) and "matrix" not in vars(twin)
    assert d.matrix == linalg.Matrix(2, 2, (((0, 1), (1, Fraction(1, 2))), ()))
    for copied in (twin, pickle.loads(pickle.dumps(d)), copy.deepcopy(d)):
        assert copied == d and d == copied and hash(copied) == hash(d) and repr(copied) == repr(d)
        assert copied.matrix == d.matrix
        assert derivations.der_bracket(copied, e) == derivations.der_bracket(d, e)
    for value in (d, pickle.loads(pickle.dumps(d)), copy.deepcopy(d)):
        for name in type(value)._fields + ("matrix",):
            with pytest.raises(AttributeError):
                setattr(value, name, None)
        assert fields(value) == fields(twin)


SRC = Path(superstem.__file__).resolve().parent


def test_startup_imports_neither_dataclasses_nor_inspect():
    code = ("import sys; import superstem.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    # -S: no site hooks, so only what the package itself imports is seen
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_no_module_imports_dataclasses_or_generates_code_outside_the_base():
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                assert "dataclasses" not in {a.name for a in node.names}, path.name
            if isinstance(node, ast.ImportFrom):
                assert node.module != "dataclasses", path.name
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("exec", "eval"):
                assert path.name == "_record.py", path.name
