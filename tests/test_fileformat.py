import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as strat

from superstem.build import algebra_from_relations, heisenberg_even, heisenberg_odd, tower
from superstem.catalog import get, names
from superstem.fileformat import (
    MAX_BASIS,
    AlgebraFormatError,
    BadRationalError,
    ConflictingRelationError,
    DuplicateRelationError,
    FormatSyntaxError,
    UnknownBasisNameError,
    ValidationFailedError,
    export,
    parse,
)
from superstem.linalg import frac

EXAMPLE = '''
# a four-dimensional example
algebra "(4|0)_2"
even: e1 e2 e3 e4
odd:

[e1, e2] = e3
[e1, e3] = e4
'''

GOLDEN_13 = (
    'algebra "(3|2)_13"\n'
    "even: e1 e2 e3\n"
    "odd: f1 f2\n"
    "[e1, e2] = e3\n"
    "[e1, f2] = f1\n"
    "[f1, f2] = e3\n"
    "[f2, f2] = 2 e2\n"
)


def test_parse_example_matches_catalog():
    alg = parse(EXAMPLE)
    assert alg.tensor == get("(4|0)_2").algebra.tensor
    assert alg.name == "(4|0)_2"
    assert alg.even_names == ("e1", "e2", "e3", "e4")
    assert alg.odd_names == ()


def test_parse_minimal_file():
    alg = parse('algebra "a"\neven: a\nodd:\n')
    assert alg.sdim.even == 1 and alg.sdim.odd == 0
    assert alg.bracket(alg.basis_vector(0), alg.basis_vector(0)) == alg.zero()


def test_parse_sum_forms():
    text = (
        'algebra "sums"\n'
        "even: e1 e2\n"
        "odd: f1\n"
        "[f1, f1] = -1 e1 + 1/3 e2\n"
        "[e1, e2] = 0\n"
    )
    alg = parse(text)
    v = alg.bracket(alg.basis_vector(2), alg.basis_vector(2))
    assert v == (frac(-1), Fraction(1, 3), frac(0))


def test_coefficient_adjacent_to_name():
    alg = parse('algebra "x"\neven: e1 e2 e3\nodd:\n[e1, e2] = 2e3\n')
    w = alg.bracket(alg.basis_vector(0), alg.basis_vector(1))
    assert w == (frac(0), frac(0), frac(2))


def test_comments_and_blank_lines_ignored():
    text = '# top\n\nalgebra "c"\n# middle\neven: e1\n\nodd: f1\n# tail\n'
    alg = parse(text)
    assert alg.basis_names == ("e1", "f1")


def test_header_errors():
    with pytest.raises(FormatSyntaxError):
        parse("")
    with pytest.raises(FormatSyntaxError):
        parse("algebra missing-quotes\neven:\nodd:\n")
    with pytest.raises(FormatSyntaxError):
        parse('algebra "x"\nodd:\neven:\n')
    err = None
    try:
        parse('algebra "x"\neven: e1\n')
    except FormatSyntaxError as exc:
        err = exc
    assert err is not None and "odd" in str(err)


def test_unknown_basis_name_in_bracket():
    with pytest.raises(UnknownBasisNameError) as info:
        parse('algebra "x"\neven: e1 e2\nodd:\n[e1, e9] = e2\n')
    assert info.value.line == 4


def test_unknown_basis_name_in_sum():
    with pytest.raises(UnknownBasisNameError):
        parse('algebra "x"\neven: e1 e2\nodd:\n[e1, e2] = e7\n')


def test_duplicate_relation():
    text = 'algebra "x"\neven: e1 e2 e3\nodd:\n[e1, e2] = e3\n[e1, e2] = e3\n'
    with pytest.raises(DuplicateRelationError) as info:
        parse(text)
    assert info.value.line == 5


def test_duplicate_basis_declaration():
    with pytest.raises(FormatSyntaxError):
        parse('algebra "x"\neven: e1 e1\nodd:\n')
    with pytest.raises(FormatSyntaxError):
        parse('algebra "x"\neven: e1\nodd: e1\n')


def declaring(even, odd):
    return 'algebra "big"\neven: %s\nodd: %s\n' % (
        " ".join(f"e{i}" for i in range(even)), " ".join(f"o{i}" for i in range(odd)))


def test_basis_size_limit():
    assert MAX_BASIS == 128
    assert len(parse(declaring(100, 28)).even_names) == 100
    assert len(parse(declaring(128, 0)).even_names) == 128
    for even, odd, line in ((100, 29, 3), (129, 0, 2), (0, 129, 3)):
        with pytest.raises(AlgebraFormatError) as info:
            parse(declaring(even, odd))
        assert info.value.line == line and "128" in str(info.value)


def test_conflicting_mirror_orientations():
    text = 'algebra "x"\neven: e1 e2 e3\nodd:\n[e1, e2] = e3\n[e2, e1] = e3\n'
    with pytest.raises(ConflictingRelationError) as info:
        parse(text)
    assert info.value.line == 5
    assert "[e2, e1] conflicts with the relation on line 4" in str(info.value)
    # consistent restatement of the mirror is accepted
    ok = 'algebra "x"\neven: e1 e2 e3\nodd:\n[e1, e2] = e3\n[e2, e1] = -1 e3\n'
    assert parse(ok).tensor == parse('algebra "x"\neven: e1 e2 e3\nodd:\n[e1, e2] = e3\n').tensor


def test_odd_mirror_conflict_names_both_lines():
    # [f2, f1] = [f1, f2] for odd f1, f2, so "-1 e1" contradicts line 4
    text = 'algebra "x"\neven: e1\nodd: f1 f2\n[f1, f2] = e1\n[f2, f1] = -1 e1\n'
    with pytest.raises(ConflictingRelationError) as info:
        parse(text)
    assert info.value.line == 5
    assert str(info.value) == (
        "[f2, f1] conflicts with the relation on line 4 (super skew symmetry) (line 5)")
    assert parse(text.replace("-1 e1", "e1")).tensor == parse(text.split("[f2")[0]).tensor


def three_even(relation):
    return f'algebra "x"\neven: e1 e2 e3\nodd:\n{relation}\n'


def test_repeated_terms_are_summed():
    alg = parse(three_even("[e1, e2] = e3 + 2 e3 - 1/2 e3 + e1 - e1"))
    assert alg.basis_bracket(0, 1) == ((2, Fraction(5, 2)),)


def test_a_syntax_error_in_a_sum_comes_before_its_unknown_name():
    with pytest.raises(FormatSyntaxError) as info:
        parse(three_even("[e1, e2] = e7 + * e1"))
    assert (info.value.line, info.value.column) == (4, 17)


def test_even_self_bracket_rejected():
    with pytest.raises(ConflictingRelationError):
        parse('algebra "x"\neven: e1 e2\nodd:\n[e1, e1] = e2\n')


def test_bad_rationals():
    with pytest.raises(BadRationalError) as info:
        parse('algebra "x"\neven: e1 e2\nodd:\n[e1, e2] = 2.5 e1\n')
    assert info.value.line == 4 and info.value.column is not None
    with pytest.raises(BadRationalError):
        parse('algebra "x"\neven: e1 e2\nodd:\n[e1, e2] = 1/0 e1\n')


@pytest.mark.parametrize("text, error, line, column", [
    # columns count in the raw line, indentation included
    ('algebra "x"\neven: x y\nodd:\n    [x, y] = 1/0 x\n', BadRationalError, 4, 14),
    ('  algebra x\n', FormatSyntaxError, 1, 3),
    ('algebra "x"\neven: e1 e2\nodd:\n  [e1, e9] = e2\n', UnknownBasisNameError, 4, 8),
    ('algebra "x"\neven: e1 e2\nodd:\n[e1, e2] = e1\n  [e1, e2] = e2\n', DuplicateRelationError, 5, 3),
    # the offending word, not the first substring equal to it
    ('algebra "x"\n  even: x1 1\nodd:\n', FormatSyntaxError, 2, 12),
    ('algebra "x"\neven: e2 e22\nodd:\n[e2, e22] = e22 + e2 + 2 e222\n', UnknownBasisNameError, 4, 26),
    # a repeated name at its second declaration
    ('algebra "x"\neven: a b a\nodd:\n', FormatSyntaxError, 2, 11),
    ('algebra "x"\neven: a b\nodd: c a\n', FormatSyntaxError, 3, 8),
])
def test_error_columns_point_at_the_offending_word(text, error, line, column):
    with pytest.raises(error) as info:
        parse(text)
    assert (info.value.line, info.value.column) == (line, column)
    assert str(info.value).endswith(f"(line {line}, column {column})")


def test_sum_syntax_errors():
    bad_sums = ["+ e1", "2 3 e1", "e1 +", "2", "e1 ++ e2", "* e1"]
    for rhs in bad_sums:
        text = f'algebra "x"\neven: e1 e2 e3\nodd:\n[e1, e2] = {rhs}\n'
        with pytest.raises(FormatSyntaxError):
            parse(text)


def test_law_violations_rejected_at_parse_time():
    jacobi_breaker = (
        'algebra "bad"\n'
        "even: e1 e2 e3\n"
        "odd:\n"
        "[e1, e2] = e3\n"
        "[e2, e3] = e1\n"
        "[e3, e1] = e3\n"
    )
    with pytest.raises(ValidationFailedError):
        parse(jacobi_breaker)
    grading_breaker = 'algebra "bad"\neven: e1 e2\nodd: f1\n[e1, f1] = e2\n'
    with pytest.raises(ValidationFailedError):
        parse(grading_breaker)
    # the same text is accepted with the validation pass disabled
    alg = parse(grading_breaker, check=False)
    assert alg.n == 3


def test_export_golden_string():
    assert export(get("(3|2)_13").algebra) == GOLDEN_13


def test_export_empty_odd_line_is_bare():
    text = export(get("(4|0)_2").algebra)
    assert "\nodd:\n" in text


@settings(max_examples=40, deadline=None)
@given(strat.sampled_from(names()))
def test_roundtrip_on_catalog(name):
    alg = get(name).algebra
    again = parse(export(alg))
    assert again.tensor == alg.tensor
    assert again.basis_names == alg.basis_names
    assert again.name == alg.name


def test_roundtrip_on_families():
    for alg in (heisenberg_even(2, 2), heisenberg_odd(3), tower(4)):
        again = parse(export(alg))
        assert again.tensor == alg.tensor
        assert again.basis_names == alg.basis_names


@pytest.mark.parametrize("form", ("numerator", "denominator"))
def test_roundtrip_at_the_digit_limit(form):
    limit = sys.get_int_max_str_digits()
    if not limit:
        pytest.skip("int string conversion has no digit limit")
    digits = ("9" if form == "numerator" else "7") * limit
    coefficient = digits if form == "numerator" else f"1/{digits}"
    alg = parse(f'algebra "x"\neven: x1 x2 z\nodd:\n[x1, x2] = {coefficient} z\n')
    assert alg.basis_bracket(0, 1) == ((2, frac(coefficient)),)
    assert parse(export(alg)) == alg


def test_roundtrip_negative_later_terms():
    # [e1, e2] = e3 - e4 and [f1, f1] = e3 - 1/3 e4; e3, e4 are central
    alg = algebra_from_relations(
        "signs", ("e1", "e2", "e3", "e4"), ("f1",),
        [(0, 1, {2: frac(1), 3: frac(-1)}), (4, 4, {2: frac(1), 3: Fraction(-1, 3)})],
    )
    text = export(alg)
    assert "[e1, e2] = e3 - e4\n" in text
    assert "[f1, f1] = e3 - 1/3 e4\n" in text
    again = parse(text)
    assert again.tensor == alg.tensor
    assert again.basis_names == alg.basis_names


@pytest.mark.parametrize("name, even, offender", (
    ("x", ("a b",), "a b"),
    ('say "hi"', ("a",), 'say "hi"'),
    ("x", ("1a",), "1a"),
    ("two\u2028lines", ("a",), "two\u2028lines"),
))
def test_export_refuses_names_that_do_not_read_back(name, even, offender):
    # written anyway, these read back as another algebra or not at all
    alg = algebra_from_relations(name, even, (), [])
    with pytest.raises(ValueError, match=re.escape(repr(offender))):
        export(alg)
