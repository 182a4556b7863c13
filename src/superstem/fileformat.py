"""Plain-text presentations of superalgebras, and their parser.

The format mirrors relation lists one-to-one::

    algebra "(4|0)_2"
    even: e1 e2 e3 e4
    odd:
    [e1, e2] = e3
    [e1, e3] = e4

Right-hand sides are formal sums like ``2 e2`` or ``-1 e1 + 1/3 e2``; blank
lines and lines starting with ``#`` are ignored.  Undeclared brackets are
zero and the mirror orientation of each declared bracket is filled in by
super skew symmetry.
"""

from __future__ import annotations

import re

from ._record import Record
from .build import StructureConflictError, algebra_from_relations
from .core import MAX_BASIS, LieSuperalgebra, ValidationReport, validate
from .linalg import Scalar, frac


class AlgebraFormatError(ValueError):
    """Base class for everything wrong with an algebra file."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f"line {line}"
            if column is not None:
                where += f", column {column}"
            where = f" ({where})"
        super().__init__(f"{message}{where}")


class FormatSyntaxError(AlgebraFormatError):
    pass


class UnknownBasisNameError(AlgebraFormatError):
    pass


class DuplicateRelationError(AlgebraFormatError):
    pass


class ConflictingRelationError(AlgebraFormatError):
    pass


class BadRationalError(AlgebraFormatError):
    pass


class ValidationFailedError(ValueError):
    """The file parsed, but the algebra it defines breaks a bracket law."""

    def __init__(self, report: ValidationReport):
        self.report = report
        first = report.violations[0].detail if report.violations else "unknown violation"
        super().__init__(f"algebra fails validation: {first}")


class AlgebraFile(Record):
    """The parsed file, before any algebra is built from it."""

    name: str
    even_names: tuple[str, ...]
    odd_names: tuple[str, ...]
    relations: tuple[tuple[str, str, tuple[tuple[Scalar, str], ...], int], ...]


_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_HEADER_RE = re.compile(r'^algebra\s+"([^"]*)"\s*$')
_RELATION_RE = re.compile(r"^\[\s*(\w+)\s*,\s*(\w+)\s*\]\s*=\s*(.*\S)\s*$")
_WORD_RE = re.compile(r"\S+")
_TOKEN_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|\d+(?:\.\d+)?(?:/\d+)?|\+|-|\S")


def _parse_sum(rhs: str, lineno: int, offset: int) -> tuple[tuple[Scalar, str], ...]:
    if rhs.strip() == "0":
        return ()
    terms: list[tuple[Scalar, str]] = []
    sign = 1
    coeff: Scalar | None = None
    expect_name = False
    for tok in _TOKEN_RE.finditer(rhs):
        text = tok.group(0)
        col = offset + tok.start() + 1
        if text in "+-":
            if expect_name or coeff is not None:
                raise FormatSyntaxError("dangling sign inside a term", lineno, col)
            if terms and text == "+":
                sign = 1
            elif text == "-":
                sign = -sign
            elif not terms:
                raise FormatSyntaxError("a sum cannot start with +", lineno, col)
            expect_name = True
            continue
        if text[0].isdigit():
            if coeff is not None:
                raise FormatSyntaxError("two coefficients in a row", lineno, col)
            if "." in text:
                raise BadRationalError(f"{text!r} is not a rational", lineno, col)
            try:
                coeff = frac(text)
            except ZeroDivisionError:
                raise BadRationalError(f"{text!r} has a zero denominator", lineno, col) from None
            except ValueError:
                # the interpreter's limit on digits in an int's text
                raise BadRationalError(f"coefficient of {len(text)} characters has too many digits",
                                       lineno, col) from None
            continue
        if _NAME_RE.fullmatch(text):
            terms.append(((coeff if coeff is not None else 1) * sign, text))
            sign = 1
            coeff = None
            expect_name = False
            continue
        raise FormatSyntaxError(f"unexpected {text!r}", lineno, col)
    if coeff is not None or expect_name:
        raise FormatSyntaxError("term is missing its basis name", lineno, offset + len(rhs))
    if not terms:
        raise FormatSyntaxError("empty right-hand side", lineno, offset + 1)
    return tuple(terms)


def parse_file(text: str) -> AlgebraFile:
    """Parse the textual structure without building or checking the algebra.

    Errors carry the line and the column in the raw line, indentation
    included, of the offending word.
    """
    # each kept line is stripped; its indent turns columns in it back into raw ones
    lines = [
        (i + 1, ln, len(raw) - len(raw.lstrip()))
        for i, raw in enumerate(text.splitlines())
        for ln in [raw.strip()]
        if ln and not ln.startswith("#")
    ]
    if not lines:
        raise FormatSyntaxError("empty file", 1, 1)

    pos = 0

    def take(what: str) -> tuple[int, str, int]:
        nonlocal pos
        if pos >= len(lines):
            raise FormatSyntaxError(f"missing {what} line", lines[-1][0] + 1, 1)
        item = lines[pos]
        pos += 1
        return item

    lineno, header, indent = take("algebra")
    m = _HEADER_RE.match(header)
    if not m:
        raise FormatSyntaxError('expected: algebra "<name>"', lineno, indent + 1)
    name = m.group(1)

    declared: list[str] = []
    parts = []
    for label in ("even", "odd"):
        lineno, line, indent = take(f"{label}:")
        if not line.startswith(f"{label}:"):
            raise FormatSyntaxError(f"expected a {label}: line", lineno, indent + 1)
        words = list(_WORD_RE.finditer(line, len(label) + 1))
        for w in words:
            nm, col = w.group(), indent + w.start() + 1
            if not _NAME_RE.fullmatch(nm):
                raise FormatSyntaxError(f"bad basis name {nm!r}", lineno, col)
            if nm in declared:
                raise FormatSyntaxError(f"basis name {nm!r} declared twice", lineno, col)
            declared.append(nm)
            # from_brackets would refuse it too, but without the line
            if len(declared) > MAX_BASIS:
                raise AlgebraFormatError(f"more than {MAX_BASIS} basis names", lineno)
        parts.append(tuple(w.group() for w in words))
    even_names, odd_names = parts

    known = set(declared)
    relations = []
    seen: set[tuple[str, str]] = set()
    while pos < len(lines):
        lineno, line, indent = take("relation")
        m = _RELATION_RE.match(line)
        if not m:
            raise FormatSyntaxError("expected: [a, b] = sum", lineno, indent + 1)
        left, right = m.group(1), m.group(2)
        for nm, grp in ((left, 1), (right, 2)):
            if nm not in known:
                raise UnknownBasisNameError(f"unknown basis name {nm!r}", lineno, indent + m.start(grp) + 1)
        if (left, right) in seen:
            raise DuplicateRelationError(f"[{left}, {right}] declared twice", lineno, indent + 1)
        seen.add((left, right))
        rhs, offset = m.group(3), indent + m.start(3)
        terms = _parse_sum(rhs, lineno, offset)
        for _, nm in terms:
            if nm not in known:
                # the first token that is the name, not the first substring
                col = next(t.start() for t in _TOKEN_RE.finditer(rhs) if t.group() == nm)
                raise UnknownBasisNameError(f"unknown basis name {nm!r}", lineno, offset + col + 1)
        relations.append((left, right, terms, lineno))
    return AlgebraFile(name, even_names, odd_names, tuple(relations))


def build_algebra(af: AlgebraFile) -> LieSuperalgebra:
    """Turn a parsed file into an algebra; algebra_from_relations fills in
    the mirrors and finds conflicts, which are reported by line."""
    index = {nm: i for i, nm in enumerate(af.even_names + af.odd_names)}
    rels = []
    for left, right, terms, _ in af.relations:
        value: dict[int, Scalar] = {}
        for c, nm in terms:
            value[index[nm]] = value.get(index[nm], 0) + c
        rels.append((index[left], index[right], value))
    try:
        return algebra_from_relations(af.name, af.even_names, af.odd_names, rels)
    except StructureConflictError as exc:
        message, line = str(exc), None
        if exc.relation is not None:
            left, right, _, line = af.relations[exc.relation]
            if exc.earlier is not None:
                # parse_file refuses a pair declared twice, so the relation's
                # own pair is the one an earlier relation's mirror fixed
                message = (f"[{left}, {right}] conflicts with the relation on line "
                           f"{af.relations[exc.earlier][3]} (super skew symmetry)")
        raise ConflictingRelationError(message, line) from None


def parse(text: str, *, check: bool = True) -> LieSuperalgebra:
    """Parse, build, and (by default) validate an algebra file.

    Raises ValidationFailedError when the algebra breaks a bracket law.
    """
    alg = build_algebra(parse_file(text))
    if check:
        report = validate(alg)
        if not report.ok:
            raise ValidationFailedError(report)
    return alg


def _format_sum(terms: list[tuple[Scalar, str]]) -> str:
    # later negative terms are written "- c x": parse rejects "+ -c x"
    out = ""
    for pos, (c, nm) in enumerate(terms):
        if pos:
            out += " - " if c < 0 else " + "
            c = abs(c)
        out += nm if c == 1 else f"{c} {nm}"
    return out


def export(alg: LieSuperalgebra) -> str:
    """Serialize an algebra; one canonical orientation i <= j per bracket.

    Raises ValueError for a name that parse would not read back as the same
    algebra: an algebra name with a quote or a line break in it, or a basis
    name that is not an identifier.
    """
    if '"' in alg.name or "".join(alg.name.splitlines()) != alg.name:
        raise ValueError(f"algebra name {alg.name!r} cannot be written in the header line")
    for nm in alg.basis_names:
        if not _NAME_RE.fullmatch(nm):
            raise ValueError(f"bad basis name {nm!r}")
    out = [f'algebra "{alg.name}"']
    out.append(("even: " + " ".join(alg.even_names)).rstrip())
    out.append(("odd: " + " ".join(alg.odd_names)).rstrip())
    names = alg.basis_names
    for i, j, support in alg.nonzero_brackets:
        if i <= j:
            terms = [(c, names[k]) for k, c in support]
            out.append(f"[{names[i]}, {names[j]}] = {_format_sum(terms)}")
    return "\n".join(out) + "\n"
