"""Command-line surface.

`COMMANDS` holds each subcommand's handler, positionals, options and usage
lines; `main` reads argv against it, and `-h` or `--help` anywhere before a
`--` prints the usage lines of every command.

Exit codes: 0 when everything succeeds or every checked property holds,
1 for user errors (bad files, bad arguments, unknown names), 2 when a
verification or bound check fails.
"""

from __future__ import annotations

import re
import sys
from types import SimpleNamespace
from typing import Callable

from . import catalog, fileformat, reports
from ._record import Record
from .build import abelian, heisenberg_even, heisenberg_odd, tower
from .core import SuperDim, validate
from .derivations import derivation_report, idstar_bound_check
from .invariants import (
    NotNilpotentError,
    invariant_report,
    schur_bound_check,
)

OK, USER_ERROR, MISMATCH = 0, 1, 2


def _load(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None
    try:
        return fileformat.parse(text, check=False)
    except fileformat.AlgebraFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None


def _cmd_validate(args) -> int:
    alg = _load(args.file)
    if alg is None:
        return USER_ERROR
    report = validate(alg)
    print(reports.emit_report(report), end="")
    return OK if report.ok else MISMATCH


def _require_valid(args):
    alg = _load(args.file)
    if alg is None:
        return None
    report = validate(alg)
    if not report.ok:
        first = report.violations[0].detail if report.violations else "law violation"
        print(f"error: {first}", file=sys.stderr)
        return None
    return alg


def _cmd_invariants(args) -> int:
    alg = _require_valid(args)
    if alg is None:
        return USER_ERROR
    rep = invariant_report(alg)
    if args.json:
        print(reports.emit_report(rep), end="")
    else:
        print(f"algebra {rep.name}")
        print(f"  sdim            {rep.sdim}")
        print(f"  sdim [L,L]      {rep.sdim_derived}")
        print(f"  sdim Z(L)       {rep.sdim_center}")
        series = " < ".join(str(z) for z in rep.central_series) or "-"
        print(f"  central series  {series}")
        klass = rep.nilpotency_class if rep.nilpotency_class is not None else "not nilpotent"
        print(f"  class           {klass}")
        print(f"  stem            {'yes' if rep.is_stem else 'no'}")
        if rep.st is not None:
            print(f"  generator pair  {rep.generator_pair}")
            print(f"  lambda          {rep.lam}")
            print(f"  st              {rep.st}   t = {rep.t}")
    return OK


def _cmd_derivations(args) -> int:
    alg = _require_valid(args)
    if alg is None:
        return USER_ERROR
    rep = derivation_report(alg)
    if args.json:
        print(reports.emit_report(rep), end="")
    else:
        print(f"algebra {rep.name}")
        print(f"  sdim Der   {rep.sdim_der}")
        print(f"  sdim ad    {rep.sdim_inner}")
        print(f"  sdim ID    {rep.sdim_id}")
        print(f"  sdim ID*   {rep.sdim_id_star}")
        print(f"  chain ad <= ID* <= ID <= Der: {'holds' if rep.chain_ok else 'FAILS'}")
        if rep.bound is not None:
            verdict = "holds" if rep.bound.holds else "FAILS"
            print(f"  bound sdim ID* <= lambda {rep.bound.lam}: {verdict}")
    if not rep.chain_ok or (rep.bound is not None and not rep.bound.holds):
        return MISMATCH
    return OK


def _cmd_bounds(args) -> int:
    alg = _require_valid(args)
    if alg is None:
        return USER_ERROR
    try:
        schur = schur_bound_check(alg)
    except NotNilpotentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USER_ERROR
    print(reports.emit_report(schur), end="")
    idstar = idstar_bound_check(alg)
    print(reports.emit_report(idstar), end="")
    ok = schur.holds and idstar.holds
    return OK if ok else MISMATCH


def _cmd_catalog(args) -> int:
    if args.action == "list":
        for name in catalog.names():
            entry = catalog.get(name)
            print(f"{name}  sdim {entry.algebra.sdim}")
        return OK
    if args.action == "show":
        try:
            entry = catalog.get(args.name)
        except catalog.UnknownEntryError:
            print(f"error: no catalog entry named {args.name!r}", file=sys.stderr)
            return USER_ERROR
        print(fileformat.export(entry.algebra), end="")
        return OK
    # verify
    run_table = args.table1 or not (args.table1 or args.classification)
    run_classification = args.classification or not (args.table1 or args.classification)
    failed = False
    if run_table:
        rep = catalog.verify_table1()
        for row in rep.rows:
            mark = "ok" if row.ok else "MISMATCH"
            print(f"table1 {row.name}: {mark}")
        failed = failed or not rep.ok
    if run_classification:
        rep2 = catalog.verify_classification()
        bad = [c for c in rep2.checks if not c.ok]
        print(f"classification checks: {len(rep2.checks)} run, {len(bad)} failed")
        for c in bad:
            print(f"  MISMATCH {c.description}: computed st={c.computed_st}")
        failed = failed or not rep2.ok
    return MISMATCH if failed else OK


def _parse_pair(text: str) -> SuperDim | None:
    bits = text.split(",")
    if len(bits) != 2:
        return None
    try:
        a, b = int(bits[0]), int(bits[1])
    except ValueError:
        return None
    if a < 0 or b < 0:
        return None
    return SuperDim(a, b)


def _cmd_classify(args) -> int:
    value = _parse_pair(args.st)
    sdim = _parse_pair(args.sdim)
    if value is None or sdim is None:
        print("error: --st and --sdim take a pair like 1,1", file=sys.stderr)
        return USER_ERROR
    try:
        instances = catalog.classify_by_st(value, sdim)
    except ValueError as exc:
        # an unclassified st value, or a graded dimension too large to build
        print(f"error: {exc}", file=sys.stderr)
        return USER_ERROR
    for inst in instances:
        print(f"{inst.description}  sdim {inst.algebra.sdim}  st {inst.st} verified")
    if not instances:
        print("no algebras with this st value at this graded dimension")
    return OK


def _cmd_make(args) -> int:
    try:
        if args.family == "heisenberg-even":
            alg = heisenberg_even(args.m, args.n)
        elif args.family == "heisenberg-odd":
            alg = heisenberg_odd(args.m)
        elif args.family == "tower":
            alg = tower(args.t)
        else:
            alg = abelian(args.k, args.l)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USER_ERROR
    text = fileformat.export(alg)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return USER_ERROR
    else:
        print(text, end="")
    return OK


class Command(Record):
    """One subcommand: its handler, what its argv may hold, and its usage
    lines as (syntax, summary) pairs.

    Each positional is a (name, kind) pair: kind is `str`, `int`, or a
    mapping from each allowed word to the positionals that follow it.
    `flags` take no value; `values` take one, as `--x v` or `--x=v`, and
    those in `required` must be given.
    """

    run: Callable[[SimpleNamespace], int]
    usage: tuple[tuple[str, str], ...]
    positionals: tuple = ()
    flags: tuple[str, ...] = ()
    values: tuple[str, ...] = ()
    required: tuple[str, ...] = ()


COMMANDS = {
    "validate": Command(
        _cmd_validate,
        (("validate FILE", "check the bracket laws of an algebra file"),),
        (("file", str),),
    ),
    "invariants": Command(
        _cmd_invariants,
        (("invariants FILE [--json]", "centre, derived, series, class, stem, st"),),
        (("file", str),),
        flags=("--json",),
    ),
    "derivations": Command(
        _cmd_derivations,
        (("derivations FILE [--json]", "Der / ad / ID / ID* dimensions and checks"),),
        (("file", str),),
        flags=("--json",),
    ),
    "bounds": Command(
        _cmd_bounds,
        (("bounds FILE", "both size bound checks, as JSON"),),
        (("file", str),),
    ),
    "catalog": Command(
        _cmd_catalog,
        (
            ("catalog list", "the built-in catalog, one line per entry"),
            ("catalog show NAME", "print an entry in the file format"),
            ("catalog verify [--table1] [--classification]", ""),
        ),
        (("action", {"list": (), "show": (("name", str),), "verify": ()}),),
        flags=("--table1", "--classification"),
    ),
    "classify": Command(
        _cmd_classify,
        (("classify --st R,S --sdim K,L", ""),),
        values=("--st", "--sdim"),
        required=("--st", "--sdim"),
    ),
    "make": Command(
        _cmd_make,
        (("make heisenberg-even M N | heisenberg-odd M | tower T | abelian K L [--out FILE]", ""),),
        (("family", {
            "heisenberg-even": (("m", int), ("n", int)),
            "heisenberg-odd": (("m", int),),
            "tower": (("t", int),),
            "abelian": (("k", int), ("l", int)),
        }),),
        values=("--out",),
    ),
}

_HELP = ("-h", "--help")


def _usage(commands) -> str:
    lines = (f"superstem {syntax:<25} {summary}".rstrip() for cmd in commands for syntax, summary in cmd.usage)
    return "".join(line + "\n" for line in lines)


class _UsageError(Exception):
    pass


_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _is_option(arg: str, cmd: Command) -> bool:
    """Whether `arg` is read as an option of `cmd`. As in argparse, without
    its prefix abbreviations, that is a word starting with `-` other than
    `-` itself and, unless it names an option of `cmd`, other than a
    negative number or a word with a space: `make tower -3` hands -3 on."""
    if not arg.startswith("-") or arg == "-":
        return False
    if arg.partition("=")[0] in cmd.flags + cmd.values:
        return True
    return not (_NEGATIVE_NUMBER.match(arg) or " " in arg)


def _parse(cmd: Command, name: str, argv: list[str]) -> SimpleNamespace:
    """The values the handler of `cmd` reads from the argv after its name;
    `--` ends the options."""
    parsed = dict.fromkeys((opt[2:] for opt in cmd.flags), False)
    parsed.update(dict.fromkeys((opt[2:] for opt in cmd.values), None))
    words = []
    rest = iter(argv)
    for arg in rest:
        if arg == "--":
            words += rest
        elif not _is_option(arg, cmd):
            words.append(arg)
        else:
            opt, eq, value = arg.partition("=")
            if opt in cmd.flags and not eq:
                value = True
            elif opt in cmd.values and not eq:
                value = next(rest, None)
                if value is None or value == "--" or _is_option(value, cmd):
                    raise _UsageError(f"{opt} needs a value")
            elif opt not in cmd.values:
                raise _UsageError(f"{opt} takes no value" if opt in cmd.flags else f"unknown option {arg}")
            parsed[opt[2:]] = value
    words = iter(words)
    pending = list(cmd.positionals)
    while pending:
        dest, kind = pending.pop(0)
        word = next(words, None)
        if word is None:
            raise _UsageError(f"{name} needs {dest.upper()}")
        if kind is int:
            try:
                word = int(word)
            except ValueError:
                raise _UsageError(f"{dest.upper()} must be an integer, not {word!r}") from None
        elif kind is not str:
            if word not in kind:
                raise _UsageError(f"{dest.upper()} must be one of {', '.join(kind)}, not {word!r}")
            pending[:0] = kind[word]
        parsed[dest] = word
    extra = next(words, None)
    if extra is not None:
        raise _UsageError(f"unexpected argument {extra!r}")
    for opt in cmd.required:
        if parsed[opt[2:]] is None:
            raise _UsageError(f"{name} needs {opt}")
    return SimpleNamespace(**parsed)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if any(arg in _HELP for arg in argv[: argv.index("--") if "--" in argv else None]):
        print(_usage(COMMANDS.values()), end="")
        return OK
    cmd = COMMANDS.get(argv[0]) if argv else None
    try:
        if cmd is None:
            raise _UsageError(f"unknown command {argv[0]!r}" if argv else "no command given")
        args = _parse(cmd, argv[0], argv[1:])
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(_usage((cmd,) if cmd else COMMANDS.values()), end="", file=sys.stderr)
        return USER_ERROR
    return cmd.run(args)


if __name__ == "__main__":
    sys.exit(main())
