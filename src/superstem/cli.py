"""Command-line surface.

Exit codes: 0 when everything succeeds or every checked property holds,
1 for user errors (bad files, bad arguments, unknown names), 2 when a
verification or bound check fails.
"""

from __future__ import annotations

import argparse
import sys

from . import catalog, fileformat, reports
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
        if not args.name:
            print("error: catalog show needs a NAME", file=sys.stderr)
            return USER_ERROR
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="superstem",
        description="Exact invariants and bound checks for nilpotent Lie superalgebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check the bracket laws of an algebra file")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("invariants", help="centre, derived, series, class, st")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_invariants)

    p = sub.add_parser("derivations", help="Der, ad, ID, ID* dimensions and checks")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_derivations)

    p = sub.add_parser("bounds", help="Schur-type and ID* bound checks")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_bounds)

    p = sub.add_parser("catalog", help="list, show, or verify the built-in catalog")
    p.add_argument("action", choices=("list", "show", "verify"))
    p.add_argument("name", nargs="?")
    p.add_argument("--table1", action="store_true")
    p.add_argument("--classification", action="store_true")
    p.set_defaults(fn=_cmd_catalog)

    p = sub.add_parser("classify", help="algebras with a given st and graded dimension")
    p.add_argument("--st", required=True, metavar="R,S")
    p.add_argument("--sdim", required=True, metavar="K,L")
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("make", help="write a standard family member as an algebra file")
    fam = p.add_subparsers(dest="family", required=True)
    q = fam.add_parser("heisenberg-even")
    q.add_argument("m", type=int)
    q.add_argument("n", type=int)
    q = fam.add_parser("heisenberg-odd")
    q.add_argument("m", type=int)
    q = fam.add_parser("tower")
    q.add_argument("t", type=int)
    q = fam.add_parser("abelian")
    q.add_argument("k", type=int)
    q.add_argument("l", type=int)
    for q_name in ("heisenberg-even", "heisenberg-odd", "tower", "abelian"):
        fam.choices[q_name].add_argument("--out")
        fam.choices[q_name].set_defaults(fn=_cmd_make)

    return parser


_PARSER = build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
