#!/usr/bin/env python3
"""Print one line per CLI run: command, file, exit code, sha256 of stdout and
of stderr.

Two runs of this script, one on each of two versions of superstem, tell
whether a change left every CLI output byte-identical: `diff` their output.

    python3 scripts/cli_snapshot.py > after.txt

Files: the 32 catalog entries, H(10,0), tower(20), tower(30), H(12,6), H_12
(odd centre, n = 25, whose Der has maps of both degrees), three files whose
relations contradict super skew symmetry, and the 32 texts of
cli_snapshot_texts.json: parser and CLI cases first written as string
literals in tests/test_cli.py and tests/test_fileformat.py, kept fixed so
that a new test does not change the snapshot.  Each runs under validate,
invariants and derivations (text and --json) and bounds.  The file-free
commands follow: the three `catalog verify` forms, `catalog list`,
`catalog show` of every entry, `classify` of the six classified st values
at six graded dimensions and of one unsupported value, `make` of each
family at two sizes, to stdout, and the usage errors and help requests of
USAGE.  The CLI runs in this process, on files written to a temporary
directory and named relative to it, so no path differs between runs.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

from superstem.build import heisenberg_even, heisenberg_odd, tower
from superstem.catalog import classified_values, entries
from superstem.cli import main
from superstem.fileformat import export

# algebra texts of the parser and CLI tests, frozen, so that a new test
# adds no snapshot line; each is keyed by the test file it was taken from
# and the first 12 hex digits of its sha256
TEXTS = Path(__file__).resolve().with_name("cli_snapshot_texts.json")

CONFLICTS = {
    "even-even-mirror": 'algebra "x"\neven: e1 e2 e3\nodd:\n[e1, e2] = e3\n[e2, e1] = e3\n',
    "odd-odd-mirror": 'algebra "x"\neven: e1\nodd: f1 f2\n[f1, f2] = e1\n[f2, f1] = -1 e1\n',
    "even-self-bracket": 'algebra "x"\neven: e1 e2\nodd:\n[e1, e1] = e2\n',
}

COMMANDS = (
    ["validate"],
    ["invariants"],
    ["invariants", "--json"],
    ["derivations"],
    ["derivations", "--json"],
    ["bounds"],
)


CLASSIFY_SDIMS = ("2,2", "3,3", "5,1", "1,4", "4,4", "6,2")

MAKES = (
    ["heisenberg-even", "1", "1"],
    ["heisenberg-even", "3", "2"],
    ["heisenberg-odd", "1"],
    ["heisenberg-odd", "3"],
    ["tower", "1"],
    ["tower", "6"],
    ["abelian", "0", "1"],
    ["abelian", "3", "2"],
)

# argv that the command line must refuse with exit 1 and an `error:` line,
# then two requests for help, then a NAME after `catalog verify` and after
# `catalog list`, which only `show` reads, and `catalog show` without one
USAGE = (
    [],
    ["frobnicate"],
    ["invariants"],
    ["invariants", "a", "b"],
    ["invariants", "f", "--jsn"],
    ["make", "tower", "x"],
    ["make", "tower", "3", "--out"],
    ["classify", "--st", "1,1"],
    ["--help"],
    ["invariants", "-h"],
    ["catalog", "verify", "table1"],
    ["catalog", "list", "x"],
    ["catalog", "show"],
)


def file_free_commands() -> list[list[str]]:
    cmds = [["catalog", "verify", *flags] for flags in ([], ["--table1"], ["--classification"])]
    cmds.append(["catalog", "list"])
    cmds += [["catalog", "show", e.name] for e in entries()]
    for value in classified_values():
        cmds += [["classify", "--st", f"{value.even},{value.odd}", "--sdim", sd] for sd in CLASSIFY_SDIMS]
    cmds.append(["classify", "--st", "3,0", "--sdim", "3,3"])
    cmds += [["make", *args] for args in MAKES]
    return cmds + list(USAGE)


def corpus() -> dict[str, str]:
    files = {e.name: export(e.algebra) for e in entries()}
    for alg in (heisenberg_even(10, 0), tower(20), tower(30), heisenberg_even(12, 6), heisenberg_odd(12)):
        files[alg.name] = export(alg)
    files.update(CONFLICTS)
    files.update(json.loads(TEXTS.read_text(encoding="utf-8")))
    return files


def run(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # how an argparse-based main refused an argv
            code = exc.code
    digest = [hashlib.sha256(s.getvalue().encode()).hexdigest() for s in (out, err)]
    return f"{code} {digest[0]} {digest[1]}"


def snapshot() -> None:
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for k, (label, text) in enumerate(corpus().items()):
                name = f"{k}.alg"
                Path(name).write_text(text, encoding="utf-8")
                for cmd in COMMANDS:
                    print(f"{' '.join(cmd)} | {label} | {run(cmd[:1] + [name] + cmd[1:])}", flush=True)
        finally:
            os.chdir(home)
        for argv in file_free_commands():
            print(f"{' '.join(argv)} | - | {run(argv)}", flush=True)


if __name__ == "__main__":
    sys.exit(snapshot())
