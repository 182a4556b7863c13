"""The benchmark's workloads: their inputs, their expected outputs, and how
one item runs.

An item is everything the workload does to one input.  The `derivations`
workload also runs on seeded changes of basis of small algebras (see
rebase.py); such an item is named after its original with a `~` and a copy
number, and must give the original's output.  CLI items call
`superstem.cli.main` in-process on an algebra file and yield the exit code
and standard output; closure items call the library directly.  Either way
an item's result is a text that must equal the recorded expected output.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

from superstem import cli, derivations
from superstem.build import direct_sum, heisenberg_even, heisenberg_odd, tower
from superstem.catalog import entries, get
from superstem.core import LieSuperalgebra
from superstem.fileformat import export

from rebase import rebase

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"

# the five catalog entries whose pairwise direct sums the acceptance corpus uses
SAMPLE = ("(4|0)_2", "(2|2)_6", "(1|3)_1", "(3|2)_13", "(2|3)_18")
# each catalog entry is rebased this many times, so that no one draw of the
# seed dominates a pass
REBASES_PER_ENTRY = 3


def _fresh(alg: LieSuperalgebra) -> LieSuperalgebra:
    """A copy of `alg` with none of the original's cached values."""
    return LieSuperalgebra(alg.name, alg.even_names, alg.odd_names, alg.tensor)


# Set-up works on copies of the catalog's algebras: the catalog's own
# objects are the ones `catalog verify` uses, and a cache that set-up filled
# on them would be inherited by the timed item.
def _catalog():
    return [_fresh(e.algebra) for e in entries()]


def _sums():
    return [direct_sum(_fresh(get(a).algebra), _fresh(get(b).algebra))
            for a in SAMPLE for b in SAMPLE]


def _heisenbergs(max_size: int):
    algs = [heisenberg_even(m, s - m) for s in range(1, max_size + 1) for m in range(s + 1)]
    return algs + [heisenberg_odd(m) for m in range(1, 5)]


def acceptance_corpus():
    """The 94 algebras of the acceptance tests (criteria 2, 3, 6, 9)."""
    return _catalog() + _heisenbergs(6) + [tower(t) for t in range(1, 7)] + _sums()


def derivation_corpus():
    """The acceptance test_04 set plus the 25 sample direct sums (80 algebras)."""
    return _catalog() + _heisenbergs(4) + [tower(t) for t in range(1, 6)] + _sums()


def closure_corpus():
    """Catalog, tower(1..6), the 25 sums, H(m,n) with m+n <= 4, H_1..H_4 (81)."""
    return _catalog() + [tower(t) for t in range(1, 7)] + _sums() + _heisenbergs(4)


def rebase_sources():
    # small family members only: the rebased cost of larger towers swings
    # by 10x with the seed
    family = [heisenberg_even(1, 1), heisenberg_even(2, 1), heisenberg_even(1, 2),
              heisenberg_odd(2), heisenberg_odd(3), tower(3)]
    return _catalog() * REBASES_PER_ENTRY + family


def write_algebra(path: Path, alg: LieSuperalgebra) -> str:
    # `export` writes a negative coefficient after the first term as
    # "+ -c x", which `parse` rejects; rebased algebras have such terms,
    # so the sign is folded into the operator before writing
    path.write_text(export(alg).replace(" + -", " - "), encoding="utf-8")
    return str(path)


@dataclass
class CliItem:
    name: str
    argv: list[str]
    expected: str | None

    def run(self) -> str:
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = cli.main(self.argv)
        return f"exit {code}\n{out.getvalue()}"


@dataclass
class ClosureItem:
    """The test_09 closure oracle: every bracket of two basis derivations
    must lie in Der(L)."""

    name: str
    algebra: LieSuperalgebra
    expected: str | None

    def run(self) -> str:
        space = derivations.derivation_space(self.algebra)
        maps = space.maps(0) + space.maps(1)
        inside = sum(space.contains(derivations.der_bracket(d, e)) for d in maps for e in maps)
        return json.dumps({"sdim_der": list(space.sdim), "pairs": len(maps) ** 2, "inside": inside})


def expected_file(workload: str) -> Path:
    return EXPECTED_DIR / f"{workload}.json"


def is_rebased(name: str) -> bool:
    return "~" in name


def rebased_items(rng: random.Random, workdir: Path, want) -> list:
    """`derivations --json` on a seeded rebase of each of rebase_sources();
    a rebased algebra must give its original's output apart from the name."""
    items = []
    copies: dict[str, int] = {}
    for i, orig in enumerate(rebase_sources()):
        copies[orig.name] = copies.get(orig.name, 0) + 1
        name = f"{orig.name}~{copies[orig.name]}"
        path = write_algebra(workdir / f"rebased-{i}.alg", rebase(orig, rng, name))
        exp = want(orig.name)
        if exp is not None:
            exp = exp.replace(f'"name": {json.dumps(orig.name)}', f'"name": {json.dumps(name)}')
        items.append(CliItem(name, ["derivations", path, "--json"], exp))
    return items


def load_expected(workload: str) -> dict[str, str]:
    return json.loads(expected_file(workload).read_text(encoding="utf-8"))


def build(workload: str, seed: int, workdir: Path, expected: dict[str, str] | None) -> list:
    """The items of one workload, in an order drawn from the seed.

    Inputs that CLI items read are written under `workdir`.  With
    `expected` None the items carry no expected output (for recording).
    """
    rng = random.Random(seed)
    want = (lambda name: None) if expected is None else expected.__getitem__
    untouched = [set(vars(e.algebra)) for e in entries()]
    items: list = []
    if workload in ("invariants", "derivations"):
        if workload == "invariants":
            # sparse scaling points with n = 21..51, where the invariant
            # layers, validate and parse start to grow
            algs = acceptance_corpus() + [
                heisenberg_even(10, 0), tower(20), tower(30),
                heisenberg_even(15, 10), heisenberg_odd(15), heisenberg_even(20, 10)]
        else:
            # the scaling points ROADMAP names for the derivation solvers
            algs = derivation_corpus() + [heisenberg_even(10, 0), tower(20)]
        for i, alg in enumerate(algs):
            path = write_algebra(workdir / f"{i}.alg", alg)
            items.append(CliItem(alg.name, [workload, path, "--json"], want(alg.name)))
        if workload == "invariants":
            items.append(CliItem("catalog verify", ["catalog", "verify"], want("catalog verify")))
        else:
            items += rebased_items(rng, workdir, want)
    elif workload == "closure":
        for alg in closure_corpus():
            # a fresh object, so that no cache filled while building the
            # corpus is inherited by the timed item
            items.append(ClosureItem(alg.name, _fresh(alg), want(alg.name)))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    if [set(vars(e.algebra)) for e in entries()] != untouched:
        raise RuntimeError("set-up filled a cache on the catalog's own algebras")
    rng.shuffle(items)
    return items
