#!/usr/bin/env python3
"""Run every verification pass over the catalog and the standard families.

Sections: stored-table reproduction, classification cross-check, the
bracket laws, the central quotient bound, the derivation chain
ad <= ID* <= ID <= Der with the ID* bound, the derived-size ladder, the stem
decomposition round trip (L = T + A with T stem, rebuilt with the same
invariants), and the closure of Der(L) under the graded commutator.  Exits
nonzero if any check fails, so the script doubles as a one-shot regression
gate.
"""

import sys
import time

from superstem.build import abelian, direct_sum, heisenberg_even, heisenberg_odd, tower
from superstem.catalog import entries, get, verify_classification, verify_table1
from superstem.core import validate
from superstem.derivations import der_bracket, derivation_report, derivation_space
from superstem.invariants import (
    StemDecompositionError,
    invariant_report,
    is_stem,
    proposition_audit,
    schur_bound_check,
    stem_decomposition,
)

# largest m+n for H(m,n) and largest m for H_m; largest tower parameter t
MAX_HEISENBERG, MAX_TOWER = 4, 6


def family_corpus():
    algs = [e.algebra for e in entries()]
    algs += [
        heisenberg_even(m, s - m)
        for s in range(1, MAX_HEISENBERG + 1)
        for m in range(s + 1)
    ]
    algs += [heisenberg_odd(m) for m in range(1, MAX_HEISENBERG + 1)]
    algs += [tower(t) for t in range(1, MAX_TOWER + 1)]
    sample = ("(4|0)_2", "(2|2)_6", "(1|3)_1", "(3|2)_13", "(2|3)_18")
    algs += [direct_sum(get(a).algebra, get(b).algebra) for a in sample for b in sample]
    return algs


def section(title: str) -> float:
    """Print the section header; returns its start time."""
    print(f"\n== {title} ==")
    return time.perf_counter()


def took(start: float) -> str:
    return f" in {time.perf_counter() - start:.2f}s"


def main() -> int:
    failures = 0
    started = time.perf_counter()

    t0 = section("stored catalog rows")
    table = verify_table1()
    bad_rows = [r for r in table.rows if not r.ok]
    print(f"{len(table.rows)} rows recomputed, {len(bad_rows)} mismatches{took(t0)}")
    for row in bad_rows:
        print(f"  MISMATCH {row.name}: stored {row.stored} computed {row.computed}")
    failures += len(bad_rows)

    t0 = section("classification cross-check")
    cls = verify_classification()
    bad_checks = [c for c in cls.checks if not c.ok]
    print(f"{len(cls.checks)} checks run, {len(bad_checks)} failed{took(t0)}")
    for check in bad_checks:
        print(f"  MISMATCH {check.description}: computed st={check.computed_st}")
    failures += len(bad_checks)

    corpus = family_corpus()

    t0 = section("bracket laws")
    lawless = [alg.name for alg in corpus if not validate(alg).ok]
    print(f"{len(corpus)} algebras validated, {len(lawless)} violations{took(t0)}")
    for name in lawless:
        print(f"  VIOLATION {name}")
    failures += len(lawless)

    t0 = section("central quotient bound")
    broken = [r.name for r in map(schur_bound_check, corpus) if not r.holds]
    print(f"{len(corpus)} algebras checked, {len(broken)} violations{took(t0)}")
    failures += len(broken)

    t0 = section("derivation chain and ID* bound")
    reports = [derivation_report(alg) for alg in corpus]
    chains = [r.name for r in reports if not r.chain_ok]
    # every algebra here is nilpotent, so a missing bound is a failure too
    bounds = [r.name for r in reports if r.bound is None or not r.bound.holds]
    print(f"{len(corpus)} algebras checked, {len(chains)} broken chains, "
          f"{len(bounds)} bound violations{took(t0)}")
    for name in chains:
        print(f"  CHAIN {name}: ad <= ID* <= ID <= Der fails")
    for name in bounds:
        print(f"  VIOLATION {name}: ID* bound fails")
    failures += len(chains) + len(bounds)

    t0 = section("derived-size ladder")
    broken = [a.name for a in map(proposition_audit, corpus) if not a.ok]
    print(f"{len(corpus)} algebras audited, {len(broken)} violations{took(t0)}")
    failures += len(broken)

    t0 = section("stem decomposition round trip")
    misses = 0
    for alg in corpus:
        try:
            stem, pad = stem_decomposition(alg)
        except StemDecompositionError as exc:
            print(f"  MISMATCH {alg.name}: {exc}")
            misses += 1
            continue
        rebuilt = invariant_report(direct_sum(stem, abelian(pad.even, pad.odd)))
        problems = [
            what for what, ok in (
                ("stem part is not stem", is_stem(stem)),
                ("graded dimensions do not add up", stem.sdim + pad == alg.sdim),
                ("T + A has other invariants", rebuilt._replace(name=alg.name) == invariant_report(alg)),
            ) if not ok
        ]
        for what in problems:
            print(f"  MISMATCH {alg.name}: {what}")
        misses += len(problems)
    print(f"{len(corpus)} algebras split and rebuilt, {misses} mismatches{took(t0)}")
    failures += misses

    t0 = section("derivation bracket closure")
    pairs = misses = 0
    # the time of the pair loops alone: each pair is one der_bracket and one contains
    spent = 0.0
    for alg in corpus:
        space = derivation_space(alg)
        maps = space.maps(0) + space.maps(1)
        t1 = time.perf_counter()
        outside = sum(not space.contains(der_bracket(d, e)) for d in maps for e in maps)
        spent += time.perf_counter() - t1
        pairs += len(maps) ** 2
        if outside:
            print(f"  NOT CLOSED {alg.name}: {outside} brackets outside Der")
        misses += outside
    print(f"{pairs} brackets over {len(corpus)} algebras, {misses} outside Der, "
          f"{1e6 * spent / max(pairs, 1):.2f} us per bracket{took(t0)}")
    failures += misses

    elapsed = time.perf_counter() - started
    print(f"\n{'ALL CLEAR' if failures == 0 else f'{failures} FAILURES'} in {elapsed:.2f}s")
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
