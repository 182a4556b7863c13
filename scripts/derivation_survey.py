#!/usr/bin/env python3
"""Print the superderivation survey table: Der, ad, ID, ID* side by side.

Covers the whole catalog by default; --families appends Heisenberg and
tower members, --name NAME restricts to single entries (repeatable).  Ends
with "ALL CLEAR in X.XXs" or "N FAILURES in X.XXs" and exits nonzero on a
failed chain or bound, so the survey doubles as a quick regression gate.
"""

import argparse
import sys
import time

from superstem.catalog import entries, get
from superstem.build import heisenberg_even, heisenberg_odd, tower
from superstem.derivations import derivation_report


def collect(args):
    if args.name:
        return [get(nm).algebra for nm in args.name]
    algs = [e.algebra for e in entries()]
    if args.families:
        algs += [heisenberg_even(m, s - m) for s in (1, 2) for m in range(s + 1)]
        algs += [heisenberg_odd(1), heisenberg_odd(2)]
        algs += [tower(1), tower(2)]
    return algs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--families", action="store_true",
                        help="append small Heisenberg and tower members")
    parser.add_argument("--name", action="append",
                        help="survey only this catalog entry (repeatable)")
    args = parser.parse_args(argv)

    header = f"{'algebra':<18} {'sdim':>7} {'Der':>7} {'ad':>7} {'ID':>7} {'ID*':>7}  chain bound"
    print(header)
    print("-" * len(header))
    bad = 0
    started = time.perf_counter()
    for alg in collect(args):
        rep = derivation_report(alg)
        chain = "ok" if rep.chain_ok else "FAIL"
        bound = "-" if rep.bound is None else ("ok" if rep.bound.holds else "FAIL")
        print(
            f"{rep.name:<18} {str(alg.sdim):>7} {str(rep.sdim_der):>7}"
            f" {str(rep.sdim_inner):>7} {str(rep.sdim_id):>7} {str(rep.sdim_id_star):>7}"
            f"  {chain:<5} {bound}"
        )
        if not rep.chain_ok or (rep.bound is not None and not rep.bound.holds):
            bad += 1
    elapsed = time.perf_counter() - started
    print(f"\n{'ALL CLEAR' if bad == 0 else f'{bad} FAILURES'} in {elapsed:.2f}s")
    return 0 if bad == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
