#!/usr/bin/env python3
"""Record the expected outputs of every workload from the current library,
cross-check them once by independent means, and refresh the measured parts
of baseline.json (item lists and traced layer shares).

    python3 perfbench/record.py

Cross-checks, none of which trusts the code path that produced the output:

* catalog entries: `invariants --json` agrees with the catalog's stored
  Table-1 rows (sdim L/Z(L), generator pair, sdim [L,L]);
* towers: `invariants --json` gives st(tower(t)) = (t|0);
* rebased copies in `derivations`: for three seeds, every rebased algebra
  gives its original's `derivations --json` output apart from the name;
* closure: every bracket of two basis derivations, multiplied out here, obeys
  the graded Leibniz law on every pair of basis vectors, checked here
  against the structure tensor, with no superstem solver involved.
"""

from __future__ import annotations

import argparse
import json
import random
import re
import shutil
import subprocess
import sys
from fractions import Fraction

import run

sys.path.insert(0, str(run.SRC))

import workloads  # noqa: E402
from superstem.catalog import entries  # noqa: E402
from superstem.derivations import derivation_space  # noqa: E402

BASELINE = workloads.EXPECTED_DIR.parent / "baseline.json"


def outputs(workload: str, seed: int, expected=None, execute=True) -> tuple[list, list[dict]]:
    """The items of a workload and, with `execute`, the report of each run."""
    workdir = run.WORK / f"record-{workload}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        items = workloads.build(workload, seed, workdir, expected)
        return items, [run.run_item(item) for item in items] if execute else []
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def record(workload: str) -> dict[str, str]:
    items, reports = outputs(workload, 0)
    out = {}
    for item, rep in zip(items, reports):
        if workloads.is_rebased(item.name):
            # checked against its original by check_rebased
            continue
        if "error" in rep:
            raise SystemExit(f"{workload} {item.name}: {rep['error']}")
        if isinstance(item, workloads.CliItem) and not rep["result"].startswith("exit 0\n"):
            raise SystemExit(f"{workload} {item.name} fails at the seed:\n{rep['result']}")
        out[item.name] = rep["result"]
    return dict(sorted(out.items()))


def _require(ok: bool, what) -> None:
    if not ok:
        raise SystemExit(f"cross-check failed: {what}")


def _report(text: str) -> dict:
    return json.loads(text.split("\n", 1)[1])


def check_table1(inv: dict[str, str]) -> None:
    for entry in entries():
        rep = _report(inv[entry.name])
        quotient = [a - b for a, b in zip(rep["sdim"], rep["sdim_center"])]
        got = (quotient, rep["generator_pair"], rep["sdim_derived"])
        want = tuple(list(x) for x in (entry.sdim_central_quotient, entry.generator_pair,
                                       entry.sdim_derived))
        _require(got == want, (entry.name, got, want))


def check_towers(inv: dict[str, str]) -> None:
    towers = [name for name in inv if re.fullmatch(r"tower\(\d+\)", name)]
    _require(towers, "no tower items")
    for name in towers:
        t = int(name[6:-1])
        _require(_report(inv[name])["st"] == [t, 0], name)


def check_rebased(der: dict[str, str]) -> None:
    for seed in (1, 2, 3):
        workdir = run.WORK / "record-rebased"
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            items = workloads.rebased_items(random.Random(seed), workdir, der.__getitem__)
            bad = [item.name for item in items if not run.run_item(item).get("ok")]
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        _require(not bad, (seed, bad))


def _bracket(alg, x: dict, y: dict) -> dict:
    out: dict[int, Fraction] = {}
    for i, a in x.items():
        for j, b in y.items():
            for k, c in enumerate(alg.tensor[i][j]):
                if c:
                    out[k] = out.get(k, 0) + a * b * c
    return {k: v for k, v in out.items() if v}


def _obeys_leibniz(alg, cols: list[dict], parity: int) -> bool:
    """D[x, y] = [Dx, y] + (-1)^(|D||x|) [x, Dy] on all basis pairs, where
    cols[j] is D(b_j) as {index: coefficient}."""
    n = alg.n
    par = [alg.parity(i) for i in range(n)]
    for j, col in enumerate(cols):
        if any(par[i] != (par[j] + parity) % 2 for i in col):
            return False
    for i in range(n):
        sign = -1 if parity * par[i] % 2 else 1
        for j in range(n):
            lhs: dict[int, Fraction] = {}
            for k, c in enumerate(alg.tensor[i][j]):
                if c:
                    for m, d in cols[k].items():
                        lhs[m] = lhs.get(m, 0) + c * d
            rhs = _bracket(alg, cols[i], {j: 1})
            for k, v in _bracket(alg, {i: 1}, cols[j]).items():
                rhs[k] = rhs.get(k, 0) + sign * v
            if {k: v for k, v in lhs.items() if v} != {k: v for k, v in rhs.items() if v}:
                return False
    return True


def check_closure(closure: dict[str, str]) -> None:
    for alg in workloads.closure_corpus():
        space = derivation_space(alg)
        maps = [(m.parity, m.matrix.entries) for m in space.maps(0) + space.maps(1)]
        n = alg.n
        for p, d in maps:
            for q, e in maps:
                sign = -1 if p * q % 2 else 1
                cols = [{} for _ in range(n)]
                for i in range(n):
                    for j in range(n):
                        v = sum(d[i][k] * e[k][j] - sign * e[i][k] * d[k][j] for k in range(n))
                        if v:
                            cols[j][i] = v
                _require(_obeys_leibniz(alg, cols, (p + q) % 2), alg.name)
        want = {"sdim_der": list(space.sdim), "pairs": len(maps) ** 2, "inside": len(maps) ** 2}
        _require(json.loads(closure[alg.name]) == want, alg.name)


def layer_shares(workload: str) -> dict[str, float]:
    proc = subprocess.run(
        [sys.executable, run.__file__, "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=900, check=True,
    )
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    wall = metrics["trace.wall_s"]["value"]
    shares = {
        name[: -len(".self_s")]: metrics[name]["value"] / wall
        for name in metrics if name.endswith(".self_s")
    }
    shares["unattributed"] = metrics["trace.unattributed_s"]["value"] / wall
    shares["bookkeeping"] = metrics["trace.bookkeeping_s"]["value"] / wall
    return {k: round(v, 4) for k, v in sorted(shares.items(), key=lambda kv: -kv[1]) if v >= 0.0005}


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)

    recorded = {w: record(w) for w in ("invariants", "derivations", "closure")}
    check_table1(recorded["invariants"])
    check_towers(recorded["invariants"])
    check_closure(recorded["closure"])
    for workload, out in recorded.items():
        path = workloads.expected_file(workload)
        path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    check_rebased(recorded["derivations"])
    print("expected outputs recorded and cross-checked")

    baseline = json.loads(BASELINE.read_text(encoding="utf-8"))
    for workload, entry in baseline["workloads"].items():
        items, _ = outputs(workload, 0, execute=False)
        entry["items"] = sorted(item.name for item in items)
        entry["seed_layer_shares"] = layer_shares(workload)
    BASELINE.write_text(json.dumps(baseline, indent=1) + "\n", encoding="utf-8")
    print(f"updated {BASELINE.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
