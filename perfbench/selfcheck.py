#!/usr/bin/env python3
"""Self-check of the benchmark itself.

    python3 perfbench/selfcheck.py

1. BENCHMARK.json declares exactly the metrics run.py reports, with the
   same units, and the same workloads; baseline.json maps every per-layer
   metric to the end-to-end metrics it should move.
2. Without the superstem sources next to it the benchmark exits nonzero and
   prints no result.
3. A corrupted expected output is caught: the run counts failed items,
   reports `correct: false` and exits nonzero.
4. Two traced runs with the same seed give identical per-layer counts.

Exits 0 when every check passes.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout

import layers
import run

sys.path.insert(0, str(run.SRC))

import workloads  # noqa: E402

COUNT_UNITS = ("count", "1/item")


def check_declared() -> str | None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if [w["name"] for w in spec["workloads"]] != list(run.WORKLOADS):
        return "workloads differ from run.WORKLOADS"
    if {m["name"]: m["unit"] for m in spec["end_to_end"]} != dict(run.END_TO_END):
        return "end_to_end metrics differ from run.END_TO_END"
    declared = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    if declared != {name: (unit, better) for name, unit, better in layers.METRICS}:
        return "per_layer metrics differ from layers.METRICS"
    baseline = json.loads((run.ROOT / "perfbench" / "baseline.json").read_text(encoding="utf-8"))
    mapped = [m for group in baseline["layer_map"].values() for m in group["metrics"]]
    if sorted(mapped) != sorted(declared):
        return "baseline.json layer_map does not list every per-layer metric once"
    return None


def check_bare_directory() -> str | None:
    bare = run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(run.ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", run.WORKLOADS[0], "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return f"exit code {proc.returncode}, stdout {proc.stdout.strip()[:200]!r}"
    return None


def check_corruption(workload: str) -> str | None:
    original = workloads.load_expected

    def corrupted(name):
        expected = original(name)
        first = sorted(expected)[0]
        expected[first] += " "
        return expected

    workloads.load_expected = corrupted
    out = io.StringIO()
    try:
        with redirect_stdout(out):
            code = run.main(["--workload", workload, "--seed", "1", "--seconds", "1"])
    finally:
        workloads.load_expected = original
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    if code == 0 or result["correct"] or result["failed"] == 0:
        return f"exit code {code}, correct {result['correct']}, failed {result['failed']}"
    return None


def traced_counts(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, run.__file__, "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=600, check=True,
    )
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    return {k: m["value"] for k, m in metrics.items()
            if m["unit"] in COUNT_UNITS or k == "derivations.distinct_solve_ratio"}


def check_counts_repeat(workload: str) -> str | None:
    first, second = traced_counts(workload), traced_counts(workload)
    differ = sorted(k for k in first if first[k] != second.get(k))
    return f"counts differ: {differ}" if differ else None


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    checks = [("declared metrics", check_declared), ("bare directory", check_bare_directory)]
    for w in run.WORKLOADS:
        checks.append((f"corrupted expected output ({w})", lambda w=w: check_corruption(w)))
        checks.append((f"traced counts repeat ({w})", lambda w=w: check_counts_repeat(w)))
    failures = 0
    for label, check in checks:
        problem = check()
        failures += problem is not None
        print(f"{'FAIL' if problem else 'ok  '} {label}" + (f": {problem}" if problem else ""))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
