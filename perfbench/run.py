#!/usr/bin/env python3
"""Benchmark of superstem, driven from outside the library.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Workloads (see workloads.py and baseline.json): `invariants` and
`derivations` run `superstem.cli.main` in-process on algebra files;
`closure` calls the library.  Items run one at a time, each in a
forked child of the process that set up the inputs, so that no command can
reuse work an earlier command did, as separate CLI processes could not.
Every item's output is compared with the expected output recorded in
`expected/`; a mismatch, an exception or a nonzero exit counts as failed.

With `--trace 0` the end-to-end metrics are reported:

    setup_s       median over 11 set-ups (this process, then 5 fresh
                  processes before the timed passes and 5 after them) of:
                  import superstem, build the inputs, write their files,
                  load the expected outputs
    wall_s        one pass over every item: the sum of each item's median
                  time over the passes made
    item_p50_ms   median over items of the item's median time
    item_tail_ms  the highest percentile with at least 10 items beyond it
                  (printed with the item count above the JSON line)
    peak_rss_mb   largest peak resident set of a process that ran an item

Passes over the items repeat until `--seconds` are used up: there is always
one whole pass, and the last one stops at the first item that would not
end in time, as judged by its time in the first pass.
With `--trace 1` passes repeat while the next whole one fits in
`--seconds`; each item runs untraced and then traced, and the
per-layer metrics of layers.py are reported (trace_overhead_ratio compares
the two runs); the spans of the first traced pass are written to
`.perfbench-traces/` in the checkout.  `--workload all` runs every workload
in its own process and prints all their metrics.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  The exit code is 0 when
every item was correct, 1 when some item failed, 2 on a usage error.
"""

from __future__ import annotations

import argparse
import gc
import gzip
import json
import math
import os
import pickle
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
TRACES = ROOT / ".perfbench-traces"
WORKLOADS = ("invariants", "derivations", "closure")
SETUP_SAMPLES = 11
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("item_p50_ms", "ms"),
    ("item_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


def setup(workload: str, seed: int, workdir: Path):
    """Import superstem, build the items and load their expected outputs."""
    start = time.perf_counter()
    import workloads

    items = workloads.build(workload, seed, workdir, workloads.load_expected(workload))
    return items, time.perf_counter() - start


def _child(item, traced: bool) -> dict:
    tracer = layers.Tracer() if traced else None
    if tracer is not None:
        tracer.install()
    start = time.perf_counter()
    result = item.run()
    end = time.perf_counter()
    report = {
        "elapsed": end - start,
        "result": result,
        "ok": result == item.expected,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        report["spans"] = tracer.finish(start, end)
    return report


def run_item(item, traced: bool = False) -> dict:
    """Run one item in a forked child and return the child's report."""
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(read_fd)
            try:
                report = _child(item, traced)
            except (Exception, SystemExit) as exc:
                report = {"error": f"{type(exc).__name__}: {exc}"}
            with os.fdopen(write_fd, "wb") as fh:
                pickle.dump(report, fh)
        finally:
            os._exit(0)
    os.close(write_fd)
    try:
        with os.fdopen(read_fd, "rb") as fh:
            data = fh.read()
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        os.waitpid(pid, 0)
    return pickle.loads(data) if data else {"error": "the item's process died"}


def repeat_within(seconds: float, one_pass):
    """Results of `one_pass()`, repeated while the next one fits in `seconds`."""
    results = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        results.append(one_pass())
        spent = time.perf_counter() - began
        if time.perf_counter() - start + spent > seconds:
            return results


def timed_passes(seconds: float, items) -> list[list[dict]]:
    """Reports of every item, pass after pass, for `seconds`; the last pass
    may cover only the first items."""
    start = time.perf_counter()
    passes = [[run_item(item) for item in items]]
    while True:
        reports = []
        for item, first in zip(items, passes[0]):
            if time.perf_counter() - start + first.get("elapsed", 0.0) > seconds:
                if reports:
                    passes.append(reports)
                return passes
            reports.append(run_item(item))
        passes.append(reports)


def tail(times: list[float]) -> tuple[int, float]:
    """(p, value): the highest whole percentile p with at least 10 of the
    sorted `times` beyond it, by nearest rank."""
    n = len(times)
    p = max(0, 100 * (n - 10) // n)
    return p, times[max(1, math.ceil(n * p / 100)) - 1]


def end_to_end(passes, setup_samples) -> dict[str, float]:
    runs = [[p[i] for p in passes if i < len(p) and "elapsed" in p[i]]
            for i in range(len(passes[0]))]
    times = sorted(statistics.median(r["elapsed"] for r in rs) for rs in runs if rs)
    pct, tail_s = tail(times)
    print(f"item_tail_ms is p{pct} of {len(times)} items")
    return {
        "setup_s": statistics.median(setup_samples),
        "wall_s": sum(times),
        "item_p50_ms": statistics.median(times) * 1000,
        "item_tail_ms": tail_s * 1000,
        "peak_rss_mb": max(r.get("rss_kb", 0) for p in passes for r in p) / 1024,
    }


def write_spans(path: Path, items, reports) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        fh.write(json.dumps({
            "fields": ["item", "id", "parent", "name", "start", "end", "attrs"],
            "items": [item.name for item in items],
        }) + "\n")
        for index, rep in enumerate(reports):
            for span in rep.get("spans", ()):
                fh.write(json.dumps([index, *span]) + "\n")


def count_failures(items, passes) -> tuple[int, int]:
    attempted = failed = 0
    for reports in passes:
        for item, rep in zip(items, reports):
            attempted += 1
            if not rep.get("ok"):
                failed += 1
                if failed <= 3:
                    why = rep.get("error") or f"output differs:\n{rep.get('result')}"
                    print(f"FAILED {item.name}: {why}", file=sys.stderr)
    return attempted, failed


def setup_probe(workload: str, seed: int) -> float:
    """Set-up time of a fresh process, which sets up and exits."""
    proc = subprocess.run(
        [sys.executable, __file__, "--setup-probe", "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=170, check=True,
    )
    return float(proc.stdout.split()[-1])


def run_workload(args) -> int:
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        items, first_setup = setup(args.workload, args.seed, workdir)
        if args.setup_probe:
            print(first_setup)
            return 0
        setup_samples = [first_setup]

        def probe_setups() -> None:
            # fresh set-ups on both sides of the timed passes, so that the
            # median spans the host's slow and fast spells of the whole run
            setup_samples.extend(setup_probe(args.workload, args.seed)
                                 for _ in range((SETUP_SAMPLES - 1) // 2))

        if not args.trace:
            probe_setups()
        # objects made during set-up stay out of the children's collections
        gc.collect()
        gc.freeze()
        if args.trace:
            # each item runs untraced and then traced, back to back, so the
            # overhead ratio compares runs made under the same machine load
            pairs = repeat_within(args.seconds, lambda: [
                (run_item(item), run_item(item, traced=True)) for item in items
            ])
            passes = [[pair[k] for pair in p] for p in pairs for k in (0, 1)]
            values = layers.combine([
                layers.layer_metrics([t.get("spans", []) for _, t in p]) for p in pairs
            ])
            values["trace_overhead_ratio"] = statistics.median(
                sum(t.get("elapsed", 0.0) for _, t in p) / sum(u.get("elapsed", 0.0) for u, _ in p)
                for p in pairs
            ) - 1
            write_spans(TRACES / f"{args.workload}-seed{args.seed}.jsonl.gz", items,
                        [t for _, t in pairs[0]])
            units = {name: unit for name, unit, _ in layers.METRICS}
        else:
            passes = timed_passes(args.seconds, items)
            probe_setups()
            values = end_to_end(passes, setup_samples)
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    attempted, failed = count_failures(items, passes)
    for name, value in values.items():
        print(f"{name:<40} {value:.6g} {units[name]}")
    print(f"passes {len(passes)}, failed_ratio {failed / attempted:.6g} ({failed}/{attempted})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Every workload in its own process; one table, one combined JSON line."""
    metrics: dict[str, dict] = {}
    attempted = failed = 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            sys.stderr.write(proc.stderr)
            return 2
        result = json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        print(f"{workload}: failed {result['failed']}/{result['attempted']}")
        for name, metric in result["metrics"].items():
            metrics[f"{workload}.{name}"] = metric
            print(f"  {name:<40} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "superstem" / "__init__.py").is_file():
        print(f"error: no superstem sources under {SRC}", file=sys.stderr)
        return 2
    # on SIGTERM, unwind: stop the running item and remove the work files
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
