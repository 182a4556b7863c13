"""Spans around superstem's public functions, recorded from outside the library.

`Tracer.install` replaces each target function wherever a superstem module
binds it by name (`kernel_basis`, for one, is imported into `invariants` and
`derivations` as well as defined in `linalg`), and replaces methods on their
class.  Each call then records a span (id, parent id, name, start, end,
attributes) in memory.  Work the tracer itself does, such as counting the
nonzeros of an elimination input, is recorded as a `trace.bookkeeping` span
so that it is not charged to the layer that called it.

`layer_metrics` turns the spans of one pass into the per-layer metrics.  A
span's self time is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import statistics
import sys
import time
from itertools import compress, count, repeat
from operator import is_not

ROOT = "item"
BOOKKEEPING = "trace.bookkeeping"

# span name, module that defines it, attribute ("Class.method" for methods)
TARGETS = (
    ("cli.main", "superstem.cli", "main"),
    ("fileformat.parse", "superstem.fileformat", "parse"),
    ("core.validate", "superstem.core", "validate"),
    ("build.quotient", "superstem.build", "quotient"),
    ("invariants.invariant_report", "superstem.invariants", "invariant_report"),
    ("invariants.derived_subalgebra", "superstem.invariants", "derived_subalgebra"),
    ("invariants.center", "superstem.invariants", "center"),
    ("invariants.upper_central_series", "superstem.invariants", "upper_central_series"),
    ("derivations.derivation_report", "superstem.derivations", "derivation_report"),
    ("derivations.derivation_space", "superstem.derivations", "derivation_space"),
    ("derivations.inner_derivations", "superstem.derivations", "inner_derivations"),
    ("derivations.id_star", "superstem.derivations", "id_star"),
    ("derivations.der_bracket", "superstem.derivations", "der_bracket"),
    ("derivations.contains", "superstem.derivations", "DerivationSpace.contains"),
    ("linalg.kernel_basis", "superstem.linalg", "kernel_basis"),
    ("linalg.rref", "superstem.linalg", "rref"),
    ("linalg.reduce_mod", "superstem.linalg", "reduce_mod"),
    ("linalg.mat_mul", "superstem.linalg", "mat_mul"),
    ("reports.emit_report", "superstem.reports", "emit_report"),
)
LAYERS = tuple(name for name, _, _ in TARGETS)

# (name, unit, better) of every per-layer metric, in report order
METRICS = tuple(
    (f"{layer}.{stat}", unit, "lower")
    for layer in LAYERS
    for stat, unit in (("calls", "count"), ("self_s", "s"))
) + (
    ("linalg.rref.cells", "count", "lower"),
    ("linalg.rref.nnz", "count", "lower"),
    ("derivations.solves_per_item", "1/item", "lower"),
    ("derivations.distinct_solve_ratio", "ratio", "higher"),
    ("trace.wall_s", "s", "lower"),
    ("trace.unattributed_s", "s", "lower"),
    ("trace.bookkeeping_s", "s", "lower"),
    ("trace_overhead_ratio", "ratio", "lower"),
)


def _nonzeros(row):
    """(column, value) of each nonzero entry; the shared zero object of
    superstem.linalg is skipped by identity, which keeps the scan in C."""
    zero = sys.modules["superstem.linalg"].ZERO
    return [(j, row[j]) for j in compress(count(), map(is_not, row, repeat(zero))) if row[j]]


def _elimination_input(args):
    m = args[0]
    nnz = sum(len(_nonzeros(row)) for row in m.entries)
    return {"rows": m.rows, "cols": m.cols, "nnz": nnz}


def _solve_input(args):
    """An exact fingerprint of a linear system handed to kernel_basis."""
    m = args[0]
    key = (m.rows, m.cols, tuple(
        (i, j, x.numerator, x.denominator)
        for i, row in enumerate(m.entries)
        for j, x in _nonzeros(row)
    ))
    return {"solve": hash(key)}


# attribute probes, by span name or by (span name, binding module)
PROBES = {
    "linalg.rref": _elimination_input,
    ("linalg.kernel_basis", "superstem.derivations"): _solve_input,
}


class Tracer:
    """Records spans of one item; install it in the process that runs the item."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._stack = [0]
        self._ids = count(1)

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if name == "superstem" or name.startswith("superstem.")]
        for span_name, module_name, attr in TARGETS:
            owner = sys.modules.get(module_name)
            cls_name, _, fn_name = attr.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name, None)
            original = getattr(owner, fn_name, None)
            if original is None:
                continue
            if cls_name:
                setattr(owner, fn_name, self._wrap(span_name, original, PROBES.get(span_name)))
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        probe = PROBES.get((span_name, mod.__name__), PROBES.get(span_name))
                        setattr(mod, key, self._wrap(span_name, original, probe))

    def _wrap(self, name, fn, probe):
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1]
            attrs = None
            if probe is not None:
                b0 = clock()
                try:
                    attrs = probe(args)
                except (AttributeError, TypeError, KeyError):
                    # an input of another shape than this probe reads: the
                    # span is still recorded, without its attributes
                    pass
                spans.append((next(ids), parent, BOOKKEEPING, b0, clock(), None))
            sid = next(ids)
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, name, start, end, attrs))

        return traced

    def finish(self, start: float, end: float) -> list[tuple]:
        """All spans of the item, the root span covering [start, end] first."""
        return [(0, None, ROOT, start, end, None)] + self.spans


def layer_metrics(items: list[list[tuple]]) -> dict[str, float]:
    """Per-layer counts and self times of one traced pass, one span list per item."""
    calls = dict.fromkeys(LAYERS, 0)
    self_s = dict.fromkeys(LAYERS + (ROOT, BOOKKEEPING), 0.0)
    cells = nnz = solves = distinct = 0
    wall = 0.0
    for spans in items:
        covered: dict[int, float] = {}
        for sid, parent, name, start, end, attrs in spans:
            if parent is not None:
                covered[parent] = covered.get(parent, 0.0) + (end - start)
        keys = set()
        for sid, parent, name, start, end, attrs in spans:
            self_s[name] += (end - start) - covered.get(sid, 0.0)
            if name == ROOT:
                wall += end - start
            elif name != BOOKKEEPING:
                calls[name] += 1
            if attrs:
                cells += attrs.get("rows", 0) * attrs.get("cols", 0)
                nnz += attrs.get("nnz", 0)
                if "solve" in attrs:
                    solves += 1
                    keys.add(attrs["solve"])
        distinct += len(keys)
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = calls[layer]
        out[f"{layer}.self_s"] = self_s[layer]
    out["linalg.rref.cells"] = cells
    out["linalg.rref.nnz"] = nnz
    out["derivations.solves_per_item"] = solves / max(len(items), 1)
    # with no solve at all nothing was repeated
    out["derivations.distinct_solve_ratio"] = distinct / solves if solves else 1.0
    out["trace.wall_s"] = wall
    out["trace.unattributed_s"] = self_s[ROOT]
    out["trace.bookkeeping_s"] = self_s[BOOKKEEPING]
    return out


def combine(passes: list[dict[str, float]]) -> dict[str, float]:
    """Medians of the times over the passes; counts repeat exactly, so the
    first pass gives them."""
    return {
        key: statistics.median(p[key] for p in passes) if key.endswith("_s") else value
        for key, value in passes[0].items()
    }
