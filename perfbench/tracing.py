"""In-memory spans around calls into the chainflux layers, taken from outside.

The tracer replaces a function object by a timing wrapper in every module
namespace that binds it (``from .x import f`` copies the binding, so patching
only the defining module would miss most callers), and puts the originals
back on ``restore``.  Spans are kept in memory and written out only when
the pass ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int  # -1 for a root span
    row: int  # -1 outside any sweep row


# (module, attribute, span name).  ``sweep._row_task`` is the row boundary:
# it gives every span below it a row id and is not itself a reported layer.
LAYER_FUNCTIONS = (
    ("chainflux.model", "validate_spec", "model.validate_spec"),
    ("chainflux.operators", "build_chain_hamiltonian", "operators.build_chain_hamiltonian"),
    ("chainflux.operators", "diagonalize", "operators.diagonalize"),
    ("chainflux.lindblad", "global_jump_operators", "lindblad.global_jump_operators"),
    ("chainflux.lindblad", "global_dissipator_bins", "lindblad.global_dissipator_bins"),
    ("chainflux.lindblad", "build_local_dissipator", "lindblad.build_local_dissipator"),
    ("chainflux.lindblad", "build_liouvillian", "lindblad.build_liouvillian"),
    ("chainflux.lindblad", "assemble", "lindblad.assemble"),
    ("chainflux.steady", "solve_steady", "steady.solve_steady"),
    ("numpy.linalg", "matrix_rank", "steady.rank_check"),
    ("numpy.linalg", "solve", "steady.lu"),
    ("chainflux.observables", "steady_report", "observables.steady_report"),
    ("chainflux.observables", "heat_flux", "observables.heat_flux"),
    ("chainflux.observables", "qubit_population", "observables.qubit_population"),
    ("chainflux.sweep", "_row_task", "sweep.row"),
)

# Spans that can be recorded from the parent process when rows run in a
# process pool: everything below them happens in the workers.
SWEEP_FUNCTIONS = (
    ("chainflux.sweep", "run_sweep", "sweep.run_sweep"),
    ("chainflux.sweep", "emit_csv", "sweep.emit_csv"),
)

ROW_SPAN = "sweep.row"


# Functions whose results are dense d^2 x d^2 superoperators.
_SUPEROPERATORS = ("lindblad.global_dissipator_bins", "lindblad.build_local_dissipator",
                   "lindblad.build_liouvillian")


def _count_result(tracer, name: str, args, kwargs, result, seconds: float) -> None:
    """Work counts and spans of interest, taken at the layer boundary."""
    counters = tracer.counters
    if name == "lindblad.global_jump_operators":
        counters["lindblad.jumps"] += len(result)
    elif name == "lindblad.global_dissipator_bins":
        counters["lindblad.bins"] += len(result)
    elif name == "lindblad.assemble":
        approach = args[1] if len(args) > 1 else kwargs.get("approach")
        counters[f"lindblad.assemble_{approach}_ms"] += seconds * 1e3
    elif name == "steady.rank_check":
        counters["steady.rank_check_ms"] += seconds * 1e3
    elif name == "steady.lu":
        counters["steady.lu_ms"] += seconds * 1e3
        counters["steady.unknowns"] += args[0].shape[-1]
    if name in _SUPEROPERATORS:
        pieces = [piece for _, piece in result] if isinstance(result, list) else [result]
        row_bytes = tracer.superop_bytes
        row_bytes[tracer._row] += sum(piece.nbytes for piece in pieces)
        counters["lindblad.superop_mb"] = max(row_bytes.values()) / 2**20


# Per-layer metrics of one pass, with their units.  ``<span>.calls`` counts
# calls, ``<span>.self_ms`` sums self time, ``<span>.ms`` sums wall time; the
# rest are counters.  ``assemble_{global,local}_ms`` are wall times of whole
# assemblies by approach; superop_mb is the largest total, over rows, of the
# d^2 x d^2 superoperators returned to one row.
SPAN_METRICS = {
    "model.validate_spec.calls": "count",
    "model.validate_spec.self_ms": "ms",
    "operators.build_chain_hamiltonian.self_ms": "ms",
    "operators.diagonalize.calls": "count",
    "operators.diagonalize.self_ms": "ms",
    "lindblad.global_jump_operators.self_ms": "ms",
    "lindblad.jumps": "count",
    "lindblad.bins": "count",
    "lindblad.global_dissipator_bins.self_ms": "ms",
    "lindblad.build_local_dissipator.self_ms": "ms",
    "lindblad.build_liouvillian.self_ms": "ms",
    "lindblad.assemble.self_ms": "ms",
    "lindblad.assemble_global_ms": "ms",
    "lindblad.assemble_local_ms": "ms",
    "lindblad.superop_mb": "MB",
    "steady.solve_steady.self_ms": "ms",
    "steady.rank_check_ms": "ms",
    "steady.lu_ms": "ms",
    "steady.unknowns": "count",
    "observables.steady_report.self_ms": "ms",
    "observables.heat_flux.calls": "count",
    "observables.heat_flux.self_ms": "ms",
    "observables.qubit_population.self_ms": "ms",
    "sweep.run_sweep.self_ms": "ms",
    "sweep.emit_csv.ms": "ms",
}


class Tracer:
    """Records spans and counters while installed; a no-op object otherwise."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.counters = defaultdict(float)
        self.superop_bytes = defaultdict(int)  # row id -> bytes
        self._stack = []  # open span ids
        self._row = -1
        self._rows_seen = 0
        self._patches = []  # (module, attribute, original)

    def _wrap(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(tracer.spans) + len(tracer._stack)
            parent = tracer._stack[-1] if tracer._stack else -1
            outer_row = tracer._row
            if name == ROW_SPAN:
                tracer._row = tracer._rows_seen
                tracer._rows_seen += 1
            tracer._stack.append(sid)
            start = tracer.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = tracer.clock()
                tracer._stack.pop()
                tracer.spans.append(Span(sid, name, start, end, parent, tracer._row))
                tracer._row = outer_row
            _count_result(tracer, name, args, kwargs, result, end - start)
            return result

        wrapper.__perfbench_original__ = fn
        return wrapper

    def install(self, functions) -> None:
        """Wrap each (module, attribute, span name) wherever it is bound.

        A function a later version of the package no longer has is skipped;
        its metrics then read zero.
        """
        if self._patches:
            raise RuntimeError("tracer is already installed")
        for modname, attr, name in functions:
            module = sys.modules.get(modname)
            fn = getattr(module, attr, None) if module is not None else None
            if fn is None:
                continue
            wrapper = self._wrap(fn, name)
            for other in list(sys.modules.values()):
                if other is None:
                    continue
                other_name = getattr(other, "__name__", "")
                if other is not module and not other_name.startswith("chainflux"):
                    continue
                for key, value in list(vars(other).items()):
                    if value is fn:
                        self._patches.append((other, key, fn))
                        setattr(other, key, wrapper)

    def restore(self) -> None:
        """Put every original function back."""
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def dump(self, path) -> None:
        """Write the spans as JSON lines: sid, name, start, end, parent, row."""
        with open(path, "w") as fh:
            for s in sorted(self.spans, key=lambda s: s.sid):
                fh.write(json.dumps([s.sid, s.name, s.start, s.end, s.parent, s.row]) + "\n")


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        inside = [(max(a, s.start), min(b, s.end)) for a, b in children[s.sid]]
        out[s.sid] = (s.end - s.start) - _covered([iv for iv in inside if iv[1] > iv[0]])
    return out


def layer_totals(spans) -> dict:
    """Span name -> (calls, total self seconds, total wall seconds)."""
    selfs = self_times(spans)
    totals = defaultdict(lambda: [0, 0.0, 0.0])
    for s in spans:
        entry = totals[s.name]
        entry[0] += 1
        entry[1] += selfs[s.sid]
        entry[2] += s.end - s.start
    return {name: tuple(v) for name, v in totals.items()}


def layer_metrics(tracer) -> dict:
    """Every SPAN_METRICS value of the spans and counters a tracer holds."""
    totals = layer_totals(tracer.spans)
    column = {"calls": 0, "self_ms": 1, "ms": 2}
    out = {}
    for metric in SPAN_METRICS:
        span, _, kind = metric.rpartition(".")
        if span in totals and kind in column:
            value = totals[span][column[kind]]
            out[metric] = value * 1e3 if kind != "calls" else value
        else:
            out[metric] = tracer.counters.get(metric, 0)
    return out
