"""Sweep benchmark for chainflux: end-to-end metrics, or per-layer with --trace 1.

Run from the root of a checkout::

    python3 perfbench/run.py --workload dimer_figures --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Every pass of a workload runs in a fresh process (``one_pass.py``), one at a
time: a closed loop with one client.  ``--trace 0`` reports, per workload,

* ``setup_s``: process start to the first call into ``run_sweep``, the
  median over every process of the run, including a few that stop there;
* ``norm_rows_per_s``: correct rows per second through ``run_sweep`` plus
  ``emit_csv``, scaled to a nominal machine speed, the median over passes.
  A fixed reference kernel (``reference.py``) is timed around every pass,
  and the pass's wall rate is multiplied by reference_s /
  REFERENCE_NOMINAL_S.  On a shared host the wall rate of the same code
  drifts by up to 2x within minutes; the reference moves with it, so the
  scaled rate is what a change to the program moves.  The wall rate is
  printed too;
* ``peak_rss_mb``: the highest ``ru_maxrss`` of a pass process and its
  children (pool workers), the median over passes;
* ``row_ok_frac``: correct rows over attempted rows (grid points x
  approaches), 1 - row_fail_frac.  A row fails when it raises, is skipped
  without being a true zero mode, or fails the correctness gate.

``attempted`` and ``failed`` in the last line count sweep requests (one
``run_sweep`` + ``emit_csv`` call each) and those that raised.  ``correct``
is false when a produced value is wrong, a row is missing, or a request
raised; a spurious skip only lowers ``row_ok_frac``.

``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics (per pass, medians over traced passes) and the tracing
overhead.  Results, with the environment and the seed, also go to
``perfbench/_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "_out"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from reference import REFERENCE_NOMINAL_S, ReferenceProcess, pin_blas_threads  # noqa: E402
from tracing import SPAN_METRICS  # noqa: E402

SETUP_PROBES = 5
PASS_TIMEOUT_S = 120.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "norm_rows_per_s": "rows/s",
    "peak_rss_mb": "MB",
    "row_ok_frac": "frac",
}
PER_LAYER_UNITS = {
    **SPAN_METRICS,
    "sweep.csv_bytes": "bytes",
    "sweep.rows_skipped": "count",
    "sweep.wall_rows_per_s": "rows/s",
    "bench.reference_ms": "ms",
    "trace.untraced_rows_per_s": "rows/s",
    "trace.traced_rows_per_s": "rows/s",
    "trace.overhead_pct": "%",
}


class BenchmarkError(RuntimeError):
    """The benchmark itself could not run (not a failure of a sweep row)."""


def _one_pass(workload: str, seed: int, mode: str) -> dict:
    """Start one workload process, wait for it, return its JSON report."""
    cmd = [sys.executable, str(HERE / "one_pass.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode]
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd + ["--t0", repr(t0)], cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchmarkError(f"{workload} {mode} pass exceeded {PASS_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchmarkError(f"{workload} {mode} pass exited {proc.returncode}:\n{err}")
    lines = out.strip().splitlines()
    if not lines:
        raise BenchmarkError(f"{workload} {mode} pass printed no report:\n{err}")
    report = json.loads(lines[-1])
    report["wall_s"] = time.monotonic() - t0
    return report


def _passes(workload: str, seed: int, seconds: float, modes, reference) -> list:
    """Closed loop: passes cycling through ``modes`` until ``seconds`` is spent.

    A pass is started only if one more of the longest pass so far still fits,
    and every mode runs at least once.  The reference kernel runs before the
    first pass and after each one, and a pass gets the mean of the two
    readings around it.
    """
    reports = []
    start = time.monotonic()
    longest = 0.0
    before = reference.seconds()
    while True:
        mode = modes[len(reports) % len(modes)]
        ran_every_mode = len(reports) >= len(modes)
        if ran_every_mode and time.monotonic() - start + longest > seconds:
            return reports
        report = _one_pass(workload, seed, mode)
        after = reference.seconds()
        report["mode"] = mode
        report["reference_s"] = 0.5 * (before + after)
        before = after
        longest = max(longest, report["wall_s"])
        reports.append(report)


def _metric(values, unit):
    """Median of the samples, with the samples kept for the result record."""
    return {"value": statistics.median(values), "unit": unit, "n": len(values),
            "samples": list(values)}


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload for ``seconds``; returns the result record."""
    with ReferenceProcess(workloads.WORKLOADS[workload].workers) as reference:
        if trace:
            reports = _passes(workload, seed, seconds, ("run", "trace"), reference)
            probes = []
        else:
            probes = [_one_pass(workload, seed, "probe") for _ in range(SETUP_PROBES)]
            reports = _passes(workload, seed, seconds, ("run",), reference)

    untraced = [r for r in reports if r["mode"] == "run"]
    traced = [r for r in reports if r["mode"] == "trace"]
    for r in reports:
        r["rows_ok"] = r["rows_attempted"] - r["rows_failed"]
        r["rows_per_s"] = r["rows_ok"] / r["sweep_s"]
        r["norm_rows_per_s"] = r["rows_per_s"] * r["reference_s"] / REFERENCE_NOMINAL_S

    metrics = {}
    if trace:
        for name, unit in SPAN_METRICS.items():
            metrics[name] = _metric([r["layers"][name] for r in traced], unit)
        metrics["sweep.csv_bytes"] = _metric([r["csv_bytes"] for r in traced], "bytes")
        metrics["sweep.rows_skipped"] = _metric([r["rows_skipped"] for r in traced], "count")
        metrics["sweep.wall_rows_per_s"] = _metric([r["rows_per_s"] for r in untraced],
                                                   "rows/s")
        metrics["bench.reference_ms"] = _metric([r["reference_s"] * 1e3 for r in reports],
                                                "ms")
        fast = _metric([r["norm_rows_per_s"] for r in untraced], "rows/s")
        slow = _metric([r["norm_rows_per_s"] for r in traced], "rows/s")
        metrics["trace.untraced_rows_per_s"] = fast
        metrics["trace.traced_rows_per_s"] = slow
        overhead = 100.0 * (fast["value"] - slow["value"]) / fast["value"]
        metrics["trace.overhead_pct"] = _metric([overhead], "%")
    else:
        unit = END_TO_END_UNITS
        metrics["setup_s"] = _metric([r["setup_s"] for r in probes + reports], unit["setup_s"])
        metrics["norm_rows_per_s"] = _metric([r["norm_rows_per_s"] for r in reports],
                                             unit["norm_rows_per_s"])
        metrics["peak_rss_mb"] = _metric([r["peak_rss_mb"] for r in reports],
                                         unit["peak_rss_mb"])
        attempted = sum(r["rows_attempted"] for r in reports)
        ok = sum(r["rows_ok"] for r in reports)
        metrics["row_ok_frac"] = _metric([ok / attempted], unit["row_ok_frac"])
        metrics["row_ok_frac"]["n"] = attempted

    requests = sum(r["requests"] for r in reports)
    requests_failed = sum(r["requests_failed"] for r in reports)
    wrong = sum(r["wrong_values"] for r in reports)
    rows_attempted = sum(r["rows_attempted"] for r in reports)
    rows_failed = sum(r["rows_failed"] for r in reports)
    messages = []
    for r in reports:
        messages += [m for m in r["messages"] if m not in messages]
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "correct": requests_failed == 0 and wrong == 0,
        "attempted": requests,
        "failed": requests_failed,
        "rows_attempted": rows_attempted,
        "rows_failed": rows_failed,
        "row_fail_frac": rows_failed / rows_attempted,
        "wall_rows_per_s": statistics.median(r["rows_per_s"] for r in untraced),
        "reference_ms": statistics.median(r["reference_s"] * 1e3 for r in reports),
        "metrics": metrics,
        "env": reports[-1]["env"],
        "notes": workloads.WORKLOADS[workload].notes,
        "gate_messages": messages[:10],
    }


def _print_record(record: dict) -> None:
    name = record["workload"]
    print(f"== {name}  seed={record['seed']}  seconds={record['seconds']}  "
          f"trace={int(record['trace'])}")
    print(f"   env: {json.dumps(record['env'], sort_keys=True)}")
    if record["notes"]:
        print(f"   notes: {record['notes']}")
    print(f"   rows: attempted={record['rows_attempted']} failed={record['rows_failed']} "
          f"row_fail_frac={record['row_fail_frac']:.6g}")
    print(f"   wall: rows_per_s={record['wall_rows_per_s']:.6g} "
          f"reference_ms={record['reference_ms']:.6g}")
    for message in record["gate_messages"]:
        print(f"   gate: {message}")
    for metric, m in record["metrics"].items():
        print(f"   {metric:<44} {m['value']:>14.6g} {m['unit']:<7} n={m['n']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "chainflux" / "__init__.py").is_file():
        print(f"error: no chainflux sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    pin_blas_threads()  # for the reference process and every workload process

    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    records = []
    try:
        for name in names:
            record = measure(name, args.seed, args.seconds, bool(args.trace))
            stem = f"{name}-seed{args.seed}-trace{args.trace}"
            (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
            _print_record(record)
            records.append(record)
    except BenchmarkError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    def strip(metrics, prefix=""):
        return {prefix + k: {"value": m["value"], "unit": m["unit"]} for k, m in metrics.items()}

    if len(records) == 1:
        metrics = strip(records[0]["metrics"])
    else:
        metrics = {}
        for record in records:
            metrics.update(strip(record["metrics"], record["workload"] + "."))
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
