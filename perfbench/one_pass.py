"""One workload process: set up, run one pass of a workload, check it, report.

Usage (from the root of a checkout; ``perfbench/run.py`` starts this)::

    python3 perfbench/one_pass.py --workload NAME --seed N --t0 T \
        --mode {probe,run,trace}

``--t0`` is the CLOCK_MONOTONIC reading taken by the parent just before it
started this process, so ``setup_s`` covers interpreter start, importing
chainflux and building the requests.  ``probe`` stops at the first call
into ``run_sweep``; ``run`` times one pass untraced; ``trace`` times one
pass with every layer wrapped.  The last stdout line is a JSON report.
"""

import argparse
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "_out"
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from reference import BLAS_THREAD_VARS, pin_blas_threads  # noqa: E402
from tracing import LAYER_FUNCTIONS, SWEEP_FUNCTIONS, Tracer, layer_metrics  # noqa: E402


def _import_chainflux():
    import chainflux

    where = Path(chainflux.__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise SystemExit(f"chainflux imported from {where}, not from this checkout")


def _run_requests(name, requests, workers, stamp=None):
    """run_sweep + emit_csv on each request; returns (seconds, results).

    ``stamp`` is called right before the first call into run_sweep.  A request
    that raises is recorded with its traceback and the loop goes on.
    """
    from chainflux import sweep

    results = []
    start = None
    for label, request in requests:
        path = OUT_DIR / f"{name}-{label}.csv"
        if start is None:
            if stamp is not None:
                stamp()
            start = time.perf_counter()
        try:
            table = sweep.run_sweep(request, workers=workers)
            sweep.emit_csv(table, path)
        except Exception:  # the pass must report a failed request, not die
            results.append((label, request, None, path, traceback.format_exc()))
            continue
        results.append((label, request, table, path, ""))
    return time.perf_counter() - start, results


def _check(name, results):
    """Gate every request; returns the row and request accounting."""
    rows_attempted = rows_failed = wrong = requests_failed = 0
    messages = []
    for label, request, table, path, error in results:
        if table is None:
            n = len(request.grid) * len(request.approaches)
            rows_attempted += n
            rows_failed += n
            requests_failed += 1
            messages.append(f"{label}: request raised\n{error}")
            continue
        g = workloads.gate(name, request, table, path)
        rows_attempted += g.attempted
        rows_failed += g.failed
        wrong += g.wrong_values
        messages += [f"{label}: {m}" for m in g.messages]
    return {
        "requests": len(results),
        "requests_failed": requests_failed,
        "rows_attempted": rows_attempted,
        "rows_failed": rows_failed,
        "wrong_values": wrong,
        "rows_skipped": sum(len(t.skipped) for _, _, t, _, _ in results if t is not None),
        "csv_bytes": sum(p.stat().st_size for _, _, t, p, _ in results if t is not None),
        "messages": messages[:10],
    }


def blas_record():
    """OpenBLAS version and the thread count in force, read from the library."""
    import ctypes

    record = {"openblas": None, "blas_threads": None}
    libs = set()
    with open("/proc/self/maps") as fh:
        for line in fh:
            path = line.split()[-1]
            if "openblas" in path.lower() and ".so" in path:
                libs.add(path)
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                if get_config is None or get_threads is None:
                    continue
                get_config.restype = ctypes.c_char_p
                get_config.argtypes = []
                get_threads.restype = ctypes.c_int
                get_threads.argtypes = []
                record["openblas"] = get_config().decode()
                record["blas_threads"] = get_threads()
                return record
    return record


def environment():
    import importlib.metadata
    import platform

    import numpy

    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    env = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "thread_vars": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
    }
    env.update(blas_record())
    return env


def peak_rss_mb() -> float:
    """Highest ru_maxrss of this process and of its waited-for children (KiB on Linux)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--mode", choices=("probe", "run", "trace"), required=True)
    args = parser.parse_args(argv)

    pin_blas_threads()  # before chainflux imports numpy
    _import_chainflux()
    name = args.workload
    workers = workloads.WORKLOADS[name].workers
    requests = workloads.build_requests(name, args.seed)
    report = {}

    def stamp():
        report["setup_s"] = time.monotonic() - args.t0

    if args.mode == "probe":
        stamp()
        print(json.dumps(report))
        return 0

    OUT_DIR.mkdir(exist_ok=True)
    if args.mode == "run":
        seconds, results = _run_requests(name, requests, workers, stamp)
    else:
        parent_side = None
        if workers > 1:
            # Spans inside pool workers cannot be collected from here, so the
            # pool pass traces only the parent side and a serial pass over the
            # same requests gives the per-row layers.
            with Tracer() as parent_side:
                parent_side.install(SWEEP_FUNCTIONS)
                seconds, results = _run_requests(name, requests, workers, stamp)
            with Tracer() as tracer:
                tracer.install(LAYER_FUNCTIONS + SWEEP_FUNCTIONS)
                _run_requests(name, requests, 1)
        else:
            with Tracer() as tracer:
                tracer.install(LAYER_FUNCTIONS + SWEEP_FUNCTIONS)
                seconds, results = _run_requests(name, requests, workers, stamp)
        tracer.dump(OUT_DIR / f"{name}.spans.jsonl")
        report["layers"] = layer_metrics(tracer)
        if parent_side is not None:
            parent_side.dump(OUT_DIR / f"{name}.pool-parent.spans.jsonl")
            report["layers"].update((k, v) for k, v in layer_metrics(parent_side).items()
                                    if k.startswith("sweep."))

    # Before the gate and the reference kernel, which allocate on their own.
    report["peak_rss_mb"] = peak_rss_mb()
    report.update(_check(name, results))
    report["sweep_s"] = seconds
    report["env"] = environment()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
