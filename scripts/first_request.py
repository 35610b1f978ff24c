"""Fresh-process and warm times of a 2-point T1 sweep for N = 1..5, and of two K scans.

Run from the root of a checkout::

    python3 scripts/first_request.py [--repeats 5] [--src src] [--base-src DIR]

Each (request, repeat) is a new Python process with one BLAS thread.  It
imports chainflux from ``--src``, times its first ``run_sweep`` of the
request, then the best of 20 more passes of the same request in the same
process.  The import is not timed.  The T1 sweep (T1 = 0.5, 2) is on the
uniform chain (eps = 1.5, K = 1, T2 = 0); it takes both approaches, the
global alone and the local alone, so each route's cost shows beside their
sum.  The K scans take 48 evenly spaced K in [0.5, 3] on the uniform
N = 4 chain and 1000 in [0.3, 3] on the uniform N = 5 chain (eps = 1.5,
T1 = 2, T2 = 0.5), both approaches, with the mode Fock diagonals
(``rho_diagonals``): every point is a chain of its own, and each grid
crosses the zero modes of the global description between its points.
Prints the median of each over the repeats, in ms.

With ``--base-src DIR`` each request runs in ``--repeats`` pairs of fresh
processes that alternate between the chainflux of DIR (the base) and that
of ``--src`` (the head), base first; it prints, for the first and the warm
pass, the median head/base ratio of the pairs and its quartiles.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WARM_PASSES = 20


APPROACHES = (("global", "local"), ("global",), ("local",))


def t1_request(n_qubits: int, approaches: tuple):
    from chainflux import chain
    from chainflux.sweep import SweepRequest

    return SweepRequest(base=chain([1.5] * n_qubits, [1.0] * (n_qubits - 1), t1=1.0, t2=0.0),
                        axis="t1", grid=(0.5, 2.0), approaches=approaches,
                        outputs=("populations", "heat_flux"))


K_SCANS = {"kscan4": (4, 48, 0.5, 3.0), "kscan5": (5, 1000, 0.3, 3.0)}  # N, points, K range


def k_scan_request(name: str):
    from chainflux import chain
    from chainflux.sweep import SweepRequest

    n, points, low, high = K_SCANS[name]
    grid = tuple(low + (high - low) * i / (points - 1) for i in range(points))
    return SweepRequest(base=chain([1.5] * n, [1.0] * (n - 1), t1=2.0, t2=0.5), axis="k",
                        grid=grid, approaches=("global", "local"),
                        outputs=("populations", "heat_flux", "rho_diagonals"))


def one_process(request) -> dict:
    """The first and the best warm pass of the request, in this process."""
    from chainflux.sweep import run_sweep

    start = time.perf_counter()
    run_sweep(request)
    first = time.perf_counter() - start
    warm = []
    for _ in range(WARM_PASSES):
        start = time.perf_counter()
        run_sweep(request)
        warm.append(time.perf_counter() - start)
    return {"first_ms": 1e3 * first, "warm_ms": 1e3 * min(warm)}


def fresh_run(child: list, env: dict) -> dict:
    """The first and warm ms of ``child``'s request in one fresh process."""
    out = subprocess.run([sys.executable, __file__, "--child", *child],
                         env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def medians(child: list, envs: tuple, repeats: int) -> str:
    """The first and warm ms of ``child``'s request, median of ``repeats`` fresh processes."""
    runs = [fresh_run(child, envs[-1]) for _ in range(repeats)]
    first = statistics.median(run["first_ms"] for run in runs)
    warm = statistics.median(run["warm_ms"] for run in runs)
    return f"{first:>17.2f} {warm:>6.2f}"


def ratios(child: list, envs: tuple, repeats: int) -> str:
    """Median head/base ratio [quartiles] of the first and warm ms over alternating pairs.

    ``envs`` are the base's and the head's environments; the base runs first in each pair.
    """
    pairs = [[fresh_run(child, env) for env in envs] for _ in range(repeats)]
    out = []
    for key in ("first_ms", "warm_ms"):
        values = [head[key] / base[key] for base, head in pairs]
        low, _, high = (statistics.quantiles(values, n=4, method="inclusive")
                        if len(values) > 1 else values * 3)
        out.append(f"{statistics.median(values):>6.3f} [{low:.3f}, {high:.3f}]")
    return " ".join(f"{cell:>22}" for cell in out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5, help="fresh processes per N")
    parser.add_argument("--src", default=str(ROOT / "src"), help="directory holding chainflux")
    parser.add_argument("--base-src", help="directory holding the chainflux to pair the head with")
    parser.add_argument("--child", nargs="+", help=argparse.SUPPRESS)  # a K scan, or N, approaches
    args = parser.parse_args(argv)
    if args.child is not None:
        request = (k_scan_request(args.child[0]) if args.child[0] in K_SCANS else
                   t1_request(int(args.child[0]), tuple(args.child[1:])))
        print(json.dumps(one_process(request)))
        return 0
    envs = tuple(dict(os.environ, PYTHONPATH=str(Path(src).resolve()),
                      **{name: "1" for name in BLAS_THREAD_VARS})
                 for src in ([args.base_src] if args.base_src else []) + [args.src])
    if args.base_src:
        print(f"chainflux from {args.src} over {args.base_src}: median head/base ratio "
              f"[quartiles] of {args.repeats} alternating pairs of fresh processes, "
              "one BLAS thread")
        cell, header = ratios, f"{'first request':>22} {'warm':>22}"
    else:
        print(f"chainflux from {args.src}; median of {args.repeats} fresh processes, "
              "one BLAS thread")
        cell, header = medians, f"{'first request ms':>17} {'warm ms':>6}"
    width = len(header)
    print("2-point T1 sweep")
    print(f"{'':>2} " + " ".join(f"{'+'.join(a):>{width}}" for a in APPROACHES))
    print(f"{'N':>2} " + " ".join(header for _ in APPROACHES))
    for n in range(1, 6):
        print(f"{n:>2} " + " ".join(cell([str(n), *approaches], envs, args.repeats)
                                    for approaches in APPROACHES))
    for name, (n, points, _, _) in K_SCANS.items():
        print(f"{points}-point N = {n} K scan, both approaches, rho_diagonals")
        print(f"{'':>2} {header}")
        print(f"{'':>2} {cell([name], envs, args.repeats)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
