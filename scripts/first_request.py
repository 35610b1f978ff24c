"""Fresh-process and warm times of a 2-point T1 sweep, for N = 1..5, per approach.

Run from the root of a checkout::

    python3 scripts/first_request.py [--repeats 5] [--src src]

Each (N, approaches, repeat) is a new Python process with one BLAS thread.
It imports chainflux from ``--src``, times its first ``run_sweep`` of a
2-point T1 sweep (T1 = 0.5, 2) on the uniform chain (eps = 1.5, K = 1,
T2 = 0), then the best of 20 more passes of the same request in the same
process.  The import is not timed.  The request takes both approaches, the
global alone and the local alone, so each route's cost shows beside their
sum.  Prints, per N, the median of each over the repeats, in ms.
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


def one_process(n_qubits: int, approaches: tuple) -> dict:
    """The first and the best warm pass of the request, in this process."""
    from chainflux import chain
    from chainflux.sweep import SweepRequest, run_sweep

    request = SweepRequest(base=chain([1.5] * n_qubits, [1.0] * (n_qubits - 1), t1=1.0, t2=0.0),
                           axis="t1", grid=(0.5, 2.0), approaches=approaches,
                           outputs=("populations", "heat_flux"))
    start = time.perf_counter()
    run_sweep(request)
    first = time.perf_counter() - start
    warm = []
    for _ in range(WARM_PASSES):
        start = time.perf_counter()
        run_sweep(request)
        warm.append(time.perf_counter() - start)
    return {"first_ms": 1e3 * first, "warm_ms": 1e3 * min(warm)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5, help="fresh processes per N")
    parser.add_argument("--src", default=str(ROOT / "src"), help="directory holding chainflux")
    parser.add_argument("--child", nargs="+", help=argparse.SUPPRESS)  # N, then approaches
    args = parser.parse_args(argv)
    if args.child is not None:
        print(json.dumps(one_process(int(args.child[0]), tuple(args.child[1:]))))
        return 0
    env = dict(os.environ, PYTHONPATH=str(Path(args.src).resolve()),
               **{name: "1" for name in BLAS_THREAD_VARS})
    print(f"chainflux from {args.src}; median of {args.repeats} fresh processes, one BLAS thread")
    print(f"{'':>2} " + " ".join(f"{'+'.join(a):>24}" for a in APPROACHES))
    print(f"{'N':>2} " + " ".join(f"{'first request ms':>17} {'warm ms':>6}" for _ in APPROACHES))
    for n in range(1, 6):
        columns = []
        for approaches in APPROACHES:
            runs = []
            for _ in range(args.repeats):
                out = subprocess.run([sys.executable, __file__, "--child", str(n), *approaches],
                                     env=env, capture_output=True, text=True, check=True)
                runs.append(json.loads(out.stdout.splitlines()[-1]))
            first = statistics.median(run["first_ms"] for run in runs)
            warm = statistics.median(run["warm_ms"] for run in runs)
            columns.append(f"{first:>17.2f} {warm:>6.2f}")
        print(f"{n:>2} " + " ".join(columns))
    return 0


if __name__ == "__main__":
    sys.exit(main())
