"""BLAS pinning and the fixed reference kernel that gauges machine speed.

Only the standard library is imported here; numpy is imported inside
``reference_seconds``, after ``pin_blas_threads`` has run.  The kernel runs
in a process of its own (``ReferenceProcess``): a workload process inherits
the peak RSS of the process that starts it, which must therefore stay small.
"""

import os
import subprocess
import sys
import time

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Reference kernel time on an idle 2-core x86-64 host (OpenBLAS 0.3.31, 1 thread).
REFERENCE_NOMINAL_S = 0.2


def pin_blas_threads() -> None:
    """Set the BLAS thread variables to 1; call before numpy is imported.

    OpenBLAS threads would otherwise oversubscribe the cores, most of all
    under a process pool.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def reference_seconds() -> float:
    """Time of a fixed kernel that does not touch chainflux.

    The kernel mixes interpreter work, small-array numpy calls and dense
    complex linear algebra, the three kinds of work the workloads do.  Only
    the machine changes its time.
    """
    import numpy as np

    rng = np.random.default_rng(20141031)
    small = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    small = small + small.conj().T
    shift = 8.0 * np.eye(64)
    rhs = np.ones(64)
    dense = rng.standard_normal((384, 384)) + 1j * rng.standard_normal((384, 384))

    start = time.perf_counter()
    text = {}
    for i in range(16000):
        text[i % 97] = f"{(i * 1.000001) ** 0.5:.17g}"
    for _ in range(600):
        _, v = np.linalg.eigh(small)
        k = (v[:, None, :, None] * v[None, :, None, :]).reshape(64, 64)
        np.linalg.solve(k + shift, rhs)
    for _ in range(2):
        np.linalg.svd(dense, compute_uv=False)
        dense @ dense
    return time.perf_counter() - start


class ReferenceProcess:
    """Child processes that time the reference kernel on request, all at once.

    A workload that keeps ``processes`` cores busy is gauged by as many
    copies of the kernel running side by side.
    """

    def __init__(self, processes: int = 1):
        self._procs = [subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                                        stdout=subprocess.PIPE, text=True)
                       for _ in range(processes)]

    def seconds(self) -> float:
        """Mean kernel time over the processes."""
        for proc in self._procs:
            proc.stdin.write("\n")
            proc.stdin.flush()
        times = []
        for proc in self._procs:
            line = proc.stdout.readline()
            if not line:
                raise RuntimeError("reference process ended early")
            times.append(float(line))
        return sum(times) / len(times)

    def close(self) -> None:
        for proc in self._procs:
            proc.stdin.close()
        for proc in self._procs:
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


if __name__ == "__main__":
    pin_blas_threads()
    for _ in sys.stdin:
        print(repr(reference_seconds()), flush=True)
