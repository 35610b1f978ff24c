"""Jump operators as dense stacks of binned jumps, and the memory of a K scan."""

import gc
import tracemalloc

import numpy as np
import pytest

from chainflux import chain
from chainflux.lindblad import chain_operators, global_jump_operators
from chainflux.observables import steady_reports

from oracles import dense_chains, eigenbasis_bins


@pytest.mark.parametrize("n", [4, 5])
def test_each_bin_of_a_degenerate_uniform_chain_holds_exactly_its_jumps(n):
    # bins whose jumps share a lower or an upper state, where one entry of
    # A^dag A or of a functional sums two jumps
    _, es, couplings = dense_chains(chain_operators([chain([1.5] * n, [1.0] * (n - 1), 1.0, 0.5)]))
    jumps = global_jump_operators(es, couplings)
    first, operators = eigenbasis_bins(es, jumps)
    counts = np.diff(np.append(first, len(jumps)))
    lower, upper = jumps["lower"], jumps["upper"]  # eigenvalue positions
    shared = 0
    for b, (A, adjoint) in enumerate(zip(operators[::2], operators[1::2])):
        at = slice(first[b], first[b] + counts[b])
        assert np.count_nonzero(A) == counts[b]
        assert np.array_equal(A[lower[at], upper[at]], jumps["weight"][at])
        assert np.array_equal(adjoint, A.conj().T)
        states = min(len(np.unique(lower[at])), len(np.unique(upper[at])))
        shared += states < counts[b]
    assert shared > 0


def test_k_scan_peak_memory_stays_below_the_dense_stacks():
    # every row comes from N x N forms, and no jump operator is built; the
    # operator stack of all 48 chains' bins alone would be 3.1 MB, past the
    # bound.  numpy
    # reports its allocations to tracemalloc, and their sizes do not depend
    # on the machine
    specs = [chain([1.5] * 4, [k] * 3, t1=2.0, t2=0.5) for k in np.linspace(0.5, 3.0, 48)]
    steady_reports(specs, ("global", "local"))  # fills the caches of patterns
    gc.collect()
    tracemalloc.start()
    try:
        steady_reports(specs, ("global", "local"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2_000_000
