"""Jump operators, their products and flux functionals as dense stacks, against dense references."""

import gc
import tracemalloc

import numpy as np
import pytest

from chainflux import chain
from chainflux.generator import _generator_terms
from chainflux.lindblad import chain_operators, global_bins, global_jump_operators
from chainflux.observables import steady_reports

from oracles import adjoint_dissipator, chain_structure


def functional_chains():
    for n in range(1, 6):
        rng = np.random.default_rng(900 + n)
        yield [chain(rng.uniform(0.3, 3.0, n), rng.uniform(0.1, 1.5, n - 1), 1.0, 0.5)
               for _ in range(3)]
    yield [chain([1.5] * 4, [3.0] * 3, 1.0, 0.5)]  # two modes share |omega| = 3.354
    for n in (4, 5):  # degenerate levels: bins of jumps that share a lower or an upper state
        yield [chain([1.5] * n, [1.0] * (n - 1), 1.0, 0.5)]


@pytest.mark.parametrize("specs", list(functional_chains()))
@pytest.mark.parametrize("approach", ["global", "local"])
def test_functionals_and_products_match_the_dense_reference(specs, approach):
    # the functionals are read at the unknowns (c_i, r_i), and A^dag A
    # enters J = -iH - sum rate A^dag A / 2, built once per distinct chain
    structure = chain_structure(chain_operators(specs), approach)
    d = structure.frame_hamiltonian.shape[-1]
    rng = np.random.default_rng(d)
    for c, unknowns in enumerate(structure.unknown_sets(np.arange(len(specs)))):
        low, high = structure.edges[2 * c], structure.edges[2 * c + 2]
        start, count = structure.start[c], 2 * (high - low)
        operators = structure.operators[start:start + count]
        H = structure.frame_hamiltonian[c]
        reference = adjoint_dissipator(operators.reshape(-1, 2, d, d),
                                       np.repeat(H[None], high - low, axis=0)).reshape(-1, d, d)
        at = (slice(None), unknowns.cols, unknowns.rows)
        functionals = structure.flux_functionals[2 * low:2 * high]
        scale = np.abs(reference).max()
        assert np.abs(functionals[at] - reference[at]).max() <= 1e-14 * scale
        rates = rng.uniform(0.5, 2.0, (1, count))
        decay = operators.conj().swapaxes(-1, -2) @ operators
        assert np.abs(structure.decay[start:start + count] - decay).max() <= 1e-14
        _, _, J, pattern = _generator_terms(H[None], structure.operators, structure.decay, rates,
                                            [start])
        expected = (-1j * H - 0.5 * np.tensordot(rates[0], decay, axes=1)).reshape(-1)
        assert not expected[~pattern[-1]].any()
        assert np.abs(J[0] - expected[pattern[-1]]).max() <= 1e-14 * np.abs(expected).max()


@pytest.mark.parametrize("n", [4, 5])
def test_each_bin_of_a_degenerate_uniform_chain_holds_exactly_its_jumps(n):
    # bins whose jumps share a lower or an upper state, where one entry of
    # A^dag A or of a functional sums two jumps
    chains = chain_operators([chain([1.5] * n, [1.0] * (n - 1), 1.0, 0.5)])
    es = chains.eigensystem
    jumps = global_jump_operators(es, chains.couplings)
    first, operators = global_bins(es, jumps)
    counts = np.diff(np.append(first, len(jumps)))
    position = np.argsort(es.frame_order[0])
    lower, upper = position[jumps["lower"]], position[jumps["upper"]]
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
    # the block sees only the 3 of these 48 chains whose modes come close
    # (every other global row comes from its modes); the operator stack of
    # all 48 chains' bins alone would be 3.1 MB, past the bound.  numpy
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
