"""Operators, products and flux functionals held as nonzero entries, against dense references."""

import gc
import tracemalloc

import numpy as np
import pytest

from chainflux import chain
from chainflux.lindblad import chain_operators
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
def test_entry_functionals_match_the_dense_reference(specs, approach):
    structure = chain_structure(chain_operators(specs), approach)
    d, bins, edges = structure.operators.dim, np.arange(structure.edges[-1]), structure.edges
    chains = np.searchsorted(edges[::2], bins, side="right") - 1
    items = (structure.start[chains] + 2 * (bins - edges[2 * chains]))[:, None] + [0, 1]
    operators = structure.operators.dense()[items]
    reference = adjoint_dissipator(operators, structure.frame_hamiltonian[chains])
    functionals = structure.flux_functionals.dense().reshape(-1, 2, d, d)
    scale = np.abs(reference).max()
    assert np.abs(functionals - reference).max() <= 1e-14 * scale
    decay = structure.operators.decay.dense()[items]
    assert np.abs(decay - operators.conj().swapaxes(-1, -2) @ operators).max() <= 1e-14


def test_degenerate_uniform_chain_has_bins_whose_jumps_share_a_state():
    # the pair-built products of the test above meet bins where two jumps
    # join one state to two others
    structure = chain_structure(chain_operators([chain([1.5] * 4, [1.0] * 3, 1.0, 0.5)]),
                                "global")
    j, k, _ = structure.operators.row_pairs
    assert np.any(j != k)


# tracemalloc peak of the call below before the operators were held as
# entries, when every bin's operators and functionals were dense (bins, 2,
# d, d) stacks; numpy reports its allocations to tracemalloc, and their
# sizes do not depend on the machine
DENSE_STACK_PEAK_BYTES = 21_019_631


def test_k_scan_peak_memory_stays_below_the_dense_stacks():
    specs = [chain([1.5] * 4, [k] * 3, t1=2.0, t2=0.5) for k in np.linspace(0.5, 3.0, 48)]
    steady_reports(specs, ("global", "local"))  # fills the caches of patterns
    gc.collect()
    tracemalloc.start()
    try:
        steady_reports(specs, ("global", "local"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.4 * DENSE_STACK_PEAK_BYTES
