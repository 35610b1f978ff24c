"""Jump operators, their products and flux functionals as dense stacks, against dense references."""

import gc
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from chainflux import chain
from chainflux.lindblad import chain_operators, global_bins, global_jump_operators
from chainflux.observables import _stack_reports, steady_reports
from chainflux.operators import EigenSystem

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
    # the functionals are read at the unknowns (c_i, r_i), and the products
    # A^dag A are the decay terms of J = -iH - sum rate A^dag A / 2
    structure = chain_structure(chain_operators(specs), approach)
    d = structure.frame_hamiltonian.shape[-1]
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
        decay = operators.conj().swapaxes(-1, -2) @ operators
        assert np.abs(structure.decay[start:start + count] - decay).max() <= 1e-14


def test_block_reports_do_not_move_when_the_frame_vectors_take_phases():
    # frame vector q times P_q puts conj(P_a) P_b on entry (a, b) of the
    # frame's operators, products, functionals and steady state; the mixed
    # bin of this chain leaves coherences among its 26 unknowns, so the
    # traces Tr{F rho} hold only where F is read at (c_i, r_i)
    structure = chain_structure(chain_operators([chain([1.5] * 4, [3.0] * 3, 1.0, 0.5)]),
                                "global")
    (unknowns,) = structure.unknown_sets([0])
    assert unknowns.size == 26
    rng = np.random.default_rng(29)
    es = structure.eigensystem
    phases = np.exp(2j * np.pi * rng.uniform(size=es.energies.shape))
    P = np.take_along_axis(phases, es.frame_order, axis=1)[0]

    def rotate(X):
        return P.conj()[:, None] * X * P

    turned = replace(structure, eigensystem=EigenSystem(es.energies, es.vectors * phases[:, None]),
                     frame_hamiltonian=rotate(structure.frame_hamiltonian),
                     operators=rotate(structure.operators), decay=rotate(structure.decay),
                     flux_functionals=rotate(structure.flux_functionals))
    rows = np.zeros(4, dtype=int)  # four rows on chain 0
    baths = np.stack([rng.uniform(0.2, 3.0, (4, 2)), rng.uniform(0.5, 1.5, (4, 2))], axis=2)
    rates, offsets = structure.rates(rows, baths)
    rates = rates[offsets[:-1, None] + np.arange(offsets[1])].reshape(len(rows), -1)
    before, after = (_stack_reports(s, rows, rates, unknowns) for s in (structure, turned))
    assert np.abs(after[4].rho.imag).max() > 1e-2  # the turned frame state is complex
    for old, new in zip(before[:3], after[:3]):  # populations, fluxes, channel fluxes
        assert np.abs(new - old).max() <= 1e-13


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
