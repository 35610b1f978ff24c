"""The steady solve on the coupled entries of the frame generator against the dense oracle."""

import numpy as np
import pytest

import chainflux.lindblad
from chainflux import bose_occupation, chain, steady_report
from chainflux.lindblad import (
    full_unknowns,
    global_dissipator_bins,
    superoperator,
    thermal_dissipator,
)
from chainflux.observables import heat_flux, qubit_population
from chainflux.steady import solve_steady
from chainflux.operators import excitation_numbers, site_operator

from oracles import assemble, block_reports, dense_chains, gather


def random_cases(seed, n_qubits, count):
    rng = np.random.default_rng(seed)
    for i in range(count):
        yield chain(rng.uniform(0.3, 3.0, n_qubits),
                    rng.uniform(0.1, 1.5, n_qubits - 1),
                    rng.uniform(0.0, 5.0), rng.uniform(0.0, 5.0),
                    rng.uniform(0.1, 2.0), rng.uniform(0.1, 2.0)), ("global", "local")[i % 2]


CASES = [case for n in (1, 2, 3, 4) for case in random_cases(40 + n, n, 6)]
CASES += list(random_cases(45, 5, 2))  # one global and one local point


@pytest.mark.parametrize("spec, approach", CASES,
                         ids=[f"N{s.n_qubits}-{a}-{i}" for i, (s, a) in enumerate(CASES)])
def test_block_solve_matches_dense_oracle(spec, approach):
    # the real block solves every chain; the package solves these rows
    # through N x N forms, and both agree with the dense oracle
    model = assemble(spec, approach)
    assert model.unknowns.size < spec.dim**2
    block = block_reports([spec], approach)[0]
    assert block.unknowns == model.unknowns.size and 0 < block.rcond <= 1
    report = steady_report(spec, approach)
    # a local row solves the N^2 coordinates of its correlation matrix, a
    # global row on a chain whose bins keep the modes apart the
    # occupations of its N modes
    assert report.unknowns == (spec.n_qubits if approach == "global" else spec.n_qubits**2)
    assert 0 < report.rcond <= 1
    # the dense uniqueness check passes wherever the block's does
    dense = solve_steady(model.liouvillian).rho
    H = model.hamiltonian
    for ours in (block, report):
        assert np.abs(ours.rho - dense).max() <= 1e-12
        for q in range(spec.n_qubits):
            assert ours.populations[q] == pytest.approx(qubit_population(dense, q), abs=1e-12)
        for j, (bins, bath) in enumerate(zip(model.bins, spec.baths)):
            oracles = [heat_flux(H, thermal_dissipator(model.to_site(A), bath.gamma,
                                                       bose_occupation(omega, bath.temperature)),
                                 dense)
                       for omega, A in bins]
            omegas = [omega for omega, _ in ours.channel_fluxes[j]]
            if ours is block:
                assert omegas == [omega for omega, _ in bins]
            else:
                assert omegas == pytest.approx([omega for omega, _ in bins], rel=1e-12)
            assert [q for _, q in ours.channel_fluxes[j]] == pytest.approx(oracles, abs=1e-10)
            assert ours.fluxes[j] == pytest.approx(sum(oracles), abs=1e-10)
        assert abs(ours.fluxes[0] + ours.fluxes[1]) <= 1e-9


def test_eigenbasis_bins_sum_to_the_eigenbasis_coupling():
    # sum_b (A_b + A_b^dag) = V^dag sigma^x V over the bins of
    # eigenbasis_bins, in eigenvalue order: the binning drops and
    # double-counts no jump
    for spec, _ in CASES:
        model = assemble(spec, "global")
        vectors = model.eigensystem.vectors
        for bins, bath in zip(model.bins, spec.baths):
            site = bath.attached_site
            coupling = (site_operator(spec.n_qubits, site, "raise")
                        + site_operator(spec.n_qubits, site, "lower"))
            total = sum(A + A.conj().T for _, A in bins)
            assert np.abs(total - vectors.conj().T @ coupling @ vectors).max() <= 1e-12


BIN_CASES = [spec for spec, _ in CASES] + [chain([1.5] * 4, [1.0] * 3, 1.0, 0.5)]


@pytest.mark.parametrize("spec", BIN_CASES)
def test_global_dissipator_bins_sum_to_the_dense_dissipator_of_each_reservoir(spec):
    # the package's dense bins, built in the eigenbasis and rotated by its
    # vectors, against the oracle's per-reservoir dissipator; the uniform
    # N = 4 chain has bins of several jumps that share a lower or an upper
    # state
    chains, jumps = chainflux.lindblad.assemble(spec, "global")
    _, es, _ = dense_chains(chains)
    model = assemble(spec, "global")
    for r, bath in enumerate(spec.baths):
        own = jumps[jumps["reservoir"] == r]
        bins = global_dissipator_bins(es, own, bath)
        assert [omega for omega, _ in bins] == [omega for omega, _ in model.bins[r]]
        total = sum(D for _, D in bins)
        assert np.abs(total - model.dissipators[r]).max() <= 1e-12


@pytest.mark.parametrize("approach", ["global", "local"])
def test_frame_generator_holds_no_entry_between_coupled_set_and_rest(approach):
    for spec, _ in CASES:
        model = assemble(spec, approach)
        d = spec.dim
        dense = superoperator(model.frame_hamiltonian, model.operators, model.rates,
                              full_unknowns(d))
        inside = np.zeros(d * d, dtype=bool)
        inside[model.unknowns.cols * d + model.unknowns.rows] = True
        assert np.all(inside[np.arange(d) * (d + 1)])  # every diagonal entry
        assert not np.any(dense[np.ix_(inside, ~inside)])
        assert not np.any(dense[np.ix_(~inside, inside)])
        assert np.array_equal(model.block, dense[np.ix_(inside, inside)])


def test_block_holds_no_entry_between_excitation_numbers():
    # in the site basis the local generator couples exactly the
    # equal-excitation block to the diagonal
    for n in range(1, 6):
        block = assemble(chain([1.5] * n, [1.0] * (n - 1), 1.0, 0.5), "local").unknowns
        exc = excitation_numbers(n)
        assert block.size == [2, 6, 20, 70, 252][n - 1]
        assert np.array_equal(exc[block.rows], exc[block.cols])
        flat = block.cols * block.dim + block.rows
        assert np.all(np.diff(flat) > 0)  # column-stacked order


def test_uniform_global_chain_couples_few_entries():
    # the full-secular generator commutes with [H, .]: in the eigenbasis it
    # joins only entries between levels of equal energy to the diagonal
    for n, size in ((4, 18), (5, 36)):
        model = assemble(chain([1.5] * n, [1.0] * (n - 1), 1.0, 0.5), "global")
        unknowns = model.unknowns
        assert unknowns.size == size
        energies = np.diag(model.frame_hamiltonian)
        assert np.abs(energies[unknowns.rows] - energies[unknowns.cols]).max() <= 1e-9


def test_gibbs_state_is_fixed_point_of_block_generator():
    rng = np.random.default_rng(19)
    for n in (2, 3, 4, 5):
        t = rng.uniform(0.4, 6.0)
        spec = chain(rng.uniform(0.3, 3.0, n), rng.uniform(0.1, 1.5, n - 1),
                     t, t, rng.uniform(0.3, 2.0), rng.uniform(0.3, 2.0))
        model = assemble(spec, "global")
        es = model.eigensystem
        weights = np.exp(-(es.energies - es.energies.min()) / t)
        gibbs = (es.vectors * (weights / weights.sum())) @ es.vectors.conj().T
        in_frame = es.vectors.conj().T @ gibbs @ es.vectors
        assert np.abs(model.block @ gather(model.unknowns, in_frame)).max() <= 1e-9


def test_bin_joining_raising_and_lowering_jumps_solves_beyond_the_excitation_block():
    # single-particle energies eps + 2K cos(k pi / 5) are +-3.35 for two
    # modes at eps = 1.5, K = 3: one frequency bin holds a jump that lowers
    # the excitation number and one that raises it, and the steady state
    # leaves the equal-excitation block; the coupled set follows it there
    spec = chain([1.5] * 4, [3.0] * 3, 1.0, 0.5)
    model = assemble(spec, "global")
    assert model.unknowns.size < spec.dim**2
    rho = steady_report(spec, "global").rho
    exc = excitation_numbers(4)
    assert np.abs(rho[exc[:, None] != exc[None, :]]).max() > 1e-3
    assert np.abs(rho - solve_steady(model.liouvillian).rho).max() <= 1e-12
