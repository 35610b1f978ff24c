"""The global rows from the chain's free-fermion modes, against the real block they replaced.

The package solves the global rows of a chain whose bins keep its modes
apart mode by mode (``correlations.global_steady_states``), and those of a
chain with a shared bin by the N^2 system of its hole frame
(``correlations.group_steady_states``); the real block
(``oracles.block_reports`` on the chain's eigenbasis structure) is the
oracle of both.
"""

import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import chainflux.correlations
import chainflux.lindblad
import chainflux.observables
import chainflux.operators
import chainflux.steady
from chainflux import (
    DegenerateKernel,
    DegenerateTransition,
    SweepRequest,
    apply_axis,
    bose_occupation,
    chain,
    figure_requests,
    parse_config,
    run_sweep,
)
from chainflux.lindblad import chain_operators, mode_groups
from chainflux.observables import steady_reports

from oracles import block_reports
from test_correlations import non_uniform_chains
from test_hermitian_solve import load_workloads

REPO = Path(__file__).resolve().parent.parent


def grid_specs(request):
    return [apply_axis(request.base, request.axis, value) for value in request.grid]


def oracle_grids():
    for name, request in figure_requests().items():
        yield name, grid_specs(request)
    for path in sorted((REPO / "configs").glob("*.cfg")):
        yield path.name, grid_specs(parse_config(path.read_text()))
    workloads = load_workloads()
    for seed in range(1, 11):
        ((_, request),) = workloads.build_requests("kscan4_par", seed)
        yield f"kscan4_par-{seed}", grid_specs(request)
    chains = list(non_uniform_chains(40))
    for n in range(1, 6):
        yield f"seeded-N{n}", [spec for spec in chains if spec.n_qubits == n]


ORACLE_GRIDS = list(oracle_grids())


def on_modes(specs):
    """Whether each spec's chain has every mode in a bin of its own."""
    group = mode_groups(chain_operators(specs))[0]
    return group[:, -1] == group.shape[1] - 1


def assert_rows_match_the_block(specs, bounds=None):
    """The package's global rows against the real block's: errors, and values within 1e-12.

    Both raise DegenerateTransition with the same message (the jump scan of
    the chain's own eigensystem) and DegenerateKernel on the same rows; the
    rcond of a kernel's message is each solver's own.  ``bounds`` loosens
    the bound of named columns.
    """
    bounds = {"populations": 1e-12, "fluxes": 1e-12, "channels": 1e-12, "states": 1e-12,
              **(bounds or {})}
    (rows,) = steady_reports(specs, ("global",))
    block = block_reports(specs, "global")
    assert sorted(rows.errors) == sorted(block.errors)
    for i, error in rows.errors.items():
        assert type(error) is type(block.errors[i])
        if isinstance(error, DegenerateTransition):
            assert str(error) == str(block.errors[i])
    solved = [i for i in range(len(specs)) if i not in rows.errors]
    for name in ("populations", "fluxes"):
        assert np.abs(getattr(rows, name) - getattr(block, name))[solved].max(initial=0) \
            <= bounds[name]
    assert np.abs(rows.states(solved) - block.states(solved)).max(initial=0) <= bounds["states"]
    assert np.abs(rows.rho_diagonals(solved) - block.rho_diagonals(solved)).max(initial=0) \
        <= bounds["states"]
    for i in solved:
        for ours, theirs in zip(rows[i].channel_fluxes, block[i].channel_fluxes):
            assert len(ours) == len(theirs)
            assert np.abs(np.subtract(ours, theirs)).max(initial=0) <= bounds["channels"]
    return rows, solved


# figure3a's omega = 1e-3 channel: the block is 6.3e-12 off a 40-digit
# reference there, the modes 8.4e-17 (test_observables.py)
FIGURE3A = {"fluxes": 1e-11, "channels": 1e-11}


@pytest.mark.parametrize("specs", [specs for _, specs in ORACLE_GRIDS],
                         ids=[name for name, _ in ORACLE_GRIDS])
def test_global_rows_match_the_real_block_oracle(specs, request):
    bounds = FIGURE3A if request.node.callspec.id == "figure3a" else None
    rows, solved = assert_rows_match_the_block(specs, bounds)
    # the diagnostics: N unknowns and rcond min_k Lambda_k / max_k Lambda_k
    # mode by mode, N^2 and the rcond of that system in the hole frame
    modes = on_modes(specs)
    for i in solved:
        assert rows.hole_frame[i] == (not modes[i])
        if modes[i]:
            assert rows.unknowns[i] == specs[i].n_qubits
            assert rows.rcond[i] == pytest.approx(mode_rcond(specs[i]), rel=1e-12)
        else:
            assert rows.unknowns[i] == specs[i].n_qubits**2 and 0 < rows.rcond[i] <= 1


def mode_rcond(spec):
    """min_k Lambda_k / max_k Lambda_k, Lambda_k = sum_j gamma_j phi_k(site_j)^2 (2 nbar_j + 1)."""
    omega, phi = np.linalg.eigh(chain_operators([spec]).single_particle[0])
    lam = [sum(bath.gamma * phi[bath.attached_site, k] ** 2
               * (2 * bose_occupation(abs(w), bath.temperature) + 1) for bath in spec.baths)
           for k, w in enumerate(omega)]
    return min(lam) / max(lam)


def test_the_grids_cover_both_routes():
    # every figure solves mode by mode, figure3a's omega = 1e-3 channel
    # included, and so do the benchmark's K scans (whose zero modes are
    # skipped); the shipped N = 4 scans also hold chains with a shared bin
    routes = {name: set(on_modes(specs).tolist()) for name, specs in ORACLE_GRIDS}
    shared = {name for name, route in routes.items() if False in route}
    assert shared == {"kscan4.cfg", "eps4.cfg"}
    assert all(True in route for route in routes.values())


def block_chains():
    zero_mode = 1.5 / (2 * math.cos(math.pi / 5))
    uniform = chain([1.5] * 4, [1.0] * 3, 1.0, 0.5)
    yield "mixed-bin", [chain([1.5] * 4, [3.0] * 3, t, 0.5) for t in (0.0, 0.3, 2.0)]
    yield "degenerate-kernel", [apply_axis(uniform, "k", 3 / math.sqrt(5))]
    yield "zero-modes", [apply_axis(uniform, "k", k) for k in
                         (zero_mode * (1 - 1e-3), zero_mode, zero_mode * (1 + 1e-3))]
    yield "figure3a", grid_specs(figure_requests()["figure3a"])
    yield "dark-mode", [chain([1.0, 1.4, 2.0], [0.0, 0.0], t, 0.3) for t in (0.0, 1.0)]


BLOCK_CHAINS = list(block_chains())


@pytest.mark.parametrize("specs", [specs for _, specs in BLOCK_CHAINS],
                         ids=[name for name, _ in BLOCK_CHAINS])
def test_the_chains_the_block_solved_match_it(specs):
    # a bin holding two modes, two modes at one |omega| whose group keeps an
    # undamped direction (DegenerateKernel), exact zero modes and their
    # neighbours, figure3a's omega = 1e-3 channel, and a mode at no attached
    # site (DegenerateKernel): the package's rows and errors against the
    # block's on the same stack of chains
    bounds = FIGURE3A if specs is BLOCK_CHAINS[3][1] else None
    assert_rows_match_the_block(specs, bounds)


def test_the_block_chains_fail_as_they_did():
    for source in (lambda specs: block_reports(specs, "global"),
                   lambda specs: steady_reports(specs, ("global",))[0]):
        kinds = {name: {type(e) for e in source(specs).errors.values()}
                 for name, specs in BLOCK_CHAINS}
        assert kinds == {"mixed-bin": set(), "degenerate-kernel": {DegenerateKernel},
                         "zero-modes": {DegenerateTransition}, "figure3a": set(),
                         "dark-mode": {DegenerateKernel}}


def n5_t1_sweep(points):
    return SweepRequest(base=chain([1.5] * 5, [1.0] * 4, t1=1.0, t2=0.0), axis="t1",
                        grid=tuple(np.geomspace(0.05, 50.0, points).tolist()),
                        approaches=("global", "local"), outputs=("populations", "heat_flux"))


def test_a_sweep_of_mode_chains_does_no_2n_work(monkeypatch):
    # the uniform N = 5 chain's modes are apart: no 2^N eigensystem, jump
    # scan, real block or Gaussian state on either approach's rows
    def refuse(*args, **kwargs):
        raise AssertionError("2^N work on the sweep path")

    for module, name in ((chainflux.operators, "diagonalize"),
                         (chainflux.lindblad, "diagonalize"),
                         (chainflux.lindblad, "global_jump_operators"),
                         (chainflux.steady, "solve_hermitian"),
                         (chainflux.correlations, "_gaussian_states")):
        monkeypatch.setattr(module, name, refuse)
    table = run_sweep(n5_t1_sweep(40))
    assert len(table.rows) == 80 and not table.skipped
    # a K scan of both approaches through K = 3, where a bin holds two
    # modes, and a chain with a soft mode near 1e-3, which the real block
    # once solved: no zero mode, so no 2^N work either
    scan = SweepRequest(base=chain([1.5] * 4, [1.0] * 3, 2.0, 0.5), axis="k",
                        grid=(0.5, 1.2, 2.2, 3.0, 3.4), approaches=("global", "local"),
                        outputs=("populations", "heat_flux"))
    soft = SweepRequest(base=chain([1.001] * 2, [1.0], 0.01, 0.0), axis="t1",
                        grid=(0.01, 0.5, 20.0), approaches=("global", "local"),
                        outputs=("heat_flux",))
    for request, shared in ((scan, True), (soft, False)):
        specs = grid_specs(request)
        assert (not on_modes(specs).all()) == shared
        table = run_sweep(request)
        assert len(table.rows) == 2 * len(request.grid) and not table.skipped


def test_a_long_sweep_of_both_approaches_keeps_no_states_in_memory():
    # 2000 rows of N = 5 under both approaches: the global rows' states alone
    # would be 32.8 MB; the traced peak was 33.9 MB while they kept them
    request = n5_t1_sweep(2000)
    run_sweep(n5_t1_sweep(3))
    tracemalloc.start()
    try:
        run_sweep(request)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10e6


def test_a_long_n4_k_scan_with_eigenbasis_diagonals_stays_within_its_bound():
    # a K scan gives every point its own chain, so the chains per call are
    # bounded (128 at N = 4) and each call's (rows, d, d) states and
    # eigensystems are dropped after it: a 1000-point scan of both
    # approaches with rho_diagonals peaked at 4.3 MB traced; 27.9 MB with
    # the whole grid in one call, and 11.5 MB while each call's diagonals
    # were a view that kept its rotated states
    request = SweepRequest(base=chain([1.5] * 4, [1.0] * 3, 2.0, 0.5), axis="k",
                           grid=tuple(np.linspace(0.3, 3.0, 1000).tolist()),
                           approaches=("global", "local"),
                           outputs=("populations", "heat_flux", "rho_diagonals"))
    run_sweep(SweepRequest(base=request.base, axis="k", grid=request.grid[:3],
                           approaches=request.approaches, outputs=request.outputs))
    tracemalloc.start()
    try:
        table = run_sweep(request)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(table.rows) == 2 * len(request.grid) - len(table.skipped)
    assert peak <= 8e6


@pytest.mark.parametrize("config", ["kscan4.cfg", "eps4.cfg"])
def test_the_eigenbasis_diagonals_of_mode_rows_sum_to_their_fock_states_per_level(config):
    # a mode row's state is the product of its modes' occupations, diagonal
    # on the mode Fock states; rho_diagonals reads it on the eigenvectors
    # diagonalize returns, which inside a degenerate level are eigh's choice
    # of basis.  Only each level's sum is basis-free: the product
    # probabilities of the Fock states at that energy
    request = parse_config((REPO / "configs" / config).read_text())
    specs = [apply_axis(request.base, request.axis, value) for value in request.grid]
    (columns,) = steady_reports(specs, ("global",))
    rows = np.array([i for i in np.flatnonzero(~columns.hole_frame).tolist()
                     if i not in columns.errors])
    diagonals = columns.rho_diagonals(rows)
    on = columns.chain[rows]
    energies = columns.chains.eigensystem.energies[on]
    omega, phi = (a[on] for a in columns.chains.modes)
    occupations = np.einsum("rik,ril,rlk->rk", phi, columns.correlations[rows].real, phi)
    n = omega.shape[1]
    bits = (np.arange(2**n)[:, None] >> np.arange(n)) & 1  # occupied modes of each Fock state
    fock = omega @ bits.T
    probabilities = np.where(bits, occupations[:, None], 1 - occupations[:, None]).prod(axis=2)
    order = np.argsort(fock, axis=1, kind="stable")
    fock, probabilities = (np.take_along_axis(a, order, axis=1) for a in (fock, probabilities))
    # the same spectrum, up to the constant of the Jordan-Wigner form
    assert np.ptp(energies - fock, axis=1).max() < 1e-10
    degenerate = 0
    for energy, diagonal, probability in zip(energies, diagonals, probabilities):
        level = np.concatenate([[0], np.cumsum(np.diff(energy) > 1e-8)])
        sums = np.zeros((2, level[-1] + 1))
        np.add.at(sums, (0, level), diagonal)
        np.add.at(sums, (1, level), probability)
        assert np.abs(sums[0] - sums[1]).max() <= 1e-12
        degenerate += int((np.bincount(level) > 1).sum())
    assert len(rows) >= 9 and degenerate > 0
