"""The global rows from the chain's free-fermion modes, against the real block they replaced.

The package solves the global rows of a chain whose bins keep its modes
apart mode by mode (``correlations.global_steady_states``), and those of a
chain with a shared bin by the N^2 system of its hole frame
(``correlations.group_steady_states``); the real block
(``oracles.block_reports`` on the chain's eigenbasis structure) is the
oracle of both.  The diagonals on the mode Fock states, of every route,
are checked against the dense states on Fock states built from the modes
(``oracles.mode_fock_states``), and no sweep builds a 2^N x 2^N array,
not even one through a zero mode.
"""

import math
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import chainflux.correlations
import chainflux.lindblad
import chainflux.observables
import chainflux.operators
import chainflux.steady
import chainflux.sweep
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
from chainflux.lindblad import OMEGA_MIN, chain_operators, mode_groups
from chainflux.observables import steady_reports

from oracles import block_reports, dense_chains, mode_fock_diagonals
from test_correlations import non_uniform_chains
from test_hole_frame import PAIRS, TEMPERATURES
from test_hermitian_solve import load_workloads

REPO = Path(__file__).resolve().parent.parent
OUTPUTS = ("populations", "heat_flux", "rho_diagonals")
# a warm 1000-point N = 5 K scan of both approaches with rho_diagonals, in
# one call, peaked at 5.3-5.4 MB traced (numpy 2.4, x86-64)
PEAK_N5_K_SCAN = 7e6


def grid_specs(request):
    return [apply_axis(request.base, request.axis, value) for value in request.grid]


# The real block reads each flux as Tr{H D_j(rho)}, whose terms grow like
# the bath's nbar and cancel: on the global dimer it is 1.6e-13 off the
# modes at T1 = 1.3e3, 9.4e-9 at 1.7e8 and 2.9e-3 at 2.3e13, and its
# rcond_1, not row-equilibrated, rejects the unique state from T1 ~ 1e14
# on.  A config's rows are compared up to this temperature; hot2.cfg alone
# goes past it.
BLOCK_MAX_TEMPERATURE = 1e4


def oracle_grids():
    for name, request in figure_requests().items():
        yield name, grid_specs(request)
    for path in sorted((REPO / "configs").glob("*.cfg")):
        yield path.name, [spec for spec in grid_specs(parse_config(path.read_text()))
                          if max(bath.temperature for bath in spec.baths) <= BLOCK_MAX_TEMPERATURE]
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

    Both raise DegenerateTransition and DegenerateKernel on the same rows.
    The package's transition is at its chain's smallest bright |omega_k| at
    or below OMEGA_MIN, the block's from the jump scan of the chain's 2^N
    eigensystem; the rcond of a kernel's message is each solver's own.
    ``bounds`` loosens the bound of named columns.
    """
    bounds = {"populations": 1e-12, "fluxes": 1e-12, "channels": 1e-12, "states": 1e-12,
              **(bounds or {})}
    (rows,) = steady_reports(specs, ("global",))
    block = block_reports(specs, "global")
    assert sorted(rows.errors) == sorted(block.errors)
    for i, error in rows.errors.items():
        assert type(error) is type(block.errors[i])
        if isinstance(error, DegenerateTransition):
            assert error.omega == smallest_bright_mode(rows.chains, rows.chain[i])
            assert str(error) == (f"mode at |omega| = {error.omega:.3e} "
                                  f"below cutoff {OMEGA_MIN:.1e}")
    solved = [i for i in range(len(specs)) if i not in rows.errors]
    for name in ("populations", "fluxes"):
        assert np.abs(getattr(rows, name) - getattr(block, name))[solved].max(initial=0) \
            <= bounds[name]
    assert np.abs(rows.states(solved) - block.states(solved)).max(initial=0) <= bounds["states"]
    # the diagonals on the mode Fock states, against the block's states
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


def smallest_bright_mode(chains, c):
    """The smallest |omega_k| of chain c's modes with weight at an attached site."""
    omega, phi = (a[c] for a in chains.modes)
    bright = (np.abs(phi[chains.sites[c]]) > chainflux.lindblad.ELEMENT_TOL).any(axis=0)
    return float(np.abs(omega[bright]).min())


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


def test_the_block_gives_its_states_on_the_mode_fock_states():
    # the block keeps no correlation matrices: its rho_diagonals reads its
    # dense states on the mode Fock states, in the package's order
    specs = BLOCK_CHAINS[0][1]
    block = block_reports(specs, "global")
    diagonals = block.rho_diagonals(slice(None))
    assert diagonals.shape == (len(specs), 2 ** specs[0].n_qubits)
    assert np.abs(diagonals.sum(axis=1) - 1.0).max() <= 1e-12 and diagonals.min() >= -1e-12
    (rows,) = steady_reports(specs, ("global",))
    assert np.abs(diagonals - rows.rho_diagonals(slice(None))).max() <= 1e-12
    assert block.rho_diagonals([]).shape == (0, 2 ** specs[0].n_qubits)


def n5_t1_sweep(points):
    return SweepRequest(base=chain([1.5] * 5, [1.0] * 4, t1=1.0, t2=0.0), axis="t1",
                        grid=tuple(np.geomspace(0.05, 50.0, points).tolist()),
                        approaches=("global", "local"), outputs=("populations", "heat_flux"))


# the skip points of the shipped scans through zero modes, as before the
# zero modes were found from the modes alone
ZERO_MODE_SKIPS = {"kscan4.cfg": (0.9270509831248422, 2.427050983124842),
                   "kscan5.cfg": (0.8660254037844386, 1.4999999999999998),
                   "eps4.cfg": (0.6180339887498949, 1.618033988749895)}


def refuse_2n_work(monkeypatch):
    """Make every builder of a 2^N operator on the sweep path raise."""
    def refuse(*args, **kwargs):
        raise AssertionError("2^N work on the sweep path")

    for module, name in ((chainflux.operators, "build_chain_hamiltonian"),
                         (chainflux.lindblad, "build_chain_hamiltonian"),
                         (chainflux.operators, "diagonalize"),
                         (chainflux.lindblad, "diagonalize"),
                         (chainflux.lindblad, "global_jump_operators"),
                         (chainflux.lindblad, "site_operator"),
                         (chainflux.steady, "solve_hermitian"),
                         (chainflux.correlations, "_gaussian_states")):
        monkeypatch.setattr(module, name, refuse)


def test_a_sweep_of_mode_chains_does_no_2n_work(monkeypatch):
    # the uniform N = 5 chain's modes are apart: no 2^N Hamiltonian,
    # eigensystem, jump scan, real block or Gaussian state on either
    # approach's rows, the mode Fock diagonals included
    refuse_2n_work(monkeypatch)
    table = run_sweep(replace(n5_t1_sweep(40), outputs=OUTPUTS))
    assert len(table.rows) == 80 and not table.skipped
    # a K scan of both approaches through K = 3, where a bin holds two
    # modes, and a chain with a soft mode near 1e-3, which the real block
    # once solved: no zero mode, so no 2^N work either
    scan = SweepRequest(base=chain([1.5] * 4, [1.0] * 3, 2.0, 0.5), axis="k",
                        grid=(0.5, 1.2, 2.2, 3.0, 3.4), approaches=("global", "local"),
                        outputs=OUTPUTS)
    soft = SweepRequest(base=chain([1.001] * 2, [1.0], 0.01, 0.0), axis="t1",
                        grid=(0.01, 0.5, 20.0), approaches=("global", "local"),
                        outputs=("heat_flux", "rho_diagonals"))
    for request, shared in ((scan, True), (soft, False)):
        specs = grid_specs(request)
        assert (not on_modes(specs).all()) == shared
        table = run_sweep(request)
        assert len(table.rows) == 2 * len(request.grid) and not table.skipped
    # the shipped scans through zero modes: the same skips, each at its
    # chain's smallest bright |omega_k|, found from the modes alone
    for name, points in ZERO_MODE_SKIPS.items():
        request = parse_config((REPO / "configs" / name).read_text())
        table = run_sweep(request)
        assert [(s.axis_value, s.approach) for s in table.skipped] == [
            (value, "global") for value in points]
        assert len(table.rows) == 2 * len(request.grid) - len(points)
        chains = chain_operators([apply_axis(request.base, request.axis, v) for v in points])
        assert [s.reason for s in table.skipped] == [
            f"degenerate-transition (omega = {smallest_bright_mode(chains, c):.3e})"
            for c in range(len(points))]


def test_a_k_scan_through_a_zero_mode_skips_it_at_its_mode(monkeypatch):
    # the zero mode's DegenerateTransition comes from the chain's modes:
    # nothing is diagonalized, and the skip is at the mode's own |omega_k|
    # (0 here: the middle mode of the uniform N = 3 chain at eps = sqrt2 K)
    refuse_2n_work(monkeypatch)
    zero_mode = 1.5 / (2 * math.cos(math.pi / 4))
    request = SweepRequest(base=chain([1.5] * 3, [1.0] * 2, 1.0, 0.2), axis="k",
                           grid=(0.4, 0.9, zero_mode, 1.4), approaches=("global", "local"),
                           outputs=OUTPUTS)
    table = run_sweep(request)
    assert [(s.axis_value, s.approach) for s in table.skipped] == [(zero_mode, "global")]
    chains = chain_operators([apply_axis(request.base, "k", zero_mode)])
    omega = smallest_bright_mode(chains, 0)
    assert omega <= OMEGA_MIN
    assert table.skipped[0].reason == f"degenerate-transition (omega = {omega:.3e})"


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


def traced_peak(request):
    """The traced peak of a warm run of ``request``, and its table."""
    run_sweep(replace(request, grid=request.grid[:3]))
    tracemalloc.start()
    try:
        table = run_sweep(request)
        return tracemalloc.get_traced_memory()[1], table
    finally:
        tracemalloc.stop()


def k_scan(n, points):
    """A K scan of both approaches of the uniform chain, with every output."""
    return SweepRequest(base=chain([1.5] * n, [1.0] * (n - 1), 2.0, 0.5), axis="k",
                        grid=tuple(np.linspace(0.3, 3.0, points).tolist()),
                        approaches=("global", "local"), outputs=OUTPUTS)


def test_a_long_n4_k_scan_with_rho_diagonals_stays_within_its_bound():
    # a K scan gives every point its own chain; the whole grid is one call,
    # which holds no 2^N x 2^N array.  A 1000-point scan of both approaches
    # with rho_diagonals peaked at 4.3 MB traced in calls of at most 128
    # chains, 27.9 MB with the whole grid's eigensystems and states in one
    # call, and 11.5 MB while each call's diagonals kept its rotated states
    request = k_scan(4, 1000)
    peak, table = traced_peak(request)
    assert len(table.rows) == 2 * len(request.grid) - len(table.skipped)
    assert peak <= 8e6


def test_a_long_n5_k_scan_with_rho_diagonals_is_one_call_within_its_bound(monkeypatch):
    # the request a bound of 32 chains per call split into 32 calls, which
    # peaked at 9.5 MB traced, is one call (the first, of 3 points, warms up)
    calls = []

    def recording(request, values, _real=chainflux.sweep._row_task):
        calls.append(len(values))
        return _real(request, values)

    monkeypatch.setattr(chainflux.sweep, "_row_task", recording)
    request = k_scan(5, 1000)
    peak, table = traced_peak(request)
    assert calls == [3, 1000]
    assert len(table.rows) == 2 * len(request.grid) - len(table.skipped)
    assert peak <= PEAK_N5_K_SCAN


# ------------------------------------------------- mode Fock diagonals

DIAGONAL_CONFIGS = sorted(path.name for path in (REPO / "configs").glob("*.cfg")
                          if "rho_diagonals" in parse_config(path.read_text()).outputs)


def diagonal_grids():
    for name in DIAGONAL_CONFIGS:
        yield name, grid_specs(parse_config((REPO / "configs" / name).read_text()))
    # the hole-frame chains with a unique global state (test_hole_frame.py),
    # at each pair of temperatures
    for name, spec in PAIRS:
        if name in ("N4-24", "N5-35", "same-sign"):
            yield f"hole-frame-{name}", [apply_axis(apply_axis(spec, "t1", t1), "t2", t2)
                                         for t1, t2 in TEMPERATURES.values()]


DIAGONAL_GRIDS = list(diagonal_grids())


def solved_rows(columns):
    return np.array([i for i in range(len(columns)) if i not in columns.errors], dtype=int)


def test_the_configs_that_write_rho_diagonals():
    assert DIAGONAL_CONFIGS == ["chain3.cfg", "chain5x.cfg", "cold4.cfg", "eps4.cfg",
                                "kscan4.cfg", "kscan5.cfg", "t2sweep.cfg"]


@pytest.mark.parametrize("specs", [specs for _, specs in DIAGONAL_GRIDS],
                         ids=[name for name, _ in DIAGONAL_GRIDS])
def test_rho_diagonals_are_the_state_on_the_mode_fock_states(specs, request):
    # every row of both approaches against <n|rho|n>, rho the row's state
    # and |n> built from its chain's modes in the stated order (oracles),
    # degenerate levels and hole frames included
    hole_frame = 0
    for columns in steady_reports(specs, ("global", "local")):
        rows = solved_rows(columns)
        for i, rho, diagonal in zip(rows, columns.states(rows), columns.rho_diagonals(rows)):
            omega, phi = (a[columns.chain[i]] for a in columns.chains.modes)
            assert np.abs(diagonal - mode_fock_diagonals(rho, omega, phi)).max() <= 1e-12
        hole_frame += int(columns.hole_frame[rows].sum())
    assert hole_frame > 0 or not request.node.callspec.id.startswith("hole-frame")


def test_the_zero_energy_level_of_the_uniform_n4_chain():
    # the many-body level E = 0 holds the mode Fock states 6 (modes 1 and 2)
    # and 9 (modes 0 and 3), positions 7 and 8 of the stated order, in
    # ascending index; their eigenvectors from eigh both read 0.025235
    spec = chain([1.5] * 4, [1.2] * 3, 2.0, 0.5)
    (columns,) = steady_reports([spec], ("global",))
    omega = columns.chains.modes[0][0]
    energies = sorted(sum(omega[k] for k in range(4) if i >> k & 1) - omega.sum() / 2
                      for i in range(16))
    zero = [position for position, energy in enumerate(energies) if abs(energy) < 1e-9]
    assert zero == [7, 8]
    assert columns.rho_diagonals([0])[0][zero] == pytest.approx([0.022105, 0.028365], abs=5e-7)


@pytest.mark.parametrize("config", ["kscan4.cfg", "eps4.cfg"])
def test_the_mode_fock_diagonals_sum_to_the_eigenbasis_diagonals_per_level(config):
    # on the eigenvectors diagonalize returns, inside a degenerate level
    # eigh's choice of basis, only each level's sum is basis-free: the sum
    # of the mode Fock probabilities at that energy, on every row of both
    # approaches, mode rows, hole frames and local rows alike
    request = parse_config((REPO / "configs" / config).read_text())
    specs = [apply_axis(request.base, request.axis, value) for value in request.grid]
    degenerate, kinds = 0, set()
    for columns in steady_reports(specs, ("global", "local")):
        rows = solved_rows(columns)
        diagonals, on = columns.rho_diagonals(rows), columns.chain[rows]
        es = dense_chains(columns.chains)[1][on]
        eigenbasis = np.einsum("rip,rij,rjp->rp", es.vectors.conj(), columns.states(rows),
                               es.vectors).real
        for energy, diagonal, expected in zip(es.energies, diagonals, eigenbasis):
            level = np.concatenate([[0], np.cumsum(np.diff(energy) > 1e-8)])
            sums = np.zeros((2, level[-1] + 1))
            np.add.at(sums, (0, level), diagonal)
            np.add.at(sums, (1, level), expected)
            assert np.abs(sums[0] - sums[1]).max() <= 1e-12
            degenerate += int((np.bincount(level) > 1).sum())
        kinds |= {(columns.approach, bool(h)) for h in columns.hole_frame[rows]}
    assert degenerate > 0
    assert kinds == {("global", False), ("global", True), ("local", False)}
