"""The global rows from the chain's free-fermion modes, against the real block they replace.

The package solves the global rows of a chain whose bins keep its modes
apart from the modes (``correlations.global_steady_states``); the real
block (``observables._approach_reports`` on the chain's eigenbasis
structure) stays the oracle, and still solves every other chain.
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
from chainflux.lindblad import chain_operators, mode_route
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
    for seed in (1, 2, 3):
        ((_, request),) = workloads.build_requests("kscan4_par", seed)
        yield f"kscan4_par-{seed}", grid_specs(request)
    chains = list(non_uniform_chains(40))
    for n in range(1, 6):
        yield f"seeded-N{n}", [spec for spec in chains if spec.n_qubits == n]


ORACLE_GRIDS = list(oracle_grids())


def on_modes(specs):
    """Whether each spec's chain takes the mode route."""
    return mode_route(chain_operators(specs))[0]


@pytest.mark.parametrize("specs", [specs for _, specs in ORACLE_GRIDS],
                         ids=[name for name, _ in ORACLE_GRIDS])
def test_global_rows_match_the_real_block_oracle(specs):
    (rows,) = steady_reports(specs, ("global",))
    block = block_reports(specs, "global")
    assert {i: (type(e), str(e)) for i, e in rows.errors.items()} == \
        {i: (type(e), str(e)) for i, e in block.errors.items()}
    solved = [i for i in range(len(specs)) if i not in rows.errors]
    for name in ("populations", "fluxes"):
        assert np.abs(getattr(rows, name) - getattr(block, name))[solved].max(initial=0) <= 1e-12
    assert np.abs(rows.states(solved) - block.states(solved)).max(initial=0) <= 1e-12
    assert np.abs(rows.rho_diagonals(solved) - block.rho_diagonals(solved)).max(initial=0) \
        <= 1e-12
    for i in solved:
        for ours, theirs in zip(rows[i].channel_fluxes, block[i].channel_fluxes):
            assert len(ours) == len(theirs)
            assert np.abs(np.subtract(ours, theirs)).max(initial=0) <= 1e-12
    # the mode rows' diagnostics: N unknowns, rcond min_k Lambda_k / max_k
    # Lambda_k; the block's rows keep theirs bit for bit
    modes = on_modes(specs)
    for i in solved:
        if modes[i]:
            assert rows.unknowns[i] == specs[i].n_qubits
            assert rows.rcond[i] == pytest.approx(mode_rcond(specs[i]), rel=1e-12)
        else:
            assert (rows.unknowns[i], rows.rcond[i]) == (block.unknowns[i], block.rcond[i])


def mode_rcond(spec):
    """min_k Lambda_k / max_k Lambda_k, Lambda_k = sum_j gamma_j phi_k(site_j)^2 (2 nbar_j + 1)."""
    omega, phi = np.linalg.eigh(chain_operators([spec]).single_particle[0])
    lam = [sum(bath.gamma * phi[bath.attached_site, k] ** 2
               * (2 * bose_occupation(abs(w), bath.temperature) + 1) for bath in spec.baths)
           for k, w in enumerate(omega)]
    return min(lam) / max(lam)


def test_the_grids_cover_both_routes():
    # every figure but figure3a, whose omega = 1e-3 channel is below the
    # floor, takes the modes; the configs and K scans take both
    routes = {name: set(on_modes(specs).tolist()) for name, specs in ORACLE_GRIDS}
    assert routes["figure3a"] == {False}
    assert all(routes[name] == {True} for name in ("figure2", "figure3b", "figure3c"))
    assert routes["kscan4.cfg"] == routes["kscan4_par-1"] == {False, True}
    assert all(routes[f"seeded-N{n}"] == {True} for n in range(1, 6))


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
def test_chains_whose_modes_are_not_apart_keep_the_block_bit_for_bit(specs):
    # a bin holding two modes, two modes at one |omega| (the block raises
    # DegenerateKernel), exact zero modes and their neighbours, figure3a's
    # omega = 1e-3 channel below MODE_OMEGA_MIN, and a mode at no attached
    # site: the rows and errors of the block on its own stack of chains
    assert not on_modes(specs).any()
    (rows,) = steady_reports(specs, ("global",))
    block = block_reports(specs, "global")
    assert [(type(e), str(e)) for e in rows.errors.values()] == \
        [(type(e), str(e)) for e in block.errors.values()]
    assert list(rows.errors) == list(block.errors)
    for name in ("populations", "fluxes", "residual", "rcond", "unknowns"):
        assert getattr(rows, name).tobytes() == getattr(block, name).tobytes()
    solved = [i for i in range(len(specs)) if i not in rows.errors]
    assert rows.states(solved).tobytes() == block.states(solved).tobytes()
    for i in solved:
        assert repr(rows[i].channel_fluxes) == repr(block[i].channel_fluxes)


def test_the_block_chains_fail_as_they_did():
    kinds = {name: {type(e) for e in block_reports(specs, "global").errors.values()}
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
                         (chainflux.observables, "solve_hermitian"),
                         (chainflux.correlations, "_gaussian_states")):
        monkeypatch.setattr(module, name, refuse)
    table = run_sweep(n5_t1_sweep(40))
    assert len(table.rows) == 80 and not table.skipped


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
