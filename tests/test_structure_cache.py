"""The rate-free chain structure is built once per call and reused exactly across rows."""

import numpy as np
import pytest

from chainflux import (
    DegenerateKernel,
    DegenerateTransition,
    apply_axis,
    bose_occupation,
    chain,
    dimer,
    dimer_global_heat_flux_analytic,
    dimer_local_heat_flux_analytic,
    run_sweep,
    steady_report,
)
import chainflux.observables
from chainflux.lindblad import chain_operators, mode_route
from chainflux.observables import heat_flux, steady_reports
from chainflux.operators import excited_qubits
from chainflux.steady import solve_steady, uniqueness_error
from chainflux.sweep import SweepRequest

from oracles import assemble


def record_builds(monkeypatch):
    """Number of chains of every global structure stack the reports build, in order."""
    built = []

    def recording(chains, _real=chainflux.observables.chain_structure):
        built.append(len(chains))
        return _real(chains)

    monkeypatch.setattr(chainflux.observables, "chain_structure", recording)
    return built


def assert_rows_match_cold_reports(table, request):
    # a row solved in a stack is the stack of one steady_report solves, bit for bit
    assert not table.skipped
    for row in table.rows:
        report = steady_report(apply_axis(request.base, request.axis, row.axis_value),
                               row.approach)
        assert row.populations == report.populations
        assert row.fluxes == report.fluxes
        assert row.residual == report.residual


# T = 0 and T1 = 0.01 at eps = 10 give nbar = 0 exactly: the zero absorption
# rates change the generator's pattern between rows of one structure.  The
# grid is longer than the stack step of the local N = 5 systems (26 rows),
# so the stacks are cut.
GRID = (0.0, 0.01) + tuple(np.geomspace(0.3, 4.0, 26).tolist())


def temperature_chains(n):
    """Gaps and couplings of two chains whose global rows come from their modes.

    And of a chain with a mode near 1e-3, below the mode route's floor,
    whose global rows take the real block: one qubit at that gap, or the
    uniform chain just past the coupling of its zero mode.
    """
    couplings = np.linspace(0.6, 1.1, n - 1)
    yield [10.0] * n, couplings, False
    yield np.linspace(0.9, 1.7, n), couplings, False
    if n == 1:
        yield [1e-3], couplings, True
    else:
        yield [1.5] * n, [1.5 / (2 * np.cos(np.pi / (n + 1))) * (1 + 1e-3)] * (n - 1), True


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("axis", ["t1", "t2"])
def test_temperature_sweep_rows_match_reports_on_a_cold_cache(n, axis, monkeypatch):
    assert bose_occupation(10.0, 0.01) == 0.0
    stacks = []
    real = chainflux.observables._stack_reports
    real_local = chainflux.observables.local_steady_states
    real_modes = chainflux.observables.global_steady_states

    def recording(structure, chain, rates, unknowns):
        stacks.append(("global", rates, unknowns.size**2))
        return real(structure, chain, rates, unknowns)

    def recording_local(H, h, sites, rates):
        # the N^2 x N^2 system: no d x d state is stacked
        stacks.append(("local", rates.reshape(len(rates), -1), n**4))
        return real_local(H, h, sites, rates)

    def recording_modes(omega, phi, sites, baths):
        stacks.append(("modes", baths, None))
        return real_modes(omega, phi, sites, baths)

    for epsilons, couplings, block in temperature_chains(n):
        base = chain(epsilons, couplings, 0.7, 0.2, 0.8, 1.3)
        assert mode_route(chain_operators([base]))[0][0] != block
        request = SweepRequest(base=base, axis=axis, grid=GRID,
                               approaches=("global", "local"),
                               outputs=("populations", "heat_flux"))
        with monkeypatch.context() as patch:
            built = record_builds(patch)
            patch.setattr(chainflux.observables, "_stack_reports", recording)
            patch.setattr(chainflux.observables, "local_steady_states", recording_local)
            patch.setattr(chainflux.observables, "global_steady_states", recording_modes)
            table = run_sweep(request)
        # one global structure for the whole grid, of its one chain, where
        # its rows take the block; else the modes, in one stack of every row
        assert built == ([1] if block else [])
        modes = [len(baths) for a, baths, _ in stacks if a == "modes"]
        assert modes == ([] if block else [len(GRID)])
        # T = 0 rows and nbar > 0 rows share a stack within each approach:
        # its rows are one group, cut only by the stack size
        for approach in ("global", "local") if block else ("local",):
            mine = [(rates, size) for a, rates, size in stacks if a == approach]
            step = max(1, chainflux.observables._GRID_ELEMENTS // mine[0][1])
            assert [len(rates) for rates, _ in mine] == [min(step, len(GRID) - i)
                                                         for i in range(0, len(GRID), step)]
            first = mine[0][0]  # from the T = 0 row on
            assert (first[0] == 0).any()
            assert len(first) == 1 or (first != 0).all(axis=1).any()
        if n == 5:
            assert len([a for a, _, _ in stacks if a == "local"]) == 2
        stacks.clear()
        assert_rows_match_cold_reports(table, request)


def test_splitting_a_grid_into_stacks_gives_identical_reports():
    base = chain([1.2, 0.9, 1.4], [0.7, 0.5], 0.7, 0.2, 0.8, 1.3)
    specs = [apply_axis(base, "t1", t1) for t1 in (0.0, 0.05, 0.3, 0.8, 1.5, 3.0, 7.0)]
    for approach in ("global", "local"):
        (whole,) = steady_reports(specs, (approach,))
        for size in (1, 2, 3, 5):
            pieces = [report for i in range(0, len(specs), size)
                      for report in steady_reports(specs[i:i + size], (approach,))[0]]
            for a, b in zip(whole, pieces):
                assert np.array_equal(a.rho, b.rho)
                assert (a.populations, a.fluxes, a.channel_fluxes, a.residual, a.rcond) == \
                    (b.populations, b.fluxes, b.channel_fluxes, b.residual, b.rcond)


def test_stack_flags_only_its_singular_and_ill_conditioned_members():
    model = assemble(dimer(1.5, 1.1, 0.8, 2.0, 0.4), "global")
    other = assemble(dimer(1.5, 1.1, 0.8, 0.7, 0.1), "global")
    unknowns, m = model.unknowns, model.unknowns.size
    assert other.unknowns is unknowns
    singular = np.zeros_like(model.block)  # the trace row alone: an exact zero pivot
    weak = 1e-20 * model.block  # LU succeeds, rcond ~ 1e-20
    for stack in ([model.block, singular, weak, other.block], [model.block, weak, other.block]):
        sol = solve_steady(np.array(stack), unknowns)
        errors = [uniqueness_error(rcond, m) for rcond in sol.rcond]
        flagged = [i for i, error in enumerate(errors) if error is not None]
        assert flagged == [i for i, L in enumerate(stack) if L is singular or L is weak]
        for i in flagged:
            assert isinstance(errors[i], DegenerateKernel)
            assert (errors[i].rcond == 0) == (stack[i] is singular)
            assert not sol.rho[i].any()
        for i, L in ((0, model.block), (len(stack) - 1, other.block)):
            single = solve_steady(L, unknowns)
            assert np.array_equal(sol.rho[i], single.rho)
            assert (sol.residual[i], sol.rcond[i]) == (single.residual, single.rcond)


def test_structure_is_shared_across_temperatures_and_rates(monkeypatch):
    # within one call: temperatures and rates share a chain's structure, a
    # new coupling is a new chain, and the global rows build one structure
    # of the two chains with a mode near 1e-3, below the mode route's floor;
    # the fourth chain's modes at 0.5 and 2.5 need none
    built = record_builds(monkeypatch)
    specs = [dimer(1.001, 1.001, 1.0, 0.4, 0.0, 1.0, 1.0),
             dimer(1.001, 1.001, 1.0, 3.0, 0.7, 0.3, 2.0), dimer(1.001, 1.001, 1.002, 0.4, 0.0),
             dimer(1.5, 1.5, 1.0, 0.4, 0.0)]
    glob, local = steady_reports(specs, ("global", "local"))
    assert built == [2] and local.chains is glob.chains and len(glob.chains) == 3
    assert glob[0].chain is glob[1].chain is local[0].chain is local[1].chain
    assert glob[2].chain is local[2].chain is not glob[0].chain


def test_equal_gaps_with_different_rates_give_their_own_fluxes():
    eps, k, t1, t2 = 2.5, 1.0, 3.0, 0.4
    fluxes = {}
    for g1, g2 in ((1.0, 1.0), (0.3, 1.7), (2.0, 0.5)):
        spec = dimer(eps, eps, k, t1, t2, g1, g2)
        glob = steady_report(spec, "global").fluxes[0]
        loc = steady_report(spec, "local").fluxes[0]
        assert glob == pytest.approx(
            dimer_global_heat_flux_analytic(eps, k, t1, t2, g1, g2).total, abs=1e-10)
        assert loc == pytest.approx(
            dimer_local_heat_flux_analytic(eps, k, t1, t2, g1, g2), abs=1e-10)
        fluxes[g1, g2] = (glob, loc)
    values = list(fluxes.values())
    assert all(abs(a[0] - b[0]) > 1e-3 and abs(a[1] - b[1]) > 1e-3
               for i, a in enumerate(values) for b in values[i + 1:])


def test_degenerate_transition_raises_on_every_call():
    spec = dimer(1.0, 1.0, 1.0, 0.5, 0.0)  # |eps - K| = 0
    for _ in range(3):
        with pytest.raises(DegenerateTransition):
            assemble(spec, "global")
        with pytest.raises(DegenerateTransition):
            steady_report(spec, "global")
    assemble(spec, "local")


def test_cached_arrays_are_read_only():
    spec = chain([1.2, 1.5, 0.9], [0.5, 0.7], 1.0, 0.2)
    for approach in ("global", "local"):
        model = assemble(spec, approach)
        structure = model.structure
        arrays = [model.hamiltonian, model.frame_hamiltonian, excited_qubits(3),
                  structure.chains.eigensystem.energies, structure.chains.eigensystem.vectors,
                  structure.operators, structure.decay, structure.flux_functionals]
        arrays += [A for reservoir in model.bins for _, A in reservoir]
        for a in arrays:
            with pytest.raises(ValueError):
                a[0, ...] = 1.0


def test_k_sweep_rows_are_unchanged_by_the_cache():
    # every row of a K scan is a new structure; a second pass over the same
    # grid builds them again and must give identical rows, and each row
    # matches the dense solve with the dense dissipators
    request = SweepRequest(base=chain([1.5] * 3, [1.0] * 2, 2.0, 0.5), axis="k",
                           grid=(0.4, 0.8, 1.3, 2.2), approaches=("global", "local"),
                           outputs=("populations", "heat_flux", "rho_diagonals"))
    cold = run_sweep(request)
    warm = run_sweep(request)
    assert tuple(cold.rows) == tuple(warm.rows)
    for row in cold.rows:
        spec = chain([1.5] * 3, [row.axis_value] * 2, 2.0, 0.5)
        model = assemble(spec, row.approach)
        rho = solve_steady(model.liouvillian).rho
        dense = [heat_flux(model.hamiltonian, D, rho) for D in model.dissipators]
        assert np.abs(np.subtract(row.fluxes, dense)).max() <= 1e-10
