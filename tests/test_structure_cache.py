"""The rate-free chain structure is built once and reused exactly across rows."""

import numpy as np
import pytest

from chainflux import (
    DegenerateTransition,
    apply_axis,
    assemble,
    bose_occupation,
    chain,
    dimer,
    dimer_global_heat_flux_analytic,
    dimer_local_heat_flux_analytic,
    heat_flux,
    run_sweep,
    solve_steady,
    steady_report,
)
from chainflux.lindblad import _chain_structure
from chainflux.sweep import SweepRequest


@pytest.fixture
def cold_cache():
    _chain_structure.cache_clear()
    yield
    _chain_structure.cache_clear()


def cold_report(spec, approach):
    _chain_structure.cache_clear()
    return steady_report(spec, approach)


def assert_rows_match_cold_reports(table, request):
    assert not table.skipped
    for row in table.rows:
        report = cold_report(apply_axis(request.base, request.axis, row.axis_value),
                             row.approach)
        assert np.abs(np.subtract(row.populations, report.populations)).max() <= 1e-12
        assert np.abs(np.subtract(row.fluxes, report.fluxes)).max() <= 1e-12


# T = 0 and T1 = 0.01 at eps = 10 give nbar = 0 exactly: the zero absorption
# rates change the generator's pattern between rows of one structure
GRID = (0.0, 0.01, 0.3, 1.0, 4.0)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("axis", ["t1", "t2"])
def test_temperature_sweep_rows_match_reports_on_a_cold_cache(n, axis, cold_cache):
    assert bose_occupation(10.0, 0.01) == 0.0
    for epsilons in ([10.0] * n, np.linspace(0.9, 1.7, n)):
        base = chain(epsilons, np.linspace(0.6, 1.1, n - 1), 0.7, 0.2, 0.8, 1.3)
        request = SweepRequest(base=base, axis=axis, grid=GRID,
                               approaches=("global", "local"),
                               outputs=("populations", "heat_flux"))
        _chain_structure.cache_clear()
        table = run_sweep(request)
        info = _chain_structure.cache_info()
        assert (info.misses, info.hits) == (2, 2 * (len(GRID) - 1))
        assert_rows_match_cold_reports(table, request)


def test_structure_is_shared_across_temperatures_and_rates(cold_cache):
    a = assemble(dimer(1.5, 1.5, 1.0, 0.4, 0.0, 1.0, 1.0), "global")
    b = assemble(dimer(1.5, 1.5, 1.0, 3.0, 0.7, 0.3, 2.0), "global")
    assert a.structure is b.structure
    assert assemble(dimer(1.5, 1.5, 1.1, 0.4, 0.0), "global").structure is not a.structure
    assert assemble(dimer(1.5, 1.5, 1.0, 0.4, 0.0), "local").structure is not a.structure


def test_equal_gaps_with_different_rates_give_their_own_fluxes(cold_cache):
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
    assert _chain_structure.cache_info().misses == 2
    values = list(fluxes.values())
    assert all(abs(a[0] - b[0]) > 1e-3 and abs(a[1] - b[1]) > 1e-3
               for i, a in enumerate(values) for b in values[i + 1:])


def test_degenerate_transition_raises_on_every_call(cold_cache):
    spec = dimer(1.0, 1.0, 1.0, 0.5, 0.0)  # |eps - K| = 0
    for _ in range(3):
        with pytest.raises(DegenerateTransition):
            assemble(spec, "global")
    assert _chain_structure.cache_info().currsize == 0
    assemble(spec, "local")


def test_cached_arrays_are_read_only(cold_cache):
    spec = chain([1.2, 1.5, 0.9], [0.5, 0.7], 1.0, 0.2)
    for approach in ("global", "local"):
        model = assemble(spec, approach)
        structure = model.structure
        arrays = [model.hamiltonian, model.frame_hamiltonian, structure.flux_functionals,
                  structure.spectrum.energies, structure.spectrum.vectors]
        arrays += [ch.operator for reservoir in model.frame_channels for ch in reservoir]
        arrays += [A for reservoir in structure.bins for _, A in reservoir]
        for a in arrays:
            with pytest.raises(ValueError):
                a[0, ...] = 1.0
        assert assemble(spec, approach).structure is structure


def test_k_sweep_rows_are_unchanged_by_the_cache(cold_cache):
    # every row of a K scan is a new structure; a second pass over the same
    # grid finds all of them cached and must give identical rows, and each
    # row matches the dense solve with the dense dissipators
    request = SweepRequest(base=chain([1.5] * 3, [1.0] * 2, 2.0, 0.5), axis="k",
                           grid=(0.4, 0.8, 1.3, 2.2), approaches=("global", "local"),
                           outputs=("populations", "heat_flux", "rho_diagonals"))
    cold = run_sweep(request)
    warm = run_sweep(request)
    info = _chain_structure.cache_info()
    assert (info.misses, info.hits) == (8, 8)
    assert cold.rows == warm.rows
    for row in cold.rows:
        spec = chain([1.5] * 3, [row.axis_value] * 2, 2.0, 0.5)
        model = assemble(spec, row.approach)
        rho = solve_steady(model.liouvillian).rho
        dense = [heat_flux(model.hamiltonian, D, rho) for D in model.dissipators]
        assert np.abs(np.subtract(row.fluxes, dense)).max() <= 1e-10
