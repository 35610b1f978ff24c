from decimal import Decimal, localcontext

import numpy as np
import pytest

from chainflux import (
    DegenerateTransition,
    chain,
    diagonalize,
    dimer,
    dimer_global_heat_flux_analytic,
    dimer_global_populations_analytic,
    dimer_local_heat_flux_analytic,
    dimer_local_populations_analytic,
    bose_occupation,
    figure_requests,
    heat_flux,
    monomer,
    monomer_heat_flux_analytic,
    monomer_population_analytic,
    qubit_population,
    run_sweep,
    solve_steady,
    steady_report,
    universal_e,
)

LOG_GRID = np.logspace(-2, 2, 60)

from oracles import assemble, free_fermion_form


def test_qubit_population_basic_states():
    both_excited = np.zeros((4, 4), dtype=complex)
    both_excited[0, 0] = 1.0
    assert qubit_population(both_excited, 0) == pytest.approx(1.0)
    assert qubit_population(both_excited, 1) == pytest.approx(1.0)
    mixed = np.eye(4, dtype=complex) / 4.0
    assert qubit_population(mixed, 0) == pytest.approx(0.5)
    assert qubit_population(mixed, 1) == pytest.approx(0.5)


def test_population_matches_eigenbasis_combination():
    # site population equals rho_22 + (rho_33 + rho_44)/2 + Re rho_34 in the
    # eigenbasis, with the one-excitation block carrying the coherence
    spec = dimer(1.5, 1.5, 1.0, 2.0, 0.0)
    model = assemble(spec, "local")
    rho = solve_steady(model.liouvillian).rho
    es = diagonalize(model.hamiltonian)
    r = es.vectors.conj().T @ rho @ es.vectors
    # ascending order: s1, s4, s3, s2 for eps > K
    n1 = r[3, 3].real + 0.5 * (r[2, 2].real + r[1, 1].real) + np.real(r[2, 1])
    assert qubit_population(rho, 0) == pytest.approx(n1, abs=1e-10)


def test_universal_e_examples():
    assert universal_e(1.0, 0.0, 0.0) == 0.0
    assert universal_e(1.0, 1.0 / np.log(2.0), 0.0) == pytest.approx(0.5, abs=1e-14)
    rng = np.random.default_rng(4)
    for _ in range(200):
        e = universal_e(rng.uniform(0.1, 5), rng.uniform(0, 50), rng.uniform(0, 50))
        assert 0.0 <= e < 1.0


def test_monomer_population_analytic_limits():
    assert monomer_population_analytic(1.0, 0.0, 0.0) == 0.0
    t = 2.7
    nbar = bose_occupation(1.3, t)
    assert monomer_population_analytic(1.3, t, t) == pytest.approx(
        nbar / (1 + 2 * nbar), abs=1e-14)


def test_monomer_flux_zero_bias_and_sign():
    assert monomer_heat_flux_analytic(1.0, 3.0, 3.0) == 0.0
    assert monomer_heat_flux_analytic(1.0, 3.0, 1.0) > 0
    assert monomer_heat_flux_analytic(1.0, 1.0, 3.0) < 0


def test_monomer_flux_saturates_at_half_gap():
    assert monomer_heat_flux_analytic(1.0, 1e6, 0.0) == pytest.approx(0.5, abs=1e-5)


def test_monomer_flux_antisymmetric_under_bath_swap():
    rng = np.random.default_rng(12)
    for _ in range(50):
        eps = rng.uniform(0.2, 4.0)
        t1, t2 = rng.uniform(0.0, 9.0, 2)
        g1, g2 = rng.uniform(0.1, 2.0, 2)
        fwd = monomer_heat_flux_analytic(eps, t1, t2, g1, g2)
        bwd = monomer_heat_flux_analytic(eps, t2, t1, g2, g1)
        assert fwd == pytest.approx(-bwd, abs=1e-10)


def test_monomer_flux_matches_numeric():
    eps, t1, t2 = 1.0, 1.0, 0.0
    model = assemble(monomer(eps, t1, t2), "global")
    rho = solve_steady(model.liouvillian).rho
    q1 = heat_flux(model.hamiltonian, model.dissipators[0], rho)
    assert q1 == pytest.approx(monomer_heat_flux_analytic(eps, t1, t2), abs=1e-10)


def test_flux_vanishes_at_equal_temperatures():
    spec = dimer(1.5, 1.5, 1.0, 1.0, 1.0)
    for approach in ("global", "local"):
        report = steady_report(spec, approach)
        assert abs(report.fluxes[0]) <= 1e-10
        assert abs(report.fluxes[1]) <= 1e-10


def test_global_dimer_fluxes_balance():
    for t1 in (0.5, 2.0, 20.0):
        report = steady_report(dimer(1.5, 1.5, 1.0, t1, 0.0), "global")
        assert report.fluxes[0] + report.fluxes[1] == pytest.approx(0.0, abs=1e-9)


def test_global_populations_analytic_zero_temperature():
    pops = dimer_global_populations_analytic(1.5, 1.0, 0.0, 0.0)
    assert pops.rho11 == 1.0
    assert pops.rho22 == pops.rho33 == pops.rho44 == 0.0
    assert pops.n1 == 0.0


def test_global_populations_analytic_hot_limit():
    pops = dimer_global_populations_analytic(1.5, 1.0, 1e7, 0.0)
    assert pops.n1 == pytest.approx(0.5, abs=1e-6)


def test_global_populations_diagonals_sum_to_one():
    rng = np.random.default_rng(9)
    for _ in range(100):
        pops = dimer_global_populations_analytic(
            rng.uniform(1.1, 4.0), 1.0, rng.uniform(0, 20), rng.uniform(0, 20))
        total = pops.rho11 + pops.rho22 + pops.rho33 + pops.rho44
        assert total == pytest.approx(1.0, abs=1e-12)


def test_global_populations_match_numeric_including_strong_coupling():
    for eps, k in ((1.5, 1.0), (1.0, 2.0)):
        for t1 in (0.3, 2.0, 15.0):
            spec = dimer(eps, eps, k, t1, 0.0)
            model = assemble(spec, "global")
            rho = solve_steady(model.liouvillian).rho
            es = diagonalize(model.hamiltonian)
            diag = np.real(np.diag(es.vectors.conj().T @ rho @ es.vectors))
            ana = dimer_global_populations_analytic(eps, k, t1, 0.0)
            assert np.abs(diag - np.array(ana.diagonals_by_energy())).max() <= 1e-8
            assert qubit_population(rho, 0) == pytest.approx(ana.n1, abs=1e-8)


def test_global_populations_degenerate_raises():
    with pytest.raises(DegenerateTransition):
        dimer_global_populations_analytic(1.0, 1.0, 2.0, 0.0)
    with pytest.raises(DegenerateTransition):
        dimer_global_heat_flux_analytic(1.0, 1.0, 2.0, 0.0)


def test_local_populations_analytic_limits():
    t = 1.9
    nbar = bose_occupation(1.5, t)
    n1, n2 = dimer_local_populations_analytic(1.5, 1.0, t, t)
    assert n1 == pytest.approx(nbar / (1 + 2 * nbar), abs=1e-13)
    assert n2 == pytest.approx(n1, abs=1e-13)
    n1, n2 = dimer_local_populations_analytic(1.5, 1.0, 1e7, 0.0)
    assert n1 == pytest.approx(0.5, abs=1e-5)
    assert n2 == pytest.approx(0.0, abs=1e-5)


def test_global_flux_channel_breakdown():
    eps, k, t1 = 2.5, 1.0, 5.0
    ana = dimer_global_heat_flux_analytic(eps, k, t1, 0.0)
    assert [w for w, _ in ana.channels] == pytest.approx([eps - k, eps + k])
    assert sum(q for _, q in ana.channels) == pytest.approx(ana.total, abs=1e-14)
    report = steady_report(dimer(eps, eps, k, t1, 0.0), "global")
    assert report.fluxes[0] == pytest.approx(ana.total, abs=1e-9)
    for (w_ana, q_ana), (w_num, q_num) in zip(ana.channels, report.channel_fluxes[0]):
        assert w_num == pytest.approx(w_ana, abs=1e-12)
        assert q_num == pytest.approx(q_ana, abs=1e-10)


def test_global_flux_saturates_at_half_gap_sum():
    # each channel saturates at omega/4, so the total approaches
    # (omega_1 + omega_2)/4 = eps/2 for large hot-bath temperature
    eps, k = 1.5, 1.0
    ana = dimer_global_heat_flux_analytic(eps, k, 1e7, 0.0)
    assert ana.total == pytest.approx(0.5 * eps, rel=1e-5)


def test_global_flux_zero_bias_and_positivity():
    assert dimer_global_heat_flux_analytic(1.5, 1.0, 2.0, 2.0).total == 0.0
    rng = np.random.default_rng(23)
    for _ in range(10_000):
        eps = rng.uniform(0.05, 5.0)
        k = rng.uniform(0.05, 3.0)
        if abs(eps - k) < 1e-6:
            continue
        ta, tb = rng.uniform(0.0, 10.0, 2)
        t1, t2 = max(ta, tb), min(ta, tb)
        assert dimer_global_heat_flux_analytic(eps, k, t1, t2).total >= 0.0


def test_local_flux_limits():
    assert dimer_local_heat_flux_analytic(1.5, 1e-4, 5.0, 0.0) <= 1e-7
    assert dimer_local_heat_flux_analytic(1.5, 1.0, 1e7, 0.0) <= 1e-5
    assert dimer_local_heat_flux_analytic(1.5, 1.0, 2.0, 2.0) == 0.0


def test_dimer_fluxes_antisymmetric_under_bath_swap():
    rng = np.random.default_rng(31)
    for _ in range(50):
        eps, k = rng.uniform(1.2, 4.0), 1.0
        t1, t2 = rng.uniform(0.0, 9.0, 2)
        g1, g2 = rng.uniform(0.1, 2.0, 2)
        glob = dimer_global_heat_flux_analytic(eps, k, t1, t2, g1, g2).total
        glob_swapped = dimer_global_heat_flux_analytic(eps, k, t2, t1, g2, g1).total
        assert glob == pytest.approx(-glob_swapped, abs=1e-10)
        loc = dimer_local_heat_flux_analytic(eps, k, t1, t2, g1, g2)
        loc_swapped = dimer_local_heat_flux_analytic(eps, k, t2, t1, g2, g1)
        assert loc == pytest.approx(-loc_swapped, abs=1e-10)


def test_analytics_match_numeric_pipeline_at_quoted_points():
    cases = [(1.5, 1.0, 2.0, 0.0), (2.5, 1.0, 5.0, 0.0)]
    for eps, k, t1, t2 in cases:
        spec = dimer(eps, eps, k, t1, t2)
        glob = steady_report(spec, "global")
        assert glob.fluxes[0] == pytest.approx(
            dimer_global_heat_flux_analytic(eps, k, t1, t2).total, abs=1e-9)
        loc = steady_report(spec, "local")
        assert loc.fluxes[0] == pytest.approx(
            dimer_local_heat_flux_analytic(eps, k, t1, t2), abs=1e-9)
        n1, n2 = dimer_local_populations_analytic(eps, k, t1, t2)
        assert loc.populations[0] == pytest.approx(n1, abs=1e-8)
        assert loc.populations[1] == pytest.approx(n2, abs=1e-8)


@pytest.mark.parametrize("eps", [1.001, 2.5, 10.0])
def test_local_flux_interior_maximum(eps):
    grid = np.logspace(-2, 2, 200)
    values = np.array([dimer_local_heat_flux_analytic(eps, 1.0, t1, 0.0) for t1 in grid])
    imax = int(values.argmax())
    assert 0 < imax < len(grid) - 1, "maximum should sit inside the grid"
    # Replaces values[-1] < 0.5 max, which reads 50.21% at eps = 10: the flux
    # peaks near T1 = 2.07 eps and halves about 4.9 times further out, at
    # T1 = 101.5 for eps = 10.  With x = eps/T1 and T2 = 0 the closed form is
    # (eps/2) e^-x 4K^2/(4K^2 + coth(x/2)) <= (K^2 eps^2/T1)(2/x)(1 - e^-x)/(e^x + 1)
    # <= K^2 eps^2/T1 (K = 1 here).
    falls = np.diff(values[imax:]) < 0
    assert falls.all(), (
        f"flux rises again at T1 = {grid[imax + int(np.argmin(falls)) + 1]:.4g} "
        f"after its maximum at T1 = {grid[imax]:.4g}"
    )
    bound = eps**2 / grid
    i = int(np.argmax(values / bound))
    assert values[i] <= bound[i], (
        f"flux at T1 = {grid[i]:.4g} is {values[i]:.6f}, above eps^2/T1 = {bound[i]:.6f}"
    )


def test_populations_stay_in_unit_interval():
    rng = np.random.default_rng(44)
    for _ in range(15):
        n = int(rng.choice([1, 2, 3]))
        spec = chain(rng.uniform(0.3, 3.0, n), rng.uniform(0.1, 1.5, max(n - 1, 0)),
                     rng.uniform(0.0, 8.0), rng.uniform(0.0, 8.0))
        for approach in ("global", "local"):
            report = steady_report(spec, approach)
            assert all(-1e-12 <= p <= 1 + 1e-12 for p in report.populations)


def test_local_population_never_exceeds_global_on_cold_side():
    # any violation here is a finding about the two descriptions, not noise
    for eps in (1.5, 2.5):
        for t1 in LOG_GRID:
            n2_local = dimer_local_populations_analytic(eps, 1.0, t1, 0.0)[1]
            n2_global = dimer_global_populations_analytic(eps, 1.0, t1, 0.0).n2
            assert n2_local <= n2_global + 1e-12, (
                f"local n2 = {n2_local} exceeds global n2 = {n2_global} "
                f"at eps = {eps}, T1 = {t1}"
            )


def decimal_global_flux(eps, coupling, t1, digits=40):
    """Global Q1 of the symmetric dimer against T2 = 0 at unit rates, in ``digits``-digit decimals.

    The float inputs are taken exactly.  Each channel omega in {|eps - K|,
    eps + K} carries omega g1 g2 n1 / (g1 (2 n1 + 1) + g2) with g1 = g2 = 1/2,
    that is omega n1 / (4 (n1 + 1)).
    """
    with localcontext() as ctx:
        ctx.prec = digits
        eps, coupling, t1 = Decimal(eps), Decimal(coupling), Decimal(t1)
        total = Decimal(0)
        for omega in (abs(eps - coupling), eps + coupling):
            n1 = 1 / ((omega / t1).exp() - 1)
            total += omega * n1 / (4 * (n1 + 1))
        return total


def test_near_a_zero_mode_the_block_loses_digits_the_closed_forms_keep():
    # figure3a sits at omega = |eps - K| = 1e-3: against a 40-digit decimal
    # reference the closed form and the free-fermion form keep their last
    # digits (8.4e-17 and 1.9e-16 at most), while the block rows of the sweep
    # lose about five (6.3e-12 at T1 = 95.5)
    request = figure_requests()["figure3a"]
    eps, coupling = request.base.epsilons[0], request.base.couplings[0]
    rows = [row for row in run_sweep(request).rows if row.approach == "global"]
    assert len(rows) == len(request.grid)
    errors = []
    for row in rows:
        t1 = row.axis_value
        exact = decimal_global_flux(eps, coupling, t1)
        values = (dimer_global_heat_flux_analytic(eps, coupling, t1, 0.0).total,
                  free_fermion_form(chain([eps, eps], [coupling], t1, 0.0))[2], row.fluxes[0])
        errors.append([abs(float(Decimal(value) - exact)) for value in values])
    closed, modes, block = np.max(errors, axis=0)
    assert closed <= 1e-15 and modes <= 1e-15
    assert block <= 1e-11
    assert block > 100 * max(closed, modes)  # the block is the less accurate side
