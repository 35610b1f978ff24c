import warnings
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest

from chainflux import (
    apply_axis,
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
    monomer,
    monomer_heat_flux_analytic,
    monomer_population_analytic,
    parse_config,
    run_sweep,
    steady_report,
    universal_e,
)
from chainflux.observables import heat_flux, qubit_population, steady_reports
from chainflux.steady import solve_steady

LOG_GRID = np.logspace(-2, 2, 60)

from oracles import assemble, block_reports, free_fermion_form


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


@pytest.mark.parametrize("t1", [3e14, 1e20, 1e100, 1e155, 1e300])
def test_hot_local_dimer_rows_are_solved_and_match_the_closed_forms(t1):
    # the N^2 system's own rcond_1 falls like 1 / T1 (2.5e-15 at 3e14,
    # below m^2 eps = 3.6e-15), the row-equilibrated one stays near 0.2;
    # n2 and Q1 are of order 1 / T1, and at 1e300 the inverse's entries
    # of order 1 / T1^2 underflow, so there they are within 1e-299
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = steady_report(dimer(1.5, 1.5, 1.0, t1, 0.0), "local")
    assert report.rcond > 0.1
    floor = 1e-299 if t1 > 1e200 else 0.0
    exact = (*dimer_local_populations_analytic(1.5, 1.0, t1, 0.0),
             dimer_local_heat_flux_analytic(1.5, 1.0, t1, 0.0))
    for ours, theirs in zip((*report.populations, report.fluxes[0]), exact):
        assert abs(ours - theirs) <= 1e-14 * abs(theirs) + floor


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


def decimal_references(eps, coupling, t1, approach, digits=40):
    """Q1, -Q2, n1 and n2 of the symmetric dimer against T2 = 0 at unit rates, in decimals.

    ``digits``-digit decimals, the float inputs taken exactly.  Global: each
    channel omega in {|eps - K|, eps + K} carries omega n / (4 (n + 1)) and
    puts n / (4 (n + 1)) on each qubit (eps > K).  Local: Q1 = eps n / (2 n
    + 2) * 4K^2 / (4K^2 + 2 n + 1), n1 = (2K^2 e + n) / (4K^2 + 2 n + 1)
    and n2 = 2K^2 e / (4K^2 + 2 n + 1), e = n / (n + 1), n at eps.  -Q2 =
    Q1 in both.
    """
    with localcontext() as ctx:
        ctx.prec = digits
        eps, coupling, t1 = Decimal(eps), Decimal(coupling), Decimal(t1)

        def nbar(omega):
            return 1 / ((omega / t1).exp() - 1)

        if approach == "global":
            flux = population = Decimal(0)
            for omega in (abs(eps - coupling), eps + coupling):
                n = nbar(omega)
                flux += omega * n / (4 * (n + 1))
                population += n / (4 * (n + 1))
            return flux, flux, population, population
        n, k2 = nbar(eps), coupling * coupling
        den = 4 * k2 + 2 * n + 1
        flux = eps * n / (2 * n + 2) * 4 * k2 / den
        e = n / (n + 1)
        return flux, flux, (2 * k2 * e + n) / den, 2 * k2 * e / den


def test_near_a_zero_mode_the_sweep_keeps_the_digits_of_the_closed_forms():
    # figure3a sits at omega = |eps - K| = 1e-3: against a 40-digit decimal
    # reference the closed form, the free-fermion form and the sweep's
    # global rows keep their last digits (8.4e-17, 1.9e-16 and 2.0e-16 at
    # most), while the real block that solved those rows lost about five
    # (6.3e-12 at T1 = 95.5): no row of the sweep is farther from the
    # reference than the block's
    request = figure_requests()["figure3a"]
    eps, coupling = request.base.epsilons[0], request.base.couplings[0]
    rows = [row for row in run_sweep(request).rows if row.approach == "global"]
    assert len(rows) == len(request.grid)
    block = block_reports([apply_axis(request.base, "t1", t1) for t1 in request.grid], "global")
    errors = []
    for row, blocked in zip(rows, block.fluxes[:, 0].tolist()):
        t1 = row.axis_value
        exact = decimal_references(eps, coupling, t1, "global")[0]
        values = (dimer_global_heat_flux_analytic(eps, coupling, t1, 0.0).total,
                  free_fermion_form(chain([eps, eps], [coupling], t1, 0.0))[2], row.fluxes[0],
                  blocked)
        errors.append([abs(float(Decimal(value) - exact)) for value in values])
    errors = np.array(errors)
    closed, modes, sweep, blocked = errors.max(axis=0)
    assert closed <= 1e-15 and modes <= 1e-15 and sweep <= 1e-15
    assert 1e-12 < blocked <= 1e-11
    assert (errors[:, 2] <= np.maximum(errors[:, 3], 1e-15)).all()


# The largest absolute error of each column over a preset's 200 rows against
# decimal_references, measured on x86-64 with numpy 2.4.6 and OpenBLAS
# 0.3.31; each bound is four times it.  Local Q1 is -Q2, read from the cold
# reservoir: the hot reservoir's own h_ss (gamma nbar - lambda C_ss)
# cancels about two digits (up to 1.9e-14, 1.3e-12 relative on figure3a).
PRESET_ERRORS = {
    "figure2": {"global": (2.5e-16, 2.5e-16, 1.5e-16), "local": (9.2e-17, 9.2e-17, 8.4e-17)},
    "figure3a": {"global": (2.0e-16, 2.0e-16), "local": (4.5e-17, 4.5e-17)},
    "figure3b": {"global": (5.5e-16, 5.5e-16), "local": (1.5e-16, 1.5e-16)},
    "figure3c": {"global": (2.3e-15, 2.3e-15), "local": (6.5e-16, 6.5e-16)},
}


def preset_and_config_grids():
    for name, request in figure_requests().items():
        yield name, request
    for path in sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.cfg")):
        yield path.name, parse_config(path.read_text())


@pytest.mark.parametrize("name, request_", list(preset_and_config_grids()),
                         ids=[name for name, _ in preset_and_config_grids()])
def test_the_two_fluxes_of_every_row_cancel_exactly(name, request_):
    # each channel's flux is read from its colder bath and the other's is
    # its negative, so Q1 + Q2 is 0.0, not round-off, under both approaches
    specs = [apply_axis(request_.base, request_.axis, value) for value in request_.grid]
    for rows in steady_reports(specs, ("global", "local")):
        solved = np.setdiff1d(np.arange(len(rows)), list(rows.errors))
        assert len(solved) >= len(specs) - 2
        assert (rows.fluxes[solved].sum(axis=1) == 0.0).all()
        assert (rows.channels[solved].sum(axis=1) == 0.0).all()


@pytest.mark.parametrize("name", sorted(PRESET_ERRORS))
def test_every_preset_row_keeps_the_digits_of_the_40_digit_references(name):
    # Q1, -Q2 and, for figure2, the populations n1 and n2 of every row of
    # both approaches, each column within four times its measured error
    request = figure_requests()[name]
    eps, coupling = request.base.epsilons[0], request.base.couplings[0]
    table = run_sweep(request)
    assert not table.skipped
    for approach, measured in PRESET_ERRORS[name].items():
        rows = [row for row in table.rows if row.approach == approach]
        assert len(rows) == len(request.grid)
        errors = []
        for row in rows:
            q1, minus_q2, n1, n2 = decimal_references(eps, coupling, row.axis_value, approach)
            pairs = [(row.fluxes[0], q1), (-row.fluxes[1], minus_q2)]
            if len(measured) == 3:
                pairs += [(row.populations[0], n1), (row.populations[1], n2)]
            errors.append([abs(float(Decimal(value) - exact)) for value, exact in pairs])
        errors = np.array(errors).max(axis=0)
        if len(measured) == 3:
            errors = np.append(errors[:2], errors[2:].max())
        assert (errors <= 4 * np.array(measured)).all(), (approach, errors.tolist())
