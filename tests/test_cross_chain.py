"""K and eps scans: rows of different chains solved in shared stacks, bit for bit."""

import math

import numpy as np
import pytest

import chainflux.observables
from chainflux import (
    DegenerateKernel,
    DegenerateTransition,
    SteadyReport,
    apply_axis,
    chain,
    run_sweep,
    steady_report,
)
from chainflux.lindblad import (
    _CHAIN_ENTRIES,
    _chain_structure,
    chain_structure,
    coupled_unknowns,
)
from chainflux.observables import steady_reports
from chainflux.sweep import SweepRequest

from test_block_solve import CASES


def clear_caches():
    _chain_structure.cache_clear()
    _CHAIN_ENTRIES.clear()


@pytest.fixture
def cold_cache():
    clear_caches()
    yield
    clear_caches()


def cold_report(spec, approach):
    clear_caches()
    try:
        return steady_report(spec, approach)
    except (DegenerateTransition, DegenerateKernel) as err:
        return err


def assert_same_report(a, b):
    # bit for bit: bytes and reprs tell -0.0 from 0.0
    if not isinstance(b, SteadyReport):
        assert type(a) is type(b) and str(a) == str(b)
        return
    assert isinstance(a, SteadyReport)
    assert a.rho.tobytes() == b.rho.tobytes()
    assert repr((a.populations, a.fluxes, a.channel_fluxes, a.residual, a.rcond, a.unknowns)) == \
        repr((b.populations, b.fluxes, b.channel_fluxes, b.residual, b.rcond, b.unknowns))


def zero_mode_grid(value, low, high):
    # an exact zero mode of the uniform chain, its (1 +- 1e-3) neighbours and
    # two ordinary points
    return (low, value * (1 - 1e-3), value, value * (1 + 1e-3), high)


def scans():
    for n in range(1, 6):
        base = chain([1.5] * n, [1.0] * (n - 1), 1.7, 0.3, 0.8, 1.3)
        if n == 1:
            yield base, "eps", (0.6, 1.1, 2.9)
            continue
        cosine = math.cos(math.pi / (n + 1))
        # the lowest one-excitation mode eps - 2 K cos(pi / (N + 1)) vanishes
        yield base, "k", zero_mode_grid(1.5 / (2 * cosine), 0.3, 2.3)
        yield base, "eps", zero_mode_grid(2 * cosine, 0.8, 2.9)


SCANS = list(scans())


@pytest.mark.parametrize("base, axis, grid", SCANS,
                         ids=[f"N{b.n_qubits}-{axis}" for b, axis, _ in SCANS])
def test_scan_rows_match_cold_reports_for_any_stack_split(base, axis, grid, cold_cache):
    specs = [apply_axis(base, axis, value) for value in grid]
    for approach in ("global", "local"):
        cold = [cold_report(spec, approach) for spec in specs]
        if base.n_qubits > 1 and approach == "global":
            # the zero mode skips its own chain only
            assert [isinstance(r, DegenerateTransition) for r in cold] == \
                [False, False, True, False, False]
        else:
            assert all(isinstance(r, SteadyReport) for r in cold)
        for size in (1, 2, 3, len(specs)):
            clear_caches()
            pieces = [report for i in range(0, len(specs), size)
                      for report in steady_reports(specs[i:i + size], approach)]
            for report, expected in zip(pieces, cold):
                assert_same_report(report, expected)

    request = SweepRequest(base=base, axis=axis, grid=grid, approaches=("global", "local"),
                           outputs=("populations", "heat_flux"))
    for workers in (1, 2):
        clear_caches()
        table = run_sweep(request, workers=workers)
        skipped = {(s.axis_value, s.approach) for s in table.skipped}
        expected_skips = {(grid[2], "global")} if base.n_qubits > 1 else set()
        assert skipped == expected_skips
        assert len(table.rows) == 2 * len(grid) - len(expected_skips)
        for row in table.rows:
            report = cold_report(apply_axis(base, axis, row.axis_value), row.approach)
            assert repr((row.populations, row.fluxes, row.residual)) == \
                repr((report.populations, report.fluxes, report.residual))


def unknowns_key(unknowns):
    return unknowns.dim, unknowns.rows.tobytes(), unknowns.cols.tobytes()


def test_stacks_span_chains_but_never_sets_of_unknowns(monkeypatch, cold_cache):
    stacks = []
    real = chainflux.observables._stack_reports

    def recording(structures, specs, approach, rates, unknowns):
        stacks.append((structures, rates, unknowns))
        return real(structures, specs, approach, rates, unknowns)

    monkeypatch.setattr(chainflux.observables, "_stack_reports", recording)
    base = chain([1.5] * 4, [1.0] * 3, 2.0, 0.5)
    specs = [apply_axis(base, "k", k) for k in np.linspace(0.5, 3.0, 15)]
    sets = set()
    for approach in ("global", "local"):
        reports = steady_reports(specs, approach)
        assert all(isinstance(r, SteadyReport) for r in reports)
    for structures, rates, unknowns in stacks:
        for structure, row in zip(structures, rates):
            key = unknowns_key(structure.unknowns(row == 0))
            assert key == unknowns_key(unknowns)
            sets.add(key)
    assert len(sets) > 2  # the global frames couple different entries
    assert any(len({id(s) for s in structures}) > 1 for structures, _, _ in stacks)
    assert len(stacks) < 2 * len(specs)


def loop_closure(H, operators):
    """The coupled set as first computed: one pair of products per operator and step."""
    dim = H.shape[0]
    operators = [(A != 0).astype(float) for A in operators]
    damping = (H != 0).astype(float) + sum(A.T @ A for A in operators)
    damping = damping + damping.T
    reached = np.eye(dim)
    while True:
        grown = reached + damping @ reached + reached @ damping
        for A in operators:
            grown += A @ reached @ A.T + A.T @ reached @ A
        grown = (grown > 0).astype(float)
        if np.array_equal(grown, reached):
            return np.flatnonzero(reached.T)
        reached = grown


def zero_rate_patterns(structure):
    # emission rates gamma (nbar + 1) never vanish; a reservoir's absorption
    # rates vanish for all its bins at T = 0, or for the bins above a
    # frequency where omega / T > 700: every suffix of its bins
    per_reservoir = []
    for reservoir in structure.bins:
        count = len(reservoir)
        per_reservoir.append([[False] * cut + [True] * (count - cut) for cut in range(count + 1)])
    for choice in np.ndindex(*(len(p) for p in per_reservoir)):
        zero = []
        for options, pick in zip(per_reservoir, choice):
            for absorption in options[pick]:
                zero += [False, absorption]
        yield np.array(zero)


def test_stacked_closure_matches_the_loop_over_cases_and_zero_rate_patterns():
    checked = 0
    for spec, _ in CASES:
        for approach in ("global", "local"):
            structure = chain_structure(spec, approach)
            for zero in zero_rate_patterns(structure):
                H, operators = structure.frame_hamiltonian, structure.operators[~zero]
                unknowns = coupled_unknowns(H, operators)
                flat = unknowns.cols * unknowns.dim + unknowns.rows
                assert np.array_equal(flat, loop_closure(H, operators))
                checked += 1
    assert checked > 4 * len(CASES)


def test_both_approaches_share_one_eigensystem(cold_cache):
    spec = chain([1.2, 1.5, 0.9], [0.5, 0.7], 1.0, 0.2)
    glob = chain_structure(spec, "global")
    local = chain_structure(spec, "local")
    assert glob.chain is local.chain
    assert local.spectrum is glob.eigensystem
    assert glob.hamiltonian is local.hamiltonian
    # the local structure built first diagonalizes on demand, once
    clear_caches()
    local = chain_structure(spec, "local")
    assert "eigensystem" not in vars(local.chain)
    assert chain_structure(spec, "global").eigensystem is local.spectrum


def test_a_long_k_scan_diagonalizes_each_chain_once(monkeypatch, cold_cache):
    # both approaches of a task share each chain's eigensystem, however many
    # chains the task holds, the zero mode's chain too
    import chainflux.lindblad

    calls = []

    def counting(H, _real=chainflux.lindblad.diagonalize):
        calls.append(H.shape)
        return _real(H)

    monkeypatch.setattr(chainflux.lindblad, "diagonalize", counting)
    zero_mode = 1.5 / (2 * math.cos(math.pi / 4))
    grid = tuple(np.linspace(0.3, 0.8, 40)) + (zero_mode,)
    request = SweepRequest(base=chain([1.5] * 3, [1.0] * 2, 1.0, 0.2), axis="k", grid=grid,
                           approaches=("global", "local"), outputs=("rho_diagonals",))
    table = run_sweep(request)
    assert [(s.axis_value, s.approach) for s in table.skipped] == [(zero_mode, "global")]
    assert len(table.rows) == 2 * len(grid) - 1
    assert len(calls) == len(grid)


def test_rows_with_different_zero_rates_get_separate_stacks(monkeypatch, cold_cache):
    # T = 0 switches a reservoir's absorption terms off; every row of a stack
    # has the same zero rates, and each row is its cold report bit for bit
    stacks = []
    real = chainflux.observables._stack_reports

    def recording(structures, specs, approach, rates, unknowns):
        stacks.append(rates)
        return real(structures, specs, approach, rates, unknowns)

    monkeypatch.setattr(chainflux.observables, "_stack_reports", recording)
    for n in (1, 2, 3, 4):
        base = chain(np.linspace(0.9, 1.7, n), np.linspace(0.6, 1.1, n - 1), 0.7, 0.0, 0.8, 1.3)
        specs = [apply_axis(base, "t1", t1) for t1 in (0.0, 0.3, 0.0, 1.0, 4.0)]
        for approach in ("global", "local"):
            whole = steady_reports(specs, approach)
            for spec, report in zip(specs, whole):
                assert_same_report(report, cold_report(spec, approach))
    assert all((rates == 0).all(axis=0).tolist() == (rates == 0).any(axis=0).tolist()
               for rates in stacks)
    assert any(len(rates) > 1 for rates in stacks)
