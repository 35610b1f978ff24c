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
from chainflux.lindblad import chain_operators, chain_structure, coupled_unknowns
from chainflux.observables import steady_reports
from chainflux.sweep import SweepRequest

from test_block_solve import CASES


def cold_report(spec, approach):
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
    # each reservoir's flux is its channel fluxes added in channel order
    assert repr(a.fluxes) == repr(tuple(sum(q for _, q in reservoir)
                                        for reservoir in a.channel_fluxes))


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
def test_scan_rows_match_cold_reports_for_any_stack_split(base, axis, grid):
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
            pieces = [report for i in range(0, len(specs), size)
                      for report in steady_reports(specs[i:i + size], (approach,))[0]]
            for report, expected in zip(pieces, cold):
                assert_same_report(report, expected)

    request = SweepRequest(base=base, axis=axis, grid=grid, approaches=("global", "local"),
                           outputs=("populations", "heat_flux"))
    for workers in (1, 2):
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


def test_stacks_span_chains_but_never_sets_of_unknowns(monkeypatch):
    stacks = []
    real = chainflux.observables._stack_reports

    def recording(structures, specs, approach, rates, unknowns):
        stacks.append((structures, rates, unknowns))
        return real(structures, specs, approach, rates, unknowns)

    monkeypatch.setattr(chainflux.observables, "_stack_reports", recording)
    base = chain([1.5] * 4, [1.0] * 3, 2.0, 0.5)
    specs = [apply_axis(base, "k", k) for k in np.linspace(0.5, 3.0, 15)]
    sets = set()
    for reports in steady_reports(specs, ("global", "local")):
        assert all(isinstance(r, SteadyReport) for r in reports)
    for structures, rates, unknowns in stacks:
        for structure, row in zip(structures, rates):
            key = unknowns_key(structure.unknowns(row == 0))
            assert key == unknowns_key(unknowns)
            sets.add(key)
    assert len(sets) > 2  # the global frames couple different entries
    assert any(len({id(s) for s in structures}) > 1 for structures, _, _ in stacks)
    assert len(stacks) < 2 * len(specs)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_the_global_rows_of_a_uniform_k_scan_share_one_stack(n, monkeypatch):
    # each chain's frame puts every excitation sector at that sector's own
    # sites, so the chains of a K scan couple the same entries of the frame
    # state; the grid stays clear of the zero modes and of K = 3, where a
    # bin joins two sectors
    stacks = []
    real = chainflux.observables._stack_reports

    def recording(structures, specs, approach, rates, unknowns):
        stacks.append((len(specs), unknowns_key(unknowns)))
        return real(structures, specs, approach, rates, unknowns)

    monkeypatch.setattr(chainflux.observables, "_stack_reports", recording)
    base = chain([1.5] * n, [1.0] * (n - 1), 2.0, 0.5)
    zeros = [1.5 / (2 * math.cos(k * math.pi / (n + 1))) for k in range(1, (n + 1) // 2 + 1)
             if math.cos(k * math.pi / (n + 1)) > 1e-12]
    grid = [k for k in np.linspace(0.2, 2.8, 14) if min(abs(k - z) for z in zeros) > 0.05]
    (reports,) = steady_reports([apply_axis(base, "k", k) for k in grid], ("global",))
    assert all(isinstance(r, SteadyReport) for r in reports)
    # one set of unknowns, cut only by the stack size
    assert len({key for _, key in stacks}) == 1
    step = chainflux.observables._GRID_ELEMENTS // reports[0].unknowns**2
    assert [size for size, _ in stacks] == [min(step, len(grid) - i)
                                            for i in range(0, len(grid), step)]


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
        chain_ops = chain_operators(spec)
        for approach in ("global", "local"):
            structure = chain_structure(chain_ops, spec, approach)
            for zero in zero_rate_patterns(structure):
                H, operators = structure.frame_hamiltonian, structure.operators[~zero]
                unknowns = coupled_unknowns(H, operators)
                flat = unknowns.cols * unknowns.dim + unknowns.rows
                assert np.array_equal(flat, loop_closure(H, operators))
                checked += 1
    assert checked > 4 * len(CASES)


def test_both_approaches_share_one_eigensystem():
    spec = chain([1.2, 1.5, 0.9], [0.5, 0.7], 1.0, 0.2)
    chain_ops = chain_operators(spec)
    # the local structure diagonalizes nothing; the global one on demand, once
    local = chain_structure(chain_ops, spec, "local")
    assert "eigensystem" not in vars(chain_ops)
    glob = chain_structure(chain_ops, spec, "global")
    assert glob.chain is local.chain is chain_ops
    assert glob.eigensystem is chain_ops.eigensystem
    glob_report, local_report = (r for (r,) in steady_reports([spec], ("global", "local")))
    assert glob_report.chain is local_report.chain
    assert glob_report.chain is not chain_ops  # each call builds its own


def count_calls(monkeypatch, module, name):
    """Arguments of every call of ``module.name``, recorded as it runs."""
    calls = []
    real = getattr(module, name)

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, counting)
    return calls


def k_scan_with_a_zero_mode():
    zero_mode = 1.5 / (2 * math.cos(math.pi / 4))
    base = chain([1.5] * 3, [1.0] * 2, 1.0, 0.2)
    return [apply_axis(base, "k", k) for k in (0.4, 0.9, zero_mode, 1.4)], 2


def temperature_sweep():
    base = chain([1.2, 0.9, 1.4], [0.7, 0.5], 0.7, 0.2, 0.8, 1.3)
    return [apply_axis(base, "t1", t1) for t1 in (0.0, 0.3, 1.5, 7.0)], None


@pytest.mark.parametrize("specs, zero_mode", [temperature_sweep(), k_scan_with_a_zero_mode()],
                         ids=["t1-sweep", "k-scan"])
def test_one_call_diagonalizes_each_chain_once_for_both_approaches(specs, zero_mode,
                                                                  monkeypatch):
    import chainflux.lindblad

    diagonalized = count_calls(monkeypatch, chainflux.lindblad, "diagonalize")
    built = count_calls(monkeypatch, chainflux.observables, "chain_structure")
    glob, local = steady_reports(specs, ("global", "local"))
    chains = {spec.couplings for spec in specs}
    assert len(diagonalized) == len(chains)
    assert sorted((spec.couplings, approach) for _, spec, approach in built) == \
        sorted((k, approach) for k in chains for approach in ("global", "local"))
    for i, report in enumerate(glob):
        assert isinstance(report, DegenerateTransition) == (i == zero_mode)
    # the local reports' eigensystems, rho_diagonals' basis, are the ones the
    # global route diagonalized, the zero mode's chain too
    assert all(report.chain.eigensystem is not None for report in local)
    assert len(diagonalized) == len(chains)
    for g, l in zip(glob, local):
        assert isinstance(g, DegenerateTransition) or g.chain is l.chain


def test_a_repeated_call_gives_bit_identical_reports():
    specs, _ = k_scan_with_a_zero_mode()
    specs += temperature_sweep()[0]
    first = steady_reports(specs, ("global", "local"))
    for n in (1, 2, 4):  # unrelated chains, sets of unknowns and stacks in between
        base = chain(np.linspace(0.8, 1.6, n), [0.9] * (n - 1), 2.0, 0.0)
        steady_reports([apply_axis(base, "t1", t) for t in (0.1, 0.5, 3.0)], ("local", "global"))
    again = steady_reports(specs, ("global", "local"))
    for a, b in zip(first, again):
        for report, expected in zip(a, b):
            assert_same_report(report, expected)


def test_a_long_k_scan_diagonalizes_each_chain_once(monkeypatch):
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


def test_rows_with_different_zero_rates_get_separate_stacks(monkeypatch):
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
        for approach, whole in zip(("global", "local"),
                                   steady_reports(specs, ("global", "local"))):
            for spec, report in zip(specs, whole):
                assert_same_report(report, cold_report(spec, approach))
    assert all((rates == 0).all(axis=0).tolist() == (rates == 0).any(axis=0).tolist()
               for rates in stacks)
    assert any(len(rates) > 1 for rates in stacks)
