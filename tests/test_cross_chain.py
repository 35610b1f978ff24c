"""K and eps scans: rows of different chains solved in shared stacks, bit for bit."""

import math

import numpy as np
import pytest

import chainflux.observables
from chainflux import (
    DegenerateKernel,
    DegenerateTransition,
    DimensionMismatch,
    SteadyReport,
    apply_axis,
    assemble,
    build_chain_hamiltonian,
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

    def recording(structure, rows_chain, rates, unknowns):
        stacks.append((structure, rows_chain, rates, unknowns))
        return real(structure, rows_chain, rates, unknowns)

    monkeypatch.setattr(chainflux.observables, "_stack_reports", recording)
    base = chain([1.5] * 4, [1.0] * 3, 2.0, 0.5)
    specs = [apply_axis(base, "k", k) for k in np.linspace(0.5, 3.0, 15)]
    sets = set()
    for reports in steady_reports(specs, ("global", "local")):
        assert all(isinstance(r, SteadyReport) for r in reports)
    for structure, rows_chain, rates, unknowns in stacks:
        for c, row in zip(rows_chain.tolist(), rates):
            key = unknowns_key(structure.unknowns(c, row == 0))
            assert key == unknowns_key(unknowns)
            sets.add(key)
    assert len(sets) > 2  # the global frames couple different entries
    assert any(len(set(rows_chain.tolist())) > 1 for _, rows_chain, _, _ in stacks)
    assert len(stacks) < 2 * len(specs)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_the_global_rows_of_a_uniform_k_scan_share_one_stack(n, monkeypatch):
    # each chain's frame puts every excitation sector at that sector's own
    # sites, so the chains of a K scan couple the same entries of the frame
    # state; the grid stays clear of the zero modes and of K = 3, where a
    # bin joins two sectors
    stacks = []
    real = chainflux.observables._stack_reports

    def recording(structure, rows_chain, rates, unknowns):
        stacks.append((len(rows_chain), unknowns_key(unknowns)))
        return real(structure, rows_chain, rates, unknowns)

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


def zero_rate_patterns(model):
    # emission rates gamma (nbar + 1) never vanish; a reservoir's absorption
    # rates vanish for all its bins at T = 0, or for the bins above a
    # frequency where omega / T > 700: every suffix of its bins
    per_reservoir = []
    for reservoir in model.bins:
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
            model = assemble(spec, approach)
            for zero in zero_rate_patterns(model):
                H, operators = model.frame_hamiltonian, model.operators[~zero]
                unknowns = coupled_unknowns(H, operators)
                flat = unknowns.cols * unknowns.dim + unknowns.rows
                assert np.array_equal(flat, loop_closure(H, operators))
                checked += 1
    assert checked > 4 * len(CASES)


def test_both_approaches_share_one_eigensystem():
    spec = chain([1.2, 1.5, 0.9], [0.5, 0.7], 1.0, 0.2)
    chains = chain_operators([spec, apply_axis(spec, "k", 0.8)])
    # the local structures diagonalize nothing; the global ones the whole
    # stack on demand, once
    local = chain_structure(chains, "local")
    assert "eigensystem" not in vars(chains)
    glob = chain_structure(chains, "global")
    assert glob.chains is local.chains is chains
    assert glob.eigensystem is chains.eigensystem
    glob_report, local_report = (r for (r,) in steady_reports([spec], ("global", "local")))
    assert glob_report.chain is local_report.chain
    assert glob_report.chain.stack is not chains  # each call builds its own


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
    chains = {build_chain_hamiltonian(spec).tobytes() for spec in specs}
    # one stack holding every chain once, diagonalized by one call and
    # built once per approach
    ((stack,),) = diagonalized
    assert sorted(H.tobytes() for H in stack) == sorted(chains)
    assert [approach for _, approach in built] == ["global", "local"]
    assert all(chains_arg.hamiltonian is built[0][0].hamiltonian for chains_arg, _ in built)
    assert len(built[0][0]) == len(chains)
    for i, report in enumerate(glob):
        assert isinstance(report, DegenerateTransition) == (i == zero_mode)
    # the local reports' eigensystems, rho_diagonals' basis, are the ones the
    # global route diagonalized, the zero mode's chain too
    assert all(report.chain.eigensystem is not None for report in local)
    assert len(diagonalized) == 1
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
    # chains the task holds, the zero mode's chain too: one stacked call
    # holds every chain of the task once
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
    assert calls == [(len(grid), 8, 8)]


def test_rows_with_different_zero_rates_get_separate_stacks(monkeypatch):
    # T = 0 switches a reservoir's absorption terms off; every row of a stack
    # has the same zero rates, and each row is its cold report bit for bit
    stacks = []
    real = chainflux.observables._stack_reports

    def recording(structure, rows_chain, rates, unknowns):
        stacks.append(rates)
        return real(structure, rows_chain, rates, unknowns)

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


def test_one_call_takes_chains_of_one_length():
    # the columns hold (rows, N) populations and (rows, d, d) states
    specs = [chain([1.5] * 2, [1.0], 1.0, 0.2), chain([1.5] * 3, [1.0] * 2, 1.0, 0.2)]
    with pytest.raises(DimensionMismatch, match="2 and 3 qubits"):
        steady_reports(specs, ("local",))


def mixed_chains(n):
    """Chains of n qubits whose global routes bin differently.

    A uniform chain (degenerate levels, bins of many jumps), a random one,
    one at a zero mode (the global route degenerates), one at K = 3 (at
    N = 4 a bin joins two sectors; at N = 5 the steady state is not unique)
    and an uncoupled one (H diagonal); one qubit has only its gap.
    """
    rng = np.random.default_rng(40 + n)
    base = chain([1.5] * n, [1.0] * (n - 1), 1.7, 0.3, 0.8, 1.3)
    other = chain(rng.uniform(0.5, 2.5, n), rng.uniform(-1.5, 1.5, n - 1), 1.7, 0.3, 0.8, 1.3)
    if n == 1:
        return [base, other, apply_axis(base, "eps", 0.9)]
    zero_mode = 1.5 / (2 * math.cos(math.pi / (n + 1)))
    return [base, other] + [apply_axis(base, "k", k) for k in (zero_mode, 3.0, 0.0)]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_one_call_over_chains_of_mixed_degeneracies_gives_the_cold_rows(n):
    chains = mixed_chains(n)
    specs = [apply_axis(spec, "t1", t1) for t1 in (0.0, 2.5) for spec in chains]
    for approach, reports in zip(("global", "local"), steady_reports(specs, ("global", "local"))):
        for spec, report in zip(specs, reports):
            assert_same_report(report, cold_report(spec, approach))
    bins = set()
    for spec in chains:
        try:
            bins.add(tuple(len(reservoir) for reservoir in assemble(spec, "global").bins))
        except DegenerateTransition:
            bins.add(None)
    assert n == 1 or len(bins) > 2  # one qubit has one bin per reservoir


def test_a_degenerate_chain_leaves_the_rest_of_its_stack_intact():
    # the stacked structure of each chain is the one it gets alone, bit for
    # bit, whatever its neighbours; the zero mode's chain gets its error and
    # no bins
    base = chain([1.5] * 4, [1.0] * 3, 1.0, 0.2)
    zero_mode = 1.5 / (2 * math.cos(math.pi / 5))
    specs = [apply_axis(base, "k", k) for k in (0.4, 0.9, zero_mode, 1.4, 3.0)]
    for approach in ("global", "local"):
        stack = chain_structure(chain_operators(specs), approach)
        assert list(stack.errors) == ([2] if approach == "global" else [])
        for c, spec in enumerate(specs):
            alone = chain_structure(chain_operators([spec]), approach)
            if c in stack.errors:
                assert str(stack.errors[c]) == str(alone.errors[0])
                assert stack.edges[2 * c] == stack.edges[2 * c + 2]
                continue
            low, high = stack.edges[2 * c], stack.edges[2 * c + 2]
            start = stack.start[c]
            for a, b in ((stack.frame_hamiltonian[c], alone.frame_hamiltonian[0]),
                         (stack.omegas[low:high], alone.omegas),
                         (stack.reservoirs[low:high], alone.reservoirs),
                         (stack.operators[start:start + 2 * (high - low)], alone.operators),
                         (stack.flux_functionals[low:high], alone.flux_functionals),
                         (stack.population_functionals[c % len(stack.population_functionals)],
                          alone.population_functionals[0])):
                assert a.tobytes() == b.tobytes()
    (glob,) = steady_reports(specs, ("global",))
    assert isinstance(glob[2], DegenerateTransition)
    for i in (0, 1, 3, 4):
        assert_same_report(glob[i], cold_report(specs[i], "global"))
