"""K and eps scans: rows of different chains solved in shared stacks, bit for bit."""

import math
from pathlib import Path

import numpy as np
import pytest

import chainflux.observables
from chainflux import (
    DegenerateKernel,
    DegenerateTransition,
    DimensionMismatch,
    SteadyReport,
    apply_axis,
    build_chain_hamiltonian,
    chain,
    parse_config,
    run_sweep,
    steady_report,
)
from chainflux.generator import superoperator
from chainflux.lindblad import chain_operators
from chainflux.observables import steady_reports
from chainflux.sweep import SweepRequest

from oracles import assemble, chain_structure, real_superoperator
from test_block_solve import CASES

REPO = Path(__file__).resolve().parent.parent


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
    table = run_sweep(request)
    skipped = {(s.axis_value, s.approach) for s in table.skipped}
    expected_skips = {(grid[2], "global")} if base.n_qubits > 1 else set()
    assert skipped == expected_skips
    assert len(table.rows) == 2 * len(grid) - len(expected_skips)
    for row in table.rows:
        report = cold_report(apply_axis(base, axis, row.axis_value), row.approach)
        assert repr((row.populations, row.fluxes, row.residual)) == \
            repr((report.populations, report.fluxes, report.residual))


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


def closure_over_every_item(H, operators):
    """The coupled set as closed over each operator A and its A^dag alike, before the pairs."""
    dim = H.shape[0]
    bits = np.concatenate([[H != 0], operators != 0]).astype(float)
    ops, eye = bits[1:], np.eye(dim)
    transposed = ops.swapaxes(1, 2)
    damping = bits[0] + (transposed @ ops).sum(axis=0)
    damping = damping + damping.T
    outer = np.concatenate([[eye, damping, eye], ops, transposed]).swapaxes(0, 1)
    outer = outer.reshape(dim, -1)
    inner = np.concatenate([[eye, eye, damping], transposed, ops])
    reached = eye
    while True:
        grown = (outer @ (reached @ inner).reshape(-1, dim) > 0).astype(float)
        if grown.sum() == reached.sum():
            return np.flatnonzero(reached.T)
        reached = grown


def seeded_global_chains():
    for n in range(1, 6):
        rng = np.random.default_rng(300 + n)
        yield [chain(rng.uniform(0.3, 3.0, n), rng.uniform(0.1, 1.5, n - 1), 1.0, 0.5)
               for _ in range(3)]
    yield [chain([1.5] * 4, [3.0] * 3, 1.0, 0.5)]  # a bin joins two excitation sectors


@pytest.mark.parametrize("specs", list(seeded_global_chains()),
                         ids=[f"N{n}" for n in range(1, 6)] + ["mixed-bin"])
def test_closure_over_the_a_items_is_the_closure_over_every_item(specs):
    # A^dag links what A links, backwards: the pairs' A's close to the same set
    structure = chain_structure(chain_operators(specs), "global")
    for c, unknowns in enumerate(structure.unknown_sets(np.arange(len(specs)))):
        start, count = structure.start[c], 2 * (structure.edges[2 * c + 2] - structure.edges[2 * c])
        operators = structure.operators[start:start + count]
        expected = closure_over_every_item(structure.frame_hamiltonian[c], operators)
        assert np.array_equal(unknowns.cols * unknowns.dim + unknowns.rows, expected)


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


# a chain with an uncoupled pair of qubits, and a chain of degenerate levels
# (m = 18 under the global approach)
CLOSURE_CASES = [chain([1.0, 1.4, 2.0], [0.0, 0.7], 0.6, 0.3),
                 chain([1.0, 2.0, 1.0, 2.0], [1.0, -1.0, 1.0], 0.6, 0.3)]


def test_stacked_closure_matches_the_loop_over_cases_and_zero_rate_patterns():
    # a chain's one set of unknowns is the closure over its operators at the
    # nonzero rates of every zero-rate pattern a row can have
    checked = 0
    specs = [spec for spec, _ in CASES] + CLOSURE_CASES
    for spec in specs:
        for approach in ("global", "local"):
            model = assemble(spec, approach)
            unknowns = model.unknowns
            flat = unknowns.cols * unknowns.dim + unknowns.rows
            for zero in zero_rate_patterns(model):
                H, operators = model.frame_hamiltonian, model.operators[~zero]
                assert np.array_equal(flat, loop_closure(H, operators))
                checked += 1
    assert checked > 4 * len(specs)


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
def test_one_call_diagonalizes_only_its_zero_mode_chain(specs, zero_mode, monkeypatch):
    import chainflux.lindblad
    import chainflux.operators

    diagonalized = count_calls(monkeypatch, chainflux.lindblad, "diagonalize")
    glob, local = steady_reports(specs, ("global", "local"))
    chains = {build_chain_hamiltonian(spec).tobytes() for spec in specs}
    # no row is solved on the 2^N eigensystem: only the zero mode's chain
    # reads it, for its jump scan, which builds and diagonalizes that
    # chain's H alone
    assert local.chains is glob.chains and len(glob.chains) == len(chains)
    for i, report in enumerate(glob):
        assert isinstance(report, DegenerateTransition) == (i == zero_mode)
    if zero_mode is None:
        assert diagonalized == []
    else:
        ((stack,),) = diagonalized
        assert [H.tobytes() for H in stack] == [build_chain_hamiltonian(specs[zero_mode]).tobytes()]
    # the reports' eigensystems, read by a view, are one stacked call over
    # the call's chains, shared by both approaches
    assert "eigensystem" not in vars(glob.chains)
    assert all(report.chain.eigensystem is not None for report in local)
    whole = chainflux.operators.diagonalize(glob.chains.hamiltonian)
    for name in ("energies", "vectors"):
        assert getattr(glob.chains.eigensystem, name).tobytes() == getattr(whole, name).tobytes()
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


def test_a_long_k_scan_diagonalizes_its_zero_mode_chain_alone(monkeypatch):
    # 41 N = 3 chains with the eigenbasis-free diagonals: the zero mode's
    # jump scan is the one diagonalize call, on that chain's H alone
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
    assert calls == [(1, 8, 8)]


@pytest.mark.parametrize("config", ["kscan4.cfg", "eps4.cfg"])
def test_a_shipped_n4_scan_is_one_call_that_diagonalizes_its_zero_mode_chains_alone(
        config, monkeypatch):
    # the scan is one chain_reports call over its 14 chains; its two zero
    # modes' jump scans pass the H of those chains, and no other, to
    # diagonalize, in one stacked call
    import chainflux.lindblad
    import chainflux.sweep

    request = parse_config((REPO / "configs" / config).read_text())
    calls = count_calls(monkeypatch, chainflux.sweep, "chain_reports")
    diagonalized = count_calls(monkeypatch, chainflux.lindblad, "diagonalize")
    table = run_sweep(request)
    ((chains, _, _, _),) = calls
    assert len(chains) == len(request.grid)
    zeros = [apply_axis(request.base, request.axis, skip.axis_value) for skip in table.skipped]
    assert len(zeros) == 2
    ((stack,),) = diagonalized
    assert [H.tobytes() for H in stack] == [build_chain_hamiltonian(s).tobytes() for s in zeros]


def test_a_k_scan_beyond_the_former_bound_is_one_call(monkeypatch):
    # 600 N = 3 chains, more than the 512 a call once held, go to one
    # chain_reports call, which builds no chain's H
    import chainflux.lindblad
    import chainflux.sweep

    calls = count_calls(monkeypatch, chainflux.sweep, "chain_reports")
    built = count_calls(monkeypatch, chainflux.lindblad, "build_chain_hamiltonian")
    request = SweepRequest(base=chain([1.5] * 3, [1.0] * 2, 1.0, 0.2), axis="k",
                           grid=tuple(np.linspace(1.1, 3.0, 600)),
                           approaches=("global", "local"), outputs=("rho_diagonals",))
    table = run_sweep(request)
    ((chains, chain_index, _, _),) = calls
    assert len(chains) == 600 and chain_index.tolist() == list(range(600))
    assert built == [] and not table.skipped and len(table.rows) == 1200


def test_rows_with_different_zero_rates_share_a_stack(monkeypatch):
    # T = 0 switches a reservoir's absorption terms off; rows with and
    # without zero rates share a stack of each route, and each row is its
    # cold report bit for bit
    stacks = []
    for name in ("global_steady_states", "group_steady_states", "local_steady_states"):
        def recording(*args, _real=getattr(chainflux.observables, name)):
            stacks.append(args[-1].reshape(len(args[-1]), -1))  # the baths, or the rates
            return _real(*args)

        monkeypatch.setattr(chainflux.observables, name, recording)
    for n in (1, 2, 3, 4):
        base = chain(np.linspace(0.9, 1.7, n), np.linspace(0.6, 1.1, n - 1), 0.7, 0.0, 0.8, 1.3)
        specs = [apply_axis(base, "t1", t1) for t1 in (0.0, 0.3, 0.0, 1.0, 4.0)]
        for approach, reports in zip(("global", "local"),
                                     steady_reports(specs, ("global", "local"))):
            for spec, report in zip(specs, reports):
                assert_same_report(report, cold_report(spec, approach))
    assert any(len({(row == 0).tobytes() for row in rows}) > 1 for rows in stacks)
    assert any(len(rows) > 1 for rows in stacks)


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
            start, count = stack.start[c], 2 * (high - low)
            pairs = [(stack.frame_hamiltonian[c], alone.frame_hamiltonian[0]),
                     (stack.omegas[low:high], alone.omegas),
                     (stack.reservoirs[low:high], alone.reservoirs),
                     (stack.operators[start:start + count], alone.operators[:count]),
                     (stack.decay[start:start + count], alone.decay[:count]),
                     (stack.flux_functionals[2 * low:2 * high], alone.flux_functionals)]
            for a, b in pairs:
                assert a.tobytes() == b.tobytes()
    (glob,) = steady_reports(specs, ("global",))
    assert isinstance(glob[2], DegenerateTransition)
    for i in (0, 1, 3, 4):
        assert_same_report(glob[i], cold_report(specs[i], "global"))


@pytest.mark.parametrize("approach", ["global", "local"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_a_stacked_generator_builds_each_row_as_alone_whatever_its_chains(n, approach):
    # each item's operators and products A^dag A are gathered to the rows
    # of its chain, and J's decay part is added at the row's rates: rows of
    # several chains, interleaved and repeated, some at T = 0, build the
    # block each builds alone, bit for bit, and the dense oracle's; the
    # local chains 0 and 1 share their operators
    rng = np.random.default_rng(80 + n)
    sites = np.array([[0, n - 1], [0, n - 1], [n - 1, 0], [0, n // 2]])
    structure = chain_structure(chain_operators(rng.uniform(0.5, 2.5, (4, n)),
                                                rng.uniform(0.3, 1.2, (4, n - 1)), sites), approach)
    assert not structure.errors
    groups = {}  # chains that share a bin count and a set of unknowns stack together
    for c, u in enumerate(structure.unknown_sets(np.arange(4))):
        bins = structure.edges[2 * c + 2] - structure.edges[2 * c]
        groups.setdefault((bins, u.rows.tobytes(), u.cols.tobytes()), (u, bins, []))[2].append(c)
    unknowns, bins, members = max(groups.values(), key=lambda group: len(group[2]))
    rows = rng.permutation(np.resize(members, 9))
    assert len(set(rows.tolist())) >= 2
    baths = np.stack([rng.uniform(0.2, 3.0, (9, 2)), rng.uniform(0.5, 1.5, (9, 2))], axis=2)
    baths[2, 0, 0] = baths[5, 1, 0] = baths[7, :, 0] = 0.0
    rates, offsets = structure.rates(rows, baths)
    rates = rates[offsets[:-1, None] + np.arange(bins)].reshape(len(rows), -1)
    assert (rates == 0).any(axis=1).sum() >= 3
    H, first = structure.frame_hamiltonian, structure.start
    stacks = structure.operators, structure.decay
    stack = real_superoperator(H[rows], *stacks, rates, unknowns, first[rows])
    for j, c in enumerate(rows.tolist()):
        alone = real_superoperator(H[[c]], *stacks, rates[j:j + 1], unknowns, first[[c]])
        assert stack[j].tobytes() == alone[0].tobytes()
        operators = structure.operators[first[c]:first[c] + rates.shape[1]]
        L = superoperator(H[c], operators, rates[j], unknowns)
        assert np.abs(stack[j] - unknowns.hermitian(L)).max() <= 1e-13 * np.abs(L).max()
