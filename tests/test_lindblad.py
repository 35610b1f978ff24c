import numpy as np
import pytest
from scipy.linalg import expm

from chainflux import (
    BathSpec,
    ChainSpec,
    DegenerateTransition,
    DimensionMismatch,
    EigenSystem,
    NonPositiveFrequency,
    apply_axis,
    bose_occupation,
    build_chain_hamiltonian,
    chain,
    diagonalize,
    dimer,
    monomer,
    site_operator,
)
from chainflux.generator import unvectorize, vectorize
from chainflux.lindblad import (
    build_liouvillian,
    build_local_dissipator,
    chain_operators,
    full_unknowns,
    global_dissipator_bins,
    global_jump_operators,
    superoperator,
    thermal_dissipator,
    thermal_rates,
)
from chainflux.steady import solve_steady

from oracles import (
    assemble,
    chain_structure,
    dense_chains,
    dimer_analytic_eigensystem,
    eigenbasis_bins,
)


def coupling_op(n, site):
    return site_operator(n, site, "raise") + site_operator(n, site, "lower")


# ---------------------------------------------------------------- rates


def test_bose_occupation_zero_temperature():
    assert bose_occupation(1.0, 0.0) == 0.0


def test_bose_occupation_forced_value():
    assert bose_occupation(1.0, 1.0 / np.log(2.0)) == pytest.approx(1.0, abs=1e-14)


def test_bose_occupation_direct_evaluation():
    assert bose_occupation(1.5, 2.0) == pytest.approx(1.0 / np.expm1(0.75), abs=1e-15)


def test_bose_occupation_underflows_cleanly():
    # far below the exp overflow threshold this must be exactly zero, not inf
    assert bose_occupation(10.0, 1e-3) == 0.0


def test_bose_occupation_rejects_nonpositive_frequency():
    with pytest.raises(NonPositiveFrequency):
        bose_occupation(0.0, 1.0)
    with pytest.raises(NonPositiveFrequency):
        bose_occupation(-1.0, 1.0)


def scalar_rates(model, baths):
    """Each operator's rate from one bose_occupation per bin, as the rates were first built."""
    out = []
    for reservoir, bath in zip(model.bins, baths):
        for omega, _ in reservoir:
            out += thermal_rates(bath.gamma, bose_occupation(omega, bath.temperature))
    return out


def bath_table(baths):
    """(temperature, gamma) of each reservoir of each pair of baths, (rows, 2, 2)."""
    return np.array([[(bath.temperature, bath.gamma) for bath in pair] for pair in baths])


# T = 0 (and -0.0), omega / T > 700 (T1 = 0.01 at eps = 10) and a log grid
# over omega / T from about 1e-3 to 1e3
TEMPERATURES = (0.0, -0.0, 0.01, 0.0137, *np.logspace(-2.0, 3.0, 31).tolist())


@pytest.mark.parametrize("approach", ["global", "local"])
@pytest.mark.parametrize("spec", [
    chain([10.0, 10.0], [1.0], 0.01, 0.0),
    chain([1.2, 0.9, 1.4], [0.7, 0.5], 0.7, 0.2, 0.8, 1.3),  # gamma != 1
    monomer(2.5, 1.0, 0.0, 0.3, 1.7),
], ids=["eps10", "gamma", "monomer"])
def test_array_rates_equal_the_scalar_rates_bit_for_bit(spec, approach):
    model = assemble(spec, approach)
    (g1, s1), (g2, s2) = ((b.gamma, b.attached_site) for b in spec.baths)
    baths = [(BathSpec(t1, g1, s1), BathSpec(t2, g2, s2))
             for t1 in TEMPERATURES for t2 in (0.0, 0.01, 0.5)]
    rates, _ = model.structure.rates(np.zeros(len(baths), dtype=int), bath_table(baths))
    rates = rates.reshape(len(baths), -1)
    assert rates.shape == (len(baths), len(model.operators))
    for row, pair in zip(rates.tolist(), baths):
        assert row == scalar_rates(model, pair)
    assert model.rates.tolist() == scalar_rates(model, spec.baths)


def test_array_rates_of_a_k_scan_with_one_row_per_chain():
    # one stack of twelve chains: each row's rates are its own chain's,
    # bit for bit the scalar rates of the chain built alone
    base = chain([1.5] * 4, [1.0] * 3, 0.01, 0.3, 1.4, 0.6)
    specs = [apply_axis(base, "k", k) for k in np.linspace(0.2, 2.9, 12)]
    for approach in ("global", "local"):
        structure = chain_structure(chain_operators(specs), approach)
        rates, offsets = structure.rates(np.arange(len(specs)), bath_table(
            [spec.baths for spec in specs]))
        for i, spec in enumerate(specs):
            row = rates[offsets[i]:offsets[i + 1]].reshape(-1).tolist()
            assert row == scalar_rates(assemble(spec, approach), spec.baths)


def test_array_rates_reject_a_nonpositive_frequency():
    # a gap of zero gives the local bin omega = 0; validate_spec would refuse it
    spec = ChainSpec(2, (0.0, 1.0), (1.0,), (BathSpec(1.0, 1.0, 0), BathSpec(0.5, 1.0, 1)))
    structure = chain_structure(chain_operators([spec]), "local")
    with pytest.raises(NonPositiveFrequency):
        structure.rates(np.zeros(1, dtype=int), bath_table([spec.baths]))


def test_detailed_balance_ratio():
    for omega, t in [(1.0, 0.7), (2.5, 4.0)]:
        nb = bose_occupation(omega, t)
        assert (nb + 1.0) / nb == pytest.approx(np.exp(omega / t), rel=1e-12)


# ------------------------------------------------------- jump operators


def test_monomer_single_jump_operator():
    spec = monomer(1.5, 1.0, 0.0)
    es = diagonalize(build_chain_hamiltonian(spec))
    jumps = global_jump_operators(es, coupling_op(1, 0))
    assert len(jumps) == 1
    assert jumps["omega"][0] == pytest.approx(1.5)
    assert jumps["weight"][0] == pytest.approx(1.0)
    first, ops = eigenbasis_bins(es, jumps)
    assert first.tolist() == [0]
    A = ops[0]
    assert np.allclose(es.vectors @ A @ es.vectors.conj().T, site_operator(1, 0, "lower"))


def test_symmetric_dimer_has_two_frequency_bins_per_reservoir():
    eps, k = 1.5, 1.0
    es = diagonalize(build_chain_hamiltonian(dimer(eps, eps, k, 1.0, 0.0)))
    for site in (0, 1):
        jumps = global_jump_operators(es, coupling_op(2, site))
        assert len(jumps) == 4
        freqs = sorted(set(jumps["omega"].tolist()))
        assert freqs == pytest.approx([abs(eps - k), eps + k])
        assert sorted(np.abs(jumps["weight"])) == pytest.approx([1 / np.sqrt(2)] * 4)


def test_jump_operators_lower_energy_by_omega():
    spec = chain([1.2, 0.7, 2.1], [0.4, 0.9], 1.0, 0.0)
    H = build_chain_hamiltonian(spec)
    es = diagonalize(H)
    frame_H = np.diag(es.energies)
    scale = np.abs(H).max()
    jumps = global_jump_operators(es, coupling_op(3, 0))
    first, ops = eigenbasis_bins(es, jumps)
    assert len(first)
    for omega, A in zip(jumps["omega"][first], ops[::2]):
        comm = frame_H @ A - A @ frame_H
        assert np.abs(comm + omega * A).max() <= 1e-10 * scale


def test_asymmetric_dimer_weights_match_analytic_amplitudes():
    eps1, eps2, k = 2.0, 1.0, 1.0
    ana = dimer_analytic_eigensystem(eps1, eps2, k)
    es = diagonalize(build_chain_hamiltonian(dimer(eps1, eps2, k, 1.0, 0.0)))
    # ascending eigenstates: s1(-1.5), s4(-alpha), s3(+alpha), s2(+1.5);
    # the phase convention fixes each numerical eigenvector only up to the
    # sign it shares between its two transitions
    sigma3 = es.vectors[1, 2].real / ana.c31
    sigma4 = es.vectors[1, 1].real / ana.c41
    assert abs(abs(sigma3) - 1.0) <= 1e-10
    assert abs(abs(sigma4) - 1.0) <= 1e-10
    expected = {
        0: {(0, 1): sigma4 * ana.c41, (0, 2): sigma3 * ana.c31,
            (1, 3): sigma4 * ana.c42, (2, 3): sigma3 * ana.c32},
        1: {(0, 1): sigma4 * ana.c42, (0, 2): sigma3 * ana.c32,
            (1, 3): sigma4 * ana.c41, (2, 3): sigma3 * ana.c31},
    }
    for reservoir, site in ((0, 0), (1, 1)):
        jumps = global_jump_operators(es, coupling_op(2, site))
        assert len(jumps) == 4
        first, ops = eigenbasis_bins(es, jumps)
        bins = dict(zip(jumps["omega"][first].tolist(), ops[::2]))
        for _, _, omega, p, q, weight in jumps.tolist():
            assert weight == pytest.approx(expected[reservoir][(p, q)], abs=1e-10)
            assert bins[omega][p, q] == weight


def test_degenerate_transition_raises():
    es = diagonalize(build_chain_hamiltonian(dimer(1.0, 1.0, 1.0, 1.0, 0.0)))
    with pytest.raises(DegenerateTransition):
        global_jump_operators(es, coupling_op(2, 0))


def test_near_degenerate_chain_assembles():
    # a full-matrix eigh mixes near-degenerate levels of different
    # excitation sectors at 1e-13, which gives sigma^x a spurious element
    # across two degenerate eigenstates (omega = 3e-16)
    spec = chain([1.0] * 5, [1.001] * 4, 2.0, 0.3)
    model = assemble(spec, "global")
    jumps = global_jump_operators(model.eigensystem, coupling_op(5, 0))
    assert len(jumps) == 98
    assert [len(reservoir) for reservoir in model.bins] == [5, 5]


def reference_omegas(es, coupling):
    """Each jump's bin frequency as first computed: the bins walked one jump at a time."""
    energies = es.energies
    elements = es.vectors.conj().T @ coupling @ es.vectors
    gaps = energies[None, :] - energies[:, None]
    lower, upper = np.nonzero((np.abs(elements) > 1e-14) & (gaps > 0))
    omegas = gaps[lower, upper][np.lexsort((upper, lower, gaps[lower, upper]))]
    tol = 1e-9 * max(1.0, np.abs(energies).max())
    values, starts = omegas.tolist(), []
    for i, omega in enumerate(values):
        if not starts or omega - values[starts[-1]] > tol:
            starts.append(i)
    out = np.empty(len(values))
    for start, stop in zip(starts, starts[1:] + [len(values)]):
        out[start:stop] = np.add.reduceat(omegas[start:stop], [0])[0] / (stop - start)
    return out


def test_stacked_bins_match_the_jump_by_jump_walk():
    # steps of 2e-9 below the tolerance 3e-9 span 4e-9 above it: the bin
    # is cut where the walk from its lowest frequency cuts it, not at a step
    es = EigenSystem(energies=np.array([0.0, 1.0, 2.0 + 2e-9, 3.0 + 6e-9]),
                     vectors=np.eye(4, dtype=complex))
    coupling = np.ones((4, 4)) - np.eye(4)
    omegas = global_jump_operators(es, coupling)["omega"]
    assert len(set(omegas.tolist())) == 5
    assert omegas.tobytes() == reference_omegas(es, coupling).tobytes()
    # a stack of chains of every size, the N = 5 uniform chain's bins of
    # twenty jumps and more among them
    rng = np.random.default_rng(5)
    for n in range(1, 6):
        specs = [chain([1.5] * n, [1.0] * (n - 1), 1.0, 0.0)]
        specs += [chain(rng.uniform(0.5, 2.5, n), rng.uniform(0.2, 1.5, n - 1), 1.0, 0.0)
                  for _ in range(3)]
        _, es, couplings = dense_chains(chain_operators(specs))
        jumps = global_jump_operators(es, couplings)
        for c, spec in enumerate(specs):
            for r, bath in enumerate(spec.baths):
                mine = jumps[(jumps["chain"] == c) & (jumps["reservoir"] == r)]["omega"]
                expected = reference_omegas(es[c],
                                            coupling_op(n, bath.attached_site))
                assert mine.tobytes() == expected.tobytes()


# ----------------------------------------------------------- dissipators


def random_specs(seed, count, n_choices=(1, 2, 3)):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.choice(n_choices))
        yield chain(rng.uniform(0.3, 3.0, n), rng.uniform(0.1, 1.5, max(n - 1, 0)),
                    rng.uniform(0.0, 5.0), rng.uniform(0.0, 5.0),
                    rng.uniform(0.1, 2.0), rng.uniform(0.1, 2.0))


def test_generators_preserve_trace():
    for i, spec in enumerate(random_specs(21, 12)):
        approach = "global" if i % 2 else "local"
        model = assemble(spec, approach)
        tvec = vectorize(np.eye(spec.dim, dtype=complex))
        for D in model.dissipators:
            assert np.abs(tvec.conj() @ D).max() <= 1e-10
        assert np.abs(tvec.conj() @ model.liouvillian).max() <= 1e-10


def test_generators_preserve_hermiticity():
    rng = np.random.default_rng(33)
    spec = dimer(1.7, 0.9, 0.6, 2.0, 0.3)
    for approach in ("global", "local"):
        L = assemble(spec, approach).liouvillian
        for _ in range(25):
            A = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            rho = A + A.conj().T
            out = unvectorize(L @ vectorize(rho.astype(complex)), 4)
            assert np.abs(out - out.conj().T).max() <= 1e-10


def test_short_step_keeps_state_positive():
    spec = dimer(1.5, 1.5, 1.0, 3.0, 0.0)
    for approach in ("global", "local"):
        L = assemble(spec, approach).liouvillian
        rho = np.eye(4, dtype=complex) / 4.0
        stepped = rho + 0.01 * unvectorize(L @ vectorize(rho), 4)
        assert np.linalg.eigvalsh(stepped).min() >= -1e-9


def test_monomer_global_equals_local_generator():
    rng = np.random.default_rng(8)
    for _ in range(30):
        spec = monomer(rng.uniform(0.2, 5.0), rng.uniform(0.0, 10.0),
                       rng.uniform(0.0, 10.0), rng.uniform(0.1, 2.0),
                       rng.uniform(0.1, 2.0))
        g = assemble(spec, "global").liouvillian
        l = assemble(spec, "local").liouvillian
        assert np.abs(g - l).max() <= 1e-12


def test_gibbs_state_is_global_fixed_point():
    rng = np.random.default_rng(17)
    for _ in range(10):
        n = int(rng.choice([2, 3]))
        t = rng.uniform(0.4, 6.0)
        spec = chain(rng.uniform(0.3, 3.0, n), rng.uniform(0.1, 1.5, n - 1),
                     t, t, rng.uniform(0.3, 2.0), rng.uniform(0.3, 2.0))
        model = assemble(spec, "global")
        gibbs = expm(-model.hamiltonian / t)
        gibbs /= np.trace(gibbs)
        assert np.abs(model.liouvillian @ vectorize(gibbs)).max() <= 1e-9


def test_zero_temperature_bath_is_pure_decay():
    spec = dimer(1.5, 1.5, 1.0, 0.0, 0.0)
    D = assemble(spec, "local").dissipators[0]
    lower = site_operator(2, 0, "lower")
    assert np.abs(D - thermal_dissipator(lower, 1.0, 0.0)).max() == 0
    # absorption half absent: applying D to the ground state gives zero
    ground = np.zeros((4, 4), dtype=complex)
    ground[3, 3] = 1.0
    assert np.abs(D @ vectorize(ground)).max() <= 1e-14


def test_local_dimer_equal_temperatures_population():
    t = 1.3
    spec = dimer(1.5, 1.5, 1.0, t, t)
    model = assemble(spec, "local")
    rho = solve_steady(model.liouvillian).rho
    nbar = bose_occupation(1.5, t)
    expected = nbar / (1.0 + 2.0 * nbar)
    for site in range(2):
        pop = np.real(np.trace(
            site_operator(2, site, "raise") @ site_operator(2, site, "lower") @ rho))
        assert pop == pytest.approx(expected, abs=1e-12)


def test_unitary_generator_has_imaginary_spectrum():
    H = np.diag([0.75, -0.75]).astype(complex)
    L = superoperator(H, (), (), full_unknowns(2))
    assert np.abs(np.linalg.eigvals(L).real).max() <= 1e-12


def test_monomer_liouvillian_kernel_is_one_dimensional():
    model = assemble(monomer(1.0, 1.0, 0.5), "global")
    s = np.linalg.svd(model.liouvillian, compute_uv=False)
    assert np.sum(s < 1e-10 * s.max()) == 1


def test_dimension_mismatch_rejected():
    H = np.diag([0.5, -0.5]).astype(complex)
    with pytest.raises(DimensionMismatch):
        build_liouvillian(H, [np.zeros((9, 9), dtype=complex)])


def test_dense_builders_match_model():
    spec = dimer(1.7, 0.9, 0.6, 2.0, 0.3)
    for approach in ("global", "local"):
        model = assemble(spec, approach)
        if approach == "global":
            es = model.eigensystem
            dissipators = [sum(D for _, D in global_dissipator_bins(
                es, global_jump_operators(es, coupling_op(2, bath.attached_site)), bath))
                for bath in spec.baths]
        else:
            dissipators = [build_local_dissipator(spec, bath) for bath in spec.baths]
        assert np.abs(np.array(dissipators) - model.dissipators).max() <= 1e-14
        L = build_liouvillian(model.hamiltonian, dissipators)
        assert np.abs(L - model.liouvillian).max() <= 1e-14
