"""The local rows through the N x N correlation matrix, against the real block and their limits.

Also the global free-fermion form, the one oracle of the eigenbasis route
that shares no layer with it.
"""

import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chainflux.correlations
from chainflux import (
    DegenerateKernel,
    DegenerateTransition,
    SweepRequest,
    apply_axis,
    build_chain_hamiltonian,
    chain,
    figure_requests,
    parse_config,
    run_sweep,
    steady_report,
)
from chainflux.lindblad import chain_operators
from chainflux.observables import steady_reports
from chainflux.operators import site_operator

from oracles import (
    assemble,
    correlation_basis,
    free_fermion_form,
    global_free_fermion,
    block_reports,
    mode_fock_diagonals,
    pair_tables,
    site_generator,
    summed_generator_norms,
)
from test_hermitian_solve import load_workloads

REPO = Path(__file__).resolve().parent.parent


def seeded_chains(seed, n, count):
    """Random non-uniform chains of n qubits, T2 = 0 in every third."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        yield chain(rng.uniform(0.3, 3.0, n), rng.uniform(0.1, 1.5, n - 1) * rng.choice([-1, 1]),
                    rng.uniform(0.0, 5.0), 0.0 if i % 3 == 0 else rng.uniform(0.0, 5.0),
                    rng.uniform(0.1, 2.0), rng.uniform(0.1, 2.0))


def grid_specs(request):
    return [apply_axis(request.base, request.axis, value) for value in request.grid]


def local_grids():
    for name, request in figure_requests().items():
        yield name, grid_specs(request)
    yield "kscan4.cfg", grid_specs(parse_config((REPO / "configs" / "kscan4.cfg").read_text()))
    workloads = load_workloads()
    for seed in (1, 2, 3):
        ((_, request),) = workloads.build_requests("kscan4_par", seed)
        yield f"kscan4_par-{seed}", grid_specs(request)
    for n, count in ((1, 8), (2, 8), (3, 8), (4, 6), (5, 4)):
        yield f"seeded-N{n}", list(seeded_chains(700 + n, n, count))


LOCAL_GRIDS = list(local_grids())


@pytest.mark.parametrize("specs", [specs for _, specs in LOCAL_GRIDS],
                         ids=[name for name, _ in LOCAL_GRIDS])
def test_local_rows_match_the_real_block_oracle(specs):
    (rows,) = steady_reports(specs, ("local",))
    block = block_reports(specs, "local")
    assert not rows.errors and not block.errors
    assert np.abs(rows.populations - block.populations).max() <= 1e-12
    assert np.abs(rows.fluxes - block.fluxes).max() <= 1e-12
    assert np.abs(rows.states(slice(None)) - block.rho).max() <= 1e-12
    for row, expected in zip(rows, block):
        assert len(row.channel_fluxes) == len(expected.channel_fluxes) == 2
        for ours, theirs in zip(row.channel_fluxes, expected.channel_fluxes):
            assert [omega for omega, _ in ours] == [omega for omega, _ in theirs]
            assert np.abs(np.subtract([q for _, q in ours], [q for _, q in theirs])).max() <= 1e-12
        assert row.unknowns == row.spec.n_qubits**2 and row.residual <= 1e-12


def local_generator(spec):
    """The dense local generator of ``spec``, and its site energies, hoppings and site rates."""
    model = assemble(spec, "local")
    n = spec.n_qubits
    site_rates = np.zeros((1, n, 2))
    for bath, pair in zip(spec.baths, model.rates.reshape(2, 2)):
        site_rates[0, bath.attached_site] += pair
    energies = np.diagonal(model.hamiltonian).real[None]
    return model.liouvillian, energies, np.array([spec.couplings]), site_rates


def random_correlations(rng, n, count):
    """Hermitian C with eigenvalues in [0, 1]: correlation matrices of no steady state."""
    Z = rng.normal(size=(count, n, n)) + 1j * rng.normal(size=(count, n, n))
    U = np.linalg.qr(Z)[0]
    return (U * rng.uniform(0.0, 1.0, (count, 1, n))) @ U.conj().swapaxes(1, 2)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_the_closed_form_residual_is_the_dense_generator_on_the_gaussian_state(n):
    # |L(rho(C))|_F from C alone, against the dense local generator applied
    # to the rebuilt 2^N state, on random C of no steady state
    spec = next(seeded_chains(720 + n, n, 1))
    L, energies, hoppings, site_rates = local_generator(spec)
    C = random_correlations(np.random.default_rng(n), n, 6)
    X = 1j * chain_operators([spec]).single_particle - 0.5 * np.diag(site_rates[0].sum(axis=1))
    G = np.diag(site_rates[0, :, 1])[None].repeat(len(C), 0)
    closed = chainflux.correlations._gaussian_residuals(X.repeat(len(C), 0), G, C)
    rho = chainflux.correlations._gaussian_states(C)
    dense = np.linalg.norm(np.einsum("ab,kb->ka", L, rho.transpose(0, 2, 1).reshape(len(C), -1)),
                           axis=1)
    assert np.all(dense > 1e-3)
    assert np.all(np.abs(closed - dense) <= 1e-12 * dense)


def test_the_gather_oracle_is_the_dense_generator():
    # the 2^N generator applied by gathers and scalings, and |L| in closed
    # form, against the dense local generator
    for n in range(1, 6):
        spec = next(seeded_chains(720 + n, n, 1))
        L, energies, hoppings, site_rates = local_generator(spec)
        x = np.random.default_rng(n).normal(size=(spec.dim, spec.dim))
        applied = site_generator(energies, hoppings, x[None].astype(complex), site_rates)
        assert np.abs(applied[0] - (L @ x.reshape(-1, order="F")).reshape(
            spec.dim, spec.dim, order="F")).max() <= 1e-12 * np.abs(L).max()
        norm = chainflux.correlations._generator_norms(np.array([spec.epsilons]), hoppings,
                                                       site_rates)[0]
        assert norm == pytest.approx(np.linalg.norm(L), rel=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_the_closed_form_generator_norm_is_the_sum_over_the_2n_diagonal(n):
    # |L|_F from the N gaps, couplings and site rates, against the sum over
    # the 2^N diagonals of H and D (oracles), on random draws: gaps of
    # either sign (the modes omega_k of the global rows), rows at T = 0 (no
    # absorption), sites with no bath and chains with no coupling
    rng = np.random.default_rng(90 + n)
    k = 200
    gaps = rng.uniform(-3.0, 3.0, (k, n)) * rng.choice([1e-3, 1.0, 1e3], (k, 1))
    hoppings = rng.uniform(-2.0, 2.0, (k, n - 1)) * rng.choice([0.0, 1.0], (k, 1))
    site_rates = rng.uniform(0.0, 5.0, (k, n, 2)) * rng.choice([0.0, 1.0], (k, n, 1))
    site_rates[: k // 4, :, 1] = 0.0
    closed = chainflux.correlations._generator_norms(gaps, hoppings, site_rates)
    summed = summed_generator_norms(gaps, hoppings, site_rates)
    assert (np.abs(closed - summed) <= 1e-14 * summed).all()
    assert (closed > 0).all()


def test_solved_rows_have_round_off_residuals():
    for n in range(1, 6):
        (rows,) = steady_reports(list(seeded_chains(780 + n, n, 6)), ("local",))
        assert not rows.errors
        assert rows.residual.max() <= 1e-12


def fermion_pairs(n):
    """c_i^dag c_j of every (i, j), (n^2, d^2), from the package's matrices of the c_i."""
    c = chainflux.correlations._fermions(n)
    return (c.swapaxes(1, 2)[:, None] @ c[None]).reshape(n * n, -1)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_the_cached_tables_equal_their_dense_builders(n):
    # the pairs of the c_i, by index arithmetic, are bit for bit the dense
    # Jordan-Wigner strings; each row's correlation system, built from its
    # own X, is the oracle basis of the broadcast map contracted with the
    # row's coefficients (Lambda_qq, then h_ab), to round-off
    assert np.array_equal(fermion_pairs(n), pair_tables(n))
    chains = chain_operators(list(seeded_chains(760 + n, n, 6)))
    h = chains.single_particle
    decay = np.random.default_rng(n).uniform(0.0, 5.0, (len(h), n))
    X = 1j * h
    X[:, np.arange(n), np.arange(n)] -= 0.5 * decay
    systems = chainflux.correlations._correlation_systems(X)
    coefficients = np.concatenate([decay, h.reshape(len(h), n * n)], axis=1)
    expected = (coefficients @ correlation_basis(n)).reshape(systems.shape)
    scale = np.abs(expected).max(axis=(1, 2))
    assert systems.shape == (len(h), n * n, n * n)
    assert np.all(np.abs(systems - expected).max(axis=(1, 2)) <= 4 * np.finfo(float).eps * scale)


def test_the_pair_tables_are_products_of_jordan_wigner_fermions():
    # c_i^dag c_j is the adjoint of c_j^dag c_i, c_i^dag c_i is the qubit's
    # sigma^+ sigma^-, and H is sum_ab h_ab c_a^dag c_b minus sum eps / 2
    for n in range(1, 6):
        d = 2**n
        tables = fermion_pairs(n).reshape(n, n, d, d)
        assert np.array_equal(tables, tables.transpose(1, 0, 3, 2))
        for i in range(n):
            lower = site_operator(n, i, "lower").real
            assert np.array_equal(tables[i, i], lower.T @ lower)
        eye = np.eye(d)
        spec = next(seeded_chains(740 + n, n, 1))
        h = chain_operators([spec]).single_particle[0]
        H = np.einsum("ab,abxy->xy", h, tables) - 0.5 * sum(spec.epsilons) * eye
        assert np.abs(H - build_chain_hamiltonian(spec)).max() <= 1e-14


# ------------------------------------------------------- states on demand


def local_t1_sweep(points, outputs):
    """A local-only T1 sweep of the uniform N = 5 chain."""
    return SweepRequest(base=chain([1.5] * 5, [1.0] * 4, 1.0, 0.0), axis="t1",
                        grid=tuple(np.linspace(0.1, 5.0, points).tolist()),
                        approaches=("local",), outputs=outputs)


def test_a_local_sweep_builds_no_state(monkeypatch):
    # populations, fluxes, residuals and the mode Fock diagonals come from C
    # alone: no 2^N state is built.  The diagonals are those of the row's
    # state on its chain's mode Fock states (oracles), in the stated order
    def refuse(*args):
        raise AssertionError("a 2^N state was built")

    request = local_t1_sweep(40, ("populations", "heat_flux"))
    lean = run_sweep(request)
    with monkeypatch.context() as patch:
        patch.setattr(chainflux.correlations, "_gaussian_states", refuse)
        patch.setattr(chainflux.correlations, "_fermions", refuse)
        table = run_sweep(replace(request, outputs=("populations", "heat_flux", "rho_diagonals")))
    assert len(table.rows) == len(request.grid) and not table.skipped
    for row, same in zip(table.rows, lean.rows):
        assert (row.populations, row.fluxes, row.residual) == \
            (same.populations, same.fluxes, same.residual)
        (columns,) = steady_reports([apply_axis(request.base, "t1", row.axis_value)], ("local",))
        omega, phi = (a[0] for a in columns.chains.modes)
        expected = mode_fock_diagonals(columns.states([0])[0], omega, phi)
        assert np.abs(np.subtract(row.diagonals, expected)).max() <= 1e-12


def test_a_local_sweep_keeps_no_states_in_memory():
    # 500 rows of N = 5: their states alone would be 8.2 MB.  The traced peak
    # of the warm sweep was 9.8 MB while each row kept its state, and is
    # 1.5 MB with its correlation matrix alone
    request = local_t1_sweep(500, ("populations", "heat_flux"))
    run_sweep(request)
    tracemalloc.start()
    try:
        run_sweep(request)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4e6


# ------------------------------------------------------------- uniqueness

# an undamped island: the middle qubit of N = 3 at K = (0, 0), and the pair
# of qubits 2, 3 of N = 5 at K = (1, 0, 1, 0), touch neither reservoir
ISLANDS = [chain([1.5, 1.2, 0.9], [0.0, 0.0], 1.0, 0.3),
           chain([1.5, 1.2, 0.9, 1.1, 1.3], [1.0, 0.0, 1.0, 0.0], 1.0, 0.3)]


@pytest.mark.parametrize("spec", ISLANDS, ids=["N3", "N5"])
def test_an_undamped_island_has_no_unique_local_state(spec):
    with pytest.raises(DegenerateKernel) as err:
        steady_report(spec, "local")
    assert err.value.rcond <= spec.n_qubits**4 * np.finfo(float).eps
    # its row is no result: zero C, populations, fluxes and residual
    (rows,) = steady_reports([spec], ("local",))
    assert list(rows.errors) == [0]
    for column in (rows.correlations, rows.populations, rows.fluxes, rows.residual):
        assert not column.any()
    request = parse_config("\n".join([
        f"n_qubits = {spec.n_qubits}",
        f"epsilons = {', '.join(map(repr, spec.epsilons))}",
        f"couplings = {', '.join(map(repr, spec.couplings))}",
        "t1 = 1.0", "t2 = 0.3", "axis = t1", "grid = 0.5, 1.0, 2.0", "approaches = local"]))
    table = run_sweep(request)
    assert len(table.rows) == 0
    assert [(s.axis_value, s.approach) for s in table.skipped] == [
        (t, "local") for t in (0.5, 1.0, 2.0)]
    assert all(s.reason.startswith("degenerate-kernel") for s in table.skipped)


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(n=st.integers(1, 5), data=st.data())
def test_no_local_chain_with_every_coupling_nonzero_is_rejected(n, data):
    # a Jacobi matrix's eigenvectors have nonzero end entries, so every mode
    # is damped by both reservoirs and X = i h - Lambda / 2 is Hurwitz
    gaps = data.draw(st.lists(st.floats(0.1, 10.0), min_size=n, max_size=n))
    size = st.floats(0.05, 5.0)
    couplings = data.draw(st.lists(st.tuples(size, st.sampled_from([-1.0, 1.0])),
                                   min_size=n - 1, max_size=n - 1))
    spec = chain(gaps, [k * sign for k, sign in couplings], data.draw(st.floats(0.0, 20.0)),
                 data.draw(st.floats(0.0, 20.0)), data.draw(st.floats(0.05, 5.0)),
                 data.draw(st.floats(0.05, 5.0)))
    report = steady_report(spec, "local")
    assert report.rcond > n**4 * np.finfo(float).eps


# --------------------------------------------------- global free fermions


def non_uniform_chains(count):
    """Random non-uniform chains whose modes all have |omega_k| >= 0.05.

    Nearer a zero mode the Bose occupations T / |omega| scale the solve's
    round-off past 1e-12 (1.5e-12 in Q1 at omega = -1e-3, T = 5).
    """
    rng = np.random.default_rng(800)
    i = 0
    while i < count:
        n = 1 + i % 5
        spec = chain(rng.uniform(0.3, 3.0, n), rng.uniform(0.1, 1.5, n - 1) * rng.choice([-1, 1]),
                     rng.uniform(0.0, 5.0), 0.0 if i % 4 == 0 else rng.uniform(0.0, 5.0),
                     rng.uniform(0.1, 2.0), rng.uniform(0.1, 2.0))
        h = chain_operators([spec]).single_particle[0]
        if np.abs(np.linalg.eigvalsh(h)).min() >= 0.05:
            yield spec
            i += 1


def test_global_reports_match_the_free_fermion_form():
    checked = 0
    for spec in non_uniform_chains(40):
        report = steady_report(spec, "global")
        occ, populations, q1 = global_free_fermion(spec)
        assert np.all((0 <= occ) & (occ <= 1))
        assert np.abs(np.subtract(report.populations, populations)).max() <= 1e-12
        assert abs(report.fluxes[0] - q1) <= 1e-12
        checked += 1
    assert checked == 40


def test_the_mixed_bin_chain_trips_the_guard_which_it_needs():
    # two modes of eps = 1.5, K = 3 share |omega| = 3.354: one frequency bin
    # holds both, and its cross terms move the state off the product form
    spec = chain([1.5] * 4, [3.0] * 3, 1.0, 0.5)
    with pytest.raises(DegenerateTransition, match="share"):
        global_free_fermion(spec)
    _, populations, q1 = free_fermion_form(spec)
    report = steady_report(spec, "global")
    assert np.abs(np.subtract(report.populations, populations)).max() > 1e-5
    assert abs(report.fluxes[0] - q1) > 1e-3


def test_a_zero_mode_trips_the_guard():
    spec = chain([1.5] * 2, [1.5], 1.0, 0.5)  # eps - K = 0
    with pytest.raises(DegenerateTransition, match="below the cutoff"):
        global_free_fermion(spec)
