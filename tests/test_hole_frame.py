"""The global rows of chains with a shared bin, from their hole frame, against the dense model.

Where two modes share a bin, the package solves the chain's global rows by
the N^2 system of its hole frame (``correlations.group_steady_states``):
f~_k = f_k where omega_k > 0 and f_k^dag where omega_k < 0.  These chains
are checked here against the dense site-basis generator of
``oracles.assemble``, which shares no layer with that route.
"""

import math

import numpy as np
import pytest

from chainflux import DegenerateKernel, DegenerateTransition, apply_axis, chain, steady_report
from chainflux.correlations import _gaussian_residuals, _gaussian_states
from chainflux.generator import full_unknowns, vectorize
from chainflux.lindblad import OMEGA_MIN, bose_occupation, chain_operators, mode_groups
from chainflux.observables import heat_flux, qubit_population
from chainflux.steady import solve_steady

from oracles import assemble, check_density_matrix


def forced_pairs():
    """Uniform N = 3..5 chains whose modes a and b sit at +-omega: eps = -K (cos a + cos b)."""
    for n in (3, 4, 5):
        angles = [k * math.pi / (n + 1) for k in range(1, n + 1)]
        for a in range(n):
            for b in range(a + 1, n):
                total = math.cos(angles[a]) + math.cos(angles[b])
                if total < -1e-9:
                    yield f"N{n}-{a + 1}{b + 1}", chain([-total] * n, [1.0] * (n - 1), 2.0, 0.5,
                                                         0.8, 1.3)
    # two equal uncoupled qubits: a same-sign bin of two modes
    yield "same-sign", chain([1.5, 1.5], [0.0], 2.0, 0.5, 0.8, 1.3)


PAIRS = list(forced_pairs())
TEMPERATURES = {"hot-cold": (2.0, 0.5), "swapped": (0.5, 2.0), "zero": (0.0, 1.3)}
CASES = [(name, spec, t) for name, spec in PAIRS for t in TEMPERATURES]


def at_temperatures(spec, t1, t2):
    return apply_axis(apply_axis(spec, "t1", t1), "t2", t2)


def test_the_forced_chains_share_a_bin():
    # and a pair of modes of one parity of the uniform chain keeps a unique
    # state, one of opposite parities does not (a consecutive pair's
    # reservoirs couple to one combination of its modes)
    solved = []
    for name, spec in PAIRS:
        group = mode_groups(chain_operators([spec]))[0][0]
        assert group[-1] < spec.n_qubits - 1
        try:
            steady_report(spec, "global")
            solved.append(name)
        except DegenerateKernel:
            pass
    assert solved == ["N4-24", "N5-35", "same-sign"]


def dense_solve(spec):
    """The dense model and its steady state, or the error the dense route raises."""
    model = assemble(spec, "global")
    try:
        return model, solve_steady(model.liouvillian).rho
    except DegenerateKernel as error:
        return model, error


@pytest.mark.parametrize("name, spec, temperatures", CASES,
                         ids=[f"{name}-{t}" for name, _, t in CASES])
def test_hole_frame_rows_match_the_dense_model(name, spec, temperatures):
    spec = at_temperatures(spec, *TEMPERATURES[temperatures])
    model, dense = dense_solve(spec)
    if isinstance(dense, Exception):
        # a consecutive pair of the uniform chain: both reservoirs couple to
        # one combination of its two modes, and the other is undamped
        with pytest.raises(DegenerateKernel):
            steady_report(spec, "global")
        return
    report = steady_report(spec, "global")
    n = spec.n_qubits
    assert report.unknowns == n * n and 0 < report.rcond <= 1
    assert np.abs(report.rho - dense).max() <= 1e-12
    check_density_matrix(report.rho, herm_tol=1e-14, trace_tol=1e-13, eig_floor=-1e-13)
    populations = [qubit_population(dense, q) for q in range(n)]
    assert np.abs(np.subtract(report.populations, populations)).max() <= 1e-12
    fluxes = [heat_flux(model.hamiltonian, D, dense) for D in model.dissipators]
    assert np.abs(np.subtract(report.fluxes, fluxes)).max() <= 1e-12
    assert abs(sum(report.fluxes)) <= 1e-12
    # channel by channel: each reservoir's bins, and the flux of each on the dense state
    for j, (bins, channels) in enumerate(zip(model.bins, report.channel_fluxes)):
        assert len(bins) == len(channels)
        for (omega, A), (ours, flux) in zip(bins, channels):
            assert ours == pytest.approx(omega, rel=1e-12)
            A = model.to_site(A)
            Ad = A.conj().T
            emission, absorption = _bin_rates(spec.baths[j], omega)
            D = (emission * (A @ dense @ Ad - 0.5 * (Ad @ A @ dense + dense @ Ad @ A))
                 + absorption * (Ad @ dense @ A - 0.5 * (A @ Ad @ dense + dense @ A @ Ad)))
            assert flux == pytest.approx(np.trace(model.hamiltonian @ D).real, abs=1e-12)
    residual = np.linalg.norm(model.liouvillian @ vectorize(report.rho))
    assert abs(report.residual - residual) <= 1e-12


def _bin_rates(bath, omega):
    nbar = bose_occupation(omega, bath.temperature)
    return bath.gamma * (nbar + 1.0), bath.gamma * nbar


@pytest.mark.parametrize("name, spec", PAIRS, ids=[name for name, _ in PAIRS])
def test_hole_frame_rows_at_equal_temperatures_are_the_gibbs_state(name, spec):
    spec = at_temperatures(spec, 1.1, 1.1)
    model, dense = dense_solve(spec)
    H = model.hamiltonian
    energies, vectors = np.linalg.eigh(H)
    weights = np.exp(-(energies - energies.min()) / 1.1)
    gibbs = (vectors * (weights / weights.sum())) @ vectors.conj().T
    if isinstance(dense, Exception):
        with pytest.raises(DegenerateKernel):
            steady_report(spec, "global")
        return
    report = steady_report(spec, "global")
    assert np.abs(report.rho - gibbs).max() <= 1e-12
    assert np.abs(report.fluxes).max() <= 1e-12


def hole_frame_generator(spec):
    """X = i diag|omega| - Lambda / 2 and G of the hole frame, term by term, and its modes."""
    chains = chain_operators([spec])
    omega, phi = (a[0] for a in chains.modes)
    group = mode_groups(chains)[0][0]
    n = spec.n_qubits
    holes = omega < 0
    freqs = np.abs(omega)
    lam, gain = np.zeros((n, n)), np.zeros((n, n))
    for bath in spec.baths:
        site = bath.attached_site
        a = phi[site] * np.where(holes & (site == n - 1), -1.0, 1.0)
        for g in set(group.tolist()):
            members = group == g
            nbar = bose_occupation(freqs[members].mean(), bath.temperature)
            outer = np.outer(a * members, a * members)
            lam += bath.gamma * (2 * nbar + 1) * outer
            gain += bath.gamma * nbar * outer
    return 1j * np.diag(freqs) - 0.5 * lam, gain, phi, holes


@pytest.mark.parametrize("name, spec", PAIRS, ids=[name for name, _ in PAIRS])
def test_the_hole_frame_residual_is_the_dense_generator_on_random_states(name, spec):
    # the closed-form |L(rho(C~))|_F, with G a matrix, against the dense
    # generator on the Gaussian state of random hole-frame correlations
    X, G, phi, holes = hole_frame_generator(spec)
    n = spec.n_qubits
    rng = np.random.default_rng(n + len(name))
    Z = rng.normal(size=(4, n, n)) + 1j * rng.normal(size=(4, n, n))
    U = np.linalg.qr(Z)[0]
    C = (U * rng.uniform(0.0, 1.0, (4, 1, n))) @ U.conj().swapaxes(1, 2)
    rho = _gaussian_states(C, np.repeat(phi[None], 4, axis=0), np.repeat(holes[None], 4, axis=0))
    for state in rho:
        check_density_matrix(state, herm_tol=1e-14, trace_tol=1e-13, eig_floor=-1e-13)
    L = assemble(spec, "global").liouvillian
    dense = np.linalg.norm(np.einsum("ij,kj->ki", L, rho.reshape(4, -1, order="F")), axis=1)
    ours = _gaussian_residuals(np.repeat(X[None], 4, axis=0), np.repeat(G[None], 4, axis=0), C)
    assert np.abs(ours - dense).max() <= 1e-12 * dense.max()
    assert dense.min() > 1e-3  # not steady states


def test_the_uniform_n4_chain_at_k_3_over_sqrt5_has_no_unique_global_state():
    # modes 3 and 4 at +-0.671: both reservoirs couple to one combination
    # of the pair, so the system of the hole frame is singular, as the
    # dense generator's kernel is degenerate
    spec = chain([1.5] * 4, [3 / math.sqrt(5)] * 3, 2.0, 0.5)
    group = mode_groups(chain_operators([spec]))[0][0]
    assert group.tolist() == [0, 0, 1, 2]
    with pytest.raises(DegenerateKernel):
        steady_report(spec, "global")
    with pytest.raises(DegenerateKernel):
        solve_steady(assemble(spec, "global").liouvillian)


def test_a_bright_zero_mode_gives_its_mode_s_transition():
    # the message and omega are those of the chain's smallest bright
    # |omega_k|; the 2^N jump scan of the dense model degenerates too, at a
    # many-body gap of round-off size
    spec = chain([1.5] * 4, [1.5 / (2 * math.cos(math.pi / 5))] * 3, 2.0, 0.5)
    with pytest.raises(DegenerateTransition) as raised:
        steady_report(spec, "global")
    omega = np.abs(chain_operators([spec]).modes[0][0])
    assert raised.value.omega == omega[0] <= OMEGA_MIN < omega[1]
    assert str(raised.value) == f"mode at |omega| = {omega[0]:.3e} below cutoff 1.0e-08"
    with pytest.raises(DegenerateTransition) as dense:
        assemble(spec, "global")
    assert dense.value.omega <= OMEGA_MIN


def test_coordinates_invert_state():
    rng = np.random.default_rng(3)
    for n in (1, 2, 4):
        unknowns = full_unknowns(n)
        x = rng.normal(size=(3, n * n))
        assert np.abs(unknowns.coordinates(unknowns.state(x)) - x).max() <= 1e-15
