"""Steady states through the N x N correlation matrix of the chain's fermions.

Under the Jordan-Wigner map c_i = (prod_{j<i} (1 - 2 n_j)) sigma^-_i
(Lieb, Schultz & Mattis 1961) the chain Hamiltonian is sum_ab h_ab c_a^dag
c_b plus a constant, with h = diag(eps) and the couplings K on its
off-diagonals, and each local dissipator is linear in the c_s of its
attached site.  The generator is quadratic, so its steady state is the
Gaussian state fixed by the two-point matrix C_ij = <c_i^dag c_j> (Prosen,
NJP 10, 043026 (2008)).  Bath j at site s, with lambda_j = gamma_j (2
nbar_j + 1), adds lambda_j to Lambda_ss and gamma_j nbar_j to G_ss; with X
= i h - Lambda / 2,

    0 = X C + C X^dag + G,

N^2 real equations for the N^2 real coordinates of the Hermitian C
(:class:`~chainflux.generator.Unknowns`), built for each row from its own
X (:func:`_correlation_systems`).  C is unique exactly when X is
Hurwitz: when no eigenvector of h vanishes at every attached site, which
holds for every chain whose couplings are all nonzero (the eigenvectors of
a Jacobi matrix have nonzero end entries).  A chain with an undamped
island is singular there and gets a DegenerateKernel, by the rcond of the
N^2 system.

From C: the populations n_q = C_qq; the heat current of bath j at site s,
Q_j = h_ss gamma_j nbar_j - lambda_j sum_b h_sb Re C_sb; and the residual
|L(rho(C))|_F of the 2^N x 2^N site-basis generator on the Gaussian state,
in closed form from C (:func:`_gaussian_residuals`).  The state itself, rho
= prod_k (nu_k f_k^dag f_k + (1 - nu_k) f_k f_k^dag) with C = U diag(nu)
U^dag and f_k = sum_i U_ik c_i, is built only where it is read
(:func:`_gaussian_states`); its diagonal on the Fock states of a chain's
modes is read from C alone (:func:`fock_probabilities`).

The global generator is quadratic too: each jump is one single-particle
mode's f_k or f_k^dag (h phi_k = omega_k phi_k), the endpoint couplings
being linear in the fermions up to the total parity, which commutes with H.
Where no frequency bin holds two modes, its steady state is the Gaussian
state of C = phi diag(occ) phi^T, each mode's occupation in closed form,
and its residual the closed form above in the mode frame
(:func:`global_steady_states`).  Where a bin holds two or more, the hole
frame f~_k (f_k, or f_k^dag where omega_k < 0) makes every global generator
number-conserving, and its C~ solves the N^2 system above with that
frame's X and G (:func:`group_steady_states`); its state has the anomalous
terms c_i^dag c_j^dag of the hole modes.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .generator import full_unknowns, read_only
from .lindblad import bath_rates
from .operators import excited_qubits, qubit_bits
from .steady import check_residual, checked_inverse, unique


@lru_cache(maxsize=None)
def _fermions(n_qubits: int) -> np.ndarray:
    """c_j of every j, real (n, d, d): qubit j of b lowered, signed by the excitations before j."""
    d = 2**n_qubits
    excited = excited_qubits(n_qubits).astype(bool)
    sign = 1 - 2 * ((np.cumsum(excited, axis=0) - excited) % 2)  # sign[q, b]
    j, b = np.nonzero(excited)
    fermions = np.zeros((n_qubits, d, d))
    fermions[j, b | qubit_bits(n_qubits)[j], b] = sign[j, b]
    read_only(fermions)
    return fermions


def _correlation_systems(X: np.ndarray) -> np.ndarray:
    """The real N^2 x N^2 system of C -> X C + C X^dag of each row's X, (k, n^2, n^2).

    In column stacking the map is L = I (x) X + conj(X) (x) I, taken to the
    real coordinates x of a Hermitian C, v = U x, as Re(U^dag L U)
    (:meth:`~chainflux.generator.Unknowns.hermitian`).
    """
    k, n = X.shape[:2]
    a = np.arange(n)
    L = np.zeros((k, n, n, n, n), dtype=complex)  # [., a, i, b, j] at (a n + i, b n + j)
    L[:, a, :, a, :] = X
    L[:, :, a, :, a] += X.conj()
    return full_unknowns(n).hermitian(L.reshape(k, n * n, n * n))


def _gaussian_states(C: np.ndarray, phi: np.ndarray = None, holes: np.ndarray = None) -> np.ndarray:
    """prod_k (nu_k g_k^dag g_k + (1 - nu_k) g_k g_k^dag) of each C = U diag(nu) U^dag, (k, d, d).

    C_ij = <a_i^dag a_j> over fermions a_i: the site fermions c_i, or,
    given ``phi`` (k, n, n) and ``holes`` (k, n), the hole-frame modes a_i
    = f_i = sum_q phi_qi c_q, and f_i^dag where ``holes[:, i]``.  Then g_k
    = sum_i U_ik a_i = sum_q (u_qk c_q + v_qk c_q^dag), with the anomalous
    part v from the hole modes, and g_k^dag g_k is formed from the
    matrices of the c_q (:func:`_fermions`).  g_k g_k^dag = 1 - g_k^dag
    g_k; the factors commute, and their product is made Hermitian against
    round-off.
    """
    k, n = C.shape[:2]
    d = 2**n
    if phi is None:
        phi, holes = np.broadcast_to(np.eye(n), (k, n, n)), np.zeros((k, n), dtype=bool)
    nu, U = np.linalg.eigh(C)
    c = _fermions(n)
    fermions = np.concatenate([c, c.swapaxes(1, 2)]).reshape(2 * n, d * d)
    uv = np.concatenate([phi * ~holes[:, None, :], phi * holes[:, None, :]], axis=1) @ U
    rho = None
    for mode in range(n):
        g = (uv[:, :, mode] @ fermions).reshape(k, d, d)
        factor = g.conj().swapaxes(1, 2) @ g
        factor *= 2.0 * nu[:, mode, None, None] - 1.0
        factor[:, np.arange(d), np.arange(d)] += 1.0 - nu[:, mode, None]
        rho = factor if rho is None else rho @ factor
    rho += rho.conj().swapaxes(1, 2)
    rho *= 0.5
    return rho


def fock_probabilities(C: np.ndarray, holes: np.ndarray) -> np.ndarray:
    """Each row's probabilities of the Fock states of its modes a_k, (k, 2^n).

    C (k, n, n) is <a_k^dag a_l> of a number-conserving Gaussian state, and
    entry i is that of the state with a_k occupied where bit k of i is set:
    det(N C + (1 - N)(1 - C)), N = diag(n) (Peschel, J. Phys. A 36, L205
    (2003)).  Where ``holes`` (k, n) is set, a_k = f_k^dag, and bit k is
    the occupation of f_k.
    """
    n = C.shape[-1]
    occupied = ((np.arange(2**n)[:, None] >> np.arange(n)) & 1).astype(bool) ^ holes[:, None, :]
    M = np.where(occupied[..., None], C[:, None], np.eye(n) - C[:, None])  # rows of C or 1 - C
    return np.linalg.det(M).real


def _gaussian_residuals(X, G, C) -> np.ndarray:
    """|L(rho(C))|_F of each row's generator on the Gaussian state of its C, (k,).

    L(rho(C)) is the derivative of rho(C) along R = X C + C X^dag + G, with
    G (k, n, n), or diag(G) where G is (k, n); and Tr(rho(C1) rho(C2)) =
    det(C1 C2 + (1 - C1)(1 - C2)); so |L(rho)|^2 = d/ds d/dt det(M0 + s R
    S + t S R + 2 s t R^2) at 0, with S = 2C - 1 and M0 = C^2 + (1 - C)^2:
    det M0 (2 tr(M0^-1 R^2) + tr A tr B - tr(A B)) with A = M0^-1 R S and B
    = M0^-1 S R = S M0^-1 R, whose traces are equal.  The eigenvalues of M0
    are at least 1/2.
    """
    a = np.arange(C.shape[-1])
    R = X @ C
    R += R.conj().swapaxes(1, 2)
    if G.ndim == R.ndim:
        R += G
    else:
        R[:, a, a] += G
    S = 2.0 * C
    S[:, a, a] -= 1.0
    M0 = 2.0 * (C @ C) - S
    P = np.linalg.inv(M0) @ R
    A = P @ S  # and B = S P, with P = M0^-1 R
    trace = np.einsum("kii->k", A).real
    squares = np.linalg.det(M0).real * (2.0 * np.einsum("kij,kji->k", P, R).real + trace**2
                                         - np.einsum("kij,kji->k", A, S @ P).real)
    return np.sqrt(np.maximum(squares, 0.0))


def _generator_norms(energies, hoppings, site_rates) -> np.ndarray:
    """|L|_F of each local site-basis generator, in closed form.

    L = I (x) J + conj(J) (x) I + sum rate conj(A) (x) A with J = -iH - D,
    D = sum rate A^dag A / 2 diagonal.  The sigma^+- are traceless and
    orthogonal between sites and kinds, so every cross term vanishes but
    the one between the two J terms: |L|^2 = 2 d (|H|^2 + |D|^2) + 2 ((tr
    D)^2 - (tr H)^2) + (d / 2)^2 sum_s (emission_s^2 + absorption_s^2),
    where each coupling K_i fills d / 2 entries of H.
    """
    excited = excited_qubits(site_rates.shape[1])
    d = excited.shape[1]
    D = 0.5 * (site_rates[:, :, 0] @ excited + site_rates[:, :, 1] @ (1.0 - excited))
    squares_H = (energies**2).sum(axis=1) + d / 2 * (hoppings**2).sum(axis=1)
    squares = (2 * d * (squares_H + (D**2).sum(axis=1))
               + 2 * (D.sum(axis=1) ** 2 - energies.sum(axis=1) ** 2)
               + (d / 2) ** 2 * (site_rates**2).sum(axis=(1, 2)))
    return np.sqrt(squares)


def local_steady_states(energies: np.ndarray, h: np.ndarray, sites: np.ndarray,
                        rates: np.ndarray) -> tuple:
    """Steady states of a stack of rows under the local approach, by their correlation matrices.

    Row j has the site-basis energies energies[j] (k, d), the diagonal of
    its H, its single-particle h[j] (k, n, n)
    (:attr:`~chainflux.lindblad.ChainOperators.single_particle`), its
    reservoirs attached at the qubits sites[j] (k, 2), and each
    reservoir's emission and absorption rates gamma (nbar + 1) and gamma
    nbar in rates[j] (k, 2, 2).  Returns the populations (k, n), fluxes
    (k, 2), correlation matrices C (k, n, n), residuals |L(rho(C))|_F in
    closed form (:func:`_gaussian_residuals`) and the rcond_1 of each N^2
    system, one stacked real solve
    (:func:`~chainflux.steady.checked_inverse`).  No 2^N state is built:
    :func:`_gaussian_states` gives a row's from its C where it is read.  A
    row whose C is not unique (:func:`~chainflux.steady.unique`) gets zero
    populations, fluxes, C and residual.  A residual above RESIDUAL_TOL
    times |L| raises NoConvergence.  Every step acts on each row alone, so a
    row's results do not depend on its stack.
    """
    k, n = len(rates), h.shape[-1]
    rows = np.arange(k)[:, None]
    site_rates = np.zeros((k, n, 2))
    np.add.at(site_rates, (rows, sites), rates)
    X = 1j * h
    X[:, np.arange(n), np.arange(n)] -= 0.5 * site_rates.sum(axis=2)  # Lambda: gamma (2 nbar + 1)
    inverse, rcond = checked_inverse(_correlation_systems(X))
    solved = unique(rcond, n * n)
    unknowns = full_unknowns(n)
    source = np.zeros((k, n * n))
    source[:, unknowns.diagonal] = -site_rates[:, :, 1]  # -G
    x = np.where(solved[:, None], (inverse @ source[:, :, None])[:, :, 0], 0.0)
    C = unknowns.state(x)
    populations = np.diagonal(C, axis1=1, axis2=2).real
    h_rows = h[rows, sites]  # row s of h at each reservoir's site, (k, 2, n)
    current = (h_rows * C.real[rows, sites]).sum(axis=2)
    lam = rates.sum(axis=2)
    fluxes = h_rows[rows, np.arange(2), sites] * rates[:, :, 1] - lam * current
    fluxes[~solved] = 0.0
    residual = np.where(solved, _gaussian_residuals(X, site_rates[:, :, 1], C), 0.0)
    hoppings = h[:, np.arange(n - 1), np.arange(1, n)]
    check_residual(residual, _generator_norms(energies, hoppings, site_rates))
    return populations, fluxes, C, residual, rcond


def global_steady_states(omega: np.ndarray, phi: np.ndarray, sites: np.ndarray,
                         baths: np.ndarray) -> tuple:
    """Steady states of a stack of rows under the global approach, from their chains' modes.

    Row j's chain has the modes omega[j] (k, n) and phi[j] (k, n, n)
    (:attr:`~chainflux.lindblad.ChainOperators.modes`), its reservoirs at
    the qubits sites[j] (k, 2) and their (temperature, gamma) in baths[j]
    (k, 2, 2); its bins must not mix modes
    (:func:`~chainflux.lindblad.mode_groups`).  Then each global jump is
    f_k, or f_k^dag where omega_k < 0, at |omega_k|, with Gamma_jk = gamma_j
    phi_k(site_j)^2, and the modes relax on their own: with the emission
    and absorption rates Gamma_jk (nbar_jk + 1) and Gamma_jk nbar_jk at
    |omega_k|, Lambda_k their sum and gain_k those that fill mode k, occ_k
    = gain_k / Lambda_k and C = phi diag(occ) phi^T.  Reservoir 1 puts
    |omega_k| Gamma_1k Gamma_2k (nbar_1k - nbar_2k) / Lambda_k into mode k,
    and reservoir 2 its negative.  The residual is that of the Gaussian
    state in the mode frame (:func:`_gaussian_residuals`), with X = i
    diag(omega) - diag(Lambda) / 2, G = diag(gain) and phi^T C phi, checked
    against |L| of the mode Fock energies (:func:`_generator_norms`).
    Returns the populations (k, n), fluxes (k, 2), each reservoir's flux
    through each mode (k, 2, n), C (k, n, n), the residuals and rcond =
    min_k Lambda_k / max_k Lambda_k, the rcond_1 of the diagonal system
    Lambda_k occ_k = gain_k, 0 where a mode has no weight at an attached
    site; a row whose rcond fails :func:`~chainflux.steady.unique` for N
    unknowns gets zero results.  The only arrays of 2^N per row are the
    mode Fock energies of the norm.
    """
    k, n = omega.shape
    rows, a = np.arange(k)[:, None], np.arange(n)
    weights = phi[rows, sites] ** 2  # phi_k(site_j)^2, (k, 2, n)
    freqs = np.abs(omega)
    rates = bath_rates(np.broadcast_to(freqs[:, None], weights.shape), baths[:, :, None])
    emission, absorption = (rates[..., i] * weights for i in (0, 1))
    emitted, absorbed = emission.sum(axis=1), absorption.sum(axis=1)
    lam = emitted + absorbed
    positive = omega > 0
    gain, loss = np.where(positive, absorbed, emitted), np.where(positive, emitted, absorbed)
    rcond = lam.min(axis=1) / lam.max(axis=1)
    solved = unique(rcond, n)
    damped = lam > 0  # a dark mode's occupation is left undetermined: its row is not solved
    occupations = np.where(solved[:, None],
                           np.divide(gain, lam, where=damped, out=np.zeros_like(lam)), 0.0)
    C = (phi * occupations[:, None, :]) @ phi.swapaxes(1, 2)
    populations = np.diagonal(C, axis1=1, axis2=2)
    gamma = baths[:, :, 1, None]
    current = np.divide(freqs * weights.prod(axis=1) * (gamma[:, 1] * rates[:, 0, :, 1]
                                                        - gamma[:, 0] * rates[:, 1, :, 1]),
                        lam, where=damped, out=np.zeros_like(lam))
    channels = np.where(solved[:, None, None], current[:, None, :] * [[1.0], [-1.0]], 0.0)
    X = np.zeros((k, n, n), dtype=complex)
    X[:, a, a] = 1j * omega - 0.5 * lam
    residual = np.where(solved, _gaussian_residuals(X, gain, phi.swapaxes(1, 2) @ C @ phi), 0.0)
    energies = omega @ excited_qubits(n) - 0.5 * omega.sum(axis=1, keepdims=True)
    check_residual(residual, _generator_norms(energies, np.zeros((k, n - 1)),
                                              np.stack([loss, gain], axis=2)))
    return populations, channels.sum(axis=2), channels, C, residual, rcond


def group_steady_states(omega: np.ndarray, phi: np.ndarray, group: np.ndarray,
                        sites: np.ndarray, baths: np.ndarray) -> tuple:
    """Steady states of a stack of rows under the global approach, from their chains' mode groups.

    Row j's chain has the modes omega[j] (k, n) and phi[j] (k, n, n), each
    mode's bin ``group[j]`` (k, n) (:func:`~chainflux.lindblad.mode_groups`),
    its reservoirs at the qubits sites[j] (k, 2) and their (temperature,
    gamma) in baths[j] (k, 2, 2).  In the hole frame f~_k = f_k where
    omega_k > 0 and f_k^dag where omega_k < 0, H is sum_k |omega_k|
    f~_k^dag f~_k plus a constant, and reservoir j's bin of group g is
    A_jg = sum_{k in g} a_jk f~_k with a_jk = phi_k(site_j): every global
    generator conserves the number of f~.  At site N - 1 the coupling
    sigma^+ + sigma^- is P_tot (c - c^dag), with the total parity P_tot,
    which drops out on the even states, so a_jk is negated there for hole
    modes.  With nbar_j at the group's mean |omega|, Lambda = sum_j gamma_j
    (2 nbar_j + 1) a_j a_j^T and G = sum_j gamma_j nbar_j a_j a_j^T, each
    kept within the groups, and X = i diag|omega| - Lambda / 2, the
    hole-frame C~_kl = <f~_k^dag f~_l> solves 0 = X C~ + C~ X^dag + G: one
    stacked real N^2 system (:func:`_correlation_systems`,
    :func:`~chainflux.steady.checked_inverse`).  Reservoir j puts
    Tr(h G_j) - Re Tr(sym(h Lambda_j) C~), h = diag|omega|, into each group.
    Returns the populations (k, n), fluxes (k, 2), each reservoir's flux
    through each group (k, 2, n, by group index), C~ (k, n, n), the
    residuals (:func:`_gaussian_residuals`, against the scale of the mode
    Fock energies at each mode's diagonal rates) and the rcond_1 of each
    system; a row whose rcond fails :func:`~chainflux.steady.unique` for
    N^2 unknowns gets zero results.
    """
    k, n = omega.shape
    rows, a = np.arange(k)[:, None], np.arange(n)
    freqs, holes = np.abs(omega), omega < 0
    members = group[:, :, None] == a  # [row, mode, group]
    means = np.einsum("km,kmg->kg", freqs, members) / members.sum(axis=1).clip(1)
    coupling = phi[rows, sites] * np.where((sites == n - 1)[:, :, None] & holes[:, None, :],
                                           -1.0, 1.0)  # a_jk, (k, 2, n)
    at = np.broadcast_to(np.take_along_axis(means, group, axis=1)[:, None, :], (k, 2, n))
    rates = bath_rates(at, baths[:, :, None])  # (k, 2, n, 2) at each mode's group
    outer = coupling[:, :, :, None] * coupling[:, :, None, :]
    outer *= (group[:, :, None] == group[:, None, :])[:, None]
    lam = rates.sum(axis=3)[..., None] * outer  # Lambda_j, (k, 2, n, n)
    gain = rates[..., 1, None] * outer  # G_j
    Lambda, G = lam.sum(axis=1), gain.sum(axis=1)
    X = -0.5 * Lambda.astype(complex)
    X[:, a, a] += 1j * freqs
    inverse, rcond = checked_inverse(_correlation_systems(X))
    solved = unique(rcond, n * n)
    unknowns = full_unknowns(n)
    x = np.where(solved[:, None], (inverse @ unknowns.coordinates(-G)[:, :, None])[:, :, 0], 0.0)
    C = unknowns.state(x)
    pairs = holes[:, :, None] == holes[:, None, :]  # the normal entries <f_k^dag f_l>
    normal = np.where(pairs & ~holes[:, :, None], C,
                      np.where(pairs, np.eye(n) - C.swapaxes(1, 2), 0.0))
    populations = np.einsum("kqm,kml,kql->kq", phi, normal, phi).real
    symmetric = 0.5 * lam * (freqs[:, None, :, None] + freqs[:, None, None, :])
    per_mode = (freqs[:, None] * np.diagonal(gain, axis1=2, axis2=3)
                - (symmetric * C.real.swapaxes(1, 2)[:, None]).sum(axis=3))
    channels = np.where(solved[:, None, None], per_mode @ members, 0.0)
    residual = np.where(solved, _gaussian_residuals(X, G, C), 0.0)
    gains, losses = np.diagonal(G, axis1=1, axis2=2), np.diagonal(Lambda - G, axis1=1, axis2=2)
    energies = freqs @ excited_qubits(n) - 0.5 * freqs.sum(axis=1, keepdims=True)
    check_residual(residual, _generator_norms(energies, np.zeros((k, n - 1)),
                                              np.stack([losses, gains], axis=2)))
    return populations, channels.sum(axis=2), channels, C, residual, rcond
