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
U^dag and f_k = sum_i U_ik c_i, is built from cached c_i^dag c_j tables
only where it is read (:func:`_gaussian_states`).

The global generator is quadratic too where no frequency bin holds two
modes h phi_k = omega_k phi_k: each jump is then one mode's f_k or f_k^dag,
the endpoint couplings being linear in the fermions up to the total
parity, which commutes with H.  Its steady state is the Gaussian state of
C = phi diag(occ) phi^T, each mode's occupation in closed form, and its
residual the closed form above in the mode frame
(:func:`global_steady_states`).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .generator import full_unknowns, read_only
from .lindblad import bath_rates
from .operators import excited_qubits, qubit_bits
from .steady import check_residual, checked_inverse, unique


@lru_cache(maxsize=None)
def _pair_tables(n_qubits: int) -> np.ndarray:
    """c_i^dag c_j of every (i, j), as complex (n^2, d^2) rows: i n + j holds its d x d matrix.

    c_j lowers qubit j of b, then c_i^dag raises qubit i; each multiplies
    by (-1)^(excited qubits before its site) of the state it acts on.
    """
    d = 2**n_qubits
    excited = excited_qubits(n_qubits).astype(bool)
    bits = qubit_bits(n_qubits)
    sign = 1 - 2 * ((np.cumsum(excited, axis=0) - excited) % 2)  # sign[q, b]
    lowered = np.arange(d) | bits[:, None]  # [j, b]: b with qubit j lowered
    i, j, b = np.nonzero(excited & ~excited[:, lowered])  # j excited in b, i not in lowered[j, b]
    tables = np.zeros((n_qubits, n_qubits, d, d), dtype=complex)
    tables[i, j, lowered[j, b] & ~bits[i], b] = sign[j, b] * sign[i, lowered[j, b]]
    tables = tables.reshape(n_qubits**2, d * d)
    read_only(tables)
    return tables


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


def _gaussian_states(C: np.ndarray) -> np.ndarray:
    """prod_k (nu_k f_k^dag f_k + (1 - nu_k) f_k f_k^dag) of each C = U diag(nu) U^dag, (k, d, d).

    f_k^dag f_k = sum_ij conj(U_ik) U_jk c_i^dag c_j, and f_k f_k^dag = 1
    - f_k^dag f_k; the factors commute, and their product is made Hermitian
    against round-off.
    """
    k, n = C.shape[:2]
    tables = _pair_tables(n)
    d = int(np.sqrt(tables.shape[1]))
    nu, U = np.linalg.eigh(C)
    rho = None
    for mode in range(n):
        u = U[:, :, mode]
        weights = (u.conj()[:, :, None] * u[:, None, :]).reshape(k, 1, n * n)
        factor = (weights @ tables).reshape(k, d, d)
        factor *= 2.0 * nu[:, mode, None, None] - 1.0
        factor[:, np.arange(d), np.arange(d)] += 1.0 - nu[:, mode, None]
        rho = factor if rho is None else rho @ factor
    rho += rho.conj().swapaxes(1, 2)
    rho *= 0.5
    return rho


def _gaussian_residuals(X, absorption, C) -> np.ndarray:
    """|L(rho(C))|_F of each row's site-basis generator on the Gaussian state of its C, (k,).

    L(rho(C)) is the derivative of rho(C) along R = X C + C X^dag + G, with
    G = diag(absorption), and Tr(rho(C1) rho(C2)) = det(C1 C2 + (1 - C1)(1
    - C2)); so |L(rho)|^2 = d/ds d/dt det(M0 + s R S + t S R + 2 s t R^2) at
    0, with S = 2C - 1 and M0 = C^2 + (1 - C)^2: det M0 (2 tr(M0^-1 R^2) +
    tr A tr B - tr(A B)) with A = M0^-1 R S and B = M0^-1 S R = S M0^-1 R,
    whose traces are equal.  The eigenvalues of M0 are at least 1/2.
    """
    a = np.arange(C.shape[-1])
    R = X @ C
    R += R.conj().swapaxes(1, 2)
    R[:, a, a] += absorption
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
    (:func:`~chainflux.lindblad.mode_route`).  Then each global jump is
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
    Lambda_k occ_k = gain_k; a row whose rcond fails
    :func:`~chainflux.steady.unique` for N unknowns gets zero results.  The
    only arrays of 2^N per row are the mode Fock energies of the norm.
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
    occupations = np.where(solved[:, None], gain / lam, 0.0)
    C = (phi * occupations[:, None, :]) @ phi.swapaxes(1, 2)
    populations = np.diagonal(C, axis1=1, axis2=2)
    gamma = baths[:, :, 1, None]
    current = freqs * weights.prod(axis=1) * (gamma[:, 1] * rates[:, 0, :, 1]
                                              - gamma[:, 0] * rates[:, 1, :, 1]) / lam
    channels = np.where(solved[:, None, None], current[:, None, :] * [[1.0], [-1.0]], 0.0)
    X = np.zeros((k, n, n), dtype=complex)
    X[:, a, a] = 1j * omega - 0.5 * lam
    residual = np.where(solved, _gaussian_residuals(X, gain, phi.swapaxes(1, 2) @ C @ phi), 0.0)
    energies = omega @ excited_qubits(n) - 0.5 * omega.sum(axis=1, keepdims=True)
    check_residual(residual, _generator_norms(energies, np.zeros((k, n - 1)),
                                              np.stack([loss, gain], axis=2)))
    return populations, channels.sum(axis=2), channels, C, residual, rcond
