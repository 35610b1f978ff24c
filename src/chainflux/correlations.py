"""Steady states through the N x N correlation matrix of the chain's fermions.

Under the Jordan-Wigner map c_i = (prod_{j<i} (1 - 2 n_j)) sigma^-_i
(Lieb, Schultz & Mattis 1961) the chain Hamiltonian is sum_ab h_ab c_a^dag
c_b plus a constant, with h = diag(eps) and the couplings K on its
off-diagonals, and each local dissipator is linear in the c_s of its
attached site.  The generator is quadratic, so its steady state is the
Gaussian state fixed by the two-point matrix C_ij = <c_i^dag c_j> (Prosen,
NJP 10, 043026 (2008)), and with X = i h - Lambda / 2,

    0 = X C + C X^dag + G,

N^2 real equations for the N^2 real coordinates of the Hermitian C
(:class:`~chainflux.generator.Unknowns`), built for each row from its own
X (:func:`_correlation_systems`).  :func:`quadratic_steady_states` solves
it for any fermions the baths drain (a local row's drain the c_s of their
sites), and gives the channel fluxes, read from the colder bath, and the
inputs of the residual |L(rho(C))|_F of the 2^N x 2^N generator on the
Gaussian state, in closed form from C (:func:`_gaussian_residuals`), and
of its scale (:func:`_generator_norms`).  C is unique exactly when X is
Hurwitz: for a local row, when no eigenvector of h vanishes at every
attached site, which holds for every chain whose couplings are all
nonzero (the eigenvectors of a Jacobi matrix have nonzero end entries).
A chain with an undamped island is singular there and gets a
DegenerateKernel, by the rcond of the N^2 system.  The state itself, rho =
prod_k (nu_k f_k^dag f_k + (1 - nu_k) f_k f_k^dag) with C = U diag(nu)
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
number-conserving, and its C~ is the :func:`quadratic_steady_states` of
h = diag|omega| with a channel per bin (:func:`group_steady_states`); its
state has the anomalous terms c_i^dag c_j^dag of the hole modes.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .generator import full_unknowns, read_only
from .lindblad import bath_rates
from .operators import excited_qubits, qubit_bits
from .steady import _EPS, stacked_inverse, unique


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
        phi, holes = np.eye(n), np.zeros((k, n), dtype=bool)
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
    the occupation of f_k.  All 2^n patterns share the pivot-free LU of
    that matrix, one mode at a time: a branch's conditional occupation q =
    S_00 of a_j weighs its filled child by q and its empty one by 1 - q,
    whose C is S_11 - S_10 S_01 / p, p = q or q - 1, or S_11 where |p| <=
    8 eps, a child of weight at most 8 eps that nothing is divided by.
    """
    k, n = C.shape[:2]
    P, S = np.ones((k, 1, 1)), C[:, None, None]
    for j in range(n):
        q = S[..., 0, 0].real  # (k, 1, branches)
        filled = (np.arange(2) != holes[:, j, None])[:, :, None]  # a_j in the child of bit j
        P = (P * np.where(filled, q, 1.0 - q)).reshape(k, 1, -1)
        pivot = q - ~filled
        ratio = np.divide(1.0, pivot, out=np.zeros(pivot.shape), where=np.abs(pivot) > 8 * _EPS)
        S = S[..., 1:, 1:] - ratio[..., None, None] * S[..., 1:, :1] * S[..., :1, 1:]
        S = S.reshape(k, 1, 2 << j, n - j - 1, n - j - 1)
    return P.reshape(k, -1)


def _gaussian_residuals(X, G, C) -> np.ndarray:
    """|L(rho(C))|_F of each row's generator on the Gaussian state of its C, (k,).

    L(rho(C)) is the derivative of rho(C) along R = X C + C X^dag + G, all
    (k, n, n); and Tr(rho(C1) rho(C2)) =
    det(C1 C2 + (1 - C1)(1 - C2)); so |L(rho)|^2 = d/ds d/dt det(M0 + s R
    S + t S R + 2 s t R^2) at 0, with S = 2C - 1 and M0 = C^2 + (1 - C)^2:
    det M0 (2 tr(M0^-1 R^2) + tr A tr B - tr(A B)) with A = M0^-1 R S and B
    = M0^-1 S R = S M0^-1 R, whose traces are equal.  The eigenvalues of M0
    are at least 1/2.  |L| is linear in R, so each row's R is scaled by the
    normal power of two nearest max |R_ij|: no square over- or underflows.
    """
    a = np.arange(C.shape[-1])
    R = X @ C
    R += R.conj().swapaxes(1, 2)
    R += G
    e = np.minimum(np.maximum(np.frexp(np.abs(R).max(axis=(1, 2)))[1], -1021), 1021)
    R *= np.ldexp(1.0, -e)[:, None, None]
    S = 2.0 * C
    S[:, a, a] -= 1.0
    M0 = 2.0 * (C @ C) - S
    P = np.linalg.inv(M0) @ R
    A = P @ S  # and B = S P, with P = M0^-1 R
    trace = np.einsum("kii->k", A).real
    squares = np.linalg.det(M0).real * (2.0 * np.einsum("kij,kji->k", P, R).real + trace**2
                                         - np.einsum("kij,kji->k", A, S @ P).real)
    return np.ldexp(np.sqrt(np.maximum(squares, 0.0)), e)


def _generator_norms(gaps, hoppings, site_rates) -> np.ndarray:
    """|L|_F of each local site-basis generator, in closed form from its N x N data.

    L = I (x) J + conj(J) (x) I + sum rate conj(A) (x) A with J = -iH - D,
    D = sum rate A^dag A / 2 diagonal.  The sigma^+- are traceless and
    orthogonal between sites and kinds, so every cross term vanishes but
    the one between the two J terms: |L|^2 = 2 d (|H|^2 + |D|^2) + 2 ((tr
    D)^2 - (tr H)^2) + (d / 2)^2 sum_q (e_q^2 + a_q^2), with the emission
    e_q and absorption a_q rates ``site_rates`` (k, n, 2) and d = 2^N.  H
    has the diagonal sum_q (eps_q / 2) sigma^z_q of the ``gaps`` (k, n) and
    each coupling K_i in d / 2 entries, so tr H = 0 and |H|^2 = d/4 sum
    eps^2 + d/2 sum K^2.  D has the diagonal sum_q (e_q or a_q) / 2 over
    the qubits excited or not, so with s_q = e_q + a_q, tr D = d/4 sum s
    and |D|^2 = d/8 (sum (e^2 + a^2) + sum_{q<r} s_q s_r), a sum of
    nonnegative terms (each s_r times the running sum of the s_q before
    it), each row scaled as in :func:`_gaussian_residuals` by its largest
    gap, coupling or rate.
    """
    d = 2.0 ** gaps.shape[1]
    top = np.concatenate([np.abs(gaps), np.abs(hoppings), site_rates.reshape(len(gaps), -1)], 1)
    e = np.minimum(np.maximum(np.frexp(top.max(axis=1))[1], -1021), 1021)
    scale = np.ldexp(1.0, -e)[:, None]
    gaps, hoppings, site_rates = gaps * scale, hoppings * scale, site_rates * scale[:, :, None]
    s = site_rates.sum(axis=2)
    total, rate_squares = s.sum(axis=1), (site_rates**2).sum(axis=(1, 2))
    pairs = (s[:, 1:] * np.cumsum(s[:, :-1], axis=1)).sum(axis=1)
    squares_H = d / 4 * (gaps**2).sum(axis=1) + d / 2 * (hoppings**2).sum(axis=1)
    squares_D = d / 8 * (rate_squares + pairs)
    squares = (2 * d * (squares_H + squares_D) + 2 * (d / 4 * total) ** 2
               + (d / 2) ** 2 * rate_squares)
    return np.ldexp(np.sqrt(squares), e)


_BATH_SIGNS = np.array([[1.0], [-1.0]])  # bath 0's flux, and bath 1's


def quadratic_steady_states(h: np.ndarray, u: np.ndarray, rates: np.ndarray) -> tuple:
    """Steady states of a stack of rows of a quadratic generator, by their correlation matrices.

    Row j has the single-particle h[j] (k, n, n), real, and bath b drains
    through its channel m the fermion sum_i u[j, b, m, i] a_i (u (k, 2, m,
    n), real) at the emission and absorption rates e and a in rates[j, b,
    m] (k, 2, m, 2).  With Lambda = sum (e + a) u u^T, G = sum a u u^T and
    X = i h - Lambda / 2, C_il = <a_i^dag a_l> solves 0 = X C + C X^dag +
    G: one stacked real N^2 system (:func:`_correlation_systems`,
    :func:`~chainflux.steady.stacked_inverse`).  Bath b puts Q_bm = a u^T h
    u - (e + a) Re u^T C h u through channel m; the two baths' fluxes
    through a channel sum to zero at the steady state, so only that of the
    bath with the lower a / e, whose terms do not cancel, is computed, and
    the other's is its negative.  Returns C (k, n, n), the channel fluxes
    (k, 2, m), the rcond_1 of each row-equilibrated system D M, 1 / (|D
    M|_1 |M^-1 D^-1|_1), D the power-of-two scales of the 1-norms of M's
    rows (the damping outgrows h as a bath heats, and the rcond_1 of M
    falls like 1 / T), and the residual inputs: X, G and C of
    :func:`_gaussian_residuals`, and the gaps, hoppings and site rates of
    :func:`_generator_norms`, h at the diagonal rates of Lambda - G and G.
    A row whose rcond fails :func:`~chainflux.steady.unique` for N^2
    unknowns gets zero results.  Every step acts on each row alone.
    """
    k, n = h.shape[:2]
    U = u.reshape(k, -1, n)
    outer = U[:, :, :, None] * U[:, :, None, :]
    e, a = rates[..., 0], rates[..., 1]
    lam = e + a
    Lambda = (lam.reshape(k, -1, 1, 1) * outer).sum(axis=1)
    G = (a.reshape(k, -1, 1, 1) * outer).sum(axis=1)
    X = 1j * h - 0.5 * Lambda
    M = _correlation_systems(X)
    inverse, singular = stacked_inverse(M)
    M, ones = np.abs(M), np.ones(n * n)
    scale = np.ldexp(1.0, -np.frexp(M @ ones)[1])  # D, of the rows' 1-norms
    norms = (scale[:, None] @ M).max(axis=(1, 2)) * ((ones @ np.abs(inverse)) / scale).max(axis=1)
    rcond = np.divide(1.0, norms, out=np.zeros(k), where=~singular)
    solved = unique(rcond, n * n)
    unknowns = full_unknowns(n)
    x = np.where(solved[:, None], (inverse @ unknowns.coordinates(-G)[:, :, None])[:, :, 0], 0.0)
    C = unknowns.state(x)
    V = U @ h  # the u^T h, (k, 2 m, n)
    fluxes = (a.reshape(k, -1) * (V * U).sum(axis=2)
              - lam.reshape(k, -1) * ((U @ C.real) * V).sum(axis=2)).reshape(a.shape)
    ratio = a / e
    first = ratio[:, 0] <= ratio[:, 1]  # bath 0 is the colder through the channel
    flux = np.where(first, fluxes[:, 0], 0.0 - fluxes[:, 1]) * solved[:, None]  # bath 0's
    channels = flux[:, None] * _BATH_SIGNS + 0.0  # and no -0.0
    site_rates = (U * U).swapaxes(1, 2) @ rates.reshape(k, -1, 2)  # diag(Lambda - G), diag G
    return C, channels, rcond, (X, G, C, np.diagonal(h, axis1=1, axis2=2),
                                np.diagonal(h, 1, axis1=1, axis2=2), site_rates)


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
    and reservoir 2 its negative.  Returns the populations (k, n), each
    reservoir's flux through each mode (k, 2, n), C (k, n, n), rcond =
    min_k Lambda_k / max_k Lambda_k, the rcond_1 of the diagonal system
    Lambda_k occ_k = gain_k, 0 where a mode has no weight at an attached
    site, and the residual inputs of the Gaussian state in the mode frame
    (:func:`_gaussian_residuals`): X = i diag(omega) - diag(Lambda) / 2, G
    = diag(gain) and phi^T C phi, and the modes as the gaps of the |L|_F
    it is judged against (:func:`_generator_norms`).  A row whose rcond
    fails :func:`~chainflux.steady.unique` for N unknowns gets zero
    results.  No array of 2^N is built.
    """
    k, n = omega.shape
    rows, a = np.arange(k)[:, None], np.arange(n)
    weights = phi[rows, sites] ** 2  # phi_k(site_j)^2, (k, 2, n)
    freqs = np.abs(omega)
    rates = bath_rates(freqs[:, None], baths[:, :, None])
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
    channels = np.where(solved[:, None, None], current[:, None, :] * _BATH_SIGNS, 0.0)
    X = np.zeros((k, n, n), dtype=complex)
    X[:, a, a] = 1j * omega - 0.5 * lam
    return populations, channels, C, rcond, (
        X, gain[:, :, None] * np.eye(n), phi.swapaxes(1, 2) @ C @ phi,
        omega, np.zeros((k, n - 1)), np.stack([loss, gain], axis=2))


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
    modes.  The hole-frame C~_kl = <f~_k^dag f~_l> is the
    :func:`quadratic_steady_states` of h = diag|omega|, each reservoir's
    channel g draining A_jg at its rates at the group's mean |omega|.
    Returns the populations (k, n), each reservoir's flux through each
    group (k, 2, n, by group index), C~ (k, n, n), and the rcond and the
    residual inputs of that solve; a row not solved gets zero results.
    """
    k, n = omega.shape
    rows, a = np.arange(k)[:, None], np.arange(n)
    freqs, holes = np.abs(omega), omega < 0
    members = group[:, :, None] == a  # [row, mode, group]
    counts = members.sum(axis=1)
    means = np.divide(np.einsum("km,kmg->kg", freqs, members), counts, out=np.ones((k, n)),
                      where=counts > 0)  # an empty group's 1 meets only zero couplings
    coupling = phi[rows, sites] * np.where((sites == n - 1)[:, :, None] & holes[:, None, :],
                                           -1.0, 1.0)  # a_jk, (k, 2, n)
    rates = bath_rates(means[:, None], baths[:, :, None])
    C, channels, rcond, inputs = quadratic_steady_states(
        freqs[:, :, None] * np.eye(n), coupling[:, :, None, :] * members.swapaxes(1, 2)[:, None],
        rates)
    pairs = holes[:, :, None] == holes[:, None, :]  # the normal entries <f_k^dag f_l>
    normal = np.where(pairs & ~holes[:, :, None], C,
                      np.where(pairs, np.eye(n) - C.swapaxes(1, 2), 0.0))
    populations = np.einsum("kqm,kml,kql->kq", phi, normal, phi).real
    return populations, channels, C, rcond, inputs
