"""The local approach's steady states through the N x N correlation matrix of its fermions.

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
Q_j = h_ss gamma_j nbar_j - lambda_j sum_b h_sb Re C_sb; and the state rho
= prod_k (nu_k f_k^dag f_k + (1 - nu_k) f_k f_k^dag), with C = U diag(nu)
U^dag and f_k = sum_i U_ik c_i, from cached c_i^dag c_j tables.  The
residual is |L(rho)| for the 2^N x 2^N site-basis generator, applied as
index gathers and elementwise scalings, H's couplings and the sigma^+-
dissipators alike.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .generator import full_unknowns, read_only
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


def _correlation_systems(h: np.ndarray, decay: np.ndarray) -> np.ndarray:
    """The real N^2 x N^2 system of C -> X C + C X^dag of each row, (k, n^2, n^2).

    X = i h - Lambda / 2 with Lambda = diag(decay).  In column stacking the
    map is L = I (x) X + conj(X) (x) I, taken to the real coordinates x of
    a Hermitian C, v = U x, as Re(U^dag L U)
    (:meth:`~chainflux.generator.Unknowns.hermitian`).
    """
    k, n = decay.shape
    a = np.arange(n)
    X = 1j * h
    X[:, a, a] -= 0.5 * decay
    L = np.zeros((k, n, n, n, n), dtype=complex)  # [., a, i, b, j] at (a n + i, b n + j)
    L[:, a, :, a, :] = X
    L[:, :, a, :, a] += X.conj()
    return full_unknowns(n).hermitian(L.reshape(k, n * n, n * n))


@lru_cache(maxsize=None)
def _site_layout(n_qubits: int) -> tuple:
    """Where the 2^N generator of :func:`_site_generator` reads a state, and what it scales.

    Item i of each coupling array: the flat gathers of rows and of columns
    at the states with qubits i, i + 1 swapped, and 1 at the states where
    they differ (H joins those only).  Item s of each qubit array: the flat
    gather at the states with s flipped, the masks g_a g_b and e_a e_b of
    the states with s in its ground state and excited, and (e_a + e_b) / 2
    and (g_a + g_b) / 2.
    """
    d = 2**n_qubits
    index = np.arange(d)
    bits = qubit_bits(n_qubits)
    e = excited_qubits(n_qubits)[:, :, None]
    g = 1.0 - e
    swap = index ^ (bits[:-1] | bits[1:])[:, None]
    flip = index ^ bits[:, None]
    hops = ((swap[:, :, None] * d + index).reshape(-1, d * d),
            (index[:, None] * d + swap[:, None, :]).reshape(-1, d * d),
            1.0 * (e[:-1, :, 0] != e[1:, :, 0]))
    sites = ((flip[:, :, None] * d + flip[:, None, :]).reshape(-1, d * d),
             g * g.swapaxes(1, 2), e * e.swapaxes(1, 2),
             0.5 * (e + e.swapaxes(1, 2)), 0.5 * (g + g.swapaxes(1, 2)))
    read_only(*hops, *sites)
    return hops, sites


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


def _site_generator(energies, hoppings, rho, site_rates) -> np.ndarray:
    """The local site-basis generator applied to each rho, (k, d, d).

    -i[H, rho] with H = diag(energies) plus K_i on the states that swap the
    excitations of qubits i and i + 1, and at each site s with a rate, its
    summed emission rate gamma (nbar + 1) through sigma^-_s and absorption
    rate gamma nbar through sigma^+_s: D[sigma^-_s](rho)[a, b] = g_a g_b
    rho[a', b'] - (e_a + e_b) rho[a, b] / 2 and D[sigma^+_s](rho)[a, b] =
    e_a e_b rho[a', b'] - (g_a + g_b) rho[a, b] / 2, where a' is a with
    qubit s flipped and e, g mark the states with s excited and in its
    ground state.  Every term is a gather of rho and elementwise scalings.
    """
    k, d = rho.shape[:2]
    (rows, cols, differ), (flip, gg, ee, half_e, half_g) = _site_layout(site_rates.shape[1])
    flat = rho.reshape(k, d * d)
    out = -1j * (energies[:, :, None] - energies[:, None, :]) * rho
    for i in range(len(differ)):
        swapped = np.take(flat, rows[i], axis=1).reshape(k, d, d)
        swapped *= differ[i, :, None]
        term = np.take(flat, cols[i], axis=1).reshape(k, d, d)
        term *= differ[i]
        swapped -= term
        swapped *= -1j * hoppings[:, i, None, None]
        out += swapped
    for s in np.flatnonzero(site_rates.any(axis=(0, 2))).tolist():
        emission, absorption = (site_rates[:, s, j, None, None] for j in (0, 1))
        term = np.take(flat, flip[s], axis=1).reshape(k, d, d)
        term *= emission * gg[s] + absorption * ee[s]
        out += term
        np.multiply(emission * half_e[s] + absorption * half_g[s], rho, out=term)
        out -= term
    return out


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
    D = 0.5 * ((site_rates[:, :, 0, None] * excited).sum(axis=1)
               + (site_rates[:, :, 1, None] * (1.0 - excited)).sum(axis=1))
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
    (k, 2), site-basis states (k, d, d), residuals |L(rho)| and the
    rcond_1 of each N^2 system, one stacked real solve
    (:func:`~chainflux.steady.checked_inverse`).  A row whose C is not
    unique (:func:`~chainflux.steady.unique`) gets zero populations, fluxes
    and state.  A residual above RESIDUAL_TOL times |L| raises
    NoConvergence.  Every step acts on each row alone, so a row's results
    do not depend on its stack.
    """
    k, n = len(rates), h.shape[-1]
    rows = np.arange(k)[:, None]
    site_rates = np.zeros((k, n, 2))
    np.add.at(site_rates, (rows, sites), rates)
    decay = site_rates[:, :, 0] + site_rates[:, :, 1]  # Lambda: sum of gamma (2 nbar + 1)
    inverse, rcond = checked_inverse(_correlation_systems(h, decay))
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
    rho = _gaussian_states(C)
    rho *= solved[:, None, None]
    hoppings = h[:, np.arange(n - 1), np.arange(1, n)]
    residual = np.linalg.norm(_site_generator(energies, hoppings, rho, site_rates), axis=(1, 2))
    check_residual(residual, _generator_norms(energies, hoppings, site_rates))
    return populations, fluxes, rho, residual, rcond
