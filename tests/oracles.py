"""Reference forms the package no longer builds, kept for the tests to compare against.

The dimer's closed-form eigensystem (:func:`dimer_analytic_eigensystem`);
the dense adjoint dissipator; the correlation route's tables from dense
operators (:func:`pair_tables`, :func:`correlation_basis`); the local
approach's real block: its structure of sigma^+- entries in the site
basis (:func:`local_structure`), solved on its coupled set of C(2N, N)
unknowns by the same stacked block solve as the global rows
(:func:`local_block_reports`), where the package solves the local rows
through their N x N correlation matrices; and the global approach's
free-fermion form (:func:`global_free_fermion`), which shares no layer
with the package's eigenbasis route.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

import chainflux.lindblad
import chainflux.observables
from chainflux import DegenerateDenominator, DegenerateTransition, bose_occupation
from chainflux.generator import Entries, equal_pairs, full_unknowns, read_only
from chainflux.lindblad import (
    OMEGA_MIN,
    SECULAR_TOL,
    ChainStructure,
    LindbladModel,
    chain_operators,
)
from chainflux.observables import _two_bath_flux
from chainflux.operators import EigenSystem, site_operator


@dataclass(frozen=True)
class EigenSystemDimer:
    """Closed-form eigensystem of the two-qubit chain.

    Amplitudes c_pq expand the one-excitation eigenstates in the site basis:
    |s3> = c31 |10> + c32 |01> at energy +alpha and |s4> = c41 |10> + c42 |01>
    at energy -alpha, with |s1> = |00> and |s2> = |11>.
    """

    c31: float
    c32: float
    c41: float
    c42: float
    alpha: float
    delta_eps: float
    energies: tuple  # (E1, E2, E3, E4)


def dimer_analytic_eigensystem(eps1: float, eps2: float, coupling: float) -> EigenSystemDimer:
    """Exact dimer amplitudes and energies.

    Singular only when the one-excitation block is already diagonal with a
    vanishing coupling, in which case callers should fall back to the
    trivial product eigenstates.
    """
    delta = eps1 - eps2
    alpha = math.sqrt(coupling**2 + 0.25 * delta**2)
    den3 = 2.0 * alpha**2 - alpha * delta
    den4 = 2.0 * alpha**2 + alpha * delta
    if den3 <= 0 or den4 <= 0:
        raise DegenerateDenominator(
            f"amplitude denominators vanish for eps=({eps1}, {eps2}), K={coupling}"
        )
    c31 = coupling / math.sqrt(den3)
    c32 = (alpha - 0.5 * delta) / math.sqrt(den3)
    c41 = coupling / math.sqrt(den4)
    c42 = -(alpha + 0.5 * delta) / math.sqrt(den4)
    e_sum = 0.5 * (eps1 + eps2)
    return EigenSystemDimer(
        c31=c31, c32=c32, c41=c41, c42=c42,
        alpha=alpha, delta_eps=delta,
        energies=(-e_sum, e_sum, alpha, -alpha),
    )


def adjoint_dissipator(A: np.ndarray, H: np.ndarray) -> np.ndarray:
    """D[A]^dag(H) = A^dag H A - {A^dag A, H} / 2, so Tr{H D[A](rho)} = Tr{D[A]^dag(H) rho}.

    ``A`` (m, 2, d, d) holds pairs of operators and ``H`` (m, d, d) the
    operator each pair acts on; the result is shaped as ``A``.  A diagonal
    H (the eigenbasis frame) acts by elementwise products, any other H by
    matrix products, each pair by the form of its own H.
    """
    h = np.diagonal(H, axis1=1, axis2=2)
    diagonal = np.count_nonzero(H, axis=(1, 2)) == np.count_nonzero(h, axis=1)
    out = np.empty(A.shape, dtype=complex)
    for j in range(len(A)):
        out[j] = _adjoint_diagonal(A[j], h[j]) if diagonal[j] else _adjoint_dense(A[j], H[j])
    return out


def _adjoint_diagonal(A, h):
    Ad = A.conj().swapaxes(-1, -2)
    return (Ad * h[..., None, :]) @ A - 0.5 * (Ad @ A) * (h[..., :, None] + h[..., None, :])


def _adjoint_dense(A, H):
    Ad = A.conj().swapaxes(-1, -2)
    AdA = Ad @ A
    return Ad @ H @ A - 0.5 * (AdA @ H + H @ AdA)


def pair_tables(n_qubits: int) -> np.ndarray:
    """c_i^dag c_j of every (i, j) from dense Jordan-Wigner strings, as complex (n^2, d^2) rows."""
    d = 2**n_qubits
    string = np.eye(d)
    modes = []
    for i in range(n_qubits):
        modes.append(string @ site_operator(n_qubits, i, "lower").real)
        string = string @ -site_operator(n_qubits, i, "z").real  # 1 - 2 n_i = -sigma^z_i
    tables = np.array([a.T @ b for a in modes for b in modes], dtype=complex)
    return tables.reshape(n_qubits**2, d * d)


def correlation_basis(n_qubits: int) -> np.ndarray:
    """The real system of C -> X C + C X^dag per coefficient of X, through ``Unknowns.hermitian``.

    The map I (x) X + conj(X) (x) I of every coefficient is one complex
    (n + n^2, n, n, n, n) broadcast.
    """
    n = n_qubits
    X = np.zeros((n + n * n, n, n), dtype=complex)
    X[np.arange(n), np.arange(n), np.arange(n)] = -0.5
    X[n:] = 1j * np.eye(n * n).reshape(n * n, n, n)
    eye = np.eye(n)
    L = (eye[None, :, None, :, None] * X[:, None, :, None, :]
         + X.conj()[:, :, None, :, None] * eye[None, None, :, None, :])
    return full_unknowns(n).hermitian(L.reshape(-1, n * n, n * n)).reshape(len(X), -1)


def entries_from_dense(matrices) -> Entries:
    """The nonzero entries of a (n, d, d) stack, item by item, row-major within an item."""
    matrices = np.asarray(matrices)
    t, r, c = np.nonzero(matrices)
    edges = np.searchsorted(t, np.arange(len(matrices) + 1))
    return Entries(matrices.shape[-1], edges, r, c, matrices[t, r, c].astype(complex))


@lru_cache(maxsize=None)
def _local_operators(n_qubits: int, pairs: tuple) -> Entries:
    """The local structure's operators, for every chain attached at one of these ``pairs``.

    Pair s n + s' holds sigma^- of qubit s and its adjoint, then the same
    of qubit s', as entries.
    """
    lowering = [site_operator(n_qubits, site, "lower")
                for pair in pairs for site in divmod(pair, n_qubits)]
    return entries_from_dense([op for A in lowering for op in (A, A.conj().T)])


def _local_functionals(operators: Entries, start: np.ndarray, H: np.ndarray) -> Entries:
    """D[A]^dag(H_c) of the four operators A of each chain c, items start[c] to start[c] + 3.

    Each A holds at most one nonzero per row and per column, as sigma^-
    and sigma^+ do.  So A^dag H A has the entry conj(v_j) H[p_j, p_k] v_k
    at (q_j, q_k) for every two entries v_j at (p_j, q_j) and v_k at (p_k,
    q_k), and A^dag A is diag(n) with n_q = |v|^2 at each column q; the
    functional is these entries followed by -(n_i H[i, l] + H[i, l] n_l)
    / 2 at each entry (i, l) of H with n_i or n_l nonzero.  Chain c's are
    items 4 c to 4 c + 3.
    """
    k, d = len(H), H.shape[-1]
    chain, t, e = operators.take(start, 4)
    group = 4 * chain + t
    a, b = equal_pairs(group)  # every two entries of one operator
    h = H[chain[a], operators.rows[e[a]], operators.rows[e[b]]]
    nonzero = h != 0
    a, b, h = a[nonzero], b[nonzero], h[nonzero]
    first = (group[a], operators.cols[e[a]], operators.cols[e[b]],
             (operators.values[e[a]].conj() * h) * operators.values[e[b]])
    n = np.zeros((4 * k, d))
    n[group, operators.cols[e]] = np.abs(operators.values[e]) ** 2
    c, row, col = np.nonzero(H)
    group = 4 * c[:, None] + np.arange(4)
    h = H[c, row, col][:, None]
    n_row, n_col = n[group, row[:, None]], n[group, col[:, None]]
    keep = (n_row != 0) | (n_col != 0)
    at = np.nonzero(keep)[0]
    second = (group[keep], row[at], col[at], (-0.5 * (n_row * h + h * n_col))[keep])
    group, rows, cols, values = (np.concatenate(pair) for pair in zip(first, second))
    order = np.argsort(group, kind="stable")
    return Entries(d, np.searchsorted(group[order], np.arange(4 * k + 1)), rows[order],
                   cols[order], values[order].astype(complex))




def local_structure(chains) -> ChainStructure:
    """The local approach's rate-free structure of a ChainOperators stack, in the site basis.

    The bare jump of each reservoir's qubit at that qubit's gap: one set of
    operators per pair of attachment sites, shared by the chains with those
    sites (:func:`_local_operators`), and their functionals
    (:func:`_local_functionals`).  Its frame is the site basis: an
    eigensystem of identity vectors, at the diagonals of the Hamiltonians.
    """
    k, n = chains.epsilons.shape
    d = chains.hamiltonian.shape[-1]
    identity = EigenSystem(energies=chains.site_energies,
                           vectors=np.broadcast_to(np.eye(d, dtype=complex), (k, d, d)))
    pairs, which = np.unique(chains.sites @ [n, 1], return_inverse=True)
    operators = _local_operators(n, tuple(pairs.tolist()))
    start = 4 * which.reshape(-1)
    omegas = np.take_along_axis(chains.epsilons, chains.sites, axis=1).reshape(-1)
    reservoirs = np.tile([0, 1], k)
    edges = np.arange(2 * k + 1)
    functionals = _local_functionals(operators, start, chains.hamiltonian)
    read_only(omegas, reservoirs, edges, start)
    return ChainStructure(chains=chains, eigensystem=identity, frame_hamiltonian=chains.hamiltonian,
                          omegas=omegas, reservoirs=reservoirs, edges=edges, operators=operators,
                          start=start, flux_functionals=functionals, errors={})


def chain_structure(chains, approach) -> ChainStructure:
    """The package's eigenbasis structure, or the local block's :func:`local_structure`."""
    if approach == "local":
        return local_structure(chains)
    return chainflux.lindblad.chain_structure(chains)


def assemble(spec, approach) -> LindbladModel:
    """The package's global model, or the local model on the block's :func:`local_structure`."""
    if approach == "local":
        return LindbladModel(spec=spec, approach=approach,
                             structure=local_structure(chain_operators([spec])))
    return chainflux.lindblad.assemble(spec, approach)


def local_block_reports(specs):
    """The local SteadyColumns of ``specs`` from the real block on C(2N, N) unknowns.

    The rows are grouped and stacked as the package groups its global rows
    (``_approach_reports``), on one :func:`local_structure` of the specs'
    distinct chains.
    """
    keys = {}
    chain = np.array([keys.setdefault((spec.epsilons, spec.couplings,
                                       tuple(bath.attached_site for bath in spec.baths)), len(keys))
                      for spec in specs])
    first = {c: spec for spec, c in zip(specs, chain.tolist())}
    chains = chain_operators([first[c] for c in range(len(keys))])
    baths = np.array([[(b.temperature, b.gamma) for b in spec.baths] for spec in specs])
    return chainflux.observables._approach_reports("local", local_structure(chains), chain,
                                                   baths.reshape(len(specs), 2, 2))


def free_fermion_form(spec) -> tuple:
    """occ_k, n_q and Q1 of the global approach from the modes h phi_k = omega_k phi_k, unguarded.

    Under the full secular approximation each mode is an independent
    two-bath transition at |omega_k| with the rates Gamma_jk = gamma_j
    phi_k(site_j)^2: occ_k = sum_j Gamma_jk nbar_j / sum_j Gamma_jk (2
    nbar_j + 1), inverted to 1 - occ_k when omega_k < 0; n_q = sum_k
    phi_k(q)^2 occ_k; Q1 = sum_k of the two-bath flux at |omega_k|.  Exact
    only where the |omega_k| are distinct and above OMEGA_MIN
    (:func:`global_free_fermion`).
    """
    h = np.diag(spec.epsilons) + np.diag(spec.couplings, 1) + np.diag(spec.couplings, -1)
    omegas, phi = np.linalg.eigh(h)
    freqs = np.abs(omegas)
    baths = spec.baths
    gammas = [[bath.gamma * phi[bath.attached_site, k] ** 2 for k in range(spec.n_qubits)]
              for bath in baths]
    occ = np.empty(spec.n_qubits)
    q1 = 0.0
    for k, (omega, freq) in enumerate(zip(omegas, freqs)):
        nbar = [bose_occupation(freq, bath.temperature) for bath in baths]
        up = sum(g[k] * n for g, n in zip(gammas, nbar))
        total = sum(g[k] * (2 * n + 1) for g, n in zip(gammas, nbar))
        occ[k] = up / total if omega > 0 else 1.0 - up / total
        q1 += _two_bath_flux(freq, baths[0].temperature, baths[1].temperature,
                             gammas[0][k], gammas[1][k])
    return occ, phi**2 @ occ, q1


def global_free_fermion(spec) -> tuple:
    """:func:`free_fermion_form`, or DegenerateTransition where it is not exact.

    Two |omega_k| closer than the route's own bin tolerance (SECULAR_TOL
    relative to the many-body energy scale sum_k |omega_k| / 2) share a
    frequency bin, whose cross terms the form drops; an |omega_k| at or
    below OMEGA_MIN is a zero mode.
    """
    h = np.diag(spec.epsilons) + np.diag(spec.couplings, 1) + np.diag(spec.couplings, -1)
    freqs = np.sort(np.abs(np.linalg.eigvalsh(h)))
    if freqs[0] <= OMEGA_MIN:
        raise DegenerateTransition(f"mode at |omega| = {freqs[0]:.3e} below the cutoff",
                                   omega=float(freqs[0]))
    tol = SECULAR_TOL * max(1.0, 0.5 * freqs.sum())
    close = np.flatnonzero(np.diff(freqs) <= tol)
    if close.size:
        raise DegenerateTransition(f"two modes share |omega| = {freqs[close[0]]:.6g}",
                                   omega=float(freqs[close[0]]))
    return free_fermion_form(spec)
