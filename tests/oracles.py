"""Reference forms the package no longer builds, kept for the tests to compare against.

The dense model of one chain under one approach (:class:`LindbladModel`,
built by :func:`assemble`): its d^2 x d^2 site-basis generator, its
per-reservoir dissipators and its frame block, from the package's
Kronecker oracle (``chainflux.generator.superoperator``); RK4 time
evolution (:func:`evolve_rk4`), the trace distance and the
density-matrix check.  The dimer's closed-form eigensystem
(:func:`dimer_analytic_eigensystem`); the dense adjoint dissipator; the
correlation route's tables from dense operators (:func:`pair_tables`,
:func:`correlation_basis`); the local site-basis generator applied to a
stack of states by gathers (:func:`site_generator`), against which the
correlation route's closed-form residual is checked; the register layouts
and the couplings sigma^+ + sigma^- from dense site operators
(:func:`hamiltonian_layout`, :func:`site_couplings`).  Each chain's 2^N H,
eigensystem and reservoir couplings (:func:`dense_chains`), which the
package's chain stack does not hold, and |L|_F summed over the 2^N diagonals
(:func:`summed_generator_norms`), which it computes in closed form.

The real block (:func:`block_reports`), which the package solved its
global rows of chains with shared bins by until it solved every row from
N x N correlation matrices: each chain's rate-free structure
(:class:`ChainStructure`), the eigenbasis one of its binned jumps, in
eigenvalue order (:func:`global_structure`, its bins from
:func:`eigenbasis_bins`), or the local one of dense sigma^+- operators in
the site basis (:func:`local_structure`); the entries of rho its generator
joins to the diagonal (:func:`coupled_sets`); the generator on them in the
real coordinates of a Hermitian rho (:func:`real_superoperator`), solved by
the package's ``steady.solve_hermitian``.  And the global approach's
free-fermion form (:func:`global_free_fermion`), which shares no layer
with the package's eigenbasis route.  The Fock states of a chain's modes
as dense site-basis vectors, in the order ``rho_diagonals`` states
(:func:`mode_fock_states`, :func:`mode_fock_diagonals`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

import chainflux.lindblad
from chainflux import (
    ChainfluxError,
    ChainSpec,
    DegenerateTransition,
    DimensionMismatch,
    NoConvergence,
    NonPositiveFrequency,
    bose_occupation,
)
from chainflux.generator import (
    Unknowns,
    _unknowns,
    full_unknowns,
    read_only,
    superoperator,
    unvectorize,
    vectorize,
)
from chainflux.lindblad import (
    OMEGA_MIN,
    SECULAR_TOL,
    bath_rates,
    chain_operators,
    global_jump_operators,
)
from chainflux.correlations import _fermions
from chainflux.observables import SteadyColumns, _two_bath_flux
from chainflux.steady import solve_hermitian, unique, uniqueness_error
from chainflux.operators import (
    EigenSystem,
    build_chain_hamiltonian,
    diagonalize,
    excited_qubits,
    number_operator,
    qubit_bits,
    site_operator,
)


class DegenerateDenominator(ChainfluxError, ZeroDivisionError):
    """Closed-form dimer amplitudes are singular (only happens at K = 0)."""


class StepTooLarge(ChainfluxError, ValueError):
    """The RK4 step is not positive or exceeds the stability guard."""


def total_excitation(n_qubits: int) -> np.ndarray:
    """Sum of the excitation numbers of all qubits."""
    return sum(number_operator(n_qubits, q) for q in range(n_qubits))


def gather(unknowns: Unknowns, rho: np.ndarray) -> np.ndarray:
    """The entries of a d x d matrix that ``unknowns`` lists, as a vector."""
    return rho[unknowns.rows, unknowns.cols]


@dataclass(frozen=True)
class LindbladModel:
    """Generator of one chain under one approach at one set of bath rates.

    ``structure`` is the rate-free part of a stack of this one chain
    (:func:`global_structure` for the global approach,
    :func:`local_structure` for the local one); the rates of its jump
    operators come from ``spec``'s baths.  The steady state is solved in
    the frame of ``eigensystem.vectors``: the eigenbasis in eigenvalue
    order for the global approach, where H is diagonal, and the site basis
    for the local one.  Everything else is derived on first use: ``block``
    in the frame on the unknowns the steady state occupies, and in the site
    basis the dense ``liouvillian`` and the per-reservoir ``dissipators``.
    """

    spec: ChainSpec
    approach: str
    structure: ChainStructure

    @property
    def hamiltonian(self) -> np.ndarray:
        """H in the site basis."""
        return self.structure.hamiltonian[0]

    @property
    def eigensystem(self) -> EigenSystem:
        """The eigensystem of the solve frame."""
        return self.structure.eigensystem[0]

    @property
    def frame_hamiltonian(self) -> np.ndarray:
        """H in the solve frame."""
        return self.structure.frame_hamiltonian[0]

    @cached_property
    def operators(self) -> np.ndarray:
        """The jump operators A and A^dag of every bin, reservoir by reservoir, dense (T, d, d)."""
        start = self.structure.start[0]
        return self.structure.operators[start:start + 2 * self.structure.edges[-1]]

    @cached_property
    def bins(self) -> tuple:
        """Each reservoir's (omega, A) bins in the frame."""
        edges, emitted = self.structure.edges.tolist(), self.operators[::2]
        return tuple(tuple(zip(self.structure.omegas[a:b].tolist(), emitted[a:b]))
                     for a, b in zip(edges, edges[1:]))

    @cached_property
    def rates(self) -> np.ndarray:
        """Rate of each of the :attr:`operators` at this model's baths."""
        baths = np.array([[(bath.temperature, bath.gamma) for bath in self.spec.baths]])
        return self.structure.rates(np.zeros(1, dtype=int), baths)[0].reshape(-1)

    def to_site(self, rho: np.ndarray) -> np.ndarray:
        """Matrices given in the solve frame (one, or a stack), in the site basis."""
        vectors = self.eigensystem.vectors
        return vectors @ rho @ vectors.conj().T

    @cached_property
    def unknowns(self) -> Unknowns:
        """Entries the frame generator joins to the diagonal, at any rates (its chain's set)."""
        return self.structure.unknown_sets([0])[0]

    @cached_property
    def block(self) -> np.ndarray:
        """Frame generator restricted to :attr:`unknowns`, from the dense :attr:`operators`."""
        return superoperator(self.frame_hamiltonian, self.operators, self.rates, self.unknowns)

    @cached_property
    def liouvillian(self) -> np.ndarray:
        """Dense d^2 x d^2 site-basis generator, the oracle for :attr:`block`."""
        return superoperator(self.hamiltonian, self.to_site(self.operators),
                             self.rates, full_unknowns(self.spec.dim))

    @cached_property
    def dissipators(self) -> tuple:
        """Dense site-basis superoperator of each reservoir."""
        full = full_unknowns(self.spec.dim)
        operators = self.to_site(self.operators)
        bounds = (2 * self.structure.edges).tolist()
        return tuple(superoperator(None, operators[a:b], self.rates[a:b], full)
                     for a, b in zip(bounds, bounds[1:]))


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray
    states: tuple
    converged: bool
    final_residual: float

    @property
    def final(self) -> np.ndarray:
        return self.states[-1]


def evolve_rk4(
    L: np.ndarray,
    rho0: np.ndarray,
    dt: float,
    t_end: float,
    residual_stop: float = 0.0,
    record_every: int = 0,
) -> Trajectory:
    """Classical fixed-step RK4 on vec(rho), independent of the linear solver.

    Stops early once |L vec(rho)| falls below ``residual_stop``.  Stored
    states are trace-renormalized; an accumulated trace drift above 1e-9 per
    unit time raises NoConvergence rather than being silently absorbed.
    """
    if dt <= 0:
        raise StepTooLarge("dt must be positive")
    lmax = np.abs(L).max()
    if lmax > 0 and dt > 0.1 / lmax:
        raise StepTooLarge(f"dt = {dt} exceeds stability guard {0.1 / lmax:.3e}")

    d = rho0.shape[0]
    n_steps = int(np.ceil(t_end / dt))
    if record_every <= 0:
        record_every = max(1, n_steps // 256)

    def store(vec):
        rho = unvectorize(vec, d)
        rho = 0.5 * (rho + rho.conj().T)
        return rho / np.trace(rho).real

    v = vectorize(np.asarray(rho0, dtype=complex))
    times = [0.0]
    states = [store(v)]
    converged = False
    t = 0.0
    for step in range(1, n_steps + 1):
        k1 = L @ v
        k2 = L @ (v + 0.5 * dt * k1)
        k3 = L @ (v + 0.5 * dt * k2)
        k4 = L @ (v + dt * k3)
        v = v + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t = step * dt
        if step % record_every == 0 or step == n_steps:
            if not np.all(np.isfinite(v)):
                raise NoConvergence(f"state left the finite range at t = {t:.6g}")
            drift = abs(np.trace(unvectorize(v, d)) - 1.0)
            if not drift <= 1e-9 * max(t, 1.0):
                raise NoConvergence(
                    f"trace drift {drift:.3e} at t = {t:.6g} exceeds 1e-9 per unit time"
                )
            times.append(t)
            states.append(store(v))
            if residual_stop > 0 and np.abs(L @ v).max() <= residual_stop:
                converged = True
                break
    final_residual = float(np.linalg.norm(L @ vectorize(states[-1])))
    return Trajectory(times=np.array(times), states=tuple(states),
                      converged=converged, final_residual=final_residual)


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Half the nuclear norm of a - b; a metric on density matrices."""
    if a.shape != b.shape:
        raise DimensionMismatch(f"shapes {a.shape} and {b.shape} differ")
    return 0.5 * float(np.linalg.svd(a - b, compute_uv=False).sum())


def check_density_matrix(rho: np.ndarray, herm_tol=1e-10, trace_tol=1e-10, eig_floor=-1e-8):
    """Raise ValueError unless rho is Hermitian, unit-trace and near-positive."""
    herm = np.abs(rho - rho.conj().T).max()
    if herm > herm_tol:
        raise ValueError(f"not Hermitian: max asymmetry {herm:.3e}")
    tr = np.trace(rho)
    if abs(tr - 1.0) > trace_tol:
        raise ValueError(f"trace {tr} differs from 1")
    lo = np.linalg.eigvalsh(rho).min()
    if lo < eig_floor:
        raise ValueError(f"negative eigenvalue {lo:.3e}")


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


@lru_cache(maxsize=None)
def site_layout(n_qubits: int) -> tuple:
    """Where the 2^N generator of :func:`site_generator` reads a state, and what it scales.

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


def site_generator(energies, hoppings, rho, site_rates) -> np.ndarray:
    """The local site-basis generator applied to each rho, (k, d, d).

    -i[H, rho] with H = diag(energies) plus K_i on the states that swap the
    excitations of qubits i and i + 1, and at each site s with a rate, its
    summed emission rate gamma (nbar + 1) through sigma^-_s and absorption
    rate gamma nbar through sigma^+_s: D[sigma^-_s](rho)[a, b] = g_a g_b
    rho[a', b'] - (e_a + e_b) rho[a, b] / 2 and D[sigma^+_s](rho)[a, b] =
    e_a e_b rho[a', b'] - (g_a + g_b) rho[a, b] / 2, where a' is a with
    qubit s flipped and e, g mark the states with s excited and in its
    ground state.  Every term is a gather of rho and elementwise scalings.
    The package reads |L(rho)|_F of a local row's Gaussian state in closed
    form instead (``chainflux.correlations._gaussian_residuals``).
    """
    k, d = rho.shape[:2]
    (rows, cols, differ), (flip, gg, ee, half_e, half_g) = site_layout(site_rates.shape[1])
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




def hamiltonian_layout(n_qubits: int) -> tuple:
    """Each qubit's sigma^z diagonal (n, d), and the nonzeros of each hopping term, dense.

    Hopping term i is sigma_i^+ sigma_{i+1}^- + h.c., a product of the
    dense site operators.
    """
    signs = np.array([site_operator(n_qubits, q, "z").diagonal().real for q in range(n_qubits)])
    hops = []
    for i in range(n_qubits - 1):
        hop = site_operator(n_qubits, i, "raise") @ site_operator(n_qubits, i + 1, "lower")
        hops.append(np.nonzero(hop + hop.T))
    return signs.reshape(n_qubits, 2**n_qubits), tuple(hops)


def site_couplings(n_qubits: int) -> np.ndarray:
    """sigma^+ + sigma^- of each qubit, (n, d, d), from the dense site operators."""
    return np.array([site_operator(n_qubits, q, "raise") + site_operator(n_qubits, q, "lower")
                     for q in range(n_qubits)])


def dense_chains(chains) -> tuple:
    """The 2^N operators of a ChainOperators stack, which the package no longer builds.

    Each chain's site-basis H (k, d, d), read-only, their stacked
    eigensystem, and the coupling sigma^+ + sigma^- of each reservoir's
    qubit (k, 2, d, d).
    """
    H = build_chain_hamiltonian(chains.epsilons, chains.hoppings)
    read_only(H)
    couplings = site_couplings(chains.epsilons.shape[1])[chains.sites]
    return H, diagonalize(H), couplings


def summed_generator_norms(gaps, hoppings, site_rates) -> np.ndarray:
    """|L|_F of each local site-basis generator, summed over the 2^N diagonal of H and of D.

    The reference for ``correlations._generator_norms``: |L|^2 = 2 d (|H|^2
    + |D|^2) + 2 ((tr D)^2 - (tr H)^2) + (d / 2)^2 sum_s (emission_s^2 +
    absorption_s^2), H's diagonal the site energies of the ``gaps`` and
    each coupling K_i in d / 2 entries, D = sum rate A^dag A / 2 diagonal.
    """
    excited = excited_qubits(site_rates.shape[1])
    d = excited.shape[1]
    energies = gaps @ excited - 0.5 * gaps.sum(axis=1, keepdims=True)
    D = 0.5 * (site_rates[:, :, 0] @ excited + site_rates[:, :, 1] @ (1.0 - excited))
    squares_H = (energies**2).sum(axis=1) + d / 2 * (hoppings**2).sum(axis=1)
    squares = (2 * d * (squares_H + (D**2).sum(axis=1))
               + 2 * (D.sum(axis=1) ** 2 - energies.sum(axis=1) ** 2)
               + (d / 2) ** 2 * (site_rates**2).sum(axis=(1, 2)))
    return np.sqrt(squares)


@dataclass(frozen=True, eq=False)
class ChainStructure:
    """The rate-free part of the real block's frame generators of a ChainOperators stack.

    Temperatures and bath rates enter the generator only through the rates
    gamma (nbar + 1) and gamma nbar of each channel (frequency bin), so
    everything here is fixed by the gaps, couplings and approach, and one
    structure serves every row of every chain of the stack:

    - ``chains``, their site-basis ``hamiltonian`` (k, d, d) and
      ``eigensystem``, a stacked eigensystem whose ``vectors`` are each
      chain's solve frame;
    - ``frame_hamiltonian`` (k, d, d), each chain's H in its frame;
    - the bins of every chain, chain by chain and reservoir by reservoir:
      their Bohr frequencies ``omegas`` and ``reservoirs``; chain c's bins
      at reservoir r are ``edges[2c + r]:edges[2c + r + 1]``;
    - the jump ``operators`` A and A^dag of each bin in that order, a
      complex (2 B, d, d) stack, chain c's from item ``start[c]`` on, and
      their products A^dag A, ``decay``, item by item;
    - ``flux_functionals`` (2 B, d, d), D[A]^dag(H) and D[A^dag]^dag(H)
      of every bin, so that a channel's heat current is gamma (nbar + 1)
      Tr{F[2 b] rho} + gamma nbar Tr{F[2 b + 1] rho}, rho in the frame;
    - ``errors``, the DegenerateTransition of each chain, by index, whose
      eigenbasis route degenerates; such a chain has no bins.
    """

    chains: object
    hamiltonian: np.ndarray
    eigensystem: EigenSystem
    frame_hamiltonian: np.ndarray
    omegas: np.ndarray
    reservoirs: np.ndarray
    edges: np.ndarray
    operators: np.ndarray
    decay: np.ndarray
    start: np.ndarray
    flux_functionals: np.ndarray
    errors: dict

    def rates(self, chain, baths) -> tuple:
        """Emission and absorption rates (pairs, 2) of the bins of each row, row after row.

        Row i is on chain ``chain[i]`` at ``baths[i]``, the (temperature,
        gamma) of each reservoir, (rows, 2, 2); row i's bins are at
        ``offsets[i]:offsets[i + 1]``.  Raises NonPositiveFrequency for a
        bin at omega <= 0.
        """
        low, high = self.edges[2 * chain], self.edges[2 * chain + 2]
        offsets = np.zeros(len(chain) + 1, dtype=int)
        np.cumsum(high - low, out=offsets[1:])
        bins = np.arange(offsets[-1]) + np.repeat(low - offsets[:-1], high - low)
        omegas = self.omegas[bins]
        if (omegas <= 0).any():
            raise NonPositiveFrequency(f"omega must be > 0, got {omegas[omegas <= 0][0]}")
        rows, reservoirs = np.repeat(np.arange(len(chain)), high - low), self.reservoirs[bins]
        return bath_rates(omegas, baths[rows, reservoirs]), offsets

    def unknown_sets(self, chain) -> list:
        """The coupled set of each chain of ``chain`` (:func:`coupled_sets`)."""
        chain = np.asarray(chain, dtype=int)
        count = 2 * (self.edges[2 * chain + 2] - self.edges[2 * chain])
        return coupled_sets(self.frame_hamiltonian[chain], self.operators, self.start[chain], count)


def equal_pairs(keys: np.ndarray) -> tuple:
    """Every ordered pair (j, k) of places of ``keys`` holding the same key, by j, then k.

    Equal keys must be adjacent.
    """
    new = np.ones(len(keys), dtype=bool)
    new[1:] = keys[1:] != keys[:-1]
    starts = np.flatnonzero(new)
    sizes = np.diff(np.append(starts, len(keys)))
    size = np.repeat(sizes, sizes)  # the size of each place's run
    j = np.repeat(np.arange(len(keys)), size)
    k = np.arange(len(j)) + np.repeat(np.repeat(starts, sizes) - (np.cumsum(size) - size), size)
    return j, k


def coupled_sets(H: np.ndarray, operators: np.ndarray, first, count) -> list:
    """The entries of rho that the generator of each H[j] (k, d, d) joins to the diagonal.

    Row j's operators are the items first[j] .. first[j] + count[j] - 1 of
    the (T, d, d) stack ``operators``, in pairs A, A^dag.  The generator
    links entry (r, c) to (r', c) where J[r', r] != 0, to (r, c') where
    J[c', c] != 0, and to (r', c') where A[r', r] and A[c', c] are both
    nonzero, J = -iH - sum rate * A^dag A / 2.  A row's set is every entry
    reached from a diagonal one over these links taken in both directions;
    a zero rate only removes links, so one set serves every row of a
    chain.  It holds every diagonal entry, so restricting the solve to it
    is exact.
    """
    d = H.shape[-1]
    return [_coupled_unknowns(d, 1 + n // 2, np.packbits(np.concatenate(
                [h[None] != 0, operators[f:f + n:2] != 0])).tobytes())
            for h, f, n in zip(H, np.asarray(first).tolist(), np.asarray(count).tolist())]


@lru_cache(maxsize=64)
def _coupled_unknowns(dim: int, count: int, key: bytes) -> Unknowns:
    """The closure of :func:`coupled_sets` over H's pattern and those of the A's after it."""
    bits = np.unpackbits(np.frombuffer(key, dtype=np.uint8), count=count * dim * dim)
    flat = np.flatnonzero(bits[dim * dim:])  # t d^2 + p d + q of each entry of each A_t
    p, q = flat // dim % dim, flat % dim
    j, k = equal_pairs(flat // (dim * dim))
    J = bits[:dim * dim].reshape(dim, dim) != 0
    row, column = p[j] == p[k], q[j] == q[k]
    J[q[j][row], q[k][row]] = J[p[j][column], p[k][column]] = True
    np.fill_diagonal(J, False)
    a, b = np.nonzero(J | J.T)  # both (a, b) and (b, a), so each link below is taken both ways
    c = np.arange(dim)
    before, after = q[j] * dim + q[k], p[j] * dim + p[k]
    source = np.concatenate([before, after, b[:, None] * dim + c, c * dim + b[:, None]],
                            axis=None)
    target = np.concatenate([after, before, a[:, None] * dim + c, c * dim + a[:, None]],
                            axis=None)
    reached = np.eye(dim, dtype=bool).reshape(-1)  # entry r d + c is in the set
    size = dim
    while True:
        reached[target[reached[source]]] = True
        grown = np.count_nonzero(reached)
        if grown == size:  # it only grows
            return _unknowns(dim, np.flatnonzero(reached.reshape(dim, dim).T))
        size = grown


def real_superoperator(H: np.ndarray, operators: np.ndarray, decay: np.ndarray,
                       rates: np.ndarray, unknowns: Unknowns, first: np.ndarray) -> np.ndarray:
    """A stack of generators on ``unknowns`` as U^dag L U, in real Hermitian coordinates.

    Row j is -i[H[j], .] + sum_t rates[j, t] D[A_t] over the operators A_t
    first[j] .. first[j] + T - 1 of the stack ``operators``, whose products
    A_t^dag A_t are the same items of ``decay``.  Its entry (i, j) on the
    unknowns is sum_t rate_t conj(A_t[c_i, c_j]) A_t[r_i, r_j] + delta(c_i,
    c_j) J[r_i, r_j] + conj(J[c_i, c_j]) delta(r_i, r_j), gathered on the
    m x m grid of the unknowns item by item, so a row's block does not
    depend on its stack.  Returns the real (k, m, m) stack.
    """
    d, rows, cols = unknowns.dim, unknowns.rows, unknowns.cols
    r, c = rows[:, None] * d + rows, cols[:, None] * d + cols  # flat places on the grid
    k, T = rates.shape
    A, products = operators.reshape(-1, d * d), decay.reshape(-1, d * d)
    J = -1j * H.reshape(k, d * d)
    L = np.zeros((k, unknowns.size, unknowns.size), dtype=complex)
    for t in range(T):
        item = first + t
        at = item[:, None, None]
        L += rates[:, t, None, None] * A[at, c].conj() * A[at, r]
        J -= (0.5 * rates[:, t, None]) * products[item]
    L += (np.where(cols[:, None] == cols, J[:, r], 0)
          + np.where(rows[:, None] == rows, J[:, c].conj(), 0))
    return np.ascontiguousarray(unknowns.hermitian(L))


@lru_cache(maxsize=None)
def _local_operators(n_qubits: int, pairs: tuple) -> np.ndarray:
    """The local structure's operators, for every chain attached at one of these ``pairs``.

    Pair s n + s' holds sigma^- of qubit s and its adjoint, then the same
    of qubit s', a read-only (4 pairs, d, d) stack.
    """
    lowering = [site_operator(n_qubits, site, "lower")
                for pair in pairs for site in divmod(pair, n_qubits)]
    operators = np.array([op for A in lowering for op in (A, A.conj().T)], dtype=complex)
    read_only(operators)
    return operators


def local_structure(chains) -> ChainStructure:
    """The local approach's rate-free structure of a ChainOperators stack, in the site basis.

    The bare jump of each reservoir's qubit at that qubit's gap: one set of
    operators per pair of attachment sites, shared by the chains with those
    sites (:func:`_local_operators`), and each chain's functionals of its
    four operators, :func:`adjoint_dissipator` of its site-basis H.  Its
    frame is the site basis: an eigensystem of identity vectors, at the
    diagonals of the Hamiltonians.
    """
    k, n = chains.epsilons.shape
    H, _, _ = dense_chains(chains)
    d = H.shape[-1]
    identity = EigenSystem(energies=np.diagonal(H, axis1=1, axis2=2).real,
                           vectors=np.broadcast_to(np.eye(d, dtype=complex), (k, d, d)))
    pairs, which = np.unique(chains.sites @ [n, 1], return_inverse=True)
    operators = _local_operators(n, tuple(pairs.tolist()))
    start = 4 * which.reshape(-1)
    omegas = np.take_along_axis(chains.epsilons, chains.sites, axis=1).reshape(-1)
    reservoirs = np.tile([0, 1], k)
    edges = np.arange(2 * k + 1)
    own = operators[start[:, None] + np.arange(4)].reshape(2 * k, 2, d, d)
    functionals = adjoint_dissipator(own, np.repeat(H, 2, axis=0))
    functionals = functionals.reshape(4 * k, d, d)
    decay = operators.conj().swapaxes(1, 2) @ operators
    read_only(omegas, reservoirs, edges, start, functionals, decay)
    return ChainStructure(chains=chains, hamiltonian=H, eigensystem=identity, frame_hamiltonian=H,
                          omegas=omegas, reservoirs=reservoirs, edges=edges, operators=operators,
                          decay=decay, start=start, flux_functionals=functionals, errors={})


def eigenbasis_bins(es, jumps: np.ndarray) -> tuple:
    """The frequency bins of a ``JUMP_DTYPE`` array, and each bin's operators in the eigenbasis.

    A bin is a run of jumps of one chain and reservoir at one ``omega``;
    ``first[b]`` is the index of bin b's first jump.  ``operators``, a
    read-only complex (2 B, d, d) stack, holds bin b's A = sum weight
    |p><q| over its jumps at item 2 b and A^dag at item 2 b + 1.
    """
    new = np.zeros(len(jumps), dtype=bool)
    new[:1] = True
    for name in ("chain", "reservoir", "omega"):
        new[1:] |= np.diff(jumps[name]) != 0
    item, weights = 2 * (np.cumsum(new) - 1), jumps["weight"]
    operators = np.zeros((2 * np.count_nonzero(new), es.dim, es.dim), dtype=complex)
    operators[item, jumps["lower"], jumps["upper"]] = weights
    operators[item + 1, jumps["upper"], jumps["lower"]] = weights.conj()
    read_only(operators)
    return np.flatnonzero(new), operators


def global_structure(chains, jumps=None) -> ChainStructure:
    """The eigenbasis structure of a ChainOperators stack, from the package's binned jumps.

    The jumps of every chain and reservoir (``global_jump_operators``, or
    ``jumps`` of a stack of one chain whose route resolves) in the bins of
    :func:`eigenbasis_bins`, in each chain's eigenbasis, and each bin's
    functionals, :func:`adjoint_dissipator` of its chain's diagonal H.  A
    chain whose route degenerates keeps its DegenerateTransition in
    ``errors`` and has no bins.
    """
    H, es, couplings = dense_chains(chains)
    k, d, errors = len(chains), H.shape[-1], {}
    if jumps is None:
        jumps = global_jump_operators(es, couplings, errors)
    first, operators = eigenbasis_bins(es, jumps)
    omegas, reservoirs, owner = (jumps[name][first] for name in ("omega", "reservoir", "chain"))
    edges = np.searchsorted(2 * owner + reservoirs, np.arange(2 * k + 1))
    frame_H = np.zeros((k, d, d))
    frame_H[:, np.arange(d), np.arange(d)] = es.energies
    decay = operators.conj().swapaxes(1, 2) @ operators
    functionals = adjoint_dissipator(operators.reshape(-1, 2, d, d), frame_H[owner])
    functionals = functionals.reshape(-1, d, d)
    start = edges[:-1:2] * 2
    read_only(frame_H, omegas, reservoirs, edges, decay, start, functionals)
    return ChainStructure(chains=chains, hamiltonian=H, eigensystem=es, frame_hamiltonian=frame_H,
                          omegas=omegas, reservoirs=reservoirs, edges=edges, operators=operators,
                          decay=decay, start=start, flux_functionals=functionals, errors=errors)


def chain_structure(chains, approach) -> ChainStructure:
    """The real block's eigenbasis structure, or its local :func:`local_structure`."""
    if approach == "local":
        return local_structure(chains)
    return global_structure(chains)


def assemble(spec, approach) -> LindbladModel:
    """The dense model of ``spec`` on the global structure of its chain alone.

    For the local approach, on the block's :func:`local_structure`.  Raises
    the package's DegenerateTransition where the eigenbasis route
    degenerates (``chainflux.lindblad.assemble``).
    """
    if approach == "local":
        structure = local_structure(chain_operators([spec]))
    else:
        structure = global_structure(*chainflux.lindblad.assemble(spec, approach))
    return LindbladModel(spec=spec, approach=approach, structure=structure)


@dataclass(frozen=True, eq=False)
class BlockColumns(SteadyColumns):
    """The package's SteadyColumns of rows the real block solved, keeping their states ``rho``.

    It has no correlation matrices: the states and their diagonals on the
    mode Fock states (:func:`mode_fock_diagonals`) are read off ``rho``.
    """

    rho: np.ndarray = None

    def states(self, rows) -> np.ndarray:
        return self.rho[np.arange(len(self))[rows]]

    def rho_diagonals(self, rows) -> np.ndarray:
        rows, modes = np.arange(len(self))[rows], self.chains.modes
        return np.array([mode_fock_diagonals(self.rho[i], *(a[self.chain[i]] for a in modes))
                         for i in rows.tolist()]).reshape(len(rows), self.rho.shape[-1])


def block_reports(specs, approach) -> BlockColumns:
    """The columns of ``specs`` from the real block, whatever their chains.

    The global rows on the eigenbasis structure (:func:`global_structure`),
    the local rows on C(2N, N) unknowns (:func:`local_structure`), on one
    structure of the specs' distinct chains.  The rates of every row and
    bin are one array, and the rows are grouped by their chain's bin count
    and set of unknowns, each group solved in one stack.
    """
    keys = {}
    chain = np.array([keys.setdefault((spec.epsilons, spec.couplings,
                                       tuple(bath.attached_site for bath in spec.baths)), len(keys))
                      for spec in specs])
    first = {c: spec for spec, c in zip(specs, chain.tolist())}
    chains = chain_operators([first[c] for c in range(len(keys))])
    baths = np.array([[(b.temperature, b.gamma) for b in spec.baths]
                      for spec in specs]).reshape(len(specs), 2, 2)
    structure = chain_structure(chains, approach)
    failed = np.isin(chain, list(structure.errors))
    errors = {i: structure.errors[chain[i]] for i in np.flatnonzero(failed).tolist()}
    rows = np.flatnonzero(~failed)
    rates, offsets = structure.rates(chain[rows], baths[rows])
    distinct, which = np.unique(chain[rows], return_inverse=True)
    sets, bins = structure.unknown_sets(distinct), np.diff(structure.edges[::2])[distinct].tolist()
    groups = {}  # (bin count, set of unknowns) -> its group
    group = np.array([groups.setdefault((b, u.rows.tobytes(), u.cols.tobytes()), len(groups))
                      for b, u in zip(bins, sets)], dtype=int)
    k, n = len(chain), chains.epsilons.shape[1]
    d = 2**n
    counts = np.diff(structure.edges).reshape(-1, 2)  # bins per chain and reservoir
    lit = np.arange(counts.max(initial=0)) < counts[:, :, None]
    omegas = np.zeros(lit.shape)
    omegas[lit] = structure.omegas  # bins in chain, reservoir, slot order
    out = BlockColumns(
        approach=approach, populations=np.zeros((k, n)),
        residual=np.zeros(k), rcond=np.zeros(k), unknowns=np.zeros(k, dtype=int), errors=errors,
        correlations=None, hole_frame=None, channels=np.zeros((k,) + lit.shape[1:]),
        chains=chains, chain=chain, baths=baths, omegas=omegas, lit=lit,
        rho=np.zeros((k, d, d), dtype=complex))
    for g, i in enumerate(np.unique(group, return_index=True)[1].tolist()):  # i: its first chain
        unknowns, members = sets[i], np.flatnonzero(group[which] == g)
        m = unknowns.size
        step = max(1, (1 << 14) // m**2)
        for stack in (members[j:j + step] for j in range(0, len(members), step)):
            at = rows[stack]
            row_rates = rates[offsets[stack][:, None] + np.arange(bins[i])].reshape(len(at), -1)
            out.populations[at], channels, out.rho[at], sol = _stack_reports(
                structure, chain[at], row_rates, unknowns)
            row, reservoir, slot = np.nonzero(lit[chain[at]])
            out.channels[at[row], reservoir, slot] = channels.reshape(-1)
            out.residual[at], out.rcond[at], out.unknowns[at] = sol.residual, sol.rcond, m
            for j in np.flatnonzero(~unique(sol.rcond, m)).tolist():
                errors[int(at[j])] = uniqueness_error(sol.rcond[j], m)
    return out


def _real_part(values: np.ndarray, what: str) -> np.ndarray:
    worst = np.abs(values.imag).max(initial=0.0)
    if worst > 1e-10:
        raise ValueError(f"{what} has imaginary residue {worst:.3e}")
    return values.real


def _stack_reports(structure, chain, rates, unknowns) -> tuple:
    """Populations, channel fluxes, site-basis states and solution of a stack of rows.

    The rows share ``unknowns``; row j is on chain ``chain[j]`` at
    ``rates[j]``.  Tr{H D(rho)} is gamma (nbar + 1) Tr{F_e rho} + gamma
    nbar Tr{F_a rho} with the flux functionals of each bin; rho is zero off
    the unknowns (r_i, c_i), so each trace is the sum of F[c_i, r_i]
    rho[r_i, c_i] over them.  The channel fluxes are each row's bins,
    reservoir by reservoir, in bin order.
    """
    k, d = len(chain), unknowns.dim
    bins, first = rates.shape[1] // 2, structure.edges[2 * chain]
    R = real_superoperator(structure.frame_hamiltonian[chain], structure.operators,
                           structure.decay, rates, unknowns, structure.start[chain])
    sol = solve_hermitian(R, unknowns)
    items = 2 * first[:, None, None] + np.arange(2 * bins)[:, None]
    functionals = structure.flux_functionals.reshape(-1, d * d)[
        items, unknowns.cols * d + unknowns.rows]
    states = sol.rho.reshape(k, 1, d * d)[:, :, unknowns.rows * d + unknowns.cols]
    traces = (functionals * states).sum(axis=2)
    channels = (rates.reshape(k, -1, 2) * traces.reshape(k, -1, 2)).sum(axis=2)
    channels = _real_part(channels, "heat flux")
    vectors = structure.eigensystem.vectors[chain]
    rho = vectors @ sol.rho @ vectors.conj().swapaxes(1, 2)
    diagonal = _real_part(np.diagonal(rho, axis1=1, axis2=2), "population")
    occupations = excited_qubits(structure.chains.epsilons.shape[1])
    populations = (diagonal[:, None] * occupations).sum(axis=2)
    return populations, channels, rho, sol


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


def mode_fock_states(omega: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """The Fock states of one chain's modes as site-basis columns (d, d), in the stated order.

    |n> = prod_k (f_k^dag)^{n_k} |vac>, with f_k^dag = sum_i phi_ik c_i^dag
    from the package's matrices of the c_i (``correlations._fermions``)
    and |vac> the state with every qubit in its ground state (every bit
    set).  Mode k is bit k of a state's index n.  The states go by
    ascending E(n) = sum_k omega_k n_k; walked from the lowest, a state
    opens a new level where its E lies more than SECULAR_TOL max(1, sum_k
    |omega_k| / 2) above the E that opened the current one, and inside a
    level the states go by ascending n.  Loops over Python floats, sharing
    no code with ``lindblad.fock_order``.
    """
    n = len(omega)
    d = 2**n
    raising = [sum(phi[i, k] * _fermions(n)[i].T for i in range(n)) for k in range(n)]
    columns = []
    for index in range(d):
        state = np.zeros(d)
        state[d - 1] = 1.0
        for k in range(n):
            if index >> k & 1:
                state = raising[k] @ state
        columns.append(state)
    energies = [sum(float(omega[k]) for k in range(n) if index >> k & 1) for index in range(d)]
    tol = SECULAR_TOL * max(1.0, 0.5 * sum(abs(float(w)) for w in omega))
    level, low, levels = -1, None, {}
    for index in sorted(range(d), key=lambda i: energies[i]):
        if low is None or energies[index] - low > tol:
            level, low = level + 1, energies[index]
        levels[index] = level
    order = sorted(range(d), key=lambda i: (levels[i], i))
    return np.array(columns).T[:, order]


def mode_fock_diagonals(rho: np.ndarray, omega: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """<n|rho|n> of a site-basis state on its chain's mode Fock states, in the stated order."""
    states = mode_fock_states(omega, phi)
    return np.einsum("in,ij,jn->n", states.conj(), rho, states).real
