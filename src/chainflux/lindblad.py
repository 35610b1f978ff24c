"""Jump operators, frequency bins and the chain operators both approaches are solved from.

Two master equations describe a chain.  The eigenbasis ("global") route
decomposes each endpoint coupling operator into lowering components between
energy eigenstates, groups them into Bohr-frequency bins and keeps cross
terms only within a bin (full secular approximation).  The site-basis
("local") route attaches thermal raising/lowering of the bare endpoint
qubit at its own gap, ignoring the interqubit coupling in the rates.  Both
generators are quadratic in the chain's Jordan-Wigner fermions and are
solved through N x N correlation matrices (:mod:`chainflux.correlations`),
from the chain operators built here.

All rates are expressed through the Bose occupation nbar and nbar + 1, never
through exp(beta * omega), so zero temperature and large beta are exact.

Each global jump is one single-particle mode's f_k, or f_k^dag where
omega_k < 0, and each bin one group of modes at a shared |omega_k|
(:func:`mode_groups`, which also gives the DegenerateTransition of a chain
with a bright zero mode).  No solve path builds a 2^N operator.  The 2^N
jump scan (:func:`global_jump_operators`) and the dense site-basis builders
(:func:`global_dissipator_bins`, :func:`build_local_dissipator`,
:func:`build_liouvillian`, :func:`assemble`), in the eigenbasis of one H,
are kept because the benchmark harness (``perfbench/tracing.py``) binds
them by name, ``verify`` compares the two monomer generators with them, and
the tests' dense model and real block (``tests/oracles.py``) use them.

Temperatures and bath rates enter only through the rates gamma (nbar + 1)
and gamma nbar of the bins.  Everything else is rate-free and is built here
as stacks over the chains of one qubit count, not kept: the chains'
single-particle h, their modes and the order of their mode Fock states
(:func:`chain_operators`).  The caller that owns a request
(:func:`chainflux.observables.chain_reports`) builds them once per call
and shares them between the rows and both approaches.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DegenerateTransition,
    DimensionMismatch,
    NonPositiveFrequency,
)
from .generator import full_unknowns, read_only, superoperator
from .model import BathSpec, ChainSpec
from .operators import (
    EigenSystem,
    build_chain_hamiltonian,
    chain_arrays,
    diagonalize,
    site_operator,
)

# Smallest Bohr frequency the eigenbasis construction will accept; below it
# the Bose occupation diverges for any bath at nonzero temperature.
OMEGA_MIN = 1e-8

# Relative tolerance used to group jump operators into one frequency bin.
SECULAR_TOL = 1e-9

# Matrix elements below this are treated as structural zeros.
ELEMENT_TOL = 1e-14

# exp(x) overflows double precision near 709; beyond this the occupation
# underflows to zero anyway.
_EXP_ARG_MAX = 700.0


def bose_occupation(omega: float, temperature: float) -> float:
    """Mean occupation 1 / (exp(omega/T) - 1) of a bath mode, exact at T = 0."""
    if omega <= 0:
        raise NonPositiveFrequency(f"omega must be > 0, got {omega}")
    if temperature == 0:
        return 0.0
    x = omega / temperature
    if x > _EXP_ARG_MAX:
        return 0.0
    return 1.0 / np.expm1(x)


# One entry per lowering jump: the chain and reservoir it belongs to, its
# bin's Bohr frequency, the eigenstates p = lower and q = upper it joins and
# its matrix element <p|coupling|q>.
JUMP_DTYPE = np.dtype([("chain", np.intp), ("reservoir", np.intp), ("omega", float),
                       ("lower", np.intp), ("upper", np.intp), ("weight", complex)])

def global_jump_operators(es: EigenSystem, couplings: np.ndarray,
                          errors: dict = None) -> np.ndarray:
    """Decompose coupling operators into binned lowering eigenoperators.

    For every ordered eigenpair (p, q) with E_q - E_p above the frequency
    cutoff, the matrix element <p|coupling|q> becomes the weight of one jump
    weight * |p><q|, so [H, jump] = -omega * jump.  Frequencies closer than
    ``SECULAR_TOL`` (relative to the chain's energy scale) to the lowest of
    their bin are merged into that bin, and each jump's ``omega`` is its
    bin's mean.  Zero matrix elements are dropped.

    ``es`` is one eigensystem and ``couplings`` one operator (d, d), or
    ``es`` a stack of k and ``couplings`` (k, R, d, d), R reservoirs per
    chain.  The jumps of every chain and reservoir come as one
    :data:`JUMP_DTYPE` array sorted by (chain, reservoir, omega, p, q).  A
    nonzero element across a sub-cutoff gap degenerates its chain: the
    chain gets no jumps, and its DegenerateTransition, for the first
    reservoir where one is found, goes into ``errors`` under the chain's
    index, or is raised when ``errors`` is None.
    """
    d = es.dim
    energies, vectors = es.energies.reshape(-1, d), es.vectors.reshape(-1, d, d)
    couplings = np.asarray(couplings).reshape(len(energies), -1, d, d)
    elements = vectors.conj().swapaxes(1, 2)[:, None] @ couplings @ vectors[:, None]
    gaps = energies[:, None, :] - energies[:, :, None]  # gaps[c, p, q] = E_q - E_p
    coupled = np.abs(elements) > ELEMENT_TOL
    lowering = coupled & (gaps > 0)[:, None]  # the raising partner of (p, q) is (q, p)
    below = lowering & (gaps <= OMEGA_MIN)[:, None]
    # degenerate pairs with a coupling element are unresolvable as well
    degenerate = coupled & (np.abs(gaps) <= OMEGA_MIN)[:, None]
    degenerate[..., np.arange(d), np.arange(d)] = False
    failed = {}
    for c in np.flatnonzero((below | degenerate).any(axis=(1, 2, 3))).tolist():
        for below_r, degenerate_r in zip(below[c], degenerate[c]):
            if below_r.any():
                p, q = np.argwhere(below_r)[0]
                failed[c] = DegenerateTransition(
                    f"transition at omega = {gaps[c, p, q]:.3e} below cutoff {OMEGA_MIN:.1e} "
                    f"between eigenstates {p} and {q}", omega=float(gaps[c, p, q]))
                break
            if degenerate_r.any():
                p, q = np.argwhere(np.triu(degenerate_r, 1))[0]
                failed[c] = DegenerateTransition(
                    f"coupling element across degenerate eigenstates {p}, {q}",
                    omega=float(abs(gaps[c, p, q])))
                break
    if failed and errors is None:
        raise failed[min(failed)]
    if failed:
        errors.update(failed)
        lowering[list(failed)] = False

    chain, reservoir, lower, upper = np.nonzero(lowering)
    omegas = gaps[chain, lower, upper]
    # np.nonzero lists (p, q) in order and lexsort is stable: (chain, reservoir, omega, p, q)
    order = np.lexsort((omegas, reservoir, chain))
    chain, reservoir, lower, upper = chain[order], reservoir[order], lower[order], upper[order]
    omegas = omegas[order]
    weights = elements[chain, reservoir, lower, upper]
    real = np.abs(weights.imag) <= 1e-10 * np.maximum(1.0, np.abs(weights))
    # a new bin where the chain or reservoir changes or omega leaves the
    # lowest of its bin by more than tol
    tol = SECULAR_TOL * np.maximum(1.0, np.abs(energies).max(axis=1))[chain]
    new = np.ones(len(omegas), dtype=bool)
    new[1:] = (np.diff(chain) != 0) | (np.diff(reservoir) != 0)
    starts = np.flatnonzero(_walk(omegas, tol, new))
    counts = np.diff(np.append(starts, len(omegas)))
    jumps = np.empty(len(omegas), dtype=JUMP_DTYPE)
    jumps["chain"], jumps["reservoir"] = chain, reservoir
    jumps["lower"], jumps["upper"] = lower, upper
    jumps["weight"] = np.where(real, weights.real, weights)
    jumps["omega"] = np.repeat(np.add.reduceat(omegas, starts) / counts, counts)
    return jumps


def thermal_rates(gamma: float, nbar: float) -> tuple:
    """Rates gamma (nbar + 1) of emission through A and gamma nbar of absorption through A^dag."""
    return gamma * (nbar + 1.0), gamma * nbar


def thermal_dissipator(A: np.ndarray, gamma: float, nbar: float) -> np.ndarray:
    """Dense emission at gamma (nbar + 1) through A plus absorption at gamma nbar through A^dag."""
    return superoperator(None, (A, A.conj().T), thermal_rates(gamma, nbar),
                         full_unknowns(A.shape[0]))


# Dense site-basis builders outside the sweep path; perfbench/tracing.py
# binds them by these names.
def global_dissipator_bins(es: EigenSystem, jumps: np.ndarray, bath: BathSpec) -> list:
    """Dense (omega, dissipator) pair of each frequency bin of one chain's reservoir.

    A bin, a run of jumps of one chain, reservoir and ``omega``, is summed
    into A = sum weight |p><q| in the eigenbasis, so only equal-frequency
    cross terms survive, and A goes to the site basis by ``es.vectors``.
    """
    new = np.zeros(len(jumps), dtype=bool)
    new[:1] = True
    for name in ("chain", "reservoir", "omega"):
        new[1:] |= np.diff(jumps[name]) != 0
    A = np.zeros((np.count_nonzero(new), es.dim, es.dim), dtype=complex)
    A[np.cumsum(new) - 1, jumps["lower"], jumps["upper"]] = jumps["weight"]
    A = es.vectors @ A @ es.vectors.conj().swapaxes(-1, -2)
    return [(omega, thermal_dissipator(a, bath.gamma, bose_occupation(omega, bath.temperature)))
            for omega, a in zip(jumps["omega"][new].tolist(), A)]


def build_local_dissipator(spec: ChainSpec, bath: BathSpec) -> np.ndarray:
    """Dense site-basis dissipator of one reservoir: its qubit's bare jump at the qubit's gap."""
    site = bath.attached_site
    return thermal_dissipator(site_operator(spec.n_qubits, site, "lower"), bath.gamma,
                              bose_occupation(spec.epsilons[site], bath.temperature))


def build_liouvillian(H: np.ndarray, dissipators) -> np.ndarray:
    """Dense generator: unitary part plus the supplied dense dissipators."""
    L = superoperator(H, (), (), full_unknowns(H.shape[0]))
    if any(D.shape != L.shape for D in dissipators):
        raise DimensionMismatch(f"a dissipator's shape differs from the generator's {L.shape}")
    return sum(dissipators, L)


@dataclass(frozen=True, eq=False)
class ChainOperators:
    """The approach-independent data of a stack of chains of one qubit count, all N x N.

    Chain c has the gaps ``epsilons[c]``, the couplings ``hoppings[c]`` and
    its reservoirs attached at the qubits ``sites[c]``.  Its single-particle
    h, the ``modes`` of h, from which both approaches are solved
    (:mod:`chainflux.correlations`), and the ``fock_order`` of its mode Fock
    states are computed on first use.  Every array is read-only.
    """

    epsilons: np.ndarray
    hoppings: np.ndarray
    sites: np.ndarray

    def __len__(self) -> int:
        return len(self.epsilons)

    @cached_property
    def modes(self) -> tuple:
        """The modes h phi_k = omega_k phi_k of each h, by ascending |omega_k|: (k, n), (k, n, n).

        phi is real and orthogonal; f_k = sum_i phi_ik c_i.
        """
        omega, phi = np.linalg.eigh(self.single_particle)
        order = np.argsort(np.abs(omega), axis=1, kind="stable")
        rows, sites = np.arange(len(omega))[:, None], np.arange(omega.shape[1])[:, None]
        omega, phi = omega[rows, order], phi[rows[:, None], sites, order[:, None]]
        read_only(omega, phi)
        return omega, phi

    @cached_property
    def fock_order(self) -> np.ndarray:
        """Each chain's mode Fock states i (mode k occupied where bit k of i is set), (k, 2^n), by
        E(n) = sum_k omega_k n_k in levels grouped as the modes are (:func:`_levels`), then by i."""
        omega = self.modes[0]
        n, rows = omega.shape[1], np.arange(len(omega))[:, None]
        energies = (((np.arange(2**n)[:, None] >> np.arange(n)) & 1) * omega[:, None]).sum(axis=2)
        order = np.argsort(energies, axis=1, kind="stable")
        level = _levels(energies[rows, order], omega)
        order = order[rows, np.lexsort((order, level))]
        read_only(order)
        return order

    @cached_property
    def single_particle(self) -> np.ndarray:
        """h = diag(eps) with the couplings K on its off-diagonals, (k, n, n).

        H is sum_ab h_ab c_a^dag c_b plus a constant in the Jordan-Wigner
        fermions of the chain.
        """
        k, n = self.epsilons.shape
        h = np.zeros((k, n, n))
        h[:, np.arange(n), np.arange(n)] = self.epsilons
        h[:, np.arange(n - 1), np.arange(1, n)] = self.hoppings
        h[:, np.arange(1, n), np.arange(n - 1)] = self.hoppings
        read_only(h)
        return h


def bath_rates(omegas: np.ndarray, baths: np.ndarray) -> np.ndarray:
    """Emission and absorption rates gamma (nbar + 1), gamma nbar at each omega, (..., 2).

    ``baths`` holds the (temperature, gamma) of each omega, (..., 2), broadcast
    against ``omegas``.  The Bose occupations come from one divide and one ``expm1``,
    each value bit for bit the :func:`bose_occupation` of its omega, which must be > 0.
    """
    temperature, gamma = baths[..., 0], baths[..., 1]
    with np.errstate(divide="ignore", over="ignore"):
        x = omegas / temperature
        nbar = np.where((temperature == 0) | (x > _EXP_ARG_MAX), 0.0, 1.0 / np.expm1(x))
    rates = np.empty(nbar.shape + (2,))
    rates[..., 0] = gamma * (nbar + 1.0)
    rates[..., 1] = gamma * nbar
    return rates


def chain_operators(epsilons, couplings=None, sites=None) -> ChainOperators:
    """The approach-independent operators of a stack of chains of one qubit count, newly built.

    The chains are the rows of the gaps ``epsilons`` (k, n), ``couplings``
    (k, n - 1) and attachment ``sites`` (k, 2), which become read-only; or
    ``epsilons`` is a sequence of ChainSpecs, one per chain, of which only
    the gaps, couplings and attachments are read.
    """
    if couplings is None:
        epsilons, couplings, sites = chain_arrays(epsilons)
    read_only(epsilons, couplings, sites)
    return ChainOperators(epsilons=epsilons, hoppings=couplings, sites=sites)


def _walk(values: np.ndarray, tol: np.ndarray, new: np.ndarray) -> np.ndarray:
    """``new`` (m,) bool, set also where one of the ascending ``values`` (m,) opens a bin.

    Runs start where ``new`` is set.  Walked from its first value, a value
    opens a bin where it lies more than its ``tol`` above the value that
    opened the current one; only a run that spans more than tol is walked.
    """
    new[1:] |= np.diff(values) > tol[1:]
    starts = np.flatnonzero(new)
    stops = np.concatenate((starts, [len(values)]))[1:]
    wide = values[stops - 1] - values[starts] > tol[starts]
    for start, stop in zip(starts[wide].tolist(), stops[wide].tolist()):
        low = values[start]
        for i in range(start + 1, stop):
            if values[i] - low > tol[start]:
                new[i], low = True, values[i]
    return new


def _levels(values: np.ndarray, omega: np.ndarray) -> np.ndarray:
    """Each row's levels of ascending ``values`` (k, m), from 0, for the chains' modes ``omega``.

    :func:`_walk` within SECULAR_TOL times the many-body energy scale
    max(1, sum_k |omega_k| / 2).
    """
    k, m = values.shape
    tol = SECULAR_TOL * np.maximum(1.0, 0.5 * np.abs(omega).sum(axis=1))
    new = np.arange(k * m) % m == 0  # each row is a run of its own
    return np.cumsum(_walk(values.reshape(-1), tol.repeat(m), new).reshape(k, m), axis=1) - 1


def mode_groups(chains: ChainOperators) -> tuple:
    """The frequency bins of each chain's modes, their channels, and the chains with a zero mode.

    Every global jump is one mode's f_k, or f_k^dag where omega_k < 0, at
    |omega_k| (:attr:`ChainOperators.modes`).  The modes share bins as
    :func:`global_jump_operators` bins its jumps (:func:`_levels`).  Returns
    ``group`` (k, n), each mode's group, numbered from 0 by ascending
    |omega|; ``bright`` (k, 2, n), where mode k is a channel of reservoir
    r: |phi_k(site_r)| above ELEMENT_TOL, as a jump is kept; and
    ``errors``, by chain index, a DegenerateTransition for each chain with
    a bright mode at |omega_k| <= OMEGA_MIN, at the smallest such |omega_k|.
    """
    omega, phi = chains.modes
    freqs = np.abs(omega)
    bright = np.abs(phi[np.arange(len(phi))[:, None], chains.sites]) > ELEMENT_TOL
    soft = bright.any(axis=1) & (freqs <= OMEGA_MIN)
    errors = {}
    for c in np.flatnonzero(soft.any(axis=1)).tolist():
        w = float(freqs[c][soft[c]].min())
        errors[c] = DegenerateTransition(
            f"mode at |omega| = {w:.3e} below cutoff {OMEGA_MIN:.1e}", omega=w)
    return _levels(freqs, freqs), bright, errors


def assemble(spec: ChainSpec, approach: str) -> tuple:
    """``spec``'s chain alone as a :class:`ChainOperators` stack, newly built, and its global jumps.

    The jumps are :func:`global_jump_operators` of the eigensystem of the
    chain's H at each bath qubit's sigma^+ + sigma^-, for the dense global
    model of ``tests/oracles.py``; raises DegenerateTransition where the
    eigenbasis route degenerates.  The local approach is solved through its
    correlation matrix (:mod:`chainflux.correlations`), and its dense
    generator is :func:`build_liouvillian` of :func:`build_local_dissipator`.
    """
    if approach != "global":
        raise ValueError(f"only the global approach is assembled, got {approach!r}")
    chains, n = chain_operators([spec]), spec.n_qubits
    es = diagonalize(build_chain_hamiltonian(chains.epsilons, chains.hoppings))
    couplings = [site_operator(n, s, "raise") + site_operator(n, s, "lower")
                 for s in chains.sites[0].tolist()]
    return chains, global_jump_operators(es, couplings)
