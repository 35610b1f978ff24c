"""Jump operators, frequency bins and the rate-free structures of the eigenbasis generators.

Two master equations describe a chain.  The eigenbasis ("global") route,
built here, decomposes each endpoint coupling operator into lowering
components between energy eigenstates, groups them into Bohr-frequency bins
and keeps cross terms only within a bin (full secular approximation).  The
site-basis ("local") route attaches thermal raising/lowering of the bare
endpoint qubit at its own gap, ignoring the interqubit coupling in the
rates; its generator is quadratic in Jordan-Wigner fermions and is solved
through the N x N correlation matrix (:mod:`chainflux.correlations`), from
the chain operators built here.

All rates are expressed through the Bose occupation nbar and nbar + 1, never
through exp(beta * omega), so zero temperature and large beta are exact.

Where no bin holds two modes, each global jump is one single-particle
mode's f_k or f_k^dag, and the global rows of such a chain
(:func:`mode_route`) are solved from its modes (:attr:`ChainOperators.modes`,
:func:`chainflux.correlations.global_steady_states`) with no 2^N array.
On every other chain the global route ends in one operator form: per
reservoir, a list of bins with their Bohr frequencies and their operators
A and A^dag, held as one dense (T, d, d) stack in the eigenbasis frame the
steady state is solved in, where each nonzero of an A is one jump.  The
generators are built from that stack (:mod:`chainflux.generator`).
The dense site-basis builders (:func:`global_dissipator_bins`,
:func:`build_local_dissipator`, :func:`build_liouvillian`,
:func:`assemble`) are on no solve path: the benchmark harness
(``perfbench/tracing.py``) binds them by name, and ``verify`` compares
the two monomer generators with them.  The dense model the tests compare
against is in ``tests/oracles.py``.

Temperatures and bath rates enter only through the rates gamma (nbar + 1)
and gamma nbar of the bins.  Everything else is rate-free and is built here
as stacks over the chains of one qubit count, not kept: H, its eigensystem,
its single-particle modes and the site operators of the chains (gaps,
couplings, attachments) in :func:`chain_operators`, the binned operators,
their products A^dag A and each bin's flux functionals of the chains, as
dense stacks, in :func:`chain_structure`.  No population operator is built: the solved
states are taken to the site basis and read off their diagonals
(:mod:`chainflux.observables`).  The caller that owns a request
(:func:`chainflux.observables.steady_reports`) builds each once per call
and shares the chain operators between the rows and both approaches.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import (
    DegenerateTransition,
    DimensionMismatch,
    NonPositiveFrequency,
)
from .generator import (
    coupled_sets,
    full_unknowns,
    read_only,
    superoperator,
)
from .model import BathSpec, ChainSpec
from .operators import (
    EigenSystem,
    build_chain_hamiltonian,
    chain_arrays,
    diagonalize,
    qubit_bits,
    site_operator,
)

# Smallest Bohr frequency the eigenbasis construction will accept; below it
# the Bose occupation diverges for any bath at nonzero temperature.
OMEGA_MIN = 1e-8

# Smallest |omega_k| of a chain whose global rows come from its free-fermion
# modes (:func:`mode_route`); a chain with a softer mode keeps the real
# block.  Near figure3a's omega = 1e-3 channel the block is 6.3e-12 off a
# 40-digit reference, the modes 1.9e-16, so the modes would move those rows
# by more than the CSVs' 1e-12 gate against the previous release allows.
# The floor can go once an extended-precision reference judges such rows.
MODE_OMEGA_MIN = 1e-2

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
    # lowest of its bin by more than tol; consecutive steps above tol
    # start one for certain, and only a run that spans more than tol needs
    # the walk from its lowest
    tol = SECULAR_TOL * np.maximum(1.0, np.abs(energies).max(axis=1))[chain]
    new = np.ones(len(omegas), dtype=bool)
    new[1:] = (np.diff(omegas) > tol[1:]) | (np.diff(chain) != 0) | (np.diff(reservoir) != 0)
    starts = np.flatnonzero(new)
    stops = np.append(starts, len(omegas))[1:]
    wide = omegas[stops - 1] - omegas[starts] > tol[starts]
    for start, stop in zip(starts[wide].tolist(), stops[wide].tolist()):
        values = omegas[start:stop].tolist()
        for i in range(1, stop - start):
            if values[i] - values[0] > tol[start]:
                new[start + i] = True
                values[0] = values[i]
    starts = np.flatnonzero(new)
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


def global_bins(es: EigenSystem, jumps: np.ndarray) -> tuple:
    """The frequency bins of a :data:`JUMP_DTYPE` array, and each bin's operators in the frame.

    A bin is a run of jumps of one chain and reservoir at one ``omega``;
    ``first[b]`` is the index of bin b's first jump.  Jumps sharing a bin
    are summed before the Lindblad form is applied, so equal-frequency cross
    terms survive while cross terms between different bins are dropped.
    ``operators``, a read-only complex (2 B, d, d) stack, holds bin b's
    operator A at item 2 b and its adjoint A^dag at item 2 b + 1, in the
    basis of its chain's ``es.frame``: each jump of the bin is one nonzero
    of A, its weight at the frame positions of (p, q), and of A^dag, the
    conjugate weight at (q, p).  ``es`` is the stack the jumps' chains
    index, or the one eigensystem of chain 0.
    """
    first, item, lower, upper = _bin_positions(es, jumps)
    weights = jumps["weight"]
    operators = _bin_stack((2 * len(first), es.dim, es.dim), item, lower, upper, weights,
                           weights.conj())
    read_only(operators)
    return first, operators


def _bin_positions(es: EigenSystem, jumps: np.ndarray) -> tuple:
    """The first jump of each bin, and each jump's item 2 b and frame positions of (p, q)."""
    new = np.zeros(len(jumps), dtype=bool)
    new[:1] = True
    for name in ("chain", "reservoir", "omega"):
        new[1:] |= np.diff(jumps[name]) != 0
    position = np.argsort(es.frame_order, axis=-1).reshape(-1, es.dim)
    lower = position[jumps["chain"], jumps["lower"]]
    upper = position[jumps["chain"], jumps["upper"]]
    return np.flatnonzero(new), 2 * (np.cumsum(new) - 1), lower, upper


def _bin_stack(shape: tuple, item, rows, cols, values, pairs) -> np.ndarray:
    """A complex stack of ``shape``, ``values`` at (rows, cols) of ``item`` and ``pairs`` after.

    ``pairs`` go at (cols, rows) of ``item + 1``: with the conjugate
    values, A and A^dag of each bin.
    """
    stack = np.zeros(shape, dtype=complex)
    stack[item, rows, cols] = values
    stack[item + 1, cols, rows] = pairs
    return stack


# Dense site-basis builders outside the sweep path; perfbench/tracing.py
# binds them by these names.
def global_dissipator_bins(es: EigenSystem, jumps: np.ndarray, bath: BathSpec) -> list:
    """Dense (omega, dissipator) pair of each frequency bin of one chain's reservoir."""
    first, operators = global_bins(es, jumps)
    return [(omega, thermal_dissipator(es.frame @ A @ es.frame.conj().T, bath.gamma,
                                       bose_occupation(omega, bath.temperature)))
            for omega, A in zip(jumps["omega"][first].tolist(), operators[::2])]


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
    """The approach-independent operators of a stack of chains of one qubit count, site basis.

    Chain c has the Hamiltonian ``hamiltonian[c]`` (k, d, d), the gaps
    ``epsilons[c]``, the couplings ``hoppings[c]`` and its reservoirs
    attached at the qubits ``sites[c]``, where each couples through
    sigma^+ + sigma^- (``couplings[c]``, one per reservoir).  The stacked
    sector ``eigensystem`` of the Hamiltonians, their diagonals
    ``site_energies``, the single-particle matrices h and their ``modes``
    are computed on first use.  Both approaches are solved from one stack
    (:func:`chain_structure`, :mod:`chainflux.correlations`), so each H is
    built once, and diagonalized only where its 2^N eigensystem is read.
    Item c of the stack is chain c's :class:`Chain`, the same object on
    every access.  Every array is read-only.
    """

    hamiltonian: np.ndarray
    epsilons: np.ndarray
    hoppings: np.ndarray
    sites: np.ndarray

    def __len__(self) -> int:
        return len(self.hamiltonian)

    def __getitem__(self, c) -> Chain:
        return self._views[c]

    def take(self, chains) -> ChainOperators:
        """The stack of only the chains at the indices ``chains``, newly built."""
        arrays = [a[chains] for a in (self.hamiltonian, self.epsilons, self.hoppings, self.sites)]
        read_only(*arrays)
        return ChainOperators(*arrays)

    @cached_property
    def _views(self) -> tuple:
        return tuple(Chain(self, c) for c in range(len(self)))

    @cached_property
    def couplings(self) -> np.ndarray:
        couplings = _site_couplings(self.epsilons.shape[1])[self.sites]
        read_only(couplings)
        return couplings

    @cached_property
    def eigensystem(self) -> EigenSystem:
        es = diagonalize(self.hamiltonian)
        read_only(es.energies, es.vectors)
        return es

    @cached_property
    def site_energies(self) -> np.ndarray:
        """The diagonal of each H, (k, d): the energies of the site basis states."""
        energies = np.diagonal(self.hamiltonian, axis1=1, axis2=2).real.copy()
        read_only(energies)
        return energies

    @cached_property
    def modes(self) -> tuple:
        """The modes h phi_k = omega_k phi_k of each h, by ascending |omega_k|: (k, n), (k, n, n).

        phi is real and orthogonal; f_k = sum_i phi_ik c_i.
        """
        omega, phi = np.linalg.eigh(self.single_particle)
        order = np.argsort(np.abs(omega), axis=1, kind="stable")
        omega = np.take_along_axis(omega, order, axis=1)
        phi = np.take_along_axis(phi, order[:, None, :], axis=2)
        read_only(omega, phi)
        return omega, phi

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


@dataclass(frozen=True, eq=False)
class Chain:
    """Chain ``index`` of a :class:`ChainOperators` stack, giving its eigensystem."""

    stack: ChainOperators
    index: int

    @property
    def eigensystem(self) -> EigenSystem:
        """A view of the stack's eigensystem, which is computed on first use."""
        return self.stack.eigensystem[self.index]


@dataclass(frozen=True, eq=False)
class ChainStructure:
    """The rate-free part of the frame generators of a :class:`ChainOperators` stack.

    Temperatures and bath rates enter the generator only through the rates
    gamma (nbar + 1) and gamma nbar of each channel (frequency bin), so
    everything here is fixed by the gaps, couplings and approach, and one
    structure serves every row of every chain of the stack:

    - ``chains``, and ``eigensystem``, their stacked eigensystem, whose
      ``frame`` is each chain's solve frame;
    - ``frame_hamiltonian`` (k, d, d), each chain's H in its frame;
    - the bins of every chain, chain by chain and reservoir by reservoir:
      their Bohr frequencies ``omegas`` and ``reservoirs``; chain c's bins
      at reservoir r are ``edges[2c + r]:edges[2c + r + 1]``;
    - the jump ``operators`` A and A^dag of each bin in that order, a
      complex (2 B, d, d) stack (:func:`global_bins`), chain c's from item
      ``start[c]`` on, and their products A^dag A, ``decay``, item by item;
    - ``flux_functionals`` (2 B, d, d), D[A]^dag(H) and D[A^dag]^dag(H)
      of every bin b at items 2 b and 2 b + 1, so that a channel's heat
      current is gamma (nbar + 1) Tr{F[2 b] rho} + gamma nbar Tr{F[2 b +
      1] rho} (Alicki's form), rho in the frame;
    - ``errors``, the DegenerateTransition of each chain, by index, whose
      eigenbasis route degenerates; such a chain has no bins.

    Each chain's set of unknowns is rate-free too (:meth:`unknown_sets`).
    Every array is read-only.
    """

    chains: ChainOperators
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
        """Rates of the :attr:`operators` of each row's chain at the row's baths, row after row.

        Row i is on chain ``chain[i]`` at ``baths[i]``, the (temperature,
        gamma) of each reservoir, (rows, 2, 2).  Returns the (pairs, 2)
        emission and absorption rates of every row's bins, thermal_rates
        gamma (nbar + 1) and gamma nbar, with row i's bins at
        ``offsets[i]:offsets[i + 1]``.  The Bose occupations come from one
        divide and one ``expm1``, each value bit for bit the
        :func:`bose_occupation` of its bin.  Raises NonPositiveFrequency for
        a bin at omega <= 0.
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
        """The coupled set of each chain of ``chain``: one for every rate, its rows share it.

        It closes over the chain's frame H and all of its operators
        (:func:`~chainflux.generator.coupled_sets`).
        """
        chain = np.asarray(chain, dtype=int)
        count = 2 * (self.edges[2 * chain + 2] - self.edges[2 * chain])
        return coupled_sets(self.frame_hamiltonian[chain], self.operators, self.start[chain], count)


def bath_rates(omegas: np.ndarray, baths: np.ndarray) -> np.ndarray:
    """Emission and absorption rates gamma (nbar + 1), gamma nbar at each omega, (..., 2).

    ``baths`` holds the (temperature, gamma) of each omega, (..., 2).  The
    Bose occupations come from one divide and one ``expm1``, each value
    bit for bit the :func:`bose_occupation` of its omega, which must be > 0.
    """
    temperature, gamma = baths[..., 0], baths[..., 1]
    with np.errstate(divide="ignore", over="ignore"):
        x = omegas / temperature
        nbar = np.where((temperature == 0) | (x > _EXP_ARG_MAX), 0.0, 1.0 / np.expm1(x))
    rates = np.empty(np.shape(omegas) + (2,))
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
    H = build_chain_hamiltonian(epsilons, couplings)
    read_only(H, epsilons, couplings, sites)
    return ChainOperators(hamiltonian=H, epsilons=epsilons, hoppings=couplings, sites=sites)


@lru_cache(maxsize=None)
def _site_couplings(n_qubits: int) -> np.ndarray:
    """sigma^+ + sigma^- of each qubit, (n, d, d): 1 between the states that differ in its bit."""
    d = 2**n_qubits
    index = np.arange(d)
    couplings = np.zeros((n_qubits, d, d), dtype=complex)
    couplings[np.arange(n_qubits)[:, None], index, index ^ qubit_bits(n_qubits)[:, None]] = 1.0
    read_only(couplings)
    return couplings


def chain_structure(chains: ChainOperators) -> ChainStructure:
    """The rate-free eigenbasis structure of the ``chains`` stack, newly built as one stack.

    One transition scan over every chain and reservoir
    (:func:`global_jump_operators`) on the stacked eigensystem, whose jumps
    are the nonzeros of the bins' operators, laid out as :func:`global_bins`
    lays them.  Their products A^dag A and functionals D[A]^dag(H) =
    A^dag H A - {A^dag A, H} / 2 (H diagonal in the frame) are one stacked
    product each.
    A chain whose route degenerates keeps its DegenerateTransition in
    ``errors`` and the others are built as usual.
    """
    k, d = len(chains), chains.hamiltonian.shape[-1]
    errors = {}
    es = chains.eigensystem
    jumps = global_jump_operators(es, chains.couplings, errors)
    first, item, lower, upper = _bin_positions(es, jumps)
    shape, weights = (2 * len(first), d, d), jumps["weight"]
    operators = _bin_stack(shape, item, lower, upper, weights, weights.conj())
    omegas, reservoirs, owner = (jumps[name][first] for name in ("omega", "reservoir", "chain"))
    edges = np.searchsorted(2 * owner + reservoirs, np.arange(2 * k + 1))
    h = np.take_along_axis(es.energies, es.frame_order, axis=1)
    frame_H = np.zeros((k, d, d))
    frame_H[:, np.arange(d), np.arange(d)] = h
    # D[A]^dag(H)[a, b] = sum_p conj(A[p, a]) A[p, b] (h_p - (h_a + h_b) / 2) is -(X + X^dag) / 2
    # with X = W^dag A, W[p, q] = A[p, q] (h_q - h_p): each jump times its own Bohr frequency
    energies = es.energies.reshape(k, d)
    scaled = weights * (energies[jumps["chain"], jumps["upper"]]
                        - energies[jumps["chain"], jumps["lower"]])
    decay = _bin_stack(shape, item, upper, lower, weights.conj(), weights) @ operators
    weighted = _bin_stack(shape, item, upper, lower, scaled.conj(), -scaled)  # W^dag
    functionals = weighted @ operators
    functionals += np.conj(functionals.swapaxes(1, 2), out=weighted)
    functionals *= -0.5
    start = edges[:-1:2] * 2
    read_only(operators, decay, frame_H, omegas, reservoirs, edges, start, functionals)
    return ChainStructure(chains=chains, eigensystem=es, frame_hamiltonian=frame_H, omegas=omegas,
                          reservoirs=reservoirs, edges=edges, operators=operators, decay=decay,
                          start=start, flux_functionals=functionals, errors=errors)


def mode_route(chains: ChainOperators) -> tuple:
    """Which chains' global rows come from their free-fermion modes, and the modes' channels.

    There every global jump is one mode's f_k or f_k^dag: the |omega_k|
    (:attr:`ChainOperators.modes`) are pairwise farther apart than the bin
    tolerance of :func:`global_jump_operators` (SECULAR_TOL relative to the
    many-body energy scale, sum_k |omega_k| / 2), every mode has weight at
    an attached site, and none is below MODE_OMEGA_MIN.  Returns that mask
    (k,) and ``bright`` (k, 2, n), where mode k is a channel of reservoir
    r: |phi_k(site_r)| above ELEMENT_TOL, as a jump of the block is kept.
    """
    omega, phi = chains.modes
    freqs = np.abs(omega)
    bright = np.abs(np.take_along_axis(phi, chains.sites[:, :, None], axis=1)) > ELEMENT_TOL
    tol = SECULAR_TOL * np.maximum(1.0, 0.5 * freqs.sum(axis=1))
    apart = (np.diff(freqs, axis=1) > tol[:, None]).all(axis=1)
    return apart & bright.any(axis=1).all(axis=1) & (freqs[:, 0] >= MODE_OMEGA_MIN), bright


def assemble(spec: ChainSpec, approach: str) -> ChainStructure:
    """The global structure of ``spec``'s chain alone, newly built (:func:`chain_structure`).

    Raises DegenerateTransition where the eigenbasis route degenerates.
    The local approach has no frame structure: it is solved through its
    correlation matrix (:mod:`chainflux.correlations`), and its dense
    generator is :func:`build_liouvillian` of :func:`build_local_dissipator`.
    """
    if approach != "global":
        raise ValueError(f"only the global approach is assembled, got {approach!r}")
    structure = chain_structure(chain_operators([spec]))
    if structure.errors:
        raise structure.errors[0]
    return structure
