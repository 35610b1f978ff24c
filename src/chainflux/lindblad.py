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

The global route ends in one operator form: per reservoir, a list of bins
with their Bohr frequencies and their operators A and A^dag, held as
nonzero entries (:class:`~chainflux.generator.Entries`) in the eigenbasis
frame the steady state is solved in, where each entry is one jump.  The
generators are built from those entries (:mod:`chainflux.generator`);
dense operators are formed only for the oracles kept for tests and time
evolution.

Temperatures and bath rates enter only through the rates gamma (nbar + 1)
and gamma nbar of the bins.  Everything else is rate-free and is built here
as stacks over the chains of one qubit count, not kept: H, its eigensystem
and the site operators of the chains (gaps, couplings, attachments) in
:func:`chain_operators`, the binned operators, their products A^dag A and
each bin's flux functionals of the chains, as entries, in
:func:`chain_structure`.  No population operator is built: the solved
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
    Entries,
    Unknowns,
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
    ``operators`` (:class:`Entries`) holds bin b's operator A at item 2 b
    and its adjoint A^dag at item 2 b + 1, in the basis of its chain's
    ``es.frame``: each jump of the bin is one entry of A, its weight at
    the frame positions of (p, q), and of A^dag, the conjugate weight at
    (q, p).  ``es`` is the stack the jumps' chains index, or the one
    eigensystem of chain 0.
    """
    new = np.zeros(len(jumps), dtype=bool)
    new[:1] = True
    for name in ("chain", "reservoir", "omega"):
        new[1:] |= np.diff(jumps[name]) != 0
    d = es.dim
    position = np.argsort(es.frame_order, axis=-1).reshape(-1, d)
    lower = position[jumps["chain"], jumps["lower"]]
    upper = position[jumps["chain"], jumps["upper"]]
    item = 2 * (np.cumsum(new) - 1)  # A's; A^dag's is the next
    item = np.concatenate([item, item + 1])
    order = np.argsort(item, kind="stable")
    edges = np.searchsorted(item[order], np.arange(2 * np.count_nonzero(new) + 1))
    values = np.concatenate([jumps["weight"], jumps["weight"].conj()])[order]
    return np.flatnonzero(new), Entries(d, edges, np.concatenate([lower, upper])[order],
                                         np.concatenate([upper, lower])[order], values)


# Dense site-basis builders outside the sweep path; perfbench/tracing.py
# times them by these names.
def global_dissipator_bins(es: EigenSystem, jumps: np.ndarray, bath: BathSpec) -> list:
    """Dense (omega, dissipator) pair of each frequency bin of one chain's reservoir."""
    first, operators = global_bins(es, jumps)
    return [(omega, thermal_dissipator(es.frame @ A @ es.frame.conj().T, bath.gamma,
                                       bose_occupation(omega, bath.temperature)))
            for omega, A in zip(jumps["omega"][first].tolist(), operators.dense()[::2])]


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
    ``site_energies`` and the single-particle matrices h are computed on
    first use.  Both approaches are solved from one stack
    (:func:`chain_structure`, :mod:`chainflux.correlations`), so each H is
    built and diagonalized once.  Item c of the stack is chain
    c's :class:`Chain`, the same object on every access.  Every array is
    read-only.
    """

    hamiltonian: np.ndarray
    epsilons: np.ndarray
    hoppings: np.ndarray
    sites: np.ndarray

    def __len__(self) -> int:
        return len(self.hamiltonian)

    def __getitem__(self, c) -> Chain:
        return self._views[c]

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
    - the jump ``operators`` A and A^dag of each bin in that order, as
      :class:`Entries` (with their products A^dag A, ``operators.decay``),
      chain c's from item ``start[c]`` on;
    - ``flux_functionals``, as :class:`Entries`, D[A]^dag(H) and
      D[A^dag]^dag(H) of every bin b at items 2 b and 2 b + 1, so that a
      channel's heat current is gamma (nbar + 1) Tr{F[2 b] rho} + gamma
      nbar Tr{F[2 b + 1] rho} (Alicki's form), rho in the frame;
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
    operators: Entries
    start: np.ndarray
    flux_functionals: Entries
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
    """sigma^+ + sigma^- of each qubit, (n, d, d)."""
    couplings = np.array([site_operator(n_qubits, q, "raise") + site_operator(n_qubits, q, "lower")
                          for q in range(n_qubits)])
    read_only(couplings)
    return couplings


def _diagonal_functionals(operators: Entries, h: np.ndarray, chain: np.ndarray) -> Entries:
    """D[A]^dag(H) = A^dag H A - {A^dag A, H} / 2 of every item A, for H = diag(h[chain[A]]).

    With H diagonal, every pair of entries v_j, v_k of A in one row p, at
    the columns q_j and q_k, gives the entry conj(v_j) v_k (h_p - (h_{q_j}
    + h_{q_k}) / 2) at (q_j, q_k): the pairs of its A^dag A
    (:attr:`Entries.row_pairs`).
    """
    j, k, edges = operators.row_pairs
    c = np.repeat(chain, np.diff(edges))
    p, q_j, q_k = operators.rows[j], operators.cols[j], operators.cols[k]
    return Entries(operators.dim, edges, q_j, q_k,
                   operators.decay.values * (h[c, p] - 0.5 * (h[c, q_j] + h[c, q_k])))


def chain_structure(chains: ChainOperators) -> ChainStructure:
    """The rate-free eigenbasis structure of the ``chains`` stack, newly built as one stack.

    One transition scan over every chain and reservoir
    (:func:`global_jump_operators`) on the stacked eigensystem, whose jumps
    are the entries of the bins' operators (:func:`global_bins`); their
    functionals come from pairs of jumps (:func:`_diagonal_functionals`).
    A chain whose route degenerates keeps its DegenerateTransition in
    ``errors`` and the others are built as usual.
    """
    k, d = len(chains), chains.hamiltonian.shape[-1]
    errors = {}
    es = chains.eigensystem
    jumps = global_jump_operators(es, chains.couplings, errors)
    first, operators = global_bins(es, jumps)
    omegas, reservoirs, owner = (jumps[name][first] for name in ("omega", "reservoir", "chain"))
    edges = np.searchsorted(2 * owner + reservoirs, np.arange(2 * k + 1))
    h = np.take_along_axis(es.energies, es.frame_order, axis=1)
    frame_H = np.zeros((k, d, d))
    frame_H[:, np.arange(d), np.arange(d)] = h
    functionals = _diagonal_functionals(operators, h, np.repeat(owner, 2))
    start = edges[:-1:2] * 2
    read_only(frame_H, omegas, reservoirs, edges, start)
    return ChainStructure(chains=chains, eigensystem=es, frame_hamiltonian=frame_H, omegas=omegas,
                          reservoirs=reservoirs, edges=edges, operators=operators, start=start,
                          flux_functionals=functionals, errors=errors)


@dataclass(frozen=True)
class LindbladModel:
    """Generator of one chain under one approach at one set of bath rates.

    ``structure`` is the rate-free part of a stack of this one chain
    (:func:`chain_structure` for the global approach); the rates of its
    jump operators come from ``spec``'s baths.  The steady state is solved
    in the frame ``eigensystem.frame``, the eigenbasis for the global
    approach, where H is diagonal.  Everything else is derived on first
    use: ``block`` in the frame on the unknowns the steady state occupies,
    and in the site basis the dense ``liouvillian`` and the per-reservoir
    ``dissipators``.
    """

    spec: ChainSpec
    approach: str
    structure: ChainStructure

    @property
    def hamiltonian(self) -> np.ndarray:
        """H in the site basis."""
        return self.structure.chains.hamiltonian[0]

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
        count = 2 * self.structure.edges[-1]
        operators = self.structure.operators.dense(slice(start, start + count))
        read_only(operators)
        return operators

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
        frame = self.eigensystem.frame
        return frame @ rho @ frame.conj().T

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


def assemble(spec: ChainSpec, approach: str) -> LindbladModel:
    """The generator of ``spec`` under the global ``approach``, on a new structure of its chain alone.

    Raises DegenerateTransition where the eigenbasis route degenerates.
    The local approach has no frame structure here: it is solved through
    its correlation matrix (:mod:`chainflux.correlations`), and its dense
    generator is :func:`build_liouvillian` of :func:`build_local_dissipator`.
    """
    if approach != "global":
        raise ValueError(f"only the global approach is assembled, got {approach!r}")
    structure = chain_structure(chain_operators([spec]))
    if structure.errors:
        raise structure.errors[0]
    return LindbladModel(spec=spec, approach=approach, structure=structure)
