"""Populations, heat fluxes, and the closed-form results they are checked against.

Every analytic function that exists in two printed algebraic forms is
implemented in both and the forms are compared at call time; a disagreement
raises instead of silently returning either value.  Rational forms are
rewritten in terms of the Bose occupations nbar and nbar + 1 before
implementation so that zero temperature stays exact and nothing is ever
exponentiated.

The numeric pipeline solves stacks of rows as columns (:func:`chain_reports`).
Local rows, and the global rows of chains whose bins keep their modes
apart (:func:`~chainflux.lindblad.mode_route`), are solved through N x N
correlation matrices (:mod:`chainflux.correlations`); the global rows of
every other chain by the real block on the chain's eigenbasis structure.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AnalyticFormMismatch,
    DegenerateTransition,
    DimensionMismatch,
)
from . import correlations
from .correlations import global_steady_states, local_steady_states
from .generator import real_superoperator, unvectorize, vectorize
from .lindblad import (
    OMEGA_MIN,
    Chain,
    ChainOperators,
    bath_rates,
    bose_occupation,
    chain_operators,
    chain_structure,
    mode_route,
)
from .model import BathSpec, ChainSpec
from .operators import excited_qubits, number_operator
from .steady import solve_hermitian, unique, uniqueness_error

_FORM_TOL = 1e-12

# The steady solves go in stacks of at most this many block elements
# (128 KB per real array): stacks of more than about eight m = 70 systems
# solved slower per row than single ones, and larger stacks raise the peak
# memory of every sweep process.
_GRID_ELEMENTS = 1 << 14


def qubit_population(rho: np.ndarray, site: int) -> float:
    """Expectation of sigma^+ sigma^- of one qubit in state rho."""
    d = rho.shape[0]
    n = int(round(math.log2(d)))
    if 2**n != d or rho.shape != (d, d):
        raise DimensionMismatch(f"state of shape {rho.shape} is not a qubit register")
    val = np.trace(number_operator(n, site) @ rho)
    if abs(val.imag) > 1e-10:
        raise ValueError(f"population has imaginary residue {val.imag:.3e}")
    return float(val.real)


def heat_flux(H: np.ndarray, dissipator: np.ndarray, rho: np.ndarray) -> float:
    """Energy flow Tr{H D(rho)} from one reservoir into the system; D is d^2 x d^2."""
    d = H.shape[0]
    if rho.shape != (d, d) or dissipator.shape != (d * d, d * d):
        raise DimensionMismatch("Hamiltonian, dissipator and state dimensions differ")
    drho = unvectorize(dissipator @ vectorize(rho), d)
    val = np.trace(H @ drho)
    if abs(val.imag) > 1e-10:
        raise ValueError(f"heat flux has imaginary residue {val.imag:.3e}")
    return float(val.real)


def universal_e(omega: float, t1: float, t2: float) -> float:
    """Two-bath excitation fraction (n1 + n2) / (1 + n1 + n2), in [0, 1)."""
    n1 = bose_occupation(omega, t1)
    n2 = bose_occupation(omega, t2)
    return (n1 + n2) / (1.0 + n1 + n2)


def _one_minus_e(n1: float, n2: float) -> float:
    # 1 - e evaluated without cancellation; the direct subtraction loses
    # ten digits once the occupations grow large
    return 1.0 / (1.0 + n1 + n2)


def _two_bath_flux(omega, t1, t2, g1, g2) -> float:
    """Net quantum flow through one transition coupled to both baths.

    omega * g1 * g2 * (n1 - n2) / (g1 (2 n1 + 1) + g2 (2 n2 + 1)); this is
    the overflow-safe rewriting of the usual exp(beta omega) expression.
    """
    n1 = bose_occupation(omega, t1)
    n2 = bose_occupation(omega, t2)
    return omega * g1 * g2 * (n1 - n2) / (g1 * (2 * n1 + 1) + g2 * (2 * n2 + 1))


def _check_forms(rational: float, product: float, context: str) -> None:
    if abs(rational - product) > _FORM_TOL * max(1.0, abs(rational)):
        raise AnalyticFormMismatch(
            f"{context}: rational form {rational!r} != product form {product!r}"
        )


def monomer_population_analytic(eps: float, t1: float, t2: float) -> float:
    """Excited-state population of a single qubit between two baths: e(eps)/2."""
    return 0.5 * universal_e(eps, t1, t2)


def monomer_heat_flux_analytic(eps, t1, t2, gamma1=1.0, gamma2=1.0) -> float:
    """Steady heat flux from reservoir 1 through a single qubit.

    Antisymmetric under swapping the two baths when the rates are equal, and
    zero at zero thermal bias.
    """
    flux = _two_bath_flux(eps, t1, t2, gamma1, gamma2)
    if gamma1 == gamma2:
        n1 = bose_occupation(eps, t1)
        n2 = bose_occupation(eps, t2)
        product = gamma1 * 0.5 * eps * _one_minus_e(n1, n2) * (n1 - n2)
        _check_forms(flux, product, "monomer heat flux")
    return flux


def _dimer_channels(eps: float, coupling: float):
    """Bohr frequencies of the symmetric dimer's two emission channels."""
    omega1 = abs(eps - coupling)
    omega2 = eps + coupling
    if omega1 <= OMEGA_MIN:
        raise DegenerateTransition(
            f"|eps - K| = {omega1:.3e} is below the frequency cutoff", omega=omega1
        )
    return omega1, omega2


@dataclass(frozen=True)
class DimerGlobalSteadyState:
    """Closed-form eigenbasis steady state of the symmetric dimer.

    The two emission channels behave as independent binary modes with upper
    occupancies e1/2 and e2/2; the eigenstate populations are their product
    distribution.  rho22 = e1 e2 / 4 is pinned by that normalization (the
    four populations must sum to one) and verified against the numerical
    null space in the tests.
    """

    eps: float
    coupling: float
    omega1: float
    omega2: float
    e1: float
    e2: float
    rho11: float
    rho22: float
    rho33: float
    rho44: float
    n1: float
    n2: float

    def diagonals_by_energy(self) -> tuple:
        """Populations ordered by ascending eigenenergy."""
        if self.eps > self.coupling:
            # energies -eps < -K < +K < +eps: states s1, s4, s3, s2
            return (self.rho11, self.rho44, self.rho33, self.rho22)
        # energies -K < -eps < +eps < +K: states s4, s1, s2, s3
        return (self.rho44, self.rho11, self.rho22, self.rho33)


def dimer_global_populations_analytic(eps, coupling, t1, t2) -> DimerGlobalSteadyState:
    """Eigenbasis populations of the symmetric dimer at steady state."""
    omega1, omega2 = _dimer_channels(eps, coupling)
    e1 = universal_e(omega1, t1, t2)
    e2 = universal_e(omega2, t1, t2)
    a, b = 0.5 * e1, 0.5 * e2
    if eps > coupling:
        # exciting channel 1 from |s1> reaches |s4>, channel 2 reaches |s3>
        rho11, rho44, rho33, rho22 = (1 - a) * (1 - b), a * (1 - b), (1 - a) * b, a * b
    else:
        # strong coupling: |s4> is the true ground state
        rho44, rho11, rho22, rho33 = (1 - a) * (1 - b), a * (1 - b), (1 - a) * b, a * b
    n = rho22 + 0.5 * (rho33 + rho44)
    return DimerGlobalSteadyState(
        eps=eps, coupling=coupling, omega1=omega1, omega2=omega2,
        e1=e1, e2=e2, rho11=rho11, rho22=rho22, rho33=rho33, rho44=rho44,
        n1=n, n2=n,
    )


def dimer_local_populations_analytic(eps, coupling, t1, t2) -> tuple:
    """Site populations of the symmetric dimer under the site-basis dissipators.

    Valid for unit spontaneous emission rates on both baths.
    """
    n1 = bose_occupation(eps, t1)
    n2 = bose_occupation(eps, t2)
    e = universal_e(eps, t1, t2)
    den = 4.0 * coupling**2 + (1 + 2 * n1) * (1 + 2 * n2)
    pop1 = (2.0 * coupling**2 * e + (1 + 2 * n2) * n1) / den
    pop2 = (2.0 * coupling**2 * e + (1 + 2 * n1) * n2) / den
    return pop1, pop2


@dataclass(frozen=True)
class DimerGlobalFlux:
    total: float
    channels: tuple  # ((omega1, flux1), (omega2, flux2))


def dimer_global_heat_flux_analytic(eps, coupling, t1, t2,
                                    gamma1=1.0, gamma2=1.0) -> DimerGlobalFlux:
    """Eigenbasis heat flux from reservoir 1, resolved by emission channel.

    Each channel carries the two-bath transition flux at its own Bohr
    frequency with the squared transition amplitude (1/2 per transition for
    the symmetric dimer) folded into the effective rates.
    """
    channels = []
    total = 0.0
    for omega in _dimer_channels(eps, coupling):
        flux = _two_bath_flux(omega, t1, t2, 0.5 * gamma1, 0.5 * gamma2)
        if gamma1 == gamma2:
            n1 = bose_occupation(omega, t1)
            n2 = bose_occupation(omega, t2)
            product = gamma1 * 0.25 * omega * _one_minus_e(n1, n2) * (n1 - n2)
            _check_forms(flux, product, f"dimer global flux channel omega={omega}")
        channels.append((omega, flux))
        total += flux
    return DimerGlobalFlux(total=total, channels=tuple(channels))


def dimer_local_heat_flux_analytic(eps, coupling, t1, t2,
                                   gamma1=1.0, gamma2=1.0) -> float:
    """Site-basis heat flux from reservoir 1 for the symmetric dimer.

    The single-qubit flux at the site gap is weighted by
    4K^2 / (4K^2 + g1 g2 (2 n1 + 1)(2 n2 + 1)), which kills transport both
    for decoupled qubits and for large thermal bias.
    """
    n1 = bose_occupation(eps, t1)
    n2 = bose_occupation(eps, t2)
    weight = 4.0 * coupling**2 / (
        4.0 * coupling**2 + gamma1 * gamma2 * (2 * n1 + 1) * (2 * n2 + 1)
    )
    flux = _two_bath_flux(eps, t1, t2, gamma1, gamma2) * weight
    if gamma1 == gamma2:
        product = gamma1 * 0.5 * eps * _one_minus_e(n1, n2) * (n1 - n2) * weight
        _check_forms(flux, product, "dimer local flux")
    return flux


@dataclass(frozen=True)
class SteadyReport:
    """Full numeric pipeline output for one chain under one approach.

    A view of one row of a :class:`SteadyColumns`, built when asked for;
    ``rho`` is the state in the site basis, built with the view from the
    row's correlation matrix unless the real block solved it.
    ``residual`` is |L(rho)|_F, in closed form from that matrix where there
    is one.  ``rcond`` and ``unknowns`` are the solver's 1-norm reciprocal
    condition number and the number of real coordinates it solved for: the
    block's, the local row's N^2, or a global row's N mode occupations with
    rcond min_k Lambda_k / max_k Lambda_k; ``chain`` gives
    the chain's eigensystem, computed on first use and shared by the
    reports of both approaches on the chain.
    """

    spec: ChainSpec
    approach: str
    rho: np.ndarray
    populations: tuple
    fluxes: tuple
    residual: float
    channel_fluxes: tuple  # per reservoir: ((omega, flux), ...)
    rcond: float
    unknowns: int
    chain: Chain = field(repr=False, compare=False)


@dataclass(frozen=True, eq=False)
class SteadyColumns(Sequence):
    """One approach's results for the rows of a :func:`chain_reports` call.

    ``populations`` (rows, N), ``fluxes`` (rows, 2), ``residual``, ``rcond``
    and ``unknowns`` are columns; ``errors`` maps each row not solved to its
    DegenerateTransition (with its omega) or DegenerateKernel (with its
    rcond), and such a row's entries are no result.  Row i, if the real
    block solved it, keeps its site-basis state at ``rho[kept[i]]``
    (``kept[i]`` is -1 otherwise), and else only its correlation matrix C
    at ``correlations[i]`` (rows, N, N; None where no row has one).  The row
    views and :meth:`rho_diagonals` read the states from :meth:`states`.
    ``channels`` holds the channel fluxes in bin order, zero-padded.  Row i
    is on chain ``chain[i]`` of the call's ``chains``, and its channels are
    the bins at ``omegas[edges[2c]:edges[2c + 2]]``, reservoir by reservoir
    (:class:`~chainflux.lindblad.ChainStructure`); nothing else of the
    approach's structure is kept.  ``baths[i]`` holds the
    (temperature, gamma) of each reservoir of row i.  ``columns[i]`` builds
    row i's :class:`SteadyReport`, with the spec of its chain and baths, or
    gives its error.
    """

    approach: str
    populations: np.ndarray
    fluxes: np.ndarray
    residual: np.ndarray
    rcond: np.ndarray
    unknowns: np.ndarray
    errors: dict
    rho: np.ndarray
    kept: np.ndarray
    correlations: np.ndarray | None
    channels: np.ndarray
    chains: ChainOperators
    chain: np.ndarray
    baths: np.ndarray
    omegas: np.ndarray
    edges: np.ndarray

    def __len__(self) -> int:
        return len(self.residual)

    def __getitem__(self, i):
        i = range(len(self))[i]
        if i in self.errors:
            return self.errors[i]
        c = int(self.chain[i])
        low, split, high = self.edges[2 * c:2 * c + 3].tolist()
        omegas, values = self.omegas[low:high].tolist(), self.channels[i].tolist()
        pieces = (slice(0, split - low), slice(split - low, high - low))
        chains, (t, gamma) = self.chains, self.baths[i].T.tolist()
        baths = tuple(map(BathSpec, t, gamma, self.chains.sites[c].tolist()))
        spec = ChainSpec(chains.epsilons.shape[1], tuple(chains.epsilons[c].tolist()),
                         tuple(chains.hoppings[c].tolist()), baths)
        return SteadyReport(
            spec=spec, approach=self.approach, rho=self.states([i])[0],
            populations=tuple(self.populations[i].tolist()),
            fluxes=tuple(self.fluxes[i].tolist()), residual=self.residual[i].item(),
            channel_fluxes=tuple(tuple(zip(omegas[piece], values[piece])) for piece in pieces),
            rcond=self.rcond[i].item(), unknowns=int(self.unknowns[i]), chain=self.chains[c])

    def states(self, rows) -> np.ndarray:
        """The site-basis states of ``rows``, (rows, d, d): kept, or built from C.

        A row the real block solved keeps its state at ``rho[kept[i]]``; any
        other row's is the Gaussian state of its correlation matrix
        (:func:`~chainflux.correlations._gaussian_states`), built on each
        call.
        """
        rows = np.arange(len(self))[rows]
        at = self.kept[rows]
        gaussian = at < 0
        out = np.empty((len(rows),) + self.rho.shape[1:], dtype=complex)
        out[~gaussian] = self.rho[at[~gaussian]]
        if gaussian.any():
            out[gaussian] = correlations._gaussian_states(self.correlations[rows[gaussian]])
        return out

    def rho_diagonals(self, rows) -> np.ndarray:
        """The populations of the states of ``rows`` in their chain's eigenbasis, (rows, d)."""
        rho, chain = self.states(rows), self.chain[rows]
        if not len(chain):
            return np.zeros((0, rho.shape[-1]))
        vectors = self.chains.eigensystem.vectors[chain]
        rho = vectors.conj().swapaxes(1, 2) @ rho @ vectors
        return np.diagonal(rho, axis1=1, axis2=2).real.copy()  # not a view that keeps rho


def steady_report(spec: ChainSpec, approach: str) -> SteadyReport:
    """Assemble, solve and measure one chain; the one-stop numeric pipeline.

    A stack of one of :func:`steady_reports`; raises the DegenerateTransition
    or DegenerateKernel that function would return.
    """
    ((report,),) = steady_reports([spec], (approach,))
    if isinstance(report, Exception):
        raise report
    return report


def steady_reports(specs, approaches) -> list:
    """Per approach, the :class:`SteadyColumns` of the specs, which all have one number of qubits.

    Specs with the same gaps, couplings and attachments, as along a
    temperature sweep, are one chain of the stack :func:`chain_reports`
    solves.  Each row is the one :func:`steady_report` gives, bit for bit.
    """
    index, chain, first = {}, [], []  # chain key -> chain; each spec's chain; each chain's spec
    for spec in specs:
        key = spec.epsilons, spec.couplings, tuple(bath.attached_site for bath in spec.baths)
        c = index.get(key)
        if c is None:
            if first and len(key[0]) != first[0].n_qubits:
                raise DimensionMismatch(
                    f"chains of {first[0].n_qubits} and {len(key[0])} qubits in one call")
            c = index[key] = len(first)
            first.append(spec)
        chain.append(c)
    baths = np.array([(b.temperature, b.gamma) for s in specs for b in s.baths]).reshape(-1, 2, 2)
    return chain_reports(chain_operators(first) if first else None, np.array(chain, dtype=int),
                         baths, approaches)


def chain_reports(chains: ChainOperators, chain: np.ndarray, baths: np.ndarray,
                  approaches) -> list:
    """Per approach, the :class:`SteadyColumns` of rows on the ``chains`` stack.

    Row i is on chain ``chain[i]`` with the (temperature, gamma) of each
    reservoir at ``baths[i]`` (rows, 2, 2).  The call owns every chain's
    rate-free data, built as stacks over its chains: one
    :class:`ChainOperators` stack, so every H is built once for every
    approach, and its modes and eigensystem computed once where read.

    The global rows of chains whose bins keep their modes apart
    (:func:`~chainflux.lindblad.mode_route`) come from their modes
    (:func:`_global_reports`).  The others use one
    :class:`~chainflux.lindblad.ChainStructure` stack of only their chains,
    dropped once they are solved.  They are grouped by their
    chain's set of unknowns, one per chain whatever its rates, across
    chains: every row of a temperature sweep, at T = 0 or not, and the
    rows of chains whose frame generators couple the same entries.  Each
    group is solved in stacks of at most ``_GRID_ELEMENTS`` block elements
    (:func:`_stack_reports`).  Every row of a chain whose eigenbasis route
    degenerates gets that DegenerateTransition (the other chains of the
    call are solved as usual).

    The local rows are solved through their N x N correlation matrices
    (:func:`~chainflux.correlations.local_steady_states`), every row of
    the call in stacks of at most ``_GRID_ELEMENTS`` elements of their N^2
    x N^2 systems (:func:`_local_reports`).  They keep their correlation
    matrices, not their 2^N states.

    A row whose steady state is not unique gets its own DegenerateKernel.
    """
    for approach in approaches:
        if approach not in ("global", "local"):
            raise ValueError(f"approach must be 'global' or 'local', got {approach!r}")
    if not len(chain):
        return [_no_reports(approach) for approach in approaches]
    return [_local_reports(chains, chain, baths) if approach == "local" else
            _global_reports(chains, chain, baths) for approach in approaches]


def _no_reports(approach) -> SteadyColumns:
    empty, none = np.zeros(0), np.zeros(0, dtype=int)
    return SteadyColumns(
        approach=approach, populations=np.zeros((0, 0)), fluxes=np.zeros((0, 2)),
        residual=empty, rcond=empty, unknowns=none, errors={},
        rho=np.zeros((0, 1, 1), dtype=complex), kept=none, correlations=None,
        channels=np.zeros((0, 0)),
        chains=None, chain=none, baths=np.zeros((0, 2, 2)), omegas=empty,
        edges=np.zeros(1, dtype=int))


def _global_reports(chains, chain, baths) -> SteadyColumns:
    """:func:`chain_reports` under the global approach, on the call's ``chains`` stack.

    The rows on chains of :func:`~chainflux.lindblad.mode_route` come from
    their free-fermion modes (:func:`~chainflux.correlations.global_steady_states`),
    in stacks of at most ``_GRID_ELEMENTS / 2^N`` rows, and keep their
    correlation matrices; their channels are each reservoir's bright modes
    by ascending |omega_k|, and their ``unknowns`` read N.  The other rows
    are solved by the real block (:func:`_approach_reports`) on the
    structure of a stack of only their chains, and keep their states; the
    call's stack reads those chains' eigensystems from it.
    """
    (c, n), k = chains.epsilons.shape, len(chain)
    route, bright = mode_route(chains)
    others, at = np.flatnonzero(~route), np.flatnonzero(~route[chain])
    counts = bright.sum(axis=2)  # channels per chain and reservoir
    rho = np.zeros((0,) + chains.hamiltonian.shape[1:], dtype=complex)
    if len(others):
        block = _approach_reports(chain_structure(chains.take(others)),
                                  np.searchsorted(others, chain[at]), baths[at])
        counts[others] = np.diff(block.edges).reshape(-1, 2)
        rho = block.rho
    edges = np.zeros(2 * c + 1, dtype=int)
    np.cumsum(counts, out=edges[1:])
    omegas, owner = np.zeros(edges[-1]), route[np.repeat(np.arange(c), counts.sum(axis=1))]
    freqs = np.abs(chains.modes[0])
    omegas[owner] = np.broadcast_to(freqs[:, None], bright.shape)[bright & route[:, None, None]]
    out = SteadyColumns(
        approach="global",
        populations=np.zeros((k, n)), fluxes=np.zeros((k, 2)), residual=np.zeros(k),
        rcond=np.zeros(k), unknowns=np.full(k, n), errors={}, rho=rho, kept=np.full(k, -1),
        correlations=np.zeros((k, n, n), dtype=complex),
        channels=np.zeros((k, counts.sum(axis=1).max(initial=0))),
        chains=chains, chain=chain, baths=baths, omegas=omegas, edges=edges)
    if len(others):
        omegas[~owner] = block.omegas
        (out.populations[at], out.fluxes[at], out.residual[at], out.rcond[at],
         out.unknowns[at]) = (block.populations, block.fluxes, block.residual, block.rcond,
                              block.unknowns)
        out.channels[at, :block.channels.shape[1]] = block.channels
        out.kept[at] = np.arange(len(at))
        out.errors.update((int(at[i]), error) for i, error in block.errors.items())
    modes, step = np.flatnonzero(route[chain]), max(1, _GRID_ELEMENTS // 2**n)
    for rows in (modes[i:i + step] for i in range(0, len(modes), step)):
        on = chain[rows]
        omega, phi = (a[on] for a in chains.modes)
        (out.populations[rows], out.fluxes[rows], channels, out.correlations[rows],
         out.residual[rows], out.rcond[rows]) = global_steady_states(omega, phi,
                                                                     chains.sites[on], baths[rows])
        mask = bright[on].reshape(len(rows), -1)
        out.channels[rows[np.nonzero(mask)[0]], (np.cumsum(mask, axis=1) - 1)[mask]] = (
            channels.reshape(len(rows), -1)[mask])
    for i in modes[~unique(out.rcond[modes], n)].tolist():
        out.errors[i] = uniqueness_error(out.rcond[i], n)
    return out


def _approach_reports(structure, chain, baths) -> SteadyColumns:
    """:func:`chain_reports` from the real block, on the call's ``structure`` stack.

    Row i is on chain ``chain[i]`` with the (temperature, gamma) of each
    reservoir in ``baths[i]``.  The rates of every row and bin are one
    array (:meth:`~chainflux.lindblad.ChainStructure.rates`), and the rows
    are grouped by their chain's bin count and set of unknowns, one set per
    chain whatever its rates.
    """
    failed = np.isin(chain, list(structure.errors))
    errors = {i: structure.errors[chain[i]] for i in np.flatnonzero(failed).tolist()}
    rows = np.flatnonzero(~failed)
    rates, offsets = structure.rates(chain[rows], baths[rows])
    chains, which = np.unique(chain[rows], return_inverse=True)
    sets, bins = structure.unknown_sets(chains), np.diff(structure.edges[::2])[chains].tolist()
    keys = {}  # (bin count, set of unknowns) -> its group
    group = np.array([keys.setdefault((b, u.dim, u.rows.tobytes(), u.cols.tobytes()), len(keys))
                      for b, u in zip(bins, sets)], dtype=int)
    k, d, n = len(chain), structure.frame_hamiltonian.shape[-1], structure.chains.epsilons.shape[1]
    width = int(np.diff(structure.edges[::2]).max(initial=0))
    out = SteadyColumns(
        approach="global",
        populations=np.zeros((k, n)), fluxes=np.zeros((k, 2)), residual=np.zeros(k),
        rcond=np.zeros(k), unknowns=np.zeros(k, dtype=int), errors=errors,
        rho=np.zeros((k, d, d), dtype=complex), kept=np.arange(k), correlations=None,
        channels=np.zeros((k, width)),
        chains=structure.chains, chain=chain, baths=baths, omegas=structure.omegas,
        edges=structure.edges)
    for g, i in enumerate(np.unique(group, return_index=True)[1].tolist()):  # i: its first chain
        unknowns, members = sets[i], np.flatnonzero(group[which] == g)
        m = unknowns.size
        step = max(1, _GRID_ELEMENTS // m**2)
        for start in range(0, len(members), step):
            stack = members[start:start + step]
            row_rates = rates[offsets[stack][:, None] + np.arange(bins[i])].reshape(len(stack), -1)
            at = rows[stack]
            out.populations[at], out.fluxes[at], channels, out.rho[at], sol = _stack_reports(
                structure, chain[at], row_rates, unknowns)
            out.channels[at, :channels.shape[1]] = channels
            out.residual[at], out.rcond[at], out.unknowns[at] = sol.residual, sol.rcond, m
            for j in np.flatnonzero(~unique(sol.rcond, m)).tolist():
                errors[int(at[j])] = uniqueness_error(sol.rcond[j], m)
    return out


def _local_reports(chains, chain, baths) -> SteadyColumns:
    """:func:`chain_reports` under the local approach, on the call's ``chains`` stack.

    Row i is on chain ``chain[i]`` with the (temperature, gamma) of each
    reservoir in ``baths[i]``.  Each reservoir has one channel, the bare
    jump of its qubit at that qubit's gap.
    """
    k, (c, n) = len(chain), chains.epsilons.shape
    omegas = np.take_along_axis(chains.epsilons, chains.sites, axis=1)
    out = SteadyColumns(
        approach="local",
        populations=np.zeros((k, n)), fluxes=np.zeros((k, 2)), residual=np.zeros(k),
        rcond=np.zeros(k), unknowns=np.full(k, n * n), errors={},
        rho=np.zeros((0, 2**n, 2**n), dtype=complex), kept=np.full(k, -1),
        correlations=np.zeros((k, n, n), dtype=complex), channels=np.zeros((k, 2)),
        chains=chains, chain=chain, baths=baths, omegas=omegas.reshape(-1),
        edges=np.arange(2 * c + 1))
    step = max(1, _GRID_ELEMENTS // n**4)
    for start in range(0, k, step):
        at = slice(start, start + step)
        rows = chain[at]
        rates = bath_rates(omegas[rows], baths[at])
        (out.populations[at], out.fluxes[at], out.correlations[at], out.residual[at],
         out.rcond[at]) = local_steady_states(chains.site_energies[rows],
                                              chains.single_particle[rows], chains.sites[rows],
                                              rates)
    out.channels[:] = out.fluxes
    for i in np.flatnonzero(~unique(out.rcond, n * n)).tolist():
        out.errors[i] = uniqueness_error(out.rcond[i], n * n)
    return out


def _imaginary_residue(values: np.ndarray, what: str) -> np.ndarray:
    worst = np.abs(values.imag).max(initial=0.0)
    if worst > 1e-10:
        raise ValueError(f"{what} has imaginary residue {worst:.3e}")
    return values.real


def _stack_reports(structure, chain, rates, unknowns) -> tuple:
    """Populations, fluxes, channel fluxes, site-basis states and solution of a stack of rows.

    The rows share ``unknowns``; row j is on chain ``chain[j]`` of
    ``structure``, at ``rates[j]``.  The blocks are gathered at once on the
    unknowns, each from its own chain's H and dense stack of jump
    operators, taken to the real coordinates of a Hermitian rho
    (:func:`~chainflux.generator.real_superoperator`) and solved by one
    stacked call (:func:`~chainflux.steady.solve_hermitian`).
    Tr{H D(rho)} is linear in rho: gamma (nbar + 1) Tr{F_e rho} + gamma
    nbar Tr{F_a rho} with the flux functionals F_e = D[A]^dag(H) and F_a =
    D[A^dag]^dag(H) of each bin.  rho is zero off the unknowns (r_i, c_i),
    so each trace is the sum of F[c_i, r_i] rho[r_i, c_i] over them: the
    functionals are read only there (at (r_i, c_i) they would give
    Tr{F rho^T}, wrong wherever the frame state has complex coherences),
    and each reservoir's flux is the sum of its channel fluxes in channel
    order.  Each rho is then taken to the site basis, once, and each row's
    populations are summed off its own diagonal, whatever its stack.
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
    channels = _imaginary_residue(channels, "heat flux")
    fluxes = np.zeros((k, 2))
    reservoirs = structure.reservoirs[first[:, None] + np.arange(bins)]
    np.add.at(fluxes, (np.arange(k)[:, None], reservoirs), channels)
    frames = structure.eigensystem.frame[chain]
    rho = frames @ sol.rho @ frames.conj().swapaxes(1, 2)
    diagonal = _imaginary_residue(np.diagonal(rho, axis1=1, axis2=2), "population")
    occupations = excited_qubits(structure.chains.epsilons.shape[1])
    populations = (diagonal[:, None] * occupations).sum(axis=2)
    return populations, fluxes, channels, rho, sol
