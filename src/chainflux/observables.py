"""Populations, heat fluxes, and the closed-form results they are checked against.

Every analytic function that exists in two printed algebraic forms is
implemented in both and the forms are compared at call time; a disagreement
raises instead of silently returning either value.  Rational forms are
rewritten in terms of the Bose occupations nbar and nbar + 1 before
implementation so that zero temperature stays exact and nothing is ever
exponentiated.

The numeric pipeline solves stacks of rows as columns (:func:`chain_reports`).
Every row, local or global, is solved through an N x N correlation matrix
(:mod:`chainflux.correlations`): the local rows from the site fermions, the
global rows from the chain's modes, grouped by shared frequency bin
(:func:`~chainflux.lindblad.mode_groups`).
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
from .correlations import (
    fock_probabilities,
    global_steady_states,
    group_steady_states,
    local_steady_states,
)
from .generator import unvectorize, vectorize
from .lindblad import (
    OMEGA_MIN,
    Chain,
    ChainOperators,
    bath_rates,
    bose_occupation,
    chain_operators,
    fock_order,
    mode_groups,
)
from .model import BathSpec, ChainSpec
from .operators import number_operator
from .steady import unique, uniqueness_error

_FORM_TOL = 1e-12

# The steady solves and the diagonals go in stacks of at most this many
# elements (128 KB per real array): of the N^2 x N^2 correlation systems of
# the local rows and of the global rows with a shared bin, of the 2^N mode
# Fock energies of the closed-form global rows, and of the 2^N N x N
# determinants of rho_diagonals.  A sweep holds no larger array per row, so
# this bounds its peak memory.
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
    row's correlation matrix.  ``residual`` is |L(rho)|_F, in closed form
    from that matrix.  ``rcond`` and ``unknowns`` are the solver's 1-norm
    reciprocal condition number and the number of real coordinates it
    solved for: N^2 for a local row or a global row with a shared bin, N
    for a global row solved mode by mode, with rcond min_k Lambda_k / max_k
    Lambda_k; ``chain`` gives the chain's eigensystem, computed on first
    use and shared by the reports of both approaches on the chain.
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
    rcond), and such a row's entries are no result.  Row i keeps only its
    correlation matrix, ``correlations[i]`` (rows, N, N): over the site
    fermions, or, where ``hole_frame[i]``, over the hole-frame modes of its
    chain (:func:`~chainflux.correlations.group_steady_states`), from which
    the row views build the states (:meth:`states`) and
    :meth:`rho_diagonals` reads the diagonals.  ``channels`` holds the
    channel fluxes in bin order, zero-padded.  Row i is on chain
    ``chain[i]`` of the call's ``chains``, and its channels are the bins at
    ``omegas[edges[2c]:edges[2c + 2]]``, reservoir by reservoir.
    ``baths[i]`` holds the (temperature, gamma) of each reservoir of row i.
    ``columns[i]`` builds row i's :class:`SteadyReport`, with the spec of
    its chain and baths, or gives its error.
    """

    approach: str
    populations: np.ndarray
    fluxes: np.ndarray
    residual: np.ndarray
    rcond: np.ndarray
    unknowns: np.ndarray
    errors: dict
    correlations: np.ndarray
    hole_frame: np.ndarray
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
        """The site-basis states of ``rows``, (rows, d, d), built on each call.

        Each is the Gaussian state of the row's correlation matrix
        (:func:`~chainflux.correlations._gaussian_states`), in its hole
        frame where ``hole_frame`` marks it.
        """
        rows = np.arange(len(self))[rows]
        omega, phi = (a[self.chain[rows]] for a in self.chains.modes)
        holes = self.hole_frame[rows, None]
        return correlations._gaussian_states(
            self.correlations[rows], np.where(holes[..., None], phi, np.eye(phi.shape[-1])),
            holes & (omega < 0))

    def rho_diagonals(self, rows) -> np.ndarray:
        """The probabilities of ``rows`` on their chain's mode Fock states in its order, (rows, d).

        From phi^T C phi, or a hole-frame C~ as it is
        (:func:`~chainflux.correlations.fock_probabilities`), in stacks of
        at most ``_GRID_ELEMENTS`` elements of their (d, N, N) determinants;
        the order is each chain's :func:`~chainflux.lindblad.fock_order`.
        """
        rows, n = np.arange(len(self))[rows], self.correlations.shape[-1]
        out = np.empty((len(rows), 2**n))
        if len(rows):
            chains, which = np.unique(self.chain[rows], return_inverse=True)
            omega, phi = (a[chains] for a in self.chains.modes)
            order, step = fock_order(omega), max(1, _GRID_ELEMENTS // (2**n * n * n))
            for at in (slice(i, i + step) for i in range(0, len(rows), step)):
                on, holes, C = which[at], self.hole_frame[rows[at]], self.correlations[rows[at]]
                C = np.where(holes[:, None, None], C, phi[on].swapaxes(1, 2) @ C @ phi[on])
                out[at] = np.take_along_axis(
                    fock_probabilities(C, (omega[on] < 0) & holes[:, None]), order[on], axis=1)
        return out


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
    return chain_reports(chain_operators(first), np.array(chain, dtype=int), baths, approaches)


def chain_reports(chains: ChainOperators, chain: np.ndarray, baths: np.ndarray,
                  approaches) -> list:
    """Per approach, the :class:`SteadyColumns` of rows on the ``chains`` stack.

    Row i is on chain ``chain[i]`` with the (temperature, gamma) of each
    reservoir at ``baths[i]`` (rows, 2, 2).  The call owns every chain's
    rate-free data, one :class:`ChainOperators` stack, so every chain's
    modes are computed once for both approaches.  Every row is solved
    through its N x N correlation matrix and keeps it, not its 2^N state:
    the global rows from their chains' modes (:func:`_global_reports`),
    where every row of a chain with a zero mode gets that chain's
    DegenerateTransition, and the local rows from their site fermions
    (:func:`_local_reports`).  A row whose steady state is not unique gets
    its own DegenerateKernel.
    """
    for approach in approaches:
        if approach not in ("global", "local"):
            raise ValueError(f"approach must be 'global' or 'local', got {approach!r}")
    return [_local_reports(chains, chain, baths) if approach == "local" else
            _global_reports(chains, chain, baths) for approach in approaches]


def _global_reports(chains, chain, baths) -> SteadyColumns:
    """:func:`chain_reports` under the global approach, on the call's ``chains`` stack.

    Each chain's modes are grouped by shared bin, and its channels are
    each reservoir's groups with a bright mode, by ascending |omega|, each
    at its modes' mean |omega_k| (:func:`~chainflux.lindblad.mode_groups`).
    The rows on chains where every group holds one mode come from their
    modes in closed form (:func:`~chainflux.correlations.global_steady_states`,
    N ``unknowns``), the others from the N^2 system of their hole frame
    (:func:`~chainflux.correlations.group_steady_states`), in stacks of at
    most ``_GRID_ELEMENTS`` elements.  The rows of a chain with a bright
    zero mode get its DegenerateTransition and are not solved.
    """
    (c, n), k = chains.epsilons.shape, len(chain)
    group, lit, zero = mode_groups(chains)
    freqs, shared = np.abs(chains.modes[0]), group[:, -1] < n - 1
    if shared.any():  # each group's channels, and its mean |omega_k|
        members = group[:, :, None] == np.arange(n)
        lit = (lit[:, :, :, None] & members[:, None]).any(axis=2)
        freqs = np.einsum("cm,cmg->cg", freqs, members) / members.sum(axis=1).clip(1)
    counts = lit.sum(axis=2)  # channels per chain and reservoir
    edges = np.zeros(2 * c + 1, dtype=int)
    np.cumsum(counts, out=edges[1:])
    out = SteadyColumns(
        approach="global",
        populations=np.zeros((k, n)), fluxes=np.zeros((k, 2)), residual=np.zeros(k),
        rcond=np.zeros(k), unknowns=np.where(shared[chain], n * n, n), errors={},
        correlations=np.zeros((k, n, n), dtype=complex), hole_frame=shared[chain],
        channels=np.zeros((k, counts.sum(axis=1).max(initial=0))),
        chains=chains, chain=chain, baths=baths,
        omegas=np.broadcast_to(freqs[:, None], lit.shape)[lit], edges=edges)
    failed = np.zeros(c, dtype=bool)
    failed[list(zero)] = True
    failed = failed[chain]
    out.errors.update((i, zero[chain[i]]) for i in np.flatnonzero(failed).tolist())
    for route, solve, size in ((~shared, global_steady_states, 2**n),
                               (shared, group_steady_states, n**4)):
        todo, step = np.flatnonzero(route[chain] & ~failed), max(1, _GRID_ELEMENTS // size)
        for rows in (todo[i:i + step] for i in range(0, len(todo), step)):
            on = chain[rows]
            omega, phi = (a[on] for a in chains.modes)
            groups = (group[on],) if solve is group_steady_states else ()
            (out.populations[rows], out.fluxes[rows], channels, out.correlations[rows],
             out.residual[rows], out.rcond[rows]) = solve(omega, phi, *groups, chains.sites[on],
                                                          baths[rows])
            mask = lit[on].reshape(len(rows), -1)
            out.channels[rows[np.nonzero(mask)[0]], (np.cumsum(mask, axis=1) - 1)[mask]] = (
                channels.reshape(len(rows), -1)[mask])
        for i in todo[~unique(out.rcond[todo], out.unknowns[todo])].tolist():
            out.errors[i] = uniqueness_error(out.rcond[i], int(out.unknowns[i]))
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
        correlations=np.zeros((k, n, n), dtype=complex), hole_frame=np.zeros(k, dtype=bool),
        channels=np.zeros((k, 2)),
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
