"""Populations, heat fluxes, and the closed-form results they are checked against.

Every analytic function that exists in two printed algebraic forms is
implemented in both and the forms are compared at call time; a disagreement
raises instead of silently returning either value.  Rational forms are
rewritten in terms of the Bose occupations nbar and nbar + 1 before
implementation so that zero temperature stays exact and nothing is ever
exponentiated.

The numeric pipeline solves stacks of rows as columns (:func:`chain_reports`).
Every row, local or global, is solved through an N x N correlation matrix
(:mod:`chainflux.correlations`): the local rows, and the global rows of
chains with a frequency bin of several modes
(:func:`~chainflux.lindblad.mode_groups`), by one N^2 solve that differs
only in its inputs (:func:`~chainflux.correlations.quadratic_steady_states`),
the other global rows from their modes in closed form.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import AnalyticFormMismatch, DegenerateTransition, DimensionMismatch, NoConvergence
from . import correlations
from .correlations import (fock_probabilities, global_steady_states, group_steady_states,
                           quadratic_steady_states)
from .generator import unvectorize, vectorize
from .lindblad import (OMEGA_MIN, ChainOperators, bath_rates, bose_occupation, chain_operators,
                       mode_groups)
from .model import BathSpec, ChainSpec
from .operators import number_operator
from .steady import RESIDUAL_TOL, unique, uniqueness_error

_FORM_TOL = 1e-12

# The steady solves and the diagonals go in stacks of at most this many
# elements (128 KB per real array): of the N^2 x N^2 correlation systems of
# the local rows and of the global rows with a shared bin, of the N x N
# matrices of the closed-form global rows, and of the 2^N N x N
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
    solved for: N^2 for a local row or a global row with a shared bin,
    with the rcond of the row-equilibrated system, and N for a global row
    solved mode by mode, with rcond min_k Lambda_k / max_k Lambda_k.
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


@dataclass(frozen=True, eq=False)
class SteadyColumns(Sequence):
    """One approach's results for the rows of a :func:`chain_reports` call.

    ``populations`` (rows, N), ``residual``, ``rcond`` and ``unknowns``
    are columns; ``errors`` maps each row without a result to its
    DegenerateTransition (with its omega), DegenerateKernel (with its
    rcond) or NoConvergence (naming its residual), and such a row's
    entries are no result.  Row i keeps only its correlation matrix,
    ``correlations[i]`` (rows, N, N): over the site fermions, or, where
    ``hole_frame[i]``, over the hole-frame modes of its chain
    (:func:`~chainflux.correlations.group_steady_states`), from which the
    row views build the states (:meth:`states`) and :meth:`rho_diagonals`
    reads the diagonals.  Row i is on chain
    ``chain[i]`` of the call's ``chains``; ``channels[i]`` (rows, 2, m)
    holds each reservoir's flux through each of m channel slots, chain c's
    slot at ``omegas[c]`` (chains, 2, m), a channel where ``lit[c]``
    (chains, 2, m) is set, and ``fluxes`` (rows, 2) is their sum.
    ``baths[i]`` holds the (temperature, gamma) of each reservoir of row i.
    ``columns[i]`` builds row i's :class:`SteadyReport`, with the spec of
    its chain and baths, or gives its error.
    """

    approach: str
    populations: np.ndarray
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
    lit: np.ndarray

    @property
    def fluxes(self) -> np.ndarray:
        return self.channels.sum(axis=2)

    def __len__(self) -> int:
        return len(self.residual)

    def __getitem__(self, i):
        i = range(len(self))[i]
        if i in self.errors:
            return self.errors[i]
        c = int(self.chain[i])
        lit, omegas, values = self.lit[c], self.omegas[c], self.channels[i]
        chains, (t, gamma) = self.chains, self.baths[i].T.tolist()
        baths = tuple(map(BathSpec, t, gamma, self.chains.sites[c].tolist()))
        spec = ChainSpec(chains.epsilons.shape[1], tuple(chains.epsilons[c].tolist()),
                         tuple(chains.hoppings[c].tolist()), baths)
        return SteadyReport(
            spec=spec, approach=self.approach, rho=self.states([i])[0],
            populations=tuple(self.populations[i].tolist()),
            fluxes=tuple(values.sum(axis=1).tolist()), residual=self.residual[i].item(),
            channel_fluxes=tuple(tuple(zip(omegas[j, lit[j]].tolist(), values[j, lit[j]].tolist()))
                                 for j in range(2)),
            rcond=self.rcond[i].item(), unknowns=int(self.unknowns[i]))

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
        the order is each chain's :attr:`ChainOperators.fock_order`.
        """
        rows, n = np.arange(len(self))[rows], self.correlations.shape[-1]
        out = np.empty((len(rows), 2**n))
        (omega, phi), order = self.chains.modes, self.chains.fock_order
        step = max(1, _GRID_ELEMENTS // (2**n * n * n))
        for at in (slice(i, i + step) for i in range(0, len(rows), step)):
            on, holes, C = (a[rows[at]] for a in (self.chain, self.hole_frame, self.correlations))
            C = np.where(holes[:, None, None], C, phi[on].swapaxes(1, 2) @ C @ phi[on])
            probabilities = fock_probabilities(C, (omega[on] < 0) & holes[:, None])
            out[at] = probabilities[np.arange(len(on))[:, None], order[on]]
        return out


def steady_report(spec: ChainSpec, approach: str) -> SteadyReport:
    """Assemble, solve and measure one chain; the one-stop numeric pipeline.

    A stack of one of :func:`steady_reports`; raises the DegenerateTransition,
    DegenerateKernel or NoConvergence that function would return.
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
    modes and Fock order are computed once for both approaches.  Every row
    is solved through its N x N correlation matrix and keeps it, not its
    2^N state: the global rows from their chains' modes
    (:func:`_global_reports`), where a chain with a zero mode gives its
    rows its DegenerateTransition, and the local rows from their site
    fermions (:func:`_local_reports`).  The other rows of both approaches are
    judged in one :class:`_ResidualPass`: a row gets its DegenerateKernel,
    and residual 0, where its steady state is not unique
    (:func:`~chainflux.steady.unique`), else its NoConvergence where its
    residual is NaN or above RESIDUAL_TOL * max(|L|_F, 1).
    """
    for approach in approaches:
        if approach not in ("global", "local"):
            raise ValueError(f"approach must be 'global' or 'local', got {approach!r}")
    residuals = _ResidualPass(chains.epsilons.shape[1])
    out = [(_local_reports if approach == "local" else _global_reports)(
        chains, chain, baths, residuals) for approach in approaches]
    residuals.flush()
    return out


class _ResidualPass:
    """Solved stacks of both approaches, judged from one residual and one |L|_F call per flush.

    :meth:`flush` joins the queued residual inputs, also before the queue would pass
    ``_GRID_ELEMENTS`` elements per (rows, N, N) array; each row keeps the bits of its own stack.
    """

    def __init__(self, n: int):
        self.limit, self.queue = max(1, _GRID_ELEMENTS // (n * n)), []

    def add(self, columns: SteadyColumns, rows: np.ndarray, inputs: tuple) -> None:
        if sum(len(queued[1]) for queued in self.queue) + len(rows) > self.limit:
            self.flush()
        self.queue.append((columns, rows, inputs))

    def flush(self) -> None:
        if self.queue:
            X, G, C, gaps, hoppings, rates = map(np.concatenate, zip(*(q[2] for q in self.queue)))
            residuals = correlations._gaussian_residuals(X, G, C)
            norms, start = correlations._generator_norms(gaps, hoppings, rates), 0
            for columns, rows, _ in self.queue:
                at, start = slice(start, start + len(rows)), start + len(rows)
                rcond, unknowns = columns.rcond[rows], columns.unknowns[rows]
                solved = unique(rcond, unknowns)
                columns.residual[rows] = residual = np.where(solved, residuals[at], 0.0)
                bound = RESIDUAL_TOL * np.maximum(norms[at], 1.0)
                for i in np.flatnonzero(~solved | ~(residual <= bound)).tolist():
                    error = uniqueness_error(rcond[i], int(unknowns[i]))
                    columns.errors[int(rows[i])] = error or NoConvergence(
                        f"steady-state residual {residual[i]:.3e} exceeds {bound[i]:.3e} = "
                        f"{RESIDUAL_TOL:.1e} * max(|L|_F, 1)")
        self.queue = []


def _global_reports(chains, chain, baths, residuals) -> SteadyColumns:
    """:func:`chain_reports` under the global approach, on the call's ``chains`` stack.

    Each chain's modes are grouped by shared bin, and its channel slots are
    its groups by ascending |omega|, each at its modes' mean |omega_k| and
    a channel of the reservoirs it has a bright mode of
    (:func:`~chainflux.lindblad.mode_groups`).  The rows on chains where
    every group holds one mode come from their modes in closed form
    (:func:`~chainflux.correlations.global_steady_states`, N ``unknowns``),
    the others from the N^2 system of their hole frame
    (:func:`~chainflux.correlations.group_steady_states`), in stacks of at
    most ``_GRID_ELEMENTS`` elements, queued on ``residuals``.  The rows of
    a chain with a bright zero mode get its DegenerateTransition and are
    not solved.
    """
    (c, n), k = chains.epsilons.shape, len(chain)
    group, lit, zero = mode_groups(chains)
    shared, members = group[:, -1] < n - 1, group[:, :, None] == np.arange(n)
    lit = (lit[:, :, :, None] & members[:, None]).any(axis=2)
    means = np.einsum("cm,cmg->cg", np.abs(chains.modes[0]), members) / members.sum(axis=1).clip(1)
    out = SteadyColumns(
        approach="global",
        populations=np.zeros((k, n)), residual=np.zeros(k),
        rcond=np.zeros(k), unknowns=np.where(shared[chain], n * n, n), errors={},
        correlations=np.zeros((k, n, n), dtype=complex), hole_frame=shared[chain],
        channels=np.zeros((k, 2, n)), chains=chains, chain=chain, baths=baths,
        omegas=means[:, None].repeat(2, axis=1), lit=lit)
    failed = np.zeros(c, dtype=bool)
    failed[list(zero)] = True
    failed = failed[chain]
    out.errors.update((i, zero[chain[i]]) for i in np.flatnonzero(failed).tolist())
    for route, solve, size in ((~shared, global_steady_states, n * n),
                               (shared, group_steady_states, n**4)):
        todo, step = np.flatnonzero(route[chain] & ~failed), max(1, _GRID_ELEMENTS // size)
        for rows in (todo[i:i + step] for i in range(0, len(todo), step)):
            on = chain[rows]
            omega, phi = (a[on] for a in chains.modes)
            groups = (group[on],) if solve is group_steady_states else ()
            (out.populations[rows], out.channels[rows], out.correlations[rows], out.rcond[rows],
             inputs) = solve(omega, phi, *groups, chains.sites[on], baths[rows])
            residuals.add(out, rows, inputs)
    return out


def _local_reports(chains, chain, baths, residuals) -> SteadyColumns:
    """:func:`chain_reports` under the local approach, on the call's ``chains`` stack.

    Row i is on chain ``chain[i]`` with the (temperature, gamma) of each
    reservoir in ``baths[i]``.  Each reservoir has one channel, the bare
    jump of its qubit at that qubit's gap: the rows are the
    :func:`~chainflux.correlations.quadratic_steady_states` of the chain's
    single-particle h, each reservoir draining the fermion of its qubit,
    and their populations the diagonals of C, its stacks queued on
    ``residuals``.
    """
    k, (c, n) = len(chain), chains.epsilons.shape
    omegas = chains.epsilons[np.arange(c)[:, None], chains.sites][:, :, None]
    out = SteadyColumns(
        approach="local",
        populations=np.zeros((k, n)), residual=np.zeros(k),
        rcond=np.zeros(k), unknowns=np.full(k, n * n), errors={},
        correlations=np.zeros((k, n, n), dtype=complex), hole_frame=np.zeros(k, dtype=bool),
        channels=np.zeros((k, 2, 1)), chains=chains, chain=chain, baths=baths,
        omegas=omegas, lit=np.ones((c, 2, 1), dtype=bool))
    todo, step = np.arange(k), max(1, _GRID_ELEMENTS // n**4)
    for rows in (todo[i:i + step] for i in range(0, k, step)):
        on = chain[rows]
        (out.correlations[rows], out.channels[rows], out.rcond[rows],
         inputs) = quadratic_steady_states(chains.single_particle[on],
                                           np.eye(n)[chains.sites[on], None],
                                           bath_rates(omegas[on], baths[rows, :, None]))
        residuals.add(out, rows, inputs)
    out.populations[:] = np.diagonal(out.correlations, axis1=1, axis2=2).real
    return out
