"""Populations, heat fluxes, and the closed-form results they are checked against.

Every analytic function that exists in two printed algebraic forms is
implemented in both and the forms are compared at call time; a disagreement
raises instead of silently returning either value.  Rational forms are
rewritten in terms of the Bose occupations nbar and nbar + 1 before
implementation so that zero temperature stays exact and nothing is ever
exponentiated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import groupby

import numpy as np

from .errors import (
    AnalyticFormMismatch,
    DegenerateTransition,
    DimensionMismatch,
)
from .lindblad import (
    _GRID_ELEMENTS,
    OMEGA_MIN,
    ChainOperators,
    bose_occupation,
    chain_key,
    chain_operators,
    chain_structure,
    superoperator,
    unvectorize,
    vectorize,
)
from .model import ChainSpec
from .operators import number_operator
from .steady import solve_steady, unique, uniqueness_error

_FORM_TOL = 1e-12


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

    ``rcond`` and ``unknowns`` are the solver's 1-norm reciprocal condition
    number and the number of entries of rho it solved for; ``chain`` holds
    the chain's H in the site basis and its eigensystem, computed on first
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
    chain: ChainOperators = field(repr=False, compare=False)


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
    """Per approach, the SteadyReport of each spec, or the error that stopped it.

    The call owns every chain's rate-free data and drops it when it
    returns: one :class:`ChainOperators` per chain (the same gaps, couplings
    and attachments, as along a temperature sweep), so H is built and
    diagonalized once per chain for every approach, and one
    :class:`~chainflux.lindblad.ChainStructure` per chain and approach.
    The approaches are solved one after the other, so one approach's
    structures are let go before the next one's are built.  Within an
    approach, rows are grouped by their set of unknowns and pattern of zero
    rates, across chains: the rows of a temperature sweep with the same
    zero rates, the local rows of a K or eps scan, and the global rows of
    chains whose frame generators couple the same entries.  Every row of a
    stack thus skips the same zero-rate terms.  Each group is solved in stacks of at most
    ``_GRID_ELEMENTS`` block elements (:func:`_stack_reports`), so a dimer
    sweep is one stack per set and an N = 5 local block (252^2 elements)
    goes alone.  Every spec of a chain whose eigenbasis route degenerates
    gets that DegenerateTransition (the other chains of the call are
    solved as usual), and a spec whose steady state is not unique gets its
    own DegenerateKernel.  Each report is the one :func:`steady_report`
    gives, bit for bit.
    """
    chains = {}  # chain key -> (ChainOperators, indices of the chain's specs)
    for i, spec in enumerate(specs):
        key = chain_key(spec)
        entry = chains.get(key)
        if entry is None:
            entry = chains[key] = (chain_operators(spec), [])
        entry[1].append(i)
    return [_approach_reports(specs, chains.values(), approach) for approach in approaches]


def _approach_reports(specs, chains, approach) -> list:
    """:func:`steady_reports` under one approach, on the call's ``chains``.

    Each chain's rates are one array (:meth:`ChainStructure.rates`), and its
    rows are split by the bytes of each row's zero-rate pattern.
    """
    groups = {}  # (set of unknowns, zero rates) -> (unknowns, rows, structures, rates)
    results = [None] * len(specs)
    for operators, rows in chains:
        try:
            structure = chain_structure(operators, specs[rows[0]], approach)
        except DegenerateTransition as err:
            # kept without its traceback, whose frames would hold this
            # call's locals in a reference cycle
            err = err.with_traceback(None)
            for i in rows:
                results[i] = err
            continue
        rates = structure.rates([specs[i].baths for i in rows])
        zero = rates == 0
        patterns = {}
        for j, pattern in enumerate(zero):
            patterns.setdefault(pattern.tobytes(), []).append(j)
        for pattern, members in patterns.items():
            unknowns = structure.unknowns(zero[members[0]])
            key = (unknowns.dim, unknowns.rows.tobytes(), unknowns.cols.tobytes(), pattern)
            group = groups.setdefault(key, (unknowns, [], [], []))
            group[1].extend(rows[j] for j in members)
            group[2].extend([structure] * len(members))
            group[3].append(rates[members])
    for unknowns, rows, structures, rates in groups.values():
        rates = np.concatenate(rates)
        step = max(1, _GRID_ELEMENTS // unknowns.size**2)
        for start in range(0, len(rows), step):
            stack = rows[start:start + step]
            reports = _stack_reports(structures[start:start + step], [specs[i] for i in stack],
                                     approach, rates[start:start + step], unknowns)
            for i, report in zip(stack, reports):
                results[i] = report
    return results


def _imaginary_residue(values: np.ndarray, what: str) -> np.ndarray:
    worst = np.abs(values.imag).max(initial=0.0)
    if worst > 1e-10:
        raise ValueError(f"{what} has imaginary residue {worst:.3e}")
    return values.real


def _per_row(runs, name: str) -> np.ndarray:
    """Array ``name`` of each (owner, rows) run, per row; a leading axis of one if all share it."""
    arrays = [getattr(owner, name) for owner, _ in runs]
    if all(a is arrays[0] for a in arrays):
        return arrays[0][None]
    return np.repeat(np.array(arrays), [count for _, count in runs], axis=0)


def _stack_reports(structures, specs, approach, rates, unknowns) -> list:
    """Reports of one stack of rows that share ``unknowns``; row j is on ``structures[j]``.

    The blocks are built at once (:func:`superoperator`), each on its own
    row's H and jump operators, and solved by one stacked call
    (:func:`solve_steady`).  Tr{H D(rho)} is linear in rho:
    gamma (nbar + 1) Tr{F_e rho} + gamma nbar Tr{F_a rho} with the flux
    functionals F_e = D[A]^dag(H) and F_a = D[A^dag]^dag(H) each row's
    structure keeps, so one product with each rho gives every channel's
    traces; the populations are read off the number operators in the frame
    the same way.  Consecutive rows on one structure are read together:
    each reservoir's flux is the sum of its channel fluxes in channel
    order, one column at a time.  A row whose system is not :func:`unique`
    gets its DegenerateKernel.
    """
    runs = [(structure, len(tuple(rows))) for structure, rows in groupby(structures)]
    k, d, m = len(specs), unknowns.dim, unknowns.size
    sol = solve_steady(superoperator(_per_row(runs, "frame_hamiltonian"),
                                     _per_row(runs, "operators"), rates, unknowns),
                       unknowns)
    flat = sol.rho.swapaxes(1, 2).reshape(k, d * d, 1)  # rho^T: Tr{F rho} = F . rho^T
    functionals = _per_row(runs, "flux_functionals")
    traces = functionals.reshape(len(functionals), -1, d * d) @ flat
    channels = (rates.reshape(k, -1, 2) * traces.reshape(k, -1, 2)).sum(axis=2)
    channels = _imaginary_residue(channels, "heat flux")
    numbers = _per_row(runs, "population_functionals")
    populations = numbers.reshape(len(numbers), -1, d * d) @ flat
    populations = _imaginary_residue(populations[..., 0], "population").tolist()
    rho = sol.rho
    if approach == "global":
        frames = _per_row([(s.eigensystem, count) for s, count in runs], "frame")
        rho = frames @ rho @ frames.conj().swapaxes(1, 2)
    solved = unique(sol.rcond, m).tolist()
    residuals, rconds = sol.residual.tolist(), sol.rcond.tolist()
    out = []
    for structure, count in runs:
        j = len(out)
        omegas, slices = structure.channels
        fluxes, breakdowns = [], []
        for piece in slices:
            run = channels[j:j + count, piece]
            total = np.zeros(count)
            for column in run.T:  # as sum(): 0 + q_1 + q_2 + ...
                total += column
            fluxes.append(total.tolist())
            freqs = omegas[piece].tolist()
            breakdowns.append([tuple(zip(freqs, values)) for values in run.tolist()])
        for j, flux, breakdown in zip(range(j, j + count), zip(*fluxes), zip(*breakdowns)):
            if not solved[j]:
                out.append(uniqueness_error(rconds[j], m))
                continue
            out.append(SteadyReport(
                spec=specs[j], approach=approach, rho=rho[j], populations=tuple(populations[j]),
                fluxes=flux, residual=residuals[j], channel_fluxes=breakdown,
                rcond=rconds[j], unknowns=m, chain=structure.chain,
            ))
    return out
