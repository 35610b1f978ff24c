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
from dataclasses import dataclass

import numpy as np

from .errors import (
    AnalyticFormMismatch,
    DegenerateTransition,
    DimensionMismatch,
)
from .lindblad import (
    OMEGA_MIN,
    LindbladModel,
    assemble,
    bose_occupation,
    unvectorize,
    vectorize,
)
from .model import ChainSpec
from .operators import number_operator
from .steady import solve_steady

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
    """Full numeric pipeline output for one chain under one approach."""

    spec: ChainSpec
    approach: str
    rho: np.ndarray
    populations: tuple
    fluxes: tuple
    residual: float
    channel_fluxes: tuple  # per reservoir: ((omega, flux), ...)


def steady_report(spec: ChainSpec, approach: str,
                  model: LindbladModel = None) -> SteadyReport:
    """Assemble, solve and measure one chain; the one-stop numeric pipeline.

    The solve runs on ``model.block`` in the model's frame, where the
    channel fluxes are taken too; the state is reported in the site basis.
    Each reservoir's flux is the sum of its channel fluxes.
    """
    if model is None:
        model = assemble(spec, approach)
    sol = solve_steady(model.block, unknowns=model.unknowns)
    rho = model.to_site(sol.rho)
    pops = tuple(qubit_population(rho, q) for q in range(spec.n_qubits))
    breakdown = _channel_fluxes(model, sol.rho)
    fluxes = tuple(sum(q for _, q in reservoir) for reservoir in breakdown)
    return SteadyReport(
        spec=spec, approach=approach, rho=rho, populations=pops,
        fluxes=fluxes, residual=sol.residual, channel_fluxes=breakdown,
    )


def _channel_fluxes(model: LindbladModel, rho: np.ndarray) -> tuple:
    """((omega, Tr{H D(rho)}), ...) of each reservoir's channels, rho in the model's frame.

    Tr{H D(rho)} is linear in rho: gamma (nbar + 1) Tr{F_e rho} +
    gamma nbar Tr{F_a rho} with the flux functionals F_e = D[A]^dag(H) and
    F_a = D[A^dag]^dag(H) the chain's structure keeps, so one product with
    rho gives every channel's traces.
    """
    functionals = model.structure.flux_functionals
    traces = functionals.reshape(len(functionals), 2, -1) @ rho.T.reshape(-1)
    channels = [ch for reservoir in model.frame_channels for ch in reservoir]
    rates = np.array([(ch.gamma * (ch.nbar + 1.0), ch.gamma * ch.nbar) for ch in channels])
    values = (rates * traces).sum(axis=1)
    worst = np.abs(values.imag).max(initial=0.0)
    if worst > 1e-10:
        raise ValueError(f"heat flux has imaginary residue {worst:.3e}")
    values = iter(values.real.tolist())
    return tuple(tuple((ch.omega, next(values)) for ch in reservoir)
                 for reservoir in model.frame_channels)
