"""Physical invariants of the steady state for drawn chains of N = 1..5, under both approaches."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chainflux import (
    DegenerateKernel,
    DegenerateTransition,
    build_chain_hamiltonian,
    chain,
    qubit_population,
    steady_report,
)

PROPERTIES = settings(derandomize=True, deadline=None, database=None, max_examples=200)

temperatures = st.floats(0.05, 8.0)
gammas = st.floats(0.1, 2.0)


@st.composite
def chains(draw, equal_temperatures=False):
    """A uniform or non-uniform chain of 1..5 qubits between two baths."""
    n = draw(st.integers(1, 5))
    gaps, hoppings = st.floats(0.5, 3.0), st.floats(0.1, 1.5)
    if draw(st.booleans()):  # uniform
        epsilons, couplings = [draw(gaps)] * n, [draw(hoppings)] * (n - 1)
    else:
        epsilons = draw(st.lists(gaps, min_size=n, max_size=n))
        couplings = draw(st.lists(hoppings, min_size=n - 1, max_size=n - 1))
    t1 = draw(temperatures)
    t2 = t1 if equal_temperatures else draw(temperatures)
    return chain(epsilons, couplings, t1, t2, draw(gammas), draw(gammas))


def solved(spec, approach):
    """The steady report, or no example where the description has no unique steady state."""
    try:
        return steady_report(spec, approach)
    except (DegenerateTransition, DegenerateKernel):
        assume(False)


@PROPERTIES
@given(spec=chains(), approach=st.sampled_from(["global", "local"]))
def test_steady_state_is_a_density_matrix_that_balances_energy(spec, approach):
    report = solved(spec, approach)
    rho = report.rho
    assert abs(np.trace(rho) - 1.0) <= 1e-10
    assert np.abs(rho - rho.conj().T).max() <= 1e-12
    assert np.linalg.eigvalsh(rho).min() >= -1e-10
    for q, population in enumerate(report.populations):  # the dense number operators
        assert abs(population - qubit_population(rho, q)) <= 1e-12
    q1, q2 = report.fluxes
    assert abs(q1 + q2) <= 1e-9
    if approach == "global":  # the second law
        t1, t2 = (bath.temperature for bath in spec.baths)
        assert -q1 / t1 - q2 / t2 >= -1e-12


@PROPERTIES
@given(spec=chains(equal_temperatures=True))
def test_global_state_at_equal_temperatures_is_the_gibbs_state(spec):
    report = solved(spec, "global")
    energies, vectors = np.linalg.eigh(build_chain_hamiltonian(spec))
    weights = np.exp(-(energies - energies[0]) / spec.baths[0].temperature)
    gibbs = (vectors * (weights / weights.sum())) @ vectors.conj().T
    assert np.abs(report.rho - gibbs).max() <= 1e-9
