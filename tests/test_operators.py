import numpy as np
import pytest

from chainflux import (
    DegenerateDenominator,
    IndexOutOfRange,
    NotHermitian,
    NTooLarge,
    build_chain_hamiltonian,
    chain,
    diagonalize,
    dimer,
    site_operator,
    total_excitation,
)

from oracles import dimer_analytic_eigensystem


def test_single_qubit_sigma_z():
    assert np.array_equal(site_operator(1, 0, "z"), np.diag([1.0, -1.0]))


def test_two_qubit_raise_is_tensor_product():
    op = site_operator(2, 0, "raise")
    expected = np.kron(np.array([[0, 1], [0, 0]]), np.eye(2))
    assert np.array_equal(op, expected)
    assert np.count_nonzero(op) == 2
    assert set(op[op != 0]) == {1.0 + 0j}


def kron_site_operator(n_qubits, site, kind):
    """I x ... x sigma x ... x I as a chain of Kronecker products, the reference."""
    sigma = {"raise": [[0.0, 1.0], [0.0, 0.0]], "lower": [[0.0, 0.0], [1.0, 0.0]],
             "z": [[1.0, 0.0], [0.0, -1.0]]}[kind]
    out = np.eye(1, dtype=complex)
    for q in range(n_qubits):
        out = np.kron(out, np.array(sigma, dtype=complex) if q == site else np.eye(2))
    return out


@pytest.mark.parametrize("kind", ["raise", "lower", "z"])
def test_index_built_site_operators_equal_the_kronecker_chain(kind):
    for n in range(1, 6):
        for site in range(n):
            op = site_operator(n, site, kind)
            assert op.dtype == complex and not op.flags.writeable
            assert np.array_equal(op, kron_site_operator(n, site, kind))


def test_commutator_on_one_site_gives_sigma_z():
    for n, site in [(1, 0), (3, 1)]:
        sp = site_operator(n, site, "raise")
        sm = site_operator(n, site, "lower")
        comm = sp @ sm - sm @ sp
        assert np.abs(comm - site_operator(n, site, "z")).max() == 0


def test_operators_on_different_sites_commute():
    a = site_operator(3, 0, "raise")
    b = site_operator(3, 2, "lower")
    assert np.abs(a @ b - b @ a).max() <= 1e-14


def test_site_operator_errors():
    with pytest.raises(IndexOutOfRange):
        site_operator(2, 2, "z")
    with pytest.raises(NTooLarge):
        site_operator(6, 0, "z")
    with pytest.raises(ValueError):
        site_operator(2, 0, "x")


def test_monomer_hamiltonian():
    H = build_chain_hamiltonian(chain([1.5], [], 1.0, 0.0))
    assert np.allclose(H, np.diag([0.75, -0.75]))


def test_symmetric_dimer_eigenvalues():
    eps, k = 1.5, 1.0
    H = build_chain_hamiltonian(dimer(eps, eps, k, 1.0, 0.0))
    assert np.allclose(np.linalg.eigvalsh(H), [-eps, -k, k, eps])


def test_asymmetric_dimer_eigenvalues():
    H = build_chain_hamiltonian(dimer(2.0, 1.0, 1.0, 1.0, 0.0))
    alpha = np.sqrt(1.25)
    assert np.allclose(np.linalg.eigvalsh(H), [-1.5, -alpha, alpha, 1.5])


def test_hamiltonian_is_traceless_and_conserves_excitation():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        spec = chain(rng.uniform(0.1, 3.0, n), rng.uniform(-2.0, 2.0, max(n - 1, 0)),
                     1.0, 0.0)
        H = build_chain_hamiltonian(spec)
        assert abs(np.trace(H)) <= 1e-12
        ntot = total_excitation(n)
        assert np.abs(H @ ntot - ntot @ H).max() <= 1e-12


def test_diagonalize_sorts_and_uses_identity_permutation_for_diagonal_input():
    es = diagonalize(np.diag([2.0, -1.0]).astype(complex))
    assert np.allclose(es.energies, [-1.0, 2.0])
    assert np.allclose(np.abs(es.vectors), [[0, 1], [1, 0]])


def test_diagonalize_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        diagonalize(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))


def test_chain_eigenvectors_lie_in_one_excitation_sector():
    rng = np.random.default_rng(12)
    for n in (2, 3, 4, 5):
        spec = chain(rng.uniform(0.5, 2.0, n), rng.uniform(0.1, 1.5, n - 1), 1.0, 0.0)
        es = diagonalize(build_chain_hamiltonian(spec))
        exc = np.real(np.diag(total_excitation(n)))
        assert np.all(np.diff(es.energies) >= 0)
        for p in range(es.dim):
            assert len(set(exc[es.vectors[:, p] != 0])) == 1


def test_phase_convention_largest_entry_real_positive():
    rng = np.random.default_rng(3)
    A = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    H = A + A.conj().T
    es = diagonalize(H)
    for p in range(8):
        col = es.vectors[:, p]
        lead = col[np.abs(col).argmax()]
        assert abs(lead.imag) <= 1e-12
        assert lead.real > 0


def test_symmetric_dimer_eigenvector_amplitudes():
    H = build_chain_hamiltonian(dimer(1.5, 1.5, 1.0, 1.0, 0.0))
    es = diagonalize(H)
    # ascending energies are -eps, -K, +K, +eps; one-excitation states sit
    # in the middle with amplitudes of magnitude 1/sqrt(2)
    r = 1.0 / np.sqrt(2.0)
    assert np.allclose(np.abs(es.vectors[1:3, 1]), [r, r], atol=1e-12)
    assert np.allclose(np.abs(es.vectors[1:3, 2]), [r, r], atol=1e-12)


def test_diagonalize_matches_analytic_dimer_eigenvalues():
    rng = np.random.default_rng(11)
    for _ in range(100):
        eps1, eps2 = rng.uniform(0.1, 4.0, 2)
        k = rng.uniform(0.05, 3.0)
        H = build_chain_hamiltonian(dimer(eps1, eps2, k, 1.0, 0.0))
        es = diagonalize(H)
        ana = dimer_analytic_eigensystem(eps1, eps2, k)
        assert np.abs(np.sort(ana.energies) - es.energies).max() < 1e-10


def test_analytic_dimer_symmetric_case():
    es = dimer_analytic_eigensystem(1.5, 1.5, 1.0)
    r = 1.0 / np.sqrt(2.0)
    assert es.alpha == pytest.approx(1.0)
    assert (es.c31, es.c32, es.c41) == pytest.approx((r, r, r))
    assert es.c42 == pytest.approx(-r)


def test_analytic_dimer_asymmetric_case():
    es = dimer_analytic_eigensystem(2.0, 1.0, 1.0)
    assert es.delta_eps == pytest.approx(1.0)
    assert es.alpha == pytest.approx(np.sqrt(1.25), abs=1e-12)
    assert es.c31**2 + es.c32**2 == pytest.approx(1.0, abs=1e-12)
    assert es.c41**2 + es.c42**2 == pytest.approx(1.0, abs=1e-12)
    assert es.energies == pytest.approx((-1.5, 1.5, es.alpha, -es.alpha))


def test_analytic_dimer_energies_sum_to_zero():
    rng = np.random.default_rng(5)
    for _ in range(25):
        es = dimer_analytic_eigensystem(*rng.uniform(0.2, 3.0, 2), rng.uniform(0.1, 2.0))
        assert sum(es.energies) == pytest.approx(0.0, abs=1e-12)


def test_analytic_dimer_degenerate_at_zero_coupling():
    with pytest.raises(DegenerateDenominator):
        dimer_analytic_eigensystem(2.0, 1.0, 0.0)
