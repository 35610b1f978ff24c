"""The dense oracle generator against the textbook Kronecker form it restricts."""

import numpy as np
import pytest

from chainflux.generator import full_unknowns, superoperator

from oracles import coupled_sets


def textbook(H, operators, rates, d):
    """I (x) J + conj(J) (x) I + sum rate * conj(A) (x) A, J = -iH - sum rate * A^dag A / 2."""
    eye = np.eye(d)
    J = np.zeros((d, d), dtype=complex) if H is None else -1j * H
    for rate, A in zip(rates, operators):
        J = J - 0.5 * rate * (A.conj().T @ A)
    L = np.kron(eye, J) + np.kron(J.conj(), eye)
    for rate, A in zip(rates, operators):
        L = L + rate * np.kron(A.conj(), A)
    return L


def random_generator(rng, d, count):
    X = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    operators = rng.normal(size=(count, d, d)) + 1j * rng.normal(size=(count, d, d))
    rates = rng.uniform(0.1, 2.0, count)
    rates[::3] = 0.0  # some terms at a zero rate
    return X + X.conj().T, operators, rates


@pytest.mark.parametrize("d", [2, 4, 8])
@pytest.mark.parametrize("count", [0, 1, 5])
@pytest.mark.parametrize("unitary", [True, False])
def test_oracle_on_every_entry_is_the_textbook_kronecker_form(d, count, unitary):
    rng = np.random.default_rng(10 * d + count)
    H, operators, rates = random_generator(rng, d, count)
    H = H if unitary else None
    L = superoperator(H, operators, rates, full_unknowns(d))
    expected = textbook(H, operators, rates, d)
    assert L.shape == (d * d, d * d)
    assert np.abs(L - expected).max() <= 1e-13 * max(np.abs(expected).max(), 1.0)


def test_oracle_on_a_coupled_set_is_the_submatrix_of_the_dense_generator():
    # sparse operators: one or two nonzeros each, H diagonal, so the coupled
    # sets are proper subsets of the d^2 entries
    rng = np.random.default_rng(7)
    checked = 0
    for d in (2, 4, 8):
        for _ in range(4):
            H = np.diag(rng.normal(size=d)).astype(complex)
            count = 2 * int(rng.integers(1, 3))  # pairs A, A^dag, as coupled_sets reads them
            operators = np.zeros((count, d, d), dtype=complex)
            for A in operators[::2]:
                for _ in range(int(rng.integers(1, 3))):
                    A[rng.integers(d), rng.integers(d)] = rng.normal() + 1j * rng.normal()
            operators[1::2] = operators[::2].conj().swapaxes(1, 2)
            rates = rng.uniform(0.1, 2.0, count)
            (unknowns,) = coupled_sets(H[None], operators, [0], [count])
            flat = unknowns.cols * d + unknowns.rows
            L = superoperator(H, operators, rates, full_unknowns(d))
            assert np.array_equal(superoperator(H, operators, rates, unknowns),
                                  L[np.ix_(flat, flat)])
            checked += unknowns.size < d * d
    assert checked > 0
