"""Operators on the 2^N chain Hilbert space and their diagonalization."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import (
    ConvergenceFailure,
    DegenerateDenominator,
    IndexOutOfRange,
    NotHermitian,
    NTooLarge,
)
from .model import MAX_QUBITS, ChainSpec

SIGMA_PLUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
SIGMA_MINUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
IDENTITY2 = np.eye(2, dtype=complex)

_KINDS = {"raise": SIGMA_PLUS, "lower": SIGMA_MINUS, "z": SIGMA_Z}

HERMITICITY_TOL = 1e-12


def kron_dense(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two square matrices via broadcasting.

    Same values as numpy.kron; avoids its per-call overhead, which dominates
    when many small superoperators are assembled.
    """
    da, db = a.shape[0], b.shape[0]
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(da * db, da * db)


@lru_cache(maxsize=None)
def _site_operator_cached(n_qubits: int, site: int, kind: str) -> np.ndarray:
    sigma = _KINDS[kind]
    out = np.eye(1, dtype=complex)
    for q in range(n_qubits):
        out = kron_dense(out, sigma if q == site else IDENTITY2)
    out.setflags(write=False)
    return out


def site_operator(n_qubits: int, site: int, kind: str) -> np.ndarray:
    """Single-site Pauli operator embedded in the full chain space.

    Returns I x ... x sigma^kind x ... x I with the 2x2 factor at position
    ``site``.  kind is one of "raise", "lower", "z".  The returned array is
    cached and read-only.
    """
    if n_qubits > MAX_QUBITS:
        raise NTooLarge(f"at most {MAX_QUBITS} qubits, got {n_qubits}")
    if not 0 <= site < n_qubits:
        raise IndexOutOfRange(f"site {site} outside chain of {n_qubits} qubits")
    if kind not in _KINDS:
        raise ValueError(f"unknown operator kind {kind!r}")
    return _site_operator_cached(n_qubits, site, kind)


def number_operator(n_qubits: int, site: int) -> np.ndarray:
    """Excitation number sigma^+ sigma^- of one qubit."""
    return site_operator(n_qubits, site, "raise") @ site_operator(n_qubits, site, "lower")


def total_excitation(n_qubits: int) -> np.ndarray:
    """Sum of the excitation numbers of all qubits."""
    return sum(number_operator(n_qubits, q) for q in range(n_qubits))


def build_chain_hamiltonian(spec: ChainSpec) -> np.ndarray:
    """Chain Hamiltonian: split terms plus excitation-conserving hopping.

    H = sum_q (eps_q / 2) sigma_q^z
        + sum_i K_i (sigma_i^+ sigma_{i+1}^- + sigma_i^- sigma_{i+1}^+)
    """
    n = spec.n_qubits
    H = np.zeros((spec.dim, spec.dim), dtype=complex)
    for q, eps in enumerate(spec.epsilons):
        H += 0.5 * eps * site_operator(n, q, "z")
    for i, k in enumerate(spec.couplings):
        hop = site_operator(n, i, "raise") @ site_operator(n, i + 1, "lower")
        H += k * (hop + hop.conj().T)
    assert_hermitian(H)
    return H


def assert_hermitian(A: np.ndarray, tol: float = HERMITICITY_TOL) -> None:
    """Raise NotHermitian unless A equals its adjoint within tolerance."""
    scale = max(1.0, np.abs(A).max())
    dev = np.abs(A - A.conj().T).max()
    if dev > tol * scale:
        raise NotHermitian(f"max |A - A^dag| = {dev:.3e} exceeds {tol:.1e} * {scale:.3e}")


@dataclass(frozen=True)
class EigenSystem:
    """Eigendecomposition with energies ascending and a fixed phase gauge.

    Column p of ``vectors`` is the eigenvector of ``energies[p]``.  Each
    column is rotated so its largest-magnitude entry is real and positive
    (ties broken by the lowest index), which makes jump operators built from
    it reproducible.
    """

    energies: np.ndarray
    vectors: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.energies)

    @cached_property
    def frame_order(self) -> np.ndarray:
        """Eigenvector positions sorted by the site index of each one's leading entry.

        The leading entry is the one the phase gauge makes real and positive.
        The sort is stable, so a diagonal operator's frame is the identity.
        """
        order = np.argsort(np.abs(self.vectors).argmax(axis=0), kind="stable")
        order.setflags(write=False)
        return order

    @cached_property
    def frame(self) -> np.ndarray:
        """The eigenvectors as columns in :attr:`frame_order`."""
        frame = self.vectors[:, self.frame_order]
        frame.setflags(write=False)
        return frame


@lru_cache(maxsize=None)
def excitation_numbers(n_qubits: int) -> np.ndarray:
    """Total excitation number of each basis state of an n-qubit register.

    Bit value 0 of a qubit factor is its excited state, so the count is the
    number of zero bits among the n lowest of the state index.
    """
    index = np.arange(2**n_qubits)
    ground = sum((index >> q) & 1 for q in range(n_qubits))
    out = np.asarray(n_qubits - ground)
    out.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def _sector_layout(n_qubits: int) -> tuple:
    """Mask of the elements between different excitation numbers, and each sector's indices."""
    labels = excitation_numbers(n_qubits)
    across = labels[:, None] != labels[None, :]
    sectors = tuple(np.flatnonzero(labels == k) for k in range(n_qubits + 1))
    for a in (across, *sectors):
        a.setflags(write=False)
    return across, sectors


def _excitation_sectors(H: np.ndarray) -> tuple:
    """Basis indices of each excitation sector of a qubit-register operator.

    Falls back to one block holding every index when H is not a register
    operator or has an element between different excitation numbers.
    """
    d = H.shape[0]
    n = d.bit_length() - 1
    if d == 2**n:
        across, sectors = _sector_layout(n)
        if not np.any(H[across]):
            return sectors
    return (np.arange(d),)


def diagonalize(H: np.ndarray) -> EigenSystem:
    """Diagonalize a Hermitian operator; deterministic for identical input.

    An excitation-conserving H is diagonalized block by block, so every
    eigenvector lies exactly in one excitation sector; near-degenerate levels
    of different sectors cannot mix.  Energies are then stable-sorted
    ascending.
    """
    assert_hermitian(H)
    d = H.shape[0]
    energies = np.empty(d)
    vectors = np.zeros((d, d), dtype=complex)
    start = 0
    for idx in _excitation_sectors(H):
        stop = start + len(idx)
        energies[start:stop], vectors[idx, start:stop] = np.linalg.eigh(H[np.ix_(idx, idx)])
        start = stop
    order = np.argsort(energies, kind="stable")
    energies = energies[order]
    vectors = vectors[:, order]
    for p in range(d):
        col = vectors[:, p]
        lead = col[int(np.abs(col).argmax())]
        mag = abs(lead)
        if mag > 0:
            vectors[:, p] = col * (lead.conj() / mag)
    scale = max(1.0, np.abs(H).max())
    resid = np.abs(H @ vectors - vectors * energies).max()
    ortho = np.abs(vectors.conj().T @ vectors - np.eye(d)).max()
    if resid > 1e-10 * scale or ortho > 1e-10:
        raise ConvergenceFailure(
            f"eigendecomposition residual {resid:.3e}, orthonormality {ortho:.3e}"
        )
    return EigenSystem(energies=energies, vectors=vectors)


@dataclass(frozen=True)
class EigenSystemDimer:
    """Closed-form eigensystem of the two-qubit chain.

    Amplitudes c_pq expand the one-excitation eigenstates in the site basis:
    |s3> = c31 |10> + c32 |01> at energy +alpha and |s4> = c41 |10> + c42 |01>
    at energy -alpha, with |s1> = |00> and |s2> = |11>.
    """

    c31: float
    c32: float
    c41: float
    c42: float
    alpha: float
    delta_eps: float
    energies: tuple  # (E1, E2, E3, E4)


def dimer_analytic_eigensystem(eps1: float, eps2: float, coupling: float) -> EigenSystemDimer:
    """Exact dimer amplitudes and energies.

    Singular only when the one-excitation block is already diagonal with a
    vanishing coupling, in which case callers should fall back to the
    trivial product eigenstates.
    """
    delta = eps1 - eps2
    alpha = math.sqrt(coupling**2 + 0.25 * delta**2)
    den3 = 2.0 * alpha**2 - alpha * delta
    den4 = 2.0 * alpha**2 + alpha * delta
    if den3 <= 0 or den4 <= 0:
        raise DegenerateDenominator(
            f"amplitude denominators vanish for eps=({eps1}, {eps2}), K={coupling}"
        )
    c31 = coupling / math.sqrt(den3)
    c32 = (alpha - 0.5 * delta) / math.sqrt(den3)
    c41 = coupling / math.sqrt(den4)
    c42 = -(alpha + 0.5 * delta) / math.sqrt(den4)
    e_sum = 0.5 * (eps1 + eps2)
    return EigenSystemDimer(
        c31=c31, c32=c32, c41=c41, c42=c42,
        alpha=alpha, delta_eps=delta,
        energies=(-e_sum, e_sum, alpha, -alpha),
    )
