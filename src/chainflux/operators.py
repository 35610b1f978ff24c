"""Operators on the 2^N chain Hilbert space and their diagonalization."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    IndexOutOfRange,
    NoConvergence,
    NotHermitian,
    NTooLarge,
)
from .model import MAX_QUBITS, ChainSpec

_KINDS = ("raise", "lower", "z")

HERMITICITY_TOL = 1e-12


@lru_cache(maxsize=None)
def _site_operator_cached(n_qubits: int, site: int, kind: str) -> np.ndarray:
    # qubit s is bit n - 1 - s of a basis index, so the first qubit is the
    # leading factor of the Kronecker product; bit value 0 is the excited
    # state, which sigma^+ = |0><1| reaches from the one with the bit set
    index = np.arange(2**n_qubits)
    bit = 1 << (n_qubits - 1 - site)
    clear = index[(index & bit) == 0]
    out = np.zeros((2**n_qubits, 2**n_qubits), dtype=complex)
    if kind == "raise":
        out[clear, clear | bit] = 1.0
    elif kind == "lower":
        out[clear | bit, clear] = 1.0
    else:
        out[index, index] = np.where(index & bit, -1.0, 1.0)
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


def chain_arrays(specs) -> tuple:
    """The gaps (k, n), couplings (k, n - 1) and attachment sites (k, 2) of ChainSpecs of one N."""
    k, n = len(specs), specs[0].n_qubits if specs else 1  # no spec: an empty stack of one qubit
    epsilons = np.array([spec.epsilons for spec in specs], dtype=float).reshape(k, n)
    couplings = np.array([spec.couplings for spec in specs], dtype=float).reshape(k, n - 1)
    sites = np.array([[bath.attached_site for bath in spec.baths] for spec in specs],
                     dtype=int).reshape(k, 2)
    return epsilons, couplings, sites


def build_chain_hamiltonian(spec, couplings=None) -> np.ndarray:
    """Chain Hamiltonian: split terms plus excitation-conserving hopping.

    H = sum_q (eps_q / 2) sigma_q^z
        + sum_i K_i (sigma_i^+ sigma_{i+1}^- + sigma_i^- sigma_{i+1}^+)

    ``spec`` is one ChainSpec, giving H (d, d), or a sequence of ChainSpecs
    of one qubit count, giving their (k, d, d) stack; or the stack's gaps
    (k, n) as an array, with its ``couplings`` (k, n - 1).  The diagonal is
    summed qubit by qubit from zero and each hopping entry is K_i itself,
    so every chain's H is the same whatever stack it is built in.
    """
    single, epsilons = isinstance(spec, ChainSpec), spec
    if couplings is None:
        epsilons, couplings, _ = chain_arrays([spec] if single else spec)
    k, n = epsilons.shape
    signs, hops = _hamiltonian_layout(n)
    diagonal = np.zeros((k, 2**n))
    for q in range(n):
        diagonal += (0.5 * epsilons[:, q])[:, None] * signs[q]
    H = np.zeros((k, 2**n, 2**n), dtype=complex)
    H[:, np.arange(2**n), np.arange(2**n)] = diagonal
    for i, (rows, cols) in enumerate(hops):
        H[:, rows, cols] = couplings[:, i, None]
    return H[0] if single else H


def qubit_bits(n_qubits: int) -> np.ndarray:
    """The bit of each qubit in a basis state's index, (n,): qubit q is bit n - 1 - q.

    The bit is clear where the qubit is excited.
    """
    return 1 << (n_qubits - 1 - np.arange(n_qubits))


@lru_cache(maxsize=None)
def _hamiltonian_layout(n_qubits: int) -> tuple:
    """Each qubit's sigma^z diagonal (n, d), and the entries of each hopping term.

    sigma^z is 1 where the qubit's bit is clear (:func:`qubit_bits`).
    Hopping term i, sigma_i^+ sigma_{i+1}^- + h.c., joins each state whose
    qubits i, i + 1 differ to the state with both flipped.
    """
    index, bits = np.arange(2**n_qubits), qubit_bits(n_qubits)
    signs = np.where(index & bits[:, None], -1.0, 1.0)
    hops = []
    for i in range(n_qubits - 1):
        pair = bits[i] | bits[i + 1]
        held = index & pair
        rows = np.flatnonzero((held != 0) & (held != pair))
        hops.append((rows, rows ^ pair))
    return signs, tuple(hops)


def assert_hermitian(A: np.ndarray, tol: float = HERMITICITY_TOL) -> None:
    """Raise NotHermitian unless A, or each matrix of a stack, equals its adjoint within tol."""
    scale = np.maximum(1.0, np.abs(A).max(axis=(-2, -1)))
    dev = np.abs(A - A.conj().swapaxes(-1, -2)).max(axis=(-2, -1))
    bad = np.flatnonzero(dev > tol * scale)
    if bad.size:
        i = bad[0]
        raise NotHermitian(f"max |A - A^dag| = {dev.flat[i]:.3e} exceeds {tol:.1e} * "
                           f"{scale.flat[i]:.3e}")


@dataclass(frozen=True)
class EigenSystem:
    """Eigendecomposition with energies ascending and a fixed phase gauge.

    Column p of ``vectors`` is the eigenvector of ``energies[p]``, position
    p of the eigenbasis.  Each column is rotated so its largest-magnitude
    entry is real and positive (ties broken by the lowest index), which
    makes jump operators built from it reproducible.  A stack has energies
    (k, d) and vectors (k, d, d), and ``es[c]`` is the one of matrix c.
    """

    energies: np.ndarray
    vectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.energies.shape[-1]

    def __getitem__(self, c) -> EigenSystem:
        return EigenSystem(energies=self.energies[c], vectors=self.vectors[c])


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
def excited_qubits(n_qubits: int) -> np.ndarray:
    """Occupations of an n-qubit register, (n, 2^n): 1 where basis state i excites qubit q."""
    signs, _ = _hamiltonian_layout(n_qubits)
    out = 0.5 * (1.0 + signs)
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
    """Basis indices of each excitation sector of a stack of qubit-register operators.

    Falls back to one block holding every index when H is not a register
    operator or one of the stack has an element between different
    excitation numbers.
    """
    d = H.shape[-1]
    n = d.bit_length() - 1
    if d == 2**n:
        across, sectors = _sector_layout(n)
        if not np.any(H[:, across]):
            return sectors
    return (np.arange(d),)


def diagonalize(H: np.ndarray) -> EigenSystem:
    """Diagonalize a Hermitian operator; deterministic for identical input.

    An excitation-conserving H is diagonalized block by block, so every
    eigenvector lies exactly in one excitation sector; near-degenerate levels
    of different sectors cannot mix.  Energies are then stable-sorted
    ascending.  A (k, d, d) stack gives a stack of eigensystems: each
    sector is one stacked ``eigh`` call, which gives every matrix the
    eigenpairs a call on it alone gives, bit for bit.
    """
    single = H.ndim == 2
    H = H[None] if single else H
    assert_hermitian(H)
    k, d = H.shape[:2]
    energies = np.empty((k, d))
    vectors = np.zeros((k, d, d), dtype=complex)
    start = 0
    for idx in _excitation_sectors(H):
        stop = start + len(idx)
        if len(idx) == 1:  # a basis state: its own eigenvector
            energies[:, start], vectors[:, idx[0], start] = H[:, idx[0], idx[0]].real, 1.0
        else:
            energies[:, start:stop], vectors[:, idx, start:stop] = np.linalg.eigh(
                H[:, idx[:, None], idx])
        start = stop
    order = np.argsort(energies, axis=1, kind="stable")
    energies = np.take_along_axis(energies, order, axis=1)
    vectors = np.take_along_axis(vectors, order[:, None, :], axis=2)
    lead = np.take_along_axis(vectors, np.abs(vectors).argmax(axis=1)[:, None, :], axis=1)[:, 0]
    mag = np.abs(lead)
    vectors *= np.divide(lead.conj(), mag, out=np.ones((k, d), dtype=complex),
                         where=mag > 0)[:, None, :]
    scale = np.maximum(1.0, np.abs(H).max(axis=(1, 2)))
    resid = np.abs(H @ vectors - vectors * energies[:, None, :]).max(axis=(1, 2))
    ortho = np.abs(vectors.conj().swapaxes(1, 2) @ vectors - np.eye(d)).max(axis=(1, 2))
    bad = np.flatnonzero((resid > 1e-10 * scale) | (ortho > 1e-10))
    if bad.size:
        raise NoConvergence(
            f"eigendecomposition residual {resid[bad[0]]:.3e}, "
            f"orthonormality {ortho[bad[0]]:.3e}"
        )
    es = EigenSystem(energies=energies, vectors=vectors)
    return es[0] if single else es
