"""Lindblad generators in vectorized form, on a chosen set of unknowns.

A generator -i[H, .] + sum_t rate_t D[A_t] acts on the column-stacked density
matrix (:func:`vectorize`).  The steady solves act on the N x N correlation
matrices of the chain's fermions, whose real systems are taken to the real
coordinates of a Hermitian matrix (:class:`Unknowns`).  The dense 2^N
generator (:func:`superoperator`) is the oracle the tests and the dense
builders of :mod:`chainflux.lindblad` use; it forms the dissipative part
as one outer product of the vectorized operators.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np


def vectorize(rho: np.ndarray) -> np.ndarray:
    """Column-stack a matrix."""
    return rho.reshape(-1, order="F")


def unvectorize(v: np.ndarray, dim: int) -> np.ndarray:
    """Inverse of :func:`vectorize`."""
    return v.reshape((dim, dim), order="F")


@dataclass(frozen=True, eq=False)
class Unknowns:
    """Density-matrix entries rho[rows[i], cols[i]] a generator acts on.

    They are listed in column-stacked order, so the full set reproduces
    :func:`vectorize`.  ``index[r, c]`` is the position of entry (r, c),
    -1 outside the set, and ``diagonal`` lists the positions with rows ==
    cols.  The set holds the transpose of each of its entries, at
    ``partner[i]``, so a Hermitian rho on it has m real coordinates, one
    at each position: rho[r, r] at a diagonal entry, and for r < c,
    sqrt(2) Re rho[r, c] at (r, c) and sqrt(2) Im rho[r, c] at (c, r).
    They are orthonormal: with v = U x the entries of rho from its
    coordinates x, U is unitary, and a generator that keeps rho Hermitian
    is the real block U^dag L U there (:meth:`hermitian`).
    """

    dim: int
    rows: np.ndarray
    cols: np.ndarray
    index: np.ndarray
    partner: np.ndarray
    diagonal: np.ndarray

    @property
    def size(self) -> int:
        return len(self.rows)

    def hermitian(self, L: np.ndarray) -> np.ndarray:
        """Re(U^dag L U) of a block or a stack of blocks on these unknowns, in real coordinates.

        It is the whole of U^dag L U where L keeps rho Hermitian.
        """
        return _times_u(_times_u(L, self).conj().swapaxes(-1, -2), self).real.swapaxes(-1, -2)

    def state(self, x: np.ndarray) -> np.ndarray:
        """The Hermitian d x d matrices of real coordinates x (..., m), zero off the set."""
        rows, cols, upper = self.rows, self.cols, self.rows < self.cols
        r, c, low = rows[upper], cols[upper], self.partner[upper]
        rho = np.zeros(x.shape[:-1] + (self.dim, self.dim), dtype=complex)
        diag = self.diagonal
        rho.real[..., rows[diag], rows[diag]] = x[..., diag]
        rho.real[..., r, c] = rho.real[..., c, r] = _HALF_SQRT2 * x[..., upper]
        rho.imag[..., r, c] = _HALF_SQRT2 * x[..., low]
        rho.imag[..., c, r] = -rho.imag[..., r, c]
        return rho

    def coordinates(self, rho: np.ndarray) -> np.ndarray:
        """The real coordinates (..., m) of Hermitian d x d matrices, inverting :meth:`state`."""
        upper = self.rows < self.cols
        r, c, diag = self.rows[upper], self.cols[upper], self.rows[self.diagonal]
        x = np.empty(rho.shape[:-2] + (self.size,))
        x[..., self.diagonal] = rho.real[..., diag, diag]
        x[..., upper] = np.sqrt(2.0) * rho.real[..., r, c]
        x[..., self.partner[upper]] = np.sqrt(2.0) * rho.imag[..., r, c]
        return x


_HALF_SQRT2 = np.sqrt(0.5)


def _times_u(X: np.ndarray, unknowns: Unknowns) -> np.ndarray:
    """X U on the last axis: columns of entries into columns of real coordinates."""
    upper = np.flatnonzero(unknowns.rows < unknowns.cols)
    lower = unknowns.partner[upper]
    out = X.astype(complex)
    a, b = X[..., upper], X[..., lower]
    out[..., upper] = _HALF_SQRT2 * (a + b)
    out[..., lower] = 1j * _HALF_SQRT2 * (a - b)
    return out


def read_only(*arrays) -> None:
    for a in arrays:
        a.setflags(write=False)


def _unknowns(dim: int, flat: np.ndarray) -> Unknowns:
    """Unknowns at the given column-stacked positions c * dim + r, read-only."""
    rows, cols = flat % dim, flat // dim
    index = np.full((dim, dim), -1, dtype=np.intp)
    index[rows, cols] = np.arange(len(flat))
    out = Unknowns(dim=dim, rows=rows, cols=cols, index=index, partner=index[cols, rows],
                   diagonal=np.flatnonzero(rows == cols))
    read_only(rows, cols, index, out.partner, out.diagonal)
    return out


@lru_cache(maxsize=None)
def full_unknowns(dim: int) -> Unknowns:
    """Every entry of a dim x dim matrix: the dense generator's index."""
    return _unknowns(dim, np.arange(dim * dim))


def superoperator(H, operators, rates, unknowns: Unknowns) -> np.ndarray:
    """-i[H, .] + sum_t rates[t] D[operators[t]] on ``unknowns``: the dense oracle.

    D[A] rho = A rho A^dag - {A^dag A, rho} / 2.  In column stacking the
    generator is I (x) J + conj(J) (x) I + sum rate * conj(A) (x) A with
    J = -iH - sum rate * A^dag A / 2, and entry (i, j) of conj(X) (x) Y on
    the unknowns is conj(X[c_i, c_j]) * Y[r_i, r_j]: the two J terms are
    products of gathered m x m grids, and the dissipative sum is entry
    (c_i d + c_j, r_i d + r_j) of sum rate * vec(conj(A)) vec(A)^T (row-major
    vecs), one matrix product.  ``operators`` are dense (T, d, d), ``rates``
    (T,), and ``H`` (d, d) may be None for a dissipator alone.  Built from
    dense products alone, it shares no code with the correlation systems of
    the steady solves, which the tests check against it.
    """
    d, rows, cols = unknowns.dim, unknowns.rows, unknowns.cols
    A = np.asarray(operators, dtype=complex).reshape(-1, d, d)
    rates = np.asarray(rates, dtype=float)
    J = -0.5 * np.tensordot(rates, A.conj().swapaxes(1, 2) @ A, axes=1)
    if H is not None:
        J = J - 1j * np.asarray(H)
    vecs = A.reshape(len(A), d * d)
    jumps = (vecs.conj().T * rates) @ vecs
    r, c, eye = np.ix_(rows, rows), np.ix_(cols, cols), np.eye(d)
    return (eye[c] * J[r] + J.conj()[c] * eye[r]
            + jumps[cols[:, None] * d + cols, rows[:, None] * d + rows])
