"""Lindblad generators in vectorized form, on a chosen set of unknowns.

A generator -i[H, .] + sum_t rate_t D[A_t] acts on the column-stacked density
matrix (:func:`vectorize`).  The steady solves build it one way: the
entries of rho the generator couples to the diagonal (:func:`coupled_sets`)
are the unknowns, the generator's terms are gathered from a dense (T, d, d)
stack of jump operators on their m x m grid, and the complex block is taken
to the real coordinates of a Hermitian rho (:func:`real_superoperator`).
The dense oracle the tests compare it with (:func:`superoperator`) forms
the dissipative part as one outer product of the vectorized operators and
shares no code with it.
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


def equal_pairs(keys: np.ndarray) -> tuple:
    """Every ordered pair (j, k) of places of ``keys`` holding the same key, by j, then k.

    Equal keys must be adjacent.
    """
    new = np.ones(len(keys), dtype=bool)
    new[1:] = keys[1:] != keys[:-1]
    starts = np.flatnonzero(new)
    sizes = np.diff(np.append(starts, len(keys)))
    size = np.repeat(sizes, sizes)  # the size of each place's run
    j = np.repeat(np.arange(len(keys)), size)
    k = np.arange(len(j)) + np.repeat(np.repeat(starts, sizes) - (np.cumsum(size) - size), size)
    return j, k


def coupled_sets(H: np.ndarray, operators: np.ndarray, first, count) -> list:
    """The entries of rho that the generator of each H[j] (k, d, d) joins to the diagonal.

    Row j's operators are the items first[j] .. first[j] + count[j] - 1 of
    the (T, d, d) stack ``operators``, in pairs A, A^dag (count[j] even).
    The generator I (x) J + conj(J) (x) I + sum rate * conj(A) (x) A with
    J = -iH - sum rate * A^dag A / 2 links entry (r, c) to (r', c) where
    J[r', r] != 0, to (r, c') where J[c', c] != 0, and to (r', c') where
    A[r', r] and A[c', c] are both nonzero.  A row's set is every entry
    reached from a diagonal one over these links taken in both directions,
    read off the nonzero pattern of H and of each pair's A: the links of
    A^dag are those of A taken backwards, and J holds both A^dag A and A
    A^dag.  No link leaves it, at any rates: a zero rate only removes
    links (emission rates gamma (nbar + 1) never vanish; absorption rates
    gamma nbar do), so one set serves every row of a chain.  It holds every
    diagonal entry, so it carries the trace and the steady state, and
    restricting the solve to it is exact; the solve's rank check decides
    whether that state is unique.  Each set is listed in column-stacked
    order and cached by pattern, which a sweep's rows share.
    """
    d = H.shape[-1]
    return [_coupled_unknowns(d, 1 + n // 2, np.packbits(np.concatenate(
                [h[None] != 0, operators[f:f + n:2] != 0])).tobytes())
            for h, f, n in zip(H, np.asarray(first).tolist(), np.asarray(count).tolist())]


@lru_cache(maxsize=64)
def _coupled_unknowns(dim: int, count: int, key: bytes) -> Unknowns:
    """The closure of :func:`coupled_sets` over H's pattern and those of the A's after it.

    Each link joins two flat entries r d + c.  Every two entries A[p_j,
    q_j], A[p_k, q_k] of one A join (q_j, q_k) to (p_j, p_k); those in one
    row p (q_j, q_k of A^dag A) or one column (p_j, p_k of A A^dag) give J
    its nonzero at (q_j, q_k) or (p_j, p_k), and each J[a, b], a != b,
    joins (b, c) to (a, c) and (c, b) to (c, a) for every c.
    """
    bits = np.unpackbits(np.frombuffer(key, dtype=np.uint8), count=count * dim * dim)
    flat = np.flatnonzero(bits[dim * dim:])  # t d^2 + p d + q of each entry of each A_t
    p, q = flat // dim % dim, flat % dim
    j, k = equal_pairs(flat // (dim * dim))
    J = bits[:dim * dim].reshape(dim, dim) != 0
    row, column = p[j] == p[k], q[j] == q[k]
    J[q[j][row], q[k][row]] = J[p[j][column], p[k][column]] = True
    np.fill_diagonal(J, False)
    a, b = np.nonzero(J | J.T)  # both (a, b) and (b, a), so each link below is taken both ways
    c = np.arange(dim)
    before, after = q[j] * dim + q[k], p[j] * dim + p[k]
    source = np.concatenate([before, after, b[:, None] * dim + c, c * dim + b[:, None]],
                            axis=None)
    target = np.concatenate([after, before, a[:, None] * dim + c, c * dim + a[:, None]],
                            axis=None)
    reached = np.eye(dim, dtype=bool).reshape(-1)  # entry r d + c is in the set
    size = dim
    while True:
        reached[target[reached[source]]] = True
        grown = np.count_nonzero(reached)
        if grown == size:  # it only grows
            return _unknowns(dim, np.flatnonzero(reached.reshape(dim, dim).T))
        size = grown


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
    dense products alone, it shares no code with :func:`real_superoperator`,
    the steady solves' builder it checks.
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


def real_superoperator(H: np.ndarray, operators: np.ndarray, decay: np.ndarray,
                       rates: np.ndarray, unknowns: Unknowns, first: np.ndarray) -> np.ndarray:
    """A stack of generators on ``unknowns`` as U^dag L U, in real Hermitian coordinates.

    Row j is -i[H[j], .] + sum_t rates[j, t] D[A_t] over the operators A_t
    first[j] .. first[j] + T - 1 of the stack ``operators``, whose products
    A_t^dag A_t are the same items of ``decay``, with ``rates`` (k, T) and
    H (k, d, d).  In column stacking the generator is sum rate * conj(A)
    (x) A + I (x) J + conj(J) (x) I with J = -iH - sum rate * A^dag A / 2,
    so its entry (i, j) on the unknowns is sum_t rate_t conj(A_t[c_i, c_j])
    A_t[r_i, r_j] + delta(c_i, c_j) J[r_i, r_j] + conj(J[c_i, c_j])
    delta(r_i, r_j).  Each term is gathered on the m x m grid of the
    unknowns and added item by item, as is J's decay part, so a row's block
    does not depend on the stack it is built in.  The complex block goes to
    real coordinates by :meth:`Unknowns.hermitian`, the map of every real
    system of the package.  Returns the real (k, m, m) stack.
    """
    d, rows, cols = unknowns.dim, unknowns.rows, unknowns.cols
    r, c = rows[:, None] * d + rows, cols[:, None] * d + cols  # flat places on the grid
    k, T = rates.shape
    A, products = operators.reshape(-1, d * d), decay.reshape(-1, d * d)
    J = -1j * H.reshape(k, d * d)
    L = np.zeros((k, unknowns.size, unknowns.size), dtype=complex)
    for t in range(T):
        item = first + t
        at = item[:, None, None]
        L += rates[:, t, None, None] * A[at, c].conj() * A[at, r]
        J -= (0.5 * rates[:, t, None]) * products[item]
    L += (np.where(cols[:, None] == cols, J[:, r], 0)
          + np.where(rows[:, None] == rows, J[:, c].conj(), 0))
    # hermitian returns a transposed view, and solve_hermitian's |R x| sums
    # in the order of R's memory: on the view, figure3a's global residual
    # moves by 1e-12, so the block is copied row-major
    return np.ascontiguousarray(unknowns.hermitian(L))
