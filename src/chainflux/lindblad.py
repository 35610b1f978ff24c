"""Jump operators, frequency bins and the generator in vectorized form.

Two routes to the dissipators are built here.  The eigenbasis ("global")
route decomposes each endpoint coupling operator into lowering components
between energy eigenstates, groups them into Bohr-frequency bins and keeps
cross terms only within a bin (full secular approximation).  The site-basis
("local") route attaches thermal raising/lowering of the bare endpoint qubit
at its own gap, ignoring the interqubit coupling in the rates.

All rates are expressed through the Bose occupation nbar and nbar + 1, never
through exp(beta * omega), so zero temperature and large beta are exact.

Both routes end in the same operator form: per reservoir, a list of bins
(omega, A), with A held in the frame the steady state is solved in (the
eigenbasis for the global route, the site basis for the local one).  Every
superoperator is scattered from that form on a chosen set of unknowns,
from one enumeration of the generator's nonzero entries
(:func:`kron_entries`): as a real block in the coordinates of a Hermitian
rho on the entries the generator couples to the diagonal
(:func:`real_superoperator`, the steady solve), or as a complex block
(:func:`superoperator`) on every entry for the dense site-basis generator
kept for tests and time evolution.

Temperatures and bath rates enter only through the rates gamma (nbar + 1)
and gamma nbar of the bins.  Everything else is rate-free and is built here
as stacks over the chains of one qubit count, not kept: H, its eigensystem
and the site operators of the chains (gaps, couplings, attachments) in
:func:`chain_operators`, the binned operators and each bin's flux
functionals of the chains under one approach in :func:`chain_structure`.
The caller that owns a request
(:func:`chainflux.observables.steady_reports`) builds each once per call
and shares them between the rows and both approaches.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import (
    DegenerateTransition,
    DimensionMismatch,
    NonPositiveFrequency,
)
from .model import BathSpec, ChainSpec
from .operators import (
    EigenSystem,
    build_chain_hamiltonian,
    diagonalize,
    number_operator,
    site_operator,
)

# Smallest Bohr frequency the eigenbasis construction will accept; below it
# the Bose occupation diverges for any bath at nonzero temperature.
OMEGA_MIN = 1e-8

# Relative tolerance used to group jump operators into one frequency bin.
SECULAR_TOL = 1e-9

# Matrix elements below this are treated as structural zeros.
ELEMENT_TOL = 1e-14

# exp(x) overflows double precision near 709; beyond this the occupation
# underflows to zero anyway.
_EXP_ARG_MAX = 700.0


def bose_occupation(omega: float, temperature: float) -> float:
    """Mean occupation 1 / (exp(omega/T) - 1) of a bath mode, exact at T = 0."""
    if omega <= 0:
        raise NonPositiveFrequency(f"omega must be > 0, got {omega}")
    if temperature == 0:
        return 0.0
    x = omega / temperature
    if x > _EXP_ARG_MAX:
        return 0.0
    return 1.0 / np.expm1(x)


def vectorize(rho: np.ndarray) -> np.ndarray:
    """Column-stack a matrix."""
    return rho.reshape(-1, order="F")


def unvectorize(v: np.ndarray, dim: int) -> np.ndarray:
    """Inverse of :func:`vectorize`."""
    return v.reshape((dim, dim), order="F")


# One entry per lowering jump: the chain and reservoir it belongs to, its
# bin's Bohr frequency, the eigenstates p = lower and q = upper it joins and
# its matrix element <p|coupling|q>.
JUMP_DTYPE = np.dtype([("chain", np.intp), ("reservoir", np.intp), ("omega", float),
                       ("lower", np.intp), ("upper", np.intp), ("weight", complex)])

# Bins of at most this many jumps have their mean frequency summed column by
# column; ndarray.sum adds fewer than eight values left to right as well.
_SEQUENTIAL_SUM = 8


def global_jump_operators(es: EigenSystem, couplings: np.ndarray,
                          errors: dict = None) -> np.ndarray:
    """Decompose coupling operators into binned lowering eigenoperators.

    For every ordered eigenpair (p, q) with E_q - E_p above the frequency
    cutoff, the matrix element <p|coupling|q> becomes the weight of one jump
    weight * |p><q|, so [H, jump] = -omega * jump.  Frequencies closer than
    ``SECULAR_TOL`` (relative to the chain's energy scale) to the lowest of
    their bin are merged into that bin, and each jump's ``omega`` is its
    bin's mean.  Zero matrix elements are dropped.

    ``es`` is one eigensystem and ``couplings`` one operator (d, d), or
    ``es`` a stack of k and ``couplings`` (k, R, d, d), R reservoirs per
    chain.  The jumps of every chain and reservoir come as one
    :data:`JUMP_DTYPE` array sorted by (chain, reservoir, omega, p, q).  A
    nonzero element across a sub-cutoff gap degenerates its chain: the
    chain gets no jumps, and its DegenerateTransition, for the first
    reservoir where one is found, goes into ``errors`` under the chain's
    index, or is raised when ``errors`` is None.
    """
    d = es.dim
    energies, vectors = es.energies.reshape(-1, d), es.vectors.reshape(-1, d, d)
    couplings = np.asarray(couplings).reshape(len(energies), -1, d, d)
    elements = vectors.conj().swapaxes(1, 2)[:, None] @ couplings @ vectors[:, None]
    gaps = energies[:, None, :] - energies[:, :, None]  # gaps[c, p, q] = E_q - E_p
    coupled = np.abs(elements) > ELEMENT_TOL
    lowering = coupled & (gaps > 0)[:, None]  # the raising partner of (p, q) is (q, p)
    below = lowering & (gaps <= OMEGA_MIN)[:, None]
    # degenerate pairs with a coupling element are unresolvable as well
    degenerate = coupled & (np.abs(gaps) <= OMEGA_MIN)[:, None]
    degenerate[..., np.arange(d), np.arange(d)] = False
    failed = {}
    for c in np.flatnonzero((below | degenerate).any(axis=(1, 2, 3))).tolist():
        for below_r, degenerate_r in zip(below[c], degenerate[c]):
            if below_r.any():
                p, q = np.argwhere(below_r)[0]
                failed[c] = DegenerateTransition(
                    f"transition at omega = {gaps[c, p, q]:.3e} below cutoff {OMEGA_MIN:.1e} "
                    f"between eigenstates {p} and {q}", omega=float(gaps[c, p, q]))
                break
            if degenerate_r.any():
                p, q = np.argwhere(np.triu(degenerate_r, 1))[0]
                failed[c] = DegenerateTransition(
                    f"coupling element across degenerate eigenstates {p}, {q}",
                    omega=float(abs(gaps[c, p, q])))
                break
    if failed and errors is None:
        raise failed[min(failed)]
    if failed:
        errors.update(failed)
        lowering[list(failed)] = False

    chain, reservoir, lower, upper = np.nonzero(lowering)
    omegas = gaps[chain, lower, upper]
    order = np.lexsort((upper, lower, omegas, reservoir, chain))
    chain, reservoir, lower, upper = chain[order], reservoir[order], lower[order], upper[order]
    omegas = omegas[order]
    weights = elements[chain, reservoir, lower, upper]
    real = np.abs(weights.imag) <= 1e-10 * np.maximum(1.0, np.abs(weights))
    # a new bin where the chain or reservoir changes or omega leaves the
    # lowest of its bin by more than tol; consecutive steps above tol
    # start one for certain, and only a run that spans more than tol needs
    # the walk from its lowest
    tol = SECULAR_TOL * np.maximum(1.0, np.abs(energies).max(axis=1))[chain]
    new = np.ones(len(omegas), dtype=bool)
    new[1:] = (np.diff(omegas) > tol[1:]) | (np.diff(chain) != 0) | (np.diff(reservoir) != 0)
    starts = np.flatnonzero(new)
    stops = np.append(starts, len(omegas))[1:]
    wide = omegas[stops - 1] - omegas[starts] > tol[starts]
    for start, stop in zip(starts[wide].tolist(), stops[wide].tolist()):
        values = omegas[start:stop].tolist()
        for i in range(1, stop - start):
            if values[i] - values[0] > tol[start]:
                new[start + i] = True
                values[0] = values[i]
    starts = np.flatnonzero(new)
    counts = np.diff(np.append(starts, len(omegas)))
    sums = np.zeros(len(starts))
    for j in range(min(_SEQUENTIAL_SUM - 1, counts.max(initial=0))):  # as ndarray.sum
        sums[counts > j] += omegas[starts[counts > j] + j]
    for b in np.flatnonzero(counts >= _SEQUENTIAL_SUM).tolist():
        sums[b] = omegas[starts[b]:starts[b] + counts[b]].sum()
    jumps = np.empty(len(omegas), dtype=JUMP_DTYPE)
    jumps["chain"], jumps["reservoir"] = chain, reservoir
    jumps["lower"], jumps["upper"] = lower, upper
    jumps["weight"] = np.where(real, weights.real, weights)
    jumps["omega"] = np.repeat(sums / counts, counts)  # as np.mean
    return jumps


@dataclass(frozen=True, eq=False)
class Unknowns:
    """Density-matrix entries rho[rows[i], cols[i]] a generator acts on.

    Entries are listed in column-stacked order, so the full set reproduces
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

    def gather(self, rho: np.ndarray) -> np.ndarray:
        """The listed entries of a d x d matrix, as a vector."""
        return rho[self.rows, self.cols]

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


def _read_only(*arrays) -> None:
    for a in arrays:
        a.setflags(write=False)


def _unknowns(dim: int, flat: np.ndarray) -> Unknowns:
    """Unknowns at the given column-stacked positions c * dim + r, read-only."""
    rows, cols = flat % dim, flat // dim
    index = np.full((dim, dim), -1, dtype=np.intp)
    index[rows, cols] = np.arange(len(flat))
    out = Unknowns(dim=dim, rows=rows, cols=cols, index=index, partner=index[cols, rows],
                   diagonal=np.flatnonzero(rows == cols))
    _read_only(rows, cols, index, out.partner, out.diagonal)
    return out


@lru_cache(maxsize=None)
def full_unknowns(dim: int) -> Unknowns:
    """Every entry of a dim x dim matrix: the dense generator's index."""
    return _unknowns(dim, np.arange(dim * dim))


def coupled_unknowns(H: np.ndarray, operators) -> Unknowns:
    """Entries of rho that the generator of H and the jump ``operators`` joins to the diagonal.

    The generator I (x) J + conj(J) (x) I + sum rate * conj(A) (x) A with
    J = -iH - sum rate * A^dag A / 2 links entry (r, c) to (r', c) where
    J[r', r] != 0, to (r, c') where J[c', c] != 0, and to (r', c') where
    A[r', r] and A[c', c] are both nonzero.  The set is every entry reached
    from a diagonal one over these links taken in both directions, read off
    the structural nonzero pattern of H and of the operators, which are the
    ones at a nonzero rate.  No link leaves it, so the generator maps it into
    itself and the rest into the rest; it holds every diagonal entry, so it
    carries the trace and the steady state, and restricting the solve to it
    is exact.  Listed in column-stacked order and cached by pattern, which a
    sweep's rows share.
    """
    operators = np.asarray(operators).reshape((-1,) + H.shape)
    patterns = np.concatenate([(H != 0)[None], operators != 0])
    return _coupled_unknowns(H.shape[0], len(patterns), np.packbits(patterns).tobytes())


@lru_cache(maxsize=64)
def _coupled_unknowns(dim: int, count: int, key: bytes) -> Unknowns:
    bits = np.unpackbits(np.frombuffer(key, dtype=np.uint8), count=count * dim * dim)
    bits = bits.reshape(count, dim, dim).astype(float)
    ops, eye = bits[1:], np.eye(dim)
    transposed = ops.swapaxes(1, 2)
    damping = bits[0] + (transposed @ ops).sum(axis=0)
    damping = damping + damping.T
    # one step takes the reached entries R to R + D R + R D + sum_t A_t R A_t^T
    # + A_t^T R A_t, i.e. to sum_t X_t R Y_t^T over the pairs (X_t, Y_t):
    # [X_1 .. X_n] times the column of the R Y_t^T, two products per step
    outer = np.concatenate([[eye, damping, eye], ops, transposed]).swapaxes(0, 1)
    outer = outer.reshape(dim, -1)
    inner = np.concatenate([[eye, eye, damping], transposed, ops])
    reached = eye  # reached[r, c]: entry (r, c) is in the set
    while True:
        grown = (outer @ (reached @ inner).reshape(-1, dim) > 0).astype(float)
        if grown.sum() == reached.sum():  # it only grows
            return _unknowns(dim, np.flatnonzero(reached.T))
        reached = grown


# The steady solves go in stacks of at most this many block elements
# (128 KB per real array): stacks of more than about eight m = 70 systems
# solved slower per row than single ones, and larger stacks raise the peak
# memory of every sweep process.  Long stacks of flux functionals are built
# in pieces of this many matrix elements per operator.
_GRID_ELEMENTS = 1 << 14


def kron_entries(left, right, unknowns: Unknowns, upper: bool = False) -> tuple:
    """The entries of sum_t conj(X_t) (x) Y_t on ``unknowns``, from the nonzeros of X_t and Y_t.

    ``left`` and ``right`` (T, d, d) are the patterns of the X_t and Y_t.
    In column stacking, entry (i, j) of conj(X) (x) Y on the unknowns is
    conj(X[c_i, c_j]) * Y[r_i, r_j], so it exists only where both factors
    are nonzero: each pair of a nonzero of X_t and a nonzero of Y_t gives
    one entry, kept if it joins two unknowns.  Returns (term, i, j, a, b)
    with a = c_i d + c_j and b = r_i d + r_j, the flat positions of the
    two factors, ordered by term, then by b, then by a, so one term never
    lists an (i, j) twice.  With ``upper``, only rows i with r_i <= c_i.
    """
    d, index = unknowns.dim, unknowns.index
    tx, xr, xc = np.nonzero(left)
    ty, yr, yc = np.nonzero(right)
    nx = np.bincount(tx, minlength=len(left))
    reps = nx[ty]  # each nonzero of Y_t pairs with every nonzero of X_t
    q = np.repeat(np.arange(len(ty)), reps)
    first = np.cumsum(nx) - nx
    p = np.arange(len(q)) + np.repeat(first[ty] - (np.cumsum(reps) - reps), reps)
    ri, rj, ci, cj = yr[q], yc[q], xr[p], xc[p]
    i, j = index[ri, ci], index[rj, cj]
    keep = (i >= 0) & (j >= 0)
    if upper:
        keep &= ri <= ci
    return tx[p][keep], i[keep], j[keep], (ci * d + cj)[keep], (ri * d + rj)[keep]


def _generator_terms(H, operators, rates, d: int) -> tuple:
    """The rates, operators and J = -iH - sum rate * A^dag A / 2 of each row, and their pattern.

    Terms whose rate is zero in every row are dropped.  ``pattern``
    (T + 1, d, d) is nonzero where the operator t, or J last, is nonzero
    in any row.
    """
    rates = np.atleast_2d(np.asarray(rates, dtype=float))
    k = len(rates)
    ops = np.asarray(operators, dtype=complex)
    if ops.ndim < 4:
        ops = ops.reshape((1,) + rates.shape[1:] + (d, d))
    used = np.flatnonzero((rates != 0).any(axis=0))
    rates, ops = rates[:, used], ops[:, used]
    J = np.zeros((d, d), dtype=complex) if H is None else -1j * H
    J = np.broadcast_to(J, (k, d, d))
    decay = ops.conj().swapaxes(-1, -2) @ ops
    for t in range(len(used)):  # term by term
        J = J - (0.5 * rates[:, t])[:, None, None] * decay[:, t]
    pattern = np.concatenate([(ops != 0).any(axis=0), (J != 0).any(axis=0)[None]])
    return rates, ops.reshape(len(ops), len(used), d * d), J.reshape(k, d * d), pattern


def _kron_terms(pattern: np.ndarray) -> tuple:
    """The (left, right) patterns of conj(A_t) (x) A_t, I (x) J and conj(J) (x) I, in order."""
    eye, ops, J = np.eye(pattern.shape[-1], dtype=bool)[None], pattern[:-1], pattern[-1:]
    return np.concatenate([ops, eye, J]), np.concatenate([ops, J, eye])


def _entry_values(rates, ops, J, term, a, b) -> np.ndarray:
    """The values of the entries (term, a, b) of :func:`kron_entries` in each row, (k, entries)."""
    T = rates.shape[1]
    split = np.searchsorted(term, [T, T + 1])
    t, a_t, b_t = term[:split[0]], a[:split[0]], b[:split[0]]
    dissipators = (rates[:, t] * ops[:, t, a_t].conj()) * ops[:, t, b_t]
    return np.concatenate([dissipators, J[:, b[split[0]:split[1]]], J[:, a[split[1]:]].conj()],
                          axis=1)


def superoperator(H, operators, rates, unknowns: Unknowns) -> np.ndarray:
    """-i[H, .] + sum_t rates[t] D[operators[t]] on ``unknowns``, one block per row of ``rates``.

    D[A] rho = A rho A^dag - {A^dag A, rho} / 2.  In column stacking the
    generator is sum rate * conj(A) (x) A + I (x) J + conj(J) (x) I with
    J = -iH - sum rate * A^dag A / 2; its entries are those of
    :func:`kron_entries`, added term by term in that order.

    ``rates`` of shape (T,) gives one m x m block, of shape (k, T) a stack
    of k blocks.  ``H`` (d, d) and ``operators`` (T, d, d) are shared by the
    stack; ``H`` (k, d, d) and ``operators`` (k, T, d, d) give each block its
    own, as for the rows of different chains, and a leading axis of one is
    broadcast.  ``H`` may be None for a dissipator alone; terms whose rate
    is zero in every row are skipped.  This complex form serves the dense
    oracles; the steady solves use :func:`real_superoperator`.
    """
    d, m = unknowns.dim, unknowns.size
    single = np.ndim(rates) == 1
    rates, ops, J, pattern = _generator_terms(H, operators, rates, d)
    left, right = _kron_terms(pattern)
    L = np.zeros((len(rates), m, m), dtype=complex)
    for t in range(len(left)):  # a term lists each (i, j) once
        term, i, j, a, b = kron_entries(left[t:t + 1], right[t:t + 1], unknowns)
        L[:, i, j] += _entry_values(rates, ops, J, term + t, a, b)
    return L[0] if single else L


# Entry (i, j), with r_i <= c_i, lands in the real block in four slots:
# (Re row, Re column) from its real part, (Re row, Im column) and (Im row,
# Re column) from its imaginary part, (Im row, Im column) from its real
# part.  (LU)[i, :] holds the entry at a diagonal column j, and entry /
# sqrt(2) at the Re column and s i entry / sqrt(2) at the Im column of an
# off-diagonal j (s = 1 for r_j < c_j, -1 otherwise); row i of U^dag L U
# is Re (LU)[i, :] for a diagonal i, and sqrt(2) Re, sqrt(2) Im of it for
# r_i < c_i.  So each slot is scaled by _SCALE[i off diagonal, j off
# diagonal] times the sign below, and the Im row or column of a diagonal
# entry does not exist.
_SCALE = np.array([[1.0, _HALF_SQRT2], [np.sqrt(2.0), 1.0]])


def _real_targets(i, j, unknowns: Unknowns) -> tuple:
    """Flat targets in the real block, source and coefficient of each slot of the entries (i, j).

    ``source`` is 2 e for the real part of entry e, 2 e + 1 for its
    imaginary part, its place in the entries' values viewed as floats.
    """
    m, n = unknowns.size, len(i)
    rows, cols, partner = unknowns.rows, unknowns.cols, unknowns.partner
    i_off, j_off, lower = rows[i] != cols[i], rows[j] != cols[j], rows[j] > cols[j]
    re_col, im_col = np.where(lower, partner[j], j), np.where(lower, j, partner[j])
    sign = np.where(lower, 1.0, -1.0)
    targets = np.stack([i * m + re_col, i * m + im_col,
                        partner[i] * m + re_col, partner[i] * m + im_col], axis=1)
    source = 2 * np.arange(n)[:, None] + [0, 1, 1, 0]
    coef = _SCALE[i_off.astype(int), j_off.astype(int)][:, None] * np.stack(
        [np.ones(n), sign * j_off, 1.0 * i_off, -sign * (i_off & j_off)], axis=1)
    keep = coef != 0
    return targets[keep], source[keep], coef[keep]


@lru_cache(maxsize=64)
def _real_layout(unknowns: Unknowns, count: int, key: bytes) -> tuple:
    """Where :func:`real_superoperator` reads and scatters: (term, a, b), (targets, source, coef).

    The entries (:func:`kron_entries`, rows r_i <= c_i) and their slots
    (:func:`_real_targets`) for the ``count`` term patterns packed in
    ``key``; cached by pattern, which the stacks of a sweep share.
    """
    d = unknowns.dim
    bits = np.unpackbits(np.frombuffer(key, dtype=np.uint8), count=count * d * d)
    term, i, j, a, b = kron_entries(*_kron_terms(bits.reshape(count, d, d).astype(bool)),
                                    unknowns, upper=True)
    layout = (term, a, b) + _real_targets(i, j, unknowns)
    _read_only(*layout)
    return layout


def real_superoperator(H, operators, rates, unknowns: Unknowns) -> np.ndarray:
    """:func:`superoperator` as U^dag L U, in the real coordinates of a Hermitian rho.

    Only the entries of rows i with r_i <= c_i are formed; for a generator
    that keeps rho Hermitian the others are their conjugates.  Each is
    scattered into the real block at up to four places, and the block is
    summed in the fixed order of :func:`kron_entries` by one
    ``np.bincount`` per stack, so a row's block does not depend on the
    stack it is built in.  Same arguments; the block is real, (m, m) or
    (k, m, m).
    """
    d, m = unknowns.dim, unknowns.size
    single = np.ndim(rates) == 1
    rates, ops, J, pattern = _generator_terms(H, operators, rates, d)
    k = len(rates)
    term, a, b, targets, source, coef = _real_layout(unknowns, len(pattern),
                                                     np.packbits(pattern).tobytes())
    values = _entry_values(rates, ops, J, term, a, b)
    weights = np.ascontiguousarray(values).view(float)[:, source] * coef
    flat = (np.arange(k)[:, None] * (m * m) + targets).reshape(-1)
    R = np.bincount(flat, weights.reshape(-1), minlength=k * m * m).reshape(k, m, m)
    return R[0] if single else R


def thermal_rates(gamma: float, nbar: float) -> tuple:
    """Rates gamma (nbar + 1) of emission through A and gamma nbar of absorption through A^dag."""
    return gamma * (nbar + 1.0), gamma * nbar


def thermal_dissipator(A: np.ndarray, gamma: float, nbar: float) -> np.ndarray:
    """Dense emission at gamma (nbar + 1) through A plus absorption at gamma nbar through A^dag."""
    return superoperator(None, (A, A.conj().T), thermal_rates(gamma, nbar),
                         full_unknowns(A.shape[0]))


def global_bins(es: EigenSystem, jumps: np.ndarray) -> tuple:
    """The frequency bins of a :data:`JUMP_DTYPE` array, and each bin's operators in the frame.

    A bin is a run of jumps of one chain and reservoir at one ``omega``;
    ``first[b]`` is the index of bin b's first jump.  Jumps sharing a bin
    are summed before the Lindblad form is applied, so equal-frequency cross
    terms survive while cross terms between different bins are dropped.
    ``ops[b]`` holds bin b's operator A and its adjoint A^dag, in the basis
    of its chain's ``es.frame``: A holds the weights at the frame positions
    of (p, q) and is exactly zero elsewhere.  ``es`` is the stack the
    jumps' chains index, or the one eigensystem of chain 0.
    """
    new = np.zeros(len(jumps), dtype=bool)
    new[:1] = True
    for name in ("chain", "reservoir", "omega"):
        new[1:] |= np.diff(jumps[name]) != 0
    d = es.dim
    position = np.argsort(es.frame_order, axis=-1).reshape(-1, d)
    chain = jumps["chain"]
    ops = np.zeros((np.count_nonzero(new), 2, d, d), dtype=complex)
    ops[np.cumsum(new) - 1, 0, position[chain, jumps["lower"]],
        position[chain, jumps["upper"]]] = jumps["weight"]
    ops[:, 1] = ops[:, 0].conj().swapaxes(-1, -2)
    return np.flatnonzero(new), ops


# Dense site-basis builders outside the sweep path; perfbench/tracing.py
# times them by these names.
def global_dissipator_bins(es: EigenSystem, jumps: np.ndarray, bath: BathSpec) -> list:
    """Dense (omega, dissipator) pair of each frequency bin of one chain's reservoir."""
    first, ops = global_bins(es, jumps)
    return [(omega, thermal_dissipator(es.frame @ A @ es.frame.conj().T, bath.gamma,
                                       bose_occupation(omega, bath.temperature)))
            for omega, A in zip(jumps["omega"][first].tolist(), ops[:, 0])]


def build_local_dissipator(spec: ChainSpec, bath: BathSpec) -> np.ndarray:
    """Dense site-basis dissipator of one reservoir: its qubit's bare jump at the qubit's gap."""
    site = bath.attached_site
    return thermal_dissipator(site_operator(spec.n_qubits, site, "lower"), bath.gamma,
                              bose_occupation(spec.epsilons[site], bath.temperature))


def build_liouvillian(H: np.ndarray, dissipators) -> np.ndarray:
    """Dense generator: unitary part plus the supplied dense dissipators."""
    L = superoperator(H, (), (), full_unknowns(H.shape[0]))
    if any(D.shape != L.shape for D in dissipators):
        raise DimensionMismatch(f"a dissipator's shape differs from the generator's {L.shape}")
    return sum(dissipators, L)


def adjoint_dissipator(A: np.ndarray, H: np.ndarray) -> np.ndarray:
    """D[A]^dag(H) = A^dag H A - {A^dag A, H} / 2, so Tr{H D[A](rho)} = Tr{D[A]^dag(H) rho}.

    ``A`` (m, 2, d, d) holds pairs of operators and ``H`` (m, d, d) the
    operator each pair acts on; the result is shaped as ``A``.  A diagonal
    H (the eigenbasis frame) acts by elementwise products, any other H by
    matrix products, each pair by the form of its own H.  A long stack goes
    in pieces of ``_GRID_ELEMENTS`` matrix elements per operator, which
    stay in cache.
    """
    h = np.diagonal(H, axis1=1, axis2=2)
    diagonal = np.count_nonzero(H, axis=(1, 2)) == np.count_nonzero(h, axis=1)
    out = np.empty(A.shape, dtype=complex)
    step = max(1, _GRID_ELEMENTS // A.shape[-1] ** 2)
    for i in range(0, len(A), step):
        piece = slice(i, i + step)
        if diagonal[piece].all():
            out[piece] = _adjoint_diagonal(A[piece], h[piece, None])
        elif not diagonal[piece].any():
            out[piece] = _adjoint_dense(A[piece], H[piece, None])
        else:
            for j in range(i, min(i + step, len(A))):
                out[j] = (_adjoint_diagonal(A[j], h[j]) if diagonal[j]
                          else _adjoint_dense(A[j], H[j]))
    return out


def _adjoint_diagonal(A, h):
    Ad = A.conj().swapaxes(-1, -2)
    return (Ad * h[..., None, :]) @ A - 0.5 * (Ad @ A) * (h[..., :, None] + h[..., None, :])


def _adjoint_dense(A, H):
    Ad = A.conj().swapaxes(-1, -2)
    AdA = Ad @ A
    return Ad @ H @ A - 0.5 * (AdA @ H + H @ AdA)


@dataclass(frozen=True, eq=False)
class ChainOperators:
    """The approach-independent operators of a stack of chains of one qubit count, site basis.

    Chain c has the Hamiltonian ``hamiltonian[c]`` (k, d, d), the gaps
    ``epsilons[c]`` and its reservoirs attached at the qubits ``sites[c]``,
    where each couples through sigma^+ + sigma^- (``couplings[c]``, one
    per reservoir); ``numbers`` holds each qubit's number operator.  The
    stacked sector ``eigensystem`` of the Hamiltonians is computed on
    first use.  Both approaches' structures are built from one stack
    (:func:`chain_structure`), so each H is built and diagonalized once.
    Item c of the stack is chain c's :class:`Chain`, the same object on
    every access.  Every array is read-only.
    """

    hamiltonian: np.ndarray
    epsilons: np.ndarray
    sites: np.ndarray
    numbers: np.ndarray

    def __len__(self) -> int:
        return len(self.hamiltonian)

    def __getitem__(self, c) -> Chain:
        return self._views[c]

    @cached_property
    def _views(self) -> tuple:
        return tuple(Chain(self, c) for c in range(len(self)))

    @cached_property
    def couplings(self) -> np.ndarray:
        couplings = _site_couplings(self.epsilons.shape[1])[self.sites]
        _read_only(couplings)
        return couplings

    @cached_property
    def eigensystem(self) -> EigenSystem:
        es = diagonalize(self.hamiltonian)
        _read_only(es.energies, es.vectors)
        return es


@dataclass(frozen=True, eq=False)
class Chain:
    """Chain ``index`` of a :class:`ChainOperators` stack: its site-basis H and its eigensystem."""

    stack: ChainOperators
    index: int

    @property
    def hamiltonian(self) -> np.ndarray:
        return self.stack.hamiltonian[self.index]

    @property
    def eigensystem(self) -> EigenSystem:
        """A view of the stack's eigensystem, which is computed on first use."""
        return self.stack.eigensystem[self.index]


@dataclass(frozen=True, eq=False)
class ChainStructure:
    """The rate-free part of the generators of a :class:`ChainOperators` stack under one approach.

    Temperatures and bath rates enter the generator only through the rates
    gamma (nbar + 1) and gamma nbar of each channel (frequency bin), so
    everything here is fixed by the gaps, couplings and approach, and one
    structure serves every row of every chain of the stack:

    - ``chains``, and ``eigensystem``, their stacked eigensystem, whose
      ``frame`` is each chain's solve frame for the global approach (None
      for the local one, solved in the site basis);
    - ``frame_hamiltonian`` (k, d, d), each chain's H in its frame;
    - the bins of every chain, chain by chain and reservoir by reservoir:
      their Bohr frequencies ``omegas`` and ``reservoirs``; chain c's bins
      at reservoir r are ``edges[2c + r]:edges[2c + r + 1]``;
    - the jump ``operators`` A and A^dag of each bin in that order, chain
      c's from ``start[c]`` on (the local approach's are one set per pair
      of attachment sites, shared by the chains with those sites);
    - ``flux_functionals`` (bins, 2, d, d), D[A]^dag(H) and D[A^dag]^dag(H)
      of every bin, so that a channel's heat current is
      gamma (nbar + 1) Tr{F[b, 0] rho} + gamma nbar Tr{F[b, 1] rho}
      (Alicki's form), and ``population_functionals``, each qubit's
      number operator in each chain's frame (k, N, d, d), or one set for
      every chain (1, N, d, d), so n_q = Tr{P[q] rho};
    - ``errors``, the DegenerateTransition of each chain, by index, whose
      eigenbasis route degenerates; such a chain has no bins.

    Every array is read-only.
    """

    chains: ChainOperators
    eigensystem: EigenSystem
    frame_hamiltonian: np.ndarray
    omegas: np.ndarray
    reservoirs: np.ndarray
    edges: np.ndarray
    operators: np.ndarray
    start: np.ndarray
    flux_functionals: np.ndarray
    population_functionals: np.ndarray
    errors: dict

    def rates(self, chain, baths) -> tuple:
        """Rates of the :attr:`operators` of each row's chain at the row's baths, row after row.

        Row i is on chain ``chain[i]`` at ``baths[i]``, the (temperature,
        gamma) of each reservoir, (rows, 2, 2).  Returns the (pairs, 2)
        emission and absorption rates of every row's bins, thermal_rates
        gamma (nbar + 1) and gamma nbar, with row i's bins at
        ``offsets[i]:offsets[i + 1]``.  The Bose occupations come from one
        divide and one ``expm1``, each value bit for bit the
        :func:`bose_occupation` of its bin.  Raises NonPositiveFrequency for
        a bin at omega <= 0.
        """
        low, high = self.edges[2 * chain], self.edges[2 * chain + 2]
        offsets = np.zeros(len(chain) + 1, dtype=int)
        np.cumsum(high - low, out=offsets[1:])
        bins = np.arange(offsets[-1]) + np.repeat(low - offsets[:-1], high - low)
        omegas = self.omegas[bins]
        if (omegas <= 0).any():
            raise NonPositiveFrequency(f"omega must be > 0, got {omegas[omegas <= 0][0]}")
        rows, reservoirs = np.repeat(np.arange(len(chain)), high - low), self.reservoirs[bins]
        temperature, gamma = baths[rows, reservoirs, 0], baths[rows, reservoirs, 1]
        with np.errstate(divide="ignore", over="ignore"):
            x = omegas / temperature
            nbar = np.where((temperature == 0) | (x > _EXP_ARG_MAX), 0.0, 1.0 / np.expm1(x))
        rates = np.empty((len(bins), 2))
        rates[:, 0] = gamma * (nbar + 1.0)
        rates[:, 1] = gamma * nbar
        return rates, offsets

    def unknowns(self, c: int, zero) -> Unknowns:
        """:func:`coupled_unknowns` of chain c's frame H and its operators not flagged in ``zero``.

        ``zero`` flags the operators whose rate is zero (nbar = 0 at T = 0 or
        omega / T > 700); the operators are fixed, so the set changes only
        with these flags.
        """
        zero = np.asarray(zero)
        operators = self.operators[self.start[c]:self.start[c] + len(zero)]
        return coupled_unknowns(self.frame_hamiltonian[c], operators[~zero])


def chain_key(spec: ChainSpec) -> tuple:
    """What fixes a chain's rate-free structure: its gaps, couplings and attachment sites."""
    return spec.epsilons, spec.couplings, spec.baths[0].attached_site, spec.baths[-1].attached_site


def chain_operators(specs) -> ChainOperators:
    """The approach-independent operators of the chains of ``specs``, newly built as one stack.

    One ChainSpec per chain, all of one qubit count; only their gaps,
    couplings and attachments are read.
    """
    n = specs[0].n_qubits
    H = build_chain_hamiltonian(specs)
    epsilons = np.array([spec.epsilons for spec in specs], dtype=float).reshape(len(specs), n)
    sites = np.array([[bath.attached_site for bath in spec.baths] for spec in specs])
    _read_only(H, epsilons, sites)
    return ChainOperators(hamiltonian=H, epsilons=epsilons, sites=sites,
                          numbers=_number_operators(n))


@lru_cache(maxsize=None)
def _number_operators(n_qubits: int) -> np.ndarray:
    numbers = np.array([number_operator(n_qubits, q) for q in range(n_qubits)])
    _read_only(numbers)
    return numbers


@lru_cache(maxsize=None)
def _site_couplings(n_qubits: int) -> np.ndarray:
    """sigma^+ + sigma^- of each qubit, (n, d, d)."""
    couplings = np.array([site_operator(n_qubits, q, "raise") + site_operator(n_qubits, q, "lower")
                          for q in range(n_qubits)])
    _read_only(couplings)
    return couplings


@lru_cache(maxsize=None)
def _local_operators(n_qubits: int, sites: tuple) -> np.ndarray:
    """The local structure's operators, one array for every chain of these attachments.

    Each attached qubit's sigma^- and its adjoint, in that order.
    """
    lowering = [site_operator(n_qubits, site, "lower") for site in sites]
    operators = np.array([op for A in lowering for op in (A, A.conj().T)])
    _read_only(operators)
    return operators


def chain_structure(chains: ChainOperators, approach: str) -> ChainStructure:
    """The rate-free structure of the ``chains`` stack under ``approach``, newly built as one stack.

    The global route is one transition scan over every chain and reservoir
    (:func:`global_jump_operators`) on the stacked eigensystem, whose bins
    (:func:`global_bins`), functionals and frame number operators are
    stacked products; a chain whose route degenerates keeps its
    DegenerateTransition in ``errors`` and the others are built as usual.
    The local route attaches the bare jump of each reservoir's qubit at
    that qubit's gap.
    """
    if approach not in ("global", "local"):
        raise ValueError(f"approach must be 'global' or 'local', got {approach!r}")
    H, k, d = chains.hamiltonian, len(chains), chains.hamiltonian.shape[-1]
    errors = {}
    if approach == "local":
        es, frame_H, numbers = None, H, chains.numbers[None]
        pairs, which = np.unique(chains.sites, axis=0, return_inverse=True)
        operators = np.concatenate([_local_operators(chains.epsilons.shape[1], tuple(pair))
                                    for pair in pairs.tolist()])
        start = 4 * which.reshape(-1)
        omegas = np.take_along_axis(chains.epsilons, chains.sites, axis=1).reshape(-1)
        reservoirs = np.tile([0, 1], k)
        edges = np.arange(2 * k + 1)
        emitted = operators[(start[:, None] + np.arange(4)).reshape(-1)].reshape(-1, 2, d, d)
        functionals = adjoint_dissipator(emitted, np.repeat(H, 2, axis=0))
    else:
        es = chains.eigensystem
        jumps = global_jump_operators(es, chains.couplings, errors)
        first, operators = global_bins(es, jumps)
        omegas, reservoirs, owner = (jumps[name][first] for name in ("omega", "reservoir", "chain"))
        edges = np.searchsorted(2 * owner + reservoirs, np.arange(2 * k + 1))
        frame_H = np.zeros((k, d, d))
        frame_H[:, np.arange(d), np.arange(d)] = np.take_along_axis(es.energies, es.frame_order,
                                                                    axis=1)
        frame = es.frame
        numbers = frame.conj().swapaxes(1, 2)[:, None] @ chains.numbers @ frame[:, None]
        functionals = adjoint_dissipator(operators, frame_H[owner])
        operators = operators.reshape(-1, d, d)
        start = edges[:-1:2] * 2
    _read_only(frame_H, omegas, reservoirs, edges, operators, start, functionals, numbers)
    return ChainStructure(chains=chains, eigensystem=es, frame_hamiltonian=frame_H, omegas=omegas,
                          reservoirs=reservoirs, edges=edges, operators=operators, start=start,
                          flux_functionals=functionals, population_functionals=numbers,
                          errors=errors)


@dataclass(frozen=True)
class LindbladModel:
    """Generator of one chain under one approach at one set of bath rates.

    ``structure`` is the rate-free part of a stack of this one chain
    (:func:`chain_structure`); the rates of its jump operators come from
    ``spec``'s baths.  The steady state is solved in a frame: the
    eigenbasis ``eigensystem.frame`` for the global approach, where H is
    diagonal, and the site basis for the local one (``eigensystem`` is None
    there).  Everything else is derived on first use: ``block`` in the
    frame on the unknowns the steady state occupies, and in the site basis
    the dense ``liouvillian`` and the per-reservoir ``dissipators``.
    """

    spec: ChainSpec
    approach: str
    structure: ChainStructure

    @property
    def hamiltonian(self) -> np.ndarray:
        """H in the site basis."""
        return self.structure.chains.hamiltonian[0]

    @property
    def eigensystem(self) -> EigenSystem:
        """The global frame's eigensystem; None for the local approach."""
        es = self.structure.eigensystem
        return None if es is None else es[0]

    @property
    def frame_hamiltonian(self) -> np.ndarray:
        """H in the solve frame."""
        return self.structure.frame_hamiltonian[0]

    @property
    def operators(self) -> np.ndarray:
        """The jump operators A and A^dag of every bin, reservoir by reservoir."""
        structure = self.structure
        return structure.operators[structure.start[0]:structure.start[0] + 2 * structure.edges[-1]]

    @cached_property
    def bins(self) -> tuple:
        """Each reservoir's (omega, A) bins in the frame."""
        edges, emitted = self.structure.edges.tolist(), self.operators[::2]
        return tuple(tuple(zip(self.structure.omegas[a:b].tolist(), emitted[a:b]))
                     for a, b in zip(edges, edges[1:]))

    @cached_property
    def rates(self) -> np.ndarray:
        """Rate of each of the :attr:`operators` at this model's baths."""
        baths = np.array([[(bath.temperature, bath.gamma) for bath in self.spec.baths]])
        return self.structure.rates(np.zeros(1, dtype=int), baths)[0].reshape(-1)

    def to_site(self, rho: np.ndarray) -> np.ndarray:
        """Matrices given in the solve frame (one, or a stack), in the site basis."""
        if self.eigensystem is None:
            return rho
        frame = self.eigensystem.frame
        return frame @ rho @ frame.conj().T

    @cached_property
    def unknowns(self) -> Unknowns:
        """Entries the frame generator joins to the diagonal (:func:`coupled_unknowns`)."""
        return self.structure.unknowns(0, self.rates == 0)

    @cached_property
    def block(self) -> np.ndarray:
        """Frame generator restricted to :attr:`unknowns`."""
        return superoperator(self.frame_hamiltonian, self.operators, self.rates, self.unknowns)

    @cached_property
    def liouvillian(self) -> np.ndarray:
        """Dense d^2 x d^2 site-basis generator, the oracle for :attr:`block`."""
        return superoperator(self.hamiltonian, self.to_site(self.operators),
                             self.rates, full_unknowns(self.spec.dim))

    @cached_property
    def dissipators(self) -> tuple:
        """Dense site-basis superoperator of each reservoir."""
        full = full_unknowns(self.spec.dim)
        operators = self.to_site(self.operators)
        bounds = (2 * self.structure.edges).tolist()
        return tuple(superoperator(None, operators[a:b], self.rates[a:b], full)
                     for a, b in zip(bounds, bounds[1:]))


def assemble(spec: ChainSpec, approach: str) -> LindbladModel:
    """The generator of ``spec`` under ``approach``, on a newly built structure of its chain alone.

    Raises DegenerateTransition where the eigenbasis route degenerates.
    """
    structure = chain_structure(chain_operators([spec]), approach)
    if structure.errors:
        raise structure.errors[0]
    return LindbladModel(spec=spec, approach=approach, structure=structure)
