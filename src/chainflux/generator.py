"""Lindblad generators in vectorized form, on a chosen set of unknowns.

A generator -i[H, .] + sum_t rate_t D[A_t] acts on the column-stacked density
matrix (:func:`vectorize`).  The steady solves build it one way: from the
nonzero entries of its jump operators (:class:`Entries`), one enumeration of
the generator's nonzero entries (:func:`kron_entries`) is scattered into a
real block in the coordinates of a Hermitian rho on the entries the
generator couples to the diagonal (:func:`coupled_sets`,
:func:`real_superoperator`).  The dense oracles the tests compare it with
(:func:`superoperator`) gather the same Kronecker products from dense
operators and share no code with it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

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


@dataclass(frozen=True, eq=False)
class Entries:
    """A list of sparse d x d matrices, each held as its nonzero entries.

    Item t is the sum of values[e] |rows[e]><cols[e]| over the entries e
    in ``edges[t]:edges[t + 1]``; two entries of an item may share a
    position.  The jump operators of a structure, their products A^dag A
    (:attr:`decay`) and their flux functionals are held this way, and the
    generator blocks and the flux readout are built from the entries.
    Every array is read-only.
    """

    dim: int
    edges: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        read_only(self.edges, self.rows, self.cols, self.values)

    def __len__(self) -> int:
        return len(self.edges) - 1

    def dense(self, items: slice = slice(None)) -> np.ndarray:
        """The items of a contiguous slice as a complex (n, d, d) stack: the oracles' form."""
        start, stop, _ = items.indices(len(self))
        at = slice(self.edges[start], self.edges[stop])
        out = np.zeros((stop - start, self.dim, self.dim), dtype=complex)
        item = np.repeat(np.arange(stop - start), np.diff(self.edges[start:stop + 1]))
        np.add.at(out, (item, self.rows[at], self.cols[at]), self.values[at])
        return out

    def take(self, first, count) -> tuple:
        """The entries of items first[j] .. first[j] + count[j] - 1 of each row j, row by row.

        ``count`` is one count for every row or one per row.  Returns (j,
        item - first[j], index of the entry) for each of them.
        """
        first, count = np.asarray(first), np.asarray(count)
        low = self.edges[first]
        row, index = _runs(low, self.edges[first + count] - low)
        return row, self.items[index] - first[row], index

    def traces(self, first: np.ndarray, count: int, rho: np.ndarray) -> np.ndarray:
        """Tr{F rho[j]} of the items F first[j] .. first[j] + count - 1 of each row j, (k, count).

        Tr{F rho} is the sum of F[r, c] rho[c, r] over the entries of F,
        added to zero one at a time in entry order (``np.add.at``), so a
        row's traces do not depend on its stack.
        """
        k = len(first)
        row, t, e = self.take(first, count)
        terms = self.values[e] * rho.reshape(k, -1)[row, self.cols[e] * self.dim + self.rows[e]]
        traces = np.zeros(k * count, dtype=complex)
        np.add.at(traces, row * count + t, terms)
        return traces.reshape(k, count)

    @cached_property
    def items(self) -> np.ndarray:
        """The item of each entry."""
        items = np.repeat(np.arange(len(self)), np.diff(self.edges))
        read_only(items)
        return items

    @cached_property
    def row_pairs(self) -> tuple:
        """(j, k, edges): every ordered pair of entries of one item in one row, item by item.

        Item t's pairs are ``j[edges[t]:edges[t + 1]]`` and the same of k.
        """
        key = self.items * self.dim + self.rows
        order = np.argsort(key, kind="stable")
        j, k = equal_pairs(key[order])
        j, k = order[j], order[k]
        edges = np.searchsorted(self.items[j], np.arange(len(self) + 1))
        read_only(j, k, edges)
        return j, k, edges

    @cached_property
    def decay(self) -> Entries:
        """A^dag A of each item A: conj(v_j) v_k at (y_j, y_k) for entries at (x, y_j), (x, y_k)."""
        j, k, edges = self.row_pairs
        return Entries(self.dim, edges, self.cols[j], self.cols[k],
                       self.values[j].conj() * self.values[k])


def _runs(low: np.ndarray, sizes: np.ndarray) -> tuple:
    """(r, i) for every i in low[r] .. low[r] + sizes[r] - 1, run r by run r, in order."""
    run = np.repeat(np.arange(len(sizes)), sizes)
    return run, np.arange(len(run)) + np.repeat(low - (np.cumsum(sizes) - sizes), sizes)


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


def coupled_sets(H: np.ndarray, operators: Entries, first, count) -> list:
    """The entries of rho that the generator of each H[j] (k, d, d) joins to the diagonal.

    Row j's operators are the items first[j] .. first[j] + count[j] - 1 of
    ``operators``, in pairs A, A^dag (count[j] even).  The generator I (x)
    J + conj(J) (x) I + sum rate * conj(A) (x) A with J = -iH - sum rate *
    A^dag A / 2 links entry (r, c) to (r', c) where J[r', r] != 0, to (r,
    c') where J[c', c] != 0, and to (r', c') where A[r', r] and A[c', c]
    are both nonzero.  A row's set is every entry reached from a diagonal
    one over these links taken in both directions, read off the structural
    nonzero pattern of H and of each pair's A: the links of A^dag are
    those of A taken backwards, and J holds both A^dag A and A A^dag.  No
    link leaves it, at any rates: a zero rate only removes
    links (emission rates gamma (nbar + 1) never vanish; absorption rates
    gamma nbar do), so one set serves every row of a chain.  It holds every
    diagonal entry, so it carries the trace and the steady state, and
    restricting the solve to it is exact; the solve's rank check decides
    whether that state is unique.  Each set is listed in column-stacked
    order and cached by pattern, which a sweep's rows share.
    """
    d, pairs = operators.dim, np.asarray(count) // 2
    j, t, e = operators.take(first, 2 * pairs)
    emitted = t % 2 == 0
    j, t, e = j[emitted], t[emitted] // 2, e[emitted]
    patterns = np.zeros((len(H), 1 + pairs.max(initial=0), d, d), dtype=bool)
    patterns[:, 0] = H != 0
    patterns[j, 1 + t, operators.rows[e], operators.cols[e]] = True
    return [_coupled_unknowns(d, 1 + n, np.packbits(pattern[:1 + n]).tobytes())
            for n, pattern in zip(pairs.tolist(), patterns)]


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


def kron_entries(left, right, unknowns: Unknowns) -> tuple:
    """The entries of sum_t conj(X_t) (x) Y_t in rows r_i <= c_i of ``unknowns``.

    ``left`` and ``right`` (T, d, d) are the patterns of the X_t and Y_t.
    In column stacking, entry (i, j) of conj(X) (x) Y on the unknowns is
    conj(X[c_i, c_j]) * Y[r_i, r_j], so it exists only where both factors
    are nonzero: for each term and each unknown i with r_i <= c_i, every
    nonzero of row c_i of X_t pairs with every nonzero of row r_i of Y_t,
    and the pair is kept if it reaches an unknown j.  Returns (term, i, j,
    a, b) with a = c_i d + c_j and b = r_i d + r_j, the flat positions of
    the two factors, ordered by term, then by b, then by a, so one term
    never lists an (i, j) twice.
    """
    d, rows, cols = unknowns.dim, unknowns.rows, unknowns.cols
    flat_x, flat_y = np.flatnonzero(left), np.flatnonzero(right)  # t d^2 + row d + col
    rows_x = np.searchsorted(flat_x, d * np.arange(len(left) * d + 1))  # (t, row) -> its nonzeros
    rows_y = np.searchsorted(flat_y, d * np.arange(len(right) * d + 1))
    upper = np.flatnonzero(rows <= cols)
    term = np.repeat(np.arange(len(left)), len(upper))
    i = np.tile(upper, len(left))
    x, y = rows_x[term * d + cols[i]], rows_y[term * d + rows[i]]
    count_x, count_y = rows_x[term * d + cols[i] + 1] - x, rows_y[term * d + rows[i] + 1] - y
    group, within = _runs(np.zeros_like(x), count_x * count_y)
    x = flat_x[x[group] + within // count_y[group]]
    y = flat_y[y[group] + within % count_y[group]]
    term, i = term[group], i[group]
    a, b = cols[i] * d + x % d, rows[i] * d + y % d
    j = unknowns.index.reshape(-1)[b % d * d + a % d]
    order = np.argsort((term * d**2 + b) * d**2 + a)
    order = order[j[order] >= 0]
    return term[order], i[order], j[order], a[order], b[order]


def _slots(pattern: np.ndarray) -> np.ndarray:
    """Places of the entries of a (U + 1, d^2) term pattern in the operators' values, J's last.

    The U operators' positions are numbered together, term by term, and
    J's apart; -1 off the pattern.
    """
    slots = np.full(pattern.shape, -1, dtype=np.intp)
    slots[:-1][pattern[:-1]] = np.arange(np.count_nonzero(pattern[:-1]))
    slots[-1][pattern[-1]] = np.arange(np.count_nonzero(pattern[-1]))
    return slots


def _generator_terms(H: np.ndarray, operators: Entries, rates: np.ndarray, first) -> tuple:
    """The used rates, operator values and J of a stack of generators, and their pattern.

    Row j of ``rates`` (k, T) has the operators first[j] .. first[j] + T - 1
    of ``operators`` and the Hamiltonian H[j] (H (k, d, d)).  Terms whose
    rate is zero in every row are dropped; one at a zero rate in some rows
    adds exact zeros to theirs.  ``pattern`` (U + 1, d^2) is nonzero where
    a used operator, or J = -iH - sum rate * A^dag A / 2 last, has an entry
    in any row; the values are laid out on its :func:`_slots`.  The
    operators' entries are taken once per distinct ``first`` (the rows of
    one chain share it) and their values gathered to its rows.  J is iH row
    by row, then its A^dag A part (:attr:`Entries.decay`), which the rates
    scale, is added to each row from its operators' entries, one entry at a
    time, term by term (``np.add.at``), so a row's values do not depend on
    its stack.
    """
    d, (k, T) = operators.dim, rates.shape
    sets, of_row = np.unique(first, return_inverse=True)
    used = rates.any(axis=0)
    count = int(np.count_nonzero(used))
    decay = operators.decay
    s, t, e = operators.take(sets, T)
    d_s, d_t, d_e = decay.take(sets, T)
    if count < T:
        rank = np.cumsum(used) - 1
        keep, d_keep = np.flatnonzero(used[t]), np.flatnonzero(used[d_t])
        s, t, e = s[keep], rank[t[keep]], e[keep]
        d_s, d_t, d_e = d_s[d_keep], rank[d_t[d_keep]], d_e[d_keep]
        rates = rates[:, used]
    flat = operators.rows[e] * d + operators.cols[e]
    d_flat = decay.rows[d_e] * d + decay.cols[d_e]
    H = H.reshape(-1, d * d)
    h_flat = np.flatnonzero(H.any(axis=0))
    pattern = np.zeros((count + 1, d * d), dtype=bool)
    pattern[t, flat] = True
    pattern[count, d_flat] = True
    pattern[count, h_flat] = True
    slots = _slots(pattern)
    ops = np.zeros((len(sets), np.count_nonzero(pattern[:-1])), dtype=complex)
    ops[s, slots[t, flat]] = operators.values[e]
    size = np.count_nonzero(pattern[-1])
    J = np.zeros((k, size), dtype=complex)  # -J: iH, then rate A^dag A / 2 term by term
    J[:, slots[count, h_flat]] = 1j * H[:, h_flat]
    # row j's decay entries are run of_row[j] of the sets' entries
    d_slot, d_value = slots[count, d_flat], decay.values[d_e]
    sizes = np.bincount(d_s, minlength=len(sets))
    row, index = _runs((np.cumsum(sizes) - sizes)[of_row], sizes[of_row])
    terms = (0.5 * rates[row, d_t[index]]) * d_value[index]
    np.add.at(J.reshape(-1), row * size + d_slot[index], terms)
    return rates, ops[of_row], -J, pattern.reshape(count + 1, d, d)


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
    off, lower, own = (rows != cols).astype(int), rows > cols, np.arange(m)
    # per unknown: the Re and Im coordinates of its pair, and the sign
    re, im, sign = np.where(lower, partner, own), np.where(lower, own, partner), 2.0 * lower - 1.0
    i_off, j_off, re_col, im_col, sign = off[i], off[j], re[j], im[j], sign[j]
    targets = np.stack([i * m + re_col, i * m + im_col,
                        partner[i] * m + re_col, partner[i] * m + im_col], axis=1)
    source = 2 * np.arange(n)[:, None] + [0, 1, 1, 0]
    coef = _SCALE[i_off, j_off][:, None] * np.stack(
        [np.ones(n), sign * j_off, 1.0 * i_off, -sign * (i_off & j_off)], axis=1)
    keep = coef != 0
    return targets[keep], source[keep], coef[keep]


@lru_cache(maxsize=64)
def _real_layout(unknowns: Unknowns, count: int, key: bytes) -> tuple:
    """Where :func:`real_superoperator` reads and scatters the entries of a generator.

    The entries (:func:`kron_entries`) of conj(A_t) (x) A_t, I (x) J and
    conj(J) (x) I, in that order, for the ``count`` term patterns packed in
    ``key`` (J's last): the term t of each operator entry and the places
    of its two factors in the operators' values, the places in J's values
    of the J factors of the other two terms (:func:`_slots`; the identity
    factor is never read), then the slots of every entry in the real block
    (:func:`_real_targets`).  Cached by pattern, which the stacks of a
    sweep share.
    """
    d = unknowns.dim
    bits = np.unpackbits(np.frombuffer(key, dtype=np.uint8), count=count * d * d)
    pattern = bits.reshape(count, d, d).astype(bool)
    eye, ops, J = np.eye(d, dtype=bool)[None], pattern[:-1], pattern[-1:]
    term, i, j, a, b = kron_entries(np.concatenate([ops, eye, J]), np.concatenate([ops, J, eye]),
                                    unknowns)
    slots = _slots(pattern.reshape(count, -1))
    s, e = np.searchsorted(term, [count - 1, count]).tolist()
    t = term[:s]
    layout = ((t, slots[t, a[:s]], slots[t, b[:s]], slots[-1, b[s:e]], slots[-1, a[e:]])
              + _real_targets(i, j, unknowns))
    read_only(*layout)
    return layout


def real_superoperator(H: np.ndarray, operators: Entries, rates: np.ndarray,
                       unknowns: Unknowns, first: np.ndarray) -> np.ndarray:
    """A stack of generators on ``unknowns`` as U^dag L U, in real Hermitian coordinates.

    Row j is -i[H[j], .] + sum_t rates[j, t] D[A_t] over the operators A_t
    first[j] .. first[j] + T - 1 of ``operators``, with ``rates`` (k, T)
    and H (k, d, d) (:func:`_generator_terms`).
    D[A] rho = A rho A^dag - {A^dag A, rho} / 2; in column stacking the
    generator is sum rate * conj(A) (x) A + I (x) J + conj(J) (x) I with
    J = -iH - sum rate * A^dag A / 2.  Only the entries of rows i with
    r_i <= c_i are formed (:func:`kron_entries`); for a generator that
    keeps rho Hermitian the others are their conjugates.  Each is scattered
    into the real block at up to four places, and the block is summed in
    the fixed order of :func:`kron_entries` by one ``np.bincount`` per
    stack, so a row's block does not depend on the stack it is built in.
    Returns the real (k, m, m) stack.
    """
    m = unknowns.size
    rates, ops, J, pattern = _generator_terms(H, operators, rates, first)
    k = len(rates)
    t, a, b, right, left, targets, source, coef = _real_layout(unknowns, len(pattern),
                                                               np.packbits(pattern).tobytes())
    values = np.concatenate([(rates[:, t] * ops[:, a].conj()) * ops[:, b], J[:, right],
                             J[:, left].conj()], axis=1)
    weights = np.ascontiguousarray(values).view(float)[:, source] * coef
    flat = (np.arange(k)[:, None] * (m * m) + targets).reshape(-1)
    return np.bincount(flat, weights.reshape(-1), minlength=k * m * m).reshape(k, m, m)
