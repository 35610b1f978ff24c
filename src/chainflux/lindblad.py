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
superoperator is built from that form by one function, :func:`superoperator`,
on a chosen set of unknowns: the entries the generator couples to the
diagonal for the steady solve, every entry for the dense site-basis
generator kept for tests and time evolution.

Temperatures and bath rates enter only through the rates gamma (nbar + 1)
and gamma nbar of the bins.  Everything else is rate-free and is built here,
not kept: H, its eigensystem and the site operators of a chain (gaps,
couplings, attachments) in :func:`chain_operators`, the binned operators
and each bin's flux functionals of a chain and approach in
:func:`chain_structure`.  The caller that owns a request
(:func:`chainflux.observables.steady_reports`) builds each once per chain
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


# One entry per lowering jump: its bin's Bohr frequency, the eigenstates
# p = lower and q = upper it joins and its matrix element <p|coupling|q>.
JUMP_DTYPE = np.dtype([("omega", float), ("lower", np.intp), ("upper", np.intp), ("weight", complex)])


def global_jump_operators(es: EigenSystem, coupling: np.ndarray) -> np.ndarray:
    """Decompose a coupling operator into binned lowering eigenoperators.

    For every ordered eigenpair (p, q) with E_q - E_p above the frequency
    cutoff, the matrix element <p|coupling|q> becomes the weight of one jump
    weight * |p><q|, so [H, jump] = -omega * jump.  Frequencies closer than
    ``SECULAR_TOL`` (relative to the energy scale) to the lowest of their bin
    are merged into that bin, and each jump's ``omega`` is its bin's mean.
    Zero matrix elements are dropped; a nonzero element across a sub-cutoff
    gap raises DegenerateTransition.  The jumps come as a :data:`JUMP_DTYPE`
    array sorted by (omega, p, q).
    """
    energies = es.energies
    elements = es.vectors.conj().T @ coupling @ es.vectors
    gaps = energies[None, :] - energies[:, None]  # gaps[p, q] = E_q - E_p
    coupled = np.abs(elements) > ELEMENT_TOL
    lowering = coupled & (gaps > 0)  # the raising partner of (p, q) is (q, p)
    below = lowering & (gaps <= OMEGA_MIN)
    if below.any():
        p, q = np.argwhere(below)[0]
        raise DegenerateTransition(
            f"transition at omega = {gaps[p, q]:.3e} below cutoff {OMEGA_MIN:.1e} "
            f"between eigenstates {p} and {q}",
            omega=float(gaps[p, q]),
        )
    # degenerate pairs with a coupling element are unresolvable as well
    degenerate = coupled & (np.abs(gaps) <= OMEGA_MIN)
    np.fill_diagonal(degenerate, False)
    if degenerate.any():
        p, q = np.argwhere(np.triu(degenerate, 1))[0]
        raise DegenerateTransition(
            f"coupling element across degenerate eigenstates {p}, {q}",
            omega=float(abs(gaps[p, q])),
        )

    lower, upper = np.nonzero(lowering)
    order = np.lexsort((upper, lower, gaps[lower, upper]))
    lower, upper = lower[order], upper[order]
    omegas = gaps[lower, upper]
    weights = elements[lower, upper]
    real = np.abs(weights.imag) <= 1e-10 * np.maximum(1.0, np.abs(weights))
    tol = SECULAR_TOL * max(1.0, np.abs(energies).max())
    values = omegas.tolist()
    starts = []
    for i, omega in enumerate(values):
        if not starts or omega - values[starts[-1]] > tol:
            starts.append(i)
    jumps = np.empty(len(values), dtype=JUMP_DTYPE)
    jumps["lower"], jumps["upper"] = lower, upper
    jumps["weight"] = np.where(real, weights.real, weights)
    for start, stop in zip(starts, starts[1:] + [len(values)]):
        jumps["omega"][start:stop] = omegas[start:stop].sum() / (stop - start)  # as np.mean
    return jumps


@dataclass(frozen=True, eq=False)
class Unknowns:
    """Density-matrix entries rho[rows[i], cols[i]] a generator acts on.

    Entries are listed in column-stacked order, so the full set reproduces
    :func:`vectorize`.  ``row_pairs[i, j]`` is the flat index
    rows[i] * dim + rows[j] and ``col_pairs`` the same over cols, so a
    d x d matrix X read on a grid is X.ravel()[col_pairs][i, j] =
    X[cols[i], cols[j]].  ``same_col`` holds the flat positions i * size + j
    with cols[i] == cols[j] and ``row_pairs`` there (``same_row`` likewise),
    the only entries of I (x) Y and X (x) I.  ``diagonal`` lists the
    positions with rows == cols.
    """

    dim: int
    rows: np.ndarray
    cols: np.ndarray
    row_pairs: np.ndarray
    col_pairs: np.ndarray
    same_col: tuple
    same_row: tuple
    diagonal: np.ndarray

    @property
    def size(self) -> int:
        return len(self.rows)

    def gather(self, rho: np.ndarray) -> np.ndarray:
        """The listed entries of a d x d matrix, as a vector."""
        return rho[self.rows, self.cols]

    def scatter(self, v: np.ndarray) -> np.ndarray:
        """d x d matrix holding v at the listed entries and zero elsewhere."""
        rho = np.zeros((self.dim, self.dim), dtype=complex)
        rho[self.rows, self.cols] = v
        return rho


def _read_only(*arrays) -> None:
    for a in arrays:
        a.setflags(write=False)


def _unknowns(dim: int, flat: np.ndarray) -> Unknowns:
    """Unknowns at the given column-stacked positions c * dim + r, read-only."""
    rows, cols = flat % dim, flat // dim
    row_pairs = rows[:, None] * dim + rows[None, :]
    col_pairs = cols[:, None] * dim + cols[None, :]
    same_col = np.flatnonzero(cols[:, None] == cols[None, :])
    same_row = np.flatnonzero(rows[:, None] == rows[None, :])
    out = Unknowns(
        dim=dim, rows=rows, cols=cols, row_pairs=row_pairs, col_pairs=col_pairs,
        same_col=(same_col, row_pairs.ravel()[same_col]),
        same_row=(same_row, col_pairs.ravel()[same_row]),
        diagonal=np.flatnonzero(rows == cols),
    )
    _read_only(rows, cols, row_pairs, col_pairs, *out.same_col, *out.same_row, out.diagonal)
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


# Most elements of the per-term Kronecker grids held at once: the terms are
# gathered in stacks of up to this size, one stack for small blocks.  The
# steady solves go in stacks of at most this many block elements as well
# (256 KB per complex array): stacks of more than about eight m = 70
# systems solved slower per row than single ones, and larger stacks raise
# the peak memory of every sweep process.
_GRID_ELEMENTS = 1 << 14

def superoperator(H, operators, rates, unknowns: Unknowns) -> np.ndarray:
    """-i[H, .] + sum_t rates[t] D[operators[t]] on ``unknowns``, one block per row of ``rates``.

    D[A] rho = A rho A^dag - {A^dag A, rho} / 2.  In column stacking the
    generator is I (x) J + conj(J) (x) I + sum rate * conj(A) (x) A with
    J = -iH - sum rate * A^dag A / 2, and entry (i, j) of X (x) Y on the
    unknowns is X[c_i, c_j] * Y[r_i, r_j]; only those entries are formed.

    ``rates`` of shape (T,) gives one m x m block, of shape (k, T) a stack
    of k blocks.  ``H`` (d, d) and ``operators`` (T, d, d) are shared by the
    stack; ``H`` (k, d, d) and ``operators`` (k, T, d, d) give each block its
    own, as for the rows of different chains, and a leading axis of one is
    broadcast.  A^dag A and the gathered grid of A are formed once per
    operator set; each block is then summed term by term in the same order
    whatever the stack, so it does not depend on the stack it is built in.
    ``H`` may be None for a dissipator alone; terms whose rate is zero in
    every row are skipped.
    """
    d, m = unknowns.dim, unknowns.size
    rates = np.asarray(rates, dtype=float)
    single = rates.ndim == 1
    rates = np.atleast_2d(rates)
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
    L = np.zeros((k, m, m), dtype=complex)
    ops = ops.reshape(len(ops), len(used), d * d).swapaxes(0, 1)
    step = max(1, min(len(used), _GRID_ELEMENTS // (k * m * m)))
    left = np.empty((step, k, m, m), dtype=complex)
    right = np.empty((step, ops.shape[1], m, m), dtype=complex)
    for i in range(0, len(used), step):
        n = min(step, len(used) - i)
        # the grids are in range; mode="clip" lets take fill ``out``
        # directly instead of through a bounds-checked copy
        np.take(rates[:, i:i + n].T[:, :, None] * ops[i:i + n].conj(),
                unknowns.col_pairs, axis=2, out=left[:n], mode="clip")
        np.take(ops[i:i + n], unknowns.row_pairs, axis=2, out=right[:n], mode="clip")
        left[:n] *= right[:n]
        for piece in left[:n]:
            L += piece
    flat = L.reshape(k, m * m)
    J = J.reshape(k, d * d)
    at, pairs = unknowns.same_col
    flat[:, at] += J[:, pairs]
    at, pairs = unknowns.same_row
    flat[:, at] += J.conj()[:, pairs]
    return L[0] if single else L


def thermal_rates(gamma: float, nbar: float) -> tuple:
    """Rates gamma (nbar + 1) of emission through A and gamma nbar of absorption through A^dag."""
    return gamma * (nbar + 1.0), gamma * nbar


def thermal_dissipator(A: np.ndarray, gamma: float, nbar: float) -> np.ndarray:
    """Dense emission at gamma (nbar + 1) through A plus absorption at gamma nbar through A^dag."""
    return superoperator(None, (A, A.conj().T), thermal_rates(gamma, nbar),
                         full_unknowns(A.shape[0]))


def global_bins(es: EigenSystem, jumps: np.ndarray) -> tuple:
    """(omega, A) of each frequency bin of one reservoir's :data:`JUMP_DTYPE` array, in the frame.

    Jumps sharing a bin are summed before the Lindblad form is applied, so
    equal-frequency cross terms survive while cross terms between different
    bins are dropped.  Each bin's operator is given in the basis
    ``es.frame``: it holds the weights at the frame positions of (p, q) and
    is exactly zero elsewhere.
    """
    omegas, which = np.unique(jumps["omega"], return_inverse=True)
    position = np.argsort(es.frame_order)
    ops = np.zeros((len(omegas), es.dim, es.dim), dtype=complex)
    ops[which, position[jumps["lower"]], position[jumps["upper"]]] = jumps["weight"]
    return tuple(zip(omegas.tolist(), ops))


def local_bins(spec: ChainSpec, bath: BathSpec) -> tuple:
    """(omega, A) of the bare jump of the attached qubit, in the site basis.

    Its frequency is the qubit's own gap, ignoring the interqubit coupling.
    """
    site = bath.attached_site
    return ((spec.epsilons[site], site_operator(spec.n_qubits, site, "lower")),)


# Dense site-basis builders outside the sweep path; perfbench/tracing.py
# times them by these names.
def global_dissipator_bins(es: EigenSystem, jumps: np.ndarray, bath: BathSpec) -> list:
    """Dense (omega, dissipator) pair of each frequency bin of one reservoir."""
    return [(omega, thermal_dissipator(es.frame @ A @ es.frame.conj().T, bath.gamma,
                                       bose_occupation(omega, bath.temperature)))
            for omega, A in global_bins(es, jumps)]


def build_local_dissipator(spec: ChainSpec, bath: BathSpec) -> np.ndarray:
    """Dense site-basis dissipator of one reservoir."""
    ((omega, A),) = local_bins(spec, bath)
    return thermal_dissipator(A, bath.gamma, bose_occupation(omega, bath.temperature))


def build_liouvillian(H: np.ndarray, dissipators) -> np.ndarray:
    """Dense generator: unitary part plus the supplied dense dissipators."""
    L = superoperator(H, (), (), full_unknowns(H.shape[0]))
    if any(D.shape != L.shape for D in dissipators):
        raise DimensionMismatch(f"a dissipator's shape differs from the generator's {L.shape}")
    return sum(dissipators, L)


def adjoint_dissipator(A: np.ndarray, H: np.ndarray) -> np.ndarray:
    """D[A]^dag(H) = A^dag H A - {A^dag A, H} / 2, so Tr{H D[A](rho)} = Tr{D[A]^dag(H) rho}.

    ``A`` may be a stack of operators; the result is stacked the same way.
    A diagonal H (the eigenbasis frame) acts by elementwise products.
    """
    Ad = A.conj().swapaxes(-1, -2)
    AdA = Ad @ A
    h = np.diagonal(H)
    if np.count_nonzero(H) == np.count_nonzero(h):
        return (Ad * h) @ A - 0.5 * AdA * (h[:, None] + h)
    return Ad @ H @ A - 0.5 * (AdA @ H + H @ AdA)


@dataclass(frozen=True, eq=False)
class ChainOperators:
    """The approach-independent operators of one chain, in the site basis.

    H, each qubit's number operator and each reservoir's coupling
    sigma^+ + sigma^- at its attached qubit, fixed by the gaps, couplings
    and attachments; the sector ``eigensystem`` of H is computed on first
    use.  Both approaches' structures of a chain are built from one
    (:func:`chain_structure`), so H is built and diagonalized once per
    chain.  Every array is read-only.
    """

    hamiltonian: np.ndarray
    numbers: np.ndarray
    couplings: tuple

    @cached_property
    def eigensystem(self) -> EigenSystem:
        es = diagonalize(self.hamiltonian)
        _read_only(es.energies, es.vectors)
        return es


@dataclass(frozen=True, eq=False)
class ChainStructure:
    """The rate-free part of one chain's generator under one approach.

    Temperatures and bath rates enter the generator only through the rates
    gamma (nbar + 1) and gamma nbar of each channel, so everything here is
    fixed by the gaps, couplings and approach, and one structure serves
    every row of a temperature sweep: the chain's :class:`ChainOperators`
    (``chain``), shared with the other approach, the ``eigensystem`` of the
    global frame (None for the local approach), H in the solve frame, each
    reservoir's (omega, A) ``bins`` in that frame, the jump ``operators``
    A and A^dag of every bin in that order, reservoir by reservoir (the
    terms :meth:`rates` gives rates for), and two sets of linear
    functionals of the frame state: ``flux_functionals`` holds
    D[A]^dag(H) and D[A^dag]^dag(H) for every bin, so that a channel's heat
    current is gamma (nbar + 1) Tr{F[c, 0] rho} + gamma nbar Tr{F[c, 1] rho}
    (Alicki's form), and ``population_functionals`` holds each qubit's
    number operator in the frame, so n_q = Tr{P[q] rho}.  Every array is
    read-only.
    """

    chain: ChainOperators
    eigensystem: EigenSystem
    frame_hamiltonian: np.ndarray
    bins: tuple
    operators: np.ndarray
    flux_functionals: np.ndarray
    population_functionals: np.ndarray

    @cached_property
    def channels(self) -> tuple:
        """Bohr frequency of each bin as an array, and the slice each reservoir's bins take of it.

        Bin c owns operators 2c (A) and 2c + 1 (A^dag).  Raises
        NonPositiveFrequency for a bin at omega <= 0.
        """
        omegas = np.array([omega for reservoir in self.bins for omega, _ in reservoir])
        if (omegas <= 0).any():
            raise NonPositiveFrequency(f"omega must be > 0, got {omegas[omegas <= 0][0]}")
        bounds = np.cumsum([0] + [len(reservoir) for reservoir in self.bins]).tolist()
        return omegas, tuple(slice(a, b) for a, b in zip(bounds, bounds[1:]))

    def rates(self, baths) -> np.ndarray:
        """Rates of :attr:`operators` for each row's ``baths``, as a (rows, operators) array.

        ``baths`` holds one pair of BathSpecs per row.  The Bose occupations
        of every row and bin come from one divide and one ``expm1``, each
        value bit for bit the :func:`bose_occupation` of its bin, and the
        rates are :func:`thermal_rates` of it.
        """
        omegas, slices = self.channels
        baths = np.array([[(bath.temperature, bath.gamma) for bath in row] for row in baths])
        reservoir = np.repeat(np.arange(len(slices)), [s.stop - s.start for s in slices])
        temperature, gamma = baths[:, reservoir, 0], baths[:, reservoir, 1]
        with np.errstate(divide="ignore", over="ignore"):
            x = omegas / temperature
            nbar = np.where((temperature == 0) | (x > _EXP_ARG_MAX), 0.0, 1.0 / np.expm1(x))
        out = np.empty(nbar.shape + (2,))
        out[..., 0] = gamma * (nbar + 1.0)
        out[..., 1] = gamma * nbar
        return out.reshape(len(baths), -1)

    def unknowns(self, zero) -> Unknowns:
        """:func:`coupled_unknowns` of the frame H and the :attr:`operators` not flagged in ``zero``.

        ``zero`` flags the operators whose rate is zero (nbar = 0 at T = 0 or
        omega / T > 700); the operators are fixed, so the set changes only
        with these flags.
        """
        return coupled_unknowns(self.frame_hamiltonian, self.operators[~np.asarray(zero)])

    def to_site(self, rho: np.ndarray) -> np.ndarray:
        """Matrices given in the solve frame (one, or a stack), in the site basis."""
        if self.eigensystem is None:
            return rho
        frame = self.eigensystem.frame
        return frame @ rho @ frame.conj().T


def chain_key(spec: ChainSpec) -> tuple:
    """What fixes a chain's rate-free structure: its gaps, couplings and attachment sites."""
    return spec.epsilons, spec.couplings, spec.baths[0].attached_site, spec.baths[-1].attached_site


def chain_operators(spec: ChainSpec) -> ChainOperators:
    """The approach-independent operators of ``spec``'s chain, newly built."""
    n = spec.n_qubits
    H = build_chain_hamiltonian(spec)
    couplings = tuple(site_operator(n, bath.attached_site, "raise")
                      + site_operator(n, bath.attached_site, "lower") for bath in spec.baths)
    _read_only(H, *couplings)
    return ChainOperators(hamiltonian=H, numbers=_number_operators(n), couplings=couplings)


@lru_cache(maxsize=None)
def _number_operators(n_qubits: int) -> np.ndarray:
    numbers = np.array([number_operator(n_qubits, q) for q in range(n_qubits)])
    _read_only(numbers)
    return numbers


def _with_adjoints(emitted) -> np.ndarray:
    """A and A^dag of each of the ``emitted`` operators A, in that order, stacked."""
    emitted = np.array(emitted)
    pairs = np.stack([emitted, emitted.conj().swapaxes(-1, -2)], axis=1)
    return pairs.reshape((-1,) + emitted.shape[1:])


@lru_cache(maxsize=None)
def _local_operators(n_qubits: int, sites: tuple) -> np.ndarray:
    """The local structure's operators, one array for every chain of these attachments."""
    operators = _with_adjoints([site_operator(n_qubits, site, "lower") for site in sites])
    _read_only(operators)
    return operators


def chain_structure(chain: ChainOperators, spec: ChainSpec, approach: str) -> ChainStructure:
    """The rate-free structure of ``spec``'s chain under ``approach``, newly built.

    ``chain`` is the chain's :func:`chain_operators`; building both
    approaches' structures from one shares H and its eigensystem.  Only the
    gaps, couplings and attachments of ``spec`` are read.  Raises
    DegenerateTransition where the eigenbasis route degenerates.
    """
    if approach not in ("global", "local"):
        raise ValueError(f"approach must be 'global' or 'local', got {approach!r}")
    H = chain.hamiltonian
    if approach == "local":
        es, frame_H, numbers = None, H, chain.numbers
        bins = tuple(local_bins(spec, bath) for bath in spec.baths)
        operators = _local_operators(spec.n_qubits, tuple(b.attached_site for b in spec.baths))
    else:
        es = chain.eigensystem
        frame_H = np.diag(es.energies[es.frame_order])
        bins = tuple(global_bins(es, global_jump_operators(es, coupling))
                     for coupling in chain.couplings)
        _read_only(*(A for reservoir in bins for _, A in reservoir))
        numbers = es.frame.conj().T @ chain.numbers @ es.frame
        operators = _with_adjoints([A for reservoir in bins for _, A in reservoir])
    functionals = adjoint_dissipator(operators.reshape((-1, 2) + H.shape), frame_H)
    _read_only(frame_H, operators, functionals, numbers)
    return ChainStructure(chain=chain, eigensystem=es, frame_hamiltonian=frame_H, bins=bins,
                          operators=operators, flux_functionals=functionals,
                          population_functionals=numbers)


@dataclass(frozen=True)
class LindbladModel:
    """Generator of one chain under one approach at one set of bath rates.

    ``structure`` is the chain's rate-free part (:func:`chain_structure`);
    the rates of its jump operators come from ``spec``'s baths.  The steady
    state is solved in a frame: the eigenbasis ``eigensystem.frame`` for the
    global approach, where H is diagonal, and the site basis for the local
    one (``eigensystem`` is None there).  Everything else is derived on
    first use: ``block`` in the frame on the unknowns the steady state
    occupies, and in the site basis the dense ``liouvillian`` and the
    per-reservoir ``dissipators``.
    """

    spec: ChainSpec
    approach: str
    structure: ChainStructure

    @property
    def hamiltonian(self) -> np.ndarray:
        """H in the site basis."""
        return self.structure.chain.hamiltonian

    @property
    def eigensystem(self) -> EigenSystem:
        """The global frame's eigensystem; None for the local approach."""
        return self.structure.eigensystem

    @property
    def frame_hamiltonian(self) -> np.ndarray:
        """H in the solve frame."""
        return self.structure.frame_hamiltonian

    @cached_property
    def rates(self) -> np.ndarray:
        """Rate of each of the structure's jump operators at this model's baths."""
        return self.structure.rates([self.spec.baths])[0]

    def to_site(self, rho: np.ndarray) -> np.ndarray:
        """A matrix given in the solve frame, in the site basis."""
        return self.structure.to_site(rho)

    @cached_property
    def unknowns(self) -> Unknowns:
        """Entries the frame generator joins to the diagonal (:func:`coupled_unknowns`)."""
        return self.structure.unknowns(self.rates == 0)

    @cached_property
    def block(self) -> np.ndarray:
        """Frame generator restricted to :attr:`unknowns`."""
        return superoperator(self.frame_hamiltonian, self.structure.operators, self.rates,
                             self.unknowns)

    @cached_property
    def liouvillian(self) -> np.ndarray:
        """Dense d^2 x d^2 site-basis generator, the oracle for :attr:`block`."""
        return superoperator(self.hamiltonian, self.to_site(self.structure.operators),
                             self.rates, full_unknowns(self.spec.dim))

    @cached_property
    def dissipators(self) -> tuple:
        """Dense site-basis superoperator of each reservoir."""
        full = full_unknowns(self.spec.dim)
        operators = self.to_site(self.structure.operators)
        bounds = np.cumsum([0] + [2 * len(reservoir) for reservoir in self.structure.bins])
        return tuple(superoperator(None, operators[a:b], self.rates[a:b], full)
                     for a, b in zip(bounds, bounds[1:]))


def assemble(spec: ChainSpec, approach: str) -> LindbladModel:
    """The generator of ``spec`` under ``approach``, on a newly built structure."""
    structure = chain_structure(chain_operators(spec), spec, approach)
    return LindbladModel(spec=spec, approach=approach, structure=structure)
