"""Jump operators, dissipative channels and the generator in vectorized form.

Two routes to the dissipators are built here.  The eigenbasis ("global")
route decomposes each endpoint coupling operator into lowering components
between energy eigenstates, groups them into Bohr-frequency bins and keeps
cross terms only within a bin (full secular approximation).  The site-basis
("local") route attaches thermal raising/lowering of the bare endpoint qubit
at its own gap, ignoring the interqubit coupling in the rates.

All rates are expressed through the Bose occupation nbar and nbar + 1, never
through exp(beta * omega), so zero temperature and large beta are exact.

Both routes end in the same operator form: per reservoir, a list of
channels (omega, A, gamma, nbar), with A held in the frame the steady state
is solved in (the eigenbasis for the global route, the site basis for the
local one).  Every superoperator is built from that form by one function,
:func:`superoperator`, on a chosen set of unknowns: the entries the
generator couples to the diagonal for the steady solve, every entry for the
dense site-basis generator kept for tests and time evolution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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


def spectral_density(gamma: float, omega: float, temperature: float) -> float:
    """Wide-band absorption rate gamma * nbar(omega, T).

    The matching emission rate is gamma * (nbar + 1); detailed balance
    nbar * exp(omega/T) = nbar + 1 is used instead of exponentiating.
    """
    return gamma * bose_occupation(omega, temperature)


def vectorize(rho: np.ndarray) -> np.ndarray:
    """Column-stack a matrix."""
    return rho.reshape(-1, order="F")


def unvectorize(v: np.ndarray, dim: int) -> np.ndarray:
    """Inverse of :func:`vectorize`."""
    return v.reshape((dim, dim), order="F")


def trace_vector(dim: int) -> np.ndarray:
    """Row vector implementing the trace on column-stacked matrices."""
    return np.eye(dim, dtype=complex).reshape(-1, order="F")


@dataclass(frozen=True)
class JumpOperator:
    """A lowering component of a coupling operator.

    The operator is weight * |p><q| between eigenstates p = ``lower`` and
    q = ``upper`` of ``eigensystem`` with E_q - E_p = omega > 0, so
    [H, operator] = -omega * operator.  ``omega`` is snapped to its
    frequency bin; operators sharing a bin carry an identical value.
    """

    omega: float
    reservoir: int
    weight: complex
    lower: int
    upper: int
    eigensystem: EigenSystem = field(repr=False)

    @property
    def operator(self) -> np.ndarray:
        """The d x d site-basis matrix, built on request."""
        vectors = self.eigensystem.vectors
        return np.outer(vectors[:, self.lower], vectors[:, self.upper].conj()) * self.weight


def global_jump_operators(
    es: EigenSystem,
    coupling: np.ndarray,
    reservoir: int,
    secular_tol: float = SECULAR_TOL,
) -> list:
    """Decompose a coupling operator into binned lowering eigenoperators.

    For every ordered eigenpair (p, q) with E_q - E_p above the frequency
    cutoff, the matrix element <p|coupling|q> becomes the weight of one jump
    operator.  Frequencies closer than ``secular_tol`` (relative to the
    energy scale) to the lowest of their bin are merged into that bin.  Zero
    matrix elements are dropped; a nonzero element across a sub-cutoff gap
    raises DegenerateTransition.  Jumps come sorted by (omega, p, q).
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
    degenerate = np.triu(coupled & (np.abs(gaps) <= OMEGA_MIN), 1)
    if degenerate.any():
        p, q = np.argwhere(degenerate)[0]
        raise DegenerateTransition(
            f"coupling element across degenerate eigenstates {p}, {q}",
            omega=float(abs(gaps[p, q])),
        )

    lower, upper = np.nonzero(lowering)
    order = np.lexsort((upper, lower, gaps[lower, upper]))
    lower, upper = lower[order], upper[order]
    omegas = gaps[lower, upper]
    weights = elements[lower, upper]
    real = (np.abs(weights.imag) <= 1e-10 * np.maximum(1.0, np.abs(weights))).tolist()
    tol = secular_tol * max(1.0, np.abs(energies).max())
    values = omegas.tolist()
    starts = []
    for i, omega in enumerate(values):
        if not starts or omega - values[starts[-1]] > tol:
            starts.append(i)
    jumps = []
    for start, stop in zip(starts, starts[1:] + [len(omegas)]):
        omega_bin = float(omegas[start:stop].sum() / (stop - start))  # as np.mean
        for p, q, w, r in zip(lower[start:stop].tolist(), upper[start:stop].tolist(),
                              weights[start:stop].tolist(), real[start:stop]):
            jumps.append(JumpOperator(omega_bin, reservoir, w.real if r else w, p, q, es))
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
    for a in (rows, cols, row_pairs, col_pairs, *out.same_col, *out.same_row, out.diagonal):
        a.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def full_unknowns(dim: int) -> Unknowns:
    """Every entry of a dim x dim matrix: the dense generator's index."""
    return _unknowns(dim, np.arange(dim * dim))


def coupled_unknowns(H: np.ndarray, terms) -> Unknowns:
    """Entries of rho that the generator of (H, terms) joins to the diagonal.

    The generator I (x) J + conj(J) (x) I + sum rate * conj(A) (x) A with
    J = -iH - sum rate * A^dag A / 2 links entry (r, c) to (r', c) where
    J[r', r] != 0, to (r, c') where J[c', c] != 0, and to (r', c') where
    A[r', r] and A[c', c] are both nonzero.  The set is every entry reached
    from a diagonal one over these links taken in both directions, read off
    the structural nonzero pattern of H and the nonzero-rate A.  No link
    leaves it, so the generator maps it into itself and the rest into the
    rest; it holds every diagonal entry, so it carries the trace and the
    steady state, and restricting the solve to it is exact.  Listed in
    column-stacked order and cached by pattern, which a sweep's rows share.
    """
    patterns = np.stack([H != 0] + [A != 0 for rate, A in terms if rate != 0])
    return _coupled_unknowns(H.shape[0], len(patterns), np.packbits(patterns).tobytes())


@lru_cache(maxsize=64)
def _coupled_unknowns(dim: int, count: int, key: bytes) -> Unknowns:
    bits = np.unpackbits(np.frombuffer(key, dtype=np.uint8), count=count * dim * dim)
    hamiltonian, *operators = bits.reshape(count, dim, dim).astype(float)
    damping = hamiltonian + sum(A.T @ A for A in operators)
    damping = damping + damping.T
    reached = np.eye(dim)  # reached[r, c]: entry (r, c) is in the set
    while True:
        grown = reached + damping @ reached + reached @ damping
        for A in operators:
            grown += A @ reached @ A.T + A.T @ reached @ A
        grown = (grown > 0).astype(float)
        if np.array_equal(grown, reached):
            return _unknowns(dim, np.flatnonzero(reached.T))
        reached = grown


def superoperator(H, terms, unknowns: Unknowns) -> np.ndarray:
    """-i[H, .] + sum of rate * D[A] over (rate, A) terms, on ``unknowns``.

    D[A] rho = A rho A^dag - {A^dag A, rho} / 2.  In column stacking the
    generator is I (x) J + conj(J) (x) I + sum rate * conj(A) (x) A with
    J = -iH - sum rate * A^dag A / 2, and entry (i, j) of X (x) Y on the
    unknowns is X[c_i, c_j] * Y[r_i, r_j]; only those entries are formed.
    ``H`` may be None for a dissipator alone; zero-rate terms are skipped.
    """
    d = unknowns.dim
    J = np.zeros((d, d), dtype=complex) if H is None else -1j * H
    L = np.zeros((unknowns.size, unknowns.size), dtype=complex)
    left, right = np.empty_like(L), np.empty_like(L)
    for rate, A in terms:
        if rate == 0:
            continue
        J -= (0.5 * rate) * (A.conj().T @ A)
        # the grids are in range; mode="clip" lets take fill ``out`` directly
        # instead of through a bounds-checked copy
        np.take((rate * A.conj()).ravel(), unknowns.col_pairs, out=left, mode="clip")
        np.take(A.ravel(), unknowns.row_pairs, out=right, mode="clip")
        left *= right
        L += left
    flat = L.reshape(-1)
    at, pairs = unknowns.same_col
    flat[at] += J.ravel()[pairs]
    at, pairs = unknowns.same_row
    flat[at] += J.conj().ravel()[pairs]
    return L


def _thermal_terms(A: np.ndarray, gamma: float, nbar: float) -> tuple:
    return ((gamma * (nbar + 1.0), A), (gamma * nbar, A.conj().T))


@dataclass(frozen=True)
class Channel:
    """One dissipative channel of a reservoir, in operator form.

    Emission through ``operator`` at rate gamma (nbar + 1) and absorption
    through its adjoint at rate gamma nbar.  ``omega`` is the Bohr frequency
    of the channel (its bin for the global approach, the site gap for the
    local one).  The operator is given in the basis of the caller's choice.
    """

    omega: float
    operator: np.ndarray
    gamma: float
    nbar: float

    def terms(self) -> tuple:
        """(rate, jump operator) pairs of the Lindblad form."""
        return _thermal_terms(self.operator, self.gamma, self.nbar)

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """D(rho) in matrix form."""
        jumped = np.zeros_like(rho, dtype=complex)
        decay = np.zeros_like(rho, dtype=complex)
        for rate, A in self.terms():
            if rate == 0:
                continue
            Ad = A.conj().T
            jumped += rate * (A @ rho @ Ad)
            decay += rate * (Ad @ A)
        return jumped - 0.5 * (decay @ rho + rho @ decay)


def thermal_dissipator(A: np.ndarray, gamma: float, nbar: float) -> np.ndarray:
    """Dense emission at gamma (nbar + 1) through A plus absorption at gamma nbar through A^dag."""
    return superoperator(None, _thermal_terms(A, gamma, nbar), full_unknowns(A.shape[0]))


def global_channels(jumps, bath: BathSpec) -> tuple:
    """One channel per frequency bin of one reservoir, in the eigenbasis frame.

    Jump operators sharing a bin are summed before the Lindblad form is
    applied, so equal-frequency cross terms survive while cross terms
    between different bins are dropped.  Each bin's operator is given in the
    basis ``eigensystem.frame``: it holds the weights at the frame positions
    of (p, q) and is exactly zero elsewhere.
    """
    if len({jump.reservoir for jump in jumps}) > 1:
        raise ValueError("jump operators from several reservoirs in one dissipator")
    if not jumps:
        return ()
    es = jumps[0].eigensystem
    position = np.argsort(es.frame_order)
    groups = {}
    for jump in jumps:
        groups.setdefault(jump.omega, []).append(jump)
    channels = []
    for omega in sorted(groups):
        A = np.zeros((es.dim, es.dim), dtype=complex)
        for j in groups[omega]:
            A[position[j.lower], position[j.upper]] = j.weight
        channels.append(Channel(omega, A, bath.gamma, bose_occupation(omega, bath.temperature)))
    return tuple(channels)


def to_site_basis(channel: Channel, frame: np.ndarray) -> Channel:
    """A channel given in the basis ``frame`` (columns in the site basis), in the site basis."""
    return Channel(channel.omega, frame @ channel.operator @ frame.conj().T,
                   channel.gamma, channel.nbar)


def global_dissipator_bins(jumps, bath: BathSpec) -> list:
    """Dense (omega, dissipator) pair of each frequency bin of one reservoir."""
    if not jumps:
        return []
    es = jumps[0].eigensystem
    full = full_unknowns(es.dim)
    return [(ch.omega, superoperator(None, to_site_basis(ch, es.frame).terms(), full))
            for ch in global_channels(jumps, bath)]


def local_channel(spec: ChainSpec, bath: BathSpec) -> Channel:
    """Site-basis channel: bare thermal jumps of the attached qubit.

    Rates are evaluated at the attached qubit's own gap, ignoring the
    interqubit coupling.
    """
    site = bath.attached_site
    eps = spec.epsilons[site]
    return Channel(eps, site_operator(spec.n_qubits, site, "lower"), bath.gamma,
                   bose_occupation(eps, bath.temperature))


def build_local_dissipator(spec: ChainSpec, bath: BathSpec) -> np.ndarray:
    """Dense site-basis dissipator of one reservoir."""
    return superoperator(None, local_channel(spec, bath).terms(), full_unknowns(spec.dim))


def build_liouvillian(H: np.ndarray, dissipators) -> np.ndarray:
    """Dense generator: unitary part plus the supplied dense dissipators."""
    d = H.shape[0]
    L = superoperator(H, (), full_unknowns(d))
    for D in dissipators:
        if D.shape != (d * d, d * d):
            raise DimensionMismatch(
                f"dissipator shape {D.shape} does not match dim {d}"
            )
        L = L + D
    return L


@dataclass(frozen=True)
class LindbladModel:
    """Generator of one chain under one approach, held in operator form.

    The steady state is solved in a frame: the eigenbasis
    ``eigensystem.frame`` for the global approach, where H is diagonal, and
    the site basis for the local one (``eigensystem`` is None there).
    ``frame_channels[j]`` lists reservoir j's channels in that frame: one
    per frequency bin for the global approach, a single one at the site gap
    for the local.  Everything else is derived on first use: ``block`` in
    the frame on the unknowns the steady state occupies, and in the site
    basis ``channels``, the dense ``liouvillian`` and the per-reservoir
    ``dissipators``.
    """

    spec: ChainSpec
    approach: str
    hamiltonian: np.ndarray
    frame_channels: tuple
    eigensystem: EigenSystem = None

    @cached_property
    def channels(self) -> tuple:
        """``frame_channels`` in the site basis."""
        if self.eigensystem is None:
            return self.frame_channels
        frame = self.eigensystem.frame
        return tuple(tuple(to_site_basis(ch, frame) for ch in reservoir)
                     for reservoir in self.frame_channels)

    def terms(self) -> list:
        """(rate, jump operator) pairs of every channel of every reservoir, site basis."""
        return [term for reservoir in self.channels for ch in reservoir for term in ch.terms()]

    def frame_terms(self) -> list:
        """:meth:`terms` in the solve frame."""
        return [term for reservoir in self.frame_channels for ch in reservoir
                for term in ch.terms()]

    @cached_property
    def frame_hamiltonian(self) -> np.ndarray:
        """H in the solve frame."""
        es = self.eigensystem
        return self.hamiltonian if es is None else np.diag(es.energies[es.frame_order])

    def to_site(self, rho: np.ndarray) -> np.ndarray:
        """A matrix given in the solve frame, in the site basis."""
        if self.eigensystem is None:
            return rho
        frame = self.eigensystem.frame
        return frame @ rho @ frame.conj().T

    @cached_property
    def unknowns(self) -> Unknowns:
        """Entries the frame generator joins to the diagonal (:func:`coupled_unknowns`)."""
        return coupled_unknowns(self.frame_hamiltonian, self.frame_terms())

    @cached_property
    def block(self) -> np.ndarray:
        """Frame generator restricted to :attr:`unknowns`."""
        return superoperator(self.frame_hamiltonian, self.frame_terms(), self.unknowns)

    @cached_property
    def liouvillian(self) -> np.ndarray:
        """Dense d^2 x d^2 site-basis generator, the oracle for :attr:`block`."""
        return superoperator(self.hamiltonian, self.terms(), full_unknowns(self.spec.dim))

    @cached_property
    def dissipators(self) -> tuple:
        """Dense site-basis superoperator of each reservoir."""
        full = full_unknowns(self.spec.dim)
        return tuple(superoperator(None, [t for ch in reservoir for t in ch.terms()], full)
                     for reservoir in self.channels)


def assemble(spec: ChainSpec, approach: str) -> LindbladModel:
    """Build the Hamiltonian and each reservoir's channels."""
    if approach not in ("global", "local"):
        raise ValueError(f"approach must be 'global' or 'local', got {approach!r}")
    H = build_chain_hamiltonian(spec)
    if approach == "local":
        channels = tuple((local_channel(spec, bath),) for bath in spec.baths)
        return LindbladModel(spec=spec, approach=approach, hamiltonian=H,
                             frame_channels=channels)
    es = diagonalize(H)
    channels = []
    for j, bath in enumerate(spec.baths):
        site = bath.attached_site
        coupling = (site_operator(spec.n_qubits, site, "raise")
                    + site_operator(spec.n_qubits, site, "lower"))
        jumps = global_jump_operators(es, coupling, reservoir=j)
        channels.append(global_channels(jumps, bath))
    return LindbladModel(spec=spec, approach=approach, hamiltonian=H,
                         frame_channels=tuple(channels), eigensystem=es)
