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
channels (omega, A, gamma, nbar).  Every superoperator is built from that
form by one function, :func:`superoperator`, on a chosen set of unknowns:
the equal-excitation block for the steady solve, every entry for the dense
generator kept for tests and time evolution.
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
    excitation_numbers,
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

    ``operator`` stores weight * |p><q| between eigenstates with
    E_q - E_p = omega > 0, so [H, operator] = -omega * operator.  ``omega``
    is snapped to its frequency bin; operators sharing a bin carry an
    identical value.
    """

    operator: np.ndarray
    omega: float
    reservoir: int
    weight: float


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
    energy scale) are merged into a single bin.  Zero matrix elements are
    dropped; a nonzero element across a sub-cutoff gap raises
    DegenerateTransition.
    """
    energies = es.energies
    vectors = es.vectors
    d = es.dim
    elements = vectors.conj().T @ coupling @ vectors

    raw = []
    for p in range(d):
        for q in range(d):
            if p == q:
                continue
            omega = energies[q] - energies[p]
            elem = elements[p, q]
            if abs(elem) <= ELEMENT_TOL:
                continue
            if omega <= 0:
                continue  # the raising partner is handled via the (q, p) pair
            if omega <= OMEGA_MIN:
                raise DegenerateTransition(
                    f"transition at omega = {omega:.3e} below cutoff {OMEGA_MIN:.1e} "
                    f"between eigenstates {p} and {q}",
                    omega=omega,
                )
            raw.append((omega, p, q, elem))
    # degenerate pairs with a coupling element are unresolvable as well
    for p in range(d):
        for q in range(p + 1, d):
            if abs(energies[q] - energies[p]) <= OMEGA_MIN and abs(elements[p, q]) > ELEMENT_TOL:
                raise DegenerateTransition(
                    f"coupling element across degenerate eigenstates {p}, {q}",
                    omega=abs(energies[q] - energies[p]),
                )

    raw.sort(key=lambda item: (item[0], item[1], item[2]))
    scale = max(1.0, np.abs(energies).max())
    bins = []  # list of lists of raw entries
    for item in raw:
        if bins and item[0] - bins[-1][0][0] <= secular_tol * scale:
            bins[-1].append(item)
        else:
            bins.append([item])

    jumps = []
    for group in bins:
        omega_bin = float(np.mean([item[0] for item in group]))
        for _, p, q, elem in group:
            if abs(elem.imag) > 1e-10 * max(1.0, abs(elem)):
                weight = complex(elem)
            else:
                weight = float(elem.real)
            V = np.outer(vectors[:, p], vectors[:, q].conj()) * weight
            jumps.append(JumpOperator(operator=V, omega=omega_bin,
                                      reservoir=reservoir, weight=weight))
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


@lru_cache(maxsize=None)
def excitation_block(n_qubits: int) -> Unknowns:
    """Entries rho[a, b] whose two basis states have equal excitation number.

    C(2N, N) entries of the 4^N.  A generator whose Hamiltonian conserves
    excitation number and whose jump operators each change it by one fixed
    amount maps this block into itself and the rest into the rest (a weak
    U(1) symmetry), and the block holds every diagonal entry, so the unique
    steady state lies in it.
    """
    exc = excitation_numbers(n_qubits)
    d = len(exc)
    flat = np.arange(d * d)
    return _unknowns(d, flat[exc[flat % d] == exc[flat // d]])


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
    local one).
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
    """One channel per frequency bin of one reservoir.

    Jump operators sharing a bin are summed before the Lindblad form is
    applied, so equal-frequency cross terms survive while cross terms
    between different bins are dropped.
    """
    if len({jump.reservoir for jump in jumps}) > 1:
        raise ValueError("jump operators from several reservoirs in one dissipator")
    groups = {}
    for jump in jumps:
        groups.setdefault(jump.omega, []).append(jump)
    return tuple(
        Channel(omega, sum(j.operator for j in groups[omega]), bath.gamma,
                bose_occupation(omega, bath.temperature))
        for omega in sorted(groups)
    )


def global_dissipator_bins(jumps, bath: BathSpec) -> list:
    """Dense (omega, dissipator) pair of each frequency bin of one reservoir."""
    if not jumps:
        return []
    full = full_unknowns(jumps[0].operator.shape[0])
    return [(ch.omega, superoperator(None, ch.terms(), full))
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


def _conserves_excitation(n_qubits: int, H: np.ndarray, operators) -> bool:
    """True when H keeps excitation number and each operator shifts it by one fixed amount."""
    exc = excitation_numbers(n_qubits)
    shift = exc[:, None] - exc[None, :]
    if np.any(H[shift != 0]):
        return False
    for A in operators:
        shifts = shift[A != 0]
        if shifts.size and np.any(shifts != shifts[0]):
            return False
    return True


@dataclass(frozen=True)
class LindbladModel:
    """Generator of one chain under one approach, held in operator form.

    ``channels[j]`` lists reservoir j's channels: one per frequency bin for
    the global approach, a single one at the site gap for the local.
    ``eigensystem`` is the diagonalization the global channels were built
    from (None for the local approach).  Superoperators are derived from
    these on first use: ``block`` on the unknowns the steady state occupies,
    ``liouvillian`` and the per-reservoir ``dissipators`` densely.
    """

    spec: ChainSpec
    approach: str
    hamiltonian: np.ndarray
    channels: tuple
    eigensystem: EigenSystem = None

    def terms(self) -> list:
        """(rate, jump operator) pairs of every channel of every reservoir."""
        return [term for reservoir in self.channels for ch in reservoir for term in ch.terms()]

    @cached_property
    def unknowns(self) -> Unknowns:
        """Equal-excitation block when the generator keeps it invariant, else every entry.

        Only a frequency bin that joins excitation-raising and -lowering
        jumps (opposite single-particle energies) breaks the invariance.
        """
        operators = [ch.operator for reservoir in self.channels for ch in reservoir]
        if _conserves_excitation(self.spec.n_qubits, self.hamiltonian, operators):
            return excitation_block(self.spec.n_qubits)
        return full_unknowns(self.spec.dim)

    @cached_property
    def block(self) -> np.ndarray:
        """Generator restricted to :attr:`unknowns`."""
        return superoperator(self.hamiltonian, self.terms(), self.unknowns)

    @cached_property
    def liouvillian(self) -> np.ndarray:
        """Dense d^2 x d^2 generator, the oracle for :attr:`block`."""
        return superoperator(self.hamiltonian, self.terms(), full_unknowns(self.spec.dim))

    @cached_property
    def dissipators(self) -> tuple:
        """Dense superoperator of each reservoir."""
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
        return LindbladModel(spec=spec, approach=approach, hamiltonian=H, channels=channels)
    es = diagonalize(H)
    channels = []
    for j, bath in enumerate(spec.baths):
        site = bath.attached_site
        coupling = (site_operator(spec.n_qubits, site, "raise")
                    + site_operator(spec.n_qubits, site, "lower"))
        jumps = global_jump_operators(es, coupling, reservoir=j)
        channels.append(global_channels(jumps, bath))
    return LindbladModel(spec=spec, approach=approach, hamiltonian=H,
                         channels=tuple(channels), eigensystem=es)
