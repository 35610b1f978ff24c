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

Temperatures and bath rates enter only through the rates of the channels.
Everything else, H, its eigensystem, the binned operators and each bin's
flux functionals, is built once per (gaps, couplings, approach) and cached
(:func:`chain_structure`), so the rows of a temperature sweep only
evaluate occupations and solve.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
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


# Most elements of the per-term Kronecker grids held at once: the terms are
# gathered in stacks of up to this size, one stack for a small block.
_GRID_ELEMENTS = 1 << 16


def superoperator(H, terms, unknowns: Unknowns) -> np.ndarray:
    """-i[H, .] + sum of rate * D[A] over (rate, A) terms, on ``unknowns``.

    D[A] rho = A rho A^dag - {A^dag A, rho} / 2.  In column stacking the
    generator is I (x) J + conj(J) (x) I + sum rate * conj(A) (x) A with
    J = -iH - sum rate * A^dag A / 2, and entry (i, j) of X (x) Y on the
    unknowns is X[c_i, c_j] * Y[r_i, r_j]; only those entries are formed.
    ``H`` may be None for a dissipator alone; zero-rate terms are skipped.
    """
    d, m = unknowns.dim, unknowns.size
    terms = [(rate, A) for rate, A in terms if rate != 0]
    J = np.zeros((d, d), dtype=complex) if H is None else -1j * H
    L = np.zeros((m, m), dtype=complex)
    if terms:
        rates = np.array([rate for rate, _ in terms])
        ops = np.array([A for _, A in terms], dtype=complex)
        decay = (0.5 * rates)[:, None, None] * (ops.conj().swapaxes(1, 2) @ ops)
        J = np.subtract.reduce(np.concatenate([J[None], decay]), axis=0)  # term by term
        ops = ops.reshape(len(terms), d * d)
        step = min(len(terms), max(1, _GRID_ELEMENTS // (m * m)))
        left = np.empty((step, m, m), dtype=complex)
        right = np.empty_like(left)
        for i in range(0, len(terms), step):
            n = min(step, len(terms) - i)
            # the grids are in range; mode="clip" lets take fill ``out``
            # directly instead of through a bounds-checked copy
            np.take(rates[i:i + n, None] * ops[i:i + n].conj(), unknowns.col_pairs,
                    axis=1, out=left[:n], mode="clip")
            np.take(ops[i:i + n], unknowns.row_pairs, axis=1, out=right[:n], mode="clip")
            left[:n] *= right[:n]
            for piece in left[:n]:
                L += piece
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


def thermal_dissipator(A: np.ndarray, gamma: float, nbar: float) -> np.ndarray:
    """Dense emission at gamma (nbar + 1) through A plus absorption at gamma nbar through A^dag."""
    return superoperator(None, _thermal_terms(A, gamma, nbar), full_unknowns(A.shape[0]))


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


def thermal_channels(bins, bath: BathSpec) -> tuple:
    """The channel of each (omega, A) bin at the rate and temperature of ``bath``."""
    return tuple(Channel(omega, A, bath.gamma, bose_occupation(omega, bath.temperature))
                 for omega, A in bins)


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
    L = superoperator(H, (), full_unknowns(H.shape[0]))
    if any(D.shape != L.shape for D in dissipators):
        raise DimensionMismatch(f"a dissipator's shape differs from the generator's {L.shape}")
    return sum(dissipators, L)


# Rate-free structures kept per process: enough (chain, approach) pairs for
# the figure presets, which sweep temperature at a few fixed chains.
_STRUCTURES = 8


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
class ChainStructure:
    """The rate-free part of one chain's generator under one approach.

    Temperatures and bath rates enter the generator only through the rates
    gamma (nbar + 1) and gamma nbar of each channel, so everything here is
    fixed by the gaps, couplings and approach, and one structure serves
    every row of a temperature sweep: H, its ``eigensystem`` (global
    approach; None for the local one), H in the solve frame, each
    reservoir's (omega, A) ``bins`` in that frame, and ``flux_functionals``,
    which holds D[A]^dag(H) and D[A^dag]^dag(H) in the frame for every bin,
    reservoir by reservoir, so that a channel's heat current is
    gamma (nbar + 1) Tr{F[c, 0] rho} + gamma nbar Tr{F[c, 1] rho}
    (Alicki's form).  Every array is read-only.
    """

    hamiltonian: np.ndarray
    eigensystem: EigenSystem
    frame_hamiltonian: np.ndarray
    bins: tuple
    flux_functionals: np.ndarray
    patterns: dict = field(default_factory=dict, init=False, repr=False)

    def unknowns(self, terms) -> Unknowns:
        """:func:`coupled_unknowns` of the frame H and ``terms``, this structure's bins at some rates.

        The terms' operators are fixed, so the pattern changes only with
        which rates are zero (nbar = 0 at T = 0 or omega / T > 700); the set
        is kept for each such choice.
        """
        zero = tuple(rate == 0 for rate, _ in terms)
        found = self.patterns.get(zero)
        if found is None:
            found = self.patterns[zero] = coupled_unknowns(self.frame_hamiltonian, terms)
        return found

    @cached_property
    def spectrum(self) -> EigenSystem:
        """Eigensystem of H: ``eigensystem``, or for the local approach H diagonalized once."""
        if self.eigensystem is not None:
            return self.eigensystem
        es = diagonalize(self.hamiltonian)
        _read_only(es.energies, es.vectors)
        return es


def chain_structure(spec: ChainSpec, approach: str) -> ChainStructure:
    """The cached rate-free structure of ``spec`` under ``approach``.

    The key is the spec with each bath reduced to its attachment site, so
    specs that differ only in temperatures or rates share one structure.
    Building one that raises (DegenerateTransition) caches nothing, so the
    error is raised again on every call.
    """
    baths = tuple(BathSpec(0.0, attached_site=bath.attached_site) for bath in spec.baths)
    shape = ChainSpec(spec.n_qubits, tuple(spec.epsilons), tuple(spec.couplings), baths)
    return _chain_structure(shape, approach)


@lru_cache(maxsize=_STRUCTURES)
def _chain_structure(shape: ChainSpec, approach: str) -> ChainStructure:
    H = build_chain_hamiltonian(shape)
    if approach == "local":
        es, frame_H = None, H
        bins = tuple(local_bins(shape, bath) for bath in shape.baths)
    else:
        es = diagonalize(H)
        frame_H = np.diag(es.energies[es.frame_order])
        n = shape.n_qubits
        bins = []
        for bath in shape.baths:
            site = bath.attached_site
            coupling = site_operator(n, site, "raise") + site_operator(n, site, "lower")
            bins.append(global_bins(es, global_jump_operators(es, coupling)))
        bins = tuple(bins)
        _read_only(es.energies, es.vectors, *(A for reservoir in bins for _, A in reservoir))
    emitted = np.array([A for reservoir in bins for _, A in reservoir]).reshape((-1,) + H.shape)
    jumps = np.stack([emitted, emitted.conj().swapaxes(-1, -2)], axis=1)  # A, A^dag
    functionals = adjoint_dissipator(jumps, frame_H)
    _read_only(H, frame_H, functionals)
    return ChainStructure(hamiltonian=H, eigensystem=es, frame_hamiltonian=frame_H,
                          bins=bins, flux_functionals=functionals)


@dataclass(frozen=True)
class LindbladModel:
    """Generator of one chain under one approach at one set of bath rates.

    ``structure`` is the chain's rate-free part (:func:`chain_structure`),
    shared by every model of the same gaps, couplings and approach.  The
    steady state is solved in a frame: the eigenbasis
    ``eigensystem.frame`` for the global approach, where H is diagonal, and
    the site basis for the local one (``eigensystem`` is None there).
    ``frame_channels[j]`` lists reservoir j's channels in that frame at this
    model's rates: one per frequency bin for the global approach, a single
    one at the site gap for the local.  Everything else is derived on first
    use: ``block`` in the frame on the unknowns the steady state occupies,
    and in the site basis ``channels``, the dense ``liouvillian`` and the
    per-reservoir ``dissipators``.
    """

    spec: ChainSpec
    approach: str
    structure: ChainStructure
    frame_channels: tuple

    @property
    def hamiltonian(self) -> np.ndarray:
        """H in the site basis."""
        return self.structure.hamiltonian

    @property
    def eigensystem(self) -> EigenSystem:
        """The global frame's eigensystem; None for the local approach."""
        return self.structure.eigensystem

    @property
    def frame_hamiltonian(self) -> np.ndarray:
        """H in the solve frame."""
        return self.structure.frame_hamiltonian

    @cached_property
    def channels(self) -> tuple:
        """``frame_channels`` in the site basis."""
        return tuple(tuple(replace(ch, operator=self.to_site(ch.operator)) for ch in reservoir)
                     for reservoir in self.frame_channels)

    def terms(self) -> list:
        """(rate, jump operator) pairs of every channel of every reservoir, site basis."""
        return [term for reservoir in self.channels for ch in reservoir for term in ch.terms()]

    def frame_terms(self) -> list:
        """:meth:`terms` in the solve frame."""
        return [term for reservoir in self.frame_channels for ch in reservoir
                for term in ch.terms()]

    def to_site(self, rho: np.ndarray) -> np.ndarray:
        """A matrix given in the solve frame, in the site basis."""
        if self.eigensystem is None:
            return rho
        frame = self.eigensystem.frame
        return frame @ rho @ frame.conj().T

    @cached_property
    def unknowns(self) -> Unknowns:
        """Entries the frame generator joins to the diagonal (:func:`coupled_unknowns`)."""
        return self.structure.unknowns(self.frame_terms())

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
    """The chain's rate-free structure with each channel's rates at ``spec``'s baths."""
    if approach not in ("global", "local"):
        raise ValueError(f"approach must be 'global' or 'local', got {approach!r}")
    structure = chain_structure(spec, approach)
    channels = tuple(thermal_channels(bins, bath)
                     for bins, bath in zip(structure.bins, spec.baths))
    return LindbladModel(spec=spec, approach=approach, structure=structure,
                         frame_channels=channels)
