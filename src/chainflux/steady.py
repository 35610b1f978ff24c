"""Steady states by constrained linear solve, plus a time-evolution oracle."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateKernel,
    DimensionMismatch,
    NoConvergence,
    StepTooLarge,
)
from .lindblad import Unknowns, full_unknowns, unvectorize, vectorize

RESIDUAL_TOL = 1e-10

_EPS = float(np.finfo(float).eps)


def check_density_matrix(rho: np.ndarray, herm_tol=1e-10, trace_tol=1e-10, eig_floor=-1e-8):
    """Raise ValueError unless rho is Hermitian, unit-trace and near-positive."""
    herm = np.abs(rho - rho.conj().T).max()
    if herm > herm_tol:
        raise ValueError(f"not Hermitian: max asymmetry {herm:.3e}")
    tr = np.trace(rho)
    if abs(tr - 1.0) > trace_tol:
        raise ValueError(f"trace {tr} differs from 1")
    lo = np.linalg.eigvalsh(rho).min()
    if lo < eig_floor:
        raise ValueError(f"negative eigenvalue {lo:.3e}")


@dataclass(frozen=True)
class SteadySolution:
    """Steady state with solver diagnostics.

    ``rho`` is Hermitian by construction: it is solved for in the real
    coordinates of a Hermitian matrix on the unknowns
    (:class:`~chainflux.lindblad.Unknowns`).  ``residual`` is |L v| for
    the generator the solve was given, in entries (:func:`solve_steady`)
    or in real coordinates (:func:`solve_hermitian`), which have the same
    norm.  ``rcond`` is the 1-norm reciprocal condition number of the
    constrained real system (:func:`checked_inverse`) and ``unknowns`` the
    number of entries of rho solved for, which is also the number of real
    coordinates.  For a stack of generators every field but ``unknowns``
    has the stack's leading axis.
    """

    rho: np.ndarray
    residual: float
    replaced_row: int
    rcond: float
    unknowns: int


def unique(rcond, m: int):
    """Whether each system of m unknowns with this rcond_1 has a unique steady state.

    A system is rejected when rcond_1 <= m^2 eps, or when its LU met an
    exactly zero pivot (rcond 0).  ``rcond`` may be a scalar or an array.
    """
    return rcond > m * m * _EPS


def uniqueness_error(rcond: float, m: int):
    """The DegenerateKernel of a system of m unknowns with this rcond_1, or None if it is :func:`unique`."""
    if unique(rcond, m):
        return None
    if rcond == 0:
        return DegenerateKernel(
            "constrained system is singular: the steady state is not unique", rcond=0.0)
    return DegenerateKernel(
        f"constrained system has rcond {rcond:.3e} <= m^2 eps for m = {m}: "
        "the steady state is not unique", rcond=float(rcond))


def checked_inverse(M: np.ndarray) -> tuple:
    """Inverse and rcond_1 of each constrained steady-state system of a (k, m, m) stack.

    One stacked ``np.linalg.solve`` against the identity gives every
    inverse, one LU factorization per system; the solves pass real
    systems, in the coordinates of a Hermitian rho, and any dtype works.
    numpy gives no access to the LU factors, so |M^-1|_1 is read off the
    explicit inverse rather than estimated.  A system whose LU meets an
    exactly zero pivot makes numpy reject the whole stack; the stack is then
    solved system by system, and only such a system gets a zero inverse and
    rcond 0.  rcond_1 = 1 / (|M|_1 |M^-1|_1); :func:`uniqueness_error`
    rejects a system when it is <= m^2 eps.  Since |X|_2 <= sqrt(m) |X|_1,
    rcond_1 <= m rcond_2, so every system that ``np.linalg.matrix_rank``
    calls rank deficient (rcond_2 <= m eps) is rejected as well.
    """
    m = M.shape[-1]
    identity = np.eye(m, dtype=M.dtype)
    singular = np.zeros(len(M), dtype=bool)
    try:
        inverse = np.linalg.solve(M, identity)
    except np.linalg.LinAlgError:
        inverse = np.zeros_like(M)
        for i, system in enumerate(M):
            try:
                inverse[i] = np.linalg.solve(system, identity)
            except np.linalg.LinAlgError:
                singular[i] = True
    norms = np.abs(M).sum(axis=1).max(axis=1) * np.abs(inverse).sum(axis=1).max(axis=1)
    rcond = np.zeros(len(M))
    np.divide(1.0, norms, out=rcond, where=~singular)
    return inverse, rcond


def solve_hermitian(R: np.ndarray, unknowns: Unknowns, L: np.ndarray = None) -> SteadySolution:
    """Steady states of a (k, m, m) stack of real blocks in the coordinates of a Hermitian rho.

    ``R`` is U^dag L U on ``unknowns`` (:class:`~chainflux.lindblad.Unknowns`),
    as :func:`~chainflux.lindblad.real_superoperator` builds it.  The trace
    constraint replaces one row per block, chosen among the rows of
    diagonal entries: trace preservation makes those rows sum to zero, so
    dropping the one with the largest diagonal magnitude never removes an
    independent equation.  One stacked real ``np.linalg.solve`` gives every
    state and rcond_1 (:func:`checked_inverse`), and rho is rebuilt
    Hermitian from its coordinates x.  A row whose steady state is not
    unique gets a zero rho and its ``rcond`` tells it apart
    (:func:`uniqueness_error`).  The residual is |R x| against |R|, which
    are |L v| and |L| since U is unitary, or, given the complex blocks
    ``L`` themselves, |L v| against |L|; one above RESIDUAL_TOL times its
    scale raises NoConvergence.
    """
    k, m, diag = len(R), unknowns.size, unknowns.diagonal
    rows = np.arange(k)
    replaced = diag[np.abs(R[:, diag, diag]).argmax(axis=1)]
    M = R.copy()
    M[rows, replaced] = 0.0
    M[rows[:, None], replaced[:, None], diag] = 1.0
    inverse, rcond = checked_inverse(M)
    x = np.where(unique(rcond, m)[:, None], inverse[rows, :, replaced], 0.0)
    rho = unknowns.state(x)
    if L is None:
        residual = np.linalg.norm(R @ x[..., None], axis=(1, 2))
        scale = np.linalg.norm(R, axis=(1, 2))
    else:
        residual = np.linalg.norm(L @ rho[:, unknowns.rows, unknowns.cols, None], axis=(1, 2))
        scale = np.linalg.norm(L, axis=(1, 2))
    scale = np.maximum(scale, 1.0)
    worst = int((residual / scale).argmax())
    if residual[worst] > RESIDUAL_TOL * scale[worst]:
        raise NoConvergence(
            f"steady-state residual {residual[worst]:.3e} exceeds {RESIDUAL_TOL:.1e} * |L|"
        )
    replaced_row = unknowns.cols[replaced] * unknowns.dim + unknowns.rows[replaced]
    return SteadySolution(rho=rho, residual=residual, replaced_row=replaced_row, rcond=rcond,
                          unknowns=m)


def solve_steady(L: np.ndarray, unknowns: Unknowns = None) -> SteadySolution:
    """Solve L v = 0 with the trace constraint replacing one row.

    ``L`` is one m x m generator or a (k, m, m) stack of them, all on the
    same ``unknowns``: the entries of rho that v holds, by default all of
    them, with L the dense d^2 x d^2 generator.  Entries outside the set are
    zero in the returned state, which is exact when L keeps the set
    invariant, as for ``LindbladModel.block``; the uniqueness check
    (:func:`checked_inverse`), which always runs, then covers that set only.
    L is mapped to the real coordinates of a Hermitian rho
    (``unknowns.hermitian``) and solved there by :func:`solve_hermitian`,
    with the residual taken against the complex L itself, so a generator
    that does not keep rho Hermitian leaves a residual and is not solved.
    One generator whose steady state is not unique raises DegenerateKernel;
    in a stack, such a row gets a zero rho and its ``rcond`` tells it apart
    (:func:`uniqueness_error`).  A residual above RESIDUAL_TOL * |L| raises
    NoConvergence.  The whole stack is solved by one stacked LAPACK call, so
    callers keep stacks small (the sweep's hold at most ``_GRID_ELEMENTS``
    block elements).
    """
    single = L.ndim == 2
    stack = L[None] if single else L
    if unknowns is None:
        d2 = stack.shape[-1]
        d = int(round(np.sqrt(d2)))
        if d * d != d2:
            raise DimensionMismatch(f"generator shape {L.shape} is not a square over d^2")
        unknowns = full_unknowns(d)
    m = unknowns.size
    if stack.shape[1:] != (m, m):
        raise DimensionMismatch(f"generator shape {L.shape} does not match {m} unknowns")

    sol = solve_hermitian(unknowns.hermitian(stack), unknowns, stack)
    if not single:
        return sol
    error = uniqueness_error(sol.rcond[0], m)
    if error is not None:
        raise error
    return SteadySolution(rho=sol.rho[0], residual=float(sol.residual[0]),
                          replaced_row=int(sol.replaced_row[0]), rcond=float(sol.rcond[0]),
                          unknowns=m)


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray
    states: tuple
    converged: bool
    final_residual: float

    @property
    def final(self) -> np.ndarray:
        return self.states[-1]


def evolve_rk4(
    L: np.ndarray,
    rho0: np.ndarray,
    dt: float,
    t_end: float,
    residual_stop: float = 0.0,
    record_every: int = 0,
) -> Trajectory:
    """Classical fixed-step RK4 on vec(rho), independent of the linear solver.

    Stops early once |L vec(rho)| falls below ``residual_stop``.  Stored
    states are trace-renormalized; an accumulated trace drift above 1e-9 per
    unit time raises NoConvergence rather than being silently absorbed.
    """
    if dt <= 0:
        raise StepTooLarge("dt must be positive")
    lmax = np.abs(L).max()
    if lmax > 0 and dt > 0.1 / lmax:
        raise StepTooLarge(f"dt = {dt} exceeds stability guard {0.1 / lmax:.3e}")

    d = rho0.shape[0]
    n_steps = int(np.ceil(t_end / dt))
    if record_every <= 0:
        record_every = max(1, n_steps // 256)

    def store(vec):
        rho = unvectorize(vec, d)
        rho = 0.5 * (rho + rho.conj().T)
        return rho / np.trace(rho).real

    v = vectorize(np.asarray(rho0, dtype=complex))
    times = [0.0]
    states = [store(v)]
    converged = False
    t = 0.0
    for step in range(1, n_steps + 1):
        k1 = L @ v
        k2 = L @ (v + 0.5 * dt * k1)
        k3 = L @ (v + 0.5 * dt * k2)
        k4 = L @ (v + dt * k3)
        v = v + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t = step * dt
        if step % record_every == 0 or step == n_steps:
            if not np.all(np.isfinite(v)):
                raise NoConvergence(f"state left the finite range at t = {t:.6g}")
            drift = abs(np.trace(unvectorize(v, d)) - 1.0)
            if not drift <= 1e-9 * max(t, 1.0):
                raise NoConvergence(
                    f"trace drift {drift:.3e} at t = {t:.6g} exceeds 1e-9 per unit time"
                )
            times.append(t)
            states.append(store(v))
            if residual_stop > 0 and np.abs(L @ v).max() <= residual_stop:
                converged = True
                break
    final_residual = float(np.linalg.norm(L @ vectorize(states[-1])))
    return Trajectory(times=np.array(times), states=tuple(states),
                      converged=converged, final_residual=final_residual)


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Half the nuclear norm of a - b; a metric on density matrices."""
    if a.shape != b.shape:
        raise DimensionMismatch(f"shapes {a.shape} and {b.shape} differ")
    return 0.5 * float(np.linalg.svd(a - b, compute_uv=False).sum())
