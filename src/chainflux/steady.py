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

    ``asymmetry`` is the Hermiticity defect of the raw solution before
    symmetrization; a large value points at a construction bug rather than
    solver noise.  ``rcond`` is the 1-norm reciprocal condition number of
    the constrained system (:func:`checked_inverse`) and ``unknowns`` the
    number of entries of rho solved for.  For a stack of generators every
    field but ``unknowns`` has the stack's leading axis.
    """

    rho: np.ndarray
    residual: float
    asymmetry: float
    replaced_row: int
    rcond: float
    unknowns: int


def uniqueness_error(rcond: float, m: int):
    """The DegenerateKernel of a system of m unknowns with this rcond_1, or None if it is unique.

    A system is rejected when rcond_1 <= m^2 eps, or when its LU met an
    exactly zero pivot (rcond 0).
    """
    if rcond > m * m * _EPS:
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
    inverse, one LU factorization per system.  A system whose LU meets an
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


def solve_steady(L: np.ndarray, unknowns: Unknowns = None) -> SteadySolution:
    """Solve L v = 0 with the trace constraint replacing one row.

    ``L`` is one m x m generator or a (k, m, m) stack of them, all on the
    same ``unknowns``: the entries of rho that v holds, by default all of
    them, with L the dense d^2 x d^2 generator.  Entries outside the set are
    zero in the returned state, which is exact when L keeps the set
    invariant, as for ``LindbladModel.block``; the uniqueness check
    (:func:`checked_inverse`), which always runs, then covers that set only.
    One generator whose steady state is not unique raises DegenerateKernel;
    in a stack, such a row gets a zero rho and its ``rcond`` tells it apart
    (:func:`uniqueness_error`).  A residual above RESIDUAL_TOL * |L| raises
    NoConvergence.  The whole stack is solved by one stacked LAPACK call, so
    callers keep stacks small (the sweep's hold at most ``_GRID_ELEMENTS``
    block elements).

    The replaced row is chosen per generator among the rows belonging to
    diagonal matrix elements: trace preservation makes those rows sum to
    zero, so dropping the one with the largest diagonal magnitude never
    removes an independent equation.
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

    k = len(stack)
    rows = np.arange(k)
    diag = unknowns.diagonal
    replaced = diag[np.abs(stack[:, diag, diag]).argmax(axis=1)]

    M = stack.copy()
    M[rows, replaced] = 0.0
    M[rows[:, None], replaced[:, None], diag] = 1.0
    inverse, rcond = checked_inverse(M)
    unique = np.array([uniqueness_error(r, m) is None for r in rcond.tolist()])
    raw = np.zeros((k, unknowns.dim, unknowns.dim), dtype=complex)
    raw[:, unknowns.rows, unknowns.cols] = np.where(unique[:, None], inverse[rows, :, replaced], 0)
    adjoint = raw.conj().swapaxes(1, 2)
    asymmetry = np.abs(raw - adjoint).max(axis=(1, 2))
    rho = 0.5 * (raw + adjoint)

    scale = np.maximum(np.linalg.norm(stack, axis=(1, 2)), 1.0)
    residual = np.linalg.norm(stack @ rho[:, unknowns.rows, unknowns.cols, None], axis=(1, 2))
    worst = int((residual / scale).argmax())
    if residual[worst] > RESIDUAL_TOL * scale[worst]:
        raise NoConvergence(
            f"steady-state residual {residual[worst]:.3e} exceeds {RESIDUAL_TOL:.1e} * |L|"
        )
    replaced_row = unknowns.cols[replaced] * unknowns.dim + unknowns.rows[replaced]
    if not single:
        return SteadySolution(rho=rho, residual=residual, asymmetry=asymmetry,
                              replaced_row=replaced_row, rcond=rcond, unknowns=m)
    error = uniqueness_error(rcond[0], m)
    if error is not None:
        raise error
    return SteadySolution(rho=rho[0], residual=float(residual[0]), asymmetry=float(asymmetry[0]),
                          replaced_row=int(replaced_row[0]), rcond=float(rcond[0]), unknowns=m)


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
