"""Steady states by constrained linear solve, plus a time-evolution oracle."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateKernel,
    DimensionMismatch,
    NoConvergence,
    NonFiniteState,
    StepTooLarge,
)
from .lindblad import Unknowns, full_unknowns, unvectorize, vectorize

RESIDUAL_TOL = 1e-10


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
    solver noise.
    """

    rho: np.ndarray
    residual: float
    asymmetry: float
    replaced_row: int


def checked_inverse(M: np.ndarray) -> np.ndarray:
    """Inverse of a constrained steady-state system, or DegenerateKernel.

    One LU factorization, ``np.linalg.solve`` against the identity, gives
    the inverse.  The system is rejected when the LU meets an exactly zero
    pivot or when rcond_1 = 1 / (|M|_1 |M^-1|_1) <= m^2 eps.  Since
    |X|_2 <= sqrt(m) |X|_1, rcond_1 <= m rcond_2, so every system that
    ``np.linalg.matrix_rank`` calls rank deficient (rcond_2 <= m eps) is
    rejected as well.
    """
    m = M.shape[0]
    try:
        inverse = np.linalg.solve(M, np.eye(m, dtype=M.dtype))
    except np.linalg.LinAlgError:
        raise DegenerateKernel(
            "constrained system is singular: the steady state is not unique", rcond=0.0
        ) from None
    rcond = 1.0 / (np.abs(M).sum(axis=0).max() * np.abs(inverse).sum(axis=0).max())
    if not rcond > m * m * np.finfo(float).eps:
        raise DegenerateKernel(
            f"constrained system has rcond {rcond:.3e} <= m^2 eps for m = {m}: "
            "the steady state is not unique", rcond=float(rcond))
    return inverse


def solve_steady(L: np.ndarray, check_kernel: bool = True,
                 unknowns: Unknowns = None) -> SteadySolution:
    """Solve L v = 0 with the trace constraint replacing one row.

    ``unknowns`` names the entries of rho that v holds; by default all of
    them, with L the dense d^2 x d^2 generator.  Entries outside the set are
    zero in the returned state, which is exact when L keeps the set
    invariant, as for ``LindbladModel.block``; the kernel check
    (:func:`checked_inverse`) then covers that set only.

    The replaced row is chosen among the rows belonging to diagonal matrix
    elements: trace preservation makes those rows sum to zero, so dropping
    the one with the largest diagonal magnitude never removes an independent
    equation.
    """
    if unknowns is None:
        d2 = L.shape[0]
        d = int(round(np.sqrt(d2)))
        if d * d != d2 or L.shape != (d2, d2):
            raise DimensionMismatch(f"generator shape {L.shape} is not a square over d^2")
        unknowns = full_unknowns(d)
    m = unknowns.size
    if L.shape != (m, m):
        raise DimensionMismatch(f"generator shape {L.shape} does not match {m} unknowns")

    diag = unknowns.diagonal
    replaced = int(diag[np.abs(L[diag, diag]).argmax()])

    M = L.copy()
    M[replaced, :] = 0.0
    M[replaced, diag] = 1.0
    if check_kernel:
        v = checked_inverse(M)[:, replaced]
    else:
        b = np.zeros(m, dtype=complex)
        b[replaced] = 1.0
        v = np.linalg.solve(M, b)
    raw = unknowns.scatter(v)
    asymmetry = float(np.abs(raw - raw.conj().T).max())
    rho = 0.5 * (raw + raw.conj().T)

    scale = max(np.linalg.norm(L), 1.0)
    residual = float(np.linalg.norm(L @ unknowns.gather(rho)))
    if residual > RESIDUAL_TOL * scale:
        raise NoConvergence(
            f"steady-state residual {residual:.3e} exceeds {RESIDUAL_TOL:.1e} * |L|"
        )
    replaced_row = int(unknowns.cols[replaced] * unknowns.dim + unknowns.rows[replaced])
    return SteadySolution(rho=rho, residual=residual, asymmetry=asymmetry,
                          replaced_row=replaced_row)


def steady_state(L: np.ndarray, check_kernel: bool = True) -> np.ndarray:
    """Unique steady state of a trace-preserving generator."""
    return solve_steady(L, check_kernel=check_kernel).rho


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
                raise NonFiniteState(f"state left the finite range at t = {t:.6g}")
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
