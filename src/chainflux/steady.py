"""Steady states by constrained linear solve in the real coordinates of a Hermitian matrix.

The sweep solves stacks of N^2 correlation systems (:func:`stacked_inverse`,
:func:`unique`), and its rows' residuals are judged against RESIDUAL_TOL
(:func:`chainflux.observables.chain_reports`).  :func:`solve_steady` takes
dense d^2 x d^2 generators, for the oracles of the tests, and stays because
the benchmark harness (``perfbench/tracing.py``) binds it by name; its body
:func:`solve_hermitian`, with its own residual check (:func:`check_residual`),
also solves a subset of the entries of rho, in real coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DegenerateKernel, DimensionMismatch, NoConvergence
from .generator import Unknowns, full_unknowns

RESIDUAL_TOL = 1e-10

_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class SteadySolution:
    """Steady state with solver diagnostics.

    ``rho`` is Hermitian by construction: it is solved for in the real
    coordinates of a Hermitian matrix on the unknowns
    (:class:`~chainflux.generator.Unknowns`).  ``residual`` is |L v| for
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


def stacked_inverse(M: np.ndarray) -> tuple:
    """Inverse of each system of a (k, m, m) stack, and whether its LU met an exactly zero pivot.

    One stacked ``np.linalg.solve`` against the identity gives every
    inverse, one LU factorization per system; the solves pass real
    systems, in the coordinates of a Hermitian rho, and any dtype works.
    A system whose LU meets an exactly zero pivot makes numpy reject the
    whole stack; the stack is then solved system by system, and only such
    a system gets a zero inverse and is marked singular.
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
    return inverse, singular


def checked_inverse(M: np.ndarray) -> tuple:
    """Inverse and rcond_1 of each constrained steady-state system of a (k, m, m) stack.

    The inverses are :func:`stacked_inverse`'s.  numpy gives no access to
    the LU factors, so |M^-1|_1 is read off the explicit inverse rather
    than estimated.  rcond_1 = 1 / (|M|_1 |M^-1|_1), 0 for a singular
    system; :func:`uniqueness_error` rejects a system when it is <= m^2
    eps.  Since |X|_2 <= sqrt(m) |X|_1, rcond_1 <= m rcond_2, so every
    system that ``np.linalg.matrix_rank`` calls rank deficient (rcond_2 <=
    m eps) is rejected as well.
    """
    inverse, singular = stacked_inverse(M)
    norms = np.abs(M).sum(axis=1).max(axis=1) * np.abs(inverse).sum(axis=1).max(axis=1)
    rcond = np.zeros(len(M))
    np.divide(1.0, norms, out=rcond, where=~singular)
    return inverse, rcond


def check_residual(L: np.ndarray, v: np.ndarray) -> np.ndarray:
    """|L v| of each system of a (k, m, m) stack at its v (k, m, 1), checked against |L|.

    Raises NoConvergence where |L v| is NaN, as an overflow leaves, or above RESIDUAL_TOL *
    max(|L|, 1).  Each norm scales its matrix by the normal power of two of its max |entry|.
    """
    norms = []
    for A in (L @ v, L):
        e = np.clip(np.frexp(np.abs(A).max(axis=(1, 2)))[1], -1021, 1021)
        norms.append(np.ldexp(np.linalg.norm(A * np.ldexp(1.0, -e)[:, None, None], axis=(1, 2)), e))
    residual, scale = norms[0], np.maximum(norms[1], 1.0)
    worst = int((residual / scale).argmax())
    if not residual[worst] <= RESIDUAL_TOL * scale[worst]:
        raise NoConvergence(
            f"steady-state residual {residual[worst]:.3e} exceeds {RESIDUAL_TOL:.1e} * |L|"
        )
    return residual


def solve_hermitian(R: np.ndarray, unknowns: Unknowns) -> SteadySolution:
    """Steady states of a (k, m, m) stack of real blocks in the coordinates of a Hermitian rho.

    ``R`` is U^dag L U on ``unknowns`` (:class:`~chainflux.generator.Unknowns`),
    as :meth:`~chainflux.generator.Unknowns.hermitian` builds it.  The trace
    constraint replaces one row per block, chosen among the rows of
    diagonal entries: trace preservation makes those rows sum to zero, so
    dropping the one with the largest diagonal magnitude never removes an
    independent equation.  One stacked real ``np.linalg.solve`` gives every
    state and rcond_1 (:func:`checked_inverse`), and rho is rebuilt
    Hermitian from its coordinates x.  A row whose steady state is not
    unique gets a zero rho and its ``rcond`` tells it apart
    (:func:`uniqueness_error`).  The residual is |R x| against |R|, which
    are |L v| and |L| since U is unitary; one above RESIDUAL_TOL times its
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
    residual = check_residual(R, x[..., None])
    replaced_row = unknowns.cols[replaced] * unknowns.dim + unknowns.rows[replaced]
    return SteadySolution(rho=rho, residual=residual, replaced_row=replaced_row, rcond=rcond,
                          unknowns=m)


def solve_steady(L: np.ndarray) -> SteadySolution:
    """Solve L v = 0 with the trace constraint replacing one row.

    ``L`` is one dense d^2 x d^2 generator or a (k, d^2, d^2) stack of
    them, mapped to the real coordinates of a Hermitian rho on every entry
    and solved there by :func:`solve_hermitian`, with the residual taken
    against the complex L itself, so a generator that does not keep rho
    Hermitian leaves a residual and is not solved.  One generator whose
    steady state is not unique raises DegenerateKernel; in a stack, such a
    row gets a zero rho and its ``rcond`` tells it apart
    (:func:`uniqueness_error`).  A residual above RESIDUAL_TOL * |L| raises
    NoConvergence.  The whole stack is solved by one stacked LAPACK call, so
    callers keep stacks small.
    """
    single = L.ndim == 2
    stack = L[None] if single else L
    d2 = stack.shape[-1]
    d = int(round(np.sqrt(d2)))
    if d * d != d2 or stack.shape[1] != d2:
        raise DimensionMismatch(f"generator shape {L.shape} is not d^2 x d^2")
    unknowns = full_unknowns(d)
    sol = solve_hermitian(unknowns.hermitian(stack), unknowns)
    residual = check_residual(stack, sol.rho[:, unknowns.rows, unknowns.cols, None])
    if not single:
        return replace(sol, residual=residual)
    error = uniqueness_error(sol.rcond[0], d2)
    if error is not None:
        raise error
    return SteadySolution(rho=sol.rho[0], residual=float(residual[0]),
                          replaced_row=int(sol.replaced_row[0]), rcond=float(sol.rcond[0]),
                          unknowns=d2)
