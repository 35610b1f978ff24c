"""The steady solve in the real coordinates of a Hermitian rho, against the complex solve."""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from chainflux import DegenerateTransition, apply_axis, chain
from chainflux.generator import (
    coupled_sets,
    full_unknowns,
    real_superoperator,
    superoperator,
)
from chainflux.observables import steady_reports
from chainflux.steady import checked_inverse, solve_steady, unique

from oracles import assemble, block_reports, gather


def seeded_chains():
    for n, count in ((1, 2), (2, 2), (3, 2), (4, 2), (5, 1)):
        rng = np.random.default_rng(600 + n)
        for _ in range(count):
            yield chain(rng.uniform(0.3, 3.0, n), rng.uniform(0.1, 1.5, n - 1),
                        rng.uniform(0.0, 5.0), rng.uniform(0.0, 5.0),
                        rng.uniform(0.1, 2.0), rng.uniform(0.1, 2.0))
    for n in (4, 5):  # degenerate levels: the global frame keeps coherences
        yield chain([1.5] * n, [1.0] * (n - 1), 2.0, 0.5)


CASES = [(spec, approach) for spec in seeded_chains() for approach in ("global", "local")]
IDS = [f"N{spec.n_qubits}-{approach}-{i}" for i, (spec, approach) in enumerate(CASES)]


def coordinates_unitary(unknowns):
    """U with v = U x, entry by entry from the definition of the coordinates."""
    m, s = unknowns.size, np.sqrt(0.5)
    U = np.zeros((m, m), dtype=complex)
    for i, (r, c) in enumerate(zip(unknowns.rows.tolist(), unknowns.cols.tolist())):
        p = unknowns.partner[i]
        assert (unknowns.rows[p], unknowns.cols[p]) == (c, r)
        if r == c:
            U[i, i] = 1.0
        elif r < c:  # rho[r, c] = (x_i + i x_p) / sqrt(2)
            U[i, i], U[i, p] = s, 1j * s
        else:  # rho[r, c] = conj(rho[c, r]) = (x_p - i x_i) / sqrt(2)
            U[i, p], U[i, i] = s, -1j * s
    return U


def complex_solve(L, unknowns):
    """The complex constrained solve on the block: Hermitian part of its state, and its rcond_1."""
    diag = unknowns.diagonal
    replaced = diag[np.abs(L[diag, diag]).argmax()]
    M = L.copy()
    M[replaced] = 0.0
    M[replaced, diag] = 1.0
    inverse, (rcond,) = checked_inverse(M[None])
    raw = np.zeros((unknowns.dim, unknowns.dim), dtype=complex)
    raw[unknowns.rows, unknowns.cols] = inverse[0][:, replaced]
    return 0.5 * (raw + raw.conj().T), rcond


@pytest.mark.parametrize("spec, approach", CASES, ids=IDS)
def test_real_block_is_the_complex_block_in_orthonormal_coordinates(spec, approach):
    model = assemble(spec, approach)
    unknowns, L = model.unknowns, model.block
    U = coordinates_unitary(unknowns)
    assert np.abs(U.conj().T @ U - np.eye(unknowns.size)).max() <= 1e-15
    exact = U.conj().T @ L @ U
    scale = np.abs(L).max()
    assert np.abs(exact.imag).max() <= 1e-13 * scale  # L keeps rho Hermitian
    structure = model.structure
    R = real_superoperator(structure.frame_hamiltonian, structure.operators, structure.decay,
                           model.rates[None], unknowns, structure.start[:1])[0]
    assert R.dtype == float
    assert np.abs(R - exact.real).max() <= 1e-13 * scale
    assert np.abs(unknowns.hermitian(L) - exact.real).max() <= 1e-13 * scale
    assert np.linalg.norm(R) == pytest.approx(np.linalg.norm(L), rel=1e-14)
    x = np.random.default_rng(unknowns.size).normal(size=unknowns.size)
    rho = unknowns.state(x)
    assert np.array_equal(rho, rho.conj().T)
    assert np.abs(gather(unknowns, rho) - U @ x).max() <= 1e-15


def random_pairs(rng, pattern, count):
    """``count`` pairs A, A^dag of random complex operators on the nonzero ``pattern``."""
    shape = (count,) + pattern.shape
    A = (rng.normal(size=shape) + 1j * rng.normal(size=shape)) * pattern
    return np.stack([A, A.conj().swapaxes(1, 2)], axis=1).reshape((2 * count,) + pattern.shape)


@pytest.mark.parametrize("coupled", [False, True])
def test_real_block_of_complex_operators_is_the_oracle_s_and_each_row_s_alone(coupled):
    # the chains' H and operators are complex, so a swap of the factors
    # conj(A[c_i, c_j]) A[r_i, r_j] or of J's two sides moves the block off
    # the diagonal entries; rows of three chains, interleaved, some rates
    # zero.  The coupled set keeps the energy blocks {0, 1, 2} and {3, 4, 5}
    # apart: H within them, the jumps from the upper to the lower
    rng = np.random.default_rng(41 + coupled)
    d, chains, pairs = 6, 3, 2
    blocks = np.arange(d)[:, None] // 3 == np.arange(d) // 3
    jumps = ~blocks & (np.arange(d)[:, None] < np.arange(d)) if coupled else np.ones((d, d))
    H = rng.normal(size=(chains, d, d)) + 1j * rng.normal(size=(chains, d, d))
    H = (H + H.conj().swapaxes(1, 2)) * (blocks if coupled else 1.0)
    operators = random_pairs(rng, jumps, chains * pairs)
    decay = operators.conj().swapaxes(1, 2) @ operators
    rows = np.array([0, 2, 1, 2, 0, 1])
    first, T = 2 * pairs * rows, 2 * pairs
    rates = rng.uniform(0.2, 2.0, (len(rows), T))
    rates[1, 0] = rates[3] = rates[4, 1::2] = 0.0
    if coupled:
        sets = coupled_sets(H[rows], operators, first, np.full(len(rows), T))
        unknowns = sets[0]
        assert all(u is unknowns for u in sets) and unknowns.size == 18
    else:
        unknowns = full_unknowns(d)
    stack = real_superoperator(H[rows], operators, decay, rates, unknowns, first)
    for j, c in enumerate(rows.tolist()):
        alone = real_superoperator(H[[c]], operators, decay, rates[j:j + 1], unknowns,
                                   first[j:j + 1])
        assert stack[j].tobytes() == alone[0].tobytes()
        L = superoperator(H[c], operators[first[j]:first[j] + T], rates[j], unknowns)
        assert np.abs(stack[j] - unknowns.hermitian(L)).max() <= 1e-13 * np.abs(L).max()


@pytest.mark.parametrize("spec, approach", CASES, ids=IDS)
def test_real_coordinate_states_match_the_complex_solves(spec, approach):
    model = assemble(spec, approach)
    (columns,) = steady_reports([spec], (approach,))
    report = columns[0]
    assert np.abs(report.rho - solve_steady(model.liouvillian).rho).max() <= 1e-12
    rho, rcond = complex_solve(model.block, model.unknowns)
    assert np.abs(columns.states([0])[0] - model.to_site(rho)).max() <= 1e-12
    # |X|_1 changes by at most a factor 2 under U or U^dag, so the real and
    # the complex rcond_1 are within a factor 4; measured 0.89-1.44 over
    # 917 systems of random, uniform and benchmark chains.  A local row's
    # rcond is its correlation system's and a global row's on these chains
    # its modes'; the block's is the oracle's.
    block = block_reports([spec], approach)[0]
    assert 0.85 <= block.rcond / rcond <= 1.5


def load_workloads():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_kscan4_par_grids_skip_their_exact_zero_modes_and_solve_the_neighbours(seed):
    workloads = load_workloads()
    ((_, request),) = workloads.build_requests("kscan4_par", seed)
    zeros = workloads.zero_mode_couplings(1.5, 4)
    grid = list(request.grid)
    glob, local = steady_reports([apply_axis(request.base, "k", k) for k in grid],
                                 ("global", "local"))
    assert sorted(glob.errors) == sorted(grid.index(z) for z in zeros)
    assert all(isinstance(error, DegenerateTransition) for error in glob.errors.values())
    assert not local.errors
    for z in zeros:
        for k in (z * (1 - workloads.ZERO_MODE_OFFSET), z * (1 + workloads.ZERO_MODE_OFFSET)):
            i = grid.index(k)
            for columns in (glob, local):
                assert unique(columns.rcond[i], columns.unknowns[i])
