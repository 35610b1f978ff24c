import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import chainflux
from chainflux import (
    DegenerateKernel,
    DimensionMismatch,
    NoConvergence,
    chain,
    dimer,
    monomer,
    monomer_population_analytic,
    site_operator,
    steady_report,
)
from chainflux.generator import unvectorize, vectorize
from chainflux.lindblad import thermal_dissipator
from chainflux.observables import qubit_population
from chainflux.steady import checked_inverse, solve_steady, uniqueness_error

from oracles import StepTooLarge, assemble, check_density_matrix, evolve_rk4, trace_distance


def test_steady_state_is_a_density_matrix_with_small_residual():
    rng = np.random.default_rng(101)
    for _ in range(15):
        n = int(rng.choice([1, 2, 3]))
        spec = chain(rng.uniform(0.3, 3.0, n), rng.uniform(0.1, 1.5, max(n - 1, 0)),
                     rng.uniform(0.0, 8.0), rng.uniform(0.0, 8.0))
        approach = "global" if rng.random() < 0.5 else "local"
        model = assemble(spec, approach)
        sol = solve_steady(model.liouvillian)
        check_density_matrix(sol.rho)
        assert sol.residual <= 1e-10 * max(1.0, np.linalg.norm(model.liouvillian))
        assert np.array_equal(sol.rho, sol.rho.conj().T)  # Hermitian by construction


def test_generator_that_breaks_hermiticity_raises_no_convergence():
    # d rho_01 / dt gains eps * rho_00 and d rho_10 / dt does not: trace is
    # still preserved, but the kernel is no longer Hermitian, so the
    # Hermitian solve leaves a residual against the complex L
    L = assemble(dimer(1.5, 1.1, 0.8, 2.0, 0.4), "local").liouvillian
    assert solve_steady(L).residual <= 1e-14
    broken = L.copy()
    broken[1 * 4 + 0, 0] += 1e-3
    with pytest.raises(NoConvergence):
        solve_steady(broken)
    with pytest.raises(NoConvergence):
        solve_steady(np.array([L, broken]))


def test_monomer_population_equals_analytic():
    rng = np.random.default_rng(5)
    for _ in range(25):
        eps = rng.uniform(0.2, 5.0)
        t1, t2 = rng.uniform(0.0, 10.0, 2)
        rho = solve_steady(assemble(monomer(eps, t1, t2), "global").liouvillian).rho
        assert qubit_population(rho, 0) == pytest.approx(
            monomer_population_analytic(eps, t1, t2), abs=1e-10)


def random_unitary(rng, m):
    q, r = np.linalg.qr(rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


@pytest.mark.parametrize("m", [2, 6, 20, 36, 70, 252])
def test_uniqueness_check_rejects_what_matrix_rank_rejects(m):
    # systems with singular values spread from 1 down to rcond_2; the LU
    # check must reject every one the SVD rank test rejects, and rcond_1 >=
    # rcond_2 / m keeps it from rejecting the well-conditioned end
    rng = np.random.default_rng(1000 + m)
    rejected_by_rank = 0
    for rcond in np.logspace(-20, -8, 25):
        s = np.logspace(0.0, np.log10(rcond), m)
        M = (random_unitary(rng, m) * s) @ random_unitary(rng, m).conj().T
        _, (found,) = checked_inverse(M[None])
        if np.linalg.matrix_rank(M) < m:
            rejected_by_rank += 1
            assert isinstance(uniqueness_error(found, m), DegenerateKernel)
        elif rcond >= m**3 * np.finfo(float).eps * 10:
            assert uniqueness_error(found, m) is None
    assert rejected_by_rank >= 10


def test_non_unique_chain_steady_state_raises():
    # at eps = 1.5, K = 3 the global N = 5 generator has two dense singular
    # values below 1e-15: two steady states
    with pytest.raises(DegenerateKernel):
        steady_report(chain([1.5] * 5, [3.0] * 4, 1.0, 0.5), "global")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("t1", [1e100, 1e160, 1e200])
def test_the_hot_local_dimer_is_a_typed_degenerate_kernel_without_an_overflow(t1):
    # the dense oracle's raw rcond_1 falls like 1 / T1; its residual norms
    # square entries near T1, which overflowed from T1 ~ 1e154 on before
    # they were scaled by a power of two
    with pytest.raises(DegenerateKernel, match=r"rcond 3\.750e-"):
        solve_steady(assemble(dimer(1.5, 1.5, 1.0, t1, 0.0), "local").liouvillian)


def test_degenerate_kernel_detected():
    # pure dephasing keeps every diagonal state fixed: kernel dimension 2
    sz = site_operator(1, 0, "z")
    L = thermal_dissipator(sz, 1.0, 0.0)
    with pytest.raises(DegenerateKernel):
        solve_steady(L)


def test_rk4_constant_for_zero_generator():
    rho0 = np.diag([0.3, 0.7]).astype(complex)
    traj = evolve_rk4(np.zeros((4, 4), dtype=complex), rho0, dt=0.1, t_end=1.0)
    assert np.abs(traj.final - rho0).max() <= 1e-14
    assert traj.final_residual == 0.0


def test_rk4_step_guard():
    L = np.eye(4, dtype=complex) * 100.0
    with pytest.raises(StepTooLarge):
        evolve_rk4(L, np.eye(2, dtype=complex) / 2, dt=0.1, t_end=1.0)
    with pytest.raises(StepTooLarge):
        evolve_rk4(L, np.eye(2, dtype=complex) / 2, dt=0.0, t_end=1.0)


def test_rk4_trace_drift_raises_typed_error():
    # uniform decay of every entry: not trace preserving
    L = -0.1 * np.eye(4, dtype=complex)
    with pytest.raises(NoConvergence, match="trace drift"):
        evolve_rk4(L, np.eye(2, dtype=complex) / 2, dt=0.01, t_end=1.0)


def test_rk4_trace_drift_raises_under_python_O():
    # the check must not be an assert, which python -O strips
    check = (
        "import sys\n"
        "import numpy as np\n"
        "from chainflux import NoConvergence\n"
        "from oracles import evolve_rk4\n"
        "if not sys.flags.optimize:\n"
        "    raise SystemExit(3)\n"
        "try:\n"
        "    evolve_rk4(-0.1 * np.eye(4, dtype=complex), np.eye(2, dtype=complex) / 2,\n"
        "               dt=0.01, t_end=1.0)\n"
        "except NoConvergence:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit(4)\n"
    )
    paths = (Path(chainflux.__file__).resolve().parents[1], Path(__file__).resolve().parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(map(str, paths)))
    result = subprocess.run([sys.executable, "-O", "-c", check], env=env,
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def test_package_holds_no_assert_statement():
    # python -O strips assert statements: every check must raise a typed error
    found = []
    for path in sorted(Path(chainflux.__file__).resolve().parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"assert statements in chainflux: {', '.join(found)}"


def test_rk4_reproduces_two_level_decay():
    g1, g2 = 0.8, 0.5
    spec = monomer(1.0, 0.0, 0.0, g1, g2)
    model = assemble(spec, "local")
    excited = np.diag([1.0, 0.0]).astype(complex)
    traj = evolve_rk4(model.liouvillian, excited, dt=5e-4, t_end=3.0, record_every=200)
    for t, rho in zip(traj.times, traj.states):
        expected = np.exp(-(g1 + g2) * t)
        assert qubit_population(rho, 0) == pytest.approx(expected, abs=1e-6)


def test_rk4_endpoint_agrees_with_steady_state():
    spec = dimer(1.5, 1.1, 0.8, 2.0, 0.4)
    for approach in ("global", "local"):
        model = assemble(spec, approach)
        rho_ss = solve_steady(model.liouvillian).rho
        dt = 0.05 / np.abs(model.liouvillian).max()
        traj = evolve_rk4(model.liouvillian, np.eye(4, dtype=complex) / 4,
                          dt=dt, t_end=300.0, residual_stop=1e-9)
        assert traj.converged
        assert trace_distance(rho_ss, traj.final) <= 1e-6


def test_trace_distance_examples():
    up = np.diag([1.0, 0.0]).astype(complex)
    down = np.diag([0.0, 1.0]).astype(complex)
    mixed = np.eye(2, dtype=complex) / 2
    assert trace_distance(up, up) == 0.0
    assert trace_distance(up, down) == pytest.approx(1.0, abs=1e-12)
    assert trace_distance(mixed, down) == pytest.approx(0.5, abs=1e-12)
    with pytest.raises(DimensionMismatch):
        trace_distance(up, np.eye(4, dtype=complex) / 4)


def test_check_density_matrix_rejects_bad_states():
    with pytest.raises(ValueError):
        check_density_matrix(np.array([[0.5, 0.1], [0.3, 0.5]], dtype=complex))
    with pytest.raises(ValueError):
        check_density_matrix(np.eye(2, dtype=complex))
    with pytest.raises(ValueError):
        check_density_matrix(np.diag([1.5, -0.5]).astype(complex))


def test_steady_state_positive_over_figure_grids():
    for eps in (1.5, 1.001, 2.5, 10.0):
        for t1 in np.logspace(-2, 2, 50):
            spec = dimer(eps, eps, 1.0, t1, 0.0)
            for approach in ("global", "local"):
                rho = solve_steady(assemble(spec, approach).liouvillian).rho
                assert np.linalg.eigvalsh(rho).min() >= -1e-8


def test_vectorization_round_trip():
    rng = np.random.default_rng(2)
    rho = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    assert np.array_equal(unvectorize(vectorize(rho), 4), rho)
