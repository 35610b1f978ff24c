"""The fixed work of one sweep request: one joined residual pass, no numpy set or gather helpers.

Both approaches' solved stacks hand their residual inputs to one pass
(``observables._ResidualPass``), which evaluates
``correlations._gaussian_residuals`` and ``correlations._generator_norms``
once for as many stacks as fit in one; each row keeps the bits a call on
its own stack gives.  The request path calls no ``np.linalg.solve``, and
the mode Fock diagonals no ``np.linalg.det``.
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest

import chainflux.correlations
import chainflux.model
import chainflux.observables
from chainflux import apply_axis, chain, emit_csv, figure_requests, parse_config, run_sweep
from chainflux.model import conventions_fingerprint
from chainflux.observables import steady_reports
from chainflux.sweep import SweepRequest

from test_structure_cache import GRID, temperature_chains

REPO = Path(__file__).resolve().parent.parent
SOLVERS = ("global_steady_states", "group_steady_states", "quadratic_steady_states")


def n5_t1_request():
    """Two T1 points of the uniform N = 5 chain under both approaches, as the chain5_t1 workload."""
    return SweepRequest(base=chain([1.5] * 5, [1.0] * 4, t1=1.0, t2=0.0), axis="t1",
                        grid=(0.5, 2.0), approaches=("global", "local"),
                        outputs=("populations", "heat_flux"))


def record_residual_pass(monkeypatch):
    """The solver and residual inputs of each solved stack, and the outputs of each joined call."""
    stacks, joined = [], {"_gaussian_residuals": [], "_generator_norms": []}
    for name in SOLVERS:
        def solver(*args, _real=getattr(chainflux.observables, name), _name=name):
            out = _real(*args)
            stacks.append((_name, out[-1]))
            return out

        monkeypatch.setattr(chainflux.observables, name, solver)
    for name, outputs in joined.items():
        def joined_call(*args, _real=getattr(chainflux.correlations, name), _outputs=outputs):
            _outputs.append(_real(*args))
            return _outputs[-1]

        monkeypatch.setattr(chainflux.correlations, name, joined_call)
    return stacks, joined


def test_a_two_point_n5_request_makes_one_residual_call_and_one_norm_call(monkeypatch):
    stacks, joined = record_residual_pass(monkeypatch)
    table = run_sweep(n5_t1_request())
    assert len(table.rows) == 4 and not table.skipped
    assert len(stacks) == 2  # one stack per approach
    assert [len(out) for out in joined["_gaussian_residuals"]] == [4]
    assert [len(out) for out in joined["_generator_norms"]] == [4]


def raising(name):
    def refuse(*args, **kwargs):
        raise AssertionError(f"numpy.{name} on the request path")

    return refuse


def request_path_requests():
    yield "n5_t1", n5_t1_request()
    yield "kscan4", parse_config((REPO / "configs" / "kscan4.cfg").read_text())
    yield "figure2", figure_requests()["figure2"]


@pytest.mark.parametrize("name, request_", list(request_path_requests()),
                         ids=[name for name, _ in request_path_requests()])
def test_the_request_path_calls_no_numpy_set_or_gather_helper(name, request_, monkeypatch,
                                                               tmp_path):
    for helper in ("isin", "unique", "take_along_axis", "append"):
        monkeypatch.setattr(np, helper, raising(helper))
    monkeypatch.setattr(np.linalg, "solve", raising("linalg.solve"))
    emit_csv(run_sweep(request_), tmp_path / "refused.csv")
    monkeypatch.undo()
    emit_csv(run_sweep(request_), tmp_path / "free.csv")
    assert (tmp_path / "refused.csv").read_bytes() == (tmp_path / "free.csv").read_bytes()


def test_the_mode_fock_diagonals_take_no_determinant(monkeypatch):
    request = parse_config((REPO / "configs" / "kscan4.cfg").read_text())
    specs = [apply_axis(request.base, request.axis, value) for value in request.grid]
    calls = []

    def det(*args, _real=np.linalg.det):
        calls.append(args)
        return _real(*args)

    for results in steady_reports(specs, request.approaches):
        rows = np.array([i for i in range(len(specs)) if i not in results.errors])
        monkeypatch.setattr(np.linalg, "det", det)
        diagonals = results.rho_diagonals(rows)
        monkeypatch.undo()
        assert diagonals.shape == (len(rows), 2**request.base.n_qubits)
        assert np.abs(diagonals.sum(axis=1) - 1.0).max() <= 1e-14
    assert calls == []


def join_requests():
    # N = 1..5 chains under both approaches, with and without a shared bin
    for n in range(1, 6):
        for i, (epsilons, couplings, _) in enumerate(temperature_chains(n)):
            base = chain(epsilons, couplings, 0.7, 0.2, 0.8, 1.3)
            yield f"N{n}-{i}", SweepRequest(base=base, axis="t1", grid=GRID,
                                            approaches=("global", "local"),
                                            outputs=("populations", "heat_flux"))
    # a hole-frame row, hot global rows and rows out to T1 = 1e300
    yield "kscan4", parse_config((REPO / "configs" / "kscan4.cfg").read_text())
    yield "figure3a", figure_requests()["figure3a"]
    yield "hot2", parse_config((REPO / "configs" / "hot2.cfg").read_text())
    # more N = 5 rows of either approach than one joined call holds
    yield "n5-long", SweepRequest(base=chain([1.5] * 5, [1.0] * 4, 1.0, 0.0), axis="t1",
                                  grid=tuple(np.geomspace(0.1, 10.0, 700).tolist()),
                                  approaches=("global", "local"), outputs=("heat_flux",))


@pytest.mark.parametrize("name, request_", list(join_requests()),
                         ids=[name for name, _ in join_requests()])
def test_the_joined_residual_pass_keeps_every_bit(name, request_, monkeypatch):
    residuals = chainflux.correlations._gaussian_residuals
    norms = chainflux.correlations._generator_norms
    stacks, joined = record_residual_pass(monkeypatch)
    table = run_sweep(request_)
    assert stacks and all(len(outputs) >= 1 for outputs in joined.values())
    apart = np.concatenate([residuals(*inputs[:3]) for _, inputs in stacks])
    assert np.array_equal(np.concatenate(joined["_gaussian_residuals"]), apart)
    apart = np.concatenate([norms(*inputs[3:]) for _, inputs in stacks])
    assert np.array_equal(np.concatenate(joined["_generator_norms"]), apart)
    # no joined call holds more than one stack of N x N matrices
    n = request_.base.n_qubits
    limit = max(1, chainflux.observables._GRID_ELEMENTS // (n * n))
    assert max(len(out) for out in joined["_gaussian_residuals"]) <= limit
    assert len(table.rows) == len(request_.approaches) * len(request_.grid) - len(table.skipped)
    solvers = {solver for solver, _ in stacks}
    assert solvers >= {"quadratic_steady_states"}
    if name == "kscan4":
        assert solvers == set(SOLVERS)
    if name == "n5-long":
        assert len(joined["_gaussian_residuals"]) > 2


def test_the_conventions_fingerprint_is_the_hash_of_their_text():
    text = chainflux.model._CONVENTIONS_TEXT
    assert conventions_fingerprint() == hashlib.sha256(text.encode()).hexdigest()[:12]
