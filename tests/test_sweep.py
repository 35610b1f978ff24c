import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from chainflux import (
    ConfigSyntaxError,
    DegenerateKernel,
    DegenerateTransition,
    NoConvergence,
    SpecError,
    SpecInvalid,
    UnknownKey,
    WorkerFailed,
    apply_axis,
    chain,
    dimer,
    emit_csv,
    figure_requests,
    format_config,
    parse_config,
    read_csv_table,
    run_sweep,
    steady_report,
)
from chainflux._version import __version__
from chainflux.cli import cli_main
from chainflux.model import BathSpec, conventions_fingerprint, validate_spec
from chainflux.sweep import SweepRequest, SweepTable

REPO = Path(__file__).resolve().parent.parent


def small_request(**overrides):
    base = dimer(1.5, 1.5, 1.0, 0.01, 0.0)
    defaults = dict(base=base, axis="t1", grid=(0.5, 1.0, 2.0),
                    approaches=("global", "local"),
                    outputs=("populations", "heat_flux"))
    defaults.update(overrides)
    return SweepRequest(**defaults)


# ------------------------------------------------------------- parsing


def test_parse_shipped_figure2_config():
    req = parse_config((REPO / "configs" / "figure2.cfg").read_text())
    assert req.base.n_qubits == 2
    assert req.base.epsilons == (1.5, 1.5)
    assert req.base.couplings == (1.0,)
    assert req.base.baths[1].temperature == 0.0
    assert req.axis == "t1"
    assert len(req.grid) == 50
    assert req.grid[0] == pytest.approx(0.01)
    assert req.grid[-1] == pytest.approx(20.0)
    assert req.approaches == ("global", "local")


def test_parse_empty_config_lists_missing_keys():
    with pytest.raises(ConfigSyntaxError, match="missing required keys"):
        parse_config("")


def test_parse_rejects_nonpositive_gap():
    text = "n_qubits = 1\nepsilon = -1\nt1 = 1\nt2 = 0\naxis = t1\ngrid = 1, 2\n"
    with pytest.raises(SpecInvalid, match="NonPositiveGap"):
        parse_config(text)


def test_parse_rejects_nan_grid_point():
    # NaN passes the strictly-increasing check; validation must still reject it
    text = "n_qubits = 1\nepsilon = 1\nt1 = 1\nt2 = 0\naxis = t1\ngrid = 0.5, nan, 2\n"
    with pytest.raises(SpecInvalid, match="must be finite"):
        parse_config(text)


def test_parse_rejects_unknown_key_with_line_number():
    with pytest.raises(UnknownKey) as excinfo:
        parse_config("n_qubits = 1\nbogus = 3\n")
    assert excinfo.value.line == 2


def test_parse_rejects_malformed_line():
    with pytest.raises(ConfigSyntaxError) as excinfo:
        parse_config("n_qubits = 1\njust some words\n")
    assert excinfo.value.line == 2


def test_parse_rejects_duplicates_and_conflicts():
    with pytest.raises(ConfigSyntaxError, match="duplicate"):
        parse_config("n_qubits = 1\nn_qubits = 2\n")
    text = ("n_qubits = 1\nepsilon = 1\nepsilons = 1\n"
            "t1 = 1\nt2 = 0\naxis = t1\ngrid = 1\n")
    with pytest.raises(ConfigSyntaxError, match="not both"):
        parse_config(text)


def test_parse_rejects_bad_grid():
    head = "n_qubits = 1\nepsilon = 1\nt1 = 1\nt2 = 0\naxis = t1\n"
    with pytest.raises(ConfigSyntaxError, match="increasing"):
        parse_config(head + "grid = 2, 1\n")
    with pytest.raises(ConfigSyntaxError, match="at least one"):
        parse_config(head + "grid = linspace:0:1:0\n")


def test_parse_rejects_invalid_grid_point():
    text = "n_qubits = 1\nepsilon = 1\nt1 = 1\nt2 = 0\naxis = eps\ngrid = -1, 1\n"
    with pytest.raises(SpecInvalid):
        parse_config(text)


def test_parse_grid_descriptors():
    head = "n_qubits = 1\nepsilon = 1\nt1 = 1\nt2 = 0\naxis = t1\n"
    lin = parse_config(head + "grid = linspace:0:2:5\n")
    assert lin.grid == pytest.approx((0.0, 0.5, 1.0, 1.5, 2.0))
    log = parse_config(head + "grid = logspace:0.01:100:5\n")
    assert log.grid == pytest.approx(tuple(np.logspace(-2, 2, 5)))


def test_config_round_trip_is_bit_exact():
    base = dimer(1.5, 0.30000000000000004, 1.1, 2.7, 0.1, gamma1=0.25, gamma2=1.75)
    req = SweepRequest(base=base, axis="k", grid=(0.1, 0.2, 0.30000000000000004),
                       approaches=("local",), outputs=("heat_flux",))
    again = parse_config(format_config(req))
    assert again == req


# -------------------------------------------------------------- running


def test_apply_axis_each_parameter():
    spec = dimer(1.5, 1.5, 1.0, 2.0, 0.5)
    assert apply_axis(spec, "t1", 4.0).baths[0].temperature == 4.0
    assert apply_axis(spec, "t2", 4.0).baths[1].temperature == 4.0
    assert apply_axis(spec, "k", 2.5).couplings == (2.5,)
    assert apply_axis(spec, "eps", 2.5).epsilons == (2.5, 2.5)


def test_single_point_equal_temperatures_gives_zero_flux():
    base = dimer(1.5, 1.5, 1.0, 1.0, 1.0)
    req = small_request(base=base, grid=(1.0,), axis="t1")
    table = run_sweep(req)
    assert len(table.rows) == 2
    for row in table.rows:
        assert abs(row.fluxes[0]) <= 1e-10
        assert abs(row.fluxes[1]) <= 1e-10
        assert row.residual <= 1e-9


def test_rows_sorted_by_approach_then_axis():
    table = run_sweep(small_request())
    keys = [(row.approach, row.axis_value) for row in table.rows]
    assert keys == sorted(keys)


def test_degenerate_point_is_skipped_not_fatal():
    # sweeping the coupling through the gap degenerates the eigenbasis route
    req = small_request(axis="k", grid=(0.5, 1.5, 2.5))
    table = run_sweep(req)
    assert len(table.skipped) == 1
    skip = table.skipped[0]
    assert skip.approach == "global"
    assert skip.axis_value == 1.5
    assert "degenerate-transition" in skip.reason
    assert sum(1 for r in table.rows if r.approach == "global") == 2
    assert sum(1 for r in table.rows if r.approach == "local") == 3


def test_non_unique_steady_state_is_skipped_not_fatal(tmp_path):
    # the global N = 5 chain at eps = 1.5, K = 3 has two steady states
    req = SweepRequest(base=chain([1.5] * 5, [1.0] * 4, 1.0, 0.5), axis="k",
                       grid=(2.9, 3.0, 3.1), approaches=("global",),
                       outputs=("heat_flux",))
    table = run_sweep(req)
    assert [r.axis_value for r in table.rows] == [2.9, 3.1]
    assert [(s.axis_value, s.approach) for s in table.skipped] == [(3.0, "global")]
    assert table.skipped[0].reason.startswith("degenerate-kernel (rcond = ")
    path = tmp_path / "k.csv"
    emit_csv(table, path)
    metadata, _, _ = read_csv_table(path)
    assert any(line.startswith("# skipped: degenerate-kernel") and "k=3 " in line
               for line in metadata)


def test_non_unique_temperature_sweep_skips_every_global_row():
    # eps = 1.5, K = 3 keeps the global N = 5 steady state non-unique at every
    # temperature: each row of the stack is its own skip, the local rows solve
    grid = (0.3, 1.0, 2.5)
    req = SweepRequest(base=chain([1.5] * 5, [3.0] * 4, 1.0, 0.5), axis="t1", grid=grid,
                       approaches=("global", "local"), outputs=("heat_flux",))
    table = run_sweep(req)
    assert [(s.axis_value, s.approach) for s in table.skipped] == [(t, "global") for t in grid]
    assert all(s.reason.startswith("degenerate-kernel (rcond = ") for s in table.skipped)
    assert [(r.axis_value, r.approach) for r in table.rows] == [(t, "local") for t in grid]


def test_invalid_grid_point_raises_without_parse_config():
    # a request built by hand is validated by run_sweep itself
    for axis, grid in (("t1", (0.5, -1.0)), ("eps", (1.0, 0.0)), ("k", (1.0, math.nan))):
        with pytest.raises(SpecError):
            run_sweep(small_request(axis=axis, grid=grid))


def test_each_grid_point_is_validated_once(monkeypatch):
    # the fields no grid point changes are validated once per sweep, and each
    # grid value once, against its own field's rule
    import chainflux.sweep

    checked, validated = [], []

    def checking(spec, axis, value, _real=chainflux.sweep.apply_axis):
        checked.append(value)
        return _real(spec, axis, value)

    def validating(spec, _real=chainflux.sweep.validate_spec):
        validated.append(spec)
        return _real(spec)

    monkeypatch.setattr(chainflux.sweep, "apply_axis", checking)
    monkeypatch.setattr(chainflux.sweep, "validate_spec", validating)
    grid = (0.5, 1.0, 2.0, 4.0)
    run_sweep(small_request(grid=grid))
    assert checked == list(grid)
    assert len(validated) == 1


def point_spec(base, axis, value):
    """``base`` with the swept field set to ``value``, not validated."""
    if axis in ("t1", "t2"):
        baths = list(base.baths)
        j = int(axis == "t2")
        baths[j] = BathSpec(value, baths[j].gamma, baths[j].attached_site)
        return replace(base, baths=tuple(baths))
    if axis == "k":
        return replace(base, couplings=(value,) * len(base.couplings))
    return replace(base, epsilons=(value,) * base.n_qubits)


def raised(call, *args):
    with pytest.raises(SpecError) as info:
        call(*args)
    return type(info.value), str(info.value), info.value.violations


@pytest.mark.parametrize("position", [0, 2, 4])
@pytest.mark.parametrize("axis, bad", [("t1", -1.0), ("t1", math.nan), ("t2", math.inf),
                                       ("eps", 0.0), ("eps", -math.inf), ("k", math.nan)])
def test_an_invalid_grid_value_fails_as_validate_spec_on_its_spec(axis, bad, position):
    base = chain([1.5] * 3, [1.0] * 2, 1.0, 0.5)
    grid = [0.5, 1.0, 1.5, 2.0]
    grid.insert(position, bad)
    request = SweepRequest(base=base, axis=axis, grid=tuple(grid), approaches=("local",),
                           outputs=("populations",))
    assert raised(run_sweep, request) == raised(validate_spec, point_spec(base, axis, bad))


def test_an_invalid_base_fails_as_validate_spec_on_its_first_point():
    base = replace(chain([1.5] * 2, [1.0], 1.0, 0.5), couplings=(math.inf,))
    request = SweepRequest(base=base, axis="t1", grid=(-1.0, 2.0), approaches=("local",),
                           outputs=("populations",))
    expected = raised(validate_spec, point_spec(base, "t1", -1.0))
    assert expected[0] is SpecError and len(expected[2]) == 2
    assert raised(run_sweep, request) == expected


def test_a_single_qubit_k_scan_accepts_any_coupling():
    # one qubit has no couplings, so validate_spec accepts any K
    base = chain([1.5], [], 1.0, 0.5)
    assert validate_spec(point_spec(base, "k", math.nan)) == base
    table = run_sweep(SweepRequest(base=base, axis="k", grid=(math.nan, 1.0),
                                   approaches=("global",), outputs=("populations",)))
    assert len(table.rows) == 2 and not table.skipped


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_only_true_zero_modes_are_skipped(n):
    # the uniform chain has a zero-energy single-particle mode exactly at
    # eps = 2K cos(k pi / (N + 1)); neighbours within 1e-5 and interior K
    # must solve, however close their levels of equal excitation number lie
    eps = 1.5
    zeros = [eps / (2.0 * math.cos(k * math.pi / (n + 1)))
             for k in range(1, n + 1) if math.cos(k * math.pi / (n + 1)) > 1e-12]
    grid = {z * f for z in zeros for f in (1 - 1e-3, 1 - 1e-5, 1.0, 1 + 1e-5, 1 + 1e-3)}
    grid |= {0.5, 1.25, 2.2, 2.9}
    req = SweepRequest(base=chain([eps] * n, [1.0] * (n - 1), 1.0, 0.5), axis="k",
                       grid=tuple(sorted(grid)), approaches=("global",),
                       outputs=("heat_flux",))
    table = run_sweep(req)
    assert {s.axis_value for s in table.skipped} == set(zeros)
    assert len(table.rows) == len(grid) - len(zeros)


def test_global_rows_diagonalize_once(monkeypatch):
    # a temperature sweep reuses its chain's structure, and both approaches
    # share the chain's eigensystem: H is diagonalized once, in one stacked
    # call holding the one chain, for the eigenbasis frame (global) and the
    # rho_diagonals columns (local), not once per row or per approach
    import chainflux.lindblad

    calls = []

    def counting(H, _real=chainflux.lindblad.diagonalize):
        calls.append(H.shape)
        return _real(H)

    monkeypatch.setattr(chainflux.lindblad, "diagonalize", counting)
    req = small_request(outputs=("rho_diagonals",), grid=(0.5, 1.0, 2.0))
    run_sweep(req)
    assert calls == [(1, 4, 4)]


def test_pool_starts_no_more_processes_than_tasks(monkeypatch):
    # the sweep forks one worker per task at most; the rows are those of
    # the serial sweep at any worker count
    import os

    forks = []

    def recording(_real=os.fork):
        pid = _real()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording)
    grid = tuple(np.linspace(0.5, 3.0, 14))
    serial = run_sweep(small_request(grid=grid))
    assert forks == []
    for workers, points, size in ((64, grid[:3], 3), (64, grid, 14), (2, grid, 2),
                                  (2, grid[:1], 0)):
        table = run_sweep(small_request(grid=points), workers=workers)
        assert len(forks) == size  # no worker for one task
        forks.clear()
        assert tuple(table.rows) == tuple(row for row in serial.rows if row.axis_value in points)


def test_without_fork_the_sweep_runs_serially(monkeypatch):
    # where os.fork does not exist, workers = 2 is the workers = 1 sweep
    import os

    request = small_request(grid=tuple(np.linspace(0.5, 3.0, 6)))
    serial = run_sweep(request)
    monkeypatch.delattr(os, "fork")
    assert tuple(run_sweep(request, workers=2).rows) == tuple(serial.rows)


def test_a_task_error_is_raised_as_at_one_worker(monkeypatch):
    # a task's exception crosses the worker's pipe with its type and
    # message, and the first failing task in grid order is the one raised
    import chainflux.sweep

    real = chainflux.sweep._row_task

    def failing(args):
        # at workers = 2 each point is a task, and the points 2.0 and 3.0
        # fail in different workers
        for value, _ in args[1]:
            if value >= 2.0:
                raise NoConvergence(f"no steady state at t1 = {value!r}")
        return real(args)

    monkeypatch.setattr(chainflux.sweep, "_row_task", failing)
    request = small_request(grid=(0.5, 1.0, 2.0, 3.0))
    raised = []
    for workers in (1, 2):
        with pytest.raises(NoConvergence) as info:
            run_sweep(request, workers=workers)
        raised.append((type(info.value), str(info.value)))
    assert raised == [(NoConvergence, "no steady state at t1 = 2.0")] * 2


def test_a_worker_that_dies_raises_worker_failed(monkeypatch):
    # a worker that exits without its results names its exit status, and
    # every worker is reaped
    import os

    import chainflux.sweep

    real, parent = chainflux.sweep._row_task, os.getpid()

    def dying(args):
        if os.getpid() != parent:
            os._exit(3)
        return real(args)

    monkeypatch.setattr(chainflux.sweep, "_row_task", dying)
    with pytest.raises(WorkerFailed, match="status 3") as info:
        run_sweep(small_request(grid=(0.5, 1.0, 2.0, 3.0)), workers=2)
    assert info.value.status == 3
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_an_interrupt_in_the_parent_kills_and_reaps_every_worker(monkeypatch):
    # the second worker is still busy when the parent is interrupted while
    # it reads the first one's results: it is killed, not waited for
    import os
    import time

    import chainflux.sweep

    real, parent = chainflux.sweep._row_task, os.getpid()

    def slow(args):
        if os.getpid() != parent and args[1][0][0] in (1.0, 3.0):  # the second worker
            time.sleep(60)
        return real(args)

    def interrupted(payload):
        raise KeyboardInterrupt

    monkeypatch.setattr(chainflux.sweep, "_row_task", slow)
    monkeypatch.setattr(chainflux.sweep.pickle, "loads", interrupted)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        run_sweep(small_request(grid=(0.5, 1.0, 2.0, 3.0)), workers=2)
    assert time.monotonic() - start < 30
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_row_residual_failure_names_the_worst_row(monkeypatch):
    import chainflux.sweep

    table = run_sweep(small_request())
    worst = max(table.rows, key=lambda r: r.residual)
    assert worst.residual > 0
    monkeypatch.setattr(chainflux.sweep, "ROW_RESIDUAL_LIMIT", 0.5 * worst.residual)
    with pytest.raises(NoConvergence) as info:
        run_sweep(small_request())
    message = str(info.value)
    assert f"{worst.residual:.3e}" in message
    assert f"t1 = {worst.axis_value!r}, approach {worst.approach}" in message


def test_run_matches_direct_pipeline():
    from chainflux import steady_report
    table = run_sweep(small_request(grid=(2.0,), approaches=("global",)))
    report = steady_report(dimer(1.5, 1.5, 1.0, 2.0, 0.0), "global")
    row = table.rows[0]
    assert row.populations == pytest.approx(report.populations)
    assert row.fluxes == pytest.approx(report.fluxes)


# ----------------------------------------------------------------- csv


def test_csv_columns_and_round_trip(tmp_path):
    table = run_sweep(small_request())
    path = tmp_path / "out.csv"
    emit_csv(table, path)
    metadata, header, rows = read_csv_table(path)
    assert header == ["T1", "approach", "n1", "n2", "Q1", "Q2", "residual"]
    assert any(line.startswith("# tool:") for line in metadata)
    assert any(line.startswith("# conventions:") for line in metadata)
    assert len(rows) == len(table.rows)
    for parsed, row in zip(rows, table.rows):
        assert parsed[0] == row.axis_value  # bit-exact float round trip
        assert parsed[1] == row.approach
        assert parsed[2:4] == row.populations
        assert parsed[4:6] == row.fluxes
        assert parsed[6] == row.residual
    raw = path.read_bytes()
    assert b"\r" not in raw
    assert raw.endswith(b"\n")


def test_csv_skipped_rows_are_annotated(tmp_path):
    req = small_request(axis="k", grid=(0.5, 1.5))
    table = run_sweep(req)
    path = tmp_path / "skips.csv"
    emit_csv(table, path)
    metadata, _, _ = read_csv_table(path)
    assert any(line.startswith("# skipped: degenerate-transition") for line in metadata)


def test_csv_header_only_for_empty_table(tmp_path):
    # a table built by hand from no rows holds empty columns
    table = SweepTable(request=small_request(), rows=(), skipped=(),
                       metadata=(("tool", "chainflux test"),))
    assert len(table.rows) == 0 and tuple(table.rows) == ()
    path = tmp_path / "empty.csv"
    emit_csv(table, path)
    metadata, header, rows = read_csv_table(path)
    assert rows == []
    assert header[:2] == ["T1", "approach"]


def test_an_all_skipped_sweep_writes_a_header_only_csv(tmp_path, capsys):
    # K = eps: the global dimer degenerates at every temperature, so every
    # task's columns are empty
    cfg = tmp_path / "skips.cfg"
    cfg.write_text("n_qubits = 2\nepsilon = 1.0\ncoupling = 1.0\nt1 = 0.5\nt2 = 0.0\n"
                   "axis = t1\ngrid = 0.5, 2.0\napproaches = global\noutputs = rho_diagonals\n")
    texts = []
    for workers in (1, 2):
        path = tmp_path / f"w{workers}.csv"
        assert cli_main(["sweep", "--config", str(cfg), "--out", str(path),
                         "--workers", str(workers)]) == 0
        assert f"wrote {path} (0 rows, 2 skipped)" in capsys.readouterr().out
        table = run_sweep(parse_config(cfg.read_text()), workers=workers)
        assert len(table.rows) == 0 and tuple(table.rows) == ()
        assert [(s.axis_value, s.approach) for s in table.skipped] == \
            [(0.5, "global"), (2.0, "global")]
        texts.append(path.read_text())
    assert texts[0] == texts[1]
    lines = texts[0].splitlines()
    assert [line for line in lines if not line.startswith("#")] == \
        ["T1,approach,rho_1,rho_2,rho_3,rho_4,residual"]
    skips = [line for line in lines if line.startswith("# skipped: ")]
    assert len(skips) == 2
    assert all(line.startswith("# skipped: degenerate-transition (omega = ") for line in skips)


def oracle_csv(request) -> str:
    """The CSV of ``request`` built row by row from cold steady_report calls."""
    label = {"t1": "T1", "t2": "T2", "k": "K", "eps": "eps"}[request.axis]
    header = [label, "approach"]
    if "populations" in request.outputs:
        header += [f"n{q + 1}" for q in range(request.base.n_qubits)]
    if "heat_flux" in request.outputs:
        header += ["Q1", "Q2"]
    if "rho_diagonals" in request.outputs:
        header += [f"rho_{i + 1}" for i in range(request.base.dim)]
    header.append("residual")
    lines = [f"# tool: chainflux {__version__}", f"# conventions: {conventions_fingerprint()}"]
    lines += [f"# config: {line}" for line in format_config(request).splitlines()]
    rows = []
    for approach in request.approaches:
        for value in request.grid:
            where = f"{request.axis}={value:.17g} approach={approach}"
            try:
                report = steady_report(apply_axis(request.base, request.axis, value), approach)
            except DegenerateTransition as err:
                lines.append(f"# skipped: degenerate-transition (omega = {err.omega:.3e}) {where}")
                continue
            except DegenerateKernel as err:
                lines.append(f"# skipped: degenerate-kernel (rcond = {err.rcond:.3e}) {where}")
                continue
            fields = []
            if "populations" in request.outputs:
                fields += report.populations
            if "heat_flux" in request.outputs:
                fields += report.fluxes
            if "rho_diagonals" in request.outputs:
                vectors = report.chain.eigensystem.vectors
                fields += np.diag(vectors.conj().T @ report.rho @ vectors).real.tolist()
            fields.append(report.residual)
            rows.append(f"{value:.17g},{approach}," + ",".join(f"{x:.17g}" for x in fields))
    return "\n".join(lines + [",".join(header)] + rows) + "\n"


def test_csv_matches_an_oracle_built_from_cold_reports(tmp_path):
    # at workers = 2 each K point is its own task, so the zero mode's task
    # has no global rows
    zero_mode = 1.5 / (2 * math.cos(math.pi / 4))  # N = 3: eps = 2 K cos(pi / 4)
    requests = [
        small_request(grid=tuple(np.logspace(-2.0, 2.0, 9))),
        SweepRequest(base=chain([1.5] * 3, [1.0] * 2, 2.0, 0.5), axis="k",
                     grid=(0.4, zero_mode, 1.4, 2.2), approaches=("global", "local"),
                     outputs=("populations", "heat_flux", "rho_diagonals")),
    ]
    for request in requests:
        expected = oracle_csv(request)
        assert ("# skipped: " in expected) == (request.axis == "k")
        for workers in (1, 2):
            path = tmp_path / f"{request.axis}-{workers}.csv"
            emit_csv(run_sweep(request, workers=workers), path)
            assert path.read_bytes() == expected.encode()


def test_csv_diagonal_columns(tmp_path):
    req = small_request(outputs=("rho_diagonals",), grid=(2.0,), approaches=("global",))
    table = run_sweep(req)
    path = tmp_path / "diag.csv"
    emit_csv(table, path)
    _, header, rows = read_csv_table(path)
    assert header == ["T1", "approach", "rho_1", "rho_2", "rho_3", "rho_4", "residual"]
    assert sum(rows[0][2:6]) == pytest.approx(1.0, abs=1e-10)


def test_sweep_is_deterministic_across_runs_and_workers(tmp_path):
    req = small_request(grid=tuple(np.linspace(0.5, 3.0, 6)))
    paths = []
    for name, workers in (("a.csv", 1), ("b.csv", 1), ("c.csv", 2)):
        table = run_sweep(req, workers=workers)
        path = tmp_path / name
        emit_csv(table, path)
        paths.append(path.read_bytes())
    assert paths[0] == paths[1]
    assert paths[0] == paths[2]


def test_figure_presets_encode_the_right_parameters():
    presets = figure_requests()
    assert set(presets) == {"figure2", "figure3a", "figure3b", "figure3c"}
    gaps = {"figure2": 1.5, "figure3a": 1.001, "figure3b": 2.5, "figure3c": 10.0}
    for name, req in presets.items():
        assert req.base.epsilons == (gaps[name], gaps[name])
        assert req.base.couplings == (1.0,)
        assert req.base.baths[1].temperature == 0.0
        assert req.axis == "t1"
        assert len(req.grid) == 200
        assert req.grid[0] == pytest.approx(0.01)
        assert req.grid[-1] == pytest.approx(100.0)
        assert req.approaches == ("global", "local")
