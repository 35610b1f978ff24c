import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from chainflux import (
    ConfigSyntaxError,
    NoConvergence,
    SpecError,
    SpecInvalid,
    UnknownKey,
    apply_axis,
    chain,
    dimer,
    emit_csv,
    figure_requests,
    format_config,
    parse_config,
    read_csv_table,
    run_sweep,
)
from chainflux.model import BathSpec, validate_spec
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
    # share the chain's eigensystem: H is diagonalized once, for the
    # eigenbasis frame (global) and the rho_diagonals columns (local), not
    # once per row or per approach
    import chainflux.lindblad

    calls = []

    def counting(H, _real=chainflux.lindblad.diagonalize):
        calls.append(H.shape)
        return _real(H)

    monkeypatch.setattr(chainflux.lindblad, "diagonalize", counting)
    req = small_request(outputs=("rho_diagonals",), grid=(0.5, 1.0, 2.0))
    run_sweep(req)
    assert len(calls) == 1


def test_pool_starts_no_more_processes_than_tasks(monkeypatch):
    # a fork pool starts max_workers processes at its first submit, so the
    # pool is sized by the tasks; a fake executor records the size and runs
    # the tasks in this process
    import concurrent.futures

    sizes = []

    class Recording:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
    grid = tuple(np.linspace(0.5, 3.0, 14))
    serial = run_sweep(small_request(grid=grid))
    for workers, points, size in ((64, grid[:3], 3), (64, grid, 14), (2, grid, 2),
                                  (2, grid[:1], None)):
        table = run_sweep(small_request(grid=points), workers=workers)
        assert sizes == ([] if size is None else [size])  # no pool for one task
        sizes.clear()
        assert table.rows == tuple(row for row in serial.rows if row.axis_value in points)


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
    table = SweepTable(request=small_request(), rows=(), skipped=(),
                       metadata=(("tool", "chainflux test"),))
    path = tmp_path / "empty.csv"
    emit_csv(table, path)
    metadata, header, rows = read_csv_table(path)
    assert rows == []
    assert header[:2] == ["T1", "approach"]


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
