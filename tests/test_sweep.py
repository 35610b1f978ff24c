import math
import warnings
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
    apply_axis,
    chain,
    dimer,
    dimer_global_heat_flux_analytic,
    dimer_global_populations_analytic,
    dimer_local_heat_flux_analytic,
    dimer_local_populations_analytic,
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
from chainflux.observables import steady_reports
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


@pytest.mark.parametrize("approaches", [("global", "local"), ("local", "global"), ("local",),
                                        ("global",)])
def test_config_round_trip_keeps_the_order_of_the_approaches(approaches):
    req = small_request(approaches=approaches)
    text = format_config(req)
    assert f"approaches = {', '.join(approaches)}\n" in text
    assert parse_config(text) == req
    # the rows come in the written order, approach by approach
    table = run_sweep(parse_config(text))
    assert list(dict.fromkeys(table.rows.approach.tolist())) == list(approaches)


def test_a_config_that_repeats_an_approach_is_refused():
    text = format_config(small_request()).replace("approaches = global, local",
                                                  "approaches = local, global, local")
    with pytest.raises(ConfigSyntaxError, match="approaches repeat") as err:
        parse_config(text)
    assert err.value.line == text.splitlines().index("approaches = local, global, local") + 1


def test_a_config_that_says_both_solves_global_then_local():
    text = format_config(small_request()).replace("approaches = global, local", "approaches = both")
    assert parse_config(text) == small_request()


# -------------------------------------------------------------- running


@pytest.mark.parametrize("field, message", [("grid", "grid is empty"),
                                            ("approaches", "no approach")])
def test_an_empty_hand_built_request_raises_a_config_error(field, message):
    with pytest.raises(ConfigSyntaxError, match=message):
        run_sweep(small_request(**{field: ()}))


@pytest.mark.parametrize("overrides, message", [
    (dict(axis="T1"), "axis must be one of"),
    (dict(approaches=("Global",)), "unknown approach 'Global'"),
    (dict(outputs=("population",)), "unknown output 'population'"),
    (dict(approaches=("global", "global")), "approaches repeat"),
    (dict(grid=(0.5, 2.0, 1.0)), "grid must be strictly increasing"),
    (dict(grid=(0.5, 0.5)), "grid must be strictly increasing"),
], ids=["axis", "approach", "output", "repeated-approach", "grid-order", "grid-tie"])
def test_a_malformed_hand_built_request_raises_a_config_error_before_any_row(
        overrides, message, monkeypatch):
    # requests parse_config would refuse
    import chainflux.sweep

    def no_rows(*args):
        raise AssertionError("rows solved for a malformed request")

    monkeypatch.setattr(chainflux.sweep, "_row_task", no_rows)
    with pytest.raises(ConfigSyntaxError, match=message):
        run_sweep(small_request(**overrides))


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


@pytest.mark.parametrize("base, grid, approach", [
    # the global N = 5 chain at eps = 1.5, K = 3 has two steady states
    (chain([1.5] * 5, [1.0] * 4, 1.0, 0.5), (2.9, 3.0, 3.1), "global"),
    # at K = 0 the middle qubit of N = 3 is an undamped island: the local row
    # is skipped with zero results, in one stack with the rows that solve
    (chain([1.5, 1.2, 0.9], [1.0, 1.0], 1.0, 0.5), (-0.5, 0.0, 0.5), "local"),
], ids=["global-N5", "local-island-N3"])
def test_non_unique_steady_state_is_skipped_not_fatal(base, grid, approach, tmp_path):
    req = SweepRequest(base=base, axis="k", grid=grid, approaches=(approach,),
                       outputs=("heat_flux",))
    table = run_sweep(req)
    assert [r.axis_value for r in table.rows] == [grid[0], grid[2]]
    assert [(s.axis_value, s.approach) for s in table.skipped] == [(grid[1], approach)]
    assert table.skipped[0].reason.startswith("degenerate-kernel (rcond = ")
    path = tmp_path / "k.csv"
    emit_csv(table, path)
    metadata, _, _ = read_csv_table(path)
    assert any(line.startswith("# skipped: degenerate-kernel") and f"k={grid[1]:.17g} " in line
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
    # the fields no grid point changes are validated once per sweep, on the
    # first point's spec, and the grid values at once, as one array,
    # against their own field's rule
    import chainflux.sweep

    checked, validated = [], []

    def checking(spec, axis, values, _real=chainflux.sweep._valid_values):
        checked.append(np.array(values).tolist())
        return _real(spec, axis, values)

    def validating(spec, _real=chainflux.sweep.validate_spec):
        validated.append(spec)
        return _real(spec)

    monkeypatch.setattr(chainflux.sweep, "_valid_values", checking)
    monkeypatch.setattr(chainflux.sweep, "validate_spec", validating)
    grid = (0.5, 1.0, 2.0, 4.0)
    run_sweep(small_request(grid=grid))
    assert checked == [list(grid)]  # the array alone: the first point is not checked apart
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


def test_a_temperature_sweep_with_rho_diagonals_diagonalizes_nothing(monkeypatch):
    # both approaches and the diagonals come from the chain's N x N modes:
    # no H is diagonalized, for the rows or for the rho_diagonals columns
    import chainflux.lindblad

    calls = []

    def counting(H, _real=chainflux.lindblad.diagonalize):
        calls.append(H.shape)
        return _real(H)

    monkeypatch.setattr(chainflux.lindblad, "diagonalize", counting)
    req = small_request(outputs=("rho_diagonals",), grid=(0.5, 1.0, 2.0))
    assert len(run_sweep(req).rows) == 6
    assert calls == []


def test_row_residual_failure_names_the_worst_row(monkeypatch):
    # with no tolerance every row with a nonzero residual fails the one
    # residual check, of chain_reports; the sweep names the largest
    import chainflux.observables

    table = run_sweep(small_request())
    worst = max(table.rows, key=lambda r: r.residual)
    assert worst.residual > 0
    monkeypatch.setattr(chainflux.observables, "RESIDUAL_TOL", 0.0)
    with pytest.raises(NoConvergence) as info:
        run_sweep(small_request())
    message = str(info.value)
    assert message.startswith(f"steady-state residual {worst.residual:.3e} exceeds 0.000e+00 ")
    assert message.endswith(f" at t1 = {worst.axis_value!r}, approach {worst.approach}")


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
def test_a_nan_residual_fails_the_sweep_and_the_report(monkeypatch):
    # a NaN residual, made here for the rows whose rates pass 1e180 (the
    # rows at T1 = 1e200 and 1e300), fails the one residual check, of
    # chain_reports: the sweep names the first NaN row, and the report
    # raises its row's error
    import chainflux.correlations

    residuals = chainflux.correlations._gaussian_residuals

    def nan_at_large_rates(X, G, C):
        return np.where(np.abs(X).max(axis=(1, 2)) > 1e180, np.nan, residuals(X, G, C))

    request = small_request(grid=(1.0, 1e200, 1e300))
    # rates below the made NaN keep their report
    report = steady_report(dimer(1.5, 1.5, 1.0, 1e160, 0.0), "global")
    assert report.populations == pytest.approx((0.5, 0.5), abs=1e-15)
    monkeypatch.setattr(chainflux.correlations, "_gaussian_residuals", nan_at_large_rates)
    with pytest.raises(NoConvergence, match=r"^steady-state residual nan exceeds .* at "
                                            r"t1 = 1e\+200, approach global$"):
        run_sweep(request)
    with pytest.raises(NoConvergence, match="residual nan"):
        steady_report(dimer(1.5, 1.5, 1.0, 1e300, 0.0), "global")


@pytest.mark.parametrize("t1", [1e155, 1e200, 1e300])
def test_rates_whose_squares_overflow_keep_a_finite_checked_residual(t1):
    # from T1 ~ 1e154 on the squares of the global dimer's rates overflow;
    # each row's residual and |L| are scaled by one power of two, so the row
    # is solved, its residual is finite and checked against a finite |L|,
    # and nothing warns
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = steady_report(dimer(1.5, 1.5, 1.0, t1, 0.0), "global")
    assert report.populations == pytest.approx((0.5, 0.5), abs=1e-15)
    assert report.fluxes[0] == pytest.approx(0.75, abs=1e-15)
    assert 0 < report.residual < np.inf


@pytest.mark.parametrize("n", [2, 5])
def test_a_t1_sweep_to_1e300_keeps_every_row_of_the_reports(n):
    # the hot limit, where the global flux saturates: every row of both
    # approaches passes the one residual check, against its own |L|_F, and
    # is the row steady_reports gives for its spec, bit for bit, without a
    # warning (an absolute 1e-9 gate on the sweep failed the global dimer
    # rows from T1 = 3.2e6 on)
    base = chain([1.5] * n, [1.0] * (n - 1), 0.01, 0.0)
    request = SweepRequest(base=base, axis="t1", grid=tuple(np.logspace(-2.0, 300.0, 60).tolist()),
                           approaches=("global", "local"),
                           outputs=("populations", "heat_flux", "rho_diagonals"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = run_sweep(request)
        reports = steady_reports([apply_axis(base, "t1", t1) for t1 in request.grid],
                                 request.approaches)
    assert not table.skipped and len(table.rows) == 2 * len(request.grid)
    for j, columns in enumerate(reports):
        assert not columns.errors
        rows = slice(j * len(request.grid), (j + 1) * len(request.grid))
        assert table.rows.populations[rows].tobytes() == columns.populations.tobytes()
        assert table.rows.fluxes[rows].tobytes() == columns.fluxes.tobytes()
        assert table.rows.diagonals[rows].tobytes() == columns.rho_diagonals(slice(None)).tobytes()
        assert table.rows.residual[rows].tobytes() == columns.residual.tobytes()
    if n == 2:  # the dimer's closed forms, which the dense block cannot follow past T1 ~ 1e4
        for row in table.rows:
            if row.approach == "global":
                q = dimer_global_heat_flux_analytic(1.5, 1.0, row.axis_value, 0.0).total
                pops = dimer_global_populations_analytic(1.5, 1.0, row.axis_value, 0.0)
                pops = pops.n1, pops.n2
            else:
                q = dimer_local_heat_flux_analytic(1.5, 1.0, row.axis_value, 0.0)
                pops = dimer_local_populations_analytic(1.5, 1.0, row.axis_value, 0.0)
            assert row.fluxes == pytest.approx((q, -q), abs=1e-15)
            assert row.populations == pytest.approx(pops, abs=1e-15)


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
    # K = eps: the global dimer degenerates at every temperature, so the
    # chunk's columns are empty
    cfg = tmp_path / "skips.cfg"
    cfg.write_text("n_qubits = 2\nepsilon = 1.0\ncoupling = 1.0\nt1 = 0.5\nt2 = 0.0\n"
                   "axis = t1\ngrid = 0.5, 2.0\napproaches = global\noutputs = rho_diagonals\n")
    path = tmp_path / "skips.csv"
    assert cli_main(["sweep", "--config", str(cfg), "--out", str(path)]) == 0
    assert f"wrote {path} (0 rows, 2 skipped)" in capsys.readouterr().out
    table = run_sweep(parse_config(cfg.read_text()))
    assert len(table.rows) == 0 and tuple(table.rows) == ()
    assert [(s.axis_value, s.approach) for s in table.skipped] == \
        [(0.5, "global"), (2.0, "global")]
    lines = path.read_text().splitlines()
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
            if "rho_diagonals" in request.outputs:  # a cold call of this point alone
                spec = apply_axis(request.base, request.axis, value)
                (columns,) = steady_reports([spec], (approach,))
                fields += columns.rho_diagonals([0])[0].tolist()
            fields.append(report.residual)
            rows.append(f"{value:.17g},{approach}," + ",".join(f"{x:.17g}" for x in fields))
    return "\n".join(lines + [",".join(header)] + rows) + "\n"


def test_csv_matches_an_oracle_built_from_cold_reports(tmp_path):
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
        path = tmp_path / f"{request.axis}.csv"
        emit_csv(run_sweep(request), path)
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
    for name in ("a.csv", "b.csv"):
        path = tmp_path / name
        emit_csv(run_sweep(req), path)
        paths.append(path.read_bytes())
    assert paths[0] == paths[1]


SHIPPED = ([("config", path.stem) for path in sorted((REPO / "configs").glob("*.cfg"))]
           + [("preset", name) for name in sorted(figure_requests())])


def shipped_request(kind, name):
    if kind == "preset":
        return figure_requests()[name]
    return parse_config((REPO / "configs" / f"{name}.cfg").read_text())


@pytest.mark.parametrize("kind, name", SHIPPED, ids=[f"{k}-{n}" for k, n in SHIPPED])
def test_a_sweep_at_two_workers_forks_nothing_and_writes_the_serial_bytes(
        tmp_path, monkeypatch, kind, name):
    # every shipped config and figure preset, kscan5 among them, the N = 5 K
    # scan the runner used to fork at workers = 2; the benchmark harness
    # still passes workers=2, which runs the same chunks in process
    import os

    request = shipped_request(kind, name)
    forks = []

    def refused():
        forks.append(None)
        raise AssertionError("os.fork called")

    monkeypatch.setattr(os, "fork", refused)
    texts = []
    for workers in (1, 2):
        path = tmp_path / f"{name}-w{workers}.csv"
        emit_csv(run_sweep(request, workers=workers), path)
        texts.append(path.read_bytes())
    assert forks == []
    assert texts[0] == texts[1]


@pytest.mark.parametrize("workers", [0, -2, 3, 64])
def test_run_sweep_ignores_its_workers_keyword(workers):
    # no worker count is refused or changes a row: the keyword is kept only
    # for a caller that still passes it
    request = small_request(grid=tuple(np.linspace(0.5, 3.0, 6)))
    serial = run_sweep(request)
    table = run_sweep(request, workers=workers)
    assert tuple(table.rows) == tuple(serial.rows)
    assert table.skipped == serial.skipped


def test_the_shipped_n5_k_scan_skips_its_zero_modes_in_one_call(monkeypatch):
    # CI compares this config's CSV with the base commit's; its global
    # zero-mode rows are skipped, and its 102 chains are one call
    import chainflux.sweep

    request = parse_config((REPO / "configs" / "kscan5.cfg").read_text())
    zeros = (0.8660254037844386, 1.4999999999999998)
    assert len(request.grid) >= 100
    assert set(zeros) <= set(request.grid)
    calls = []

    def recording(request, values, _real=chainflux.sweep._row_task):
        calls.append(values.tolist())
        return _real(request, values)

    monkeypatch.setattr(chainflux.sweep, "_row_task", recording)
    table = run_sweep(request)
    assert [(s.axis_value, s.approach) for s in table.skipped] == [(z, "global") for z in zeros]
    assert all(s.reason.startswith("degenerate-transition") for s in table.skipped)
    assert calls == [list(request.grid)]
    assert len(table.rows) == 2 * len(request.grid) - len(zeros)


# Grids of every length a bound of 32 N = 5 chains' 2^N x 2^N elements per
# call once split: one call holds the whole grid, whatever its axis.
GRID_POINTS = [(5, 1), (5, 32), (5, 33), (5, 97), (4, 128), (4, 129), (4, 385), (3, 512),
               (3, 513), (2, 2048), (2, 2049)]


@pytest.mark.parametrize("n, points", GRID_POINTS)
@pytest.mark.parametrize("axis", ["t1", "t2", "k", "eps"])
def test_a_sweep_is_one_row_task_call_whatever_its_grid(n, points, axis, monkeypatch):
    import chainflux.sweep

    grid = {"t1": (0.2, 3.0), "t2": (0.0, 2.0), "k": (-1.0, 2.0), "eps": (0.6, 2.4)}[axis]
    base = chain(np.linspace(1.2, 1.6, n), [0.7] * (n - 1), 1.3, 0.4)
    request = SweepRequest(base=base, axis=axis, grid=tuple(np.linspace(*grid, points)),
                           approaches=("global", "local"), outputs=("populations", "heat_flux"))
    calls = []

    def recording(request, values, _real=chainflux.sweep._row_task):
        calls.append(values.tolist())
        return _real(request, values)

    monkeypatch.setattr(chainflux.sweep, "_row_task", recording)
    table = run_sweep(request)
    assert calls == [list(request.grid)]
    assert len(table.rows) + len(table.skipped) == 2 * points


def test_the_row_task_s_error_leaves_run_sweep_as_raised(monkeypatch):
    # an exception of the one call over the grid leaves run_sweep with its
    # type and message
    import chainflux.sweep

    solved = []

    def failing(request, values):
        solved.append(values.tolist())
        raise NoConvergence(f"no steady state at k = {values.tolist()[2]!r}")

    monkeypatch.setattr(chainflux.sweep, "_row_task", failing)
    request = small_request(axis="k", grid=(0.5, 1.0, 2.0, 3.0))
    with pytest.raises(NoConvergence, match=r"^no steady state at k = 2\.0$"):
        run_sweep(request)
    assert solved == [[0.5, 1.0, 2.0, 3.0]]


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
