"""The sweep request as columns: the grid as one array, chains built from arrays, no spec per point.

Every table is checked against the path that built one ChainSpec per grid
point (:func:`spec_path_table`: ``steady_reports`` over ``apply_axis``
specs, one call for the whole grid), bit for bit in its rows, its skips
and its CSV bytes.
"""

import math

import numpy as np
import pytest

import chainflux.model
import chainflux.sweep
from chainflux import SpecError, apply_axis, chain, emit_csv, parse_config, run_sweep
from chainflux._version import __version__
from chainflux.model import conventions_fingerprint, validate_spec
from chainflux.observables import steady_reports
from chainflux.sweep import SkippedRow, SweepColumns, SweepRequest, SweepTable

AXES = ("t1", "t2", "k", "eps")


def spec_path_table(request) -> SweepTable:
    """The sweep of ``request`` with one ChainSpec per grid point, solved in one call."""
    specs = [apply_axis(request.base, request.axis, value) for value in request.grid]
    blocks, skipped = [], []
    for approach, results in zip(request.approaches, steady_reports(specs, request.approaches)):
        rows = [i for i in range(len(specs)) if i not in results.errors]
        empty = np.zeros((len(rows), 0))
        blocks.append(SweepColumns(
            axis_value=np.array(request.grid, dtype=float)[rows],
            approach=np.full(len(rows), approach, dtype=object),
            populations=(results.populations[rows] if "populations" in request.outputs
                         else empty),
            fluxes=results.fluxes[rows] if "heat_flux" in request.outputs else empty,
            diagonals=(results.rho_diagonals(np.array(rows, dtype=int))
                       if "rho_diagonals" in request.outputs else empty),
            residual=results.residual[rows]))
        skipped += [SkippedRow(request.grid[i], approach,
                               chainflux.sweep._SKIP_REASONS[type(error)].format(error))
                    for i, error in sorted(results.errors.items())]
    columns = SweepColumns(*(np.concatenate([getattr(block, name) for block in blocks])
                             for name in SweepColumns.__dataclass_fields__))
    metadata = (("tool", f"chainflux {__version__}"), ("conventions", conventions_fingerprint()))
    return SweepTable(request=request, rows=columns, skipped=tuple(skipped), metadata=metadata)


def assert_same_table(table, expected, tmp_path):
    for name in SweepColumns.__dataclass_fields__:
        got, want = getattr(table.rows, name), getattr(expected.rows, name)
        assert got.shape == want.shape, name
        if got.dtype == object:
            assert got.tolist() == want.tolist(), name
        else:  # bit for bit, NaN grid values included
            assert np.array_equal(got.view(np.uint8), want.view(np.uint8)), name
    assert table.skipped == expected.skipped
    emit_csv(table, tmp_path / "columns.csv")
    emit_csv(expected, tmp_path / "specs.csv")
    assert (tmp_path / "columns.csv").read_bytes() == (tmp_path / "specs.csv").read_bytes()


def seeded_base(n, seed):
    """A non-uniform chain of n qubits with rates and temperatures of its own."""
    rng = np.random.default_rng(seed)
    return chain(rng.uniform(0.5, 2.5, n), rng.uniform(0.3, 1.2, n - 1), rng.uniform(0.5, 3.0),
                 rng.uniform(0.0, 0.5), rng.uniform(0.5, 1.5), rng.uniform(0.5, 1.5))


GRIDS = {"t1": (0.0, 0.05, 0.7, 2.0, 9.0), "t2": (0.0, 0.3, 1.1, 4.0, 40.0),
         "k": (-0.8, 0.2, 0.65, 1.3, 2.4), "eps": (0.4, 0.9, 1.35, 2.2, 3.1)}


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("axis", AXES)
def test_each_axis_gives_the_rows_of_one_spec_per_point(tmp_path, axis, n):
    request = SweepRequest(base=seeded_base(n, 900 + n), axis=axis, grid=GRIDS[axis],
                           approaches=("global", "local"),
                           outputs=("populations", "heat_flux", "rho_diagonals"))
    assert_same_table(run_sweep(request), spec_path_table(request), tmp_path)


def test_a_single_qubit_k_scan_is_one_chain(tmp_path, monkeypatch):
    # one qubit has no couplings: every K point is the same chain, one stack
    built = []

    def recording(epsilons, couplings=None, sites=None, _real=chainflux.sweep.chain_operators):
        built.append(np.shape(epsilons))
        return _real(epsilons, couplings, sites)

    monkeypatch.setattr(chainflux.sweep, "chain_operators", recording)
    request = SweepRequest(base=chain([1.3], [], 1.5, 0.2, 0.7, 1.1), axis="k",
                           grid=(math.nan, -1.0, 0.5, 2.0), approaches=("local", "global"),
                           outputs=("populations", "heat_flux", "rho_diagonals"))
    table = run_sweep(request)
    assert built == [(1, 1)]
    assert_same_table(table, spec_path_table(request), tmp_path)


@pytest.mark.parametrize("axis, zeros", [
    ("k", (1.5 / (2 * math.cos(math.pi / 5)), 1.5 / (2 * math.cos(2 * math.pi / 5)))),
    ("eps", (2 * math.cos(2 * math.pi / 5), 2 * math.cos(math.pi / 5))),
])
def test_zero_mode_skips_are_those_of_one_spec_per_point(tmp_path, axis, zeros):
    # the uniform N = 4 chain has zero modes at K = eps / (2 cos(k pi / 5)) and
    # eps = 2 K cos(k pi / 5)
    base = chain([1.5] * 4, [1.0] * 3, 2.0, 0.5)
    grid = tuple(sorted({0.3, 0.75, 1.2, 2.0, 2.6, *zeros}))
    request = SweepRequest(base=base, axis=axis, grid=grid, approaches=("global", "local"),
                           outputs=("populations", "heat_flux", "rho_diagonals"))
    table = run_sweep(request)
    assert [(s.axis_value, s.approach) for s in table.skipped] == [(z, "global") for z in zeros]
    assert_same_table(table, spec_path_table(request), tmp_path)


@pytest.mark.parametrize("axis", AXES)
def test_a_long_grid_gives_the_rows_of_one_spec_per_point(tmp_path, axis):
    # 600 points at N = 3, more chains than a call once held (512): the
    # rows are those of one call over every point's spec
    request = SweepRequest(base=seeded_base(3, 950), axis=axis,
                           grid=tuple(np.linspace(0.1, 3.0, 600)), approaches=("global", "local"),
                           outputs=("populations", "heat_flux", "rho_diagonals"))
    assert_same_table(run_sweep(request), spec_path_table(request), tmp_path)


# ------------------------------------------------------------- invalid values


def per_point_error(request) -> tuple:
    """What the sweep raised when it built each point's spec in turn: type, message, violations."""
    base = request.base
    with pytest.raises(SpecError) as info:
        for i, value in enumerate(request.grid):
            spec = apply_axis(base, request.axis, value)
            if i == 0:
                base = validate_spec(spec)
    return type(info.value), str(info.value), info.value.violations


@pytest.mark.parametrize("axis, bad", [("t1", (-2.0, math.nan)), ("t2", (math.inf, -0.5)),
                                       ("k", (math.nan, math.inf)), ("eps", (0.0, -1.0))])
@pytest.mark.parametrize("positions", [(1,), (17, 31), (38, 39)])
def test_the_first_invalid_value_in_grid_order_raises_as_before(axis, bad, positions):
    grid = list(np.linspace(0.5, 3.0, 40))
    for position, value in zip(positions, bad):
        grid[position] = value
    request = SweepRequest(base=seeded_base(3, 970), axis=axis, grid=tuple(grid),
                           approaches=("local",), outputs=("populations",))
    with pytest.raises(SpecError) as info:
        run_sweep(request)
    assert (type(info.value), str(info.value), info.value.violations) == per_point_error(request)


# ------------------------------------------------------------- counting


def count_specs(monkeypatch) -> list:
    """Appends one item to the returned list per ChainSpec built from now on."""
    built = []
    real = chainflux.model.ChainSpec.__init__

    def counting(self, *args, **kwargs):
        built.append(None)
        real(self, *args, **kwargs)

    monkeypatch.setattr(chainflux.model.ChainSpec, "__init__", counting)
    return built


@pytest.mark.parametrize("axis", AXES)
def test_a_request_builds_a_fixed_number_of_specs_whatever_its_grid(tmp_path, monkeypatch, axis):
    base = seeded_base(2, 990)
    counts = []
    for points in (3, 120):
        request = SweepRequest(base=base, axis=axis, grid=tuple(np.linspace(0.2, 3.0, points)),
                               approaches=("global", "local"),
                               outputs=("populations", "heat_flux", "rho_diagonals"))
        built = count_specs(monkeypatch)
        emit_csv(run_sweep(request), tmp_path / f"{axis}-{points}.csv")
        counts.append(len(built))
        monkeypatch.undo()
    assert counts[0] == counts[1] <= 2


def test_parsing_a_config_builds_a_fixed_number_of_specs(monkeypatch):
    text = "\n".join(["n_qubits = 3", "epsilon = 1.5", "coupling = 1.0", "t1 = 1.0", "t2 = 0.5",
                      "axis = eps", "grid = linspace:0.5:3.0:{}"])
    counts = []
    for points in (3, 200):
        built = count_specs(monkeypatch)
        parse_config(text.format(points))
        counts.append(len(built))
        monkeypatch.undo()
    assert counts[0] == counts[1]


def test_a_row_view_rebuilds_the_spec_it_was_solved_for():
    # SteadyColumns keeps no specs: a row's is rebuilt from its chain's
    # arrays and its baths, equal to the one given, attachment sites as ints
    specs = [apply_axis(seeded_base(3, 995), axis, value)
             for axis in ("t1", "k") for value in (0.4, 1.7)]
    for columns in steady_reports(specs, ("global", "local")):
        assert not hasattr(columns, "specs")
        for spec, report in zip(specs, columns):
            assert report.spec == spec
            assert all(type(bath.attached_site) is int for bath in report.spec.baths)
