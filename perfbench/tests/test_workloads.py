"""The zero-mode formula, the seeded grids and the correctness gate."""

import math

import pytest

from chainflux.errors import DegenerateTransition
from chainflux.lindblad import assemble
from chainflux.model import chain
from chainflux.sweep import SkippedRow, SweepRequest, emit_csv, run_sweep
import workloads


@pytest.mark.parametrize("n, ratios", [
    (2, [1.0]),
    (3, [math.sqrt(2.0)]),
    (4, [(1 + math.sqrt(5)) / 2, (math.sqrt(5) - 1) / 2]),
    (5, [math.sqrt(3.0), 1.0]),
])
def test_zero_modes_match_known_values(n, ratios):
    # eps = ratio * K at each zero mode: K; sqrt2 K; 1.618 K and 0.618 K; sqrt3 K and K
    eps = 1.5
    got = workloads.zero_mode_couplings(eps, n)
    assert got == pytest.approx(sorted(eps / r for r in ratios), rel=1e-14)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_zero_modes_are_degenerate_for_the_global_approach(n):
    for k in workloads.zero_mode_couplings(1.5, n):
        spec = chain([1.5] * n, [k] * (n - 1), 1.0, 0.5)
        with pytest.raises(DegenerateTransition):
            assemble(spec, "global")


def test_grids_depend_on_the_seed_only_inside():
    a, b = workloads.kscan4_grid(1), workloads.kscan4_grid(2)
    assert a == workloads.kscan4_grid(1) and a != b
    assert len(a) == len(set(a)) == 48 and list(a) == sorted(a)
    for z in workloads.zero_mode_couplings(1.5, 4):
        for k in (z * (1 - 1e-3), z, z * (1 + 1e-3)):
            assert k in a and k in b
    t1 = workloads.chain5_t1_grid(3)
    assert t1 == workloads.chain5_t1_grid(3) and t1 != workloads.chain5_t1_grid(4)
    lo, hi = workloads.CHAIN5_T1_RANGE
    assert len(t1) == 2 and lo <= t1[0] < t1[1] <= hi


def _dimer_request(eps, grid):
    return SweepRequest(base=chain([eps, eps], [1.0], t1=0.01, t2=0.0), axis="t1",
                        grid=grid, approaches=("global", "local"),
                        outputs=("populations", "heat_flux"))


def test_gate_passes_correct_dimer_rows(tmp_path):
    request = _dimer_request(1.5, (0.1, 1.0, 10.0))
    table = run_sweep(request)
    emit_csv(table, tmp_path / "t.csv")
    result = workloads.gate("dimer_figures", request, table, tmp_path / "t.csv")
    assert (result.attempted, result.failed, result.wrong_values) == (6, 0, 0)


def test_gate_reports_wrong_and_spurious_rows(tmp_path):
    request = _dimer_request(1.5, (0.1, 1.0, 10.0))
    table = run_sweep(request)
    # corrupt one population and turn another row into an unexplained skip
    first = table.rows[0]
    bad = type(first)(**{**first.__dict__, "populations": (first.populations[0] + 1e-6,
                                                           first.populations[1])})
    skip = SkippedRow(axis_value=table.rows[1].axis_value, approach="global", reason="x")
    from dataclasses import replace
    table = replace(table, rows=(bad,) + table.rows[2:], skipped=(skip,))
    emit_csv(table, tmp_path / "t.csv")
    result = workloads.gate("dimer_figures", request, table, tmp_path / "t.csv")
    assert (result.attempted, result.failed, result.wrong_values) == (6, 2, 1)
    assert any("spurious skip" in m for m in result.messages)
    assert any("closed form" in m for m in result.messages)


def test_gate_expects_zero_modes_skipped(tmp_path):
    zeros = workloads.zero_mode_couplings(1.5, 4)
    request = SweepRequest(base=chain([1.5] * 4, [1.0] * 3, t1=2.0, t2=0.5), axis="k",
                           grid=(zeros[0], 1.2), approaches=("global", "local"),
                           outputs=("populations", "heat_flux", "rho_diagonals"))
    table = run_sweep(request)
    emit_csv(table, tmp_path / "t.csv")
    result = workloads.gate("kscan4_par", request, table, tmp_path / "t.csv")
    assert [(s.axis_value, s.approach) for s in table.skipped] == [(zeros[0], "global")]
    assert (result.attempted, result.failed) == (4, 0)
