"""The benchmark's workloads: fixed sweep requests and their correctness gate.

Each workload is a closed loop with one client: one process runs
``run_sweep`` then ``emit_csv`` on each of its requests, one after another.
The seed draws only the T1 points of chain5_t1 and the interior K points of
kscan4_par; the figure presets, the exact zero modes and the points at
(1 +- 1e-3) around them are fixed.

Only the standard library is imported at module level, so the process that
drives the runs can read the workload list without loading numpy.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

# The gate's own limits.  They are the seed values of
# chainflux.sweep.ROW_RESIDUAL_LIMIT and of the ``verify`` tolerances, kept
# here so that loosening the package cannot loosen the benchmark.
ROW_RESIDUAL_LIMIT = 1e-9
ENERGY_BALANCE_TOL = 1e-9
CLOSED_FORM_POP_TOL = 1e-8
CLOSED_FORM_FLUX_TOL = 1e-9
# Populations may leave [0, 1] by round-off only.
POPULATION_SLACK = 1e-12
DIAGONAL_SUM_TOL = 1e-9

CHAIN5_T1_RANGE = (0.1, 10.0)  # T1 points, log-uniform
KSCAN4_K_RANGE = (0.5, 3.0)  # interior K points, uniform
KSCAN4_INTERIOR = 42
# Interior draws keep this relative distance from a zero mode: the fixed
# (1 +- 1e-3) points already probe that neighbourhood.
KSCAN4_EXCLUSION = 2e-3
ZERO_MODE_OFFSET = 1e-3


@dataclass(frozen=True)
class Workload:
    """How a workload runs; why it was chosen is in BENCHMARK.json."""

    name: str
    workers: int
    notes: str = ""


WORKLOADS = {
    w.name: w
    for w in (
        Workload("dimer_figures", workers=1),
        Workload("chain5_t1", workers=1),
        # workers=2 is the core count of the machine the figures below come from.
        Workload(
            "kscan4_par",
            workers=2,
            notes=(
                "BLAS is pinned to one thread in every process. Not timed here: "
                "with default OpenBLAS threading and workers=2 this grid ran at "
                "2.0-9.1 rows/s over six runs, against 33-40 rows/s pinned, so "
                "default threading is slower than serial. A program fix for that "
                "needs its own benchmark change with a default-threading workload. "
                "Per-row layer spans come from a workers=1 pass over the same grid; "
                "sweep.run_sweep and sweep.emit_csv spans from the workers=2 pass."
            ),
        ),
    )
}


def zero_mode_couplings(eps: float, n_qubits: int) -> list:
    """Couplings K at which a uniform chain with gap eps has a zero mode.

    The one-excitation modes of the uniform XX chain have energies
    eps + 2K cos(k pi / (N + 1)), k = 1..N; one vanishes when
    eps = 2K cos(k pi / (N + 1)) for a k with positive cosine.
    """
    out = []
    for k in range(1, n_qubits + 1):
        c = math.cos(k * math.pi / (n_qubits + 1))
        if c > 1e-12:
            out.append(eps / (2.0 * c))
    return sorted(out)


def kscan4_grid(seed: int) -> tuple:
    """Fixed zero modes and their (1 +- 1e-3) neighbours plus seeded interior K."""
    zeros = zero_mode_couplings(1.5, 4)
    fixed = [z * f for z in zeros for f in (1 - ZERO_MODE_OFFSET, 1.0, 1 + ZERO_MODE_OFFSET)]
    rng = random.Random(f"kscan4_par:{seed}")
    interior = set()
    while len(interior) < KSCAN4_INTERIOR:
        k = rng.uniform(*KSCAN4_K_RANGE)
        if all(abs(k / z - 1.0) > KSCAN4_EXCLUSION for z in zeros):
            interior.add(k)
    return tuple(sorted(fixed + sorted(interior)))


def chain5_t1_grid(seed: int) -> tuple:
    """Two seeded log-uniform T1 points inside CHAIN5_T1_RANGE.

    Four N = 5 rows make one pass of about 6 s, so a run holds several passes.
    """
    lo, hi = CHAIN5_T1_RANGE
    rng = random.Random(f"chain5_t1:{seed}")
    points = set()
    while len(points) < 2:
        points.add(math.exp(rng.uniform(math.log(lo), math.log(hi))))
    return tuple(sorted(points))


def build_requests(name: str, seed: int) -> list:
    """(label, SweepRequest) pairs of one pass of the workload."""
    from chainflux.model import chain
    from chainflux.sweep import APPROACHES, SweepRequest, figure_requests

    if name == "dimer_figures":
        return sorted(figure_requests().items())
    if name == "chain5_t1":
        request = SweepRequest(
            base=chain([1.5] * 5, [1.0] * 4, t1=1.0, t2=0.0),
            axis="t1", grid=chain5_t1_grid(seed), approaches=APPROACHES,
            outputs=("populations", "heat_flux"),
        )
        return [("chain5_t1", request)]
    if name == "kscan4_par":
        request = SweepRequest(
            base=chain([1.5] * 4, [1.0] * 3, t1=2.0, t2=0.5),
            axis="k", grid=kscan4_grid(seed), approaches=APPROACHES,
            outputs=("populations", "heat_flux", "rho_diagonals"),
        )
        return [("kscan4_par", request)]
    raise KeyError(f"unknown workload {name!r}")


@dataclass
class GateResult:
    """Row accounting of one request; failed rows are counted, never dropped."""

    attempted: int = 0
    failed: int = 0
    wrong_values: int = 0  # failures that make the output wrong: all but spurious skips
    messages: list = field(default_factory=list)

    def fail(self, message: str, wrong_value: bool, row: bool = True) -> None:
        self.failed += int(row)
        self.wrong_values += int(wrong_value)
        if len(self.messages) < 5:
            self.messages.append(message)


def _expected_skips(name: str, request) -> set:
    if name == "kscan4_par":
        zeros = zero_mode_couplings(request.base.epsilons[0], request.base.n_qubits)
        return {(k, "global") for k in request.grid if k in zeros}
    return set()


def _closed_form_deviation(request, values: dict, approach: str) -> str:
    """Message for the first closed-form check a dimer row fails, else ''."""
    from chainflux.observables import (
        dimer_global_heat_flux_analytic,
        dimer_global_populations_analytic,
        dimer_local_heat_flux_analytic,
        dimer_local_populations_analytic,
    )

    eps = request.base.epsilons[0]
    coupling = request.base.couplings[0]
    t1, t2 = values["T1"], request.base.baths[1].temperature
    if approach == "global":
        pops = (dimer_global_populations_analytic(eps, coupling, t1, t2).n1,) * 2
        q1 = dimer_global_heat_flux_analytic(eps, coupling, t1, t2).total
    else:
        pops = dimer_local_populations_analytic(eps, coupling, t1, t2)
        q1 = dimer_local_heat_flux_analytic(eps, coupling, t1, t2)
    if "n1" in values:
        dev = max(abs(values["n1"] - pops[0]), abs(values["n2"] - pops[1]))
        if dev > CLOSED_FORM_POP_TOL:
            return f"population off the closed form by {dev:.3e}"
    dev = abs(values["Q1"] - q1)
    if dev > CLOSED_FORM_FLUX_TOL:
        return f"flux off the closed form by {dev:.3e}"
    return ""


def _row_problem(values: dict, header: list) -> str:
    """Message for the first invariant a CSV row breaks, else ''."""
    if not values["residual"] <= ROW_RESIDUAL_LIMIT:
        return f"residual {values['residual']:.3e}"
    pops = [values[c] for c in header if c.startswith("n") and c[1:].isdigit()]
    if any(not -POPULATION_SLACK <= p <= 1.0 + POPULATION_SLACK for p in pops):
        return f"population outside [0, 1]: {pops}"
    if "Q1" in values and not abs(values["Q1"] + values["Q2"]) <= ENERGY_BALANCE_TOL:
        return f"|Q1 + Q2| = {abs(values['Q1'] + values['Q2']):.3e}"
    diag = [values[c] for c in header if c.startswith("rho_")]
    if diag and not abs(sum(diag) - 1.0) <= DIAGONAL_SUM_TOL:
        return f"eigenbasis populations sum to {sum(diag)!r}"
    return ""


def gate(name: str, request, table, csv_path) -> GateResult:
    """Check one request's output, reading the rows back from its CSV.

    A row fails when it is missing, when it breaks an invariant or (on
    dimer_figures) its closed form, when it is skipped without being a true
    zero mode, or when a true zero mode is not skipped.
    """
    from chainflux.sweep import read_csv_table

    _, header, csv_rows = read_csv_table(csv_path)
    label = {"t1": "T1", "t2": "T2", "k": "K", "eps": "eps"}[request.axis]
    produced = {}
    for fields in csv_rows:
        values = dict(zip(header, fields))
        produced[(values[label], values["approach"])] = values
    skipped = {(s.axis_value, s.approach): s.reason for s in table.skipped}
    expected_skips = _expected_skips(name, request)

    result = GateResult()
    for approach in request.approaches:
        for value in request.grid:
            key = (value, approach)
            result.attempted += 1
            where = f"{request.axis}={value!r} {approach}"
            if key in skipped:
                if key not in expected_skips:
                    result.fail(f"{where}: spurious skip ({skipped[key]})", False)
                continue
            if key not in produced:
                result.fail(f"{where}: row missing", True)
                continue
            if key in expected_skips:
                result.fail(f"{where}: zero mode solved instead of skipped", True)
                continue
            problem = _row_problem(produced[key], header)
            if not problem and name == "dimer_figures":
                problem = _closed_form_deviation(request, produced[key], approach)
            if problem:
                result.fail(f"{where}: {problem}", True)
    if len(produced) + len(skipped) != result.attempted or len(csv_rows) != len(produced):
        result.fail(f"{len(csv_rows)} CSV rows and {len(skipped)} skips "
                    f"for {result.attempted} grid points", True, row=False)
    return result
