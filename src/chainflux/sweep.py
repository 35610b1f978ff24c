"""Parameter sweeps over validated chain specs, with reproducible CSV output."""

from __future__ import annotations

import math
import os
import pickle
import signal
import sys
from collections.abc import Sequence
from dataclasses import dataclass, fields
from types import SimpleNamespace

import numpy as np

from ._version import __version__
from .errors import (
    ConfigSyntaxError,
    DegenerateKernel,
    DegenerateTransition,
    NoConvergence,
    SpecError,
    SpecInvalid,
    UnknownKey,
    WorkerFailed,
)
from .model import BathSpec, ChainSpec, chain, conventions_fingerprint, validate_spec
from .observables import steady_reports

AXES = ("t1", "t2", "k", "eps")
APPROACHES = ("global", "local")
OUTPUTS = ("populations", "heat_flux", "rho_diagonals")

_AXIS_LABEL = {"t1": "T1", "t2": "T2", "k": "K", "eps": "eps"}

_KEYS = frozenset({
    "n_qubits", "epsilon", "epsilons", "coupling", "couplings",
    "t1", "t2", "gamma1", "gamma2", "axis", "grid", "approaches", "outputs",
})

ROW_RESIDUAL_LIMIT = 1e-9


@dataclass(frozen=True)
class SweepRequest:
    base: ChainSpec
    axis: str
    grid: tuple
    approaches: tuple
    outputs: tuple


@dataclass(frozen=True)
class SkippedRow:
    axis_value: float
    approach: str
    reason: str


@dataclass(frozen=True, eq=False)
class SweepColumns(Sequence):
    """The solved rows of a sweep as columns, one entry per row.

    ``populations``, ``fluxes`` and ``diagonals`` (of ``rho_diagonals``)
    have one column per CSV column, none where the request does not output
    them.  ``columns[i]`` builds row i as a namespace of the field names,
    and a slice gives a tuple of such rows.
    """

    axis_value: np.ndarray
    approach: np.ndarray
    populations: np.ndarray
    fluxes: np.ndarray
    diagonals: np.ndarray
    residual: np.ndarray

    def __len__(self) -> int:
        return len(self.residual)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self[j] for j in range(len(self))[i])
        return SimpleNamespace(
            axis_value=self.axis_value[i].item(), approach=str(self.approach[i]),
            populations=tuple(self.populations[i].tolist()), fluxes=tuple(self.fluxes[i].tolist()),
            diagonals=tuple(self.diagonals[i].tolist()), residual=self.residual[i].item())


@dataclass(frozen=True)
class SweepTable:
    """A sweep's ``rows`` as :class:`SweepColumns`, its ``skipped`` points and its metadata."""

    request: SweepRequest
    rows: SweepColumns
    skipped: tuple
    metadata: tuple  # ordered (key, value) pairs

    def __post_init__(self):
        if not isinstance(self.rows, SweepColumns):  # rows given one by one, as by hand
            columns = [[getattr(row, f.name) for row in self.rows] for f in fields(SweepColumns)]
            object.__setattr__(self, "rows", SweepColumns(*map(np.array, columns)))


def apply_axis(spec: ChainSpec, axis: str, value: float) -> ChainSpec:
    """Copy of the validated ``spec`` with the swept field set to ``value``.

    Only the new value is checked, against its own field's rule:
    temperatures finite and >= 0, gaps finite and > 0, couplings finite
    (an N = 1 chain has none, so any K is accepted).  A value that breaks
    it sends the copy through :func:`validate_spec`, which raises its
    error, so an invalid point fails exactly as a validated spec would.
    """
    value = float(value)
    epsilons, couplings, baths = spec.epsilons, spec.couplings, list(spec.baths)
    if axis in ("t1", "t2"):
        j = int(axis == "t2")
        baths[j] = BathSpec(value, baths[j].gamma, baths[j].attached_site)
        valid = math.isfinite(value) and value >= 0
    elif axis == "k":
        couplings = (value,) * len(couplings)
        valid = math.isfinite(value) or not couplings
    elif axis == "eps":
        epsilons = (value,) * spec.n_qubits
        valid = math.isfinite(value) and value > 0
    else:
        raise ValueError(f"unknown sweep axis {axis!r}")
    out = ChainSpec(spec.n_qubits, epsilons, couplings, tuple(baths))
    return out if valid else validate_spec(out)


def _parse_floats(text: str, line: int) -> list:
    out = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            raise ConfigSyntaxError(f"empty entry in list {text!r}", line=line)
        try:
            out.append(float(token))
        except ValueError:
            raise ConfigSyntaxError(f"not a number: {token!r}", line=line) from None
    return out


def _parse_grid(text: str, line: int) -> tuple:
    if text.startswith(("linspace:", "logspace:")):
        kind, *parts = text.split(":")
        if len(parts) != 3:
            raise ConfigSyntaxError(
                f"{kind} descriptor needs start:stop:num, got {text!r}", line=line
            )
        try:
            start, stop = float(parts[0]), float(parts[1])
            num = int(parts[2])
        except ValueError:
            raise ConfigSyntaxError(f"bad {kind} descriptor {text!r}", line=line) from None
        if num < 1:
            raise ConfigSyntaxError("grid needs at least one point", line=line)
        if kind == "linspace":
            values = np.linspace(start, stop, num)
        else:
            if start <= 0 or stop <= 0:
                raise ConfigSyntaxError("logspace endpoints must be positive", line=line)
            values = np.logspace(np.log10(start), np.log10(stop), num)
        grid = tuple(float(v) for v in values)
    else:
        grid = tuple(_parse_floats(text, line))
    if not grid:
        raise ConfigSyntaxError("grid is empty", line=line)
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ConfigSyntaxError("grid must be strictly increasing", line=line)
    return grid


def parse_config(text: str) -> SweepRequest:
    """Parse the flat ``key = value`` sweep description.

    Unknown keys and malformed lines are hard errors carrying the line
    number; the assembled spec and every grid point are validated before the
    request is returned.
    """
    values = {}
    lines = {}
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        stripped = rawline.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigSyntaxError(f"expected 'key = value', got {rawline!r}", line=lineno)
        key, _, val = stripped.partition("=")
        key = key.strip().lower()
        val = val.strip()
        if key not in _KEYS:
            raise UnknownKey(f"unknown key {key!r}", line=lineno)
        if key in values:
            raise ConfigSyntaxError(f"duplicate key {key!r}", line=lineno)
        if not val:
            raise ConfigSyntaxError(f"empty value for {key!r}", line=lineno)
        values[key] = val
        lines[key] = lineno

    required = ["n_qubits", "t1", "t2", "axis", "grid"]
    missing = [k for k in required if k not in values]
    if "epsilon" not in values and "epsilons" not in values:
        missing.append("epsilon(s)")
    if missing:
        raise ConfigSyntaxError(f"missing required keys: {', '.join(missing)}")
    if "epsilon" in values and "epsilons" in values:
        raise ConfigSyntaxError("give either epsilon or epsilons, not both",
                                line=lines["epsilons"])
    if "coupling" in values and "couplings" in values:
        raise ConfigSyntaxError("give either coupling or couplings, not both",
                                line=lines["couplings"])

    def number(key, default=None):
        if key not in values:
            return default
        try:
            return float(values[key])
        except ValueError:
            raise ConfigSyntaxError(f"not a number: {values[key]!r}",
                                    line=lines[key]) from None

    try:
        n = int(values["n_qubits"])
    except ValueError:
        raise ConfigSyntaxError(f"not an integer: {values['n_qubits']!r}",
                                line=lines["n_qubits"]) from None

    if "epsilons" in values:
        epsilons = _parse_floats(values["epsilons"], lines["epsilons"])
    else:
        epsilons = [number("epsilon")] * n
    if "couplings" in values:
        couplings = _parse_floats(values["couplings"], lines["couplings"])
    elif "coupling" in values:
        couplings = [number("coupling")] * max(n - 1, 0)
    else:
        couplings = []
        if n > 1:
            raise ConfigSyntaxError("missing required keys: coupling(s)")

    axis = values["axis"].lower()
    if axis not in AXES:
        raise ConfigSyntaxError(f"axis must be one of {AXES}, got {values['axis']!r}",
                                line=lines["axis"])
    grid = _parse_grid(values["grid"], lines["grid"])

    approaches_text = values.get("approaches", "both").lower()
    if approaches_text == "both":
        approaches = APPROACHES
    else:
        approaches = tuple(sorted({a.strip() for a in approaches_text.split(",")}))
        bad = [a for a in approaches if a not in APPROACHES]
        if bad:
            raise ConfigSyntaxError(f"unknown approach {bad[0]!r}",
                                    line=lines.get("approaches"))
    outputs_text = values.get("outputs", "populations, heat_flux").lower()
    outputs = tuple(o.strip() for o in outputs_text.split(","))
    bad = [o for o in outputs if o not in OUTPUTS]
    if bad:
        raise ConfigSyntaxError(f"unknown output {bad[0]!r}", line=lines.get("outputs"))
    outputs = tuple(o for o in OUTPUTS if o in outputs)

    try:
        base = chain(epsilons, couplings, number("t1"), number("t2"),
                     number("gamma1", 1.0), number("gamma2", 1.0))
    except SpecError as err:
        raise SpecInvalid(str(err)) from err

    request = SweepRequest(base=base, axis=axis, grid=grid,
                           approaches=approaches, outputs=outputs)
    _validate_grid_points(request)
    return request


def _validate_grid_points(request: SweepRequest) -> None:
    for value in request.grid:
        try:
            apply_axis(request.base, request.axis, value)
        except SpecError as err:
            raise SpecInvalid(
                f"grid point {request.axis} = {value!r}: {err}"
            ) from err


def format_config(request: SweepRequest) -> str:
    """Canonical text form of a request; parses back to an equal request."""
    base = request.base

    def fmt(x):
        return repr(float(x))

    lines = [
        f"n_qubits = {base.n_qubits}",
        f"epsilons = {', '.join(fmt(e) for e in base.epsilons)}",
    ]
    if base.couplings:
        lines.append(f"couplings = {', '.join(fmt(k) for k in base.couplings)}")
    lines += [
        f"t1 = {fmt(base.baths[0].temperature)}",
        f"t2 = {fmt(base.baths[1].temperature)}",
        f"gamma1 = {fmt(base.baths[0].gamma)}",
        f"gamma2 = {fmt(base.baths[1].gamma)}",
        f"axis = {request.axis}",
        f"grid = {', '.join(fmt(v) for v in request.grid)}",
        f"approaches = {', '.join(request.approaches)}",
        f"outputs = {', '.join(request.outputs)}",
    ]
    return "\n".join(lines) + "\n"


_SKIP_REASONS = {
    DegenerateTransition: "degenerate-transition (omega = {0.omega:.3e})",
    DegenerateKernel: "degenerate-kernel (rcond = {0.rcond:.3e})",
}


def _row_task(args):
    """Columns and skips of one chunk of (grid value, spec) points, per approach of the request.

    The chunk's specs are solved under every approach in one call
    (:func:`steady_reports`), which builds each chain's H and eigensystem
    once for both approaches, even for a chain whose eigenbasis route
    degenerates; a point whose eigenbasis degenerates or whose steady
    state is not unique becomes an annotated skip.  The rows leave as arrays.
    """
    request, points = args
    values = np.array([value for value, _ in points])
    out = []
    for approach, results in zip(request.approaches,
                                 steady_reports([spec for _, spec in points], request.approaches)):
        rows = np.flatnonzero(~np.isin(np.arange(len(points)), list(results.errors)))
        empty = np.zeros((len(rows), 0))
        columns = SweepColumns(
            axis_value=values[rows], approach=np.full(len(rows), approach, dtype=object),
            populations=results.populations[rows] if "populations" in request.outputs else empty,
            fluxes=results.fluxes[rows] if "heat_flux" in request.outputs else empty,
            diagonals=(results.rho_diagonals(rows) if "rho_diagonals" in request.outputs
                       else empty),
            residual=results.residual[rows],
        )
        skips = tuple(SkippedRow(axis_value=points[i][0], approach=approach,
                                 reason=_SKIP_REASONS[type(error)].format(error))
                      for i, error in sorted(results.errors.items()))
        out.append((columns, skips))
    return tuple(out)


def _worker(tasks, pipe) -> None:
    """Run ``tasks`` in a forked sweep worker and write their results to ``pipe``; never returns.

    ``pipe`` is the (read, write) pair of file descriptors of the worker's
    pipe; the worker closes the read end.  The results go as one pickled
    list: each task's :func:`_row_task` result, or the exception the first
    failing task raised, which ends the list.  The worker ends with
    ``os._exit``, so it flushes none of the stdio buffers it shares with its
    parent and runs no ``atexit`` handler; it exits 0 once its results are
    written and 1 otherwise.
    """
    status = 1
    try:
        os.close(pipe[0])
        results = []
        for task in tasks:
            try:
                results.append(_row_task(task))
            except Exception as err:  # sent back, and raised by the parent
                results.append(err)
                break
        with open(pipe[1], "wb") as out:
            pickle.dump(results, out, protocol=pickle.HIGHEST_PROTOCOL)
        status = 0
    except Exception:
        sys.excepthook(*sys.exc_info())
    finally:
        os._exit(status)


def _fork_join(tasks, workers: int) -> list:
    """The :func:`_row_task` result of each task, from ``workers`` forked processes, in task order.

    Worker w runs tasks w, w + workers, ... and sends them back through its
    own pipe (:func:`_worker`); this process only forks, reads the pipes
    one after the other and reaps each worker.  A worker computes all of
    its tasks before it writes, so reading one pipe to its end never holds
    up another worker's computation.  The exception of the first failing
    task, in task order, is raised as it was raised in the worker; a worker
    that ends without its results raises WorkerFailed with its exit
    status.  On every path out, including an interrupt, the workers not
    yet reaped are killed and reaped.
    """
    workers = min(workers, len(tasks))
    children = []  # (pid, read end of its pipe) of every worker not yet reaped
    try:
        for w in range(workers):
            read, write = os.pipe()
            try:
                pid = os.fork()
                if pid == 0:
                    _worker(tasks[w::workers], (read, write))
            except BaseException:
                os.close(read)
                raise
            finally:
                os.close(write)
            children.append((pid, open(read, "rb")))
        results = [None] * len(tasks)
        for w in range(workers):
            pid, pipe = children[0]
            with pipe:
                payload = pipe.read()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            children.pop(0)
            if status != 0 or not payload:
                raise WorkerFailed(f"sweep worker {pid} exited with status {status} "
                                   "without sending its results", status=status)
            for i, result in zip(range(w, len(tasks), workers), pickle.loads(payload)):
                results[i] = result
    finally:
        for pid, pipe in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    for result in results:  # a worker stops at its first failing task
        if isinstance(result, Exception):
            raise result
    return results


def run_sweep(request: SweepRequest, workers: int = 1) -> SweepTable:
    """Run the full numeric pipeline at every (grid point, approach).

    The first grid point's spec is validated in full, once per sweep
    (:func:`validate_spec`); every grid value is checked once, against its
    own field's rule (:func:`apply_axis`), and an invalid one raises the
    SpecError :func:`validate_spec` raises on its spec.  The solved rows
    are joined as columns in (approach, axis value) order and are identical
    for any worker count; points where the eigenbasis construction
    degenerates or the steady state is not unique are recorded as
    annotated skips instead of aborting the run.  A row residual above
    ROW_RESIDUAL_LIMIT raises NoConvergence naming the worst row, the first
    of the largest.

    The grid goes in contiguous chunks, each one task that solves its points
    under every approach of the request in one :func:`steady_reports` call
    (:func:`_row_task`), so both approaches of a chain share its H,
    eigensystem and site operators, built in that call and dropped after
    it: one chunk with ``workers`` = 1, or 2 * ``workers`` chunks over at
    most ``workers`` forked processes, none for a single chunk
    (:func:`_fork_join`), which send back columns.  Where ``os.fork`` does
    not exist the sweep runs as with ``workers`` = 1.  A task solves each
    approach's rows in stacks grouped by set of unknowns and zero rates,
    across chains: a temperature sweep's chunk is one stacked solve per set
    of zero rates, and the chains of a K or eps scan that couple the same
    entries are solved together.
    """
    points = []
    base = request.base
    for value in request.grid:
        spec = apply_axis(base, request.axis, value)
        if not points:  # the fields no point changes, validated once
            base = spec = validate_spec(spec)
        points.append((value, spec))
    if not hasattr(os, "fork"):
        workers = 1
    pieces = 2 * workers if workers > 1 else 1
    size = max(1, -(-len(points) // pieces))
    tasks = [(request, tuple(points[i:i + size])) for i in range(0, len(points), size)]
    if workers > 1 and len(tasks) > 1:
        chunks = _fork_join(tasks, workers)
    else:
        chunks = [_row_task(t) for t in tasks]
    blocks = [chunk[a] for a in range(len(request.approaches)) for chunk in chunks]
    rows = SweepColumns(*(np.concatenate([getattr(columns, f.name) for columns, _ in blocks])
                          for f in fields(SweepColumns)))
    skipped = tuple(skip for _, skips in blocks for skip in skips)
    if len(rows) and rows.residual.max() > ROW_RESIDUAL_LIMIT:
        worst = rows[int(rows.residual.argmax())]
        raise NoConvergence(
            f"row residual {worst.residual:.3e} exceeds {ROW_RESIDUAL_LIMIT:.1e} at "
            f"{request.axis} = {worst.axis_value!r}, approach {worst.approach}"
        )

    metadata = (("tool", f"chainflux {__version__}"),
                ("conventions", conventions_fingerprint()))
    return SweepTable(request=request, rows=rows, skipped=skipped, metadata=metadata)


def _columns(table: SweepTable) -> list:
    request = table.request
    cols = [_AXIS_LABEL[request.axis], "approach"]
    if "populations" in request.outputs:
        cols += [f"n{q + 1}" for q in range(request.base.n_qubits)]
    if "heat_flux" in request.outputs:
        cols += ["Q1", "Q2"]
    if "rho_diagonals" in request.outputs:
        cols += [f"rho_{i + 1}" for i in range(request.base.dim)]
    cols.append("residual")
    return cols


def emit_csv(table: SweepTable, path) -> None:
    """Write the table as CSV with '#' metadata lines, LF endings, 17 digits.

    Each row is one printf-style format over ``zip`` of the table's columns
    as Python lists; "%.17g" gives the same bytes as ``f"{x:.17g}"``.
    """
    lines = []
    for key, value in table.metadata:
        lines.append(f"# {key}: {value}")
    for cfgline in format_config(table.request).splitlines():
        lines.append(f"# config: {cfgline}")
    for skip in table.skipped:
        lines.append(
            f"# skipped: {skip.reason} "
            f"{table.request.axis}={skip.axis_value:.17g} "
            f"approach={skip.approach}"
        )
    columns = _columns(table)
    lines.append(",".join(columns))
    row_format = ",".join("%s" if name == "approach" else "%.17g" for name in columns)
    rows = table.rows
    values = [rows.axis_value.tolist(), rows.approach.tolist(), *rows.populations.T.tolist(),
              *rows.fluxes.T.tolist(), *rows.diagonals.T.tolist(), rows.residual.tolist()]
    lines += [row_format % row for row in zip(*values)]
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def figure_requests() -> dict:
    """Preset sweeps behind the ``figures`` command.

    All four presets fix K = 1, T2 = 0, unit rates, and sweep T1 over 200
    log-spaced points covering [0.01, 100]; the gap is 1.5 for the
    population figure and {1.001, 2.5, 10} K for the three flux panels.
    """
    grid = tuple(float(v) for v in np.logspace(-2.0, 2.0, 200))
    presets = {}
    presets["figure2"] = SweepRequest(
        base=chain([1.5, 1.5], [1.0], t1=0.01, t2=0.0),
        axis="t1", grid=grid, approaches=APPROACHES,
        outputs=("populations", "heat_flux"),
    )
    for name, eps in (("figure3a", 1.001), ("figure3b", 2.5), ("figure3c", 10.0)):
        presets[name] = SweepRequest(
            base=chain([eps, eps], [1.0], t1=0.01, t2=0.0),
            axis="t1", grid=grid, approaches=APPROACHES,
            outputs=("heat_flux",),
        )
    return presets


def read_csv_table(path):
    """Read back an emitted CSV: (metadata lines, column names, rows).

    Numeric fields come back as floats; the approach column stays a string.
    """
    metadata = []
    header = None
    rows = []
    with open(path, newline="") as fh:
        for line in fh.read().splitlines():
            if not line:
                continue
            if line.startswith("#"):
                metadata.append(line)
                continue
            if header is None:
                header = line.split(",")
                continue
            fields = line.split(",")
            parsed = tuple(field if name == "approach" else float(field)
                           for name, field in zip(header, fields))
            rows.append(parsed)
    return metadata, header, rows
