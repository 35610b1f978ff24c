"""Parameter sweeps over validated chain specs, with reproducible CSV output.

A sweep runs in the calling process, its whole grid in one stack of
chains: every row is solved, and its outputs read, from N x N data, in
stacks of at most ``observables._GRID_ELEMENTS`` elements.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, fields
from types import SimpleNamespace

import numpy as np

from ._version import __version__
from .errors import (ConfigSyntaxError, DegenerateKernel, DegenerateTransition, NoConvergence,
                     SpecError, SpecInvalid, UnknownKey)
from .lindblad import chain_operators
from .model import BathSpec, ChainSpec, chain, conventions_fingerprint, validate_spec
from .observables import chain_reports
from .operators import chain_arrays

AXES = ("t1", "t2", "k", "eps")
APPROACHES = ("global", "local")
OUTPUTS = ("populations", "heat_flux", "rho_diagonals")

_AXIS_LABEL = {"t1": "T1", "t2": "T2", "k": "K", "eps": "eps"}

_KEYS = frozenset({
    "n_qubits", "epsilon", "epsilons", "coupling", "couplings",
    "t1", "t2", "gamma1", "gamma2", "axis", "grid", "approaches", "outputs",
})


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


def _valid_values(spec: ChainSpec, axis: str, values: np.ndarray) -> np.ndarray:
    """Whether each float of ``values`` meets the rule of the field ``axis`` sets in ``spec``.

    Temperatures finite and >= 0, gaps finite and > 0, couplings finite
    (an N = 1 chain has none, so any K is accepted).
    """
    if axis not in AXES:
        raise ValueError(f"unknown sweep axis {axis!r}")
    if axis == "k":
        return np.isfinite(values) | (not spec.couplings)
    return np.isfinite(values) & (values > 0 if axis == "eps" else values >= 0)


def _with_value(spec: ChainSpec, axis: str, value: float) -> ChainSpec:
    """Copy of ``spec`` with the swept field set to the float ``value``, not validated."""
    baths = list(spec.baths)
    if axis in ("t1", "t2"):
        j = int(axis == "t2")
        baths[j] = BathSpec(value, baths[j].gamma, baths[j].attached_site)
    couplings = (value,) * len(spec.couplings) if axis == "k" else spec.couplings
    epsilons = (value,) * spec.n_qubits if axis == "eps" else spec.epsilons
    return ChainSpec(spec.n_qubits, epsilons, couplings, tuple(baths))


def apply_axis(spec: ChainSpec, axis: str, value: float) -> ChainSpec:
    """Copy of the validated ``spec`` with the swept field set to ``value``.

    Only the new value is checked, against its own field's rule
    (:func:`_valid_values`).  A value that breaks it sends the copy
    through :func:`validate_spec`, which raises its error, so an invalid
    point fails exactly as a validated spec would.
    """
    out = _with_value(spec, axis, float(value))
    return out if _valid_values(spec, axis, np.array(float(value))) else validate_spec(out)


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


def _check_known(names, known, what, line=None) -> None:
    bad = [name for name in names if name not in known]
    if bad:
        raise ConfigSyntaxError(f"unknown {what} {bad[0]!r}", line=line)


def parse_config(text: str) -> SweepRequest:
    """Parse the flat ``key = value`` sweep description.

    Unknown keys and malformed lines are hard errors carrying the line
    number; the assembled spec and every grid point are validated before the
    request is returned.  Listed approaches keep their written order, in
    which the sweep writes their rows, and may not repeat; ``both`` is
    global, then local.
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
        approaches = tuple(a.strip() for a in approaches_text.split(","))
        _check_known(approaches, APPROACHES, "approach", lines.get("approaches"))
        if len(set(approaches)) < len(approaches):
            raise ConfigSyntaxError(f"approaches repeat: {approaches}", line=lines["approaches"])
    outputs_text = values.get("outputs", "populations, heat_flux").lower()
    outputs = tuple(o.strip() for o in outputs_text.split(","))
    _check_known(outputs, OUTPUTS, "output", lines.get("outputs"))
    outputs = tuple(o for o in OUTPUTS if o in outputs)

    try:
        base = chain(epsilons, couplings, number("t1"), number("t2"),
                     number("gamma1", 1.0), number("gamma2", 1.0))
    except SpecError as err:
        raise SpecInvalid(str(err)) from err

    for i in np.flatnonzero(~_valid_values(base, axis, np.array(grid)))[:1].tolist():
        try:
            apply_axis(base, axis, grid[i])
        except SpecError as err:
            raise SpecInvalid(f"grid point {axis} = {grid[i]!r}: {err}") from err
    return SweepRequest(base=base, axis=axis, grid=grid, approaches=approaches, outputs=outputs)


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
        f"grid = {', '.join(map(repr, map(float, request.grid)))}",
        f"approaches = {', '.join(request.approaches)}",
        f"outputs = {', '.join(request.outputs)}",
    ]
    return "\n".join(lines) + "\n"


_SKIP_REASONS = {
    DegenerateTransition: "degenerate-transition (omega = {0.omega:.3e})",
    DegenerateKernel: "degenerate-kernel (rcond = {0.rcond:.3e})",
}


def _row_task(request: SweepRequest, values: np.ndarray) -> tuple:
    """The rows of the grid ``values`` (floats) as columns, and its skips, by approach, then value.

    The grid's chains are one stack built from arrays: one chain for a
    temperature sweep or a K scan of one qubit, else one per point.  Its
    points are solved under every approach in one :func:`chain_reports`
    call, from N x N data in stacks of at most ``_GRID_ELEMENTS`` elements
    (:mod:`chainflux.observables`), which bounds the memory of a sweep; a
    point whose eigenbasis degenerates or whose steady state is not unique
    becomes an annotated skip.  A row that :func:`chain_reports` gave a
    NoConvergence raises it, with the row's axis value and approach: the
    failed row with the largest residual, the first NaN or else the first
    of the largest.  The rows leave as arrays.
    """
    base, k = request.base, len(values)
    epsilons, couplings, sites = chain_arrays([base])
    baths = np.array([[(b.temperature, b.gamma) for b in base.baths]], dtype=float).repeat(k, 0)
    chain = np.zeros(k, dtype=int)
    if request.axis in ("t1", "t2"):
        baths[:, AXES.index(request.axis), 0] = values
    elif request.axis == "eps" or couplings.size:  # a chain per point
        epsilons, couplings, sites = (a.repeat(k, 0) for a in (epsilons, couplings, sites))
        (epsilons if request.axis == "eps" else couplings)[:] = values[:, None]
        chain = np.arange(k)
    reports = chain_reports(chain_operators(epsilons, couplings, sites), chain, baths,
                            request.approaches)
    blocks, skipped, failed = [], [], []
    for approach, results in zip(request.approaches, reports):
        solved = np.ones(k, dtype=bool)
        solved[list(results.errors)] = False
        rows = np.flatnonzero(solved)
        empty = np.zeros((len(rows), 0))
        blocks.append(SweepColumns(
            axis_value=values[rows], approach=np.full(len(rows), approach, dtype=object),
            populations=results.populations[rows] if "populations" in request.outputs else empty,
            fluxes=results.fluxes[rows] if "heat_flux" in request.outputs else empty,
            diagonals=(results.rho_diagonals(rows) if "rho_diagonals" in request.outputs
                       else empty),
            residual=results.residual[rows],
        ))
        for i, error in sorted(results.errors.items()):
            if isinstance(error, NoConvergence):
                failed.append((results.residual[i], f"{error} at {request.axis} = "
                               f"{values[i].item()!r}, approach {approach}"))
            else:
                skipped.append(SkippedRow(axis_value=values[i].item(), approach=approach,
                                          reason=_SKIP_REASONS[type(error)].format(error)))
    if failed:
        raise NoConvergence(failed[int(np.argmax([residual for residual, _ in failed]))][1])
    return SweepColumns(*(np.concatenate([getattr(block, f.name) for block in blocks])
                          for f in fields(SweepColumns))), tuple(skipped)


def run_sweep(request: SweepRequest, workers: int = 1) -> SweepTable:
    """Run the full numeric pipeline at every (grid point, approach), in this process.

    The grid becomes one float array.  The first grid point's spec is
    validated in full, once per sweep (:func:`validate_spec`); the whole
    array is checked against the swept field's rule at once, and the first
    invalid value in grid order raises the SpecError :func:`validate_spec`
    raises on its spec (:func:`apply_axis`).  No spec is built for the
    other points.  A request :func:`parse_config` would refuse and one
    that repeats an approach raise ConfigSyntaxError before any row is
    solved; the grid's order is checked after its values.

    The whole grid goes to one :func:`_row_task` call; points where the
    eigenbasis construction degenerates or the steady state is not unique
    are recorded as annotated skips instead of aborting the run.  A row
    whose residual fails the one check of :func:`chain_reports`, NaN or
    above RESIDUAL_TOL * max(|L|_F, 1), raises NoConvergence naming the
    worst such row, its axis value and its approach.

    ``workers`` is ignored.  It is kept only because the benchmark harness
    passes ``workers=2`` for its ``kscan4_par`` workload; the benchmark
    change that retires that argument removes it (ROADMAP item 1).
    """
    if not request.grid:
        raise ConfigSyntaxError("grid is empty")
    if request.axis not in AXES:
        raise ConfigSyntaxError(f"axis must be one of {AXES}, got {request.axis!r}")
    if not request.approaches:
        raise ConfigSyntaxError("no approach")
    _check_known(request.approaches, APPROACHES, "approach")
    if len(set(request.approaches)) < len(request.approaches):
        raise ConfigSyntaxError(f"approaches repeat: {request.approaches}")
    _check_known(request.outputs, OUTPUTS, "output")
    values = np.array(request.grid, dtype=float)
    # the fields no point changes, validated once, then every value at once
    base = validate_spec(_with_value(request.base, request.axis, values[0].item()))
    for i in np.flatnonzero(~_valid_values(base, request.axis, values))[:1].tolist():
        apply_axis(base, request.axis, values[i])
    if (values[1:] <= values[:-1]).any():
        raise ConfigSyntaxError("grid must be strictly increasing")
    rows, skipped = _row_task(request, values)
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
    as Python lists; "%.17g" gives the same bytes as ``f"{x:.17g}"``.  Each
    grid value is formatted once, and its string serves every approach.
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
    row_format = ",".join("%s" if i < 2 else "%.17g" for i in range(len(columns)))
    rows, axis = table.rows, table.rows.axis_value.tolist()
    grid = {value: "%.17g" % value for value in set(axis)}
    values = [[grid[value] for value in axis], rows.approach.tolist(), *rows.populations.T.tolist(),
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
    metadata, header, rows = [], None, []
    with open(path, newline="") as fh:
        for line in filter(None, fh.read().splitlines()):
            if line.startswith("#"):
                metadata.append(line)
            elif header is None:
                header = line.split(",")
            else:
                rows.append(tuple(field if name == "approach" else float(field)
                                  for name, field in zip(header, line.split(","))))
    return metadata, header, rows
