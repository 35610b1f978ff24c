"""Command-line front end: steady reports, sweeps, figure datasets, verification."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from ._version import __version__
from .errors import ChainfluxError
from .model import chain
from .observables import steady_reports
from .sweep import emit_csv, figure_requests, parse_config, run_sweep
from .verify import run_verification


def _parse_list(text: str) -> list:
    try:
        return [float(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma list of numbers: {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chainflux",
        description="Steady states and heat fluxes of a qubit chain between "
                    "two thermal reservoirs, in the eigenbasis (global) and "
                    "site-basis (local) descriptions.",
    )
    parser.add_argument("--version", action="version", version=f"chainflux {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    steady = sub.add_parser("steady", help="solve one chain and print a report")
    steady.add_argument("--epsilons", type=_parse_list, required=True,
                        help="comma list of qubit gaps, e.g. '1.5,1.5'")
    steady.add_argument("--couplings", type=_parse_list, default="",
                        help="comma list of hopping amplitudes (empty for one qubit)")
    steady.add_argument("--t1", type=float, required=True, help="temperature of reservoir 1")
    steady.add_argument("--t2", type=float, required=True, help="temperature of reservoir 2")
    steady.add_argument("--gamma1", type=float, default=1.0)
    steady.add_argument("--gamma2", type=float, default=1.0)
    steady.add_argument("--approach", choices=("local", "global", "both"), default="both")

    sweep = sub.add_parser("sweep", help="run a sweep from a config file and write CSV")
    sweep.add_argument("--config", required=True, help="path to a key = value sweep config")
    sweep.add_argument("--out", default="sweep.csv", help="output CSV path")

    figures = sub.add_parser("figures", help="emit the preset figure datasets")
    figures.add_argument("--outdir", default=".", help="directory for the CSV files")

    sub.add_parser("verify", help="check closed-form results against the numeric pipeline")
    return parser


def _print_report(report) -> None:
    print(f"approach: {report.approach}")
    pops = ", ".join(f"n{q + 1} = {p:.12g}" for q, p in enumerate(report.populations))
    print(f"  populations: {pops}")
    print(f"  heat flux:   Q1 = {report.fluxes[0]:.12g}, Q2 = {report.fluxes[1]:.12g}")
    for j, channels in enumerate(report.channel_fluxes):
        if len(channels) > 1:
            parts = ", ".join(f"omega = {w:.6g}: {q:.12g}" for w, q in channels)
            print(f"  reservoir {j + 1} channels: {parts}")
    print(f"  solver residual: {report.residual:.3e} "
          f"(rcond {report.rcond:.3e}, {report.unknowns} unknowns)")


def cmd_steady(args) -> int:
    spec = chain(args.epsilons, args.couplings, args.t1, args.t2, args.gamma1, args.gamma2)
    approaches = ("global", "local") if args.approach == "both" else (args.approach,)
    status = 0
    for approach, (report,) in zip(approaches, steady_reports([spec], approaches)):
        if isinstance(report, ChainfluxError):  # it does not hide the other approach's report
            print(f"approach: {approach}")
            print(f"error: {report}", file=sys.stderr)
            status = 2
        else:
            _print_report(report)
    return status


def cmd_sweep(args) -> int:
    text = Path(args.config).read_text()
    request = parse_config(text)
    table = run_sweep(request)
    emit_csv(table, args.out)
    skipped = f", {len(table.skipped)} skipped" if table.skipped else ""
    print(f"wrote {args.out} ({len(table.rows)} rows{skipped})")
    return 0


def cmd_figures(args) -> int:
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for name, request in figure_requests().items():
        table = run_sweep(request)
        path = outdir / f"{name}.csv"
        emit_csv(table, path)
        print(f"wrote {path} ({len(table.rows)} rows)")
    return 0


def cmd_verify(_args) -> int:
    return 0 if run_verification() else 1


def cli_main(argv=None) -> int:
    """Entry point returning an exit code: 0 success, 1 verification failure,
    2 usage or input error."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    handlers = {
        "steady": cmd_steady,
        "sweep": cmd_sweep,
        "figures": cmd_figures,
        "verify": cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except (ChainfluxError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
