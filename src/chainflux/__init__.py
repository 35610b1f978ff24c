"""Steady-state heat transport in qubit chains between two thermal baths.

The package builds both master-equation descriptions of the same chain (the
eigenbasis "global" route and the site-basis "local" route), solves for the
nonequilibrium steady state, and measures populations and heat fluxes; the
closed-form results the two routes admit are implemented separately as
cross-checks.
"""

from ._version import __version__
from .errors import (
    AnalyticFormMismatch,
    BadBathAttachment,
    ChainfluxError,
    ConfigSyntaxError,
    DegenerateKernel,
    DegenerateTransition,
    DimensionMismatch,
    IndexOutOfRange,
    LengthMismatch,
    NegativeTemperature,
    NoConvergence,
    NonPositiveFrequency,
    NonPositiveGap,
    NonPositiveRate,
    NotHermitian,
    NTooLarge,
    SpecError,
    SpecInvalid,
    UnknownKey,
    WorkerFailed,
)
from .model import (
    BathSpec,
    ChainSpec,
    chain,
    conventions_fingerprint,
    dimer,
    monomer,
    validate_spec,
)
from .operators import (
    EigenSystem,
    build_chain_hamiltonian,
    diagonalize,
    number_operator,
    site_operator,
)
from .lindblad import OMEGA_MIN, bose_occupation
from .steady import SteadySolution
from .observables import (
    DimerGlobalFlux,
    DimerGlobalSteadyState,
    SteadyReport,
    dimer_global_heat_flux_analytic,
    dimer_global_populations_analytic,
    dimer_local_heat_flux_analytic,
    dimer_local_populations_analytic,
    monomer_heat_flux_analytic,
    monomer_population_analytic,
    steady_report,
    universal_e,
)
from .sweep import (
    SweepRequest,
    SweepTable,
    apply_axis,
    emit_csv,
    figure_requests,
    format_config,
    parse_config,
    read_csv_table,
    run_sweep,
)
from .verify import run_verification

__all__ = [
    "AnalyticFormMismatch", "BadBathAttachment", "ChainfluxError", "ConfigSyntaxError",
    "DegenerateKernel", "DegenerateTransition", "DimensionMismatch", "IndexOutOfRange",
    "LengthMismatch", "NegativeTemperature", "NoConvergence", "NonPositiveFrequency",
    "NonPositiveGap", "NonPositiveRate", "NotHermitian", "NTooLarge", "SpecError",
    "SpecInvalid", "UnknownKey", "WorkerFailed",
    "BathSpec", "ChainSpec", "chain", "conventions_fingerprint", "dimer", "monomer",
    "validate_spec",
    "EigenSystem", "build_chain_hamiltonian", "diagonalize", "number_operator",
    "site_operator",
    "OMEGA_MIN", "bose_occupation", "SteadySolution",
    "DimerGlobalFlux", "DimerGlobalSteadyState", "SteadyReport",
    "dimer_global_heat_flux_analytic", "dimer_global_populations_analytic",
    "dimer_local_heat_flux_analytic", "dimer_local_populations_analytic",
    "monomer_heat_flux_analytic", "monomer_population_analytic",
    "steady_report", "universal_e",
    "SweepRequest", "SweepTable", "apply_axis", "emit_csv", "figure_requests",
    "format_config", "parse_config", "read_csv_table", "run_sweep",
    "run_verification",
]
