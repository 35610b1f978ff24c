"""Built-in verification: closed-form results against the numeric pipeline.

Each block exercises one family of analytic results over a parameter grid
and records the worst deviation from the full numeric route
(build -> steady state -> observable).  The analytic functions are never
used inside that route, so agreement here is a genuine cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lindblad import OMEGA_MIN, assemble, build_local_dissipator
from .model import dimer, monomer
from .observables import (
    dimer_global_heat_flux_analytic,
    dimer_global_populations_analytic,
    dimer_local_heat_flux_analytic,
    dimer_local_populations_analytic,
    monomer_heat_flux_analytic,
    monomer_population_analytic,
    steady_reports,
)

SEED = 1738


@dataclass(frozen=True)
class Check:
    name: str
    deviation: float
    tolerance: float

    @property
    def ok(self) -> bool:
        return self.deviation <= self.tolerance


def _solved(reports):
    """The columns of one approach, raising the error of its first unsolved row."""
    if reports.errors:
        raise reports.errors[min(reports.errors)]
    return reports


def _monomer_block(rng, n_samples=200):
    dev_matrix = dev_pop = dev_flux = 0.0
    points = []
    for _ in range(n_samples):
        eps = rng.uniform(0.0, 5.0) or 1.0
        t1, t2 = rng.uniform(0.0, 10.0, size=2)
        gamma = rng.uniform(0.0, 2.0) or 1.0
        spec = monomer(eps, t1, t2, gamma, gamma)
        # both generators share H: their dissipators, reservoir by reservoir
        g = assemble(spec, "global")
        for D, bath in zip(g.dissipators, spec.baths):
            dev_matrix = max(dev_matrix, np.abs(D - build_local_dissipator(spec, bath)).max())
        points.append((spec, eps, t1, t2, gamma))
    (reports,) = steady_reports([spec for spec, *_ in points], ("global",))
    for (_, eps, t1, t2, gamma), report in zip(points, _solved(reports)):
        dev_pop = max(dev_pop, abs(report.populations[0]
                                   - monomer_population_analytic(eps, t1, t2)))
        dev_flux = max(dev_flux, abs(report.fluxes[0]
                                     - monomer_heat_flux_analytic(eps, t1, t2, gamma, gamma)))
    return [
        Check("monomer global == local generator", dev_matrix, 1e-12),
        Check("monomer population vs e(eps)/2", dev_pop, 1e-10),
        Check("monomer flux vs closed form", dev_flux, 1e-9),
    ]


def _dimer_population_blocks(t1_grid):
    eps, coupling = 1.5, 1.0
    dev_diag = dev_coh = dev_n = dev_loc = 0.0
    specs = [dimer(eps, eps, coupling, t1, 0.0) for t1 in t1_grid]
    glob, local = map(_solved, steady_reports(specs, ("global", "local")))
    for t1, report, loc in zip(t1_grid, glob, local):
        es = report.chain.eigensystem
        rho_eig = es.vectors.conj().T @ report.rho @ es.vectors
        ana = dimer_global_populations_analytic(eps, coupling, t1, 0.0)
        diff = np.abs(np.real(np.diag(rho_eig)) - np.array(ana.diagonals_by_energy()))
        dev_diag = max(dev_diag, diff.max())
        # ascending order for eps > K is s1, s4, s3, s2
        dev_coh = max(dev_coh, abs(rho_eig[2, 1]))
        dev_n = max(dev_n, abs(report.populations[0] - ana.n1),
                    abs(report.populations[1] - ana.n2))
        n1_ana, n2_ana = dimer_local_populations_analytic(eps, coupling, t1, 0.0)
        dev_loc = max(dev_loc, abs(loc.populations[0] - n1_ana),
                      abs(loc.populations[1] - n2_ana))
    return [
        Check("dimer eigenbasis diagonals vs closed form", dev_diag, 1e-8),
        Check("dimer steady coherence rho_34", dev_coh, 1e-8),
        Check("dimer global populations vs (e1+e2)/4", dev_n, 1e-8),
        Check("dimer local populations vs closed form", dev_loc, 1e-8),
    ]


def _dimer_flux_block(t1_grid):
    dev_glob = dev_loc = 0.0
    points = [(eps, t1) for eps in (1.001, 2.5, 10.0) for t1 in t1_grid]
    specs = [dimer(eps, eps, 1.0, t1, 0.0) for eps, t1 in points]
    glob, local = map(_solved, steady_reports(specs, ("global", "local")))
    for (eps, t1), g, loc in zip(points, glob, local):
        ana = dimer_global_heat_flux_analytic(eps, 1.0, t1, 0.0)
        dev_glob = max(dev_glob, abs(g.fluxes[0] - ana.total))
        dev_loc = max(dev_loc, abs(loc.fluxes[0]
                                   - dimer_local_heat_flux_analytic(eps, 1.0, t1, 0.0)))
    return [
        Check("dimer global flux vs channel sum", dev_glob, 1e-9),
        Check("dimer local flux vs weighted monomer form", dev_loc, 1e-9),
    ]


def _field_grid_block():
    eps = 1.5
    dev = 0.0
    points = [(t1, coupling) for t1 in np.linspace(0.0, 10.0, 20)
              for coupling in np.linspace(0.15, 3.0, 20)]
    specs = [dimer(eps, eps, coupling, t1, 0.0) for t1, coupling in points]
    glob, local = steady_reports(specs, ("global", "local"))
    for (t1, coupling), g, loc in zip(points, glob, _solved(local)):
        n1_ana, n2_ana = dimer_local_populations_analytic(eps, coupling, t1, 0.0)
        dev = max(dev, abs(loc.populations[0] - n1_ana),
                  abs(loc.populations[1] - n2_ana),
                  abs(loc.fluxes[0]
                      - dimer_local_heat_flux_analytic(eps, coupling, t1, 0.0)))
        if abs(eps - coupling) <= OMEGA_MIN:
            continue
        if isinstance(g, Exception):
            raise g
        ana_pop = dimer_global_populations_analytic(eps, coupling, t1, 0.0)
        ana_flux = dimer_global_heat_flux_analytic(eps, coupling, t1, 0.0)
        dev = max(dev, abs(g.populations[0] - ana_pop.n1),
                  abs(g.fluxes[0] - ana_flux.total))
    return [Check("analytic vs numeric over (T1, K) grid", dev, 1e-8)]


def run_verification(printer=print) -> bool:
    """Run every block, print one line per check, return overall success."""
    rng = np.random.default_rng(SEED)
    t1_grid = np.logspace(np.log10(0.01), np.log10(20.0), 50)
    checks = []
    checks += _monomer_block(rng)
    checks += _dimer_population_blocks(t1_grid)
    checks += _dimer_flux_block(t1_grid)
    checks += _field_grid_block()
    ok = True
    for check in checks:
        status = "PASS" if check.ok else "FAIL"
        printer(f"{status}  {check.name}: max deviation {check.deviation:.3e} "
                f"(tolerance {check.tolerance:.1e})")
        ok = ok and check.ok
    return ok
