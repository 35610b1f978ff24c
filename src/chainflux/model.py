"""Problem description for a qubit chain coupled to two thermal reservoirs.

Units and sign conventions, fixed package-wide:

* hbar = k_B = 1, so temperatures and energies share one unit.
* Temperatures are stored as T (never as beta), so T = 0 is exact and no
  infinities appear in the rate formulas.
* Master equation: drho/dt = -i[H, rho] + sum_j D_j(rho) with each D_j a
  completely positive dissipator.
* Heat flux: Q_j = Tr{H . D_j(rho_ss)} is positive when energy flows from
  reservoir j into the chain.
* Single-qubit basis order is (excited, ground), so sigma_z = diag(+1, -1)
  and sigma_plus maps the ground state to the excited state.  Site 0 is the
  leftmost (slowest-varying) tensor factor.
* Superoperators act on column-stacked density matrices,
  vec(rho) = rho.reshape(-1, order="F").
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

from .errors import (
    BadBathAttachment,
    LengthMismatch,
    NegativeTemperature,
    NonPositiveGap,
    NonPositiveRate,
    NTooLarge,
    SpecError,
)

# 2^5 qubits give a 1024 x 1024 dense generator, the largest test oracle this
# package builds.  The steady solves stay far smaller: the local one and the
# global one of a chain whose modes stay apart (the uniform chain's) run on
# its N x N correlation matrix, and the real block of any other chain only
# on the entries its generator couples to the diagonal.
MAX_QUBITS = 5

_CONVENTIONS_TEXT = (
    "hbar=1;kB=1;"
    "master=drho/dt=-i[H,rho]+sum_j D_j(rho);"
    "flux=Tr{H.D_j(rho)} positive into system;"
    "qubit basis=(excited,ground);site 0 leftmost;"
    "vec=column stacking"
)


def conventions_fingerprint() -> str:
    """Short stable hash of the package conventions, for output metadata."""
    return hashlib.sha256(_CONVENTIONS_TEXT.encode()).hexdigest()[:12]


@dataclass(frozen=True)
class BathSpec:
    """One thermal reservoir attached to a chain endpoint.

    temperature is in energy units (k_B = 1) and may be exactly zero, which
    means zero Bose occupation at every positive frequency.  gamma is the
    spontaneous emission rate of the attached qubit into this bath.
    """

    temperature: float
    gamma: float = 1.0
    attached_site: int = 0


@dataclass(frozen=True)
class ChainSpec:
    """A linear chain of qubits with a reservoir at each end.

    epsilons holds the N qubit gaps, couplings the N-1 nearest-neighbour
    hopping amplitudes.  Bath 0 attaches to site 0 and bath 1 to site N-1;
    for a single qubit both baths attach to site 0.
    """

    n_qubits: int
    epsilons: tuple
    couplings: tuple
    baths: tuple

    @property
    def dim(self) -> int:
        return 2 ** self.n_qubits


def validate_spec(raw: ChainSpec) -> ChainSpec:
    """Return a normalized copy of ``raw`` or raise listing every violation.

    Every value must be finite.  Normalization coerces the sequences to
    float tuples; validating an already valid spec returns an equal spec.
    """
    violations = []

    n = int(raw.n_qubits)
    if n < 1:
        violations.append((LengthMismatch, f"n_qubits must be >= 1, got {n}"))
    if n > MAX_QUBITS:
        violations.append(
            (NTooLarge, f"solver handles at most {MAX_QUBITS} qubits, got {n}")
        )

    eps = tuple(float(x) for x in raw.epsilons)
    cpl = tuple(float(x) for x in raw.couplings)
    if len(eps) != n:
        violations.append(
            (LengthMismatch, f"expected {n} qubit gaps, got {len(eps)}")
        )
    if len(cpl) != max(n - 1, 0):
        violations.append(
            (LengthMismatch, f"expected {max(n - 1, 0)} couplings, got {len(cpl)}")
        )
    for q, e in enumerate(eps):
        if e <= 0:
            violations.append((NonPositiveGap, f"gap of qubit {q} is {e}, must be > 0"))

    baths = tuple(BathSpec(float(b.temperature), float(b.gamma), b.attached_site)
                  for b in raw.baths)
    if len(baths) != 2:
        violations.append((BadBathAttachment, f"need exactly 2 baths, got {len(baths)}"))
    else:
        expected = (0, max(n - 1, 0))
        for j, (bath, site) in enumerate(zip(baths, expected)):
            if bath.attached_site != site:
                violations.append(
                    (BadBathAttachment,
                     f"bath {j} must attach to site {site}, got {bath.attached_site}")
                )
    for j, bath in enumerate(baths):
        if bath.temperature < 0:
            violations.append(
                (NegativeTemperature, f"bath {j} temperature is {bath.temperature}")
            )
        if bath.gamma <= 0:
            violations.append((NonPositiveRate, f"bath {j} gamma is {bath.gamma}"))
    fields = (("gap of qubit", eps), ("coupling", cpl),
              ("temperature of bath", [b.temperature for b in baths]),
              ("gamma of bath", [b.gamma for b in baths]))
    violations += [(SpecError, f"{name} {i} is {x}, must be finite")
                   for name, values in fields for i, x in enumerate(values)
                   if not math.isfinite(x)]

    if violations:
        names = tuple(cls.__name__ for cls, _ in violations)
        message = "; ".join(f"{name}: {msg}" for name, (_, msg) in zip(names, violations))
        if len(violations) == 1:
            raise violations[0][0](message, violations=names)
        raise SpecError(message, violations=names)

    return ChainSpec(n_qubits=n, epsilons=eps, couplings=cpl, baths=baths)


def chain(epsilons, couplings, t1, t2, gamma1=1.0, gamma2=1.0) -> ChainSpec:
    """Build and validate a chain spec with bath 1 on the left, bath 2 on the right."""
    eps = tuple(float(x) for x in epsilons)
    n = len(eps)
    baths = (
        BathSpec(temperature=t1, gamma=gamma1, attached_site=0),
        BathSpec(temperature=t2, gamma=gamma2, attached_site=max(n - 1, 0)),
    )
    return validate_spec(
        ChainSpec(n_qubits=n, epsilons=eps, couplings=tuple(couplings), baths=baths)
    )


def monomer(eps, t1, t2, gamma1=1.0, gamma2=1.0) -> ChainSpec:
    """Single qubit exchanging energy with both reservoirs."""
    return chain([eps], [], t1, t2, gamma1, gamma2)


def dimer(eps1, eps2, coupling, t1, t2, gamma1=1.0, gamma2=1.0) -> ChainSpec:
    """Two coupled qubits, one reservoir on each."""
    return chain([eps1, eps2], [coupling], t1, t2, gamma1, gamma2)
