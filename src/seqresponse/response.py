"""First-order linear response of the equivariant family.

The response density at index n is the truncated causal series

    eta_n ~= g_{n-1} + sum_{k=1..K} L_{n-1} ... L_{n-k} g_{n-k-1},

the coordinate realization of the Neumann expansion of the sequence
space resolvent applied to the forcing.  The bare k = 0 term g_{n-1} is
required for the one-step identity eta_n = L_{n-1} eta_{n-1} + g_{n-1}
to close, and the finite-difference oracle confirms this convention.
All validation comparisons are taken in L^1 (the weak norm, where
convergence of the difference quotients is guaranteed); W^{1,1} numbers
are diagnostics only.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import grid as gridmod
from . import noise as noisemod
from . import sequence as seqmod
from . import transfer
from .errors import TailNotSmall, WindowExceeded
from .grid import DensityGrid
from .sequence import DeterministicEntry, EquivariantFamily, SequenceSystem


@dataclass(frozen=True)
class Forcing:
    """Forcing densities g_n for n in [n_lo, n_hi]; every g_n has zero mass."""

    n_lo: int
    densities: tuple

    @property
    def n_hi(self) -> int:
        return self.n_lo + len(self.densities) - 1

    def density(self, n: int) -> DensityGrid:
        if not self.n_lo <= n <= self.n_hi:
            raise WindowExceeded(f"forcing index {n} outside [{self.n_lo}, {self.n_hi}]")
        return self.densities[n - self.n_lo]

    def sup_w11(self) -> float:
        return max(gridmod.norm_w11(g) for g in self.densities)


def forcing(sys: SequenceSystem, family: EquivariantFamily) -> Forcing:
    """Derivative of the perturbed operator along the reference family.

    Deterministic entries: g_n = D mu_{n+1} with D u = -(X u)'.  Noisy
    entries: g_n = -(A_n (fdot mu_n))' from the cached eps = 0 kernel A_n.
    """
    out = []
    for n in range(family.n_lo, family.n_hi + 1):
        entry = sys.entry(n)
        if isinstance(entry, DeterministicEntry):
            if n + 1 <= family.n_hi:
                mu_next = family.density(n + 1)
            else:
                mu_next = transfer.apply(sys.operator(n, 0.0), family.density(n))
            g = transfer.d_operator(entry.kick, mu_next)
        else:
            g = noisemod.kernel_forcing(entry.drift, sys.operator(n, 0.0), family.density(n))
        out.append(g)
    return Forcing(n_lo=family.n_lo, densities=tuple(out))


@dataclass(frozen=True)
class ResponseReport:
    """Truncated response series with its certified tail bound."""

    n_lo: int
    etas: tuple
    truncation_order: int
    tail_bound: float
    max_mass_defect: float

    @property
    def n_hi(self) -> int:
        return self.n_lo + len(self.etas) - 1

    def eta(self, n: int) -> DensityGrid:
        if not self.n_lo <= n <= self.n_hi:
            raise WindowExceeded(f"response index {n} outside [{self.n_lo}, {self.n_hi}]")
        return self.etas[n - self.n_lo]


def truncation_order(c: float, rate: float, sup_g: float, tol: float, max_depth: int) -> int:
    """Smallest K with C rate^K sup||g|| / (1-rate) <= tol, capped at max_depth."""
    if sup_g <= 0.0:
        return 1
    k = int(np.ceil(np.log(tol * (1.0 - rate) / (c * sup_g)) / np.log(rate)))
    return int(np.clip(k, 1, max_depth))


def neumann_response(
    sys: SequenceSystem,
    family: EquivariantFamily,
    g: Forcing,
    k_order: int,
    tail_constants: tuple[float, float],
    tol: float | None = None,
) -> ResponseReport:
    """Truncated Neumann series at every index the window depth allows.

    Reported indices are n in [n_lo + K + 1, n_hi] so every eta_n uses
    exactly K + 1 terms; each series is a backward accumulation
    acc <- L_m acc + g_m over m = n-K .. n-1 seeded with g_{n-K-1}.
    One pass over m pushes the accumulators of every n that L_m serves,
    at most K of them, as one block.  The unperturbed operators (eps = 0)
    propagate the series.
    """
    if k_order < 1:
        raise ValueError("truncation order must be >= 1")
    c, rate = tail_constants
    report_lo = family.n_lo + k_order + 1
    if report_lo > family.n_hi:
        raise WindowExceeded(
            f"window [{family.n_lo}, {family.n_hi}] too shallow for truncation order {k_order}"
        )
    tail = c * rate**k_order * g.sup_w11() / (1.0 - rate)
    if tol is not None and tail > tol:
        needed = truncation_order(c, rate, g.sup_w11(), tol, 10**6)
        raise TailNotSmall(f"tail bound {tail:.3g} > tol {tol:.3g}; need K >= {needed}")
    etas = []
    acc = np.empty((0, sys.n_points))  # live accumulators, one row per reported n, oldest first
    for m in range(report_lo - k_order, family.n_hi):
        if m + k_order <= family.n_hi:
            acc = np.vstack([acc, g.density(m - 1).values])  # eta_n starts from g_{n-K-1}, n = m + K
        acc = transfer.push(sys.operator(m, 0.0), acc) + g.density(m).values
        if m + 1 >= report_lo:
            etas.append(DensityGrid(acc[0]))  # eta_{m+1} has taken its last step
            acc = acc[1:]
    mass_defect = max(abs(gridmod.mass(e)) for e in etas)
    return ResponseReport(
        n_lo=report_lo,
        etas=tuple(etas),
        truncation_order=k_order,
        tail_bound=tail,
        max_mass_defect=mass_defect,
    )


def resolvent_residual(sys: SequenceSystem, report: ResponseReport, g: Forcing) -> float:
    """max_n || eta_n - L_{n-1} eta_{n-1} - g_{n-1} ||_L1 over interior indices."""
    res = 0.0
    for n in range(report.n_lo + 1, report.n_hi + 1):
        pushed = transfer.push(sys.operator(n - 1, 0.0), report.eta(n - 1).values)
        res = max(res, float(gridmod.norm_l1_values(report.eta(n).values - pushed - g.density(n - 1).values)))
    return res


@dataclass(frozen=True)
class DifferenceQuotients:
    """Per-eps finite-difference response families h_n^eps."""

    n_lo: int
    eps_list: tuple
    quotients: dict  # eps -> tuple of DensityGrid

    def quotient(self, eps: float, n: int) -> DensityGrid:
        qs = self.quotients[eps]
        if not self.n_lo <= n < self.n_lo + len(qs):
            raise WindowExceeded(f"quotient index {n} outside [{self.n_lo}, {self.n_lo + len(qs) - 1}]")
        return qs[n - self.n_lo]


def finite_difference_response(
    sys: SequenceSystem,
    eps_list,
    burn_in: int,
    seed_density: DensityGrid,
    base_family: EquivariantFamily | None = None,
    tol: float = seqmod.DEFAULT_PULLBACK_TOL,
) -> DifferenceQuotients:
    """Difference quotients (mu^eps - mu^0) / eps with a shared pullback setup."""
    eps_list = tuple(float(e) for e in eps_list)
    if any(e == 0.0 for e in eps_list):
        raise ValueError("eps = 0 is not a valid difference quotient")
    if base_family is None:
        base_family = seqmod.pullback_equivariant(sys, burn_in, seed_density, tol=tol, eps=0.0)
    quotients = {}
    for eps in eps_list:
        fam_p = seqmod.pullback_equivariant(sys, burn_in, seed_density, tol=tol, eps=eps)
        quotients[eps] = tuple(
            DensityGrid((p.values - b.values) * (1.0 / eps)) for p, b in zip(fam_p.densities, base_family.densities)
        )
    return DifferenceQuotients(n_lo=base_family.n_lo, eps_list=eps_list, quotients=quotients)


@dataclass(frozen=True)
class ValidationSummary:
    """Per-eps L1 discrepancy between difference quotients and the series."""

    entries: tuple  # (eps, discrepancy) sorted by decreasing eps
    tol: float
    passed: bool

    def to_json(self) -> str:
        return json.dumps(
            {
                "tol": self.tol,
                "pass": self.passed,
                "entries": [{"eps": e, "D": d} for e, d in self.entries],
            },
            indent=2,
        )


def validate(report: ResponseReport, fd: DifferenceQuotients, tol: float) -> ValidationSummary:
    """Passes iff D(eps) decreases along shrinking eps and D(min eps) <= tol."""
    entries = []
    for eps in sorted(fd.eps_list, reverse=True):
        d = max(
            float(gridmod.norm_l1_values(fd.quotient(eps, n).values - report.eta(n).values))
            for n in range(report.n_lo, report.n_hi + 1)
        )
        entries.append((eps, d))
    ds = [d for _, d in entries]
    floor = 1e-6  # discretization floor: below it, ordering is noise
    decreasing = all(b <= a or max(a, b) <= floor for a, b in zip(ds, ds[1:]))
    passed = decreasing and ds[-1] <= tol
    return ValidationSummary(entries=tuple(entries), tol=tol, passed=passed)
