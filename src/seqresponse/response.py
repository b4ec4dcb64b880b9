"""First-order linear response of the equivariant family.

The forcing (g_n), the response (eta_n) and the difference quotients
are sequence-space elements on a finite window, each one
`sequence.Window` block with a row per index.  The response density at
index n is the truncated causal series

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

import itertools

import numpy as np

from . import grid as gridmod
from . import noise as noisemod
from . import sequence as seqmod
from . import transfer
from .errors import TailNotSmall, WindowExceeded
from .grid import DensityGrid
from .sequence import DeterministicEntry, SequenceSystem, Window


def forcing(sys: SequenceSystem, mu: Window) -> Window:
    """Derivative of the perturbed operator along the reference family; every g_n has zero mass.

    Deterministic entries: g_n = D mu_{n+1} with D u = -(X u)'.  Noisy
    entries: g_n = -(A_n (fdot mu_n))' from the cached eps = 0 kernel A_n.
    """
    out = np.empty_like(mu.values)
    for n in range(mu.n_lo, mu.n_hi + 1):
        entry = sys.schedule(n)
        if isinstance(entry, DeterministicEntry):
            mu_next = mu[n + 1] if n < mu.n_hi else transfer.push(sys.operator(n), mu[n])
            out[n - mu.n_lo] = transfer.d_operator(entry.kick, mu_next)
        else:
            out[n - mu.n_lo] = noisemod.kernel_forcing(entry.drift, sys.operator(n), mu[n])
    return Window(mu.n_lo, out)


def truncation_order(c: float, rate: float, sup_g: float, tol: float, max_depth: int) -> int:
    """Smallest K with C rate^K sup||g|| / (1-rate) <= tol, capped at max_depth."""
    if sup_g <= 0.0:
        return 1
    k = int(np.ceil(np.log(tol * (1.0 - rate) / (c * sup_g)) / np.log(rate)))
    return int(np.clip(k, 1, max_depth))


def neumann_response(
    sys: SequenceSystem,
    g: Window,
    k_order: int,
    tail_constants: tuple[float, float],
    tol: float | None = None,
) -> tuple[Window, float]:
    """Truncated Neumann series at every index the window depth allows, and its certified tail bound.

    Reported indices are n in [n_lo + K + 1, n_hi], with g's window
    [n_lo, n_hi], so every eta_n uses exactly K + 1 terms; each series
    is a backward accumulation
    acc <- L_m acc + g_m over m = n-K .. n-1 seeded with g_{n-K-1}.
    One pass over m pushes the accumulators of every n that L_m serves,
    at most K of them, as one block.  The unperturbed operators (eps = 0)
    propagate the series.
    """
    if k_order < 1:
        raise ValueError("truncation order must be >= 1")
    c, rate = tail_constants
    report_lo = g.n_lo + k_order + 1
    if report_lo > g.n_hi:
        raise WindowExceeded(f"window [{g.n_lo}, {g.n_hi}] too shallow for truncation order {k_order}")
    sup_g = float(np.max(gridmod.norm_w11(g.values)))
    tail = c * rate**k_order * sup_g / (1.0 - rate)
    if tol is not None and tail > tol:
        needed = truncation_order(c, rate, sup_g, tol, 10**6)
        raise TailNotSmall(f"tail bound {tail:.3g} > tol {tol:.3g}; need K >= {needed}")
    etas = np.empty((g.n_hi - report_lo + 1, sys.n_points))
    acc = np.empty((0, sys.n_points))  # live accumulators, one row per reported n, oldest first
    for m in range(report_lo - k_order, g.n_hi):
        if m + k_order <= g.n_hi:
            acc = np.vstack([acc, g[m - 1]])  # eta_n starts from g_{n-K-1}, n = m + K
        acc = transfer.push(sys.operator(m), acc) + g[m]
        if m + 1 >= report_lo:
            etas[m + 1 - report_lo] = acc[0]  # eta_{m+1} has taken its last step
            acc = acc[1:]
    return Window(report_lo, etas), tail


def resolvent_residual(sys: SequenceSystem, etas: Window, g: Window) -> float:
    """max_n || eta_n - L_{n-1} eta_{n-1} - g_{n-1} ||_L1 over interior indices."""
    gaps = np.empty((etas.n_hi - etas.n_lo, sys.n_points))
    for n in range(etas.n_lo + 1, etas.n_hi + 1):
        gaps[n - etas.n_lo - 1] = etas[n] - transfer.push(sys.operator(n - 1), etas[n - 1]) - g[n - 1]
    return float(np.max(gridmod.norm_l1(gaps), initial=0.0))


def finite_difference_response(
    sys: SequenceSystem,
    eps_list,
    burn_in: int,
    seed_density: DensityGrid,
    base_family: Window,
    tol: float = seqmod.DEFAULT_PULLBACK_TOL,
) -> dict[float, Window]:
    """Difference quotients (mu^eps - mu^0) / eps per eps against the unperturbed family mu^0."""
    eps_list = tuple(float(e) for e in eps_list)
    if any(e == 0.0 for e in eps_list):
        raise ValueError("eps = 0 is not a valid difference quotient")
    quotients = {}
    for eps in eps_list:
        fam_p, _ = seqmod.pullback_equivariant(sys, burn_in, seed_density, tol=tol, eps=eps)
        quotients[eps] = Window(base_family.n_lo, (fam_p.values - base_family.values) * (1.0 / eps))
    return quotients


def validate(etas: Window, fd: dict[float, Window], tol: float) -> tuple[list, bool]:
    """Per-eps L1 discrepancies D(eps) between the quotients and the series, and whether they pass.

    The entries are (eps, D) pairs by decreasing |eps|, +eps before -eps.
    They pass iff D does not increase as |eps| shrinks and every D at the
    smallest |eps| is <= tol; two entries of equal |eps| are not compared.
    """
    entries = []
    for eps in sorted(fd, key=lambda e: (-abs(e), -e)):
        gaps = fd[eps].rows(etas.n_lo, etas.n_hi) - etas.values
        entries.append((eps, float(np.max(gridmod.norm_l1(gaps)))))
    floor = 1e-6  # discretization floor: below it, ordering is noise
    pairs = itertools.combinations(entries, 2)  # each (e, c) before (f, d), so |e| >= |f|
    decreasing = all(d <= c or max(c, d) <= floor for (e, c), (f, d) in pairs if abs(f) < abs(e))
    smallest = abs(entries[-1][0])
    return entries, decreasing and all(d <= tol for e, d in entries if abs(e) == smallest)
