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
from .sequence import DeterministicEntry, SequenceSystem, Window


def forcing(sys: SequenceSystem, mu: Window) -> Window:
    """Derivative of the perturbed operator along the reference family; every g_n has zero mass.

    Deterministic entries: g_n = D mu_{n+1} with D u = -(X u)', mu_{n+1}
    read from the next row of mu.  Noisy entries: g_n = -(A_n (fdot mu_n))'
    from the cached eps = 0 kernel A_n.
    """
    m = mu.values.shape[0]
    out = np.empty_like(mu.values)
    for entry, idx in sys.entry_rows(mu).items():
        if isinstance(entry, DeterministicEntry):
            ahead = [i + 1 for i in idx]  # the rows of mu_{n+1}; increasing, so only the last can be m
            if ahead[-1] < m:
                u = mu.values[ahead]
            else:  # mu_{n_hi + 1}, past the window, is pushed only when a kick reads it
                u = np.concatenate([mu.values[ahead[:-1]], transfer.push(sys.operator(mu.n_hi), mu.values[-1:])])
            out[idx] = transfer.d_operator(entry.kick, u)
        else:
            out[idx] = noisemod.kernel_forcing(entry.drift, sys.operator(mu.n_lo + idx[0]), mu.values[idx])
    return Window(mu.n_lo, out)


def neumann_response(
    sys: SequenceSystem,
    g: Window,
    k_order: int,
    tail_constants: tuple[float, float],
    tol: float | None = None,
) -> tuple[Window, float]:
    """Truncated Neumann series at every index the window depth allows, and its certified tail bound.

    Reported indices are n in [n_lo + K + 1, n_hi], with g's window
    [n_lo, n_hi], so every eta_n uses exactly K + 1 terms.  The band
    eta_n = g_{n-1} over as many indices from n_lo + 1 takes K steps
    eta <- L eta + g of the global transfer operator (L w)_{n+1} = L_n w_n
    at eps = 0 (`SequenceSystem.advance`), each moving it one index on.
    """
    if k_order < 1:
        raise ValueError("truncation order must be >= 1")
    c, rate = tail_constants
    if g.n_lo + k_order + 1 > g.n_hi:
        raise WindowExceeded(f"window [{g.n_lo}, {g.n_hi}] too shallow for truncation order {k_order}")
    sup_g = float(np.max(gridmod.norm_w11(g.values)))
    tail = c * rate**k_order * sup_g / (1.0 - rate)
    if tol is not None and tail > tol:
        needed = int(np.ceil(np.log(tol * (1.0 - rate) / (c * sup_g)) / np.log(rate)))
        raise TailNotSmall(f"tail bound {tail:.3g} > tol {tol:.3g}; need K >= {needed}")
    eta = Window(g.n_lo + 1, g.rows(g.n_lo, g.n_hi - k_order - 1))
    for _ in range(k_order):
        step = sys.advance(eta)
        step += g.rows(eta.n_lo, eta.n_hi)
        eta = Window(eta.n_lo + 1, step)
    return eta, tail


def resolvent_residual(sys: SequenceSystem, etas: Window, g: Window) -> float:
    """max_n || eta_n - (L eta)_n - g_{n-1} ||_L1 over interior indices; the last row is not pushed."""
    pushed = sys.advance(Window(etas.n_lo, etas.values[:-1]))  # (L eta)_n for n = n_lo + 1 .. n_hi
    forced = g.rows(etas.n_lo - 1, etas.n_hi - 1)[1:]  # g_{n-1} for the same n; no rows if eta has one
    gaps = np.subtract(etas.values[1:], pushed, out=pushed)
    gaps -= forced
    return float(np.max(gridmod.norm_l1(gaps), initial=0.0))


def finite_difference_response(
    sys: SequenceSystem,
    eps: float,
    burn_in: int,
    seed_density: np.ndarray,
    base_family: Window,
    tol: float = seqmod.DEFAULT_PULLBACK_TOL,
) -> Window:
    """The difference quotient (mu^eps - mu^0) / eps against the unperturbed family mu^0.

    mu^eps is pulled back on its own system at strength eps over the
    shared schedule; the system passed in keeps its eps = 0 operators.
    """
    eps = float(eps)
    if eps == 0.0:
        raise ValueError("eps = 0 is not a valid difference quotient")
    perturbed = SequenceSystem(sys.schedule, sys.window, sys.n_points, eps)
    fam_p, _ = seqmod.pullback_equivariant(perturbed, burn_in, seed_density, tol=tol)
    quotient = np.subtract(fam_p.values, base_family.values)
    quotient *= 1.0 / eps
    return Window(base_family.n_lo, quotient)


def validate(etas: Window, quotients, tol: float) -> tuple[list, bool]:
    """Per-eps L1 discrepancies D(eps) between the quotients and the series, and whether they pass.

    `quotients` is an iterable of (eps, difference quotient) pairs, which
    may make each quotient only when it is pulled: each is reduced to its
    D and dropped before the next is pulled, so one quotient is alive at
    a time.  The entries are (eps, D) pairs by decreasing |eps|, +eps
    before -eps.  They pass iff D does not increase as |eps| shrinks and
    every D at the smallest |eps| is <= tol; two entries of equal |eps|
    are not compared.
    """
    entries = []
    for eps, q in quotients:
        gaps = q.rows(etas.n_lo, etas.n_hi) - etas.values
        del q  # before gaps is normed, and before the next quotient is made
        entries.append((float(eps), float(np.max(gridmod.norm_l1(gaps)))))
        del gaps
    if not entries:
        raise ValueError("no difference quotient was given")
    entries.sort(key=lambda entry: (-abs(entry[0]), -entry[0]))
    floor = 1e-6  # discretization floor: below it, ordering is noise
    pairs = itertools.combinations(entries, 2)  # each (e, c) before (f, d), so |e| >= |f|
    decreasing = all(d <= c or max(c, d) <= floor for (e, c), (f, d) in pairs if abs(f) < abs(e))
    smallest = abs(entries[-1][0])
    return entries, decreasing and all(d <= tol for e, d in entries if abs(e) == smallest)
