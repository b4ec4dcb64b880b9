"""Finite-window realization of the bi-infinite sequential system.

A schedule assigns to each time index a system element: a deterministic
expanding map with its kick field, or a drift map with its noise
density.  A sequence-space element (mu_n, g_n or eta_n) restricted to
a finite window [n_lo, n_hi] is one `Window`: a read-only (m, N) block
whose row n - n_lo holds the density at index n.  Equivariant families
are produced by the pullback sweep: push an arbitrary probability seed
forward from burn_in steps before the window and record the densities
inside it, one row per index.

Time-order convention: a composition of the operators at indices j,
j+1, ..., j+k-1 applies them in increasing time order (index j acts
first).  The uniqueness recursion Delta_n = L_{n-1} Delta_{n-1} forces
this time-ordered semantics and it is used consistently everywhere.
"""

from __future__ import annotations

import functools

import numpy as np

from . import grid as gridmod
from . import noise as noisemod
from . import transfer
from .errors import InvalidSystem, NotConverged, WindowExceeded
from .maps import CircleMap, KickedMap, TrigPoly
from .noise import DriftMap, NoiseDensity
from .transfer import TransferMatrix

DEFAULT_PULLBACK_TOL = 1e-8
# Sweep differences are normed in batches of this many float64 samples (64 KiB):
# at N = 256 the W^{1,1} norms of 32 differences cost about what 4 single ones do.
RESIDUAL_BUDGET = 1 << 13


class DeterministicEntry:
    """One scheduled deterministic step: expanding map + kick direction.

    Entries hash by identity, so operator caches never share a slot
    between two entries.
    """

    def __init__(self, map: CircleMap, kick: TrigPoly):
        self.map = map
        self.kick = kick


class NoisyEntry:
    """One scheduled noisy step: drift map + common noise density; hashes by identity."""

    def __init__(self, drift: DriftMap, noise: NoiseDensity):
        self.drift = drift
        self.noise = noise


def constant_schedule(entry):
    return lambda n: entry


def periodic_schedule(entries):
    entries = list(entries)
    return lambda n: entries[n % len(entries)]


def seeded_random_schedule(entries, seed: int):
    """Deterministic per-index choice among a finite entry list, drawn once per index."""
    entries = list(entries)

    @functools.cache
    def schedule(n):
        rng = np.random.Generator(np.random.Philox(key=(seed, n & 0xFFFFFFFFFFFFFFFF)))
        return entries[rng.integers(len(entries))]

    return schedule


class Window:
    """A sequence-space element on [n_lo, n_hi]: row n - n_lo of `values` is the density at index n.

    `values` is one read-only (m, N) float array, checked finite here
    once; w[n] is its row at index n and raises WindowExceeded outside
    the window.
    """

    def __init__(self, n_lo: int, values):
        v = np.asarray(values, dtype=float).view()
        if v.ndim != 2:
            raise ValueError(f"a window holds an (m, N) block, got shape {v.shape}")
        if not np.isfinite(v).all():
            raise InvalidSystem("window values must be finite")
        v.setflags(write=False)
        self.n_lo = n_lo
        self.values = v

    @property
    def n_hi(self) -> int:
        return self.n_lo + self.values.shape[0] - 1

    def rows(self, lo: int, hi: int) -> np.ndarray:
        """The rows of indices lo .. hi as one (hi - lo + 1, N) view."""
        if not self.n_lo <= lo <= hi <= self.n_hi:
            raise WindowExceeded(f"indices [{lo}, {hi}] outside window [{self.n_lo}, {self.n_hi}]")
        return self.values[lo - self.n_lo : hi - self.n_lo + 1]

    def __getitem__(self, n: int) -> np.ndarray:
        return self.rows(n, n)[0]


class SequenceSystem:
    """The operators L_n^eps of a schedule at one perturbation strength eps on a finite window.

    The perturbed dynamics is a sequential system in its own right: each
    strength is its own system over the shared schedule, and `operator`
    caches one operator per entry.
    """

    def __init__(self, schedule, window: tuple[int, int], n_points: int, eps: float = 0.0):
        if window[1] < window[0]:
            raise ValueError("empty window")
        self.schedule = schedule
        self.window = (int(window[0]), int(window[1]))
        self.n_points = int(n_points)
        self.eps = float(eps)
        self._cache: dict = {}

    def operator(self, n: int) -> TransferMatrix:
        """Transfer matrix L_n^eps at index n, cached per schedule entry.

        Deterministic entries realize L_n^eps = L_{h_eps o T_n}, the
        operator of the post-composition kicked map, assembled in one pass
        from its inverse branches.  It equals L_{h_eps} L_{T_n}, the product
        the tests compare it against.
        """
        entry = self.schedule(n)
        if entry in self._cache:
            return self._cache[entry]
        if isinstance(entry, DeterministicEntry):
            t = entry.map if self.eps == 0.0 else KickedMap(entry.kick, self.eps, entry.map)
            mat = transfer.build_deterministic(t, self.n_points)
        else:
            mat = noisemod.build_kernel(entry.drift, self.eps, entry.noise, self.n_points)
        self._cache[entry] = mat
        return mat

    def entry_rows(self, w: Window) -> dict:
        """{schedule entry: its rows n - w.n_lo in w}, the grouping by which a stage treats w one entry at a time."""
        rows: dict = {}
        for i, n in enumerate(range(w.n_lo, w.n_hi + 1)):
            rows.setdefault(self.schedule(n), []).append(i)
        return rows

    def advance(self, w: Window) -> np.ndarray:
        """The global transfer operator on w: row n - w.n_lo is L_n w_n, the density at index n + 1.

        The rows of one schedule entry share its operator and are pushed as
        one block, each with the bits of its own push.
        """
        out = np.empty_like(w.values)
        for idx in self.entry_rows(w).values():
            out[idx] = transfer.push(self.operator(w.n_lo + idx[0]), w.values[idx])
        return out


def pullback_equivariant(
    sys: SequenceSystem,
    burn_in: int,
    seed_density: np.ndarray,
    tol: float = DEFAULT_PULLBACK_TOL,
) -> tuple[Window, float]:
    """Equivariant family (mu_n) on the system's window by the pullback construction, and its residual.

    mu_n is the burn_in-fold pushforward of the seed started at
    n - burn_in; one sweep from n_lo - burn_in covers all n.  The
    half-burn-in sweep from n_lo - burn_in // 2 shares every operator
    with it from there on, so it joins the pushed block as a second row.
    burn_in must be >= 2: at 1 the half sweep would be the full sweep
    and the residual 0 without checking anything.  The residual is the
    largest W^{1,1} distance between the two rows inside the window,
    normed in batches of differences of at most RESIDUAL_BUDGET samples.
    The seed's samples are checked by `grid.checked_density`.
    """
    if burn_in < 2:
        raise ValueError("burn_in must be >= 2")
    seed = gridmod.checked_density(seed_density)
    if abs(gridmod.mass(seed) - 1.0) > 1e-10:
        raise ValueError("seed must be a probability density")
    n_lo, n_hi = sys.window
    join = n_lo - burn_in // 2
    block = seed[None]
    out = np.empty((n_hi - n_lo + 1, sys.n_points))
    gaps, residual = [], 0.0
    for m in range(n_lo - burn_in, n_hi + 1):
        if m == join:
            block = np.stack([block[0], seed])
        if m >= n_lo:
            out[m - n_lo] = block[0]
            gaps.append(block[0] - block[1])
            if len(gaps) * sys.n_points >= RESIDUAL_BUDGET or m == n_hi:
                residual = max(residual, float(np.max(gridmod.norm_w11(np.array(gaps)))))
                gaps.clear()
        if m < n_hi:
            block = transfer.push(sys.operator(m), block)
    if residual > tol:
        raise NotConverged(f"pullback residual {residual:.3g} > tol {tol:.3g}; increase burn_in")
    return Window(n_lo, out), residual


def memory_decay(sys: SequenceSystem, v: np.ndarray, j: int, k_max: int) -> tuple[np.ndarray, float]:
    """Push a zero-mass density through the operators at j, j+1, ...; its norm records and fitted rate.

    Row k - 1 of the (k_max, 3) records is (k, W^{1,1} norm, L^1 norm)
    after k steps, k = 1..k_max.  The exponential rate is least-squares
    fitted from log W^{1,1} norm vs k over the last half of the range;
    steps where the norm has collapsed to round-off are excluded from
    the fit.  The samples of v are checked once, as a `grid.DensityGrid`.
    """
    f = gridmod.DensityGrid(v)
    if abs(gridmod.mass(f.values)) > 1e-12:
        raise ValueError("seed must have zero mass")
    records = np.zeros((k_max, 3))
    for k in range(1, k_max + 1):
        f = transfer.apply(sys.operator(j + k - 1), f)
        records[k - 1] = (k, gridmod.norm_w11(f.values), gridmod.norm_l1(f.values))
    tail = records[k_max // 2 :]
    ok = tail[:, 1] > 1e-14
    if np.count_nonzero(ok) >= 2:
        slope = np.polyfit(tail[ok, 0], np.log(tail[ok, 1]), 1)[0]
        rate = float(np.exp(slope))
    else:
        rate = 0.0
    return records, rate
