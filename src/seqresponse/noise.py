"""Annealed transfer operators for random circle maps with additive noise.

The one-step kernel is k(x, y) = q(y - f(x)) for a common noise density
q; the annealed operator integrates it against the current density.  It
is stored matrix-free: the 4-point spread of each node's mass onto the
grid near its drift image, then an FFT circular convolution with q.  A
uniformly positive q gives Doeblin minorization with alpha = min q and
hence one-step L1 contraction by (1 - alpha) on zero-mass densities.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import grid as gridmod
from . import transfer
from .errors import DimensionMismatch
from .grid import DensityGrid
from .maps import CircleMap
from .transfer import TransferMatrix

MC_BLOCK_SIZE = 1 << 16
# The elementwise work of a Monte Carlo step runs on slices of a block this
# long: their temporaries (64 KiB each) stay in cache and are reused from the
# heap instead of being faulted in fresh.  Every sample is computed alone, so
# the results do not depend on it.
MC_CHUNK = 1 << 13


@dataclass(frozen=True)
class NoiseDensity:
    """Grid-sampled noise density q, normalized to unit mass.

    alpha is the probed minorization constant (min sample).  alpha > 0
    is required for Doeblin-mode contraction arguments; alpha = 0 is
    allowed with a warning.
    """

    density: DensityGrid
    alpha: float = field(init=False)

    def __post_init__(self):
        v = self.density.values
        m = float(np.sum(v)) / v.shape[0]
        if abs(m - 1.0) > 1e-10:
            raise ValueError(f"noise density mass is {m}, expected 1 within 1e-10")
        if np.min(v) < 0.0:
            raise ValueError("noise density has negative samples")
        object.__setattr__(self, "alpha", float(np.min(v)))
        if self.alpha == 0.0:
            warnings.warn("noise density touches zero; Doeblin contraction unavailable", stacklevel=2)

    @property
    def n_points(self) -> int:
        return self.density.n_points

    @classmethod
    def from_samples(cls, samples, normalize: bool = True) -> "NoiseDensity":
        g = DensityGrid(samples)
        if normalize:
            g = gridmod.normalize(g)
        return cls(g)

    @classmethod
    def uniform(cls, n_points: int) -> "NoiseDensity":
        return cls(DensityGrid.constant(1.0, n_points))

    @classmethod
    def bump(cls, center: float, width: float, floor: float, n_points: int) -> "NoiseDensity":
        """floor + (1 - floor) * normalized smooth bump at `center`.

        The bump is the periodic analogue of a Gaussian of std `width`:
        exp((cos(2 pi (x-c)) - 1) / (2 pi width)^2), renormalized.
        """
        if not 0.0 <= floor < 1.0:
            raise ValueError("floor must be in [0, 1)")
        x = np.arange(n_points) / n_points
        kappa = 1.0 / (2.0 * np.pi * width) ** 2
        raw = np.exp(kappa * (np.cos(2.0 * np.pi * (x - center)) - 1.0))
        raw /= np.sum(raw) / n_points
        return cls(DensityGrid(floor + (1.0 - floor) * raw))


def doeblin_alpha(q: NoiseDensity) -> float:
    """Minorization constant: min grid sample of q."""
    return q.alpha


class DriftMap:
    """Drift f_eps = f0 + eps * fdot (mod 1) of the random system.

    `base` is a CircleMap, a callable, or an array of N node samples
    (merely measurable drifts: sampled bases are evaluated by nearest
    node).  `dot` is a callable or an array of node samples interpolated
    cubically.  The remainder term of the eps-family is fixed at zero.
    """

    def __init__(self, base, dot=None):
        self.base = base
        self.dot = dot

    def base_values(self, x) -> np.ndarray:
        x = gridmod.wrap(np.asarray(x, dtype=float))
        if isinstance(self.base, CircleMap):
            return self.base.eval(x)
        if callable(self.base):
            return np.asarray(self.base(x), dtype=float)
        samples = np.asarray(self.base, dtype=float)
        n = samples.shape[0]
        return samples[np.rint(x * n).astype(np.int64) % n]

    def dot_values(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.dot is None:
            return np.zeros_like(x)
        if callable(self.dot):
            return np.asarray(self.dot(x), dtype=float)
        return gridmod.interpolate_values(np.asarray(self.dot, dtype=float), x)

    def eval(self, x, eps: float) -> np.ndarray:
        return gridmod.wrap(self.base_values(x) + eps * self.dot_values(x))


def build_kernel(f: DriftMap, eps: float, q: NoiseDensity, n_points: int) -> TransferMatrix:
    """Annealed operator A[i,j] = (1/N) q(y_i - f_eps(x_j)), mass-corrected.

    q(y_i - c_j) is read by the 4-point cubic, whose weights at y_i - c_j
    do not depend on i: it is sum_k w_kj q[(i + idx_kj) % N] with (idx, w)
    the stencil of -c_j.  So A f is q/N circularly convolved with the
    spread S f, (S f)[-idx_kj % N] += w_kj f_j, in O(N log N).
    """
    x = np.arange(n_points) / n_points
    idx, w = gridmod.interpolation_stencil(n_points, -f.eval(x, eps))
    cols = np.broadcast_to(np.arange(n_points), idx.shape)
    return TransferMatrix.from_stencil(-idx % n_points, cols, w, n_points, kernel=q.density.values / n_points)


def kernel_forcing(f: DriftMap, a: TransferMatrix, mu: DensityGrid) -> DensityGrid:
    """Derivative of the kernel operator along the drift perturbation.

    g = -(A (fdot mu))', with A the eps = 0 kernel of build_kernel and '
    the grid derivative.  Column j of A interpolates q at y_i - f0(x_j) with
    weights that do not depend on i, a circular convolution in i that
    commutes with the grid derivative, and the derivative removes the
    constant mass correction.  So g is the integral of
    mu(x) * (-q'(y - f0(x))) * fdot(x) dx with q' the grid derivative of q,
    the discretization bias that the difference quotients share.
    The result has zero mass to round-off.
    """
    weighted = DensityGrid(mu.values * f.dot_values(mu.nodes))
    return gridmod.derivative(transfer.apply(a, weighted)) * -1.0


@dataclass(frozen=True)
class Histogram:
    """Density-normalized histogram on uniform bins of [0, 1)."""

    bin_left: np.ndarray
    density: np.ndarray

    @property
    def n_bins(self) -> int:
        return self.bin_left.shape[0]

    def write_csv(self, path) -> None:
        rows = zip(self.bin_left.tolist(), self.density.tolist())
        with open(path, "w") as fh:
            fh.write("bin_left,density\n" + "".join(f"{b:.17g},{d:.17g}\n" for b, d in rows))


def _inverse_cdf_table(q: NoiseDensity) -> np.ndarray:
    """Cumulative midpoint sums of q at the node edges; F[0]=0, F[N]=1."""
    cdf = np.concatenate([[0.0], np.cumsum(q.density.values)]) / q.n_points
    cdf[-1] = 1.0
    return cdf


def _guide_table(cdf: np.ndarray) -> np.ndarray:
    """Guide table of the inverse CDF (Chen & Asau 1974; Devroye 1986, III.2.4).

    With M the least power of two >= 2N, entry j is the last segment i
    with cdf[i] <= j / M, clipped to N - 1; entry M serves u = 1.  M is a
    power of two so that j = floor(u M) is exact and j / M <= u holds.
    """
    n = cdf.shape[0] - 1
    m = 1 << (2 * n - 1).bit_length()
    return np.minimum(np.searchsorted(cdf, np.arange(m + 1) / m, side="right") - 1, n - 1)


def _sample_noise(cdf: np.ndarray, guide: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF sampling of u in [0, 1]: guide-table start, linear search, linear interpolation.

    The segment index is the last i <= N - 1 with cdf[i] <= u, exactly the
    binary search searchsorted(cdf, u, side="right") - 1 clipped to N - 1.
    """
    n = cdf.shape[0] - 1
    i = guide[(u * (guide.shape[0] - 1)).astype(np.int64)]
    # cdf[i + 1] with the last knot raised to inf, so the search stops at N - 1.
    upper = np.append(cdf[1:-1], np.inf)
    moving = np.flatnonzero(upper[i] <= u)
    while moving.size:
        i[moving] += 1
        moving = moving[upper[i[moving]] <= u[moving]]
    seg = np.diff(cdf)
    return (i + (u - cdf[i]) / np.where(seg > 0.0, seg, 1.0)[i]) / n


def simulate_marginal(
    f_schedule,
    eps: float,
    q: NoiseDensity,
    n_steps: int,
    n_samples: int,
    seed: int,
    n_bins: int,
) -> Histogram:
    """Monte Carlo marginal of X_{n_steps} for X_{k+1} = f_k^eps(X_k) + xi_k mod 1.

    X_0 is uniform; xi_k ~ q via the guide-table inverse CDF.  Samples are
    processed in fixed-size blocks with a counter-based Philox stream
    keyed by (seed, block), so the result is reproducible and
    independent of any block-level parallelism.
    """
    if n_samples < 10**4:
        raise ValueError("need at least 1e4 samples")
    if callable(f_schedule):
        drift_at = f_schedule
    else:
        drift_at = lambda n: f_schedule
    cdf = _inverse_cdf_table(q)
    guide = _guide_table(cdf)
    counts = np.zeros(n_bins, dtype=np.int64)
    n_blocks = (n_samples + MC_BLOCK_SIZE - 1) // MC_BLOCK_SIZE
    for b in range(n_blocks):
        size = min(MC_BLOCK_SIZE, n_samples - b * MC_BLOCK_SIZE)
        rng = np.random.Generator(np.random.Philox(key=(seed, b)))
        x = rng.uniform(0.0, 1.0, size)
        for step in range(n_steps):
            drift, u = drift_at(step), rng.uniform(0.0, 1.0, size)
            for lo in range(0, size, MC_CHUNK):
                c = slice(lo, lo + MC_CHUNK)
                x[c] = gridmod.wrap(drift.eval(x[c], eps) + _sample_noise(cdf, guide, u[c]))
        counts += np.bincount(np.minimum((x * n_bins).astype(np.int64), n_bins - 1), minlength=n_bins)
    density = counts * (n_bins / n_samples)
    return Histogram(bin_left=np.arange(n_bins) / n_bins, density=density)


def bin_density(f: DensityGrid, n_bins: int) -> np.ndarray:
    """Average a grid density over uniform bins, for histogram comparison."""
    n = f.n_points
    if n % n_bins != 0:
        raise DimensionMismatch("grid size must be a multiple of n_bins")
    return f.values.reshape(n_bins, n // n_bins).mean(axis=1)
