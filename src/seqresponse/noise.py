"""Annealed transfer operators for random circle maps with additive noise.

The one-step kernel is k(x, y) = q(y - f(x)) for a common noise density
q; the annealed operator integrates it against the current density.  It
is A = K_q L_f, the drift's transfer operator (a gather) and then an FFT
circular convolution with q.  A uniformly positive q gives Doeblin
minorization with alpha = min q and hence one-step L1 contraction by
(1 - alpha) on zero-mass densities.
"""

from __future__ import annotations

import sys
import warnings

import numpy as np

from . import grid as gridmod
from . import transfer
from .errors import InvalidSystem
from .maps import CircleMap, TrigPoly
from .transfer import TransferMatrix

MC_BLOCK_SIZE = 1 << 16
# The elementwise work of a Monte Carlo step runs on slices of a block this
# long: their temporaries (64 KiB each) stay in cache and are reused from the
# heap instead of being faulted in fresh.  Every sample is computed alone, so
# the results do not depend on it.
MC_CHUNK = 1 << 13


class NoiseDensity:
    """Grid-sampled noise density q, normalized to unit mass.

    `density` holds the samples, checked by `grid.checked_density`.
    alpha is the probed minorization constant (min sample).  alpha > 0
    is required for Doeblin-mode contraction arguments; alpha = 0 is
    allowed with a warning.
    """

    def __init__(self, density):
        v = gridmod.checked_density(density)
        m = float(gridmod.mass(v))
        if abs(m - 1.0) > 1e-10:
            raise ValueError(f"noise density mass is {m}, expected 1 within 1e-10")
        if np.min(v) < 0.0:
            raise ValueError("noise density has negative samples")
        self.density = v
        self.alpha = float(np.min(v))
        if self.alpha == 0.0:
            in_module = sys._getframe(1).f_code.co_filename == __file__  # built by `bump`: name its caller
            warnings.warn("noise density touches zero; Doeblin contraction unavailable", stacklevel=2 + in_module)

    @property
    def n_points(self) -> int:
        return self.density.shape[0]

    @classmethod
    def uniform(cls, n_points: int) -> "NoiseDensity":
        return cls(np.ones(n_points))

    @classmethod
    def bump(cls, center: float, width: float, floor: float, n_points: int) -> "NoiseDensity":
        """floor + (1 - floor) * normalized smooth bump at `center`.

        The bump is the periodic analogue of a Gaussian of std `width`:
        exp((cos(2 pi (x-c)) - 1) / (2 pi width)^2), renormalized.
        """
        if not 0.0 <= floor < 1.0:
            raise ValueError("floor must be in [0, 1)")
        scale = (2.0 * np.pi * width) ** 2
        if not (width > 0.0 and 0.0 < scale < np.inf):  # NaN fails too
            raise ValueError(f"width must be positive and finite with a nonzero square, got {width}")
        x = np.arange(n_points) / n_points
        kappa = 1.0 / scale
        raw = np.exp(kappa * (np.cos(2.0 * np.pi * (x - center)) - 1.0))
        raw /= gridmod.mass(raw)
        return cls(floor + (1.0 - floor) * raw)


class DriftMap:
    """Drift f_eps = f0 + eps * fdot (mod 1) of the random system.

    `base` is the CircleMap f0 and `dot` the TrigPoly fdot, zero unless
    given; both are evaluated exactly.  The remainder term of the
    eps-family is fixed at zero.  `at(eps)` is f_eps as a CircleMap, the
    one eps-drift: `build_kernel` assembles its operator and
    `simulate_marginal` moves samples with its `eval`.
    """

    def __init__(self, base: CircleMap, dot: TrigPoly = TrigPoly()):
        self.base = base
        self.dot = dot

    def at(self, eps: float) -> CircleMap:
        """f_eps as the CircleMap of f0's degree with f0's lift coefficients plus eps times fdot's; it must expand."""
        k = max(self.base.p.a.shape[0], self.dot.a.shape[0])
        p0, p1 = (np.pad([p.a, p.b], ((0, 0), (0, k - p.a.shape[0]))) for p in (self.base.p, self.dot))
        with np.errstate(over="ignore"):  # a coefficient past the float range is inf, which CircleMap names
            coeffs = p0 + eps * p1
        try:
            return CircleMap(self.base.degree, *coeffs)
        except InvalidSystem as exc:
            raise InvalidSystem(f"drift f0 + eps*fdot at eps = {eps:g}: {exc}") from None


def build_kernel(f: DriftMap, eps: float, q: NoiseDensity, n_points: int) -> TransferMatrix:
    """Annealed operator A = K_q L_{f_eps}, mass-corrected.

    L_{f_eps} is the (6d, N) gather of the drift's branch formula and K_q
    the circular convolution (K_q g)[i] = (1/N) sum_m q[(i - m) % N] g[m].
    """
    return transfer.build_deterministic(f.at(eps), n_points, kernel=q.density / n_points)


def kernel_forcing(f: DriftMap, a: TransferMatrix, mu: np.ndarray) -> np.ndarray:
    """Derivative of the kernel operator along the drift perturbation.

    g = -(A (fdot mu))', with A = K_q L_{f0} the eps = 0 kernel of
    build_kernel and ' the grid derivative: the grid form of d/d eps of
    the integral of q(y - f_eps(x)) mu(x) dx, which is -d/dy of the
    integral of q(y - f0(x)) fdot(x) mu(x) dx.  A push adds back each
    row's mass defect as a constant, which the derivative removes, so g
    has zero mass to round-off.
    mu and g are raw samples of one density or an (m, N) block.
    """
    n = mu.shape[-1]
    return gridmod.derivative(transfer.push(a, mu * f.dot(np.arange(n) / n))) * -1.0


def _inverse_cdf_table(q: NoiseDensity) -> np.ndarray:
    """Cumulative midpoint sums of q at the node edges; F[0]=0, F[N]=1."""
    cdf = np.minimum(np.concatenate([[0.0], np.cumsum(q.density)]) / q.n_points, 1.0)
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


def _sampler_tables(q: NoiseDensity) -> tuple:
    """(cdf, guide, upper, width), the tables of q that _sample_noise reads.

    upper[i] is cdf[i + 1] with the last knot raised to inf, so the search
    stops at N - 1; width[i] is cdf[i + 1] - cdf[i], or 1 where that is 0.
    """
    cdf = _inverse_cdf_table(q)
    seg = np.diff(cdf)
    return cdf, _guide_table(cdf), np.append(cdf[1:-1], np.inf), np.where(seg > 0.0, seg, 1.0)


def _sample_noise(tables: tuple, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF sampling of u in [0, 1]: guide-table start, linear search, linear interpolation.

    The segment index is the last i <= N - 1 with cdf[i] <= u, exactly the
    binary search searchsorted(cdf, u, side="right") - 1 clipped to N - 1.
    """
    cdf, guide, upper, width = tables
    i = guide[(u * (guide.shape[0] - 1)).astype(np.int64)]
    moving = np.flatnonzero(upper[i] <= u)
    while moving.size:
        i[moving] += 1
        moving = moving[upper[i[moving]] <= u[moving]]
    return (i + (u - cdf[i]) / width[i]) / (cdf.shape[0] - 1)


def simulate_marginal(
    drift_at,
    eps: float,
    q: NoiseDensity,
    n_steps: int,
    n_samples: int,
    seed: int,
    n_bins: int,
) -> np.ndarray:
    """Monte Carlo marginal of X_{n_steps} for X_{k+1} = f_k^eps(X_k) + xi_k mod 1, as a histogram.

    drift_at(k) is the DriftMap f_k of step k; samples move by
    f_k.at(eps), built once per call.  X_0 is uniform; xi_k ~ q via the
    guide-table inverse CDF.  Returns the density of each of the n_bins
    uniform bins [i / n_bins, (i + 1) / n_bins).  Samples are processed
    in fixed-size blocks with a counter-based Philox stream keyed by
    (seed, block), so the result is reproducible and independent of any
    block-level parallelism.
    """
    if n_samples < 10**4:
        raise ValueError("need at least 1e4 samples")
    tables = _sampler_tables(q)
    drifts = [drift_at(step).at(eps) for step in range(n_steps)]
    counts = np.zeros(n_bins, dtype=np.int64)
    n_blocks = (n_samples + MC_BLOCK_SIZE - 1) // MC_BLOCK_SIZE
    for b in range(n_blocks):
        size = min(MC_BLOCK_SIZE, n_samples - b * MC_BLOCK_SIZE)
        rng = np.random.Generator(np.random.Philox(key=(seed, b)))
        x = rng.uniform(0.0, 1.0, size)
        for drift in drifts:
            u = rng.uniform(0.0, 1.0, size)
            for lo in range(0, size, MC_CHUNK):
                c = slice(lo, lo + MC_CHUNK)
                x[c] = gridmod.wrap(drift.eval(x[c]) + _sample_noise(tables, u[c]))
        counts += np.bincount(np.minimum((x * n_bins).astype(np.int64), n_bins - 1), minlength=n_bins)
    return counts * (n_bins / n_samples)


def bin_density(f: np.ndarray, n_bins: int) -> np.ndarray:
    """Average the raw samples of a grid density over uniform bins, for histogram comparison."""
    n = f.shape[0]
    if n % n_bins != 0:
        raise InvalidSystem("grid size must be a multiple of n_bins")
    return f.reshape(n_bins, n // n_bins).mean(axis=1)
