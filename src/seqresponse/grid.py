"""Periodic grid discretization of densities on the circle.

A density is sampled at the N uniform nodes x_i = i/N and treated as a
1-periodic function.  Quadrature is the midpoint rule (exact for
trigonometric polynomials of degree < N), differentiation is a 4th-order
centered stencil, and off-grid evaluation uses a local cubic through the
four nearest nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch

MIN_POINTS = 16


@dataclass(frozen=True)
class DensityGrid:
    """Samples of a 1-periodic real function at x_i = i/N.

    Instances are immutable; every operation returns a new grid.
    """

    values: np.ndarray = field()

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1:
            raise ValueError("grid values must be a 1-d array")
        n = v.shape[0]
        if n < MIN_POINTS or n % 2 != 0:
            raise ValueError(f"need an even number of points >= {MIN_POINTS}, got {n}")
        if not np.all(np.isfinite(v)):
            raise ValueError("grid values must be finite")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def n_points(self) -> int:
        return self.values.shape[0]

    @property
    def nodes(self) -> np.ndarray:
        n = self.n_points
        return np.arange(n) / n

    @classmethod
    def from_function(cls, func, n_points: int) -> "DensityGrid":
        x = np.arange(n_points) / n_points
        return cls(np.asarray(func(x), dtype=float))

    @classmethod
    def constant(cls, value: float, n_points: int) -> "DensityGrid":
        return cls(np.full(n_points, float(value)))

    def __add__(self, other):
        if isinstance(other, DensityGrid):
            _check_same_size(self, other)
            return DensityGrid(self.values + other.values)
        return DensityGrid(self.values + float(other))

    def __sub__(self, other):
        if isinstance(other, DensityGrid):
            _check_same_size(self, other)
            return DensityGrid(self.values - other.values)
        return DensityGrid(self.values - float(other))

    def __mul__(self, scalar: float):
        return DensityGrid(self.values * float(scalar))

    __rmul__ = __mul__


def _check_same_size(f: DensityGrid, g: DensityGrid) -> None:
    if f.n_points != g.n_points:
        raise DimensionMismatch(f"grid sizes differ: {f.n_points} vs {g.n_points}")


def mass(f: DensityGrid) -> float:
    """Total mass, midpoint quadrature on the uniform periodic grid."""
    return float(np.sum(f.values)) / f.n_points


def norm_l1(f: DensityGrid) -> float:
    return float(np.sum(np.abs(f.values))) / f.n_points


def derivative(f: DensityGrid) -> DensityGrid:
    """4th-order centered finite difference on the periodic grid."""
    v = f.values
    n = f.n_points
    d = n * (-np.roll(v, -2) + 8.0 * np.roll(v, -1) - 8.0 * np.roll(v, 1) + np.roll(v, 2)) / 12.0
    return DensityGrid(d)


def norm_w11(f: DensityGrid) -> float:
    return norm_l1(f) + norm_l1(derivative(f))


def wrap(x):
    """x mod 1 as x - floor(x): the same bits as x % 1.0, at a fraction of its cost."""
    f = np.floor(x)
    if np.ndim(f) == 0:
        return x - f
    return np.subtract(x, f, out=f)


def _cell(n_points: int, x) -> tuple[np.ndarray, np.ndarray]:
    """Cell index i0 = floor(N (x mod 1)) and local offset t = N (x mod 1) - i0.

    i0 is N when N (x mod 1) rounds up to N, e.g. for x a tiny negative number.
    """
    t = wrap(np.atleast_1d(np.asarray(x, dtype=float)))
    t *= n_points
    i0 = t.astype(np.int64)
    t -= i0
    return i0, t


def _cubic_weights(t: np.ndarray) -> tuple[np.ndarray, ...]:
    """Lagrange basis of the cubic on local nodes -1, 0, 1, 2 at offset t."""
    tp1, tm1, tm2 = t + 1.0, t - 1.0, t - 2.0
    return -t * tm1 * tm2 / 6.0, tp1 * tm1 * tm2 / 2.0, -tp1 * t * tm2 / 2.0, tp1 * t * tm1 / 6.0


def interpolation_stencil(n_points: int, x) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the 4-point periodic cubic at query points x.

    Returns (indices, weights) of shape (4, len(x)): the cubic through
    nodes i0-1 .. i0+2 where i0 = floor(N x), evaluated at local offset
    t = N x - i0.  Exact for cubics sampled on the stencil; weights sum
    to 1, so constants are reproduced exactly.
    """
    i0, t = _cell(n_points, x)
    idx = np.stack([(i0 - 1) % n_points, i0 % n_points, (i0 + 1) % n_points, (i0 + 2) % n_points])
    return idx, np.stack(_cubic_weights(t))


def interpolation_stencil6(n_points: int, x) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the 6-point periodic quintic at query points x.

    Same layout as interpolation_stencil but one order higher on each
    side; used inside transfer-matrix assembly, where the 4-point cubic
    is not accurate enough for the operator tolerances at N = 256.
    """
    i0, t = _cell(n_points, x)
    offsets = np.array([-2, -1, 0, 1, 2, 3])
    w = np.empty((6, t.shape[0]))
    for row, s in enumerate(offsets):
        num = np.ones_like(t)
        den = 1.0
        for r in offsets:
            if r != s:
                num *= t - r
                den *= s - r
        w[row] = num / den
    idx = np.stack([(i0 + s) % n_points for s in offsets])
    return idx, w


def interpolate_values(values: np.ndarray, x) -> np.ndarray:
    """Periodic cubic interpolation of raw sample values at points x.

    Gathers from the samples padded by one node before and three after
    (i0 may be N), so stencil node i0 - 1 + k is padded[i0 + k].
    """
    values = np.asarray(values, dtype=float)
    padded = np.concatenate([values[-1:], values, values[:3]])
    i0, t = _cell(values.shape[0], x)
    w = _cubic_weights(t)
    out = padded[i0] * w[0]
    for k in (1, 2, 3):
        out += padded[k:][i0] * w[k]
    return out


def interpolate(f: DensityGrid, x):
    """Evaluate f off-grid by the 4-point periodic cubic.

    Accepts a scalar or an array; returns the matching shape.
    """
    out = interpolate_values(f.values, x)
    if np.isscalar(x) or np.asarray(x).ndim == 0:
        return float(out[0])
    return out


def project_zero_mass(f: DensityGrid) -> DensityGrid:
    """Remove the mean so the result lies in the zero-mass subspace."""
    return DensityGrid(f.values - mass(f))


def normalize(f: DensityGrid) -> DensityGrid:
    """Clip tiny negative undershoot and rescale to unit mass."""
    v = np.maximum(f.values, 0.0)
    m = np.sum(v) / f.n_points
    if m <= 0.0:
        raise ValueError("cannot normalize a nonpositive density")
    return DensityGrid(v / m)


def write_density_csv(path, f: DensityGrid) -> None:
    """Write the density file format: header x,value, rows x_i = i/N."""
    n = f.n_points
    rows = "".join(f"{i / n:.17g},{v:.17g}\n" for i, v in enumerate(f.values.tolist()))
    with open(path, "w") as fh:
        fh.write("x,value\n" + rows)


def read_density_csv(path) -> DensityGrid:
    """Read a density CSV, rejecting non-uniform x spacing."""
    data = np.genfromtxt(path, delimiter=",", names=True)
    x = np.atleast_1d(data["x"])
    v = np.atleast_1d(data["value"])
    n = x.shape[0]
    expected = np.arange(n) / n
    if n < MIN_POINTS or np.max(np.abs(x - expected)) > 1e-12:
        raise ValueError(f"{path}: x column is not the uniform grid i/N")
    return DensityGrid(v)
