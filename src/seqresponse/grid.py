"""Periodic grid discretization of densities on the circle.

A density is its raw samples at the N uniform nodes x_i = i/N, an (N,)
array or one row of an (m, N) block, treated as a 1-periodic function;
`checked_density` checks samples from outside once.  Quadrature is the
midpoint rule (exact for trigonometric polynomials of degree < N),
differentiation is a 4th-order centered stencil, and operator assembly
reads a density off the grid by the 6-point quintic stencil.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

MIN_POINTS = 16
CUBIC_OFFSETS = (-1, 0, 1, 2)  # stencil nodes i0 + s of the 4-point cubic
QUINTIC_OFFSETS = (-2, -1, 0, 1, 2, 3)  # and of the 6-point quintic


def checked_density(values) -> np.ndarray:
    """A read-only float copy of the samples of one density: 1-d, finite, an even N >= MIN_POINTS."""
    v = np.array(values, dtype=float)
    if v.ndim != 1:
        raise ValueError("grid values must be a 1-d array")
    n = v.shape[0]
    if n < MIN_POINTS or n % 2 != 0:
        raise ValueError(f"need an even number of points >= {MIN_POINTS}, got {n}")
    if not np.isfinite(v).all():
        raise ValueError("grid values must be finite")
    v.setflags(write=False)
    return v


class DensityGrid:
    """Checked samples of one density, the argument and result of `transfer.apply`.

    `values` is the read-only copy made by `checked_density`.
    """

    def __init__(self, values):
        self.values = checked_density(values)

    @property
    def n_points(self) -> int:
        return self.values.shape[0]


def mass(v: np.ndarray):
    """Total mass by midpoint quadrature of raw samples v, shape (N,) or (m, N) with one density per row."""
    return v.sum(axis=-1) / v.shape[-1]


def norm_l1(v: np.ndarray):
    """L^1 norm of raw samples v, shape (N,) or (m, N) with one density per row."""
    return np.abs(v).sum(axis=-1) / v.shape[-1]


def derivative(v: np.ndarray) -> np.ndarray:
    """4th-order centered finite difference of raw samples v, shape (N,) or (m, N) with one density per row."""
    n = v.shape[-1]
    p = np.concatenate([v[..., -2:], v, v[..., :2]], axis=-1)  # p[..., i + 2] = v[..., i]
    return n * (-p[..., 4:] + 8.0 * p[..., 3:-1] - 8.0 * p[..., 1:-3] + p[..., :-4]) / 12.0


def norm_w11(v: np.ndarray):
    """W^{1,1} norm of raw samples v, shape (N,) or (m, N) with one density per row."""
    return norm_l1(v) + norm_l1(derivative(v))


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


def _lagrange_weights(t: np.ndarray, offsets) -> list[np.ndarray]:
    """Lagrange basis on the integer nodes `offsets` at local offset t, one array per node.

    The weight of node s is prod_{r != s} (t - r) / prod_{r != s} (s - r),
    the factors multiplied in the order of `offsets`; the factor for r = 0
    is t itself.  Separate arrays, not rows of one block: a fresh block
    of Monte Carlo size is mapped memory whose page faults cost more than
    the arithmetic.
    """
    factors = [t if r == 0 else t - r for r in offsets]
    weights = []
    for j, s in enumerate(offsets):
        fs = factors[:j] + factors[j + 1 :]
        num = fs[0] * fs[1]
        for f in fs[2:]:
            num *= f
        num /= math.prod(s - r for r in offsets if r != s)
        weights.append(num)
    return weights


def interpolation_stencil(n_points: int, x, offsets) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the periodic Lagrange interpolant on the stencil offsets at query points x.

    Returns (indices, weights) of shape (len(offsets), len(x)): the
    polynomial through nodes i0 + s for s in offsets, where
    i0 = floor(N x), evaluated at local offset t = N x - i0.  Exact for
    polynomials of the stencil's degree sampled on it; weights sum to 1,
    so constants are reproduced exactly.
    """
    i0, t = _cell(n_points, x)
    return np.stack([(i0 + s) % n_points for s in offsets]), np.stack(_lagrange_weights(t, offsets))


def interpolation_stencil6(n_points: int, x) -> tuple[np.ndarray, np.ndarray]:
    """The 6-point quintic stencil, for transfer-matrix assembly, where the cubic is not accurate enough at N = 256."""
    return interpolation_stencil(n_points, x, QUINTIC_OFFSETS)


def interpolate_values(values: np.ndarray, x) -> np.ndarray:
    """Periodic cubic interpolation of raw sample values at points x; no library code calls it.

    Gathers from the samples padded by one node before and three after
    (i0 may be N), so stencil node i0 - 1 + k is padded[i0 + k].
    """
    values = np.asarray(values, dtype=float)
    padded = np.concatenate([values[-1:], values, values[:3]])
    i0, t = _cell(values.shape[0], x)
    w = _lagrange_weights(t, CUBIC_OFFSETS)
    out = padded[i0] * w[0]
    for k in (1, 2, 3):
        out += padded[k:][i0] * w[k]
    return out


def project_zero_mass(v: np.ndarray) -> np.ndarray:
    """Raw samples v less their mean, so the result lies in the zero-mass subspace."""
    return v - mass(v)


_CSV_TEMPLATES: dict[tuple[str, int], str] = {}


def _csv_template(header: str, n: int) -> str:
    """The density file of an n-point grid under `header` with a %.17g slot for each value."""
    if (header, n) not in _CSV_TEMPLATES:
        _CSV_TEMPLATES[header, n] = header + "\n" + "".join(f"{i / n:.17g},%.17g\n" for i in range(n))
    return _CSV_TEMPLATES[header, n]


def write_density_csv(path, values: np.ndarray, header: str = "x,value") -> None:
    """Write the density file format of raw samples: the header line, then rows x_i = i/N, value."""
    text = _csv_template(header, values.shape[0]) % tuple(values.tolist())
    with open(path, "w") as fh:
        fh.write(text)


def read_density_csv(path, n_points: int) -> np.ndarray:
    """The checked samples of a density CSV; an empty file, non-uniform x or not n_points rows is a ValueError."""
    try:
        with warnings.catch_warnings():  # the ValueError below is the one report of an empty file
            warnings.filterwarnings("ignore", "genfromtxt: Empty input file", UserWarning)
            data = np.genfromtxt(path, delimiter=",", names=True)
    except IndexError:  # numpy's failure on a file without a single nonblank line
        raise ValueError(f"{path} is empty") from None
    x = np.atleast_1d(data["x"])
    v = np.atleast_1d(data["value"])
    n = x.shape[0]
    expected = np.arange(n) / n
    if n < MIN_POINTS or not np.max(np.abs(x - expected)) <= 1e-12:  # NaN fails too
        raise ValueError(f"{path}: x column is not the uniform grid i/N")
    if n != n_points:
        raise ValueError(f"{path} has {n} points, expected {n_points}")
    return checked_density(v)
