"""Discretized Perron-Frobenius operators on the periodic grid.

Each operator is stored matrix-free as A f = K(S f) + (c . f) 1:

- S is a sparse stencil in COO form, (S f)[i] = sum over k with
  rows[k] = i of entries[k] f[cols[k]], applied in O(nnz) by np.bincount;
- K is an optional circular convolution (the noise kernels), stored as the
  rfft spectrum of its kernel and applied in O(N log N);
- c is the rank-one mass correction c_j = (1 - column sum_j of K S) / N,
  which makes every column of A sum to exactly 1, so the discrete mass
  functional (1/N) sum f is preserved to round-off and the zero-mass
  subspace is exactly invariant, which the response series relies on.

No N x N array is built except by `to_dense`, which the tests and the
probe pushes of `constants.choose_M` use.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import grid as gridmod
from .errors import DimensionMismatch
from .grid import DensityGrid
from .maps import CircleMap, KickedMap, KickField


def _frozen(a, dtype) -> np.ndarray:
    a = np.array(a, dtype=dtype).ravel()
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class TransferMatrix:
    """Matrix-free realization of one transfer operator, A f = K(S f) + (c . f) 1.

    Build one with `from_stencil`, which checks the stencil against the
    grid and derives the mass correction.
    """

    rows: np.ndarray
    cols: np.ndarray
    entries: np.ndarray
    correction: np.ndarray
    spectrum: np.ndarray | None = None  # rfft of the convolution kernel of K; None means K = identity

    def __post_init__(self):
        for name, dtype in (("rows", np.int64), ("cols", np.int64), ("entries", float), ("correction", float)):
            object.__setattr__(self, name, _frozen(getattr(self, name), dtype))
        if self.spectrum is not None:
            object.__setattr__(self, "spectrum", _frozen(self.spectrum, complex))

    @classmethod
    def from_stencil(cls, rows, cols, entries, n_points: int, kernel=None) -> "TransferMatrix":
        """Mass-corrected operator A = K S + 1 c^T from the stencil S and K's kernel.

        K f is the circular convolution (K f)[i] = sum_m kernel[(i - m) % N] f[m].
        Every column of a circulant sums to sum(kernel), so the column sums
        of K S are those of S times sum(kernel).
        """
        rows, cols, entries = np.ravel(rows), np.ravel(cols), np.ravel(entries)
        if not rows.shape == cols.shape == entries.shape:
            raise ValueError("stencil rows, cols and entries must have one length")
        for index in (rows, cols):
            if index.size and not (0 <= index.min() and index.max() < n_points):
                raise ValueError(f"stencil index outside the {n_points}-point grid")
        col_sums = np.bincount(cols, entries, minlength=n_points)
        spectrum = None
        if kernel is not None:
            col_sums *= np.sum(kernel)
            spectrum = np.fft.rfft(kernel)
        return cls(rows, cols, entries, (1.0 - col_sums) / n_points, spectrum)

    @property
    def n_points(self) -> int:
        return self.correction.shape[0]

    def to_dense(self) -> np.ndarray:
        """The N x N matrix of the operator, for tests and probe pushes."""
        n = self.n_points
        a = np.zeros((n, n))
        np.add.at(a, (self.rows, self.cols), self.entries)
        if self.spectrum is not None:
            a = np.fft.irfft(self.spectrum[:, None] * np.fft.rfft(a, axis=0), n=n, axis=0)
        return a + self.correction[None, :]


def _assemble(points: np.ndarray, weights: np.ndarray) -> TransferMatrix:
    """Mass-corrected operator with (Af)[i] = sum_b weights[b, i] f(points[b, i]).

    f is read off-grid by the 6-point stencil.  The stencil lists all
    (branch, offset, row) triples in branch-major order.
    """
    n_branches, n_points = points.shape
    idx, w = gridmod.interpolation_stencil6(n_points, points.ravel())
    cols = idx.reshape(6, n_branches, n_points).swapaxes(0, 1)
    entries = w.reshape(6, n_branches, n_points).swapaxes(0, 1) * weights[:, None, :]
    rows = np.broadcast_to(np.arange(n_points), cols.shape)
    return TransferMatrix.from_stencil(rows, cols, entries, n_points)


def build_deterministic(t: CircleMap | KickedMap, n_points: int) -> TransferMatrix:
    """Branch-formula operator (Lf)(x_i) = sum_j f(h_j(x_i)) / l'(h_j(x_i)).

    A KickedMap h_eps o T gives the kicked operator L_{h_eps o T} in the
    same single pass.
    """
    x = np.arange(n_points) / n_points
    branches = t.inverse_branches(x)  # (d, N)
    return _assemble(branches, 1.0 / t.eval_d1(branches))  # lift derivative is positive for our maps


def build_kick(kick: KickField, eps: float, n_points: int) -> TransferMatrix:
    """Diffeomorphism operator (L_h u)(x_i) = u(h^{-1}(x_i)) / h'(h^{-1}(x_i))."""
    kick.check_diffeo(eps)
    x = np.arange(n_points) / n_points
    u = gridmod.wrap(kick.h_inverse(eps, x))
    return _assemble(u[None, :], 1.0 / kick.h_d1(eps, u)[None, :])


def d_operator(kick: KickField, u: DensityGrid) -> DensityGrid:
    """First-order perturbation operator Du = -(Xu)'."""
    x_samples = kick.x_field(u.nodes)
    return gridmod.derivative(DensityGrid(x_samples * u.values)) * -1.0


def compose_matrices(outer: TransferMatrix, inner: TransferMatrix) -> TransferMatrix:
    """Dense product operator: inner acts first.  The one-pass kicked operator is tested against it."""
    if outer.n_points != inner.n_points:
        raise DimensionMismatch("matrix sizes differ")
    product = outer.to_dense() @ inner.to_dense()
    rows, cols = np.nonzero(product)
    return TransferMatrix.from_stencil(rows, cols, product[rows, cols], outer.n_points)


def apply(a: TransferMatrix, f: DensityGrid) -> DensityGrid:
    """A f = K(S f) + (c . f) 1 in O(nnz), plus O(N log N) for a convolution."""
    if a.n_points != f.n_points:
        raise DimensionMismatch(f"matrix is {a.n_points}, grid is {f.n_points}")
    v = f.values
    s = np.bincount(a.rows, a.entries * v[a.cols], minlength=a.n_points)
    if a.spectrum is not None:
        s = np.fft.irfft(a.spectrum * np.fft.rfft(s), n=a.n_points)
    return DensityGrid(s + a.correction @ v)
