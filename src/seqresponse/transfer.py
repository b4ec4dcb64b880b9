"""Discretized Perron-Frobenius operators on the periodic grid.

Each operator is realized as a dense N x N matrix acting on grid values,
(Af)[i] = sum_j A[i,j] f[j].  After assembly every matrix receives a
rank-one mass correction A <- A + 1*c^T so the discrete mass functional
(1/N) sum f is preserved to round-off; the zero-mass subspace is then
exactly invariant, which the response series relies on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import grid as gridmod
from .errors import DimensionMismatch
from .grid import DensityGrid
from .maps import CircleMap, KickedMap, KickField


@dataclass(frozen=True)
class TransferMatrix:
    """Dense realization of one transfer operator."""

    entries: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=float)
        if e.ndim != 2 or e.shape[0] != e.shape[1]:
            raise ValueError("transfer matrix must be square")
        e = e.copy()
        e.setflags(write=False)
        object.__setattr__(self, "entries", e)

    @property
    def n_points(self) -> int:
        return self.entries.shape[0]


def _mass_correct(a: np.ndarray) -> np.ndarray:
    """Rank-one correction making every column sum exactly 1.

    Column sums of 1 are equivalent to exact preservation of the discrete
    mass functional (1/N) sum_i f[i].
    """
    defect = 1.0 - a.sum(axis=0)
    return a + defect[None, :] / a.shape[0]


def _assemble(points: np.ndarray, weights: np.ndarray) -> TransferMatrix:
    """Mass-corrected matrix with (Af)[i] = sum_b weights[b, i] f(points[b, i]).

    f is read off-grid by the 6-point stencil.  One scatter covers all
    (branch, stencil) pairs in branch-major order, so each entry sums its
    contributions in the same order as a loop over branches then stencil
    offsets would.
    """
    n_branches, n_points = points.shape
    idx, w = gridmod.interpolation_stencil6(n_points, points.ravel())
    idx = np.ascontiguousarray(idx.reshape(6, n_branches, n_points).swapaxes(0, 1))
    w = np.ascontiguousarray(w.reshape(6, n_branches, n_points).swapaxes(0, 1)) * weights[:, None, :]
    rows = np.broadcast_to(np.arange(n_points), idx.shape)
    a = np.zeros((n_points, n_points))
    np.add.at(a, (rows, idx), w)
    return TransferMatrix(_mass_correct(a))


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
    u = kick.h_inverse(eps, x) % 1.0
    return _assemble(u[None, :], 1.0 / kick.h_d1(eps, u)[None, :])


def d_operator(kick: KickField, u: DensityGrid) -> DensityGrid:
    """First-order perturbation operator Du = -(Xu)'."""
    x_samples = kick.x_field(u.nodes)
    return gridmod.derivative(DensityGrid(x_samples * u.values)) * -1.0


def compose_matrices(outer: TransferMatrix, inner: TransferMatrix) -> TransferMatrix:
    """Product operator: inner acts first.  The one-pass kicked operator is tested against it."""
    if outer.n_points != inner.n_points:
        raise DimensionMismatch("matrix sizes differ")
    return TransferMatrix(outer.entries @ inner.entries)


def apply(a: TransferMatrix, f: DensityGrid) -> DensityGrid:
    if a.n_points != f.n_points:
        raise DimensionMismatch(f"matrix is {a.n_points}, grid is {f.n_points}")
    return DensityGrid(a.entries @ f.values)
