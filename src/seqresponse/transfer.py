"""Discretized Perron-Frobenius operators on the periodic grid.

Each operator is stored matrix-free as its stencil S and kernel K:

- S is a gather stencil of (k, N) arrays, (S f)[i] = sum over j of
  entries[j, i] f[cols[j, i]]: the branch formula of a map's transfer
  operator, one row per inverse branch and interpolation offset;
- K is an optional circular convolution (the noise kernels, K_q after the
  drift's S), stored as the rfft spectrum of its kernel and applied in
  O(N log N), by one rfft/irfft along the last axis for a block of
  densities.

The operator is A f = K(S f) + (mass(f) - mass(K S f)) 1: each pushed
density gets back its own mass defect, so the discrete mass functional
(1/N) sum f is preserved to round-off and the zero-mass subspace is
invariant, which the response series relies on.  As a matrix A is
K S + 1 c^T with c_j = (1 - column sum_j of K S) / N, which `to_dense`
builds.

`TransferMatrix(cols, entries, kernel=None)` is the one constructor; it
checks the stencil and the kernel's shape, and N is the stencil's number
of columns.  `push(a, v)` applies A to raw samples, v of shape (N,) or
(m, N) with one density per row, through one code path that pushes a
single density as a block of one row; the solvers' loops call it.
`apply` is the checked edge that takes and returns a DensityGrid.  No
N x N array is built except by `to_dense` and `compose_matrices` (a
gather with k = N), the tests' references.
"""

from __future__ import annotations

import numpy as np

from . import grid as gridmod
from .errors import InvalidSystem
from .maps import CircleMap, KickedMap, TrigPoly


def _frozen(a, dtype) -> np.ndarray:
    a = np.array(a, dtype=dtype)
    a.setflags(write=False)
    return a


# Float64 elements of the (m, k, N) block one gather multiplies and sums
# (512 KiB); wider pushes run in slices of rows, so the block never grows
# with the number of densities pushed.
GATHER_BUDGET = 1 << 16


class TransferMatrix:
    """Matrix-free realization of one transfer operator, its stencil S and kernel K.

    `cols` and `entries` have one shape (k, N): row i of S reads column
    cols[j, i] with weight entries[j, i].  `kernel` is the convolution
    kernel of K, or None for K = identity:
    (K f)[i] = sum_m kernel[(i - m) % N] f[m], stored as its rfft
    `spectrum`.  The constructor checks the stencil against its N columns
    and the kernel's shape against (N,), and stores the arrays as
    read-only copies.
    """

    def __init__(self, cols, entries, kernel=None):
        cols, entries = np.asarray(cols), np.asarray(entries, dtype=float)
        if not (cols.ndim == 2 and cols.shape == entries.shape):
            raise ValueError(f"stencil indices {cols.shape} and entries {entries.shape} must share one shape (k, N)")
        n = cols.shape[1]
        if cols.size and not (0 <= cols.min() and cols.max() < n):
            raise ValueError(f"stencil index outside the {n}-point grid")
        if kernel is not None and np.shape(kernel) != (n,):
            raise ValueError(f"kernel of shape {np.shape(kernel)} must have shape ({n},)")
        self.cols = _frozen(cols, np.int64)
        self.entries = _frozen(entries, float)
        self.spectrum = None if kernel is None else _frozen(np.fft.rfft(kernel), complex)

    @property
    def n_points(self) -> int:
        return self.cols.shape[1]

    def to_dense(self) -> np.ndarray:
        """The N x N matrix K S + 1 c^T of the operator, a reference for the tests."""
        n = self.n_points
        a = np.zeros((n, n))
        np.add.at(a, (np.broadcast_to(np.arange(n), self.cols.shape), self.cols), self.entries)
        if self.spectrum is not None:
            a = np.fft.irfft(self.spectrum[:, None] * np.fft.rfft(a, axis=0), n=n, axis=0)
        return a + (1.0 - a.sum(axis=0)) / n


def build_deterministic(t: CircleMap | KickedMap, n_points: int, kernel=None) -> TransferMatrix:
    """Mass-preserving branch-formula operator (Lf)(x_i) = sum_j f(h_j(x_i)) / l'(h_j(x_i)), then K.

    f is read off-grid by the 6-point stencil: the gather has one row per
    (branch, offset) pair, in branch-major order.  A KickedMap h_eps o T
    gives the kicked operator L_{h_eps o T} in the same single pass.  With
    a `kernel` it is K L, as a noise kernel is its drift's L and then K.
    """
    x = np.arange(n_points) / n_points
    branches = t.inverse_branches(x)  # (d, N)
    weights = 1.0 / t.lift_d1(branches)[1]  # lift derivative is positive for our maps
    idx, w = gridmod.interpolation_stencil6(n_points, branches.ravel())
    cols = idx.reshape(6, t.degree, n_points).swapaxes(0, 1).reshape(-1, n_points)
    entries = (w.reshape(6, t.degree, n_points).swapaxes(0, 1) * weights[:, None, :]).reshape(-1, n_points)
    return TransferMatrix(cols, entries, kernel)


class _Identity:
    """The degree-1 lift x -> x: h_eps o identity is the kick alone."""

    degree = 1

    def lift_d1(self, x):
        return x, 1.0


def build_kick(kick: TrigPoly, eps: float, n_points: int) -> TransferMatrix:
    """Diffeomorphism operator (L_h u)(x_i) = u(h^{-1}(x_i)) / h'(h^{-1}(x_i)).

    It is the kicked operator of the identity lift, so h^{-1} comes from
    the safeguarded inverse-branch solver.
    """
    return build_deterministic(KickedMap(kick, eps, _Identity()), n_points)


def d_operator(kick: TrigPoly, u: np.ndarray) -> np.ndarray:
    """First-order perturbation operator Du = -(Xu)' on raw samples u, shape (N,) or (m, N) with one density per row."""
    n = u.shape[-1]
    return gridmod.derivative(kick(np.arange(n) / n) * u) * -1.0


def compose_matrices(outer: TransferMatrix, inner: TransferMatrix) -> TransferMatrix:
    """Dense product operator, inner acting first: the reference the one-pass kicked operator is tested against.

    Column j of the product is outer pushed on column j of inner, which is
    inner pushed on the unit vector e_j.  So row j of the pushed identity
    holds the weights of f[j] in every row: a gather with k = N and
    cols[j, i] = j.
    """
    n = outer.n_points
    if n != inner.n_points:
        raise InvalidSystem("matrix sizes differ")
    cols = np.broadcast_to(np.arange(n)[:, None], (n, n))
    return TransferMatrix(cols, push(outer, push(inner, np.eye(n))))


def _gather(a: TransferMatrix, v: np.ndarray) -> np.ndarray:
    """S v for an (m, N) block v, (entries * v[:, cols]).sum(-2), summed in stencil order.

    Blocks of rows that would exceed GATHER_BUDGET run in slices.
    """
    step = max(1, GATHER_BUDGET // a.cols.size)
    if v.shape[0] <= step:
        s = v.take(a.cols, axis=-1)
        s *= a.entries
        return s.sum(axis=-2)
    return np.concatenate([_gather(a, v[lo : lo + step]) for lo in range(0, v.shape[0], step)])


def push(a: TransferMatrix, v) -> np.ndarray:
    """A applied to each row of v, shape (N,) or (m, N): K(S v) plus the row's mass defect, in O(nnz) per row.

    v is pushed as a C-ordered (m, N) block, one density of shape (N,) as
    a block of one row.  Every row of the result has the bits it would
    have if pushed alone, whatever the layout of v: the stencil sums run
    in stencil order and each row's masses are sums over that row alone.
    """
    v = np.asarray(v, dtype=float)
    n = a.n_points
    if v.ndim not in (1, 2) or v.shape[-1] != n:
        raise InvalidSystem(f"matrix is {n}, densities have shape {v.shape}")
    block = np.ascontiguousarray(v.reshape(-1, n))
    s = _gather(a, block)
    if a.spectrum is not None:
        s = np.fft.irfft(a.spectrum * np.fft.rfft(s, axis=-1), n=n, axis=-1)
    s += (gridmod.mass(block) - gridmod.mass(s))[:, None]
    return s.reshape(v.shape)


def apply(a: TransferMatrix, f: gridmod.DensityGrid) -> gridmod.DensityGrid:
    """A f for one density on the grid, checked at both ends."""
    if a.n_points != f.n_points:
        raise InvalidSystem(f"matrix is {a.n_points}, grid is {f.n_points}")
    return gridmod.DensityGrid(push(a, f.values))
