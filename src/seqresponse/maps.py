"""Expanding circle maps, their inverse branches, and kick diffeomorphisms.

Maps are stored as lifts l(x) = d*x + p(x) with p a trigonometric
polynomial, so all derivatives are exact and the C^3 norms are finite by
construction.  A kick h_eps(x) = x + eps*X(x) post-composed with a map
yields a KickedMap exposing the same evaluation interface.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegreeMismatch, KickTooLarge, NoConvergence, NotExpanding
from .grid import wrap

PROBE_POINTS = 8192
BRANCH_RESIDUAL_TOL = 1e-13
LAMBDA0_SAFETY = 1e-9
MAX_COEFF_INDEX = 16

_PROBE = np.arange(PROBE_POINTS) / PROBE_POINTS


class TrigPoly:
    """1-periodic trigonometric polynomial sum_k a_k cos(2 pi k x) + b_k sin(2 pi k x).

    Coefficient arrays are indexed by k = 0..K (b_0 is ignored); k = 0
    carries the constant term.
    """

    def __init__(self, cos_coeffs=(), sin_coeffs=()):
        a = np.atleast_1d(np.asarray(cos_coeffs, dtype=float)) if len(np.atleast_1d(cos_coeffs)) else np.zeros(1)
        b = np.atleast_1d(np.asarray(sin_coeffs, dtype=float)) if len(np.atleast_1d(sin_coeffs)) else np.zeros(1)
        k = max(a.shape[0], b.shape[0])
        if k - 1 > MAX_COEFF_INDEX:
            raise ValueError(f"coefficient index exceeds {MAX_COEFF_INDEX}")
        self.a = np.zeros(k)
        self.b = np.zeros(k)
        self.a[: a.shape[0]] = a
        self.b[: b.shape[0]] = b
        self.b[0] = 0.0
        w = 2.0 * np.pi * np.arange(k)
        # (frequency, coefficient, trig function) per nonzero harmonic k >= 1, cosines first.
        cos_k = [(w[j], self.a[j]) for j in range(1, k) if self.a[j] != 0.0]
        sin_k = [(w[j], self.b[j]) for j in range(1, k) if self.b[j] != 0.0]
        self._terms = [(f, c, np.cos) for f, c in cos_k] + [(f, c, np.sin) for f, c in sin_k]
        self._terms_d1 = [(f, -f * c, np.sin) for f, c in cos_k] + [(f, f * c, np.cos) for f, c in sin_k]
        self._terms_d2 = [(f, -(f**2) * c, np.cos) for f, c in cos_k] + [(f, -(f**2) * c, np.sin) for f, c in sin_k]

    @staticmethod
    def _sum(x, const: float, terms):
        """const + sum of c * trig(f x) over terms, one trig call per nonzero harmonic."""
        x = np.asarray(x, dtype=float)
        out = np.full(x.shape, const)
        th = np.empty(x.shape)
        for f, c, trig in terms:
            np.multiply(x, f, out=th)
            trig(th, out=th)
            th *= c
            out += th
        return out[()]

    def __call__(self, x):
        return self._sum(x, self.a[0], self._terms)

    def d1(self, x):
        return self._sum(x, 0.0, self._terms_d1)

    def d2(self, x):
        return self._sum(x, 0.0, self._terms_d2)


class CircleMap:
    """Degree-d expanding map T(x) = (d*x + p(x)) mod 1."""

    def __init__(self, degree: int, cos_coeffs=(), sin_coeffs=()):
        if degree < 2:
            raise ValueError("covering degree must be >= 2")
        self.degree = int(degree)
        self.p = TrigPoly(cos_coeffs, sin_coeffs)
        if np.min(self.degree + self.p.d1(_PROBE)) <= 1.0:
            raise NotExpanding("probed min of lift derivative is <= 1")

    def lift(self, x):
        return self.degree * np.asarray(x, dtype=float) + self.p(x)

    def eval(self, x):
        return wrap(self.lift(x))

    def eval_d1(self, x):
        return self.degree + self.p.d1(x)

    def eval_d2(self, x):
        return self.p.d2(x)

    def constants(self) -> tuple[float, float, float]:
        """(lambda0, M0, M2): probed extrema of |l'| and |l''|.

        When the derivative actually varies, lambda0 carries a one-sided
        safety shrink of 1e-9 against the probe missing the true minimum;
        a constant derivative (linear lift) is reported exactly.
        """
        d1 = np.abs(self.eval_d1(_PROBE))
        lam0 = float(np.min(d1))
        if lam0 <= 1.0:
            raise NotExpanding("probed min of lift derivative is <= 1")
        m0 = float(np.max(d1))
        if m0 > lam0:
            lam0 -= LAMBDA0_SAFETY
        return lam0, m0, float(np.max(np.abs(self.eval_d2(_PROBE))))

    def inverse_branches(self, x) -> np.ndarray:
        """All d preimages of x, ordered increasingly.

        Returns shape (d,) for scalar x, (d, len(x)) for array x.  Each
        branch solves l(y) = x + m by bisection bracketing plus Newton
        refinement to residual <= 1e-13.
        """
        scalar = np.isscalar(x) or np.asarray(x).ndim == 0
        x = wrap(np.atleast_1d(np.asarray(x, dtype=float)))
        ell0 = float(self.lift(0.0))
        m0 = np.ceil(ell0 - x - 1e-14)
        out = np.empty((self.degree, x.shape[0]))
        for j in range(self.degree):
            out[j] = self._solve_lift(x + m0 + j)
        return out[:, 0] if scalar else out

    def _solve_lift(self, target: np.ndarray) -> np.ndarray:
        lo = np.zeros_like(target)
        hi = np.ones_like(target)
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            below = self.lift(mid) < target
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
        y = 0.5 * (lo + hi)
        for _ in range(64):
            res = self.lift(y) - target
            if np.max(np.abs(res)) <= BRANCH_RESIDUAL_TOL:
                break
            y = np.clip(y - res / self.eval_d1(y), 0.0, 1.0)
        else:
            raise NoConvergence("Newton refinement of inverse branch did not converge")
        return np.where(y >= 1.0, 0.0, y)


@dataclass(frozen=True)
class KickField:
    """Vector field X on the circle defining the kick h_eps(x) = x + eps*X(x).

    An optional remainder schedule r(eps, x) -> array may model the
    higher-order part of the kick family; it defaults to zero.
    """

    cos_coeffs: tuple = ()
    sin_coeffs: tuple = ()
    remainder: object = None
    _poly: TrigPoly = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        object.__setattr__(self, "_poly", TrigPoly(self.cos_coeffs, self.sin_coeffs))

    def x_field(self, x):
        return self._poly(x)

    def sup_d1(self) -> float:
        return float(np.max(np.abs(self._poly.d1(_PROBE))))

    def _remainder(self, eps: float, x):
        if self.remainder is None:
            return np.zeros_like(np.asarray(x, dtype=float))
        return np.asarray(self.remainder(eps, x), dtype=float)

    def check_diffeo(self, eps: float) -> None:
        if abs(eps) * self.sup_d1() >= 0.5:
            raise KickTooLarge(f"eps*||X'||_inf = {abs(eps) * self.sup_d1():.3g} >= 0.5")

    def h(self, eps: float, x):
        """Kick lift H(u) = u + eps*X(u) + r(eps, u); commutes with integer shifts."""
        x = np.asarray(x, dtype=float)
        return x + eps * self._poly(x) + self._remainder(eps, x)

    def h_d1(self, eps: float, x):
        d = 1.0 + eps * self._poly.d1(x)
        if self.remainder is not None:
            # Remainder derivative by a small central difference; exact
            # kicks (the default) never reach this path.
            hstep = 1e-6
            d = d + (self._remainder(eps, np.asarray(x) + hstep) - self._remainder(eps, np.asarray(x) - hstep)) / (2 * hstep)
        return d

    def h_d2(self, eps: float, x):
        d = eps * self._poly.d2(x)
        if self.remainder is not None:
            hstep = 1e-5
            xx = np.asarray(x, dtype=float)
            d = d + (self._remainder(eps, xx + hstep) - 2 * self._remainder(eps, xx) + self._remainder(eps, xx - hstep)) / hstep**2
        return d

    def h_inverse(self, eps: float, y):
        """Solve h(u) = y by Newton to residual <= 1e-13."""
        y = np.asarray(y, dtype=float)
        u = y.copy() if hasattr(y, "copy") else np.asarray(y, dtype=float)
        for _ in range(64):
            res = self.h(eps, u) - y
            if np.max(np.abs(res)) <= BRANCH_RESIDUAL_TOL:
                return u
            u = u - res / self.h_d1(eps, u)
        raise NoConvergence("Newton inversion of kick did not converge")


class KickedMap:
    """Composed map T_eps = h_eps o T with the CircleMap evaluation interface."""

    def __init__(self, kick: KickField, eps: float, base: CircleMap):
        kick.check_diffeo(eps)
        self.kick = kick
        self.eps = float(eps)
        self.base = base
        self.degree = base.degree

    def lift(self, x):
        return self.kick.h(self.eps, self.base.lift(x))

    def eval(self, x):
        return wrap(self.lift(x))

    def eval_d1(self, x):
        u = self.base.lift(x)
        return self.kick.h_d1(self.eps, u) * self.base.eval_d1(x)

    def eval_d2(self, x):
        u = self.base.lift(x)
        d1 = self.base.eval_d1(x)
        return self.kick.h_d2(self.eps, u) * d1**2 + self.kick.h_d1(self.eps, u) * self.base.eval_d2(x)

    def constants(self) -> tuple[float, float, float]:
        d1 = np.abs(self.eval_d1(_PROBE))
        lam0 = float(np.min(d1))
        if lam0 <= 1.0:
            raise NotExpanding("kicked map is not uniformly expanding")
        m0 = float(np.max(d1))
        if m0 > lam0:
            lam0 -= LAMBDA0_SAFETY
        return lam0, m0, float(np.max(np.abs(self.eval_d2(_PROBE))))

    def inverse_branches(self, x):
        scalar = np.isscalar(x) or np.asarray(x).ndim == 0
        x = wrap(np.atleast_1d(np.asarray(x, dtype=float)))
        w = wrap(self.kick.h_inverse(self.eps, x))
        out = self.base.inverse_branches(w)
        return out[:, 0] if scalar else out


def kick_map(kick: KickField, eps: float, base: CircleMap) -> KickedMap:
    return KickedMap(kick, eps, base)


def c2_distance(t1, t2) -> float:
    """Probed C^2 sup distance of the lifts (degrees equal, so periodic)."""
    if t1.degree != t2.degree:
        raise DegreeMismatch(f"degrees differ: {t1.degree} vs {t2.degree}")
    d0 = np.max(np.abs(t1.lift(_PROBE) - t2.lift(_PROBE)))
    d1 = np.max(np.abs(t1.eval_d1(_PROBE) - t2.eval_d1(_PROBE)))
    d2 = np.max(np.abs(t1.eval_d2(_PROBE) - t2.eval_d2(_PROBE)))
    return float(d0 + d1 + d2)
