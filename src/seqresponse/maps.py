"""Expanding circle maps, their inverse branches, and kick diffeomorphisms.

Maps are stored as lifts l(x) = d*x + p(x) with p a trigonometric
polynomial, so all derivatives are exact and the C^3 norms are finite by
construction.  A kick h_eps(x) = x + eps*X(x) post-composed with a map
yields a KickedMap with the lift, first derivative and inverse branches
that operator assembly reads.

Inverse branches of plain and kicked maps alike come from one
safeguarded Newton solver, which solves all d branches as one array.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidSystem, NotConverged
from .grid import wrap

PROBE_POINTS = 8192
BRANCH_RESIDUAL_TOL = 1e-13
LAMBDA0_SAFETY = 1e-9
MAX_COEFF_INDEX = 16

_PROBE = np.arange(PROBE_POINTS) / PROBE_POINTS


class TrigPoly:
    """1-periodic trigonometric polynomial sum_k a_k cos(2 pi k x) + b_k sin(2 pi k x).

    Coefficient arrays are indexed by k = 0..K; k = 0 carries the
    constant term, and b_0, the amplitude of sin 0 = 0, must be 0.

    Every evaluation takes one tan per point: with t = tan(pi x), the
    rotation of harmonic 1 is cos 2 pi x = (1 - t^2) / (1 + t^2) and
    sin 2 pi x = 2t / (1 + t^2), and harmonic k's rotation is harmonic
    k - 1's turned by it (angle addition).  The value and each
    derivative sum those same rotations with their own coefficients.
    """

    def __init__(self, cos_coeffs=(), sin_coeffs=()):
        a = np.atleast_1d(np.asarray(cos_coeffs, dtype=float)) if len(np.atleast_1d(cos_coeffs)) else np.zeros(1)
        b = np.atleast_1d(np.asarray(sin_coeffs, dtype=float)) if len(np.atleast_1d(sin_coeffs)) else np.zeros(1)
        k = max(a.shape[0], b.shape[0])
        if k - 1 > MAX_COEFF_INDEX:
            raise ValueError(f"coefficient index exceeds {MAX_COEFF_INDEX}")
        if b[0] != 0.0:
            raise ValueError(f"harmonic 0 has no sine term, got amplitude {b[0]!r}")
        self.a = np.zeros(k)
        self.b = np.zeros(k)
        self.a[: a.shape[0]] = a
        self.b[: b.shape[0]] = b
        w = 2.0 * np.pi * np.arange(k)
        # (cosine, sine) coefficients of each harmonic in p, p' and p'': d/dx of a cos wx + b sin wx is wb cos wx - wa sin wx
        self._coeffs = ((self.a, self.b), (w * self.b, -w * self.a), (-(w**2) * self.a, -(w**2) * self.b))
        self._const = (self.a[0], 0.0, 0.0)
        self._top = max((j for j in range(1, k) if self.a[j] != 0.0 or self.b[j] != 0.0), default=0)

    def derivatives(self, x, orders):
        """p^(o)(x) for each o in orders (0, 1 or 2), one array each, from one set of rotations.

        A term whose coefficient is 0 is skipped; NaN and inf give NaN,
        also where no harmonic is left.
        """
        x = np.asarray(x, dtype=float)
        sums = [None] * len(orders)
        if self._top:
            t = np.tan(np.pi * x)
            c1 = 2.0 / (1.0 + t * t)  # 1 + cos 2 pi x
            s1 = t * c1
            c1 -= 1.0
            c, s = c1, s1
            for k in range(1, self._top + 1):
                if k > 1:
                    c, s = c * c1 - s * s1, s * c1 + c * s1
                for i, o in enumerate(orders):
                    for coeff, rot in zip(self._coeffs[o], (c, s)):
                        if coeff[k] != 0.0:
                            term = coeff[k] * rot
                            if sums[i] is None:
                                sums[i] = term
                            else:
                                sums[i] += term
        for i, o in enumerate(orders):
            if sums[i] is None:
                sums[i] = x * 0.0 + self._const[o]
            elif self._const[o] != 0.0:
                sums[i] += self._const[o]
        return sums

    def __call__(self, x):
        return self.derivatives(x, (0,))[0]

    def d1(self, x):
        return self.derivatives(x, (1,))[0]

    def d2(self, x):
        return self.derivatives(x, (2,))[0]


class CircleMap:
    """Degree-d expanding map T(x) = (d*x + p(x)) mod 1."""

    def __init__(self, degree: int, cos_coeffs=(), sin_coeffs=()):
        if degree < 2:
            raise InvalidSystem("covering degree must be >= 2")
        self.degree = int(degree)
        self.p = TrigPoly(cos_coeffs, sin_coeffs)
        if np.min(self.degree + self.p.d1(_PROBE)) <= 1.0:
            raise InvalidSystem("probed min of lift derivative is <= 1")

    def lift(self, x):
        return self.degree * np.asarray(x, dtype=float) + self.p(x)

    def eval(self, x):
        return wrap(self.lift(x))

    def eval_d1(self, x):
        return self.degree + self.p.d1(x)

    def lift_d1(self, x):
        """(l(x), l'(x)) from one evaluation of p."""
        x = np.asarray(x, dtype=float)
        p, dp = self.p.derivatives(x, (0, 1))
        return self.degree * x + p, self.degree + dp

    def eval_d2(self, x):
        return self.p.d2(x)

    def constants(self) -> tuple[float, float, float]:
        """(lambda0, M0, M2): probed extrema of |l'| and |l''|.

        When the derivative actually varies, lambda0 carries a one-sided
        safety shrink of 1e-9 against the probe missing the true minimum;
        a constant derivative (linear lift) is reported exactly.
        """
        d1 = np.abs(self.eval_d1(_PROBE))  # > 1, checked by __init__
        lam0 = float(np.min(d1))
        m0 = float(np.max(d1))
        if m0 > lam0:
            lam0 -= LAMBDA0_SAFETY
        return lam0, m0, float(np.max(np.abs(self.eval_d2(_PROBE))))

    def inverse_branches(self, x) -> np.ndarray:
        """All d preimages of x, ordered increasingly, by safeguarded Newton.

        Returns shape (d,) for scalar x, (d, len(x)) for array x.  Branch j
        solves l(y) = x + m0 + j from the linear guess; a Newton step that
        leaves the point's bracket, tightened by the sign of the residual,
        bisects it instead (rtsafe, Numerical Recipes 9.4).  Reads only
        lift, lift_d1 and degree.  Stops at residual <= 1e-13.
        """
        scalar = np.ndim(x) == 0
        x = wrap(np.atleast_1d(np.asarray(x, dtype=float)))
        ell0 = float(self.lift(0.0))
        target = x + np.ceil(ell0 - x - 1e-14) + np.arange(self.degree)[:, None]
        y = np.clip((target - ell0) / self.degree, 0.0, 1.0)
        lo, hi = np.zeros_like(y), np.ones_like(y)
        for _ in range(64):
            ell, d1 = self.lift_d1(y)
            res = ell - target
            if np.max(np.abs(res)) <= BRANCH_RESIDUAL_TOL:
                break
            below = res < 0.0
            np.copyto(lo, y, where=below)
            np.copyto(hi, y, where=~below)
            step = y - res / d1
            # inclusive, so a converged point whose step rounds onto the bracket end stays put
            y = np.where((lo <= step) & (step <= hi), step, 0.5 * (lo + hi))
        else:
            raise NotConverged("safeguarded Newton solve of inverse branches did not converge")
        y[y >= 1.0] = 0.0
        return y[:, 0] if scalar else y


class KickedMap:
    """Composed map T_eps = h_eps o T, h_eps(x) = x + eps*X(x) for the TrigPoly X = kick; probed eps*||X'|| < 1/2."""

    def __init__(self, kick: TrigPoly, eps: float, base: CircleMap):
        bound = abs(eps) * float(np.max(np.abs(kick.d1(_PROBE))))
        if bound >= 0.5:
            raise InvalidSystem(f"eps*||X'||_inf = {bound:.3g} >= 0.5")
        self.kick = kick
        self.eps = float(eps)
        self.base = base
        self.degree = base.degree

    def lift(self, x):
        """h_eps(l(x)) = u + eps*X(u) with u = l(x); h_eps commutes with integer shifts."""
        u = self.base.lift(x)
        return u + self.eps * self.kick(u)

    def eval_d1(self, x):
        return self.lift_d1(x)[1]

    def lift_d1(self, x):
        """(h_eps(u), (1 + eps*X'(u)) * l'(x)) with u = l(x) evaluated once, and X and X' from one evaluation."""
        u = self.base.lift(x)
        kick, dkick = self.kick.derivatives(u, (0, 1))
        return u + self.eps * kick, (1.0 + self.eps * dkick) * self.base.eval_d1(x)

    inverse_branches = CircleMap.inverse_branches  # the same solver on the lift h_eps o l


def c2_distance(t1, t2) -> float:
    """Probed C^2 sup distance of the lifts (degrees equal, so periodic)."""
    if t1.degree != t2.degree:
        raise InvalidSystem(f"degrees differ: {t1.degree} vs {t2.degree}")
    d0 = np.max(np.abs(t1.lift(_PROBE) - t2.lift(_PROBE)))
    d1 = np.max(np.abs(t1.eval_d1(_PROBE) - t2.eval_d1(_PROBE)))
    d2 = np.max(np.abs(t1.eval_d2(_PROBE) - t2.eval_d2(_PROBE)))
    return float(d0 + d1 + d2)
