"""Explicit constants and admissibility conditions for the reference map.

Produces a machine-readable certificate: Lasota-Yorke constants, block
length M, the mixed-norm constant C(T0), the admissible radius
delta_star, and the resulting loss-of-memory rate; `Certificate.report`
gives it as the one dict the `certify` command writes.  The weak
contraction condition on L0^M is verified on the discretized operator
through its step profile, for every zero-mass grid vector in the TV
seminorm, so certificates are numerically certified, not proven.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from . import grid as gridmod
from . import transfer
from .errors import InvalidSystem, NotConverged
from .maps import CircleMap
from .noise import NoiseDensity

M_SEARCH_LIMIT = 10**4
DELTA_BISECT_TOL = 1e-6

FORMULAS = {
    "lambda1": "1 / (lambda0 - delta_star)",
    "B": "(M2 + delta_star) / (lambda0 - delta_star)^2",
    "M": "min M with lambda1^M <= 1/(10(B/(1-lambda1)+1)) and q_M <= (1-lambda1)/(10B), so ||L0^M v||_L1 <= (1-lambda1)/(10B) TV(v) for every zero-mass grid vector v",
    "q_M": "max_j ||L0^M s_j||_L1 over the zero-mass steps s_j = 1_[0,j/N) - j/N, j = 1..N-1; it bounds ||L0^M v||_L1 / TV(v), TV(v) = sum_i |v_(i+1) - v_i|; TV, not the grid W11 norm, since grid.derivative sends the Nyquist mode (-1)^i to 0",
    "C_T0": "d [ 2(M0+lambda0-1)/lambda0^2 + (M0+lambda0-1)(M2/lambda0^3 + 1/lambda0) ]",
    "delta_star": "largest delta with C_T0 delta <= 7(1-lambda1)^2 / (10 M B (1/(1-lambda1) + B))",
    "elom_rate": "(9/10)^(1/(2M)) per step",
    "elom_C": "(10/9) (B/(1-lambda1) + 1)",
}


def lasota_yorke_constants(lambda0: float, M2: float, delta_star: float) -> tuple[float, float]:
    """Uniform one-step constants (lambda1, B) on the delta_star ball."""
    lam1 = 1.0 / (lambda0 - delta_star)
    b = (M2 + delta_star) / (lambda0 - delta_star) ** 2
    return lam1, b


def c_t0(lambda0: float, M0: float, M2: float, degree: int) -> float:
    """Mixed-norm W^{1,1} -> L^1 continuity constant, proof-backed form.

    It absorbs the worst admissible radius delta = lambda0 - 1.
    """
    if lambda0 <= 1.0:
        raise ValueError("lambda0 must exceed 1")
    a = M0 + lambda0 - 1.0
    return degree * (2.0 * a / lambda0**2 + a * (M2 / lambda0**3 + 1.0 / lambda0))


# Steps pushed per block by `step_profile`: 64 rows of N floats, 1 MiB at N = 2048.
STEP_BATCH = 64


def step_profile(l0: transfer.TransferMatrix, depth: int) -> np.ndarray:
    """q(L0^m) = max_j ||L0^m s_j||_L1 for m = 1 .. depth, over the steps s_j = 1_[0, j/N) - j/N.

    Every zero-mass grid vector is v = -sum_k (v[k+1] - v[k]) s_{k+1}, so
    ||L0^m v||_L1 <= TV(v) q(L0^m) with TV(v) = sum_k |v[k+1] - v[k]|,
    indices circular.  The steps s_1 .. s_{N-1} are pushed STEP_BATCH rows
    at a time and only the maxima are kept; a row's norms have the same
    bits in any batch, so q does not depend on STEP_BATCH.
    """
    n = l0.n_points
    q = np.zeros(depth)
    for lo in range(1, n, STEP_BATCH):
        j = np.arange(lo, min(lo + STEP_BATCH, n))[:, None]
        v = (np.arange(n) < j) - j / n
        for m in range(depth):
            v = transfer.push(l0, v)
            q[m] = max(q[m], gridmod.norm_l1(v).max())
    return q


def choose_M(lambda1: float, b: float, q=None) -> int:
    """Smallest block length M passing both contraction conditions.

    Closed form gives the lambda1^M threshold, which is M when `q` is
    None.  Otherwise the weak condition q(M) <= (1-lambda1)/(10 B) is
    checked, continuing the search upward on failure; `q(m)` is the step
    profile q(L0^m), so the condition holds for every zero-mass grid
    vector in the TV seminorm.
    """
    if not 0.0 < lambda1 < 1.0:
        raise NotConverged(f"lambda1 = {lambda1} admits no finite M")
    target = 1.0 / (10.0 * (b / (1.0 - lambda1) + 1.0))
    m_closed = max(1, int(np.ceil(np.log(target) / np.log(lambda1))))
    if m_closed > M_SEARCH_LIMIT:
        raise NotConverged(f"closed-form threshold already exceeds {M_SEARCH_LIMIT}")
    if q is None:
        return m_closed
    threshold = (1.0 - lambda1) / (10.0 * b) if b > 0 else np.inf
    for m in range(m_closed, M_SEARCH_LIMIT + 1):
        if q(m) <= threshold:
            return m
    raise NotConverged(f"no M <= {M_SEARCH_LIMIT} passes the weak contraction check")


@dataclass(frozen=True)
class Certificate:
    """Numerically certified constants for the reference map at grid size N."""

    degree: int
    n_points: int
    lambda0: float
    M0: float
    M2: float
    delta_star: float
    lambda1: float
    B: float
    M: int
    q_M: float
    C_T0: float
    elom_C: float
    elom_rate: float

    def inequality_checks(self) -> dict[str, bool]:
        """Re-validate the five defining inequalities exactly as stated."""
        lam1, b = self.lambda1, self.B
        return {
            "delta_star_range": 0.0 < self.delta_star < self.lambda0 - 1.0,
            "lasota_yorke_constants": (
                abs(lam1 - 1.0 / (self.lambda0 - self.delta_star)) < 1e-12
                and 0.0 < lam1 < 1.0
                and abs(b - (self.M2 + self.delta_star) / (self.lambda0 - self.delta_star) ** 2) < 1e-12
            ),
            "block_length": lam1**self.M <= 1.0 / (10.0 * (b / (1.0 - lam1) + 1.0)),
            "weak_contraction": self.q_M <= (1.0 - lam1) / (10.0 * b),
            "delta_star_smallness": self.C_T0 * self.delta_star
            <= 7.0 * (1.0 - lam1) ** 2 / (10.0 * self.M * b * (1.0 / (1.0 - lam1) + b)),
        }

    @property
    def all_verified(self) -> bool:
        return all(self.inequality_checks().values())

    def report(self) -> dict:
        """The constants, their formulas, the checked inequalities and the status, as one JSON-ready dict."""
        return asdict(self) | {
            "formulas": FORMULAS,
            "inequalities_verified": self.inequality_checks(),
            "status": "numerically certified" if self.all_verified else "FAILED",
        }


def certify(t0: CircleMap, n_points: int) -> Certificate:
    """Largest admissible delta_star by bisection, plus the decay certificate.

    Each probe builds the candidate certificate at its delta, which is
    feasible iff it has a finite M and its smallness inequality holds.
    That inequality's right side falls as M grows, so it is first checked
    at the closed-form M, which asks no q: a delta failing there fails at
    every M.  Feasibility is monotone in delta (C_T0 delta grows, the
    right side falls, M never decreases), so a bisection that ends at 0
    leaves no positive delta_star.  The step profile of L0 behind the
    weak check is shared; it is computed afresh only when a larger m is
    asked.  The strong norm contracts by 9/10 per 2M steps, giving the
    per-step rate (9/10)^(1/(2M)) and C_ELoM = (10/9)(B/(1-lambda1)+1).
    """
    lam0, m0, m2 = t0.constants()
    ct0 = c_t0(lam0, m0, m2, t0.degree)
    l0 = transfer.build_deterministic(t0, n_points)
    qs = np.zeros(0)  # q(L0^m) for m = 1 .. qs.size

    def profile(m):
        nonlocal qs
        if m > qs.size:
            qs = step_profile(l0, m)
        return float(qs[m - 1])

    def candidate(delta, q):
        lam1, b = lasota_yorke_constants(lam0, m2, delta)
        m = choose_M(lam1, b, q)
        return Certificate(
            degree=t0.degree,
            n_points=n_points,
            lambda0=lam0,
            M0=m0,
            M2=m2,
            delta_star=delta,
            lambda1=lam1,
            B=b,
            M=m,
            q_M=np.nan if q is None else q(m),
            C_T0=ct0,
            elom_C=(10.0 / 9.0) * (b / (1.0 - lam1) + 1.0),
            elom_rate=(9.0 / 10.0) ** (1.0 / (2.0 * m)),
        )

    def feasible(delta):
        try:
            return all(candidate(delta, q).inequality_checks()["delta_star_smallness"] for q in (None, profile))
        except NotConverged:
            return False

    lo = 0.0
    hi = lam0 - 1.0 - 1e-9
    if feasible(hi):
        lo = hi
    else:
        while hi - lo > DELTA_BISECT_TOL:
            mid = 0.5 * (lo + hi)
            if feasible(mid):
                lo = mid
            else:
                hi = mid
    if lo <= 0.0:
        raise NotConverged("no positive delta_star satisfies the smallness condition")
    return candidate(lo, profile)


def doeblin_certificate(q: NoiseDensity) -> tuple[float, float]:
    """(C, rate) for a Doeblin schedule: C = 1, rate = 1 - alpha.

    A floor alpha so small that 1 - alpha rounds to 1 certifies no
    contraction, so it is rejected like alpha = 0.
    """
    if not 1.0 - q.alpha < 1.0:
        raise InvalidSystem("Doeblin certificate needs a uniformly positive noise density")
    return 1.0, 1.0 - q.alpha
