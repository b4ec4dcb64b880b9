"""Explicit constants and admissibility conditions for the reference map.

Produces a machine-readable certificate: Lasota-Yorke constants, block
length M, the mixed-norm constant C(T0), the admissible radius
delta_star, and the resulting loss-of-memory rate; `Certificate.report`
gives it as the one dict the `certify` command writes.  The weak
contraction condition on L0^M is verified on the discretized operator
against a probe family, so certificates are numerically certified, not
proven.
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
    "M": "min M with lambda1^M <= 1/(10(B/(1-lambda1)+1)) and ||L0^M v||_L1 <= (1-lambda1)/(10B) ||v||_W11 on probes",
    "C_T0": "d [ 2(M0+lambda0-1)/lambda0^2 + (M0+lambda0-1)(M2/lambda0^3 + 1/lambda0) ]",
    "C_T0_alt": "2 d (M0+lambda0-1) (1/lambda0^2 + M2/lambda0^3 + 1/lambda0)",
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


def c_t0_alt(lambda0: float, M0: float, M2: float, degree: int) -> float:
    """Alternative closed form of the same constant, reported side by side.

    Disagrees with c_t0 in factor arrangement (9 vs 6 for the doubling
    map); c_t0 is the one backed by a proof and used in certificates.
    """
    return 2.0 * degree * (M0 + lambda0 - 1.0) * (1.0 / lambda0**2 + M2 / lambda0**3 + 1.0 / lambda0)


def _probe_family(n_points: int) -> np.ndarray:
    """Zero-mass probe densities, one per row: 20 low harmonics + 30 random smooth combos of the first 8."""
    x = np.arange(n_points) / n_points
    cos = [np.cos(2 * np.pi * k * x) for k in range(1, 11)]
    sin = [np.sin(2 * np.pi * k * x) for k in range(1, 11)]
    probes = [h for pair in zip(cos, sin) for h in pair]
    rng = np.random.default_rng(20250824)
    for _ in range(30):
        v = np.zeros(n_points)
        for k in range(8):
            v += rng.normal() * cos[k] + rng.normal() * sin[k]
        probes.append(v)
    return np.array(probes)  # (50, N)


class ProbePushes:
    """Per-probe norms of L0^m v over the probe family, each push made once.

    The probes are pushed through L0 as one block as far as the largest
    m asked for so far; l1(m) then answers from the cache.
    """

    def __init__(self, l0: transfer.TransferMatrix):
        probes = _probe_family(l0.n_points)
        self.w11 = gridmod.norm_w11(probes)
        self._l0 = l0
        self._pushed = probes
        self._l1: list[np.ndarray] = []  # _l1[m - 1] holds ||L0^m v||_L1 per probe

    def l1(self, m: int) -> np.ndarray:
        while len(self._l1) < m:
            self._pushed = transfer.push(self._l0, self._pushed)
            self._l1.append(gridmod.norm_l1(self._pushed))
        return self._l1[m - 1]


def choose_M(lambda1: float, b: float, pushes: ProbePushes) -> int:
    """Smallest block length M passing both contraction conditions.

    Closed form gives the lambda1^M threshold; the weak condition
    ||L0^M v||_L1 <= (1-lambda1)/(10 B) ||v||_W11 is then verified on
    the probe family, continuing the search upward on failure.  `pushes`
    holds the probe pushes of L0, shared between calls.
    """
    if not 0.0 < lambda1 < 1.0:
        raise NotConverged(f"lambda1 = {lambda1} admits no finite M")
    target = 1.0 / (10.0 * (b / (1.0 - lambda1) + 1.0))
    m_closed = max(1, int(np.ceil(np.log(target) / np.log(lambda1))))
    if m_closed > M_SEARCH_LIMIT:
        raise NotConverged(f"closed-form threshold already exceeds {M_SEARCH_LIMIT}")
    threshold = (1.0 - lambda1) / (10.0 * b) if b > 0 else np.inf
    for m in range(m_closed, M_SEARCH_LIMIT + 1):
        if np.all(pushes.l1(m) <= threshold * pushes.w11):
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
    C_T0: float
    C_T0_alt: float
    elom_C: float
    elom_rate: float

    def inequality_checks(self) -> dict[str, bool]:
        """Re-validate the four defining inequalities exactly as stated."""
        lam1, b = self.lambda1, self.B
        return {
            "delta_star_range": 0.0 < self.delta_star < self.lambda0 - 1.0,
            "lasota_yorke_constants": (
                abs(lam1 - 1.0 / (self.lambda0 - self.delta_star)) < 1e-12
                and 0.0 < lam1 < 1.0
                and abs(b - (self.M2 + self.delta_star) / (self.lambda0 - self.delta_star) ** 2) < 1e-12
            ),
            "block_length": lam1**self.M <= 1.0 / (10.0 * (b / (1.0 - lam1) + 1.0)),
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
    feasible iff it has a finite M and its smallness inequality holds; the
    probe pushes of L0 behind M are made once and shared.  The strong norm
    contracts by 9/10 per 2M steps, giving the per-step rate
    (9/10)^(1/(2M)) and C_ELoM = (10/9)(B/(1-lambda1)+1).
    """
    lam0, m0, m2 = t0.constants()
    ct0 = c_t0(lam0, m0, m2, t0.degree)
    pushes = ProbePushes(transfer.build_deterministic(t0, n_points))

    def candidate(delta):
        lam1, b = lasota_yorke_constants(lam0, m2, delta)
        m = choose_M(lam1, b, pushes)
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
            C_T0=ct0,
            C_T0_alt=c_t0_alt(lam0, m0, m2, t0.degree),
            elom_C=(10.0 / 9.0) * (b / (1.0 - lam1) + 1.0),
            elom_rate=(9.0 / 10.0) ** (1.0 / (2.0 * m)),
        )

    def feasible(delta):
        try:
            return candidate(delta).inequality_checks()["delta_star_smallness"]
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
        # Fall back to a tiny but feasible radius; B -> 0 makes the
        # smallness condition vacuous in that limit.
        lo = DELTA_BISECT_TOL
        if not feasible(lo):
            raise NotConverged("no positive delta_star satisfies the smallness condition")
    return candidate(lo)


def doeblin_certificate(q: NoiseDensity) -> tuple[float, float]:
    """(C, rate) for a Doeblin schedule: C = 1, rate = 1 - alpha.

    A floor alpha so small that 1 - alpha rounds to 1 certifies no
    contraction, so it is rejected like alpha = 0.
    """
    if not 1.0 - q.alpha < 1.0:
        raise InvalidSystem("Doeblin certificate needs a uniformly positive noise density")
    return 1.0, 1.0 - q.alpha
