"""Continuum oracle: the response of linear doubling maps, known exactly in Fourier.

For T(x) = 2x + a mod 1 the transfer operator sends e_m(x) = exp(2 pi i m x)
to exp(-pi i m a) e_{m/2} for even m and to 0 for odd m.  Lebesgue measure is
invariant for every shift a, so mu_n = 1 and the forcing of a kicked entry is
g_n = -X_n'.  A kick of harmonics <= 5 loses every mode within three steps
(4 -> 2 -> 1 -> 0, and g has no mode 0), so the K = 8 series is the exact
continuum response, a finite Fourier sum with phases from the shifts.  The
library runs unchanged; its error against that sum is the discretization
error of `grid.derivative` in the forcing, 4th order in 1/N.

With additive noise of density q after the drift 2x + a, the annealed
operator sends e_m to qhat_{m/2} exp(-pi i m a) e_{m/2} for even m and odd
m to 0, with qhat_k the Fourier coefficients of q.  One push of a smooth
density against it is the error of the kernel's assembly alone: the
6-point quintic gather of the drift's operator, 6th order in 1/N.
"""

import numpy as np
import pytest

from seqresponse import grid, noise, response, transfer
from seqresponse.maps import CircleMap, TrigPoly
from seqresponse.noise import DriftMap, NoiseDensity
from seqresponse.sequence import (
    DeterministicEntry,
    SequenceSystem,
    periodic_schedule,
    pullback_equivariant,
    seeded_random_schedule,
)

SHIFTS = (0.0, 0.137, 0.291)
# (cos, sin) amplitudes of harmonics 1-5 of the kick of each shift's entry
KICKS = (
    ((-0.083, -0.053, 0.06, 0.016, -0.081), (-0.013, -0.004, -0.068, 0.047, -0.077)),
    ((-0.022, 0.003, -0.014, 0.017, 0.048), (0.091, -0.043, 0.03, 0.039, -0.041)),
    ((-0.1, 0.095, -0.04, -0.037, 0.078), (0.017, -0.006, 0.055, -0.094, 0.041)),
)
KICK_FIELDS = [TrigPoly((0.0, *c), (0.0, *s)) for c, s in KICKS]
K, BURN_IN, WINDOW = 8, 60, (0, 14)
SCHEDULES = ("periodic", "seeded_random")
# Largest L1 errors measured at N = 256 (numpy 2.4.6): eta 1.741e-5 (periodic) and
# 1.744e-5 (seeded_random), g 1.697e-5 for both; the bounds leave 9-12 %.
ETA_TOL_256, G_TOL_256 = 1.9e-5, 1.9e-5
# Error ratios of eta measured per doubling, N = 128 -> 256 -> 512: 15.93-15.98.
RATIO = (15.5, 16.5)

# The noisy push: drift 2x + 0.137, bump noise (center 0.5, width 0.08, floor 0.3) and a
# density of harmonics 0-5.  qhat is the FFT of the bump on a 4096-point grid, exact to
# round-off for this smooth q.
NOISY_SHIFT, NOISY_GRIDS, FINE = 0.137, (64, 128, 256, 512, 1024), 4096
NOISY_DENSITY = TrigPoly((1.0, 0.1, -0.2, 0.05, 0.1, 0.03), (0.0, 0.2, 0.1, -0.1, 0.04, -0.06))
# L1 errors of one push measured at N = 64 ... 1024 (numpy 2.4.6): 3.10e-7, 5.43e-9,
# 6.60e-11, 1.12e-12 and 1.97e-14, ratios 57.2, 82.3, 58.7 and 57.1 per doubling.  A 4-point
# cubic spread of each node onto its drift image reads 9.1e-10 at N = 256, ratios 8.4-65.
NOISY_TOL_256 = 7.5e-11
NOISY_RATIO = (50.0, 90.0)


def modes(p: TrigPoly) -> dict:
    """{m: complex amplitude of e_m} of a real trigonometric polynomial."""
    out = {0: complex(p.a[0])}
    for k in range(1, len(p.a)):
        out[k], out[-k] = (p.a[k] - 1j * p.b[k]) / 2, (p.a[k] + 1j * p.b[k]) / 2
    return out


def exact_push(c: dict, a: float) -> dict:
    """The exact operator of T(x) = 2x + a on a Fourier sum: e_m -> exp(-pi i m a) e_{m/2}, odd m -> 0."""
    out: dict = {}
    for m, v in c.items():
        if m % 2 == 0:
            out[m // 2] = out.get(m // 2, 0.0) + v * np.exp(-1j * np.pi * m * a)
    return out


def values(c: dict, x: np.ndarray) -> np.ndarray:
    """The real function of the Fourier sum c at the points x."""
    return sum((v * np.exp(2j * np.pi * m * x)).real for m, v in c.items())


def run(kind: str, n: int):
    """The library's mu, g and eta on the window, and the shift index of each schedule index."""
    entries = [DeterministicEntry(CircleMap(2, cos_coeffs=(a,)), x) for a, x in zip(SHIFTS, KICK_FIELDS)]
    schedule = periodic_schedule(entries) if kind == "periodic" else seeded_random_schedule(entries, 5)
    sys_ = SequenceSystem(schedule, WINDOW, n)
    mu, _ = pullback_equivariant(sys_, BURN_IN, np.ones(n))
    g = response.forcing(sys_, mu)
    eta, _ = response.neumann_response(sys_, g, K, (1.0, 0.5))
    return mu, g, eta, lambda j: entries.index(schedule(j))


def exact_g(j: int, which) -> dict:
    """g_j = -X_j' for the kick X_j of the entry at j."""
    return {m: -2j * np.pi * m * v for m, v in modes(KICK_FIELDS[which(j)]).items()}


def exact_eta(j: int, which) -> dict:
    """eta_j = sum over k = 0..K of L_{j-1} ... L_{j-k} g_{j-k-1}, the operator at index i using the shift a_i."""
    total: dict = {}
    for k in range(K + 1):
        c = exact_g(j - k - 1, which)
        for i in range(j - k, j):
            c = exact_push(c, SHIFTS[which(i)])
        for m, v in c.items():
            total[m] = total.get(m, 0.0) + v
    return total


def errors(kind: str, n: int) -> tuple[float, float]:
    """Largest L1 errors of g and eta against the exact sums over the window; mu is 1 to round-off."""
    mu, g, eta, which = run(kind, n)
    x = np.arange(n) / n
    assert np.max(np.abs(mu.values - 1.0)) <= 1e-13
    g_err = max(grid.norm_l1(g[j] - values(exact_g(j, which), x)) for j in range(g.n_lo, g.n_hi + 1))
    eta_err = max(grid.norm_l1(eta[j] - values(exact_eta(j, which), x)) for j in range(eta.n_lo, eta.n_hi + 1))
    return float(g_err), float(eta_err)


def test_exact_operator_on_a_density():
    # the oracle's operator itself: one exact push against the branch sum (f(y0) + f(y1)) / 2
    p = TrigPoly((0.3, 0.1, -0.2, 0.05, 0.1), (0.0, 0.2, 0.1, -0.1, 0.04))
    x, a = np.linspace(0.0, 1.0, 17), 0.291
    want = (p((x - a) / 2) + p((x - a + 1) / 2)) / 2
    assert np.max(np.abs(values(exact_push(modes(p), a), x) - want)) <= 1e-14


@pytest.mark.parametrize("kind", SCHEDULES)
def test_error_at_256(kind):
    g_err, eta_err = errors(kind, 256)
    assert g_err <= G_TOL_256
    assert eta_err <= ETA_TOL_256


@pytest.mark.parametrize("kind", SCHEDULES)
def test_fourth_order(kind):
    eta_errs = [errors(kind, n)[1] for n in (128, 256, 512)]
    for coarse, fine in zip(eta_errs, eta_errs[1:]):
        assert RATIO[0] <= coarse / fine <= RATIO[1]


def noisy_push_error(n: int) -> float:
    """L1 error of one push of NOISY_DENSITY by the library's noise kernel against the exact operator."""
    qhat = np.fft.fft(NoiseDensity.bump(0.5, 0.08, 0.3, FINE).density) / FINE
    q = NoiseDensity.bump(0.5, 0.08, 0.3, n)
    a = noise.build_kernel(DriftMap(CircleMap(2, cos_coeffs=(NOISY_SHIFT,))), 0.0, q, n)
    x = np.arange(n) / n
    exact = {m: v * qhat[m % FINE] for m, v in exact_push(modes(NOISY_DENSITY), NOISY_SHIFT).items()}
    return float(grid.norm_l1(transfer.push(a, NOISY_DENSITY(x)) - values(exact, x)))


def test_noisy_push_at_256():
    assert noisy_push_error(256) <= NOISY_TOL_256


def test_noisy_push_sixth_order():
    errs = [noisy_push_error(n) for n in NOISY_GRIDS]
    for coarse, fine in zip(errs, errs[1:]):
        assert NOISY_RATIO[0] <= coarse / fine <= NOISY_RATIO[1]
