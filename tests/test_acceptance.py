"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS/FAIL line; run with `pytest -s
tests/test_acceptance.py` to see them all.
"""

import numpy as np
import pytest
from test_noise import SIN_2PI, SIN_4PI

from seqresponse import constants, grid, noise, response, sequence, transfer
from seqresponse.maps import CircleMap, TrigPoly, c2_distance
from seqresponse.noise import DriftMap, NoiseDensity
from seqresponse.sequence import (
    DeterministicEntry,
    NoisyEntry,
    SequenceSystem,
    constant_schedule,
    periodic_schedule,
)

N = 256
X = np.arange(N) / N
KICK = TrigPoly(sin_coeffs=(0.0, 1 / (2 * np.pi)))
PERTURB_AMP_02 = 0.02 / (1 + 2 * np.pi + 4 * np.pi**2)  # C2 distance 0.02
PERTURB_AMP_01 = 0.01 / (1 + 2 * np.pi + 4 * np.pi**2)  # C2 distance 0.01


def report(num, desc, ok):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num}: {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def smooth_density(rng, zero_mass=False):
    v = np.zeros(N) if zero_mass else np.ones(N)
    for k in range(1, 9):
        v += 0.1 * rng.normal() * np.cos(2 * np.pi * k * X) + 0.1 * rng.normal() * np.sin(
            2 * np.pi * k * X
        )
    return v - grid.mass(v) if zero_mass else v


@pytest.fixture(scope="module")
def doubling_matrix():
    return transfer.build_deterministic(CircleMap(2), N)


@pytest.fixture(scope="module")
def bump_q():
    return NoiseDensity.bump(0.5, 0.08, 0.3, N)


@pytest.fixture(scope="module")
def cert():
    return constants.certify(CircleMap(2), N)


@pytest.fixture(scope="module")
def doubling_response():
    entry = DeterministicEntry(map=CircleMap(2), kick=KICK)
    sys_ = SequenceSystem(constant_schedule(entry), (0, 12), n_points=N)
    fam, _ = sequence.pullback_equivariant(sys_, 60, np.ones(N))
    g = response.forcing(sys_, fam)
    etas, _ = response.neumann_response(sys_, g, 8, (1.0, 0.5))
    return sys_, fam, g, etas


def test_criterion_1_harmonic_exactness(doubling_matrix):
    halved = transfer.push(doubling_matrix, 1 + np.cos(4 * np.pi * X))
    killed = transfer.push(doubling_matrix, np.cos(2 * np.pi * X))
    err = max(grid.norm_l1(halved - (1 + np.cos(2 * np.pi * X))), grid.norm_l1(killed))
    report(1, f"doubling operator exact on harmonics (L1 err {err:.2e} <= 1e-8)", err <= 1e-8)


def test_criterion_2_mass_preservation(doubling_matrix, bump_q):
    kick_mat = transfer.build_kick(KICK, 0.05, N)
    kernel = noise.build_kernel(DriftMap(base=CircleMap(2), dot=SIN_4PI), 0.02, bump_q, N)
    rng = np.random.default_rng(100)
    worst = 0.0
    for _ in range(100):
        f = rng.normal(size=N)
        for mat in (doubling_matrix, kick_mat, kernel):
            worst = max(worst, abs(grid.mass(transfer.push(mat, f)) - grid.mass(f)))
    report(2, f"mass preserved by all matrix kinds (max defect {worst:.2e} <= 1e-9)", worst <= 1e-9)


def test_criterion_3_deterministic_memory_loss(cert):
    amp = cert.delta_star * 0.5 / (1 + 2 * np.pi + 4 * np.pi**2)
    t0, t1 = CircleMap(2), CircleMap(2, sin_coeffs=(0.0, amp))
    sched = periodic_schedule([DeterministicEntry(t0, KICK), DeterministicEntry(t1, KICK)])
    assert c2_distance(t1, t0) <= cert.delta_star
    sys_ = SequenceSystem(sched, (0, 30), n_points=N)
    v = smooth_density(np.random.default_rng(101), zero_mass=True)
    _, fitted_rate = sequence.memory_decay(sys_, v, 0, 20)
    rate_ok = fitted_rate <= cert.elom_rate

    raw = SequenceSystem(constant_schedule(DeterministicEntry(t0, KICK)), (0, 10), n_points=N)
    seed = grid.project_zero_mass(sum(np.cos(2 * np.pi * k * X) + np.sin(2 * np.pi * k * X) for k in range(1, 9)))
    records_raw, _ = sequence.memory_decay(raw, seed, 0, 4)
    dead = records_raw[3, 1]
    report(
        3,
        f"deterministic memory loss (fitted {fitted_rate:.3f} <= rho {cert.elom_rate:.3f}; "
        f"degree-8 seed after 4 steps {dead:.2e} <= 1e-7)",
        rate_ok and dead <= 1e-7,
    )


def test_criterion_4_doeblin_contraction(bump_q):
    a = noise.build_kernel(DriftMap(base=CircleMap(2)), 0.0, bump_q, N)
    rng = np.random.default_rng(102)
    one_step_ok = True
    for _ in range(100):
        v = smooth_density(rng, zero_mass=True)
        if grid.norm_l1(transfer.push(a, v)) > 0.7 * grid.norm_l1(v) + 1e-6:
            one_step_ok = False
    v = smooth_density(rng, zero_mass=True)
    l1_0 = grid.norm_l1(v)
    powers_ok = True
    for k in range(1, 9):
        v = transfer.push(a, v)
        if grid.norm_l1(v) > 0.7**k * l1_0 + 1e-6:
            powers_ok = False
    report(4, "Doeblin 0.7-contraction on zero-mass densities, one step and k-step", one_step_ok and powers_ok)


def test_criterion_5_equivariant_uniqueness(bump_q):
    det = SequenceSystem(
        constant_schedule(DeterministicEntry(CircleMap(2, sin_coeffs=(0.0, PERTURB_AMP_02)), KICK)),
        (0, 10),
        n_points=N,
    )
    noisy = SequenceSystem(
        constant_schedule(NoisyEntry(DriftMap(base=CircleMap(2), dot=SIN_4PI), bump_q)),
        (0, 10),
        n_points=N,
    )
    seeds = (np.ones(N), 1 + 0.9 * np.cos(2 * np.pi * X))
    worst = 0.0
    for sys_ in (det, noisy):
        fams = [sequence.pullback_equivariant(sys_, 60, s)[0] for s in seeds]
        worst = max(worst, float(np.max(grid.norm_l1(fams[0].values - fams[1].values))))
    report(5, f"equivariant family unique across seeds (L1 gap {worst:.2e} <= 1e-8)", worst <= 1e-8)


def test_criterion_6_closed_form_response(doubling_response):
    sys_, fam, g, etas = doubling_response
    expected = -np.cos(2 * np.pi * X)
    series_err = float(np.max(grid.norm_l1(etas.values - expected)))
    fd = {e: response.finite_difference_response(sys_, e, 60, np.ones(N), base_family=fam) for e in (1e-2, 1e-3)}
    gaps = {
        eps: float(np.max(grid.norm_l1(fd[eps].rows(etas.n_lo, etas.n_hi) - etas.values)))
        for eps in (1e-2, 1e-3)
    }
    ok = series_err <= 1e-5 and gaps[1e-3] <= 1e-2 and gaps[1e-3] < gaps[1e-2]
    report(
        6,
        f"closed-form response (series err {series_err:.2e} <= 1e-5, "
        f"FD gap at 1e-3 {gaps[1e-3]:.2e} <= 1e-2, decreasing in eps)",
        ok,
    )


def test_criterion_7_nonautonomous_response():
    t0 = CircleMap(2)
    t1 = CircleMap(2, sin_coeffs=(0.0, PERTURB_AMP_02))
    sched = periodic_schedule([DeterministicEntry(t0, KICK), DeterministicEntry(t1, KICK)])
    sys_ = SequenceSystem(sched, (0, 12), n_points=N)
    fam, _ = sequence.pullback_equivariant(sys_, 60, np.ones(N))
    g = response.forcing(sys_, fam)
    etas, tail = response.neumann_response(sys_, g, 8, (1.0, 0.6))
    res = response.resolvent_residual(sys_, etas, g)
    fd = {e: response.finite_difference_response(sys_, e, 60, np.ones(N), base_family=fam) for e in (1e-2, 3e-3, 1e-3)}
    _, passed = response.validate(etas, fd.items(), tol=2e-2)
    ok = res <= tail + 1e-7 and passed
    report(
        7,
        f"period-2 response (resolvent residual {res:.2e} <= tail {tail:.2e} + 1e-7, "
        "validate passes with decreasing D)",
        ok,
    )


def test_criterion_8_noisy_response(bump_q):
    drift = DriftMap(base=CircleMap(2), dot=SIN_2PI)
    entry = NoisyEntry(drift, bump_q)
    sys_ = SequenceSystem(constant_schedule(entry), (0, 12), n_points=N)
    fam, _ = sequence.pullback_equivariant(sys_, 60, np.ones(N))
    g = response.forcing(sys_, fam)
    eps = 1e-4
    perturbed = SequenceSystem(sys_.schedule, sys_.window, N, eps)
    quot_gap = 0.0
    for n in range(fam.n_lo, fam.n_hi + 1):
        mu = fam[n]
        quot = (transfer.push(perturbed.operator(n), mu) - transfer.push(sys_.operator(n), mu)) * (1.0 / eps)
        quot_gap = max(quot_gap, float(grid.norm_l1(quot - g[n])))
    c, rate = constants.doeblin_certificate(bump_q)
    etas, _ = response.neumann_response(sys_, g, 8, (c, rate))
    fd = {e: response.finite_difference_response(sys_, e, 60, np.ones(N), base_family=fam) for e in (1e-2, 3e-3, 1e-3)}
    _, passed = response.validate(etas, fd.items(), tol=1e-2)
    ok = quot_gap <= 5e-3 and passed
    report(
        8,
        f"noisy response (forcing vs quotient at eps=1e-4: {quot_gap:.2e} <= 5e-3, validate passes)",
        ok,
    )


def test_criterion_9_constants_reproduction(cert):
    ct0 = constants.c_t0(2.0, 2.0, 0.0, 2)
    lam1, b = constants.lasota_yorke_constants(2.0, 0.0, 0.5)
    ok = (
        ct0 == 6.0
        and lam1 == pytest.approx(2 / 3, abs=1e-15)
        and b == pytest.approx(2 / 9, abs=1e-15)
        and cert.all_verified
    )
    report(
        9,
        f"constants reproduction (C(T0) = {ct0}, lambda1 = {lam1:.6f}, B = {b:.6f}, "
        "certificate self-validates)",
        ok,
    )


def test_criterion_10_monte_carlo(bump_q):
    drift = DriftMap(base=CircleMap(2), dot=SIN_4PI)
    eps, steps, samples = 0.02, 3, 10**6
    h1 = noise.simulate_marginal(lambda k: drift, eps, bump_q, steps, samples, seed=55, n_bins=64)
    h2 = noise.simulate_marginal(lambda k: drift, eps, bump_q, steps, samples, seed=55, n_bins=64)
    a = noise.build_kernel(drift, eps, bump_q, N)
    f = np.ones(N)
    for _ in range(steps):
        f = transfer.push(a, f)
    l1 = float(np.mean(np.abs(h1 - noise.bin_density(f, 64))))
    ok = l1 <= 0.05 and np.array_equal(h1, h2)
    report(10, f"Monte Carlo marginal vs operator (L1 {l1:.3f} <= 0.05, seed-deterministic)", ok)


def test_criterion_11_mixed_norm_dominance():
    t0 = CircleMap(2)
    t1 = CircleMap(2, sin_coeffs=(0.0, PERTURB_AMP_01))
    delta = 0.01
    ct0 = constants.c_t0(*t0.constants(), t0.degree)
    l0 = transfer.build_deterministic(t0, N)
    l1 = transfer.build_deterministic(t1, N)
    rng = np.random.default_rng(103)
    ok = True
    worst_ratio = 0.0
    for _ in range(50):
        f = smooth_density(rng)
        gap = grid.norm_l1(transfer.push(l0, f) - transfer.push(l1, f))
        bound = ct0 * delta * grid.norm_w11(f)
        worst_ratio = max(worst_ratio, gap / bound)
        if gap > bound:
            ok = False
    report(11, f"mixed-norm bound dominates measurements (worst ratio {worst_ratio:.3f} <= 1)", ok)
