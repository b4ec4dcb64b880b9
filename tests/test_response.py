import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_noise import noisy_systems
from test_transfer import kicked_systems

from seqresponse import grid, noise, response, sequence, transfer
from seqresponse.errors import TailNotSmall, WindowExceeded
from seqresponse.grid import DensityGrid
from seqresponse.maps import CircleMap, KickField
from seqresponse.noise import DriftMap, NoiseDensity
from seqresponse.sequence import (
    DeterministicEntry,
    NoisyEntry,
    SequenceSystem,
    constant_schedule,
    periodic_schedule,
    pullback_equivariant,
)

N = 256
X = np.arange(N) / N
KICK = KickField(sin_coeffs=(0.0, 1 / (2 * np.pi)))  # X(x) = sin(2 pi x) / (2 pi)


def doubling_system(window=(0, 12)):
    entry = DeterministicEntry(map=CircleMap(2), kick=KICK, key="T0")
    return SequenceSystem(constant_schedule(entry), window, eps=0.0, n_points=N)


def bump_system(window=(0, 12)):
    # dot field with the drift's periodicity: preimage contributions add
    # rather than cancel, so the forcing is genuinely nonzero
    q = NoiseDensity.bump(0.5, 0.08, 0.3, N)
    entry = NoisyEntry(drift=DriftMap(base=CircleMap(2), dot=np.sin(4 * np.pi * X)), noise=q, key="bump")
    return SequenceSystem(constant_schedule(entry), window, eps=0.0, n_points=N)


@pytest.fixture(scope="module")
def doubling_setup():
    sys_ = doubling_system()
    fam = pullback_equivariant(sys_, 60, DensityGrid.constant(1.0, N))
    g = response.forcing(sys_, fam)
    return sys_, fam, g


@pytest.fixture(scope="module")
def bump_setup():
    sys_ = bump_system()
    fam = pullback_equivariant(sys_, 60, DensityGrid.constant(1.0, N))
    g = response.forcing(sys_, fam)
    return sys_, fam, g


class TestForcing:
    def test_deterministic_on_uniform(self, doubling_setup):
        # g = -(X mu)' with mu = 1 is -cos(2 pi x)
        _, _, g = doubling_setup
        expected = -np.cos(2 * np.pi * X)
        for n in range(g.n_lo, g.n_hi + 1):
            assert np.max(np.abs(g.density(n).values - expected)) <= 1e-6

    def test_zero_mass(self, bump_setup):
        _, _, g = bump_setup
        for n in range(g.n_lo, g.n_hi + 1):
            assert abs(grid.mass(g.density(n))) <= 1e-9

    def test_window_exceeded(self, doubling_setup):
        _, _, g = doubling_setup
        with pytest.raises(WindowExceeded):
            g.density(g.n_hi + 1)


class TestTruncationOrder:
    def test_monotone_in_tol(self):
        ks = [response.truncation_order(1.0, 0.7, 5.0, tol, 10**4) for tol in (1e-2, 1e-5, 1e-8)]
        assert ks[0] < ks[1] < ks[2]

    def test_capped(self):
        assert response.truncation_order(1.0, 0.999, 5.0, 1e-12, 37) == 37

    def test_zero_forcing(self):
        assert response.truncation_order(1.0, 0.7, 0.0, 1e-12, 100) == 1

    def test_bound_holds_at_order(self):
        c, rate, sup_g, tol = 1.0, 0.7, 5.0, 1e-5
        k = response.truncation_order(c, rate, sup_g, tol, 10**4)
        assert c * rate**k * sup_g / (1 - rate) <= tol


class TestNeumannSeries:
    def test_closed_form_doubling(self, doubling_setup):
        # L annihilates the first harmonic, so the series collapses to
        # its bare term: eta = -cos(2 pi x)
        sys_, fam, g = doubling_setup
        rep = response.neumann_response(sys_, fam, g, 8, (1.0, 0.5))
        expected = -np.cos(2 * np.pi * X)
        for n in range(rep.n_lo, rep.n_hi + 1):
            assert np.max(np.abs(rep.eta(n).values - expected)) <= 1e-5

    def test_mass_defect(self, doubling_setup):
        sys_, fam, g = doubling_setup
        rep = response.neumann_response(sys_, fam, g, 6, (1.0, 0.5))
        assert rep.max_mass_defect <= 1e-9

    def test_resolvent_identity(self, bump_setup):
        sys_, fam, g = bump_setup
        rep = response.neumann_response(sys_, fam, g, 6, (1.0, 0.7))
        assert response.resolvent_residual(sys_, rep, g) <= rep.tail_bound + 1e-7

    def test_series_cauchy_in_depth(self, bump_setup):
        # deepening the truncation moves eta by at most the tail bound
        sys_, fam, g = bump_setup
        rep_a = response.neumann_response(sys_, fam, g, 5, (1.0, 0.7))
        rep_b = response.neumann_response(sys_, fam, g, 9, (1.0, 0.7))
        n = rep_b.n_hi
        assert grid.norm_l1(rep_a.eta(n) - rep_b.eta(n)) <= rep_a.tail_bound + 1e-9

    def test_tail_not_small(self, bump_setup):
        sys_, fam, g = bump_setup
        with pytest.raises(TailNotSmall):
            response.neumann_response(sys_, fam, g, 2, (1.0, 0.9), tol=1e-10)

    def test_shallow_window(self, bump_setup):
        sys_, fam, g = bump_setup
        with pytest.raises(WindowExceeded):
            response.neumann_response(sys_, fam, g, len(fam.densities), (1.0, 0.7))

    def test_bad_order(self, bump_setup):
        sys_, fam, g = bump_setup
        with pytest.raises(ValueError):
            response.neumann_response(sys_, fam, g, 0, (1.0, 0.7))


def double_loop_response(sys_, g, n_lo, n_hi, k_order):
    """The series as first written: for each n, K single applies from g_{n-K-1}."""
    etas = []
    for n in range(n_lo, n_hi + 1):
        acc = g.density(n - k_order - 1)
        for m in range(n - k_order, n):
            acc = transfer.apply(sys_.operator(m, 0.0), acc) + g.density(m)
        etas.append(acc)
    return etas


def two_map_setup(window=(0, 14)):
    t0, t1 = CircleMap(2, sin_coeffs=(0.0, 0.05)), CircleMap(3, cos_coeffs=(0.0, 0.02))
    sched = periodic_schedule([DeterministicEntry(t0, KICK, "a"), DeterministicEntry(t1, KICK, "b")])
    sys_ = SequenceSystem(sched, window, eps=0.0, n_points=N)
    fam = pullback_equivariant(sys_, 60, DensityGrid.constant(1.0, N))
    return sys_, fam, response.forcing(sys_, fam)


class TestBatchedSeries:
    @pytest.mark.parametrize("k_order", [1, 3, 8, 11])
    @pytest.mark.parametrize("setup", ["two_map", "bump"])
    def test_matches_double_loop(self, bump_setup, setup, k_order):
        # one block push per operator index gives the window x K single applies
        sys_, fam, g = two_map_setup() if setup == "two_map" else bump_setup
        rep = response.neumann_response(sys_, fam, g, k_order, (1.0, 0.5))
        ref = double_loop_response(sys_, g, rep.n_lo, rep.n_hi, k_order)
        assert rep.n_lo == fam.n_lo + k_order + 1 and len(rep.etas) == len(ref)
        for eta, want in zip(rep.etas, ref):
            assert grid.norm_l1(eta - want) <= 1e-13 * grid.norm_l1(want)


class TestFiniteDifference:
    def test_quotient_converges_to_series(self, doubling_setup):
        sys_, fam, g = doubling_setup
        rep = response.neumann_response(sys_, fam, g, 8, (1.0, 0.5))
        fd = response.finite_difference_response(
            sys_, [1e-2, 1e-3], 60, DensityGrid.constant(1.0, N), base_family=fam
        )
        gaps = {
            eps: max(
                grid.norm_l1(fd.quotient(eps, n) - rep.eta(n))
                for n in range(rep.n_lo, rep.n_hi + 1)
            )
            for eps in fd.eps_list
        }
        assert gaps[1e-3] <= 1e-2
        assert gaps[1e-3] < gaps[1e-2]

    def test_quotient_outside_window(self, doubling_setup):
        sys_, fam, _ = doubling_setup
        fd = response.finite_difference_response(
            sys_, [1e-2], 60, DensityGrid.constant(1.0, N), base_family=fam
        )
        assert fd.quotient(1e-2, fam.n_lo) is fd.quotients[1e-2][0]
        assert fd.quotient(1e-2, fam.n_hi) is fd.quotients[1e-2][-1]
        for n in (fam.n_lo - 1, fam.n_hi + 1):
            with pytest.raises(WindowExceeded):
                fd.quotient(1e-2, n)

    def test_rejects_zero_eps(self, doubling_setup):
        sys_, _, _ = doubling_setup
        with pytest.raises(ValueError):
            response.finite_difference_response(sys_, [0.0], 60, DensityGrid.constant(1.0, N))

    def test_noisy_quotient(self, bump_setup):
        sys_, fam, g = bump_setup
        rep = response.neumann_response(sys_, fam, g, 8, (1.0, 0.7))
        fd = response.finite_difference_response(
            sys_, [1e-4], 60, DensityGrid.constant(1.0, N), base_family=fam
        )
        gap = max(
            grid.norm_l1(fd.quotient(1e-4, n) - rep.eta(n))
            for n in range(rep.n_lo, rep.n_hi + 1)
        )
        assert gap <= 5e-3


class TestValidate:
    def test_passes(self, bump_setup):
        sys_, fam, g = bump_setup
        rep = response.neumann_response(sys_, fam, g, 8, (1.0, 0.7))
        fd = response.finite_difference_response(
            sys_, [1e-2, 3e-3, 1e-3], 60, DensityGrid.constant(1.0, N), base_family=fam
        )
        summary = response.validate(rep, fd, tol=2e-2)
        assert summary.passed
        eps_order = [e for e, _ in summary.entries]
        assert eps_order == sorted(eps_order, reverse=True)
        # first-order convergence: slope of log D vs log eps near 1
        eps = np.log([e for e, _ in summary.entries])
        ds = np.log([d for _, d in summary.entries])
        assert np.polyfit(eps, ds, 1)[0] >= 0.9

    def test_fails_on_absurd_tol(self, bump_setup):
        sys_, fam, g = bump_setup
        rep = response.neumann_response(sys_, fam, g, 8, (1.0, 0.7))
        fd = response.finite_difference_response(
            sys_, [1e-2, 1e-3], 60, DensityGrid.constant(1.0, N), base_family=fam
        )
        assert not response.validate(rep, fd, tol=1e-12).passed

    def test_json(self, bump_setup):
        sys_, fam, g = bump_setup
        rep = response.neumann_response(sys_, fam, g, 6, (1.0, 0.7))
        fd = response.finite_difference_response(
            sys_, [1e-3], 60, DensityGrid.constant(1.0, N), base_family=fam
        )
        payload = json.loads(response.validate(rep, fd, tol=1e-2).to_json())
        assert set(payload) == {"tol", "pass", "entries"}
        assert payload["entries"][0]["eps"] == 1e-3


class TestPeriodicSchedule:
    def test_resolvent_residual_two_maps(self):
        amp = 0.02 / (1 + 2 * np.pi + 4 * np.pi**2)
        t0 = CircleMap(2)
        t1 = CircleMap(2, sin_coeffs=(0.0, amp))
        sched = periodic_schedule(
            [DeterministicEntry(t0, KICK, "a"), DeterministicEntry(t1, KICK, "b")]
        )
        sys_ = SequenceSystem(sched, (0, 12), eps=0.0, n_points=N)
        fam = pullback_equivariant(sys_, 60, DensityGrid.constant(1.0, N))
        g = response.forcing(sys_, fam)
        rep = response.neumann_response(sys_, fam, g, 8, (1.0, 0.6))
        assert response.resolvent_residual(sys_, rep, g) <= rep.tail_bound + 1e-7


def dropped_term_l1(sys_, g, n, k_order):
    """||L_{n-1} ... L_{n-K-1} g_{n-K-2}||_L1, the (K+1)-st series term that truncation at K drops."""
    acc = g.density(n - k_order - 2)
    for m in range(n - k_order - 1, n):
        acc = transfer.apply(sys_.operator(m, 0.0), acc)
    return grid.norm_l1(acc)


class TestResolventIdentity:
    """eta_n - L_{n-1} eta_{n-1} - g_{n-1} is minus the dropped term, so the residual is its norm."""

    def check(self, entries, k_order):
        sys_ = SequenceSystem(periodic_schedule(entries), (0, k_order + 4), eps=0.0, n_points=N)
        fam = pullback_equivariant(sys_, 20, DensityGrid.constant(1.0, N), tol=np.inf)
        g = response.forcing(sys_, fam)
        rep = response.neumann_response(sys_, fam, g, k_order, (1.0, 0.5))
        dropped = max(dropped_term_l1(sys_, g, n, k_order) for n in range(rep.n_lo + 1, rep.n_hi + 1))
        scale = 1.0 + max(grid.norm_l1(eta) for eta in rep.etas)
        assert abs(response.resolvent_residual(sys_, rep, g) - dropped) <= 1e-12 * scale

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(systems=st.lists(kicked_systems(), min_size=2, max_size=3), k_order=st.integers(1, 6))
    def test_kicked(self, systems, k_order):
        self.check([DeterministicEntry(t, kick, i) for i, (t, kick, _) in enumerate(systems)], k_order)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(systems=st.lists(noisy_systems(), min_size=2, max_size=3), k_order=st.integers(1, 6))
    def test_noisy(self, systems, k_order):
        self.check([NoisyEntry(drift, q, i) for i, (drift, q, _) in enumerate(systems)], k_order)
