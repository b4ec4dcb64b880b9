import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_noise import noisy_systems
from test_transfer import kicked_systems

from seqresponse import grid, sequence, transfer
from seqresponse.errors import NotConverged, WindowExceeded
from seqresponse.grid import DensityGrid
from seqresponse.maps import CircleMap, KickedMap, KickField
from seqresponse.noise import DriftMap, NoiseDensity
from seqresponse.sequence import (
    DeterministicEntry,
    NoisyEntry,
    SequenceSystem,
    Window,
    constant_schedule,
    memory_decay,
    periodic_schedule,
    pullback_equivariant,
    seeded_random_schedule,
)

N = 256
X = np.arange(N) / N


def doubling_system(window=(0, 10)):
    entry = DeterministicEntry(map=CircleMap(2), kick=KickField(sin_coeffs=(0.0, 1 / (2 * np.pi))))
    return SequenceSystem(constant_schedule(entry), window, n_points=N)


def noisy_uniform_system(window=(0, 6)):
    entry = NoisyEntry(drift=DriftMap(base=CircleMap(2)), noise=NoiseDensity.uniform(N))
    return SequenceSystem(constant_schedule(entry), window, n_points=N)


def bump_system(window=(0, 10), floor=0.3):
    q = NoiseDensity.bump(0.5, 0.08, floor, N)
    entry = NoisyEntry(drift=DriftMap(base=CircleMap(2), dot=np.sin(2 * np.pi * X)), noise=q)
    return SequenceSystem(constant_schedule(entry), window, n_points=N)


class TestWindow:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(n_lo=st.integers(-10**6, 10**6), m=st.integers(1, 12), n=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
    def test_index_reads_its_row(self, n_lo, m, n, seed):
        values = np.random.default_rng(seed).normal(size=(m, n))
        w = Window(n_lo, values)
        assert w.n_hi == n_lo + m - 1
        for k in range(n_lo, w.n_hi + 1):
            assert np.array_equal(w[k], values[k - n_lo])
            with pytest.raises(ValueError):
                w[k][0] = 1.0
        for k in (n_lo - 1, w.n_hi + 1):
            with pytest.raises(WindowExceeded):
                w[k]
        assert np.array_equal(w.rows(n_lo, w.n_hi), values)
        with pytest.raises(WindowExceeded):
            w.rows(n_lo, w.n_hi + 1)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        m=st.integers(1, 6),
        n=st.integers(1, 20),
        where=st.tuples(st.integers(0, 5), st.integers(0, 19)),
        bad=st.sampled_from([np.nan, np.inf, -np.inf]),
    )
    def test_rejects_non_finite(self, m, n, where, bad):
        values = np.ones((m, n))
        values[where[0] % m, where[1] % n] = bad
        with pytest.raises(ValueError, match="finite"):
            Window(0, values)

    def test_block_is_read_only_view(self):
        values = np.ones((3, 16))
        w = Window(0, values)
        with pytest.raises(ValueError):
            w.values[0, 0] = 2.0
        values[0, 0] = 2.0  # the window is a read-only view of the caller's array, which keeps its flags
        assert w[0][0] == 2.0

    @pytest.mark.parametrize("shape", [(), (8,), (2, 3, 4)])
    def test_rejects_non_2d(self, shape):
        with pytest.raises(ValueError, match="block"):
            Window(0, np.ones(shape))


@st.composite
def mixed_schedules(draw):
    """A periodic or seeded-random schedule of 2-4 entries, deterministic and noisy ones mixed."""
    kicked = draw(st.lists(kicked_systems(), min_size=1, max_size=2))
    noisy = draw(st.lists(noisy_systems(), min_size=1, max_size=2))
    entries = [DeterministicEntry(t, kick) for t, kick, _ in kicked] + [NoisyEntry(d, q) for d, q, _ in noisy]
    entries = draw(st.permutations(entries))
    if draw(st.booleans()):
        return periodic_schedule(entries)
    return seeded_random_schedule(entries, draw(st.integers(0, 2**32 - 1)))


class TestAdvance:
    """advance(w) is the global transfer operator: row n - w.n_lo is L_n w_n."""

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(
        schedule=mixed_schedules(),
        n_lo=st.integers(-20, 20),
        m=st.integers(1, 9),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_rows_are_single_pushes(self, schedule, n_lo, m, seed):
        sys_ = SequenceSystem(schedule, (n_lo, n_lo + m), n_points=N)
        values = np.random.default_rng(seed).normal(size=(m, N))
        values[::2] -= grid.mass(values[::2])[:, None]  # every other row has zero mass
        w = Window(n_lo, values)
        out = sys_.advance(w)
        assert out.shape == values.shape
        for n in range(w.n_lo, w.n_hi + 1):
            # the operator at index n, not n - 1, each row with the bits of its own push
            assert np.array_equal(out[n - n_lo], transfer.push(sys_.operator(n), w[n]))
        masses, l1 = grid.mass(out), grid.norm_l1(values)
        assert np.all(np.abs(masses - grid.mass(values)) <= 1e-12 * l1)
        assert np.all(np.abs(masses[::2]) <= 1e-12 * l1[::2])


def unbatched_sweep(sys_, burn_in, seed, eps):
    """The pullback as first written: one sweep per burn-in, one apply per step."""
    n_lo, n_hi = sys_.window
    mu, out = seed, []
    for m in range(n_lo - burn_in, n_hi + 1):
        if m >= n_lo:
            out.append(mu)
        if m <= n_hi - 1 or m < n_lo:
            mu = transfer.apply(sys_.operator(m, eps), mu)
    return out


def two_map_system(window=(0, 9)):
    kick = KickField(sin_coeffs=(0.0, 1 / (2 * np.pi)))
    entries = [
        DeterministicEntry(CircleMap(2, sin_coeffs=(0.0, 0.05)), kick),
        DeterministicEntry(CircleMap(3, cos_coeffs=(0.0, 0.02)), kick),
    ]
    return SequenceSystem(periodic_schedule(entries), window, n_points=N)


class TestBatchedSweep:
    @pytest.mark.parametrize("burn_in", [1, 2, 7, 60])
    @pytest.mark.parametrize("make, eps", [(two_map_system, 0.0), (two_map_system, 3e-3), (bump_system, 1e-2)])
    def test_bits_match_unbatched_sweeps(self, make, eps, burn_in):
        # the width-2 block gives the densities and residual of two separate sweeps, bit for bit
        sys_ = make()
        seed = DensityGrid(1 + 0.5 * np.cos(2 * np.pi * X))
        fam, residual = pullback_equivariant(sys_, burn_in, seed, tol=np.inf, eps=eps)
        full = unbatched_sweep(sys_, burn_in, seed, eps)
        half = unbatched_sweep(sys_, max(1, burn_in // 2), seed, eps)
        assert (fam.n_lo, fam.n_hi) == sys_.window
        assert np.array_equal(fam.values, np.array([mu.values for mu in full]))
        assert residual == max(grid.norm_w11(a.values - b.values) for a, b in zip(full, half))


class TestPullback:
    def test_constant_doubling_uniform(self):
        sys_ = doubling_system()
        seed = DensityGrid(1 + 0.5 * np.cos(2 * np.pi * X))
        fam, residual = pullback_equivariant(sys_, 60, seed)
        assert residual <= 1e-9
        for n in range(fam.n_lo, fam.n_hi + 1):
            assert np.max(np.abs(fam[n] - 1.0)) <= 1e-8

    def test_uniform_noise_one_step(self):
        fam, _ = pullback_equivariant(noisy_uniform_system(), 5, DensityGrid(1 + 0.9 * np.cos(2 * np.pi * X)))
        for n in range(fam.n_lo, fam.n_hi + 1):
            assert np.max(np.abs(fam[n] - 1.0)) <= 1e-12

    def test_two_seed_uniqueness(self):
        sys_ = bump_system()
        fam_a, res_a = pullback_equivariant(sys_, 60, DensityGrid.constant(1.0, N))
        fam_b, res_b = pullback_equivariant(sys_, 60, DensityGrid(1 + 0.9 * np.cos(2 * np.pi * X)))
        gap = max(grid.norm_l1(a - b) for a, b in zip(fam_a.values, fam_b.values))
        assert gap <= 1e-8
        assert gap <= 10 * max(res_a, res_b) + 1e-12

    def test_equivariance_residual(self):
        sys_ = bump_system()
        fam, _ = pullback_equivariant(sys_, 60, DensityGrid.constant(1.0, N))
        for n in range(fam.n_lo, fam.n_hi):
            pushed = transfer.apply(sys_.operator(n), DensityGrid(fam[n]))
            assert grid.norm_l1(fam[n + 1] - pushed.values) <= 1e-9

    def test_probability_densities(self):
        fam, _ = pullback_equivariant(bump_system(), 60, DensityGrid.constant(1.0, N))
        for mu in fam.values:
            assert abs(grid.mass(mu) - 1.0) <= 1e-10
            assert np.min(mu) >= -1e-12

    def test_not_converged(self):
        # two burn-in steps of a 0.7-contraction cannot reach 1e-12
        sys_ = bump_system(floor=0.3)
        with pytest.raises(NotConverged):
            pullback_equivariant(sys_, 2, DensityGrid(1 + 0.9 * np.cos(8 * np.pi * X)), tol=1e-12)

    def test_bad_seed_rejected(self):
        with pytest.raises(ValueError):
            pullback_equivariant(doubling_system(), 10, DensityGrid.constant(2.0, N))


class TestMemoryDecay:
    def test_first_harmonic_dies_immediately(self):
        records, _ = memory_decay(doubling_system(), DensityGrid(np.cos(2 * np.pi * X)), 0, 5)
        assert records[0, 1] <= 1e-8  # W11 norm at k=1

    def test_degree_four_dies_in_three(self):
        records, _ = memory_decay(doubling_system(window=(0, 20)), DensityGrid(np.cos(8 * np.pi * X)), 0, 6)
        # cos 8pix -> cos 4pix -> cos 2pix -> 0
        assert records[2, 1] <= 1e-7

    def test_doeblin_rate(self):
        sys_ = bump_system()
        v = grid.project_zero_mass(DensityGrid(np.random.default_rng(1).normal(size=N)))
        records, _ = memory_decay(sys_, v, 0, 8)
        alpha = 0.3
        l1_0 = grid.norm_l1(v.values)
        for k, _, l1 in records:
            assert l1 <= (1 - alpha) ** k * l1_0 * (1 + 1e-6)

    def test_nonzero_mass_rejected(self):
        with pytest.raises(ValueError):
            memory_decay(doubling_system(), DensityGrid.constant(1.0, N), 0, 3)

    def test_fitted_rate_periodic_schedule(self):
        t0 = CircleMap(2)
        t1 = CircleMap(2, sin_coeffs=(0.0, 0.02 / (1 + 2 * np.pi + 4 * np.pi**2)))
        kick = KickField(sin_coeffs=(0.0, 1 / (2 * np.pi)))
        sched = periodic_schedule(
            [DeterministicEntry(t0, kick), DeterministicEntry(t1, kick)]
        )
        sys_ = SequenceSystem(sched, (0, 30), n_points=N)
        v = DensityGrid(np.cos(2 * np.pi * X) + 0.5 * np.sin(4 * np.pi * X))
        _, fitted_rate = memory_decay(sys_, v, 0, 20)
        assert 0.0 <= fitted_rate < 1.0


class TestSchedules:
    def test_seeded_random_deterministic(self):
        entries = [
            DeterministicEntry(CircleMap(2), KickField()),
            DeterministicEntry(CircleMap(3), KickField()),
        ]
        s1 = seeded_random_schedule(entries, seed=9)
        s2 = seeded_random_schedule(entries, seed=9)
        picks1 = [s1(n) for n in range(20)]
        picks2 = [s2(n) for n in range(20)]
        assert all(a is b for a, b in zip(picks1, picks2))
        assert {id(p) for p in picks1} == {id(e) for e in entries}

    def test_matrix_cache_reused(self):
        sys_ = doubling_system()
        assert sys_.operator(0) is sys_.operator(7)

    def test_equal_entries_are_distinct_keys(self):
        t, kick = CircleMap(2), KickField(sin_coeffs=(0.0, 0.1))
        q = NoiseDensity.uniform(N)
        drift = DriftMap(base=t)
        for a, b in ((DeterministicEntry(t, kick), DeterministicEntry(t, kick)), (NoisyEntry(drift, q), NoisyEntry(drift, q))):
            assert a != b and len({a: 0, b: 1}) == 2

    def test_entries_sharing_a_key_get_their_own_operators(self):
        kick = KickField(sin_coeffs=(0.0, 0.1))
        maps = (CircleMap(2), CircleMap(2, sin_coeffs=(0.0, 0.05)))
        entries = [DeterministicEntry(t, kick) for t in maps]
        sys_ = SequenceSystem(periodic_schedule(entries), (0, 3), n_points=N)
        for eps in (0.0, 0.01):
            for n, t in enumerate(maps):
                expected = transfer.build_deterministic(t if eps == 0.0 else KickedMap(kick, eps, t), N)
                assert np.array_equal(sys_.operator(n, eps).to_dense(), expected.to_dense())


class TestStrongBound:
    def test_uniform_w11_bound(self):
        # sup_n ||mu_n||_s <= B/(1-lambda1) + 1 + 0.5 with doubling constants
        from seqresponse.constants import lasota_yorke_constants

        sys_ = doubling_system()
        fam, _ = pullback_equivariant(sys_, 60, DensityGrid(1 + 0.9 * np.cos(2 * np.pi * X)))
        lam1, b = lasota_yorke_constants(2.0 - 1e-9, 0.0, 0.1)
        bound = b / (1 - lam1) + 1 + 0.5
        assert max(grid.norm_w11(mu) for mu in fam.values) <= bound


class TestOperatorMemory:
    def test_no_dense_array(self):
        # a deterministic, a kicked and a noisy operator are built and applied in under N^2 / 4 doubles
        n = 1024
        x = np.arange(n) / n
        det = DeterministicEntry(CircleMap(2, sin_coeffs=(0.0, 0.05)), KickField(sin_coeffs=(0.0, 0.15)))
        q = NoiseDensity.bump(0.5, 0.08, 0.3, n)
        noisy = NoisyEntry(DriftMap(CircleMap(2), dot=np.sin(2 * np.pi * x)), q)
        sys_ = SequenceSystem(periodic_schedule([det, noisy]), (0, 1), n_points=n)
        f = DensityGrid(1.0 + 0.5 * np.cos(2 * np.pi * x))
        tracemalloc.start()
        try:
            for n_index, eps in ((0, 0.0), (0, 0.01), (1, 0.01)):
                transfer.apply(sys_.operator(n_index, eps), f)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * n * n / 4
