import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_noise import SIN_2PI, SIN_4PI, noisy_systems
from test_transfer import kicked_systems

from seqresponse import grid, noise, sequence, transfer
from seqresponse.errors import InvalidSystem, NotConverged, WindowExceeded
from seqresponse.maps import CircleMap, KickedMap, TrigPoly
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
    entry = DeterministicEntry(map=CircleMap(2), kick=TrigPoly(sin_coeffs=(0.0, 1 / (2 * np.pi))))
    return SequenceSystem(constant_schedule(entry), window, n_points=N)


def noisy_uniform_system(window=(0, 6)):
    entry = NoisyEntry(drift=DriftMap(base=CircleMap(2)), noise=NoiseDensity.uniform(N))
    return SequenceSystem(constant_schedule(entry), window, n_points=N)


def bump_system(window=(0, 10), floor=0.3, eps=0.0):
    q = NoiseDensity.bump(0.5, 0.08, floor, N)
    entry = NoisyEntry(drift=DriftMap(base=CircleMap(2), dot=SIN_2PI), noise=q)
    return SequenceSystem(constant_schedule(entry), window, n_points=N, eps=eps)


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


def unbatched_sweep(sys_, burn_in, seed):
    """The pullback as first written: one sweep per burn-in, one push of one density per step."""
    n_lo, n_hi = sys_.window
    mu, out = seed, []
    for m in range(n_lo - burn_in, n_hi + 1):
        if m >= n_lo:
            out.append(mu)
        if m <= n_hi - 1 or m < n_lo:
            mu = transfer.push(sys_.operator(m), mu)
    return out


def two_map_system(window=(0, 9), eps=0.0):
    kick = TrigPoly(sin_coeffs=(0.0, 1 / (2 * np.pi)))
    entries = [
        DeterministicEntry(CircleMap(2, sin_coeffs=(0.0, 0.05)), kick),
        DeterministicEntry(CircleMap(3, cos_coeffs=(0.0, 0.02)), kick),
    ]
    return SequenceSystem(periodic_schedule(entries), window, n_points=N, eps=eps)


class TestBatchedSweep:
    @pytest.mark.parametrize("burn_in", [1, 2, 7, 60])
    @pytest.mark.parametrize("make, eps", [(two_map_system, 0.0), (two_map_system, 3e-3), (bump_system, 1e-2)])
    def test_bits_match_unbatched_sweeps(self, make, eps, burn_in):
        # the width-2 block gives the densities and residual of two separate sweeps, bit for bit
        sys_ = make(eps=eps)
        seed = 1 + 0.5 * np.cos(2 * np.pi * X)
        if burn_in == 1:  # the half sweep would be the full sweep, its residual 0 by construction
            with pytest.raises(ValueError, match="burn_in must be >= 2"):
                pullback_equivariant(sys_, burn_in, seed, tol=np.inf)
            return
        fam, residual = pullback_equivariant(sys_, burn_in, seed, tol=np.inf)
        full = unbatched_sweep(sys_, burn_in, seed)
        half = unbatched_sweep(sys_, burn_in // 2, seed)
        assert (fam.n_lo, fam.n_hi) == sys_.window
        assert np.array_equal(fam.values, np.array(full))
        assert residual == max(grid.norm_w11(a - b) for a, b in zip(full, half))


class TestPullback:
    def test_constant_doubling_uniform(self):
        sys_ = doubling_system()
        seed = 1 + 0.5 * np.cos(2 * np.pi * X)
        fam, residual = pullback_equivariant(sys_, 60, seed)
        assert residual <= 1e-9
        for n in range(fam.n_lo, fam.n_hi + 1):
            assert np.max(np.abs(fam[n] - 1.0)) <= 1e-8

    def test_uniform_noise_one_step(self):
        fam, _ = pullback_equivariant(noisy_uniform_system(), 5, 1 + 0.9 * np.cos(2 * np.pi * X))
        for n in range(fam.n_lo, fam.n_hi + 1):
            assert np.max(np.abs(fam[n] - 1.0)) <= 1e-12

    def test_two_seed_uniqueness(self):
        sys_ = bump_system()
        fam_a, res_a = pullback_equivariant(sys_, 60, np.ones(N))
        fam_b, res_b = pullback_equivariant(sys_, 60, 1 + 0.9 * np.cos(2 * np.pi * X))
        gap = max(grid.norm_l1(a - b) for a, b in zip(fam_a.values, fam_b.values))
        assert gap <= 1e-8
        assert gap <= 10 * max(res_a, res_b) + 1e-12

    def test_equivariance_residual(self):
        sys_ = bump_system()
        fam, _ = pullback_equivariant(sys_, 60, np.ones(N))
        for n in range(fam.n_lo, fam.n_hi):
            pushed = transfer.push(sys_.operator(n), fam[n])
            assert grid.norm_l1(fam[n + 1] - pushed) <= 1e-9

    def test_probability_densities(self):
        fam, _ = pullback_equivariant(bump_system(), 60, np.ones(N))
        for mu in fam.values:
            assert abs(grid.mass(mu) - 1.0) <= 1e-10
            assert np.min(mu) >= -1e-12

    def test_not_converged(self):
        # two burn-in steps of a 0.7-contraction cannot reach 1e-12
        sys_ = bump_system(floor=0.3)
        with pytest.raises(NotConverged):
            pullback_equivariant(sys_, 2, 1 + 0.9 * np.cos(8 * np.pi * X), tol=1e-12)

    def test_bad_seed_rejected(self):
        with pytest.raises(ValueError):
            pullback_equivariant(doubling_system(), 10, np.full(N, 2.0))

    @pytest.mark.parametrize("seed", [np.ones((2, N)), np.ones(N - 1), np.full(N, np.inf)], ids=["2-d", "odd", "inf"])
    def test_unchecked_seed_rejected(self, seed):
        with pytest.raises(ValueError):
            pullback_equivariant(doubling_system(), 10, seed)


class TestMemoryDecay:
    def test_first_harmonic_dies_immediately(self):
        records, _ = memory_decay(doubling_system(), np.cos(2 * np.pi * X), 0, 5)
        assert records[0, 1] <= 1e-8  # W11 norm at k=1

    def test_degree_four_dies_in_three(self):
        records, _ = memory_decay(doubling_system(window=(0, 20)), np.cos(8 * np.pi * X), 0, 6)
        # cos 8pix -> cos 4pix -> cos 2pix -> 0
        assert records[2, 1] <= 1e-7

    def test_doeblin_rate(self):
        sys_ = bump_system()
        v = grid.project_zero_mass(np.random.default_rng(1).normal(size=N))
        records, _ = memory_decay(sys_, v, 0, 8)
        alpha = 0.3
        l1_0 = grid.norm_l1(v)
        for k, _, l1 in records:
            assert l1 <= (1 - alpha) ** k * l1_0 * (1 + 1e-6)

    def test_nonzero_mass_rejected(self):
        with pytest.raises(ValueError):
            memory_decay(doubling_system(), np.ones(N), 0, 3)

    @pytest.mark.parametrize("seed", [np.zeros((2, N)), np.zeros(N - 1), np.full(N, np.nan)], ids=["2-d", "odd", "nan"])
    def test_unchecked_seed_rejected(self, seed):
        with pytest.raises(ValueError):
            memory_decay(doubling_system(), seed, 0, 3)

    def test_fitted_rate_periodic_schedule(self):
        t0 = CircleMap(2)
        t1 = CircleMap(2, sin_coeffs=(0.0, 0.02 / (1 + 2 * np.pi + 4 * np.pi**2)))
        kick = TrigPoly(sin_coeffs=(0.0, 1 / (2 * np.pi)))
        sched = periodic_schedule(
            [DeterministicEntry(t0, kick), DeterministicEntry(t1, kick)]
        )
        sys_ = SequenceSystem(sched, (0, 30), n_points=N)
        v = np.cos(2 * np.pi * X) + 0.5 * np.sin(4 * np.pi * X)
        _, fitted_rate = memory_decay(sys_, v, 0, 20)
        assert 0.0 <= fitted_rate < 1.0


def fresh_operator(entry, eps):
    """L^eps of one schedule entry, assembled anew."""
    if isinstance(entry, DeterministicEntry):
        return transfer.build_deterministic(entry.map if eps == 0.0 else KickedMap(entry.kick, eps, entry.map), N)
    return noise.build_kernel(entry.drift, eps, entry.noise, N)


def same_bits(a, b):
    """Two transfer matrices with the same stencil, spectrum and mass correction, bit for bit."""
    va, vb = vars(a), vars(b)
    return va.keys() == vb.keys() and all(
        np.array_equal(va[k], vb[k]) if isinstance(va[k], np.ndarray) else va[k] == vb[k] for k in va
    )


class TestSchedules:
    def test_seeded_random_deterministic(self):
        entries = [
            DeterministicEntry(CircleMap(2), TrigPoly()),
            DeterministicEntry(CircleMap(3), TrigPoly()),
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
        t, kick = CircleMap(2), TrigPoly(sin_coeffs=(0.0, 0.1))
        q = NoiseDensity.uniform(N)
        drift = DriftMap(base=t)
        for a, b in ((DeterministicEntry(t, kick), DeterministicEntry(t, kick)), (NoisyEntry(drift, q), NoisyEntry(drift, q))):
            assert a != b and len({a: 0, b: 1}) == 2

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(schedule=mixed_schedules(), size=st.floats(1e-4, 1e-2), sign=st.sampled_from([-1.0, 1.0]))
    def test_entries_sharing_a_key_get_their_own_operators(self, schedule, size, sign):
        # each strength is its own system over the shared schedule: its operators are fresh ones at eps
        eps = sign * size
        sys_eps = SequenceSystem(schedule, (0, 7), N, eps)
        sys_0 = SequenceSystem(schedule, (0, 7), N)
        for n in range(8):
            got = sys_eps.operator(n)
            assert same_bits(got, fresh_operator(schedule(n), eps))
            assert sys_0.operator(n) is not got


def central_quotient(entry, w, eps):
    """(L^eps w - L^-eps w) / (2 eps) for one entry's operators on N points."""
    return (transfer.push(entry.assemble(eps, N), w) - transfer.push(entry.assemble(-eps, N), w)) / (2.0 * eps)


@st.composite
def entries_with_densities(draw):
    """An admissible deterministic or noisy entry and a smooth positive density w (noisy_systems' mu)."""
    drift, q, w = draw(noisy_systems())
    if draw(st.booleans()):
        t, kick, _ = draw(kicked_systems())
        return DeterministicEntry(t, kick), w
    return NoisyEntry(drift, q), w


class TestEntryDerivative:
    """An entry's `derivative` on the eps = 0 operator is the eps-derivative of its `assemble`, one step at a time."""

    T = CircleMap(2, sin_coeffs=(0.0, 0.05))  # T(x) = 2x + 0.05 sin 2 pi x

    @pytest.mark.parametrize(
        "entry, gap, ratio",
        [
            (DeterministicEntry(T, TrigPoly(sin_coeffs=(0.0, 1 / (2 * np.pi)))), 7.18e-7, 99.96),
            (NoisyEntry(DriftMap(T, dot=SIN_4PI), NoiseDensity.bump(0.5, 0.08, 0.3, N)), 3.01e-5, 99.82),
        ],
        ids=["kicked", "noisy"],
    )
    def test_second_order_on_uniform(self, entry, gap, ratio):
        # measured: the L1 gap of the central quotient falls 100-fold per decade of eps, as C eps^2
        w = np.ones(N)
        exact = entry.derivative(entry.assemble(0.0, N), w)
        gaps = [grid.norm_l1(central_quotient(entry, w, eps) - exact) for eps in (1e-2, 1e-3)]
        assert gaps[1] == pytest.approx(gap, rel=1e-2)
        assert gaps[0] / gaps[1] == pytest.approx(ratio, abs=0.5)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(drawn=entries_with_densities())
    def test_quotients_settle_on_derivative(self, drawn):
        # measured over 558 drawn entries: quotient differences fell by 98.4-100.1 per decade of eps, and the
        # quotient at 1e-4 missed the derivative by at most 4.2e-6 of its L1 norm (the grid's floor)
        entry, w = drawn
        exact = entry.derivative(entry.assemble(0.0, N), w)
        assume(grid.norm_l1(exact) > 1e-3)  # a zero kick or fdot has nothing to converge to
        try:
            q2, q3, q4 = (central_quotient(entry, w, eps) for eps in (1e-2, 1e-3, 1e-4))
        except InvalidSystem:  # a drift f0 + eps fdot that does not expand at eps = +-1e-2
            assume(False)
        assert 97.0 <= grid.norm_l1(q2 - q3) / grid.norm_l1(q3 - q4) <= 102.0
        assert grid.norm_l1(q4 - exact) <= 1e-5 * grid.norm_l1(exact)


class TestStrongBound:
    def test_uniform_w11_bound(self):
        # sup_n ||mu_n||_s <= B/(1-lambda1) + 1 + 0.5 with doubling constants
        from seqresponse.constants import lasota_yorke_constants

        sys_ = doubling_system()
        fam, _ = pullback_equivariant(sys_, 60, 1 + 0.9 * np.cos(2 * np.pi * X))
        lam1, b = lasota_yorke_constants(2.0 - 1e-9, 0.0, 0.1)
        bound = b / (1 - lam1) + 1 + 0.5
        assert max(grid.norm_w11(mu) for mu in fam.values) <= bound


class TestOperatorMemory:
    def test_no_dense_array(self):
        # a deterministic, a kicked and a noisy operator are built and applied in under N^2 / 4 doubles
        n = 1024
        x = np.arange(n) / n
        det = DeterministicEntry(CircleMap(2, sin_coeffs=(0.0, 0.05)), TrigPoly(sin_coeffs=(0.0, 0.15)))
        q = NoiseDensity.bump(0.5, 0.08, 0.3, n)
        noisy = NoisyEntry(DriftMap(CircleMap(2), dot=SIN_2PI), q)
        systems = {eps: SequenceSystem(periodic_schedule([det, noisy]), (0, 1), n, eps) for eps in (0.0, 0.01)}
        f = 1.0 + 0.5 * np.cos(2 * np.pi * x)
        tracemalloc.start()
        try:
            for n_index, eps in ((0, 0.0), (0, 0.01), (1, 0.01)):
                transfer.push(systems[eps].operator(n_index), f)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * n * n / 4
