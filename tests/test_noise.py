import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from seqresponse import grid, noise, transfer
from seqresponse.errors import InvalidSystem
from seqresponse.maps import CircleMap, TrigPoly
from seqresponse.noise import DriftMap, NoiseDensity

N = 256
X = np.arange(N) / N
SIN_2PI = TrigPoly(sin_coeffs=(0.0, 1.0))  # fdot(x) = sin(2 pi x)
SIN_4PI = TrigPoly(sin_coeffs=(0.0, 0.0, 1.0))  # fdot(x) = sin(4 pi x)


@pytest.fixture(scope="module")
def bump_q():
    return NoiseDensity.bump(center=0.5, width=0.08, floor=0.3, n_points=N)


class IdentityDrift:
    """Drift stub f_eps(x) = x mod 1 for every eps: `at(eps)` is itself, with the `eval` that the sampler calls."""

    def at(self, eps):
        return self

    def eval(self, x):
        return grid.wrap(np.asarray(x, dtype=float))


def forcing(drift, q, mu):
    return noise.kernel_forcing(drift, noise.build_kernel(drift, 0.0, q, N), mu)


def expanding_drift(drift, eps):
    """f0 + eps * fdot as a CircleMap; an example where it does not expand is rejected."""
    try:
        return drift.at(eps)
    except InvalidSystem:
        assume(False)


def unit_mass_noise(samples):
    """The noise density of nonnegative samples rescaled to mass 1."""
    return NoiseDensity(samples / grid.mass(samples))


def dense_kernel(drift, eps, q):
    """Reference: the circulant C[i, m] = q[(i - m) % N] / N times the drift's dense gather, then mass-corrected.

    The gather is the N x N matrix whose row i holds f_eps's stencil
    weights at its columns, and the product gets the correction that
    makes every column sum to 1.
    """
    stencil = transfer.build_deterministic(drift.at(eps), N)
    gather = np.zeros((N, N))
    np.add.at(gather, (np.broadcast_to(np.arange(N), stencil.cols.shape), stencil.cols), stencil.entries)
    circulant = q.density[(np.arange(N)[:, None] - np.arange(N)[None, :]) % N] / N
    a = circulant @ gather
    return a + (1.0 - a.sum(axis=0))[None, :] / N


def searchsorted_sample_noise(cdf, u):
    """Reference inverse-CDF sampler: binary search on the table + linear interpolation."""
    n = cdf.shape[0] - 1
    i = np.clip(np.searchsorted(cdf, u, side="right") - 1, 0, n - 1)
    seg = cdf[i + 1] - cdf[i]
    frac = np.where(seg > 0.0, (u - cdf[i]) / np.where(seg > 0.0, seg, 1.0), 0.0)
    return (i + frac) / n


def reference_simulate(drift_at, eps, q, n_steps, n_samples, seed, n_bins):
    """The Monte Carlo loop as first written: whole blocks, binary-search noise, float % 1.0."""
    cdf = noise._inverse_cdf_table(q)
    counts = np.zeros(n_bins, dtype=np.int64)
    for b in range((n_samples + noise.MC_BLOCK_SIZE - 1) // noise.MC_BLOCK_SIZE):
        size = min(noise.MC_BLOCK_SIZE, n_samples - b * noise.MC_BLOCK_SIZE)
        rng = np.random.Generator(np.random.Philox(key=(seed, b)))
        x = rng.uniform(0.0, 1.0, size)
        for step in range(n_steps):
            xi = searchsorted_sample_noise(cdf, rng.uniform(0.0, 1.0, size))
            x = (drift_at(step).at(eps).eval(x) + xi) % 1.0
        counts += np.bincount(np.minimum((x * n_bins).astype(np.int64), n_bins - 1), minlength=n_bins)
    return counts * (n_bins / n_samples)


def reference_write_histogram(path, density):
    """The histogram CSV writer as first written: one write per row of numpy scalars."""
    with open(path, "w") as fh:
        fh.write("bin_left,density\n")
        for b, d in zip(np.arange(density.shape[0]) / density.shape[0], density):
            fh.write(f"{b:.17g},{d:.17g}\n")


def zero_width_noise(n, tail=False):
    """A noise density with alpha = 0, so the CDF has flat segments.

    It vanishes on (1/3, 2/3), or with `tail` on (0.3, 0.45) and [0.9, 1),
    where the last knots of the CDF round to 1 or just above it.
    """
    x = np.arange(n) / n
    if tail:
        samples = np.where(((x > 0.3) & (x < 0.45)) | (x >= 0.9), 0.0, 1.0 + 0.5 * np.sin(2 * np.pi * x))
    else:
        samples = np.maximum(np.cos(2 * np.pi * x) + 0.5, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return unit_mass_noise(samples)


def smooth_field(rng, scale, harmonics=4):
    """A TrigPoly with normal(0, scale) cosine and sine amplitudes at k = 1..harmonics and no constant."""
    a, b = scale * rng.normal(size=(2, harmonics))
    return TrigPoly(np.r_[0.0, a], np.r_[0.0, b])


@st.composite
def noisy_systems(draw):
    """(drift, q, mu): expanding degree 2-3 base, smooth fdot, bump noise, positive smooth mu."""
    coeffs = st.lists(st.floats(-0.04, 0.04), min_size=4, max_size=4)
    try:
        base = CircleMap(draw(st.integers(2, 3)), draw(coeffs), [0.0, *draw(coeffs)[1:]])
    except InvalidSystem:
        assume(False)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q = NoiseDensity.bump(
        center=draw(st.floats(0.0, 1.0, exclude_max=True)),
        width=draw(st.floats(0.05, 0.3)),
        floor=draw(st.floats(0.05, 0.9)),
        n_points=N,
    )
    mu = 1.0 + smooth_field(rng, 0.05)(X)
    return DriftMap(base=base, dot=smooth_field(rng, 0.5)), q, mu


class TestNoiseDensity:
    def test_uniform(self):
        q = NoiseDensity.uniform(N)
        assert q.alpha == 1.0

    def test_cosine_floor(self):
        x = X
        raw = 1 + np.cos(2 * np.pi * x)
        raw /= np.sum(raw) / N
        q = NoiseDensity(0.3 + 0.7 * raw)
        assert q.alpha == pytest.approx(0.3, abs=1e-9)

    def test_zero_sample_warns(self):
        samples = np.maximum(np.cos(2 * np.pi * X), 0.0)
        with pytest.warns(UserWarning):
            unit_mass_noise(samples)

    def test_zero_sample_warning_names_the_caller(self):
        with pytest.warns(UserWarning, match="touches zero") as record:
            unit_mass_noise(np.maximum(np.cos(2 * np.pi * X), 0.0))
        assert record[0].filename == __file__
        # through the classmethod too: a zero floor and width 0.001 underflow to 0 away from the center
        with pytest.warns(UserWarning, match="touches zero") as record:
            NoiseDensity.bump(0.5, 0.001, 0.0, N)
        assert record[0].filename == __file__

    def test_mass_enforced(self):
        with pytest.raises(ValueError):
            NoiseDensity(np.full(N, 2.0))

    def test_samples_are_a_read_only_copy(self):
        v = np.ones(N)
        q = NoiseDensity(v)
        v[0] = 2.0
        assert np.array_equal(q.density, np.ones(N)) and not q.density.flags.writeable

    @pytest.mark.parametrize(
        "samples", [np.ones((2, N)), np.ones(N - 1), np.full(N, np.nan)], ids=["2-d", "odd", "nan"]
    )
    def test_rejects_unchecked_samples(self, samples):
        with pytest.raises(ValueError):
            NoiseDensity(samples)

    @pytest.mark.parametrize("width", [0.0, -0.08, np.nan, np.inf, 1e-170])
    def test_bump_rejects_bad_width(self, width):
        # 1e-170 is positive, but its (2 pi width)^2 underflows to 0
        with pytest.raises(ValueError, match="width"):
            NoiseDensity.bump(0.5, width, 0.3, N)

    @pytest.mark.parametrize("floor", [-0.1, 1.0, 1.5, np.nan])
    def test_bump_rejects_bad_floor(self, floor):
        with pytest.raises(ValueError, match="floor"):
            NoiseDensity.bump(0.5, 0.08, floor, N)


class TestBuildKernel:
    def test_uniform_noise_projects(self, bump_q):
        q = NoiseDensity.uniform(N)
        a = noise.build_kernel(DriftMap(base=CircleMap(2, sin_coeffs=(0.0, 0.05)), dot=SIN_2PI), 0.02, q, N)
        rng = np.random.default_rng(0)
        f = rng.normal(size=N) + 2
        assert np.max(np.abs(transfer.push(a, f) - grid.mass(f))) <= 1e-12

    def test_convolution_oracle(self, bump_q):
        # the kernel is the circulant of q node values applied to the drift's push
        drift = DriftMap(base=CircleMap(2, sin_coeffs=(0.0, 0.05)))
        a = noise.build_kernel(drift, 0.0, bump_q, N)
        rng = np.random.default_rng(1)
        f = rng.uniform(0.5, 1.5, N)
        pushed = transfer.push(transfer.build_deterministic(drift.base, N), f)
        conv = np.array([np.sum(pushed * bump_q.density[(i - np.arange(N)) % N]) / N for i in range(N)])
        assert grid.norm_l1(transfer.push(a, f) - conv) <= 1e-12

    def test_mass_preserved(self, bump_q):
        drift = DriftMap(base=CircleMap(2), dot=SIN_2PI)
        a = noise.build_kernel(drift, 0.05, bump_q, N)
        rng = np.random.default_rng(2)
        for _ in range(30):
            f = rng.normal(size=N)
            assert abs(grid.mass(transfer.push(a, f)) - grid.mass(f)) <= 1e-10

    def test_doeblin_contraction(self, bump_q):
        a = noise.build_kernel(DriftMap(base=CircleMap(2)), 0.0, bump_q, N)
        alpha = bump_q.alpha
        rng = np.random.default_rng(3)
        for _ in range(100):
            v = rng.normal(size=N)
            v -= grid.mass(v)
            assert grid.norm_l1(transfer.push(a, v)) <= (1 - alpha + 1e-6) * grid.norm_l1(v)

    def test_operator_split(self, bump_q):
        # A - alpha * (mass projector) acts nonnegatively on nonnegative f
        a = noise.build_kernel(DriftMap(base=CircleMap(2)), 0.0, bump_q, N)
        alpha = bump_q.alpha
        rng = np.random.default_rng(4)
        for _ in range(20):
            f = rng.uniform(0, 2, N)
            tilde = transfer.push(a, f) - alpha * grid.mass(f)
            assert np.min(tilde) >= -1e-9

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(system=noisy_systems(), eps=st.floats(-0.05, 0.05))
    @example(
        system=(
            DriftMap(CircleMap(2), dot=SIN_2PI),
            NoiseDensity.bump(0.5, 0.08, 0.3, N),
            1 + 0.2 * np.cos(2 * np.pi * X),
        ),
        eps=1e-4,
    )
    def test_matches_dense_kernel(self, system, eps):
        # the kernel equals the dense circulant of q/N times the drift's gather, up to the mass
        # correction, and keeps mass and the zero-mass subspace
        drift, q, mu = system
        expanding_drift(drift, eps)
        a = noise.build_kernel(drift, eps, q, N)
        ref = dense_kernel(drift, eps, q)
        assert np.sum(np.abs(a.to_dense() - ref)) <= 1e-13 * np.sum(np.abs(ref))
        assert np.max(np.abs(a.to_dense().sum(axis=0) - 1.0)) <= 1e-12
        out = transfer.push(a, mu)
        assert grid.norm_l1(out - ref @ mu) <= 1e-13 * grid.norm_l1(out)
        assert abs(grid.mass(out) - grid.mass(mu)) <= 1e-12
        assert abs(grid.mass(transfer.push(a, mu - grid.mass(mu)))) <= 1e-12


class TestKernelForcing:
    def test_uniform_q_zero(self):
        q = NoiseDensity.uniform(N)
        drift = DriftMap(base=CircleMap(2), dot=SIN_2PI)
        g = forcing(drift, q, np.ones(N))
        assert np.max(np.abs(g)) <= 1e-12

    def test_zero_dot_zero(self, bump_q):
        drift = DriftMap(base=CircleMap(2))
        g = forcing(drift, bump_q, np.ones(N))
        assert np.max(np.abs(g)) == 0.0

    def test_zero_mass(self, bump_q):
        rng = np.random.default_rng(5)
        drift = DriftMap(base=CircleMap(2), dot=smooth_field(rng, 1.0, harmonics=16))
        mu = rng.uniform(0.5, 1.5, N)
        assert abs(grid.mass(forcing(drift, bump_q, mu))) <= 1e-9

    def test_difference_quotient_oracle(self, bump_q):
        eps = 1e-4
        drift = DriftMap(base=CircleMap(2), dot=SIN_2PI)
        mu = 1 + 0.2 * np.cos(2 * np.pi * X)
        l_eps = noise.build_kernel(drift, eps, bump_q, N)
        l_0 = noise.build_kernel(drift, 0.0, bump_q, N)
        quot = (transfer.push(l_eps, mu) - transfer.push(l_0, mu)) * (1.0 / eps)
        g = noise.kernel_forcing(drift, l_0, mu)
        assert grid.norm_l1(quot - g) <= 5e-3

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(system=noisy_systems())
    def test_matches_dense_derivative(self, system):
        # -(A (fdot mu))' from the eps = 0 kernel equals -D of the dense kernel applied to fdot mu
        drift, q, mu = system
        g = forcing(drift, q, mu)
        ref = -grid.derivative(dense_kernel(drift, 0.0, q) @ (drift.dot(X) * mu))
        assert grid.norm_l1(g - ref) <= 1e-12 * grid.norm_l1(ref)
        assert abs(grid.mass(g)) <= 1e-12


class TestSampleNoise:
    @pytest.mark.parametrize("which", ["bump", "zero-width", "zero-width-n100", "zero-tail-n64", "zero-tail", "uniform"])
    def test_matches_binary_search(self, bump_q, which):
        # the guide-table sampler returns the bits of the binary-search sampler, on random
        # uniforms, on every cdf knot and guide boundary, their neighbours, and u = 0 and 1
        q = {
            "bump": bump_q,
            "zero-width": zero_width_noise(N),
            "zero-width-n100": zero_width_noise(100),  # 2N = 200 is not a power of two
            "zero-tail-n64": zero_width_noise(64, tail=True),  # cdf ends 1, 1, 1: u = 1 meets a flat segment
            "zero-tail": zero_width_noise(N, tail=True),  # raw sums end 1 + 2**-52, 1 + 2**-52, clamped to 1
            "uniform": NoiseDensity.uniform(N),
        }[which]
        tables = noise._sampler_tables(q)
        cdf, guide = tables[:2]
        if which.startswith("zero"):
            assert q.alpha == 0.0 and np.any(np.diff(cdf) == 0.0)
        m = guide.shape[0] - 1
        knots = np.concatenate([cdf, np.arange(m + 1) / m])
        u = np.concatenate([
            np.random.default_rng(0).uniform(0.0, 1.0, 10**5),
            knots,
            np.nextafter(knots, -np.inf)[1:],
            np.nextafter(knots, np.inf)[:-1],
            [0.0, 1.0],
        ])
        u = np.clip(u, 0.0, 1.0)
        got = noise._sample_noise(tables, u)
        assert np.array_equal(got.view(np.int64), searchsorted_sample_noise(cdf, u).view(np.int64))


class TestInverseCdfTable:
    @pytest.mark.parametrize("n", [64, N])
    def test_monotone_with_zero_tail(self, n):
        # At N = 256 the raw cumulative sums of this density end 1 + 2**-52, 1 + 2**-52, 1.
        cdf = noise._inverse_cdf_table(zero_width_noise(n, tail=True))
        assert cdf[0] == 0.0 and cdf[-1] == 1.0
        assert np.all(np.diff(cdf) >= 0.0)

    @pytest.mark.parametrize("n", [N, 1024])
    def test_bump_table_unclamped(self, n):
        # The clamp leaves the bump noise of the reference configs bit for bit as it was.
        q = NoiseDensity.bump(center=0.5, width=0.08, floor=0.3, n_points=n)
        raw = np.concatenate([[0.0], np.cumsum(q.density)]) / n
        raw[-1] = 1.0
        assert np.array_equal(noise._inverse_cdf_table(q), raw)


class TestSimulateMarginal:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("steps", [1, 2, 3])
    def test_matches_reference_loop(self, bump_q, seed, steps):
        drift = DriftMap(base=CircleMap(2, sin_coeffs=(0.0, 0.05)), dot=SIN_4PI)
        hist = noise.simulate_marginal(lambda k: drift, 0.02, bump_q, steps, 10**4 + 123, seed=seed, n_bins=64)
        ref = reference_simulate(lambda k: drift, 0.02, bump_q, steps, 10**4 + 123, seed, 64)
        assert np.array_equal(hist, ref)

    def test_matches_reference_loop_periodic_schedule(self):
        # two blocks (the last partial), a periodic schedule, a noise with flat CDF segments
        drifts = [
            DriftMap(base=CircleMap(2, sin_coeffs=(0.0, 0.05)), dot=SIN_4PI),
            DriftMap(base=CircleMap(3, cos_coeffs=(0.0, 0.02), sin_coeffs=(0.0, 0.0, 0.01))),
        ]
        schedule = lambda n: drifts[n % 2]
        q = zero_width_noise(N)
        samples = noise.MC_BLOCK_SIZE + 123
        hist = noise.simulate_marginal(schedule, 0.01, q, 3, samples, seed=5, n_bins=32)
        assert np.array_equal(hist, reference_simulate(schedule, 0.01, q, 3, samples, 5, 32))

    def test_csv_bytes_match_row_writer(self, tmp_path):
        rng = np.random.default_rng(3)
        density = rng.normal(size=64) * 10.0 ** rng.integers(-300, 300, size=64)
        density[:10] = [0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, 2 / 3, np.inf, -np.inf, np.nan]
        grid.write_density_csv(tmp_path / "new.csv", density, "bin_left,density")
        reference_write_histogram(tmp_path / "old.csv", density)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


    def test_uniform_noise_uniformizes(self):
        q = NoiseDensity.uniform(N)
        hist = noise.simulate_marginal(lambda k: IdentityDrift(), 0.0, q, 1, 10**5, seed=1, n_bins=32)
        assert np.max(np.abs(hist - 1.0)) <= 4 / np.sqrt(10**5 / 32)

    def test_operator_oracle(self, bump_q):
        drift = DriftMap(base=CircleMap(2), dot=SIN_2PI)
        eps = 0.02
        steps = 3
        hist = noise.simulate_marginal(lambda k: drift, eps, bump_q, steps, 2 * 10**5, seed=7, n_bins=64)
        a = noise.build_kernel(drift, eps, bump_q, N)
        f = np.ones(N)
        for _ in range(steps):
            f = transfer.push(a, f)
        binned = noise.bin_density(f, 64)
        assert np.mean(np.abs(hist - binned)) <= 0.05

    def test_deterministic_per_seed(self, bump_q):
        h1 = noise.simulate_marginal(lambda k: IdentityDrift(), 0.0, bump_q, 2, 10**4 + 123, seed=42, n_bins=16)
        h2 = noise.simulate_marginal(lambda k: IdentityDrift(), 0.0, bump_q, 2, 10**4 + 123, seed=42, n_bins=16)
        assert np.array_equal(h1, h2)

    def test_chunk_size_does_not_matter(self, bump_q, monkeypatch):
        # Every sample is computed alone, so MC_CHUNK moves no bit, here over two blocks, the last
        # partial; and the sampler reads fdot exactly, never off the grid.
        def no_grid_reads(values, x):
            raise AssertionError("the sampler read a field off the grid")

        monkeypatch.setattr(grid, "interpolate_values", no_grid_reads)
        drift = DriftMap(base=CircleMap(2, sin_coeffs=(0.0, 0.05)), dot=smooth_field(np.random.default_rng(9), 0.5))
        samples = noise.MC_BLOCK_SIZE + 123
        assert noise.MC_CHUNK == 1 << 13
        ref = noise.simulate_marginal(lambda k: drift, 0.02, bump_q, 3, samples, seed=4, n_bins=64)
        for chunk in (1 << 12, 1 << 16):
            monkeypatch.setattr(noise, "MC_CHUNK", chunk)
            hist = noise.simulate_marginal(lambda k: drift, 0.02, bump_q, 3, samples, seed=4, n_bins=64)
            assert np.array_equal(hist, ref)

    def test_sample_floor(self, bump_q):
        with pytest.raises(ValueError):
            noise.simulate_marginal(lambda k: IdentityDrift(), 0.0, bump_q, 1, 10**3, seed=0, n_bins=8)


class TestDriftMap:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(system=noisy_systems(), eps=st.floats(-0.05, 0.05))
    def test_at_is_the_eps_drift(self, system, eps):
        # the CircleMap of summed lift coefficients is f0 + eps * fdot, a map of f0's degree
        drift, _, _ = system
        t = expanding_drift(drift, eps)
        x = np.random.default_rng(0).uniform(0.0, 1.0, 1000)
        assert t.degree == drift.base.degree
        assert np.max(np.abs(t.lift(x) - (drift.base.lift(x) + eps * drift.dot(x)))) <= 1e-14
        assert np.max(np.abs(t.lift_d1(x)[1] - (drift.base.lift_d1(x)[1] + eps * drift.dot.d1(x)))) <= 1e-12

    def test_at_zero_is_the_base(self):
        base = CircleMap(2, sin_coeffs=(0.0, 0.05))
        t = DriftMap(base=base, dot=SIN_4PI).at(0.0)
        assert np.array_equal(t.p.a, [0.0, 0.0, 0.0]) and np.array_equal(t.p.b, [0.0, 0.05, 0.0])
        x = np.random.default_rng(2).uniform(0.0, 1.0, 1000)
        assert np.array_equal(t.lift(x), base.lift(x))

    def test_non_expanding_eps_drift_names_eps(self, bump_q):
        # f' = 2 + 0.5 * 2 pi cos 2 pi x dips to 2 - pi < 1: no expanding map, no kernel
        drift = DriftMap(base=CircleMap(2), dot=SIN_2PI)
        with pytest.raises(InvalidSystem, match=r"eps = 0\.5: probed min of lift derivative is <= 1"):
            noise.build_kernel(drift, 0.5, bump_q, N)

    def test_dot_defaults_to_zero(self):
        d = DriftMap(base=CircleMap(2, sin_coeffs=(0.0, 0.05)))
        x = np.random.default_rng(1).uniform(0.0, 1.0, 1000)
        assert np.array_equal(d.dot(x), np.zeros_like(x))
        assert np.array_equal(d.at(0.3).eval(x), d.base.eval(x))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        n=st.sampled_from([64, 256, 1024]),
        harmonics=st.integers(1, 16),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_cubic_reads_node_samples_exactly(self, n, harmonics, seed):
        # kernel_forcing reads fdot only at the nodes, where the 4-point cubic of the node
        # samples returns each sample bit for bit; so reading fdot exactly moved no output of
        # it.  i/N * N is i only for N a power of two.
        rng = np.random.default_rng(seed)
        dot = smooth_field(rng, 1.0, harmonics)
        nodes = np.arange(n) / n
        v = dot(nodes)
        assert np.array_equal(grid.interpolate_values(v, nodes).view(np.int64), v.view(np.int64))
        # Off the grid the cubic is off by at most its Lagrange remainder (3/128) h^4 sup|fdot^(4)|.
        # Measured over 300 such fields at these N, the gap reaches 0.99999 of that bound; for
        # noisy-1024's fdot = sin 4 pi x at N = 1024 it is 5.315e-10 (the bound is 5.316e-10).
        rho = np.hypot(dot.a[1:], dot.b[1:])
        bound = 3 / 128 * np.sum(rho * (2 * np.pi * np.arange(1, harmonics + 1) / n) ** 4)
        x = rng.uniform(0.0, 1.0, 4096)
        assert np.max(np.abs(grid.interpolate_values(v, x) - dot(x))) <= bound * (1 + 1e-6) + 1e-13 * np.sum(rho)
