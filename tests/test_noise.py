import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from seqresponse import grid, noise, transfer
from seqresponse.errors import NotExpanding
from seqresponse.grid import DensityGrid
from seqresponse.maps import CircleMap
from seqresponse.noise import DriftMap, NoiseDensity

N = 256
X = np.arange(N) / N


@pytest.fixture(scope="module")
def bump_q():
    return NoiseDensity.bump(center=0.5, width=0.08, floor=0.3, n_points=N)


def identity_drift(dot=None):
    return DriftMap(base=lambda x: np.asarray(x) % 1.0, dot=dot)


def forcing(drift, q, mu):
    return noise.kernel_forcing(drift, noise.build_kernel(drift, 0.0, q, N), mu)


def q_prime_quadrature(drift, q, mu):
    """Reference forcing: (1/N) sum_j -q'(y_i - f0(x_j)) fdot(x_j) mu(x_j), q' the grid derivative."""
    shifts = (X[:, None] - drift.base_values(X)[None, :]) % 1.0
    kq = grid.interpolate_values(grid.derivative(q.density).values, shifts.ravel()).reshape(N, N)
    return DensityGrid(-(kq @ (mu.values * drift.dot_values(X))) / N)


def dense_kernel(drift, eps, q):
    """Reference: A[i,j] = (1/N) q(y_i - f_eps(x_j)) by the 4-point cubic at all N^2 shifts, mass-corrected."""
    shifts = (X[:, None] - drift.eval(X, eps)[None, :]) % 1.0
    a = grid.interpolate_values(q.density.values, shifts.ravel()).reshape(N, N) / N
    return a + (1.0 - a.sum(axis=0))[None, :] / N


def searchsorted_sample_noise(cdf, u):
    """Reference inverse-CDF sampler: binary search on the table + linear interpolation."""
    n = cdf.shape[0] - 1
    i = np.clip(np.searchsorted(cdf, u, side="right") - 1, 0, n - 1)
    seg = cdf[i + 1] - cdf[i]
    frac = np.where(seg > 0.0, (u - cdf[i]) / np.where(seg > 0.0, seg, 1.0), 0.0)
    return (i + frac) / n


def reference_simulate(f_schedule, eps, q, n_steps, n_samples, seed, n_bins):
    """The Monte Carlo loop as first written: whole blocks, binary-search noise, float % 1.0."""
    drift_at = f_schedule if callable(f_schedule) else (lambda n: f_schedule)
    cdf = noise._inverse_cdf_table(q)
    counts = np.zeros(n_bins, dtype=np.int64)
    for b in range((n_samples + noise.MC_BLOCK_SIZE - 1) // noise.MC_BLOCK_SIZE):
        size = min(noise.MC_BLOCK_SIZE, n_samples - b * noise.MC_BLOCK_SIZE)
        rng = np.random.Generator(np.random.Philox(key=(seed, b)))
        x = rng.uniform(0.0, 1.0, size)
        for step in range(n_steps):
            xi = searchsorted_sample_noise(cdf, rng.uniform(0.0, 1.0, size))
            x = (drift_at(step).eval(x, eps) + xi) % 1.0
        counts += np.bincount(np.minimum((x * n_bins).astype(np.int64), n_bins - 1), minlength=n_bins)
    return counts * (n_bins / n_samples)


def reference_write_histogram(path, hist):
    """The histogram CSV writer as first written: one write per row of numpy scalars."""
    with open(path, "w") as fh:
        fh.write("bin_left,density\n")
        for b, d in zip(hist.bin_left, hist.density):
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
        return NoiseDensity.from_samples(samples)


def smooth_samples(rng, scale):
    v = np.zeros(N)
    for k in range(1, 5):
        v += scale * (rng.normal() * np.cos(2 * np.pi * k * X) + rng.normal() * np.sin(2 * np.pi * k * X))
    return v


@st.composite
def noisy_systems(draw):
    """(drift, q, mu): expanding degree 2-3 base, smooth fdot, bump noise, positive smooth mu."""
    coeffs = st.lists(st.floats(-0.04, 0.04), min_size=4, max_size=4)
    try:
        base = CircleMap(draw(st.integers(2, 3)), draw(coeffs), draw(coeffs))
    except NotExpanding:
        assume(False)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q = NoiseDensity.bump(
        center=draw(st.floats(0.0, 1.0, exclude_max=True)),
        width=draw(st.floats(0.05, 0.3)),
        floor=draw(st.floats(0.05, 0.9)),
        n_points=N,
    )
    mu = DensityGrid(1.0 + smooth_samples(rng, 0.05))
    return DriftMap(base=base, dot=smooth_samples(rng, 0.5)), q, mu


class TestNoiseDensity:
    def test_uniform(self):
        q = NoiseDensity.uniform(N)
        assert noise.doeblin_alpha(q) == 1.0

    def test_cosine_floor(self):
        x = X
        raw = 1 + np.cos(2 * np.pi * x)
        raw /= np.sum(raw) / N
        q = NoiseDensity.from_samples(0.3 + 0.7 * raw)
        assert noise.doeblin_alpha(q) == pytest.approx(0.3, abs=1e-9)

    def test_zero_sample_warns(self):
        samples = np.maximum(np.cos(2 * np.pi * X), 0.0)
        with pytest.warns(UserWarning):
            NoiseDensity.from_samples(samples)

    def test_mass_enforced(self):
        with pytest.raises(ValueError):
            NoiseDensity(DensityGrid.constant(2.0, N))


class TestBuildKernel:
    def test_uniform_noise_projects(self, bump_q):
        q = NoiseDensity.uniform(N)
        a = noise.build_kernel(identity_drift(), 0.0, q, N)
        rng = np.random.default_rng(0)
        f = DensityGrid(rng.normal(size=N) + 2)
        out = transfer.apply(a, f)
        assert np.max(np.abs(out.values - grid.mass(f))) <= 1e-12

    def test_convolution_oracle(self, bump_q):
        # identity drift: kernel is the circulant of q node values
        a = noise.build_kernel(identity_drift(), 0.0, bump_q, N)
        rng = np.random.default_rng(1)
        f = DensityGrid(rng.uniform(0.5, 1.5, N))
        out = transfer.apply(a, f)
        conv = np.array(
            [np.sum(f.values * bump_q.density.values[(i - np.arange(N)) % N]) / N for i in range(N)]
        )
        assert grid.norm_l1(out - DensityGrid(conv)) <= 1e-8

    def test_mass_preserved(self, bump_q):
        drift = DriftMap(base=CircleMap(2), dot=np.sin(2 * np.pi * X))
        a = noise.build_kernel(drift, 0.05, bump_q, N)
        rng = np.random.default_rng(2)
        for _ in range(30):
            f = DensityGrid(rng.normal(size=N))
            assert abs(grid.mass(transfer.apply(a, f)) - grid.mass(f)) <= 1e-10

    def test_doeblin_contraction(self, bump_q):
        a = noise.build_kernel(DriftMap(base=CircleMap(2)), 0.0, bump_q, N)
        alpha = noise.doeblin_alpha(bump_q)
        rng = np.random.default_rng(3)
        for _ in range(100):
            v = grid.project_zero_mass(DensityGrid(rng.normal(size=N)))
            assert grid.norm_l1(transfer.apply(a, v)) <= (1 - alpha + 1e-6) * grid.norm_l1(v)

    def test_operator_split(self, bump_q):
        # A - alpha * (mass projector) acts nonnegatively on nonnegative f
        a = noise.build_kernel(DriftMap(base=CircleMap(2)), 0.0, bump_q, N)
        alpha = noise.doeblin_alpha(bump_q)
        rng = np.random.default_rng(4)
        for _ in range(20):
            f = DensityGrid(rng.uniform(0, 2, N))
            tilde = transfer.apply(a, f).values - alpha * grid.mass(f)
            assert np.min(tilde) >= -1e-9

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(system=noisy_systems(), eps=st.floats(-0.05, 0.05))
    @example(
        system=(
            DriftMap(CircleMap(2), dot=np.sin(2 * np.pi * X)),
            NoiseDensity.bump(0.5, 0.08, 0.3, N),
            DensityGrid(1 + 0.2 * np.cos(2 * np.pi * X)),
        ),
        eps=1e-4,  # f_eps(x_128) = 1.2e-20 mod 1: N f_eps(x_128) = 3e-18 sits just above node 0
    )
    def test_matches_dense_kernel(self, system, eps):
        # the FFT kernel equals the N^2 interpolated kernel, keeps mass and the zero-mass subspace
        drift, q, mu = system
        a = noise.build_kernel(drift, eps, q, N)
        ref = dense_kernel(drift, eps, q)
        assert np.sum(np.abs(a.to_dense() - ref)) <= 1e-13 * np.sum(np.abs(ref))
        out = transfer.apply(a, mu)
        assert grid.norm_l1(out - DensityGrid(ref @ mu.values)) <= 1e-13 * grid.norm_l1(out)
        assert abs(grid.mass(out) - grid.mass(mu)) <= 1e-12
        v = grid.project_zero_mass(mu)
        assert abs(grid.mass(transfer.apply(a, v))) <= 1e-12


class TestKernelForcing:
    def test_uniform_q_zero(self):
        q = NoiseDensity.uniform(N)
        drift = DriftMap(base=CircleMap(2), dot=np.sin(2 * np.pi * X))
        g = forcing(drift, q, DensityGrid.constant(1.0, N))
        assert np.max(np.abs(g.values)) <= 1e-12

    def test_zero_dot_zero(self, bump_q):
        drift = DriftMap(base=CircleMap(2))
        g = forcing(drift, bump_q, DensityGrid.constant(1.0, N))
        assert np.max(np.abs(g.values)) == 0.0

    def test_zero_mass(self, bump_q):
        rng = np.random.default_rng(5)
        drift = DriftMap(base=CircleMap(2), dot=rng.normal(size=N))
        mu = DensityGrid(rng.uniform(0.5, 1.5, N))
        assert abs(grid.mass(forcing(drift, bump_q, mu))) <= 1e-9

    def test_difference_quotient_oracle(self, bump_q):
        eps = 1e-4
        drift = DriftMap(base=CircleMap(2), dot=np.sin(2 * np.pi * X))
        mu = DensityGrid(1 + 0.2 * np.cos(2 * np.pi * X))
        l_eps = noise.build_kernel(drift, eps, bump_q, N)
        l_0 = noise.build_kernel(drift, 0.0, bump_q, N)
        quot = (transfer.apply(l_eps, mu) - transfer.apply(l_0, mu)) * (1.0 / eps)
        g = noise.kernel_forcing(drift, l_0, mu)
        assert grid.norm_l1(quot - g) <= 5e-3

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(system=noisy_systems())
    def test_matches_q_prime_quadrature(self, system):
        # -(A (fdot mu))' from the eps = 0 kernel equals the q' quadrature
        drift, q, mu = system
        g = forcing(drift, q, mu)
        ref = q_prime_quadrature(drift, q, mu)
        assert grid.norm_l1(g - ref) <= 1e-10 * grid.norm_l1(ref)
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
            "zero-tail": zero_width_noise(N, tail=True),  # cdf ends 1 + 2**-52, 1
            "uniform": NoiseDensity.uniform(N),
        }[which]
        cdf = noise._inverse_cdf_table(q)
        guide = noise._guide_table(cdf)
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
        got = noise._sample_noise(cdf, guide, u)
        assert np.array_equal(got.view(np.int64), searchsorted_sample_noise(cdf, u).view(np.int64))


class TestSimulateMarginal:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("steps", [1, 2, 3])
    def test_matches_reference_loop(self, bump_q, seed, steps):
        drift = DriftMap(base=CircleMap(2, sin_coeffs=(0.0, 0.05)), dot=np.sin(4 * np.pi * X))
        hist = noise.simulate_marginal(drift, 0.02, bump_q, steps, 10**4 + 123, seed=seed, n_bins=64)
        ref = reference_simulate(drift, 0.02, bump_q, steps, 10**4 + 123, seed, 64)
        assert np.array_equal(hist.density, ref)

    def test_matches_reference_loop_periodic_schedule(self):
        # two blocks (the last partial), a callable periodic schedule, a noise with flat CDF segments
        drifts = [
            DriftMap(base=CircleMap(2, sin_coeffs=(0.0, 0.05)), dot=np.sin(4 * np.pi * X)),
            DriftMap(base=CircleMap(3, cos_coeffs=(0.0, 0.02), sin_coeffs=(0.0, 0.0, 0.01))),
        ]
        schedule = lambda n: drifts[n % 2]
        q = zero_width_noise(N)
        samples = noise.MC_BLOCK_SIZE + 123
        hist = noise.simulate_marginal(schedule, 0.01, q, 3, samples, seed=5, n_bins=32)
        assert np.array_equal(hist.density, reference_simulate(schedule, 0.01, q, 3, samples, 5, 32))

    def test_csv_bytes_match_row_writer(self, tmp_path):
        rng = np.random.default_rng(3)
        density = rng.normal(size=64) * 10.0 ** rng.integers(-300, 300, size=64)
        density[:7] = [0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, 2 / 3]
        hist = noise.Histogram(bin_left=np.arange(64) / 64, density=density)
        hist.write_csv(tmp_path / "new.csv")
        reference_write_histogram(tmp_path / "old.csv", hist)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


    def test_uniform_noise_uniformizes(self):
        q = NoiseDensity.uniform(N)
        hist = noise.simulate_marginal(identity_drift(), 0.0, q, 1, 10**5, seed=1, n_bins=32)
        assert np.max(np.abs(hist.density - 1.0)) <= 4 / np.sqrt(10**5 / 32)

    def test_operator_oracle(self, bump_q):
        drift = DriftMap(base=CircleMap(2), dot=np.sin(2 * np.pi * X))
        eps = 0.02
        steps = 3
        hist = noise.simulate_marginal(drift, eps, bump_q, steps, 2 * 10**5, seed=7, n_bins=64)
        a = noise.build_kernel(drift, eps, bump_q, N)
        f = DensityGrid.constant(1.0, N)
        for _ in range(steps):
            f = transfer.apply(a, f)
        binned = noise.bin_density(f, 64)
        assert np.mean(np.abs(hist.density - binned)) <= 0.05

    def test_deterministic_per_seed(self, bump_q):
        h1 = noise.simulate_marginal(identity_drift(), 0.0, bump_q, 2, 10**4 + 123, seed=42, n_bins=16)
        h2 = noise.simulate_marginal(identity_drift(), 0.0, bump_q, 2, 10**4 + 123, seed=42, n_bins=16)
        assert np.array_equal(h1.density, h2.density)

    def test_sample_floor(self, bump_q):
        with pytest.raises(ValueError):
            noise.simulate_marginal(identity_drift(), 0.0, bump_q, 1, 10**3, seed=0, n_bins=8)


class TestDriftMap:
    def test_sampled_base_nearest(self):
        samples = (2 * X) % 1.0
        d = DriftMap(base=samples)
        assert d.base_values(X[10]) == pytest.approx(samples[10], abs=1e-15)

    def test_dot_interpolated(self):
        d = DriftMap(base=CircleMap(2), dot=np.sin(2 * np.pi * X))
        assert d.dot_values(0.1) == pytest.approx(np.sin(0.2 * np.pi), abs=1e-6)

    def test_eval_mod(self):
        d = DriftMap(base=CircleMap(2), dot=np.ones(N))
        assert d.eval(0.9, 0.3) == pytest.approx((1.8 + 0.3) % 1.0, abs=1e-12)
