import numpy as np
import pytest
from hypothesis import assume, given, settings
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


class TestSimulateMarginal:
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
