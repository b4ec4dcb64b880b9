import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from seqresponse import grid
from seqresponse.grid import DensityGrid

# Floats |x| <= 1e17 with the edge cases of x mod 1 mixed in: signed zeros,
# tiny negatives (x mod 1 rounds to 1) and halves around 2**52.
WRAP_EDGES = [0.0, -0.0, -1e-20, -5e-324, 5e-324, 1e-300, -1e-300, 2.0**52 - 0.5, 2.0**52 + 0.5, -(2.0**52) + 0.5]
wrap_floats = st.one_of(st.sampled_from(WRAP_EDGES), st.floats(-1e17, 1e17, allow_nan=False))


def reference_stencil(n_points, x):
    """The 4-point stencil as first written: float % for x mod 1, integer % per node."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    u = (x % 1.0) * n_points
    i0 = np.floor(u).astype(np.int64)
    t = u - i0
    wm1 = -t * (t - 1.0) * (t - 2.0) / 6.0
    w0 = (t + 1.0) * (t - 1.0) * (t - 2.0) / 2.0
    w1 = -(t + 1.0) * t * (t - 2.0) / 2.0
    w2 = (t + 1.0) * t * (t - 1.0) / 6.0
    idx = np.stack([(i0 - 1) % n_points, i0 % n_points, (i0 + 1) % n_points, (i0 + 2) % n_points])
    return idx, np.stack([wm1, w0, w1, w2])


def reference_write_density_csv(path, f):
    """The density CSV writer as first written: one write per row of numpy scalars."""
    with open(path, "w") as fh:
        fh.write("x,value\n")
        n = f.n_points
        for i, v in enumerate(f.values):
            fh.write(f"{i / n:.17g},{v:.17g}\n")


def bits(a):
    return np.asarray(a, dtype=float).reshape(-1).view(np.int64)


def harmonic(k, n=256, phase=0.0):
    x = np.arange(n) / n
    return DensityGrid(np.cos(2 * np.pi * k * x + phase))


class TestMass:
    def test_constant(self):
        assert grid.mass(DensityGrid.constant(1.0, 64)) == 1.0

    def test_zero_mean_harmonic(self):
        f = DensityGrid.from_function(lambda x: np.cos(2 * np.pi * x), 64)
        assert abs(grid.mass(f)) <= 1e-14

    def test_shifted_harmonic(self):
        f = DensityGrid.from_function(lambda x: 1 + 0.5 * np.sin(2 * np.pi * x), 128)
        assert abs(grid.mass(f) - 1.0) <= 1e-14


class TestNormL1:
    def test_constant(self):
        assert grid.norm_l1(DensityGrid.constant(1.0, 64)) == 1.0

    def test_cosine(self):
        # integral of |cos(2 pi x)| over one period is 2/pi
        assert grid.norm_l1(harmonic(1)) == pytest.approx(2 / np.pi, abs=1e-4)

    def test_zero(self):
        assert grid.norm_l1(DensityGrid.constant(0.0, 64)) == 0.0


class TestDerivative:
    def test_constant_is_exactly_zero(self):
        d = grid.derivative(DensityGrid.constant(1.0, 64))
        assert np.all(d.values == 0.0)

    def test_sine(self):
        f = DensityGrid.from_function(lambda x: np.sin(2 * np.pi * x), 256)
        exact = 2 * np.pi * np.cos(2 * np.pi * np.arange(256) / 256)
        assert np.max(np.abs(grid.derivative(f).values - exact)) <= 1e-6

    def test_cos_4pi(self):
        f = DensityGrid.from_function(lambda x: np.cos(4 * np.pi * x), 256)
        exact = -4 * np.pi * np.sin(4 * np.pi * np.arange(256) / 256)
        assert np.max(np.abs(grid.derivative(f).values - exact)) <= 1e-5


class TestNormW11:
    def test_constant(self):
        assert grid.norm_w11(DensityGrid.constant(1.0, 64)) == 1.0

    def test_cosine(self):
        # |cos| integrates to 2/pi, |derivative| = 2 pi |sin| integrates to 4
        assert grid.norm_w11(harmonic(1)) == pytest.approx(2 / np.pi + 4.0, abs=1e-3)

    def test_zero(self):
        assert grid.norm_w11(DensityGrid.constant(0.0, 64)) == 0.0

    def test_l1_below_w11(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            f = DensityGrid(rng.normal(size=128))
            assert grid.norm_l1(f) <= grid.norm_w11(f) + 1e-15


class TestInterpolate:
    def test_constant(self):
        assert grid.interpolate(DensityGrid.constant(1.0, 64), 0.123) == pytest.approx(1.0, abs=1e-14)

    def test_node_values_exact(self):
        rng = np.random.default_rng(0)
        f = DensityGrid(rng.normal(size=64))
        for i in (0, 5, 63):
            assert grid.interpolate(f, i / 64) == pytest.approx(f.values[i], abs=1e-13)

    def test_sine_off_grid(self):
        f = DensityGrid.from_function(lambda x: np.sin(2 * np.pi * x), 256)
        assert grid.interpolate(f, 0.1) == pytest.approx(np.sin(0.2 * np.pi), abs=1e-6)

    def test_linear_between_nodes(self):
        n = 64
        f = DensityGrid(np.arange(n) % 2 * 0.0 + 3.0)  # constant; plus genuine linear below
        # local linear data: cubic through 4 collinear points is that line
        vals = np.zeros(n)
        vals[10:14] = 2.0 * np.arange(4) + 1.0
        g = DensityGrid(vals)
        assert grid.interpolate(g, 11.5 / n) == pytest.approx(2.0 * 1.5 + 1.0, abs=1e-12)
        assert grid.interpolate(f, 0.777) == pytest.approx(3.0, abs=1e-13)


class TestWrap:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(x=wrap_floats)
    def test_scalar_matches_float_mod(self, x):
        assert np.array_equal(bits(grid.wrap(x)), bits(x % 1.0))

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(x=arrays(float, st.integers(1, 64), elements=wrap_floats))
    @example(x=np.array(WRAP_EDGES))
    def test_array_matches_float_mod(self, x):
        assert np.array_equal(bits(grid.wrap(x)), bits(x % 1.0))

    def test_log_sweep_matches_float_mod(self):
        # 2e5 magnitudes from 1e-300 to 1e17, both signs, each nudged by +-1 ulp
        mag = np.logspace(-300, 17, 100_000)
        x = np.concatenate([mag, -mag])
        x = np.concatenate([x, np.nextafter(x, np.inf), np.nextafter(x, -np.inf)])
        assert np.array_equal(bits(grid.wrap(x)), bits(x % 1.0))


class TestInterpolationKernels:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        n=st.integers(8, 40).map(lambda h: 2 * h),
        seed=st.integers(0, 2**32 - 1),
        x=arrays(float, st.integers(1, 200), elements=st.one_of(st.floats(-50.0, 50.0), st.sampled_from(WRAP_EDGES[:4]))),
    )
    @example(n=16, seed=0, x=np.array([-1e-20, -0.0, 1.0, -1.0, 0.999999999999999, 16.5, -3.25]))
    def test_padded_gather_matches_stencil(self, n, seed, x):
        # interpolate_values and interpolation_stencil reproduce the first stencil bit for bit,
        # also for x < 0, x >= 1 and x whose N (x mod 1) rounds up to N
        values = np.random.default_rng(seed).normal(size=n)
        idx, w = reference_stencil(n, x)
        got_idx, got_w = grid.interpolation_stencil(n, x)
        assert np.array_equal(got_idx, idx)
        assert np.array_equal(bits(got_w), bits(w))
        assert np.array_equal(bits(grid.interpolate_values(values, x)), bits(np.sum(values[idx] * w, axis=0)))


class TestProjectZeroMass:
    def test_constant_to_zero(self):
        p = grid.project_zero_mass(DensityGrid.constant(1.0, 64))
        assert np.max(np.abs(p.values)) <= 1e-15

    def test_removes_mean(self):
        f = DensityGrid.from_function(lambda x: 1 + np.cos(2 * np.pi * x), 64)
        p = grid.project_zero_mass(f)
        assert np.max(np.abs(p.values - harmonic(1, 64).values)) <= 1e-14

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        f = grid.project_zero_mass(DensityGrid(rng.normal(size=64)))
        assert np.max(np.abs(grid.project_zero_mass(f).values - f.values)) <= 1e-14

    def test_mass_zero_random(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            f = DensityGrid(rng.normal(size=256) * 10)
            assert abs(grid.mass(grid.project_zero_mass(f))) <= 1e-13


class TestHighDegreeAccuracy:
    """Stencil accuracy on trigonometric polynomials of degree <= 4.

    At N = 256 the stated bounds only hold through the degrees of the
    per-operation examples; degree 4 needs a finer grid.
    """

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_derivative_n1024(self, k):
        f = DensityGrid.from_function(lambda x: np.sin(2 * np.pi * k * x), 1024)
        exact = 2 * np.pi * k * np.cos(2 * np.pi * k * np.arange(1024) / 1024)
        assert np.max(np.abs(grid.derivative(f).values - exact)) <= 1e-5

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_interpolate_n1024(self, k):
        f = DensityGrid.from_function(lambda x: np.sin(2 * np.pi * k * x), 1024)
        xq = np.random.default_rng(5).uniform(0, 1, 2000)
        assert np.max(np.abs(grid.interpolate(f, xq) - np.sin(2 * np.pi * k * xq))) <= 1e-6


class TestValidation:
    def test_rejects_odd_or_small(self):
        with pytest.raises(ValueError):
            DensityGrid(np.zeros(15))
        with pytest.raises(ValueError):
            DensityGrid(np.zeros(33))

    def test_rejects_nonfinite(self):
        v = np.zeros(64)
        v[3] = np.nan
        with pytest.raises(ValueError):
            DensityGrid(v)

    def test_immutable(self):
        f = DensityGrid.constant(1.0, 64)
        with pytest.raises(ValueError):
            f.values[0] = 2.0


class TestCsv:
    def test_roundtrip(self, tmp_path):
        f = DensityGrid.from_function(lambda x: 1 + 0.3 * np.sin(2 * np.pi * x), 64)
        path = tmp_path / "density.csv"
        grid.write_density_csv(path, f)
        g = grid.read_density_csv(path)
        assert np.max(np.abs(g.values - f.values)) <= 1e-15

    @pytest.mark.parametrize("n", [16, 256])
    def test_bytes_match_row_writer(self, tmp_path, n):
        # joined Python-float rows give the bytes of the per-row numpy-scalar writer
        rng = np.random.default_rng(n)
        v = rng.normal(size=n) * 10.0 ** rng.integers(-300, 300, size=n)
        v[:8] = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300, 1 / 3]
        f = DensityGrid(v)
        grid.write_density_csv(tmp_path / "new.csv", f)
        reference_write_density_csv(tmp_path / "old.csv", f)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    def test_rejects_nonuniform(self, tmp_path):
        path = tmp_path / "bad.csv"
        with open(path, "w") as fh:
            fh.write("x,value\n")
            for i in range(64):
                fh.write(f"{i / 64 + (1e-6 if i == 3 else 0)},{1.0}\n")
        with pytest.raises(ValueError):
            grid.read_density_csv(path)
