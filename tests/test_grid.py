import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from seqresponse import grid

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


def reference_stencil6(n_points, x):
    """The 6-point stencil as first written: each weight a product over the other nodes, from a ones array."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    u = (x % 1.0) * n_points
    i0 = np.floor(u).astype(np.int64)
    t = u - i0
    offsets = np.array([-2, -1, 0, 1, 2, 3])
    w = np.empty((6, t.shape[0]))
    for row, s in enumerate(offsets):
        num = np.ones_like(t)
        den = 1.0
        for r in offsets:
            if r != s:
                num *= t - r
                den *= s - r
        w[row] = num / den
    return np.stack([(i0 + s) % n_points for s in offsets]), w


def reference_write_density_csv(path, values):
    """The density CSV writer as first written: one write per row of numpy scalars."""
    with open(path, "w") as fh:
        fh.write("x,value\n")
        n = values.shape[0]
        for i, v in enumerate(values):
            fh.write(f"{i / n:.17g},{v:.17g}\n")


def bits(a):
    return np.asarray(a, dtype=float).reshape(-1).view(np.int64)


def samples(func, n):
    """func sampled at the nodes i/n."""
    return func(np.arange(n) / n)


def harmonic(k, n=256):
    return samples(lambda x: np.cos(2 * np.pi * k * x), n)


class TestMass:
    def test_constant(self):
        assert grid.mass(np.ones(64)) == 1.0

    def test_zero_mean_harmonic(self):
        assert abs(grid.mass(harmonic(1, 64))) <= 1e-14

    def test_shifted_harmonic(self):
        assert abs(grid.mass(samples(lambda x: 1 + 0.5 * np.sin(2 * np.pi * x), 128)) - 1.0) <= 1e-14


class TestNormL1:
    def test_constant(self):
        assert grid.norm_l1(np.ones(64)) == 1.0

    def test_cosine(self):
        # integral of |cos(2 pi x)| over one period is 2/pi
        assert grid.norm_l1(harmonic(1)) == pytest.approx(2 / np.pi, abs=1e-4)

    def test_zero(self):
        assert grid.norm_l1(np.zeros(64)) == 0.0


class TestDerivative:
    def test_constant_is_exactly_zero(self):
        assert np.all(grid.derivative(np.ones(64)) == 0.0)

    def test_sine(self):
        exact = 2 * np.pi * harmonic(1)
        assert np.max(np.abs(grid.derivative(samples(lambda x: np.sin(2 * np.pi * x), 256)) - exact)) <= 1e-6

    def test_cos_4pi(self):
        exact = -4 * np.pi * samples(lambda x: np.sin(4 * np.pi * x), 256)
        assert np.max(np.abs(grid.derivative(harmonic(2)) - exact)) <= 1e-5

    @pytest.mark.parametrize("n", [16, 256, 1024, 2048])
    def test_bits_match_roll_formula(self, n):
        v = np.random.default_rng(n).normal(size=n) * 10.0 ** np.random.default_rng(n + 1).integers(-5, 5, size=n)
        ref = n * (-np.roll(v, -2) + 8.0 * np.roll(v, -1) - 8.0 * np.roll(v, 1) + np.roll(v, 2)) / 12.0
        assert np.array_equal(grid.derivative(v).view(np.int64), ref.view(np.int64))


class TestNormW11:
    def test_constant(self):
        assert grid.norm_w11(np.ones(64)) == 1.0

    def test_cosine(self):
        # |cos| integrates to 2/pi, |derivative| = 2 pi |sin| integrates to 4
        assert grid.norm_w11(harmonic(1)) == pytest.approx(2 / np.pi + 4.0, abs=1e-3)

    def test_zero(self):
        assert grid.norm_w11(np.zeros(64)) == 0.0

    def test_l1_below_w11(self):
        v = np.random.default_rng(7).normal(size=(20, 128))
        assert np.all(grid.norm_l1(v) <= grid.norm_w11(v) + 1e-15)


# Finite floats with the edge cases of the grid formulas mixed in: signed zeros,
# subnormals and the smallest normal.  |x| <= 1e300 keeps every sum finite.
FORMULA_EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.0**-1074 * 3, -(2.0**-1030), 2.2250738585072014e-308, 1e300, -1e300]
formula_floats = st.one_of(st.sampled_from(FORMULA_EDGES), st.floats(-1e300, 1e300, allow_nan=False))


def _wide_block():
    """A dense (12, 512) block of magnitudes from the subnormal range to 1e300, both signs."""
    rng = np.random.default_rng(2026)
    v = rng.normal(size=(12, 512)) * 10.0 ** rng.integers(-330, 299, size=(12, 512))
    v[:, :len(FORMULA_EDGES)] = FORMULA_EDGES
    return v


class TestOneFormulaPerBlock:
    """mass, norm_l1, norm_w11 and derivative of an (m, N) block give each row the bits it gets alone."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        block=st.tuples(st.integers(1, 12), st.integers(8, 256).map(lambda h: 2 * h)).flatmap(
            lambda shape: arrays(float, shape, elements=formula_floats)
        )
    )
    @example(block=_wide_block())
    @example(block=np.zeros((1, 16)))
    def test_rows_match_single_densities(self, block):
        for formula in (grid.mass, grid.norm_l1, grid.norm_w11, grid.derivative):
            together = formula(block)
            assert together.shape == block.shape[: together.ndim]
            for i, row in enumerate(block):
                assert np.array_equal(bits(together[i]), bits(formula(row.copy())))


class TestInterpolate:
    def test_constant(self):
        assert grid.interpolate_values(np.ones(64), 0.123)[0] == pytest.approx(1.0, abs=1e-14)

    def test_node_values_exact(self):
        rng = np.random.default_rng(0)
        f = rng.normal(size=64)
        for i in (0, 5, 63):
            assert grid.interpolate_values(f, i / 64)[0] == pytest.approx(f[i], abs=1e-13)

    def test_sine_off_grid(self):
        v = samples(lambda x: np.sin(2 * np.pi * x), 256)
        assert grid.interpolate_values(v, 0.1)[0] == pytest.approx(np.sin(0.2 * np.pi), abs=1e-6)

    def test_linear_between_nodes(self):
        n = 64
        f = np.arange(n) % 2 * 0.0 + 3.0  # constant; plus genuine linear below
        # local linear data: cubic through 4 collinear points is that line
        vals = np.zeros(n)
        vals[10:14] = 2.0 * np.arange(4) + 1.0
        assert grid.interpolate_values(vals, 11.5 / n)[0] == pytest.approx(2.0 * 1.5 + 1.0, abs=1e-12)
        assert grid.interpolate_values(f, 0.777)[0] == pytest.approx(3.0, abs=1e-13)


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


# Query points for the stencils, with x < 0, x >= 1 and x whose N (x mod 1) rounds up to N.
stencil_points = arrays(float, st.integers(1, 200), elements=st.one_of(st.floats(-50.0, 50.0), st.sampled_from(WRAP_EDGES[:4])))
STENCIL_EDGES = np.array([-1e-20, -0.0, 1.0, -1.0, 0.999999999999999, 16.5, -3.25])
even_points = st.integers(8, 40).map(lambda h: 2 * h)


class TestInterpolationKernels:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(n=even_points, seed=st.integers(0, 2**32 - 1), x=stencil_points)
    @example(n=16, seed=0, x=STENCIL_EDGES)
    def test_padded_gather_matches_stencil(self, n, seed, x):
        # interpolate_values and interpolation_stencil reproduce the first stencil bit for bit,
        # also for x < 0, x >= 1 and x whose N (x mod 1) rounds up to N
        values = np.random.default_rng(seed).normal(size=n)
        idx, w = reference_stencil(n, x)
        got_idx, got_w = grid.interpolation_stencil(n, x, grid.CUBIC_OFFSETS)
        assert np.array_equal(got_idx, idx)
        assert np.array_equal(bits(got_w), bits(w))
        assert np.array_equal(bits(grid.interpolate_values(values, x)), bits(np.sum(values[idx] * w, axis=0)))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(n=even_points, x=stencil_points)
    @example(n=16, x=STENCIL_EDGES)
    def test_stencil6_matches_nested_loop(self, n, x):
        # the 6-point weights from the shared Lagrange rule have the bits of the nested product loop
        idx, w = reference_stencil6(n, x)
        got_idx, got_w = grid.interpolation_stencil6(n, x)
        assert np.array_equal(got_idx, idx)
        assert np.array_equal(bits(got_w), bits(w))


class TestProjectZeroMass:
    def test_constant_to_zero(self):
        p = grid.project_zero_mass(np.ones(64))
        assert np.max(np.abs(p)) <= 1e-15

    def test_removes_mean(self):
        p = grid.project_zero_mass(1 + harmonic(1, 64))
        assert np.max(np.abs(p - harmonic(1, 64))) <= 1e-14

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        f = grid.project_zero_mass(rng.normal(size=64))
        assert np.max(np.abs(grid.project_zero_mass(f) - f)) <= 1e-14

    def test_mass_zero_random(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            f = rng.normal(size=256) * 10
            assert abs(grid.mass(grid.project_zero_mass(f))) <= 1e-13


class TestHighDegreeAccuracy:
    """Stencil accuracy on trigonometric polynomials of degree <= 4.

    At N = 256 the stated bounds only hold through the degrees of the
    per-operation examples; degree 4 needs a finer grid.
    """

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_derivative_n1024(self, k):
        v = samples(lambda x: np.sin(2 * np.pi * k * x), 1024)
        assert np.max(np.abs(grid.derivative(v) - 2 * np.pi * k * harmonic(k, 1024))) <= 1e-5

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_interpolate_n1024(self, k):
        v = samples(lambda x: np.sin(2 * np.pi * k * x), 1024)
        xq = np.random.default_rng(5).uniform(0, 1, 2000)
        assert np.max(np.abs(grid.interpolate_values(v, xq) - np.sin(2 * np.pi * k * xq))) <= 1e-6


class TestValidation:
    def test_rejects_odd_or_small(self):
        with pytest.raises(ValueError):
            grid.checked_density(np.zeros(15))
        with pytest.raises(ValueError):
            grid.checked_density(np.zeros(33))

    def test_rejects_nonfinite(self):
        v = np.zeros(64)
        v[3] = np.nan
        with pytest.raises(ValueError):
            grid.checked_density(v)

    def test_immutable(self):
        f = grid.checked_density(np.ones(64))
        with pytest.raises(ValueError):
            f[0] = 2.0

    def test_copies_input(self):
        v = np.ones(64)
        f = grid.checked_density(v)
        v[0] = 2.0  # the caller's array stays writeable, and writing it leaves f alone
        assert np.array_equal(f, np.ones(64))
        assert not f.flags.writeable


class TestCsv:
    def test_roundtrip(self, tmp_path):
        v = samples(lambda x: 1 + 0.3 * np.sin(2 * np.pi * x), 64)
        path = tmp_path / "density.csv"
        grid.write_density_csv(path, v)
        g = grid.read_density_csv(path, 64)
        assert np.max(np.abs(g - v)) <= 1e-15
        assert not g.flags.writeable

    def test_rejects_other_point_count(self, tmp_path):
        path = tmp_path / "density.csv"
        grid.write_density_csv(path, np.ones(64))
        with pytest.raises(ValueError, match="has 64 points, expected 256"):
            grid.read_density_csv(path, 256)

    @pytest.mark.parametrize("n", [16, 256])
    def test_bytes_match_row_writer(self, tmp_path, n):
        # joined Python-float rows give the bytes of the per-row numpy-scalar writer
        rng = np.random.default_rng(n)
        v = rng.normal(size=n) * 10.0 ** rng.integers(-300, 300, size=n)
        v[:8] = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300, 1 / 3]
        for f in (v, v[::-1]):  # the second write reuses the cached template
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
            grid.read_density_csv(path, 64)

    def test_rejects_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        for text in ("", "\n"):
            path.write_text(text)
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # the ValueError is the only report
                with pytest.raises(ValueError, match="is empty"):
                    grid.read_density_csv(path, 64)

    def test_rejects_nan_x(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,value\n" + "".join(f"{'nan' if i == 3 else i / 64},1.0\n" for i in range(64)))
        with pytest.raises(ValueError, match="uniform grid"):
            grid.read_density_csv(path, 64)

    def test_rejects_nan_value(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,value\n" + "".join(f"{i / 64},{'nan' if i == 3 else 1.0}\n" for i in range(64)))
        with pytest.raises(ValueError, match="finite"):
            grid.read_density_csv(path, 64)
