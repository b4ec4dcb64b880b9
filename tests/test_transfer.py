import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from test_noise import expanding_drift, noisy_systems

from seqresponse import grid, noise, transfer
from seqresponse.errors import InvalidSystem
from seqresponse.maps import CircleMap, KickedMap, TrigPoly

N = 256
X = np.arange(N) / N


@pytest.fixture(scope="module")
def doubling_matrix():
    return transfer.build_deterministic(CircleMap(2), N)


def random_density(rng, n=N, smooth=True):
    if smooth:
        v = np.ones(n)
        x = np.arange(n) / n
        for k in range(1, 9):
            v += 0.1 * rng.normal() * np.cos(2 * np.pi * k * x) + 0.1 * rng.normal() * np.sin(2 * np.pi * k * x)
        return v
    return rng.normal(size=n)


def _trig_coeffs(bound, sine=False):
    """Cosine (or sine) coefficients for harmonics k = 0..3, each within +-bound; a sine's at k = 0 is 0."""
    coeffs = st.lists(st.floats(-bound, bound), min_size=4, max_size=4)
    return coeffs.map(lambda b: [0.0, *b[1:]]) if sine else coeffs


@st.composite
def kicked_systems(draw):
    """Admissible (T, X, eps): T expanding of degree 2-3, eps * ||X'|| < 0.5."""
    try:
        t = CircleMap(draw(st.integers(2, 3)), draw(_trig_coeffs(0.04)), draw(_trig_coeffs(0.04, sine=True)))
    except InvalidSystem:
        assume(False)
    kick = TrigPoly(cos_coeffs=tuple(draw(_trig_coeffs(0.2))), sin_coeffs=tuple(draw(_trig_coeffs(0.2, sine=True))))
    eps = draw(st.floats(-0.05, 0.05))
    try:
        KickedMap(kick, eps, t)  # it checks eps * ||X'|| < 0.5
    except InvalidSystem:
        assume(False)
    return t, kick, eps


class TestDeterministic:
    def test_lebesgue_invariant(self, doubling_matrix):
        out = transfer.apply(doubling_matrix, grid.DensityGrid(np.ones(N)))
        assert np.max(np.abs(out.values - 1.0)) <= 1e-12

    def test_harmonic_annihilation(self, doubling_matrix):
        out = transfer.push(doubling_matrix, 1 + np.cos(2 * np.pi * X))
        assert grid.norm_l1(out - 1.0) <= 1e-8

    def test_frequency_halving(self, doubling_matrix):
        out = transfer.push(doubling_matrix, 1 + np.cos(4 * np.pi * X))
        assert grid.norm_l1(out - (1 + np.cos(2 * np.pi * X))) <= 1e-8

    def test_mass_preservation_random(self, doubling_matrix):
        rng = np.random.default_rng(0)
        for _ in range(100):
            f = random_density(rng, smooth=False)
            out = transfer.push(doubling_matrix, f)
            assert abs(grid.mass(out) - grid.mass(f)) <= 1e-9 * max(grid.norm_l1(f), 1.0)

    def test_positivity(self, doubling_matrix):
        rng = np.random.default_rng(1)
        for _ in range(20):
            f = np.abs(random_density(rng))
            assert np.min(transfer.push(doubling_matrix, f)) >= -1e-6

    def test_weak_nonexpansion(self, doubling_matrix):
        rng = np.random.default_rng(2)
        for _ in range(50):
            f = random_density(rng)
            assert grid.norm_l1(transfer.push(doubling_matrix, f)) <= grid.norm_l1(f) + 1e-6

    def test_lasota_yorke(self, doubling_matrix):
        # doubling map: ||Lf||_W11 <= 0.5 ||f||_W11 + 10 ||f||_L1
        rng = np.random.default_rng(3)
        for _ in range(100):
            f = random_density(rng)
            lhs = grid.norm_w11(transfer.push(doubling_matrix, f))
            assert lhs <= 0.5 * grid.norm_w11(f) + 10.0 * grid.norm_l1(f)


class TestKickOperator:
    def test_eps_zero_identity(self):
        lk = transfer.build_kick(TrigPoly(sin_coeffs=(0.0, 1.0)), 0.0, N)
        rng = np.random.default_rng(4)
        f = random_density(rng)
        assert grid.norm_l1(transfer.push(lk, f) - f) <= 1e-12

    def test_constant_field_rotation(self):
        c, eps = 1.0, 0.013
        lk = transfer.build_kick(TrigPoly(cos_coeffs=(c,)), eps, N)
        expected = np.sin(2 * np.pi * (X - eps * c))
        assert np.max(np.abs(transfer.push(lk, np.sin(2 * np.pi * X)) - expected)) <= 1e-7

    def test_mass_preserved(self):
        lk = transfer.build_kick(TrigPoly(sin_coeffs=(0.0, 0.7)), 0.05, N)
        rng = np.random.default_rng(5)
        for _ in range(30):
            f = random_density(rng, smooth=False)
            assert abs(grid.mass(transfer.push(lk, f)) - grid.mass(f)) <= 1e-10

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(system=kicked_systems(), seed=st.integers(0, 2**32 - 1))
    @example(system=(CircleMap(2), TrigPoly(sin_coeffs=(0.0, 0.4)), 0.03), seed=6)
    def test_composition_order(self, system, seed):
        # L_{h o T} assembled in one pass equals L_h L_T on smooth densities
        t, kick, eps = system
        one_pass = transfer.build_deterministic(KickedMap(kick, eps, t), N)
        factored = transfer.compose_matrices(transfer.build_kick(kick, eps, N), transfer.build_deterministic(t, N))
        assert np.max(np.abs(one_pass.to_dense().sum(axis=0) - 1.0)) <= 1e-12
        rng = np.random.default_rng(seed)
        for _ in range(5):
            f = random_density(rng)
            d = transfer.push(one_pass, f) - transfer.push(factored, f)
            assert grid.norm_l1(d) <= 1e-6


class TestMatrixFree:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(system=kicked_systems(), seed=st.integers(0, 2**32 - 1))
    def test_apply_matches_dense(self, system, seed):
        # A f = K(S f) + (c . f) 1 equals the dense matrix, keeps mass and the zero-mass subspace
        t, kick, eps = system
        a = transfer.build_deterministic(KickedMap(kick, eps, t), N)
        dense = a.to_dense()
        rng = np.random.default_rng(seed)
        for _ in range(3):
            f = random_density(rng, smooth=False)
            out = transfer.push(a, f)
            assert np.max(np.abs(out - dense @ f)) <= 1e-12 * np.max(np.abs(f))
            assert abs(grid.mass(out) - grid.mass(f)) <= 1e-12 * grid.norm_l1(f)
            assert abs(grid.mass(transfer.push(a, f - grid.mass(f)))) <= 1e-12 * grid.norm_l1(f)


@st.composite
def operators(draw):
    """An admissible operator of each kind.

    A gather (a map of degree 2-3, kicked or not), a dense gather with
    k = N (a kick composed densely with a map) or a gather with a kernel
    (a bump-noise kernel).
    """
    layout = draw(st.sampled_from(["gather", "dense", "kernel"]))
    if layout == "dense":
        t, kick, eps = draw(kicked_systems())
        return transfer.compose_matrices(transfer.build_kick(kick, eps, N), transfer.build_deterministic(t, N))
    if layout == "gather":
        t, kick, eps = draw(kicked_systems())
        return transfer.build_deterministic(KickedMap(kick, eps, t) if eps != 0.0 and draw(st.booleans()) else t, N)
    drift, q, _ = draw(noisy_systems())
    eps = draw(st.floats(-0.05, 0.05))
    expanding_drift(drift, eps)
    return noise.build_kernel(drift, eps, q, N)


class TestPush:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(a=operators(), m=st.sampled_from([1, 2, 7]), seed=st.integers(0, 2**32 - 1))
    def test_rows_match_apply_and_dense(self, a, m, seed):
        # each row of a block push is that density pushed alone, the dense matvec, and keeps its mass
        rng = np.random.default_rng(seed)
        v = rng.normal(size=(m, N))
        v[1::2] -= v[1::2].mean(axis=1, keepdims=True)  # odd rows have zero mass
        out = transfer.push(a, v)
        assert out.shape == (m, N)
        dense = a.to_dense()
        for r in range(m):
            alone = transfer.apply(a, grid.DensityGrid(v[r])).values
            assert np.array_equal(out[r], transfer.push(a, v[r]))
            assert np.sum(np.abs(out[r] - alone)) <= 1e-13 * np.sum(np.abs(alone))
            ref = dense @ v[r]
            assert np.sum(np.abs(out[r] - ref)) <= 1e-13 * np.sum(np.abs(ref))
            scale = np.sum(np.abs(v[r]))
            assert abs(np.sum(out[r]) - np.sum(v[r])) <= 1e-12 * scale
            if r % 2:
                assert abs(np.sum(out[r])) <= 1e-12 * scale

    def test_wide_block_runs_in_slices(self, doubling_matrix):
        # more rows than one gather holds: the slices give the rows' own bits
        m = transfer.GATHER_BUDGET // doubling_matrix.cols.size * 2 + 3
        v = np.random.default_rng(11).normal(size=(m, N))
        out = transfer.push(doubling_matrix, v)
        assert all(np.array_equal(out[r], transfer.push(doubling_matrix, v[r])) for r in range(m))

    @pytest.mark.parametrize("kind", ["gather", "kernel"])
    @pytest.mark.parametrize("m", [3, 40])
    @pytest.mark.parametrize("layout", ["fortran", "transposed", "strided"])
    def test_rows_match_for_any_layout(self, doubling_matrix, kind, m, layout):
        # a block that is not C-ordered still gives each row the bits of its own push
        q = noise.NoiseDensity.bump(0.5, 0.08, 0.3, N)
        a = doubling_matrix if kind == "gather" else noise.build_kernel(noise.DriftMap(base=CircleMap(2)), 0.0, q, N)
        rng = np.random.default_rng(m)
        if layout == "fortran":
            v = np.asfortranarray(rng.normal(size=(m, N)))
        elif layout == "transposed":
            v = rng.normal(size=(N, m)).T
        else:
            v = rng.normal(size=(2 * m, 2 * N))[::2, ::2]
        assert v.shape == (m, N) and not v.flags.c_contiguous
        out = transfer.push(a, v)
        assert all(np.array_equal(out[r], transfer.push(a, np.array(v[r]))) for r in range(m))

    @pytest.mark.parametrize("shape", [(N + 2,), (3, N // 2), (2, 2, N)])
    def test_shape_mismatch(self, doubling_matrix, shape):
        with pytest.raises(InvalidSystem, match="densities have shape"):
            transfer.push(doubling_matrix, np.ones(shape))

    def test_arrays_are_read_only_copies(self, doubling_matrix):
        q = noise.NoiseDensity.uniform(N)
        kernel = noise.build_kernel(noise.DriftMap(base=CircleMap(2)), 0.0, q, N)
        for a in (doubling_matrix, kernel):
            for name in ("cols", "entries", "spectrum"):
                array = getattr(a, name)
                assert array is None or not array.flags.writeable, name
        cols, entries = np.zeros((1, N), dtype=np.int64), np.ones((1, N))
        a = transfer.TransferMatrix(cols, entries)
        entries[0, 0] = 2.0
        assert a.entries[0, 0] == 1.0

    def test_deterministic_stencil_is_a_gather(self, doubling_matrix):
        assert doubling_matrix.spectrum is None
        assert doubling_matrix.cols.shape == doubling_matrix.entries.shape == (12, N)

    def test_every_stencil_is_k_by_n(self, doubling_matrix):
        # a noise kernel is the drift's (6d, N) gather with a spectrum, a dense product a gather with k = N
        q = noise.NoiseDensity.bump(0.5, 0.08, 0.3, N)
        kernel = noise.build_kernel(noise.DriftMap(base=CircleMap(2)), 0.0, q, N)
        assert kernel.cols.shape == kernel.entries.shape == (12, N)
        assert np.array_equal(kernel.cols, doubling_matrix.cols) and np.array_equal(kernel.entries, doubling_matrix.entries)
        assert np.array_equal(kernel.spectrum, np.fft.rfft(q.density / N))
        product = transfer.compose_matrices(doubling_matrix, doubling_matrix)
        assert product.cols.shape == product.entries.shape == (N, N)
        assert np.array_equal(product.cols, np.broadcast_to(np.arange(N)[:, None], (N, N)))

    @pytest.mark.parametrize("index", [-1, N], ids=["below", "above"])
    def test_rejects_index_outside_grid(self, index):
        cols = np.zeros((2, N), dtype=np.int64)
        cols[1, 7] = index
        with pytest.raises(ValueError, match="outside the 256-point grid"):
            transfer.TransferMatrix(cols, np.ones((2, N)))

    @pytest.mark.parametrize("shape", [(N,), (1, N // 2), (1, 2, N)])
    def test_rejects_stencil_of_other_shape(self, shape):
        # indices that are not (k, N) or not the entries' shape, here N / 2 columns against N
        with pytest.raises(ValueError, match="shape"):
            transfer.TransferMatrix(np.zeros(shape, dtype=np.int64), np.ones(shape[:-1] + (N,)))

    @pytest.mark.parametrize("shape", [(N + 1,), (N // 2,), (N - 1,), (2, N)])
    def test_rejects_kernel_of_other_shape(self, shape):
        # an (N + 1,) kernel has the N / 2 + 1 rfft bins of an (N,) one, so only its shape tells it apart
        with pytest.raises(ValueError, match=rf"kernel of shape .* must have shape \({N},\)"):
            transfer.TransferMatrix(np.zeros((1, N), dtype=np.int64), np.ones((1, N)), np.ones(shape) / N)


class TestDOperator:
    def test_constant_everything(self):
        g = transfer.d_operator(TrigPoly(cos_coeffs=(0.5,)), np.ones(N))
        assert np.max(np.abs(g)) == 0.0

    def test_du_is_minus_xprime_on_uniform(self):
        g = transfer.d_operator(TrigPoly(sin_coeffs=(0.0, 1.0)), np.ones(N))
        expected = -2 * np.pi * np.cos(2 * np.pi * X)
        assert np.max(np.abs(g - expected)) <= 1e-5

    def test_zero_mass(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            u = random_density(rng)
            kick = TrigPoly(cos_coeffs=rng.normal(size=4) * 0.1, sin_coeffs=np.r_[0.0, rng.normal(size=4)[1:] * 0.1])
            assert abs(grid.mass(transfer.d_operator(kick, u))) <= 1e-12


class TestApply:
    def test_identity_kind(self):
        ident = transfer.TransferMatrix(np.arange(N)[None], np.ones((1, N)))
        f = grid.DensityGrid(random_density(np.random.default_rng(8)))
        assert np.all(transfer.apply(ident, f).values == f.values)

    def test_zero(self, doubling_matrix):
        out = transfer.apply(doubling_matrix, grid.DensityGrid(np.zeros(N)))
        assert np.max(np.abs(out.values)) == 0.0

    def test_linearity(self, doubling_matrix):
        rng = np.random.default_rng(9)
        f, g = random_density(rng), random_density(rng)
        lhs = transfer.apply(doubling_matrix, grid.DensityGrid(f + g)).values
        rhs = transfer.apply(doubling_matrix, grid.DensityGrid(f)).values + transfer.apply(doubling_matrix, grid.DensityGrid(g)).values
        assert np.max(np.abs(lhs - rhs)) <= 1e-12

    def test_dimension_mismatch(self, doubling_matrix):
        with pytest.raises(InvalidSystem, match="matrix is 256, grid is 128"):
            transfer.apply(doubling_matrix, grid.DensityGrid(np.ones(128)))
