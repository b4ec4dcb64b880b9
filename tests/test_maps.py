import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from seqresponse import grid, maps, transfer
from seqresponse.errors import InvalidSystem, NotConverged
from seqresponse.maps import CircleMap, KickedMap, TrigPoly, c2_distance


def outer_product_trigpoly(p, x, order):
    """Value (order 0) or derivative of p by the outer-product formula over every harmonic k = 0..K."""
    k = 2.0 * np.pi * np.arange(p.a.shape[0])
    th = np.multiply.outer(np.asarray(x, dtype=float), k)
    if order == 0:
        return np.cos(th) @ p.a + np.sin(th) @ p.b
    if order == 1:
        return -np.sin(th) @ (k * p.a) + np.cos(th) @ (k * p.b)
    return -np.cos(th) @ (k**2 * p.a) - np.sin(th) @ (k**2 * p.b)


# Coefficient vectors over k = 0..16, about half of the entries zero.
sparse_coeffs = st.lists(st.one_of(st.just(0.0), st.floats(-1.0, 1.0)), min_size=1, max_size=maps.MAX_COEFF_INDEX + 1)
# The same for sines, whose amplitude at k = 0 is 0.

# x = 0, 1/4, 1/2, 3/4 and 1, and the two doubles next to 1/2, where tan(pi x) has its pole.
TAN_POINTS = [0.0, 0.25, 0.5, 0.75, 1.0, np.nextafter(0.5, 0.0), np.nextafter(0.5, 1.0)]
# Largest |TrigPoly - outer product| over eps * sum_k (|a_k| + |b_k|) (2 pi k)^order for x in [-4, 4]:
# 368 over 9000 random polynomials (a third with one harmonic), at orders 0, 1 and 2 alike.  Both
# sides round a phase of up to 2 pi * 16 * 4 ~ 400, the tan side through angle addition.
ROTATION_BOUND = 512 * 2.0**-52


def doubling():
    return CircleMap(2)


def perturbed_doubling(amp=0.1):
    return CircleMap(2, sin_coeffs=(0.0, amp))


class TestEval:
    def test_doubling(self):
        t = doubling()
        assert t.eval(0.3) == pytest.approx(0.6, abs=1e-15)
        assert t.lift_d1(0.123)[1] == pytest.approx(2.0, abs=1e-15)
        assert t.p.d2(0.123) == pytest.approx(0.0, abs=1e-15)

    def test_wrap(self):
        assert doubling().eval(0.75) == pytest.approx(0.5, abs=1e-15)

    def test_perturbed_derivative(self):
        t = perturbed_doubling(0.1)
        assert t.lift_d1(0.0)[1] == pytest.approx(2 + 0.2 * np.pi, abs=1e-14)


class TestTrigPoly:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        a=sparse_coeffs,
        b=sparse_coeffs.map(lambda b: [0.0, *b[1:]]),
        x=st.lists(st.floats(-20.0, 20.0), min_size=1, max_size=50),
    )
    @example(a=[0.0], b=[0.0, 0.05], x=[-0.25, 0.0, 0.3, 1.75])  # the reference map's p: one sin
    def test_matches_outer_product(self, a, b, x):
        # summing only the nonzero harmonics agrees with the full outer product, also off [0, 1)
        p = TrigPoly(a, b)
        x = np.array(x)
        for order, method in enumerate((p, p.d1, p.d2)):
            ref = outer_product_trigpoly(p, x, order)
            # round-off scale: sum over k of |a_k| + |b_k| times (2 pi k)^order
            scale = 1.0 + np.sum((np.abs(p.a) + np.abs(p.b)) * (2.0 * np.pi * np.arange(p.a.shape[0])) ** order)
            assert np.max(np.abs(method(x) - ref)) <= 1e-12 * scale

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        a=sparse_coeffs,
        b=sparse_coeffs.map(lambda b: [0.0, *b[1:]]),
        x=st.lists(st.floats(-4.0, 4.0), max_size=50),
    )
    def test_rotations_match_outer_product(self, a, b, x):
        # one tan per point and angle addition against one cosine and one sine per harmonic
        p = TrigPoly(a, b)
        x = np.concatenate([x, TAN_POINTS])
        for order, method in enumerate((p, p.d1, p.d2)):
            scale = np.sum((np.abs(p.a) + np.abs(p.b)) * (2.0 * np.pi * np.arange(p.a.shape[0])) ** order)
            assert np.max(np.abs(method(x) - outer_product_trigpoly(p, x, order))) <= ROTATION_BOUND * scale
            assert np.isnan(method(np.nan))  # also where no harmonic is left
            assert np.ndim(method(np.array(0.3))) == 0
        # each order is summed alone, so asking for several at once changes no bit (NaN included)
        np.testing.assert_array_equal(p.derivatives(x, (0, 1, 2)), [p(x), p.d1(x), p.d2(x)])

    def test_scalar_in_scalar_out(self):
        p = TrigPoly([0.5, 0.0, 0.1], [0.0, 0.2])
        assert np.ndim(p(0.3)) == np.ndim(p.d1(0.3)) == np.ndim(p.d2(0.3)) == 0
        assert p(0.3) == pytest.approx(float(outer_product_trigpoly(p, 0.3, 0)), abs=1e-15)
        assert TrigPoly()(np.zeros(3)).tolist() == [0.0, 0.0, 0.0]

    @pytest.mark.parametrize("b0", [0.3, -1e-300, np.nan])
    def test_sine_at_harmonic_0_raises(self, b0):
        # sin 0 = 0, so an amplitude there would be dropped without a word
        with pytest.raises(ValueError, match="harmonic 0 has no sine term"):
            TrigPoly(sin_coeffs=(b0, 0.1))

    def test_negative_zero_sine_at_harmonic_0_is_zero(self):
        assert np.array_equal(TrigPoly(sin_coeffs=(-0.0, 0.1)).b, [0.0, 0.1])


class TestConstants:
    def test_doubling(self):
        lam0, m0, m2 = doubling().constants()
        assert lam0 == pytest.approx(2.0, abs=1e-8)
        assert m0 == 2.0
        assert m2 == 0.0

    def test_perturbed(self):
        lam0, m0, m2 = perturbed_doubling(0.1).constants()
        assert lam0 == pytest.approx(2 - 0.2 * np.pi, abs=1e-6)
        assert m0 == pytest.approx(2 + 0.2 * np.pi, abs=1e-6)
        assert m2 == pytest.approx(0.4 * np.pi**2, abs=1e-6)

    def test_tripling(self):
        lam0, m0, m2 = CircleMap(3).constants()
        assert lam0 == pytest.approx(3.0, abs=1e-8)
        assert m0 == 3.0

    def test_not_expanding(self):
        with pytest.raises(InvalidSystem, match="probed min of lift derivative is <= 1"):
            CircleMap(2, sin_coeffs=(0.0, 0.5))  # p' dips to -pi < 1 - 2

    def test_nan_derivative(self):
        # p' = -4 pi inf sin 4 pi x would be inf * 0 = NaN at x = 0: the coefficient is named before any probe
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidSystem, match="^coefficient of harmonic 2 in p overflows: it is not finite$"):
                CircleMap(2, cos_coeffs=(0.0, 0.0, np.inf))

    def test_overflowing_second_derivative(self):
        # p'' = -(2 pi 16)^2 1e305 cos 32 pi x leaves the float range, p' = 2 pi 16 1e305 sin 32 pi x does not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidSystem, match="^coefficient of harmonic 16 in p'' overflows: it is not finite$"):
                CircleMap(2, cos_coeffs=(0.0,) * 16 + (1e305,))


class TestInverseBranches:
    def test_doubling_half(self):
        b = doubling().inverse_branches(0.5)
        assert np.allclose(b, [0.25, 0.75], atol=1e-13)

    def test_doubling_zero(self):
        b = doubling().inverse_branches(0.0)
        assert np.allclose(b, [0.0, 0.5], atol=1e-13)

    def test_residual(self):
        t = perturbed_doubling(0.1)
        b = t.inverse_branches(0.3)
        assert np.max(np.abs(t.eval(b) - 0.3)) <= 1e-12

    def test_residual_random(self):
        rng = np.random.default_rng(1)
        for t in (doubling(), perturbed_doubling(0.1), CircleMap(3, cos_coeffs=(0.0, 0.05))):
            x = rng.uniform(0, 1, 1000)
            b = t.inverse_branches(x)
            res = (t.eval(b) - x[None, :]) % 1.0
            res = np.minimum(res, 1.0 - res)
            assert np.max(res) <= 1e-11

    def test_ordered_disjoint(self):
        t = perturbed_doubling(0.1)
        b = t.inverse_branches(np.linspace(0.01, 0.99, 50))
        assert np.all(np.diff(b, axis=0) > 0)

    def test_branch_weight_sum(self):
        # sum 1/l'(h_j(x)) is exactly 1 for the doubling map
        t = doubling()
        b = t.inverse_branches(np.linspace(0, 1, 33)[:-1])
        s = np.sum(1.0 / t.lift_d1(b)[1], axis=0)
        assert np.allclose(s, 1.0, atol=1e-14)
        tp = perturbed_doubling(0.1)
        lam0, _, _ = tp.constants()
        bp = tp.inverse_branches(np.linspace(0, 1, 33)[:-1])
        sp = np.sum(1.0 / tp.lift_d1(bp)[1], axis=0)
        assert np.all(sp > 0) and np.all(sp <= 2 / lam0)


def bisection_branches(t, x):
    """Inverse branches by 40 bisection steps then Newton, per branch: the reference for the solver."""
    x = maps.wrap(np.atleast_1d(np.asarray(x, dtype=float)))
    ell0 = float(t.lift_d1(0.0)[0])
    m0 = np.ceil(ell0 - x - 1e-14)
    out = np.empty((t.degree, x.shape[0]))
    for j in range(t.degree):
        target = x + m0 + j
        lo, hi = np.zeros_like(target), np.ones_like(target)
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            below = t.lift_d1(mid)[0] < target
            lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
        y = 0.5 * (lo + hi)
        for _ in range(64):
            ell, d1 = t.lift_d1(y)
            res = ell - target
            if np.max(np.abs(res)) <= maps.BRANCH_RESIDUAL_TOL:
                break
            y = np.clip(y - res / d1, 0.0, 1.0)
        out[j] = np.where(y >= 1.0, 0.0, y)
    return out


def circle_distance(a, b):
    d = np.abs(a - b) % 1.0
    return np.minimum(d, 1.0 - d)


small_coeffs = st.lists(st.floats(-0.04, 0.04), min_size=2, max_size=4)  # k <= 3
kick_coeffs = st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=4)


def no_sine_at_0(coeffs):
    """Sine amplitudes drawn like cosine ones, with the one at k = 0 set to 0."""
    return coeffs.map(lambda b: [0.0, *b[1:]])
# 1 - 2**-53 is the largest double below 1; 5e-324 is the smallest subnormal.
EDGE_POINTS = [0.0, -0.0, 1.0 - 2.0**-53, 5e-324]


@st.composite
def admissible_maps(draw):
    """Degree-2 or -3 maps with small trig parts, half of them kicked by |eps| <= 0.05."""
    try:
        t = CircleMap(draw(st.sampled_from([2, 3])), draw(small_coeffs), draw(no_sine_at_0(small_coeffs)))
    except InvalidSystem:
        assume(False)
    if draw(st.booleans()):
        kick = TrigPoly(draw(kick_coeffs), draw(no_sine_at_0(kick_coeffs)))
        eps = draw(st.floats(-0.05, 0.05))
        try:
            t = KickedMap(kick, eps, t)  # it checks eps * ||X'|| < 0.5
        except InvalidSystem:
            assume(False)
    return t


class TestSafeguardedNewton:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        t=admissible_maps(),
        n=st.sampled_from([16, 64, 257]),
        x=st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=20),
    )
    def test_branches_match_bisection(self, t, n, x):
        x = np.concatenate([np.arange(n) / n, x, EDGE_POINTS])
        b = t.inverse_branches(x)
        assert b.shape == (t.degree, x.shape[0])
        assert np.all((0.0 <= b) & (b < 1.0))
        assert np.all(np.diff(b, axis=0) > 0.0)
        assert np.max(circle_distance(grid.wrap(t.lift_d1(b)[0]), x[None, :])) <= maps.BRANCH_RESIDUAL_TOL
        lam0 = np.min(t.lift_d1(maps._PROBE)[1])
        assert np.max(circle_distance(b, bisection_branches(t, x))) <= 2 * maps.BRANCH_RESIDUAL_TOL / lam0

    @pytest.mark.parametrize("t", [perturbed_doubling(0.1), CircleMap(3, cos_coeffs=(0.0, 0.05))])
    def test_shapes(self, t):
        assert t.inverse_branches(0.3).shape == (t.degree,)
        assert t.inverse_branches(np.float64(0.3)).shape == (t.degree,)
        assert t.inverse_branches([0.3]).shape == (t.degree, 1)
        assert t.inverse_branches(np.linspace(0, 1, 7)).shape == (t.degree, 7)

    def test_nan_raises(self):
        with pytest.raises(NotConverged, match="safeguarded Newton solve of inverse branches"):
            perturbed_doubling(0.1).inverse_branches(np.nan)

    @pytest.mark.parametrize("eps, count", [(0.0, 6), (1e-2, 12)])  # the bisection solver took 88 and 95
    def test_trig_evaluations_per_assembly(self, monkeypatch, eps, count):
        # det-2048's reference map T(x) = 2x + 0.05 sin 2 pi x and kick X(x) = sin(2 pi x) / (2 pi):
        # l(0), then per Newton step l and l' jointly (and X, X' jointly when kicked), then l'
        t = CircleMap(2, sin_coeffs=(0.0, 0.05))
        if eps:
            t = KickedMap(TrigPoly(sin_coeffs=(0.0, 1 / (2 * np.pi))), eps, t)
        calls = []
        evaluate = TrigPoly.derivatives
        monkeypatch.setattr(TrigPoly, "derivatives", lambda p, x, orders: calls.append(orders) or evaluate(p, x, orders))
        transfer.build_deterministic(t, 2048)
        assert len(calls) == count


class TestC2Distance:
    def test_self(self):
        assert c2_distance(doubling(), doubling()) == 0.0

    def test_sin_perturbation(self):
        delta = 0.05
        t1 = CircleMap(2, sin_coeffs=(0.0, delta))
        expected = delta * (1 + 2 * np.pi + 4 * np.pi**2)
        assert c2_distance(doubling(), t1) == pytest.approx(expected, abs=1e-6)

    def test_symmetric(self):
        a, b = perturbed_doubling(0.02), perturbed_doubling(0.07)
        assert c2_distance(a, b) == pytest.approx(c2_distance(b, a), abs=1e-15)

    def test_degree_mismatch(self):
        with pytest.raises(InvalidSystem, match="degrees differ: 2 vs 3"):
            c2_distance(doubling(), CircleMap(3))


class TestKick:
    def test_eps_zero_is_identity(self):
        x = np.linspace(0, 1, 101)[:-1]
        k = TrigPoly(sin_coeffs=(0.0, 1.0))
        tk = KickedMap(k, 0.0, doubling())
        assert np.max(np.abs(grid.wrap(tk.lift_d1(x)[0]) - doubling().eval(x))) <= 1e-15

    def test_constant_field_is_rotation(self):
        c = 0.37
        tk = KickedMap(TrigPoly(cos_coeffs=(c,)), 0.01, doubling())
        x = np.linspace(0, 1, 64, endpoint=False)
        assert np.max(np.abs(grid.wrap(tk.lift_d1(x)[0]) - (2 * x + 0.01 * c) % 1.0)) <= 1e-14

    def test_branch_residual(self):
        k = TrigPoly(sin_coeffs=(0.0, 0.8))
        tk = KickedMap(k, 0.05, perturbed_doubling(0.05))
        x = np.random.default_rng(2).uniform(0, 1, 100)
        b = tk.inverse_branches(x)
        res = (grid.wrap(tk.lift_d1(b)[0]) - x[None, :]) % 1.0
        assert np.max(np.minimum(res, 1 - res)) <= 1e-12

    def test_too_large(self):
        k = TrigPoly(sin_coeffs=(0.0, 1.0))  # ||X'|| = 2 pi
        with pytest.raises(InvalidSystem, match=">= 0.5"):
            KickedMap(k, 0.2, doubling())

    def test_nan_derivative(self):
        # X' = -2 pi inf sin 2 pi x would be NaN at x = 0: the coefficient is named before eps * ||X'|| is probed
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidSystem, match="^coefficient of harmonic 1 in X overflows: it is not finite$"):
                KickedMap(TrigPoly(cos_coeffs=(0.0, np.inf)), 0.01, CircleMap(2))
