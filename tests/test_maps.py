import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seqresponse import maps
from seqresponse.errors import DegreeMismatch, KickTooLarge, NotExpanding
from seqresponse.maps import CircleMap, KickField, TrigPoly, c2_distance, kick_map


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


def doubling():
    return CircleMap(2)


def perturbed_doubling(amp=0.1):
    return CircleMap(2, sin_coeffs=(0.0, amp))


class TestEval:
    def test_doubling(self):
        t = doubling()
        assert t.eval(0.3) == pytest.approx(0.6, abs=1e-15)
        assert t.eval_d1(0.123) == pytest.approx(2.0, abs=1e-15)
        assert t.eval_d2(0.123) == pytest.approx(0.0, abs=1e-15)

    def test_wrap(self):
        assert doubling().eval(0.75) == pytest.approx(0.5, abs=1e-15)

    def test_perturbed_derivative(self):
        t = perturbed_doubling(0.1)
        assert t.eval_d1(0.0) == pytest.approx(2 + 0.2 * np.pi, abs=1e-14)


class TestTrigPoly:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        a=sparse_coeffs,
        b=sparse_coeffs,
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

    def test_scalar_in_scalar_out(self):
        p = TrigPoly([0.5, 0.0, 0.1], [0.0, 0.2])
        assert np.ndim(p(0.3)) == np.ndim(p.d1(0.3)) == np.ndim(p.d2(0.3)) == 0
        assert p(0.3) == pytest.approx(float(outer_product_trigpoly(p, 0.3, 0)), abs=1e-15)
        assert TrigPoly()(np.zeros(3)).tolist() == [0.0, 0.0, 0.0]


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
        with pytest.raises(NotExpanding):
            CircleMap(2, sin_coeffs=(0.0, 0.5))  # p' dips to -pi < 1 - 2


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
        s = np.sum(1.0 / t.eval_d1(b), axis=0)
        assert np.allclose(s, 1.0, atol=1e-14)
        tp = perturbed_doubling(0.1)
        lam0, _, _ = tp.constants()
        bp = tp.inverse_branches(np.linspace(0, 1, 33)[:-1])
        sp = np.sum(1.0 / tp.eval_d1(bp), axis=0)
        assert np.all(sp > 0) and np.all(sp <= 2 / lam0)


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
        with pytest.raises(DegreeMismatch):
            c2_distance(doubling(), CircleMap(3))


class TestKick:
    def test_eps_zero_is_identity(self):
        x = np.linspace(0, 1, 101)[:-1]
        k = KickField(sin_coeffs=(0.0, 1.0))
        tk = kick_map(k, 0.0, doubling())
        assert np.max(np.abs(tk.eval(x) - doubling().eval(x))) <= 1e-15

    def test_constant_field_is_rotation(self):
        c = 0.37
        tk = kick_map(KickField(cos_coeffs=(c,)), 0.01, doubling())
        x = np.linspace(0, 1, 64, endpoint=False)
        assert np.max(np.abs(tk.eval(x) - (2 * x + 0.01 * c) % 1.0)) <= 1e-14

    def test_branch_residual(self):
        k = KickField(sin_coeffs=(0.0, 0.8))
        tk = kick_map(k, 0.05, perturbed_doubling(0.05))
        x = np.random.default_rng(2).uniform(0, 1, 100)
        b = tk.inverse_branches(x)
        res = (tk.eval(b) - x[None, :]) % 1.0
        assert np.max(np.minimum(res, 1 - res)) <= 1e-12

    def test_too_large(self):
        k = KickField(sin_coeffs=(0.0, 1.0))  # ||X'|| = 2 pi
        with pytest.raises(KickTooLarge):
            kick_map(k, 0.2, doubling())

    def test_constants_continuity(self):
        # kicked constants approach base constants linearly in eps
        k = KickField(sin_coeffs=(0.0, 0.5))
        base = np.array(doubling().constants())
        gaps = []
        for eps in (1e-2, 1e-3):
            kicked = np.array(kick_map(k, eps, doubling()).constants())
            gaps.append(np.max(np.abs(kicked - base)))
        assert gaps[1] <= 0.2 * gaps[0]


class TestRemainderSchedule:
    def test_quadratic_remainder_shifts_kick(self):
        r = lambda eps, x: eps**2 * np.sin(2 * np.pi * np.asarray(x))
        k = KickField(cos_coeffs=(1.0,), remainder=r)
        eps = 0.05
        x = np.linspace(0, 1, 50, endpoint=False)
        expected = x + eps * 1.0 + eps**2 * np.sin(2 * np.pi * x)
        assert np.max(np.abs(k.h(eps, x) - expected)) <= 1e-14
