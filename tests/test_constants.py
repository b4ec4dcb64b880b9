import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_maps import admissible_maps

from seqresponse import constants, grid, transfer
from seqresponse.errors import InvalidSystem, NotConverged
from seqresponse.maps import CircleMap
from seqresponse.noise import NoiseDensity

N = 256
X = np.arange(N) / N


def smooth_w11_family(rng, count=50, n=N):
    out = []
    x = np.arange(n) / n
    for _ in range(count):
        v = np.zeros(n)
        for k in range(1, 7):
            v += rng.normal() * np.cos(2 * np.pi * k * x) + rng.normal() * np.sin(2 * np.pi * k * x)
        out.append(v)
    return out


class TestLasotaYorke:
    def test_doubling_half(self):
        lam1, b = constants.lasota_yorke_constants(2.0, 0.0, 0.5)
        assert lam1 == pytest.approx(2 / 3, abs=1e-15)
        assert b == pytest.approx(2 / 9, abs=1e-15)

    def test_shrinks_with_delta(self):
        lam1_a, b_a = constants.lasota_yorke_constants(2.0, 0.1, 0.1)
        lam1_b, b_b = constants.lasota_yorke_constants(2.0, 0.1, 0.3)
        assert lam1_a < lam1_b and b_a < b_b

    def test_empirical_one_step(self):
        # ||L f||_W11 <= lam1 ||f||_W11 + B-style affine bound on the
        # doubling matrix with a generous slack constant
        lam1, _ = constants.lasota_yorke_constants(2.0, 0.0, 0.0)
        mat = transfer.build_deterministic(CircleMap(2), N)
        rng = np.random.default_rng(0)
        for f in smooth_w11_family(rng, 30):
            lhs = grid.norm_w11(transfer.push(mat, f))
            assert lhs <= lam1 * grid.norm_w11(f) + 5.0 * grid.norm_l1(f)


class TestCT0:
    def test_doubling_value(self):
        assert constants.c_t0(2.0, 2.0, 0.0, 2) == 6.0

    def test_rejects_bad_lambda(self):
        with pytest.raises(ValueError):
            constants.c_t0(1.0, 2.0, 0.0, 2)

    def test_mixed_norm_bound(self):
        # ||(L0 - L1) f||_L1 <= C(T0) delta ||f||_W11
        delta = 0.01
        amp = delta / (1 + 2 * np.pi + 4 * np.pi**2)
        t0 = CircleMap(2)
        t1 = CircleMap(2, sin_coeffs=(0.0, amp))
        ct0 = constants.c_t0(*t0.constants(), t0.degree)
        l0 = transfer.build_deterministic(t0, N)
        l1 = transfer.build_deterministic(t1, N)
        rng = np.random.default_rng(1)
        for f in smooth_w11_family(rng, 50):
            gap = grid.norm_l1(transfer.push(l0, f) - transfer.push(l1, f))
            assert gap <= ct0 * delta * grid.norm_w11(f)


def steps(n_points):
    """The zero-mass steps s_j = 1_[0, j/N) - j/N, j = 1 .. N-1, one per row."""
    j = np.arange(1, n_points)[:, None]
    return (np.arange(n_points) < j) - j / n_points


def tv(v):
    """Circular total variation of each row."""
    return np.abs(np.roll(v, -1, axis=-1) - v).sum(axis=-1)


def dense_profile(dense, depth):
    """max_j ||P^m s_j||_L1 for m = 1 .. depth, P a dense matrix: the reference for step_profile."""
    n = dense.shape[0]
    pushed = steps(n).T  # one step per column
    q = []
    for _ in range(depth):
        pushed = dense @ pushed
        q.append(np.abs(pushed).sum(axis=0).max() / n)
    return np.array(q)


def profile_of(t0, n_points=N):
    """q(m) for choose_M: the step profile of L_{t0} to depth m, its last entry."""
    l0 = transfer.build_deterministic(t0, n_points)
    return lambda m: constants.step_profile(l0, m)[-1]


class TestChooseM:
    def test_doubling_half_delta(self):
        lam1, b = constants.lasota_yorke_constants(2.0, 0.0, 0.5)
        # (2/3)^M <= 1 / (10 (B/(1-lam1) + 1)) = 0.06 forces M = 7,
        # and the doubling matrix passes the weak check there
        assert constants.choose_M(lam1, b, profile_of(CircleMap(2))) == 7

    def test_closed_form_is_lower_bound(self):
        lam1, b = constants.lasota_yorke_constants(2.0, 0.0, 0.5)
        target = 1.0 / (10.0 * (b / (1.0 - lam1) + 1.0))
        m = constants.choose_M(lam1, b, profile_of(CircleMap(2)))
        assert lam1**m <= target < lam1 ** (m - 1)
        assert constants.choose_M(lam1, b) == m  # without q, the closed form alone

    def test_rejects_noncontracting(self):
        with pytest.raises(NotConverged, match="lambda1 = 1.0 admits no finite M"):
            constants.choose_M(1.0, 0.1, profile_of(CircleMap(2)))


def per_call_choose_M(t0, lambda1, b, n_points):
    """Reference: the search for L0 = L_{t0} with the dense q(L0^m) = max_j ||L0^m s_j||_L1, pushed from m = 1 per call."""
    if not 0.0 < lambda1 < 1.0:
        raise NotConverged(f"lambda1 = {lambda1} admits no finite M")
    target = 1.0 / (10.0 * (b / (1.0 - lambda1) + 1.0))
    m_closed = max(1, int(np.ceil(np.log(target) / np.log(lambda1))))
    if m_closed > constants.M_SEARCH_LIMIT:
        raise NotConverged("closed-form threshold too large")
    l0 = transfer.build_deterministic(t0, n_points).to_dense()
    threshold = (1.0 - lambda1) / (10.0 * b) if b > 0 else np.inf
    pushed = steps(n_points).T  # one step per column
    for m in range(1, constants.M_SEARCH_LIMIT + 1):
        pushed = l0 @ pushed
        if m >= m_closed and np.abs(pushed).sum(axis=0).max() / n_points <= threshold:
            return m
    raise NotConverged("no M passes")


class TestProbePushes:
    """The step-profile pushes of L0 that every bisection probe of `certify` shares."""

    @pytest.mark.parametrize(
        "t0",
        [
            CircleMap(2),
            CircleMap(2, sin_coeffs=(0.0, 0.05)),
            CircleMap(3, cos_coeffs=(0.0, 0.02), sin_coeffs=(0.0, 0.03, 0.01)),
        ],
        ids=["doubling", "sine-2", "mixed-3"],
    )
    def test_certificate_matches_per_call_search(self, monkeypatch, t0):
        shared = constants.certify(t0, N).report()
        monkeypatch.setattr(constants, "choose_M", lambda lam1, b, q=None: per_call_choose_M(t0, lam1, b, N))
        assert shared == constants.certify(t0, N).report()

    def test_shared_pushes_match_per_call_search(self):
        # b large against 1 - lambda1: the weak check, not the closed form, sets M
        t0 = CircleMap(2, sin_coeffs=(0.0, 0.05))
        q = profile_of(t0)
        for lam1, b, m in ((0.05, 1e8, 15), (0.1, 1e2, 8), (0.5, 1e3, 15), (0.1, 1e4, 11)):
            assert constants.choose_M(lam1, b, q) == per_call_choose_M(t0, lam1, b, N) == m
        assert constants.choose_M(0.05, 1e8) == 7  # the closed form alone


class TestStepProfile:
    @pytest.mark.parametrize("n_points", [16, 256])
    def test_bits_do_not_depend_on_batch(self, monkeypatch, n_points):
        l0 = transfer.build_deterministic(CircleMap(2, sin_coeffs=(0.0, 0.05)), n_points)
        q = constants.step_profile(l0, 5)
        for batch in (1, 7, n_points):
            monkeypatch.setattr(constants, "STEP_BATCH", batch)
            assert np.array_equal(constants.step_profile(l0, 5).view(np.int64), q.view(np.int64))

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(t=admissible_maps(), n=st.integers(16, 32).map(lambda k: 2 * k), seed=st.integers(0, 2**32 - 1))
    def test_bounds_every_zero_mass_vector(self, t, n, seed):
        # ||P v||_L1 <= TV(v) q(P) for P = L^m, on random zero-mass vectors,
        # a step and the Nyquist mode (-1)^i, which grid.derivative sends to 0
        depth = 3
        l0 = transfer.build_deterministic(t, n)
        q = constants.step_profile(l0, depth)
        np.testing.assert_allclose(q, dense_profile(l0.to_dense(), depth), rtol=1e-12, atol=0)
        rng = np.random.default_rng(seed)
        v = rng.normal(size=(4, n))
        v = np.vstack([v - grid.mass(v)[:, None], steps(n)[rng.integers(n - 1)], (-1.0) ** np.arange(n)])
        assert np.all(np.abs(grid.mass(v)) <= 1e-14)
        assert np.all(grid.derivative(v[-1]) == 0.0)
        bound = tv(v)
        pushed = v
        for m in range(depth):
            pushed = transfer.push(l0, pushed)
            assert np.all(grid.norm_l1(pushed) <= bound * q[m] * (1.0 + 1e-12))


@pytest.fixture(scope="module")
def cert():
    return constants.certify(CircleMap(2), N)


class TestCertify:
    def test_all_verified(self, cert):
        assert cert.all_verified

    def test_constants_match_formulas(self, cert):
        lam1, b = constants.lasota_yorke_constants(cert.lambda0, cert.M2, cert.delta_star)
        assert cert.lambda1 == pytest.approx(lam1, abs=1e-14)
        assert cert.B == pytest.approx(b, abs=1e-14)
        assert cert.C_T0 == 6.0
        l0 = transfer.build_deterministic(CircleMap(2), N)
        assert cert.q_M == constants.step_profile(l0, cert.M)[-1]
        assert cert.q_M <= (1 - lam1) / (10 * b)

    def test_radius_covers_small_perturbations(self, cert):
        # the certified ball must admit the delta = 0.02 perturbations
        # used throughout
        assert cert.delta_star >= 0.02

    def test_rate_shape(self, cert):
        assert 0.0 < cert.elom_rate < 1.0
        assert cert.elom_rate == pytest.approx((9 / 10) ** (1 / (2 * cert.M)), abs=1e-14)
        assert cert.elom_C == pytest.approx((10 / 9) * (cert.B / (1 - cert.lambda1) + 1), abs=1e-12)

    def test_json_payload(self, cert):
        payload = json.loads(json.dumps(cert.report()))
        assert payload["status"] == "numerically certified"
        assert set(payload["inequalities_verified"]) == {
            "delta_star_range",
            "lasota_yorke_constants",
            "block_length",
            "weak_contraction",
            "delta_star_smallness",
        }
        assert all(payload["inequalities_verified"].values())
        assert "formulas" in payload and "C_T0_alt" not in payload
        assert "TV" in payload["formulas"]["M"] and "Nyquist" in payload["formulas"]["q_M"]

    def test_profile_asked_only_to_certified_M(self, monkeypatch):
        # a delta failing smallness at the closed-form M asks no q, so the
        # profile runs once, to the certified M
        depths = []
        profile = constants.step_profile
        monkeypatch.setattr(constants, "step_profile", lambda l0, depth: depths.append(depth) or profile(l0, depth))
        cert = constants.certify(CircleMap(2, sin_coeffs=(0.0, 0.05)), N)
        assert depths == [cert.M] == [7]

    def test_no_positive_delta_raises(self):
        # feasibility is monotone in delta, so a bisection that ends at 0 has no radius to fall back to
        with pytest.raises(NotConverged, match="no positive delta_star satisfies the smallness condition"):
            constants.certify(CircleMap(2, sin_coeffs=(0.0, 0.14)), 64)

    def test_empirical_decay_dominated(self, cert):
        # actual strong-norm decay of the doubling matrix sits below the
        # certified envelope C rho^k ||v||_W11 for zero-mass seeds
        mat = transfer.build_deterministic(CircleMap(2), N)
        rng = np.random.default_rng(2)
        for f in smooth_w11_family(rng, 10):
            v = f - grid.mass(f)
            w0 = grid.norm_w11(v)
            for k in range(1, 15):
                v = transfer.push(mat, v)
                assert grid.norm_w11(v) <= cert.elom_C * cert.elom_rate**k * w0 + 1e-12

    def test_tampered_certificate_fails(self, cert):
        from dataclasses import replace

        bad = replace(cert, delta_star=cert.lambda0 - 1.0 + 0.1)
        assert not bad.all_verified
        assert bad.report()["status"] == "FAILED"
        weak = replace(cert, q_M=1.01 * (1.0 - cert.lambda1) / (10.0 * cert.B))
        assert not weak.inequality_checks()["weak_contraction"] and not weak.all_verified


class TestDoeblin:
    def test_bump(self):
        q = NoiseDensity.bump(0.5, 0.08, 0.3, N)
        c, rate = constants.doeblin_certificate(q)
        assert c == 1.0
        # floor plus the (never exactly zero) smooth part
        assert 0.69 <= rate <= 0.7
        assert rate == pytest.approx(1.0 - q.alpha, abs=1e-15)

    def test_uniform(self):
        assert constants.doeblin_certificate(NoiseDensity.uniform(N)) == (1.0, 0.0)

    def test_rejects_vanishing(self):
        samples = np.maximum(np.cos(2 * np.pi * X), 0.0)
        with pytest.warns(UserWarning):
            q = NoiseDensity(samples / grid.mass(samples))
        with pytest.raises(ValueError):
            constants.doeblin_certificate(q)

    def test_rejects_floor_that_rounds_away(self):
        q = NoiseDensity.bump(0.5, 0.01, 0.0, N)
        assert 0.0 < q.alpha and 1.0 - q.alpha == 1.0
        with pytest.raises(InvalidSystem, match="uniformly positive"):
            constants.doeblin_certificate(q)
