import itertools
import json
import re
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_noise import SIN_4PI, noisy_systems
from test_sequence import fresh_operator, mixed_schedules, same_bits
from test_transfer import kicked_systems

from seqresponse import grid, noise, response, sequence, transfer
from seqresponse.errors import TailNotSmall, WindowExceeded
from seqresponse.maps import CircleMap, TrigPoly
from seqresponse.noise import DriftMap, NoiseDensity
from seqresponse.sequence import (
    DeterministicEntry,
    NoisyEntry,
    SequenceSystem,
    Window,
    constant_schedule,
    periodic_schedule,
    pullback_equivariant,
    seeded_random_schedule,
)

N = 256
X = np.arange(N) / N
KICK = TrigPoly(sin_coeffs=(0.0, 1 / (2 * np.pi)))  # X(x) = sin(2 pi x) / (2 pi)


def doubling_system(window=(0, 12)):
    entry = DeterministicEntry(map=CircleMap(2), kick=KICK)
    return SequenceSystem(constant_schedule(entry), window, n_points=N)


def bump_system(window=(0, 12)):
    # dot field with the drift's periodicity: preimage contributions add
    # rather than cancel, so the forcing is genuinely nonzero
    q = NoiseDensity.bump(0.5, 0.08, 0.3, N)
    entry = NoisyEntry(drift=DriftMap(base=CircleMap(2), dot=SIN_4PI), noise=q)
    return SequenceSystem(constant_schedule(entry), window, n_points=N)


@pytest.fixture(scope="module")
def doubling_setup():
    sys_ = doubling_system()
    fam, _ = pullback_equivariant(sys_, 60, np.ones(N))
    g = response.forcing(sys_, fam)
    return sys_, fam, g


@pytest.fixture(scope="module")
def bump_setup():
    sys_ = bump_system()
    fam, _ = pullback_equivariant(sys_, 60, np.ones(N))
    g = response.forcing(sys_, fam)
    return sys_, fam, g


class TestForcing:
    def test_deterministic_on_uniform(self, doubling_setup):
        # g = -(X mu)' with mu = 1 is -cos(2 pi x)
        _, _, g = doubling_setup
        expected = -np.cos(2 * np.pi * X)
        for n in range(g.n_lo, g.n_hi + 1):
            assert np.max(np.abs(g[n] - expected)) <= 1e-6

    def test_zero_mass(self, bump_setup):
        _, _, g = bump_setup
        for n in range(g.n_lo, g.n_hi + 1):
            assert abs(grid.mass(g[n])) <= 1e-9

    def test_window_exceeded(self, doubling_setup):
        _, fam, g = doubling_setup
        assert (g.n_lo, g.n_hi) == (fam.n_lo, fam.n_hi)
        for n in (g.n_lo - 1, g.n_hi + 1):
            with pytest.raises(WindowExceeded):
                g[n]


def needed_order(sys_, g, c, rate, tol):
    """The K that the TailNotSmall of a series at K = 1 names as needed for tol."""
    with pytest.raises(TailNotSmall) as err:
        response.neumann_response(sys_, g, 1, (c, rate), tol=tol)
    return int(re.search(r"need K >= (\d+)$", str(err.value)).group(1))


class TestTruncationOrder:
    def test_monotone_in_tol(self, bump_setup):
        sys_, _, g = bump_setup
        ks = [needed_order(sys_, g, 1.0, 0.7, tol) for tol in (1e-2, 1e-5, 1e-8)]
        assert ks[0] < ks[1] < ks[2]

    def test_bound_holds_at_order(self, bump_setup):
        sys_, _, g = bump_setup
        c, rate, tol = 1.0, 0.7, 1e-5
        sup_g = max(grid.norm_w11(row) for row in g.values)
        k = needed_order(sys_, g, c, rate, tol)
        assert c * rate**k * sup_g / (1 - rate) <= tol


class TestNeumannSeries:
    def test_closed_form_doubling(self, doubling_setup):
        # L annihilates the first harmonic, so the series collapses to
        # its bare term: eta = -cos(2 pi x)
        sys_, fam, g = doubling_setup
        etas, _ = response.neumann_response(sys_, g, 8, (1.0, 0.5))
        expected = -np.cos(2 * np.pi * X)
        for n in range(etas.n_lo, etas.n_hi + 1):
            assert np.max(np.abs(etas[n] - expected)) <= 1e-5

    def test_mass_defect(self, doubling_setup):
        sys_, fam, g = doubling_setup
        etas, _ = response.neumann_response(sys_, g, 6, (1.0, 0.5))
        assert max(abs(grid.mass(eta)) for eta in etas.values) <= 1e-9

    def test_tail_bound(self, bump_setup):
        sys_, fam, g = bump_setup
        _, tail = response.neumann_response(sys_, g, 6, (2.0, 0.7))
        sup_g = max(grid.norm_w11(row) for row in g.values)
        assert tail == 2.0 * 0.7**6 * sup_g / (1.0 - 0.7)

    def test_resolvent_identity(self, bump_setup):
        sys_, fam, g = bump_setup
        etas, tail = response.neumann_response(sys_, g, 6, (1.0, 0.7))
        assert response.resolvent_residual(sys_, etas, g) <= tail + 1e-7

    def test_series_cauchy_in_depth(self, bump_setup):
        # deepening the truncation moves eta by at most the tail bound
        sys_, fam, g = bump_setup
        etas_a, tail_a = response.neumann_response(sys_, g, 5, (1.0, 0.7))
        etas_b, _ = response.neumann_response(sys_, g, 9, (1.0, 0.7))
        n = etas_b.n_hi
        assert grid.norm_l1(etas_a[n] - etas_b[n]) <= tail_a + 1e-9

    def test_tail_not_small(self, bump_setup):
        sys_, fam, g = bump_setup
        with pytest.raises(TailNotSmall):
            response.neumann_response(sys_, g, 2, (1.0, 0.9), tol=1e-10)

    def test_shallow_window(self, bump_setup):
        sys_, fam, g = bump_setup
        with pytest.raises(WindowExceeded):
            response.neumann_response(sys_, g, len(fam.values), (1.0, 0.7))

    def test_bad_order(self, bump_setup):
        sys_, fam, g = bump_setup
        with pytest.raises(ValueError):
            response.neumann_response(sys_, g, 0, (1.0, 0.7))


def double_loop_response(sys_, g, n_lo, n_hi, k_order):
    """The series as first written: for each n, K single pushes from g_{n-K-1}."""
    etas = []
    for n in range(n_lo, n_hi + 1):
        acc = g[n - k_order - 1]
        for m in range(n - k_order, n):
            acc = transfer.push(sys_.operator(m), acc) + g[m]
        etas.append(acc)
    return etas


def two_map_setup(window=(0, 14)):
    t0, t1 = CircleMap(2, sin_coeffs=(0.0, 0.05)), CircleMap(3, cos_coeffs=(0.0, 0.02))
    sched = periodic_schedule([DeterministicEntry(t0, KICK), DeterministicEntry(t1, KICK)])
    sys_ = SequenceSystem(sched, window, n_points=N)
    fam, _ = pullback_equivariant(sys_, 60, np.ones(N))
    return sys_, fam, response.forcing(sys_, fam)


class TestBatchedSeries:
    @pytest.mark.parametrize("k_order", [1, 3, 8, 11])
    @pytest.mark.parametrize("setup", ["two_map", "bump"])
    def test_matches_double_loop(self, bump_setup, setup, k_order):
        # one block push per operator index gives the window x K single applies
        sys_, fam, g = two_map_setup() if setup == "two_map" else bump_setup
        etas, _ = response.neumann_response(sys_, g, k_order, (1.0, 0.5))
        ref = double_loop_response(sys_, g, etas.n_lo, etas.n_hi, k_order)
        assert etas.n_lo == fam.n_lo + k_order + 1 and etas.n_hi == fam.n_hi and len(etas.values) == len(ref)
        for eta, want in zip(etas.values, ref):
            assert grid.norm_l1(eta - want) <= 1e-13 * grid.norm_l1(want)


class TestSeriesProperty:
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(schedule=mixed_schedules(), k_order=st.integers(1, 8), extra=st.integers(0, 4), seed=st.integers(0, 2**32 - 1))
    def test_matches_double_loop_bits(self, schedule, k_order, extra, seed):
        # K steps of eta <- L eta + g on the band give every eta_n the bits of its own K pushes
        sys_ = SequenceSystem(schedule, (0, k_order + 1 + extra), n_points=N)
        g = Window(0, np.random.default_rng(seed).normal(size=(k_order + 2 + extra, N)))
        etas, _ = response.neumann_response(sys_, g, k_order, (1.0, 0.5))
        assert (etas.n_lo, etas.n_hi) == (k_order + 1, g.n_hi)
        assert np.array_equal(etas.values, np.array(double_loop_response(sys_, g, etas.n_lo, etas.n_hi, k_order)))


def mixed_setup(window=(0, 9)):
    q = NoiseDensity.bump(0.5, 0.08, 0.3, N)
    entries = [
        DeterministicEntry(CircleMap(2, sin_coeffs=(0.0, 0.05)), KICK),
        NoisyEntry(DriftMap(base=CircleMap(2), dot=SIN_4PI), q),
    ]
    sys_ = SequenceSystem(periodic_schedule(entries), window, n_points=N)
    fam, _ = pullback_equivariant(sys_, 60, np.ones(N))
    return sys_, fam, response.forcing(sys_, fam)


def reference_forcing(sys_, w):
    """Ldot_n w_n per index on any window: -(X L_n w_n)' or -(A_n (fdot w_n))', one density at a time."""
    out = []
    for n in range(w.n_lo, w.n_hi + 1):
        entry, a = sys_.schedule(n), sys_.operator(n)
        if isinstance(entry, DeterministicEntry):
            out.append(grid.derivative(entry.kick(X) * transfer.push(a, w[n])) * -1.0)
        else:
            out.append(grid.derivative(transfer.push(a, w[n] * entry.drift.dot(X))) * -1.0)
    return out


def reference_quotients(sys_, eps, fam):
    """Difference quotients as first written: one density per index."""
    fam_p, _ = pullback_equivariant(SequenceSystem(sys_.schedule, sys_.window, N, eps), 60, np.ones(N))
    return [(p - b) * (1.0 / eps) for p, b in zip(fam_p.values, fam.values)]


def quotients(sys_, eps_list, fam):
    """{eps: difference quotient} from one finite_difference_response call per eps."""
    return {e: response.finite_difference_response(sys_, e, 60, np.ones(N), base_family=fam) for e in eps_list}


def reference_validate_entries(etas, fd):
    """(eps, D) as first written: the largest of one L1 norm per index."""
    return tuple(
        (eps, max(float(grid.norm_l1(fd[eps][n] - etas[n])) for n in range(etas.n_lo, etas.n_hi + 1)))
        for eps in sorted(fd, reverse=True)
    )


def reference_resolvent_residual(sys_, etas, g):
    """The residual as first written: one push and one L1 norm per interior index."""
    res = 0.0
    for n in range(etas.n_lo + 1, etas.n_hi + 1):
        pushed = transfer.push(sys_.operator(n - 1), etas[n - 1])
        res = max(res, float(grid.norm_l1(etas[n] - pushed - g[n - 1])))
    return res


class TestBlockStages:
    """Each stage on whole blocks gives the bits of its per-index loop."""

    @pytest.fixture(scope="class", params=["two_map", "bump", "mixed"])
    def setup(self, request, bump_setup):
        return {"two_map": two_map_setup, "bump": lambda: bump_setup, "mixed": mixed_setup}[request.param]()

    def test_forcing(self, setup):
        sys_, fam, g = setup
        assert (g.n_lo, g.n_hi) == (fam.n_lo, fam.n_hi)
        assert np.array_equal(g.values, np.array(reference_forcing(sys_, fam)))

    def test_quotients_and_validate(self, setup):
        sys_, fam, g = setup
        eps_list = (1e-2, 3e-3, 1e-3)
        fd = quotients(sys_, eps_list, fam)
        for eps in eps_list:
            assert (fd[eps].n_lo, fd[eps].n_hi) == (fam.n_lo, fam.n_hi)
            assert np.array_equal(fd[eps].values, np.array(reference_quotients(sys_, eps, fam)))
        etas, _ = response.neumann_response(sys_, g, 3, (1.0, 0.5))
        assert response.validate(etas, fd.items(), tol=1.0)[0] == list(reference_validate_entries(etas, fd))

    def test_resolvent_residual(self, setup):
        sys_, fam, g = setup
        etas, _ = response.neumann_response(sys_, g, 3, (1.0, 0.5))
        assert response.resolvent_residual(sys_, etas, g) == reference_resolvent_residual(sys_, etas, g)

    def test_validate_outside_quotient_window(self, setup):
        sys_, fam, g = setup
        etas, _ = response.neumann_response(sys_, g, 3, (1.0, 0.5))
        fd = {1e-2: Window(etas.n_lo + 1, np.zeros((len(etas.values), N)))}
        with pytest.raises(WindowExceeded):
            response.validate(etas, fd.items(), tol=1.0)


class TestForcingProperty:
    """The forcing takes each schedule entry's rows as one block and gives the bits of its per-index loop."""

    @pytest.mark.parametrize("last", [DeterministicEntry, NoisyEntry])
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(schedule=mixed_schedules(), n_lo=st.integers(-20, 20), m=st.integers(1, 9), seed=st.integers(0, 2**32 - 1))
    def test_matches_reference_bits(self, last, schedule, n_lo, m, seed):
        # `last` is the kind of the window's last entry: a kicked one pushes w_{n_hi} itself, with no row past the window
        # the window is random, not equivariant: g_n reads w_n alone, whatever the rows around it hold
        assume(isinstance(schedule(n_lo + m - 1), last))
        sys_ = SequenceSystem(schedule, (n_lo, n_lo + m - 1), n_points=N)
        mu = Window(n_lo, 1.0 + 0.5 * np.random.default_rng(seed).uniform(-1.0, 1.0, size=(m, N)))
        kicks, d_operator = [], transfer.d_operator
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(transfer, "d_operator", lambda kick, u: kicks.append(kick) or d_operator(kick, u))
            g = response.forcing(sys_, mu)
        assert np.array_equal(g.values, np.array(reference_forcing(sys_, mu)))
        entries = {schedule(n) for n in range(n_lo, n_lo + m)}
        # one d_operator call per distinct deterministic entry, each with that entry's kick
        assert sorted(map(id, kicks)) == sorted(id(e.kick) for e in entries if isinstance(e, DeterministicEntry))

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(schedule=mixed_schedules(), n_lo=st.integers(-20, 20), m=st.integers(2, 9))
    def test_kicked_rows_read_the_next_density(self, schedule, n_lo, m):
        # on a pullback family mu_{n+1} is a row of L_n's push, with the bits of L_n mu_n pushed alone
        sys_ = SequenceSystem(schedule, (n_lo, n_lo + m - 1), n_points=N)
        fam, _ = pullback_equivariant(sys_, 20, np.ones(N), tol=np.inf)
        kicked = [n for n in range(n_lo, fam.n_hi) if isinstance(schedule(n), DeterministicEntry)]
        assume(kicked)
        g = response.forcing(sys_, fam)
        for n in kicked:
            assert np.array_equal(g[n], grid.derivative(schedule(n).kick(X) * fam[n + 1]) * -1.0)


class TestFiniteDifference:
    def test_quotient_converges_to_series(self, doubling_setup):
        sys_, fam, g = doubling_setup
        etas, _ = response.neumann_response(sys_, g, 8, (1.0, 0.5))
        fd = quotients(sys_, [1e-2, 1e-3], fam)
        gaps = {
            eps: max(
                grid.norm_l1(fd[eps][n] - etas[n])
                for n in range(etas.n_lo, etas.n_hi + 1)
            )
            for eps in fd
        }
        assert gaps[1e-3] <= 1e-2
        assert gaps[1e-3] < gaps[1e-2]

    def test_quotient_outside_window(self, doubling_setup):
        sys_, fam, _ = doubling_setup
        q = response.finite_difference_response(sys_, 1e-2, 60, np.ones(N), base_family=fam)
        assert (q.n_lo, q.n_hi) == (fam.n_lo, fam.n_hi)
        assert np.array_equal(q[fam.n_lo], q.values[0])
        assert np.array_equal(q[fam.n_hi], q.values[-1])
        for n in (fam.n_lo - 1, fam.n_hi + 1):
            with pytest.raises(WindowExceeded):
                q[n]

    def test_rejects_zero_eps(self, doubling_setup):
        sys_, fam, _ = doubling_setup
        with pytest.raises(ValueError):
            response.finite_difference_response(sys_, 0.0, 60, np.ones(N), base_family=fam)

    def test_noisy_quotient(self, bump_setup):
        sys_, fam, g = bump_setup
        etas, _ = response.neumann_response(sys_, g, 8, (1.0, 0.7))
        q = response.finite_difference_response(sys_, 1e-4, 60, np.ones(N), base_family=fam)
        gap = max(
            grid.norm_l1(q[n] - etas[n])
            for n in range(etas.n_lo, etas.n_hi + 1)
        )
        assert gap <= 5e-3


def seeded_setup(window=(60, 69)):
    """Two kicked maps and a noisy drift picked per index by a seeded-random schedule, from index 0 on."""
    entries = [
        DeterministicEntry(CircleMap(2, sin_coeffs=(0.0, 0.05)), KICK),
        DeterministicEntry(CircleMap(3, cos_coeffs=(0.0, 0.02)), KICK),
        NoisyEntry(DriftMap(base=CircleMap(2), dot=SIN_4PI), NoiseDensity.bump(0.5, 0.08, 0.3, N)),
    ]
    sys_ = SequenceSystem(seeded_random_schedule(entries, seed=5), window, n_points=N)
    fam, _ = pullback_equivariant(sys_, 60, np.ones(N))
    return entries, sys_, fam


class TestScopedOperators:
    """Each eps is pulled back on its own system over the shared schedule; the system passed in keeps eps = 0."""

    EPS = (1e-2, -3e-3, 1e-3)

    def test_passed_system_keeps_only_eps_zero(self):
        _, sys_, fam = seeded_setup()
        quotients(sys_, self.EPS, fam)
        assert sys_.eps == 0.0 and sys_._cache
        for entry, mat in sys_._cache.items():
            assert same_bits(mat, fresh_operator(entry, 0.0))

    def test_each_eps_builds_each_entry_once(self, monkeypatch):
        # a noise kernel is the drift's gather with a kernel: build_kernel counts it, not its inner call
        entries, sys_, fam = seeded_setup()
        built = []
        build, build_kernel = transfer.build_deterministic, noise.build_kernel

        def counted(t, n_points, kernel=None):
            if kernel is None:
                built.append((t.eps, id(t.base)))
            return build(t, n_points, kernel)

        def counted_kernel(f, eps, q, n_points):
            built.append((eps, id(f.base)))
            return build_kernel(f, eps, q, n_points)

        monkeypatch.setattr(transfer, "build_deterministic", counted)
        monkeypatch.setattr(noise, "build_kernel", counted_kernel)
        quotients(sys_, self.EPS, fam)
        maps = [e.map for e in entries[:2]] + [entries[2].drift.base]
        assert sorted(built) == sorted((eps, id(t)) for eps in self.EPS for t in maps)

    def test_quotients_match_pullbacks_on_the_shared_system(self):
        _, sys_, fam = seeded_setup()
        fd = quotients(sys_, self.EPS, fam)
        for eps in self.EPS:
            assert np.array_equal(fd[eps].values, np.array(reference_quotients(sys_, eps, fam)))


class TestValidate:
    def test_passes(self, bump_setup):
        sys_, fam, g = bump_setup
        etas, _ = response.neumann_response(sys_, g, 8, (1.0, 0.7))
        fd = quotients(sys_, [1e-2, 3e-3, 1e-3], fam)
        entries, passed = response.validate(etas, fd.items(), tol=2e-2)
        assert passed
        eps_order = [e for e, _ in entries]
        assert eps_order == sorted(eps_order, reverse=True)
        # first-order convergence: slope of log D vs log eps near 1
        eps = np.log([e for e, _ in entries])
        ds = np.log([d for _, d in entries])
        assert np.polyfit(eps, ds, 1)[0] >= 0.9

    def test_fails_on_absurd_tol(self, bump_setup):
        sys_, fam, g = bump_setup
        etas, _ = response.neumann_response(sys_, g, 8, (1.0, 0.7))
        fd = quotients(sys_, [1e-2, 1e-3], fam)
        assert not response.validate(etas, fd.items(), tol=1e-12)[1]

    def test_one_quotient_alive_at_a_time(self, bump_setup):
        # pairs from a generator expression, as `respond` passes them: each quotient is made only when
        # validate pulls it, and validate drops the one before, so every earlier quotient is dead by then
        sys_, fam, g = bump_setup
        etas, _ = response.neumann_response(sys_, g, 8, (1.0, 0.7))
        made = []

        def quotient(eps):
            q = response.finite_difference_response(sys_, eps, 60, np.ones(N), base_family=fam)
            assert [ref() for ref in made] == [None] * len(made)
            made.append(weakref.ref(q))
            return q

        entries, _ = response.validate(etas, ((e, quotient(e)) for e in (1e-2, 3e-3, 1e-3)), tol=2e-2)
        assert len(made) == len(entries) == 3 and made[-1]() is None

    def test_entries_do_not_depend_on_pair_order(self, bump_setup):
        sys_, fam, g = bump_setup
        etas, _ = response.neumann_response(sys_, g, 8, (1.0, 0.7))
        fd = quotients(sys_, [1e-2, -3e-3, 3e-3, 1e-3], fam)
        expected = response.validate(etas, fd.items(), tol=2e-2)
        assert [e for e, _ in expected[0]] == [1e-2, 3e-3, -3e-3, 1e-3]
        for order in itertools.permutations(fd.items()):
            assert response.validate(etas, iter(order), tol=2e-2) == expected

    @pytest.mark.parametrize(
        "d_plus, d_minus, passed", [(0.004, 0.006, True), (0.02, 0.004, False)], ids=["both-within-tol", "plus-over-tol"]
    )
    def test_ranks_by_magnitude(self, d_plus, d_minus, passed):
        # quotients that miss a zero response by the constant D: the ranking and the verdict read D alone
        etas = Window(0, np.zeros((2, N)))
        fd = {e: Window(0, np.full((2, N), d)) for e, d in ((1e-3, d_plus), (-1e-3, d_minus), (1e-2, 0.05))}
        entries, ok = response.validate(etas, fd.items(), tol=0.01)
        assert [e for e, _ in entries] == [1e-2, 1e-3, -1e-3]  # +eps and -eps of one |eps| are not compared
        assert [d for _, d in entries] == pytest.approx([0.05, d_plus, d_minus], rel=1e-12)
        assert ok is passed  # every D at the smallest |eps| counts against tol

    def test_no_quotient_raises(self):
        # with no eps there is no smallest |eps| to hold against tol
        with pytest.raises(ValueError, match="no difference quotient was given"):
            response.validate(Window(0, np.zeros((2, N))), iter(()), tol=0.01)

    @pytest.mark.parametrize("scale, passed", [(1.0, False), (1e-4, True)], ids=["rising", "rising-under-floor"])
    def test_rising_discrepancy(self, scale, passed):
        # D rises from 0.002 to 0.005 as |eps| shrinks and ends within tol: the ordering rule alone fails it,
        # unless every D is under the 1e-6 discretization floor, where ordering is noise
        etas = Window(0, np.zeros((2, N)))
        fd = {e: Window(0, np.full((2, N), d * scale)) for e, d in ((1e-2, 0.002), (1e-3, 0.005))}
        entries, ok = response.validate(etas, fd.items(), tol=0.01)
        assert [d for _, d in entries] == pytest.approx([0.002 * scale, 0.005 * scale], rel=1e-12)
        assert ok is passed

    def test_json(self, bump_setup):
        sys_, fam, g = bump_setup
        etas, _ = response.neumann_response(sys_, g, 6, (1.0, 0.7))
        fd = quotients(sys_, [1e-3], fam)
        entries, passed = response.validate(etas, fd.items(), tol=1e-2)
        # plain Python values, which json writes as they are (a numpy bool would raise)
        payload = json.loads(json.dumps({"pass": passed, "entries": entries}))
        assert payload == {"pass": passed, "entries": [[1e-3, entries[0][1]]]} and type(passed) is bool


class TestPeriodicSchedule:
    def test_resolvent_residual_two_maps(self):
        amp = 0.02 / (1 + 2 * np.pi + 4 * np.pi**2)
        t0 = CircleMap(2)
        t1 = CircleMap(2, sin_coeffs=(0.0, amp))
        sched = periodic_schedule(
            [DeterministicEntry(t0, KICK), DeterministicEntry(t1, KICK)]
        )
        sys_ = SequenceSystem(sched, (0, 12), n_points=N)
        fam, _ = pullback_equivariant(sys_, 60, np.ones(N))
        g = response.forcing(sys_, fam)
        etas, tail = response.neumann_response(sys_, g, 8, (1.0, 0.6))
        assert response.resolvent_residual(sys_, etas, g) <= tail + 1e-7


def dropped_term_l1(sys_, g, n, k_order):
    """||L_{n-1} ... L_{n-K-1} g_{n-K-2}||_L1, the (K+1)-st series term that truncation at K drops."""
    acc = g[n - k_order - 2]
    for m in range(n - k_order - 1, n):
        acc = transfer.push(sys_.operator(m), acc)
    return grid.norm_l1(acc)


SCHEDULE_SEEDS = st.none() | st.integers(0, 2**32 - 1)  # None: periodic, else the seed of a seeded-random schedule


class TestResolventIdentity:
    """eta_n - L_{n-1} eta_{n-1} - g_{n-1} is minus the dropped term, so the residual is its norm."""

    def check(self, entries, k_order, seed):
        schedule = periodic_schedule(entries) if seed is None else seeded_random_schedule(entries, seed)
        sys_ = SequenceSystem(schedule, (0, k_order + 4), n_points=N)
        fam, _ = pullback_equivariant(sys_, 20, np.ones(N), tol=np.inf)
        g = response.forcing(sys_, fam)
        etas, _ = response.neumann_response(sys_, g, k_order, (1.0, 0.5))
        dropped = max(dropped_term_l1(sys_, g, n, k_order) for n in range(etas.n_lo + 1, etas.n_hi + 1))
        scale = 1.0 + max(grid.norm_l1(eta) for eta in etas.values)
        assert abs(response.resolvent_residual(sys_, etas, g) - dropped) <= 1e-12 * scale

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(systems=st.lists(kicked_systems(), min_size=2, max_size=3), k_order=st.integers(1, 6), seed=SCHEDULE_SEEDS)
    def test_kicked(self, systems, k_order, seed):
        self.check([DeterministicEntry(t, kick) for t, kick, _ in systems], k_order, seed)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(systems=st.lists(noisy_systems(), min_size=2, max_size=3), k_order=st.integers(1, 6), seed=SCHEDULE_SEEDS)
    def test_noisy(self, systems, k_order, seed):
        self.check([NoisyEntry(drift, q) for drift, q, _ in systems], k_order, seed)
