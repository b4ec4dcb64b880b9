"""Layer timings (pytest-benchmark): the Monte Carlo sampler, grid kernels, operator pushes and the solver stages.

Run from the root of a checkout; these tests time, they do not check, so
they are kept off the default test paths:

    PYTHONPATH=src python -m pytest benches/test_layers.py --benchmark-json=layers.json
    python benches/record.py BENCH_<n>.json parent=parent.json change=layers.json

The Monte Carlo system is the noisy-1024 reference: N = 1024, drift
f(x) = 2x + 0.05 sin 2 pi x with the TrigPoly fdot = sin 4 pi x, bump
noise (center 0.5, width 0.08, floor 0.3).  Its kernels run on one Monte
Carlo block of points.  fdot is also timed at the sampler's shape, the
3e6 points of a 1e6-sample, 3-step run in 8192-point chunks: exactly,
as the sampler reads it, and by `grid.interpolate_values` from its node
samples.

The grid kernels are timed at N = 256, 1024 and 2048:
`interpolation_stencil6` at the 2N inverse-branch points of that drift
map's deterministic operator, and `derivative` on one density.

`transfer.push` is timed on blocks of 1, 2, 8 and 12 densities for the
deterministic operator of that drift map and for its noise kernel, at
N = 256, 1024 and 2048.  Operator assembly is timed at the same sizes:
`build_deterministic` for that map, plain and kicked by the det-2048 kick
(X(x) = sin(2 pi x) / (2 pi), eps = 1e-2), and `build_kernel` for its
noise kernel; so is `certify` of that map.  The solver stages (the
pullback, `forcing`, the Neumann series, the eps = 1e-3 difference
quotients, `validate` and `resolvent_residual`) run on a
det-256-session-like system: N = 256, window 0..300, burn-in 60, four
degree-2 maps drawn per index, truncation K = 8; `forcing` also runs
over the three maps the det-256-session workload schedules, before
jitter.  The pullback (burn-in 60), `forcing`, the Neumann series,
`resolvent_residual`, the difference quotients at the workloads' eps
list (1e-2, 3e-3, 1e-3; each eps's assembly included, as in `respond`)
and `validate` also run at K = 8 on
a det-2048-like system (N = 2048, window 0..12, the two scheduled maps
of the det-2048 workload before jitter, periodic, with that kick) and a
noisy-1024-like one (N = 1024, window 0..10, the noisy-1024 drift and
bump noise, constant).  The quotients' bench records in `cached_bytes`
the bytes of the operators the system passed in still caches after it.

The set-up the benchmark times as `setup_s`, `config.load_config` and
then `config.build_system`, runs on each workload's seed-0 config as
`perfbench/workloads.py` writes it.
"""

import os
import sys

import numpy as np
import pytest

from seqresponse import config, constants, grid, noise, response, sequence, transfer
from seqresponse.maps import CircleMap, KickedMap, TrigPoly
from seqresponse.noise import DriftMap, NoiseDensity
from seqresponse.sequence import (
    DeterministicEntry,
    NoisyEntry,
    SequenceSystem,
    constant_schedule,
    periodic_schedule,
    seeded_random_schedule,
)

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench"))
import workloads  # noqa: E402

N = 1024
POINTS = noise.MC_BLOCK_SIZE
SAMPLER_POINTS = 3 * 10**6  # samples times steps of the noisy-1024 simulate
FDOT = TrigPoly(sin_coeffs=(0.0, 0.0, 1.0))  # fdot(x) = sin 4 pi x
WORKLOAD_EPS = (1e-2, 3e-3, 1e-3)  # the eps list of the perfbench workloads


@pytest.fixture(autouse=True)
def sizes(benchmark):
    benchmark.extra_info.update(n_points=N, points=POINTS)


@pytest.fixture(scope="module")
def system():
    drift = DriftMap(base=CircleMap(2, sin_coeffs=(0.0, 0.05)), dot=FDOT)
    return drift, NoiseDensity.bump(0.5, 0.08, 0.3, N)


@pytest.fixture(scope="module")
def uniforms():
    return np.random.Generator(np.random.Philox(key=(1, 0))).uniform(0.0, 1.0, POINTS)


def test_simulate_marginal(benchmark, system):
    drift, q = system
    benchmark.extra_info["points"] = 3 * 10**6  # samples times steps
    benchmark.pedantic(noise.simulate_marginal, (lambda k: drift, 0.02, q, 3, 10**6, 1, 64), rounds=5, warmup_rounds=1)


def test_trigpoly(benchmark, system, uniforms):
    benchmark(system[0].base.p, uniforms)


def test_interpolate_values(benchmark, system, uniforms):
    benchmark(grid.interpolate_values, FDOT(np.arange(N) / N), uniforms)


def test_sample_noise(benchmark, system, uniforms):
    benchmark(noise._sample_noise, noise._sampler_tables(system[1]), uniforms)


@pytest.fixture(scope="module")
def sampler_chunks():
    """SAMPLER_POINTS uniform points as the sampler's MC_CHUNK-point slices."""
    x = np.random.Generator(np.random.Philox(key=(1, 0))).uniform(0.0, 1.0, SAMPLER_POINTS)
    return [x[lo : lo + noise.MC_CHUNK] for lo in range(0, SAMPLER_POINTS, noise.MC_CHUNK)]


def test_fdot_exact(benchmark, sampler_chunks):
    benchmark.extra_info["points"] = SAMPLER_POINTS
    benchmark(lambda: [FDOT(c) for c in sampler_chunks])


def test_fdot_cubic(benchmark, sampler_chunks):
    samples = FDOT(np.arange(N) / N)
    benchmark.extra_info["points"] = SAMPLER_POINTS
    benchmark(lambda: [grid.interpolate_values(samples, c) for c in sampler_chunks])


PUSH_GRIDS = (256, 1024, 2048)
PUSH_WIDTHS = (1, 2, 8, 12)
T = CircleMap(2, sin_coeffs=(0.0, 0.05))


def kernel_args(n: int) -> tuple:
    """Arguments of `noise.build_kernel` for the noisy-1024 reference system at N = n."""
    return DriftMap(base=T, dot=FDOT), 0.0, NoiseDensity.bump(0.5, 0.08, 0.3, n), n


def push_operator(kind: str, n: int) -> transfer.TransferMatrix:
    if kind == "deterministic":
        return transfer.build_deterministic(T, n)
    return noise.build_kernel(*kernel_args(n))


@pytest.mark.parametrize("n", PUSH_GRIDS)
@pytest.mark.parametrize("width", PUSH_WIDTHS)
@pytest.mark.parametrize("kind", ["deterministic", "kernel"])
def test_push(benchmark, kind, width, n):
    a = push_operator(kind, n)
    v = np.random.default_rng(width).random((width, n))
    benchmark.extra_info.update(n_points=n, points=width * n, width=width)
    benchmark(transfer.push, a, v[0] if width == 1 else v)


@pytest.mark.parametrize("n", PUSH_GRIDS)
@pytest.mark.parametrize("kind", ["plain", "kicked"])
def test_build_deterministic(benchmark, kind, n):
    t = T if kind == "plain" else KickedMap(TrigPoly(sin_coeffs=(0.0, 1 / (2 * np.pi))), 1e-2, T)
    benchmark.extra_info.update(n_points=n, points=n)
    benchmark(transfer.build_deterministic, t, n)


@pytest.mark.parametrize("n", PUSH_GRIDS)
def test_interpolation_stencil6(benchmark, n):
    x = T.inverse_branches(np.arange(n) / n).ravel()  # the query points of the deterministic operator
    benchmark.extra_info.update(n_points=n, points=x.size)
    benchmark(grid.interpolation_stencil6, n, x)


@pytest.mark.parametrize("n", PUSH_GRIDS)
def test_derivative(benchmark, n):
    benchmark.extra_info.update(n_points=n, points=n)
    benchmark(grid.derivative, np.random.default_rng(n).random(n))


@pytest.mark.parametrize("n", PUSH_GRIDS)
def test_build_kernel(benchmark, n):
    benchmark.extra_info.update(n_points=n, points=n)
    benchmark(noise.build_kernel, *kernel_args(n))


@pytest.mark.parametrize("n", PUSH_GRIDS)
def test_certify(benchmark, n):
    benchmark.extra_info.update(n_points=n, points=n)
    benchmark(constants.certify, T, n)


@pytest.fixture(scope="module")
def session():
    """System, family and forcing of a det-256-session-like run, with every operator built."""
    n = 256
    kick = TrigPoly(sin_coeffs=(0.0, 1 / (2 * np.pi)))
    maps = [
        T,
        CircleMap(2, cos_coeffs=(0.0, 0.02), sin_coeffs=(0.0, 0.04, 0.01)),
        CircleMap(2, sin_coeffs=(0.0, 0.04)),
        CircleMap(2, cos_coeffs=(0.0, 0.0, 0.005), sin_coeffs=(0.0, 0.04)),
    ]
    entries = [DeterministicEntry(t, kick) for t in maps]
    sys_ = SequenceSystem(seeded_random_schedule(entries, 7), (0, 300), n_points=n)
    fam, _ = sequence.pullback_equivariant(sys_, 60, np.ones(n))
    return sys_, fam, response.forcing(sys_, fam)


@pytest.fixture
def session_sizes(benchmark):
    benchmark.extra_info.update(n_points=256, points=301 * 256)


def test_pullback_equivariant(benchmark, session, session_sizes):
    sys_, _, _ = session
    benchmark(sequence.pullback_equivariant, sys_, 60, np.ones(sys_.n_points))


def test_neumann_response(benchmark, session, session_sizes):
    sys_, _, g = session
    benchmark(response.neumann_response, sys_, g, 8, (1.0, 0.5))


@pytest.fixture(scope="module")
def session_response(session):
    """Response series and eps = 1e-3 difference quotients of the session system."""
    sys_, fam, g = session
    etas, _ = response.neumann_response(sys_, g, 8, (1.0, 0.5))
    seed = np.ones(sys_.n_points)
    return etas, {1e-3: response.finite_difference_response(sys_, 1e-3, 60, seed, base_family=fam)}


def test_forcing(benchmark, session, session_sizes):
    sys_, fam, _ = session
    benchmark(response.forcing, sys_, fam)


@pytest.fixture(scope="module")
def session_three_maps():
    """System and family of the det-256-session window over the three maps that workload schedules, before jitter."""
    kick = TrigPoly(sin_coeffs=(0.0, 1 / (2 * np.pi)))
    maps = [
        T,
        CircleMap(2, cos_coeffs=(0.0, 0.02), sin_coeffs=(0.0, 0.04, 0.01)),
        CircleMap(2, cos_coeffs=(0.0, 0.0, 0.005), sin_coeffs=(0.0, 0.04)),
    ]
    entries = [DeterministicEntry(t, kick) for t in maps]
    sys_ = SequenceSystem(seeded_random_schedule(entries, 7), (0, 300), n_points=256)
    fam, _ = sequence.pullback_equivariant(sys_, 60, np.ones(256))
    return sys_, fam


def test_forcing_three_maps(benchmark, session_three_maps, session_sizes):
    benchmark(response.forcing, *session_three_maps)


def test_finite_difference_response(benchmark, session, session_response, session_sizes):
    # each call pulls eps back on its own system, so the timing includes eps's assembly, as in `respond`
    sys_, fam, _ = session
    seed = np.ones(sys_.n_points)
    benchmark(response.finite_difference_response, sys_, 1e-3, 60, seed, base_family=fam)


def test_validate(benchmark, session_response, session_sizes):
    etas, fd = session_response
    benchmark(response.validate, etas, fd.items(), 1e-2)


def test_resolvent_residual(benchmark, session, session_response, session_sizes):
    sys_, _, g = session
    benchmark(response.resolvent_residual, sys_, session_response[0], g)


@pytest.fixture(scope="module", params=["det-2048", "noisy-1024"])
def workload(request):
    """System, forcing and K = 8 response of a det-2048-like or noisy-1024-like run, with every operator built."""
    if request.param == "det-2048":
        n, window = 2048, (0, 12)
        maps = [T, CircleMap(2, cos_coeffs=(0.0, 0.02), sin_coeffs=(0.0, 0.04, 0.01))]
        kick = TrigPoly(sin_coeffs=(0.0, 1 / (2 * np.pi)))
        schedule = periodic_schedule([DeterministicEntry(t, kick) for t in maps])
    else:
        n, window = 1024, (0, 10)
        drift, _, q, _ = kernel_args(n)
        schedule = constant_schedule(NoisyEntry(drift, q))
    sys_ = SequenceSystem(schedule, window, n_points=n)
    fam, _ = sequence.pullback_equivariant(sys_, 60, np.ones(n))
    g = response.forcing(sys_, fam)
    return sys_, fam, g, response.neumann_response(sys_, g, 8, (1.0, 0.5))[0]


def test_pullback_equivariant_workload(benchmark, workload):
    sys_, fam, _, _ = workload
    benchmark.extra_info.update(n_points=sys_.n_points, points=fam.values.size)
    benchmark(sequence.pullback_equivariant, sys_, 60, np.ones(sys_.n_points))


def test_forcing_workload(benchmark, workload):
    sys_, fam, g, _ = workload
    benchmark.extra_info.update(n_points=sys_.n_points, points=g.values.size)
    benchmark(response.forcing, sys_, fam)


def test_neumann_response_workload(benchmark, workload):
    sys_, _, g, _ = workload
    benchmark.extra_info.update(n_points=sys_.n_points, points=g.values.size)
    benchmark(response.neumann_response, sys_, g, 8, (1.0, 0.5))


def test_resolvent_residual_workload(benchmark, workload):
    sys_, _, g, etas = workload
    benchmark.extra_info.update(n_points=sys_.n_points, points=etas.values.size)
    benchmark(response.resolvent_residual, sys_, etas, g)


def cached_bytes(sys_: SequenceSystem) -> int:
    """Bytes of the arrays of every operator the system caches."""
    return sum(a.nbytes for mat in sys_._cache.values() for a in vars(mat).values() if isinstance(a, np.ndarray))


def workload_quotients(sys_: SequenceSystem, fam) -> dict:
    """{eps: difference quotient} over the workloads' eps list, one finite_difference_response call per eps."""
    seed = np.ones(sys_.n_points)
    return {e: response.finite_difference_response(sys_, e, 60, seed, base_family=fam) for e in WORKLOAD_EPS}


def test_finite_difference_response_workload(benchmark, workload):
    # the workloads' eps list; cached_bytes is what the system passed in still holds after the calls
    sys_, fam, _, _ = workload
    benchmark.extra_info.update(n_points=sys_.n_points, points=fam.values.size * len(WORKLOAD_EPS))
    benchmark(workload_quotients, sys_, fam)
    benchmark.extra_info["cached_bytes"] = cached_bytes(sys_)


def test_validate_workload(benchmark, workload):
    sys_, fam, _, etas = workload
    fd = workload_quotients(sys_, fam)
    benchmark.extra_info.update(n_points=sys_.n_points, points=etas.values.size * len(WORKLOAD_EPS))
    benchmark(response.validate, etas, fd.items(), 2e-2)


def test_write_density_csv(benchmark, session, tmp_path):
    mu = session[1][0]
    benchmark.extra_info.update(n_points=mu.shape[0], points=mu.shape[0])
    benchmark(grid.write_density_csv, tmp_path / "mu.csv", mu)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_load_config_build_system(benchmark, tmp_path, name):
    path = tmp_path / "exp.ini"
    path.write_text(workloads.make_config(name, 0, str(tmp_path / "out")))
    n = workloads.WORKLOADS[name].n_points
    benchmark.extra_info.update(n_points=n, points=n)
    benchmark(lambda: config.build_system(config.load_config(str(path))))
