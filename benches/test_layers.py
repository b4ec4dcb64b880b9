"""Layer timings of the Monte Carlo sampler and the kernels it runs (pytest-benchmark).

Run from the root of a checkout; these tests time, they do not check, so
they are kept off the default test paths:

    PYTHONPATH=src python -m pytest benches/test_layers.py --benchmark-json=layers.json
    python benches/record.py BENCH_<n>.json parent=parent.json change=layers.json

The system is the noisy-1024 reference: N = 1024, drift
f(x) = 2x + 0.05 sin 2 pi x with fdot = sin 4 pi x sampled at the nodes,
bump noise (center 0.5, width 0.08, floor 0.3).  The kernels run on one
Monte Carlo block of points.
"""

import numpy as np
import pytest

from seqresponse import grid, noise
from seqresponse.maps import CircleMap
from seqresponse.noise import DriftMap, NoiseDensity

N = 1024
POINTS = noise.MC_BLOCK_SIZE


@pytest.fixture(autouse=True)
def sizes(benchmark):
    benchmark.extra_info.update(n_points=N, points=POINTS)


@pytest.fixture(scope="module")
def system():
    x = np.arange(N) / N
    drift = DriftMap(base=CircleMap(2, sin_coeffs=(0.0, 0.05)), dot=np.sin(4 * np.pi * x))
    return drift, NoiseDensity.bump(0.5, 0.08, 0.3, N)


@pytest.fixture(scope="module")
def uniforms():
    return np.random.Generator(np.random.Philox(key=(1, 0))).uniform(0.0, 1.0, POINTS)


def test_simulate_marginal(benchmark, system):
    drift, q = system
    benchmark.extra_info["points"] = 3 * 10**6  # samples times steps
    benchmark.pedantic(noise.simulate_marginal, (drift, 0.02, q, 3, 10**6, 1, 64), rounds=5, warmup_rounds=1)


def test_trigpoly(benchmark, system, uniforms):
    benchmark(system[0].base.p, uniforms)


def test_interpolate_values(benchmark, system, uniforms):
    benchmark(grid.interpolate_values, system[0].dot, uniforms)


def test_sample_noise(benchmark, system, uniforms):
    cdf = noise._inverse_cdf_table(system[1])
    benchmark(noise._sample_noise, cdf, noise._guide_table(cdf), uniforms)
