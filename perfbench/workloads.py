"""Workload definitions: seeded experiment configs and the CLI commands run on them.

Each workload is a fixed pipeline of `seqresponse` commands on one generated
config.  The seed only jitters map coefficients inside a box of expanding maps
near the reference map and picks the schedule and Monte Carlo seeds, so every
seed exercises the same layers with the same amount of work.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

KICK = "1:0.0:0.15915494309189535"  # X(x) = sin(2 pi x) / (2 pi)
REFERENCE = {(1, "b"): 0.05}  # T(x) = 2x + 0.05 sin(2 pi x), as (k, "a"|"b") -> coefficient
BASES = (  # the scheduled maps before jitter
    {(1, "b"): 0.05},
    {(1, "a"): 0.02, (1, "b"): 0.04, (2, "b"): 0.01},
    {(1, "b"): 0.04, (2, "a"): 0.005},
)
JITTER = 0.004  # each coefficient moves by at most this much
# The box the jittered maps stay in: min |l'| and C^2 distance from the reference.
MIN_EXPANSION = 1.5
MAX_C2_DISTANCE = 4.0
# Seeds map onto a pool of config variants, so reference outputs can be stored
# for each.  HELDOUT_SEED's variant was not run while the benchmark was tuned.
POOL = 3
HELDOUT_SEED = 2


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str
    n_points: int
    window: tuple
    schedule: str  # schedule.kind of the config
    n_maps: int  # scheduled maps besides the reference map
    commands: tuple  # each: command, then its flags after the config path
    experiment: tuple = ()  # extra [experiment] lines


WORKLOADS = {
    w.name: w
    for w in (
        # tail_c/tail_rate given, so respond does not run certify.
        Workload(
            "det-2048", "deterministic", 2048, (0, 12), "periodic", 2, (("respond",),),
            ("tail_c = 1.0", "tail_rate = 0.5"),
        ),
        # D(1e-3) is about 0.0127 here: the default tolerance 1e-2 would fail validation.
        Workload(
            "noisy-1024", "noisy", 1024, (0, 10), "constant", 0, (("respond",), ("simulate",)),
            ("tolerance = 2e-2",),
        ),
        # No tail constants, so respond runs certify a second time.
        Workload(
            "det-256-session", "deterministic", 256, (0, 300), "seeded_random", 3,
            (("certify",), ("equivariant", "--two-seed"), ("memory",), ("respond",)),
        ),
    )
}


def variant(seed: int) -> int:
    return seed % POOL


def _coeffs(values: dict) -> str:
    ks = sorted({k for k, _ in values})
    return ", ".join(f"{k}:{values.get((k, 'a'), 0.0)!r}:{values.get((k, 'b'), 0.0)!r}" for k in ks)


def _jittered(rng: random.Random, base: dict) -> dict:
    return {key: round(v + rng.uniform(-JITTER, JITTER), 6) for key, v in base.items()}


def make_config(name: str, seed: int, output_dir: str) -> str:
    """The .ini text of workload `name` for `seed`, writing into `output_dir`."""
    w = WORKLOADS[name]
    rng = random.Random(f"{name}/{variant(seed)}")
    maps = [_jittered(rng, REFERENCE)] + [_jittered(rng, BASES[i]) for i in range(w.n_maps)]
    lines = [
        "[experiment]",
        f"mode = {w.mode}",
        f"n = {w.n_points}",
        f"window = {w.window[0]}, {w.window[1]}",
        "burn_in = 60",
        "eps = 1e-2, 3e-3, 1e-3",
        f"seed = {rng.randrange(1, 2**31)}",
        f"output_dir = {output_dir}",
        *w.experiment,
    ]
    sections = ["reference_map"] + [f"map.{chr(ord('a') + i)}" for i in range(w.n_maps)]
    for section, coeffs in zip(sections, maps):
        lines += ["", f"[{section}]", "degree = 2", f"coeffs = {_coeffs(coeffs)}"]
    if w.mode == "noisy":
        lines += ["", "[drift]", "dot = 2:0.0:1.0", "", "[noise]", "preset = bump:0.5,0.08,0.3"]
        lines += ["", "[simulate]", "steps = 3", "samples = 1000000", "bins = 64", "eps = 0.02"]
    else:
        lines += ["", "[kick]", f"coeffs = {KICK}"]
    lines += ["", "[schedule]", f"kind = {w.schedule}"]
    if w.n_maps:
        lines.append(f"maps = {', '.join(sections[1:])}")
    if w.schedule == "seeded_random":
        lines.append(f"seed = {rng.randrange(1, 2**31)}")
    return "\n".join(lines) + "\n"
