"""Experiment config files: named sections with key = value lines.

A config fully determines an experiment; the command line only selects
the command and points at the file.  Coefficient lists use `k:a:b`
triples (harmonic index, cosine amplitude, sine amplitude) separated by
commas.  Map sections may be referenced by name from the schedule
section, e.g. `maps = map.a, map.b`.

Example::

    [experiment]
    mode = deterministic
    n = 256
    window = 0, 12
    burn_in = 60
    eps = 1e-2, 3e-3, 1e-3
    seed = 7
    output_dir = out

    [reference_map]
    degree = 2

    [kick]
    coeffs = 1:0.0:0.159154943

    [schedule]
    kind = constant
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field

import numpy as np

from . import grid as gridmod
from .errors import ConfigError
from .maps import CircleMap, KickField
from .noise import DriftMap, NoiseDensity
from .sequence import (
    DeterministicEntry,
    NoisyEntry,
    SequenceSystem,
    constant_schedule,
    periodic_schedule,
    seeded_random_schedule,
)

MODES = ("deterministic", "noisy")
SCHEDULE_KINDS = ("constant", "periodic", "seeded_random")


@dataclass(frozen=True)
class ExperimentConfig:
    """Parsed and validated experiment description."""

    path: str
    mode: str
    n_points: int
    window: tuple
    burn_in: int
    eps_list: tuple
    seed: int
    output_dir: str
    truncation: int
    tolerance: float
    pullback_tol: float
    raw: configparser.ConfigParser = field(repr=False, compare=False)


def _require(parser: configparser.ConfigParser, section: str, key: str) -> str:
    if not parser.has_section(section):
        raise ConfigError(f"missing section [{section}]")
    value = parser.get(section, key, fallback=None)
    if value is None:
        raise ConfigError(f"missing field {section}.{key}")
    return value.strip()


def _get(parser, section, key, default):
    if parser.has_section(section) and parser.get(section, key, fallback=None) is not None:
        return parser.get(section, key).strip()
    return default


def _as_int(value, where):
    try:
        return int(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{where} must be an integer, got {value!r}") from None


def _as_float(value, where):
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{where} must be a number, got {value!r}") from None


def parse_coeff_triples(text: str, where: str) -> tuple[tuple, tuple]:
    """`k:a:b` triples -> (cos_coeffs, sin_coeffs), dense up to max k."""
    cos: dict = {}
    sin: dict = {}
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        parts = item.split(":")
        if len(parts) != 3:
            raise ConfigError(f"{where}: expected k:a:b triple, got {item!r}")
        k = _as_int(parts[0], where)
        if k < 0:
            raise ConfigError(f"{where}: harmonic index must be >= 0")
        cos[k] = _as_float(parts[1], where)
        sin[k] = _as_float(parts[2], where)
    if not cos:
        return (), ()
    kmax = max(cos)
    return (
        tuple(cos.get(k, 0.0) for k in range(kmax + 1)),
        tuple(sin.get(k, 0.0) for k in range(kmax + 1)),
    )


def load_config(path: str) -> ExperimentConfig:
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    mode = _require(parser, "experiment", "mode")
    if mode not in MODES:
        raise ConfigError(f"experiment.mode must be one of {MODES}, got {mode!r}")
    n = _as_int(_require(parser, "experiment", "n"), "experiment.n")
    if n < gridmod.MIN_POINTS or n % 2 != 0:
        raise ConfigError(f"experiment.n must be even and >= {gridmod.MIN_POINTS}, got {n}")
    window_text = _get(parser, "experiment", "window", "0, 10").split(",")
    if len(window_text) != 2:
        raise ConfigError("experiment.window must be two comma-separated integers")
    window = (
        _as_int(window_text[0], "experiment.window"),
        _as_int(window_text[1], "experiment.window"),
    )
    if window[1] < window[0]:
        raise ConfigError(f"experiment.window must have hi >= lo, got {window}")
    eps_text = _get(parser, "experiment", "eps", "")
    eps_list = tuple(
        _as_float(e, "experiment.eps") for e in eps_text.split(",") if e.strip()
    )
    if 0.0 in eps_list:
        raise ConfigError("experiment.eps entries must be nonzero")
    burn_in = _as_int(_get(parser, "experiment", "burn_in", "60"), "experiment.burn_in")
    truncation = _as_int(_get(parser, "experiment", "truncation", "8"), "experiment.truncation")
    if burn_in < 1 or truncation < 1:
        raise ConfigError(f"experiment.burn_in and truncation must be >= 1, got {burn_in}, {truncation}")
    return ExperimentConfig(
        path=str(path),
        mode=mode,
        n_points=n,
        window=window,
        burn_in=burn_in,
        eps_list=eps_list,
        seed=_as_int(_get(parser, "experiment", "seed", "0"), "experiment.seed"),
        output_dir=_get(parser, "experiment", "output_dir", "out"),
        truncation=truncation,
        tolerance=_as_float(_get(parser, "experiment", "tolerance", "1e-2"), "experiment.tolerance"),
        pullback_tol=_as_float(
            _get(parser, "experiment", "pullback_tol", "1e-8"), "experiment.pullback_tol"
        ),
        raw=parser,
    )


def build_map(cfg: ExperimentConfig, section: str = "reference_map") -> CircleMap:
    degree = _as_int(_require(cfg.raw, section, "degree"), f"{section}.degree")
    coeffs = _get(cfg.raw, section, "coeffs", "")
    cos, sin = parse_coeff_triples(coeffs, f"{section}.coeffs")
    return CircleMap(degree, cos_coeffs=cos, sin_coeffs=sin)


def build_kick(cfg: ExperimentConfig) -> KickField:
    coeffs = _get(cfg.raw, "kick", "coeffs", "")
    cos, sin = parse_coeff_triples(coeffs, "kick.coeffs")
    return KickField(cos_coeffs=cos, sin_coeffs=sin)


def build_noise(cfg: ExperimentConfig) -> NoiseDensity:
    preset = _get(cfg.raw, "noise", "preset", None)
    csv = _get(cfg.raw, "noise", "csv", None)
    if preset is None and csv is None:
        raise ConfigError("missing field noise.preset (or noise.csv)")
    if csv is not None:
        return NoiseDensity(gridmod.read_density_csv(csv))
    if preset == "uniform":
        return NoiseDensity.uniform(cfg.n_points)
    if preset.startswith("bump:"):
        parts = preset[len("bump:") :].split(",")
        if len(parts) != 3:
            raise ConfigError("noise.preset bump wants bump:center,width,floor")
        c, w, f = (_as_float(p, "noise.preset") for p in parts)
        return NoiseDensity.bump(c, w, f, cfg.n_points)
    raise ConfigError(f"unknown noise preset {preset!r}")


def build_drift(cfg: ExperimentConfig, base: CircleMap) -> DriftMap:
    dot_text = _get(cfg.raw, "drift", "dot", "")
    cos, sin = parse_coeff_triples(dot_text, "drift.dot")
    if not cos:
        return DriftMap(base=base)
    x = np.arange(cfg.n_points) / cfg.n_points
    dot = np.full(cfg.n_points, cos[0])
    for k in range(1, len(cos)):
        dot = dot + cos[k] * np.cos(2 * np.pi * k * x) + sin[k] * np.sin(2 * np.pi * k * x)
    return DriftMap(base=base, dot=dot)


def _entry_for_map(cfg: ExperimentConfig, section: str, key: str):
    t = build_map(cfg, section)
    if cfg.mode == "deterministic":
        return DeterministicEntry(map=t, kick=build_kick(cfg), key=key)
    return NoisyEntry(drift=build_drift(cfg, t), noise=build_noise(cfg), key=key)


def build_system(cfg: ExperimentConfig, eps: float = 0.0) -> SequenceSystem:
    kind = _get(cfg.raw, "schedule", "kind", "constant")
    if kind not in SCHEDULE_KINDS:
        raise ConfigError(f"schedule.kind must be one of {SCHEDULE_KINDS}, got {kind!r}")
    if kind == "constant":
        schedule = constant_schedule(_entry_for_map(cfg, "reference_map", "reference_map"))
    else:
        names = [s.strip() for s in _require(cfg.raw, "schedule", "maps").split(",") if s.strip()]
        if not names:
            raise ConfigError("schedule.maps must list at least one map section")
        entries = [_entry_for_map(cfg, name, name) for name in names]
        if kind == "periodic":
            schedule = periodic_schedule(entries)
        else:
            sched_seed = _as_int(_get(cfg.raw, "schedule", "seed", str(cfg.seed)), "schedule.seed")
            schedule = seeded_random_schedule(entries, sched_seed)
    return SequenceSystem(schedule, cfg.window, eps=eps, n_points=cfg.n_points)
