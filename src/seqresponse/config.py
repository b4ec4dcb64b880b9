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
from .maps import MAX_COEFF_INDEX, CircleMap, TrigPoly
from .noise import DriftMap, NoiseDensity
from .sequence import (
    DEFAULT_PULLBACK_TOL,
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


def _as_seed(value, where):
    seed = _as_int(value, where)
    if not 0 <= seed < 2**63:
        raise ConfigError(f"{where} must be an integer in [0, 2**63), got {seed}")
    return seed


def _as_tolerance(value, where):
    tol = _as_float(value, where)
    if not 0.0 < tol < np.inf:  # NaN fails too
        raise ConfigError(f"{where} must be finite and > 0, got {tol!r}")
    return tol


def parse_coeff_triples(text: str, where: str) -> tuple[tuple, tuple]:
    """`k:a:b` triples, each k at most once and b = 0 at k = 0 -> (cos_coeffs, sin_coeffs), dense up to max k."""
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
        if not 0 <= k <= MAX_COEFF_INDEX:
            raise ConfigError(f"{where}: harmonic index must be in [0, {MAX_COEFF_INDEX}], got {k}")
        if k in cos:
            raise ConfigError(f"{where}: harmonic index {k} is given twice")
        cos[k], sin[k] = _as_float(parts[1], where), _as_float(parts[2], where)
        if not (np.isfinite(cos[k]) and np.isfinite(sin[k])):
            raise ConfigError(f"{where}: coefficients must be finite, got {item!r}")
        if k == 0 and sin[k] != 0.0:
            raise ConfigError(f"{where}: harmonic 0 has no sine term, give 0:a:0, got {item!r}")
    ks = range(max(cos, default=-1) + 1)
    return tuple(cos.get(k, 0.0) for k in ks), tuple(sin.get(k, 0.0) for k in ks)


def load_config(path: str) -> ExperimentConfig:
    parser = configparser.ConfigParser(interpolation=None)  # a % in a value is literal
    try:
        read = parser.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        message = " ".join(str(exc).splitlines())  # configparser's messages span lines; stderr gets one
        raise ConfigError(f"cannot parse config file {path}: {message}") from None
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
    if not all(e != 0.0 and np.isfinite(e) for e in eps_list):
        raise ConfigError(f"experiment.eps entries must be finite and nonzero, got {eps_list}")
    repeated = [e for i, e in enumerate(eps_list) if e in eps_list[:i]]
    if repeated:
        raise ConfigError(f"experiment.eps entry {repeated[0]!r} is given twice")
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
        seed=_as_seed(_get(parser, "experiment", "seed", "0"), "experiment.seed"),
        output_dir=_get(parser, "experiment", "output_dir", "out"),
        truncation=truncation,
        tolerance=_as_tolerance(_get(parser, "experiment", "tolerance", "1e-2"), "experiment.tolerance"),
        pullback_tol=_as_tolerance(
            _get(parser, "experiment", "pullback_tol", DEFAULT_PULLBACK_TOL), "experiment.pullback_tol"
        ),
        raw=parser,
    )


def read_seed(cfg: ExperimentConfig, section: str, zero_mass: bool) -> np.ndarray:
    """`section.seed_csv` if set, else cos(2 pi k x) with k = `section.harmonic`, plus 1 unless zero_mass.

    A seed file must be a density file on the experiment's grid and,
    unless zero_mass, have mass 1 within 1e-10.  A harmonic that is a
    multiple of n samples to the constant 1, so it is rejected.
    """
    csv = _get(cfg.raw, section, "seed_csv", None)
    if csv is not None and cfg.raw.has_option(section, "harmonic"):
        raise ConfigError(f"{section}.seed_csv and {section}.harmonic are exclusive; set one of them")
    if csv is not None:
        where = f"{section}.seed_csv"
        try:
            seed = gridmod.read_density_csv(csv, cfg.n_points)
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from None
        mass = float(gridmod.mass(seed))
        if not (zero_mass or abs(mass - 1.0) <= 1e-10):
            raise ConfigError(f"{where} must have mass 1 within 1e-10, got {mass!r}")
        return seed
    k = _as_int(_get(cfg.raw, section, "harmonic", "1"), f"{section}.harmonic")
    if k % cfg.n_points == 0:
        raise ConfigError(f"{section}.harmonic must not be a multiple of experiment.n = {cfg.n_points}, got {k}")
    x = np.arange(cfg.n_points) / cfg.n_points
    wave = np.cos(2 * np.pi * k * x)
    return wave if zero_mass else 1.0 + 0.5 * wave


def read_tail(cfg: ExperimentConfig) -> tuple[tuple[float, float] | None, float | None]:
    """((tail_c, tail_rate) or None when neither is set, tail_tol or None) from [experiment]."""
    c = _get(cfg.raw, "experiment", "tail_c", None)
    rate = _get(cfg.raw, "experiment", "tail_rate", None)
    if (c is None) != (rate is None):
        raise ConfigError("experiment.tail_c and experiment.tail_rate must be set together")
    constants = None
    if c is not None:
        c, rate = _as_float(c, "experiment.tail_c"), _as_float(rate, "experiment.tail_rate")
        if not (0.0 < c < np.inf and 0.0 < rate < 1.0):
            raise ConfigError(f"need finite experiment.tail_c > 0 and 0 < tail_rate < 1, got {c}, {rate}")
        constants = (c, rate)
    tol = _get(cfg.raw, "experiment", "tail_tol", None)
    return constants, (_as_tolerance(tol, "experiment.tail_tol") if tol is not None else None)


def read_memory(cfg: ExperimentConfig) -> tuple[int, int]:
    """(k_max, start) from [memory]; start defaults to the window's low end."""
    k_max = _as_int(_get(cfg.raw, "memory", "k_max", "12"), "memory.k_max")
    if k_max < 1:
        raise ConfigError(f"memory.k_max must be >= 1, got {k_max}")
    start = _as_int(_get(cfg.raw, "memory", "start", str(cfg.window[0])), "memory.start")
    return k_max, start


def read_simulate(cfg: ExperimentConfig) -> tuple[int, int, int, float]:
    """(steps, samples, bins, eps) from [simulate], for a noisy experiment."""
    if cfg.mode != "noisy":
        raise ConfigError("simulate requires experiment.mode = noisy")
    steps = _as_int(_get(cfg.raw, "simulate", "steps", "5"), "simulate.steps")
    samples = _as_int(_get(cfg.raw, "simulate", "samples", "100000"), "simulate.samples")
    bins = _as_int(_get(cfg.raw, "simulate", "bins", "64"), "simulate.bins")
    eps = _as_float(_get(cfg.raw, "simulate", "eps", "0.0"), "simulate.eps")
    if steps < 0:
        raise ConfigError(f"simulate.steps must be >= 0, got {steps}")
    if samples < 10**4:
        raise ConfigError(f"simulate.samples must be >= 1e4, got {samples}")
    if not np.isfinite(eps):
        raise ConfigError(f"simulate.eps must be finite, got {eps!r}")
    if bins < 1 or cfg.n_points % bins != 0:
        raise ConfigError(f"simulate.bins must divide experiment.n = {cfg.n_points}, got {bins}")
    return steps, samples, bins, eps


def _coeffs(cfg: ExperimentConfig, section: str, key: str) -> tuple[tuple, tuple]:
    """(cos_coeffs, sin_coeffs) of the `k:a:b` list `section.key`; empty when unset."""
    return parse_coeff_triples(_get(cfg.raw, section, key, ""), f"{section}.{key}")


def build_map(cfg: ExperimentConfig, section: str = "reference_map") -> CircleMap:
    degree = _as_int(_require(cfg.raw, section, "degree"), f"{section}.degree")
    return CircleMap(degree, *_coeffs(cfg, section, "coeffs"))


def build_noise(cfg: ExperimentConfig) -> NoiseDensity:
    preset = _get(cfg.raw, "noise", "preset", None)
    csv = _get(cfg.raw, "noise", "csv", None)
    if (preset is None) == (csv is None):
        raise ConfigError("set exactly one of noise.preset and noise.csv")
    if csv is not None:
        try:
            return NoiseDensity(gridmod.read_density_csv(csv, cfg.n_points))
        except ValueError as exc:
            raise ConfigError(f"noise.csv: {exc}") from None
    if preset == "uniform":
        return NoiseDensity.uniform(cfg.n_points)
    if preset.startswith("bump:"):
        parts = preset[len("bump:") :].split(",")
        if len(parts) != 3:
            raise ConfigError("noise.preset bump wants bump:center,width,floor")
        c, w, f = (_as_float(p, "noise.preset") for p in parts)
        try:
            return NoiseDensity.bump(c, w, f, cfg.n_points)
        except ValueError as exc:
            raise ConfigError(f"noise.preset: {exc}") from None
    raise ConfigError(f"unknown noise preset {preset!r}")


def _entries(cfg: ExperimentConfig, sections: list) -> list:
    """One schedule entry per map section; the entries share one kick, or one fdot and noise density."""
    maps = [build_map(cfg, s) for s in sections]
    if cfg.mode == "deterministic":
        kick = TrigPoly(*_coeffs(cfg, "kick", "coeffs"))
        return [DeterministicEntry(map=m, kick=kick) for m in maps]
    dot, q = TrigPoly(*_coeffs(cfg, "drift", "dot")), build_noise(cfg)
    return [NoisyEntry(drift=DriftMap(base=m, dot=dot), noise=q) for m in maps]


def schedule_sections(cfg: ExperimentConfig) -> tuple[str, list]:
    """(kind, map section names) from [schedule]; a constant schedule runs [reference_map]."""
    kind = _get(cfg.raw, "schedule", "kind", "constant")
    if kind not in SCHEDULE_KINDS:
        raise ConfigError(f"schedule.kind must be one of {SCHEDULE_KINDS}, got {kind!r}")
    if kind == "constant":
        return kind, ["reference_map"]
    names = [s.strip() for s in _require(cfg.raw, "schedule", "maps").split(",") if s.strip()]
    if not names:
        raise ConfigError("schedule.maps must list at least one map section")
    return kind, names


def build_system(cfg: ExperimentConfig, eps: float = 0.0) -> SequenceSystem:
    kind, sections = schedule_sections(cfg)
    entries = _entries(cfg, sections)
    if kind == "constant":
        schedule = constant_schedule(entries[0])
    elif kind == "periodic":
        schedule = periodic_schedule(entries)
    else:
        sched_seed = _as_seed(_get(cfg.raw, "schedule", "seed", str(cfg.seed)), "schedule.seed")
        schedule = seeded_random_schedule(entries, sched_seed)
    return SequenceSystem(schedule, cfg.window, cfg.n_points, eps)
