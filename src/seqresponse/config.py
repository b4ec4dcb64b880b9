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


_REQUIRED = object()  # the default of a key that must be set


def _read(raw: configparser.ConfigParser, key: str, parse, default=_REQUIRED):
    """The value of `key` ("section.key") in raw, parsed by `parse`; `default` when unset.

    parse(text) raises ValueError(reason) on a bad value, or OSError on
    a file it cannot read; either becomes ConfigError("key: reason").  A
    key without default must be set: its absence reports the missing
    section or field.
    """
    section, _, name = key.rpartition(".")
    text = raw.get(section, name, fallback=None)
    if text is None and default is _REQUIRED:
        raise ConfigError(f"missing field {key}" if raw.has_section(section) else f"missing section [{section}]")
    if text is None:
        return default
    try:
        return parse(text.strip())
    except (ValueError, OSError) as exc:
        raise ConfigError(f"{key}: {exc}") from None


def _checked(convert, ok, what: str):
    """The parse convert(text), which must satisfy ok, else ValueError("must be <what>, got <value>")."""

    def parse(text: str):
        value = convert(text)
        if not ok(value):
            raise ValueError(f"must be {what}, got {value!r}")
        return value

    return parse


def _one_of(choices: tuple):
    return _checked(str, lambda s: s in choices, f"one of {choices}")


_GRID_SIZE = _checked(int, lambda n: n >= gridmod.MIN_POINTS and n % 2 == 0, f"even and >= {gridmod.MIN_POINTS}")
_SEED = _checked(int, lambda s: 0 <= s < 2**63, "in [0, 2**63)")
_POSITIVE_FINITE = _checked(float, lambda t: 0.0 < t < np.inf, "finite and > 0")  # NaN fails too
_AT_LEAST_1 = _checked(int, lambda k: k >= 1, ">= 1")


def _coeff_triples(text: str) -> tuple[tuple, tuple]:
    """`k:a:b` triples, each k at most once and b = 0 at k = 0 -> (cos_coeffs, sin_coeffs), dense up to max k."""
    cos: dict = {}
    sin: dict = {}
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        parts = item.split(":")
        if len(parts) != 3:
            raise ValueError(f"expected k:a:b triple, got {item!r}")
        k = int(parts[0])
        if not 0 <= k <= MAX_COEFF_INDEX:
            raise ValueError(f"harmonic index must be in [0, {MAX_COEFF_INDEX}], got {k}")
        if k in cos:
            raise ValueError(f"harmonic index {k} is given twice")
        cos[k], sin[k] = float(parts[1]), float(parts[2])
        if not (np.isfinite(cos[k]) and np.isfinite(sin[k])):
            raise ValueError(f"coefficients must be finite, got {item!r}")
        if k == 0 and sin[k] != 0.0:
            raise ValueError(f"harmonic 0 has no sine term, give 0:a:0, got {item!r}")
    ks = range(max(cos, default=-1) + 1)
    return tuple(cos.get(k, 0.0) for k in ks), tuple(sin.get(k, 0.0) for k in ks)


def _window(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError("must be two comma-separated integers")
    window = int(parts[0]), int(parts[1])
    if window[1] < window[0]:
        raise ValueError(f"must have hi >= lo, got {window}")
    return window


def _eps_list(text: str) -> tuple:
    eps_list = tuple(float(e) for e in text.split(",") if e.strip())
    if not all(e != 0.0 and np.isfinite(e) for e in eps_list):
        raise ValueError(f"entries must be finite and nonzero, got {eps_list}")
    repeated = [e for i, e in enumerate(eps_list) if e in eps_list[:i]]
    if repeated:
        raise ValueError(f"entry {repeated[0]!r} is given twice")
    return eps_list


def load_config(path: str) -> ExperimentConfig:
    parser = configparser.ConfigParser(interpolation=None)  # a % in a value is literal
    try:
        read = parser.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        message = " ".join(str(exc).splitlines())  # configparser's messages span lines; stderr gets one
        raise ConfigError(f"cannot parse config file {path}: {message}") from None
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    return ExperimentConfig(
        path=str(path),
        mode=_read(parser, "experiment.mode", _one_of(MODES)),
        n_points=_read(parser, "experiment.n", _GRID_SIZE),
        window=_read(parser, "experiment.window", _window, (0, 10)),
        burn_in=_read(parser, "experiment.burn_in", _checked(int, lambda b: b >= 2, ">= 2"), 60),
        eps_list=_read(parser, "experiment.eps", _eps_list, ()),
        seed=_read(parser, "experiment.seed", _SEED, 0),
        output_dir=_read(parser, "experiment.output_dir", str, "out"),
        truncation=_read(parser, "experiment.truncation", _AT_LEAST_1, 8),
        tolerance=_read(parser, "experiment.tolerance", _POSITIVE_FINITE, 1e-2),
        pullback_tol=_read(parser, "experiment.pullback_tol", _POSITIVE_FINITE, DEFAULT_PULLBACK_TOL),
        raw=parser,
    )


def read_seed(cfg: ExperimentConfig, section: str, zero_mass: bool) -> np.ndarray:
    """`section.seed_csv` if set, else cos(2 pi k x) with k = `section.harmonic`, plus 1 unless zero_mass.

    A seed file must be a density file on the experiment's grid and,
    unless zero_mass, have mass 1 within 1e-10.  A harmonic that is a
    multiple of n samples to the constant 1, so it is rejected.
    """

    def density(path: str) -> np.ndarray:
        seed = gridmod.read_density_csv(path, cfg.n_points)
        mass = float(gridmod.mass(seed))
        if not (zero_mass or abs(mass - 1.0) <= 1e-10):
            raise ValueError(f"must have mass 1 within 1e-10, got {mass!r}")
        return seed

    seed = _read(cfg.raw, f"{section}.seed_csv", density, None)
    k = _read(cfg.raw, f"{section}.harmonic", int, None)
    if seed is not None and k is not None:
        raise ConfigError(f"{section}.seed_csv and {section}.harmonic are exclusive; set one of them")
    if seed is not None:
        return seed
    k = 1 if k is None else k
    if k % cfg.n_points == 0:
        raise ConfigError(f"{section}.harmonic: must not be a multiple of experiment.n = {cfg.n_points}, got {k}")
    x = np.arange(cfg.n_points) / cfg.n_points
    wave = np.cos(2 * np.pi * k * x)
    return wave if zero_mass else 1.0 + 0.5 * wave


def read_respond(cfg: ExperimentConfig) -> tuple[tuple[float, float] | None, float | None]:
    """((tail_c, tail_rate) or None when neither is set, tail_tol or None) from [experiment].

    The series reports eta at depth truncation + 1 into the window, so
    the window must span at least that many steps.
    """
    lo, hi = cfg.window
    if hi - lo < cfg.truncation + 1:
        raise ConfigError(f"experiment.truncation: must be <= hi - lo - 1 = {hi - lo - 1} of experiment.window, got {cfg.truncation}")
    c = _read(cfg.raw, "experiment.tail_c", _POSITIVE_FINITE, None)
    rate = _read(cfg.raw, "experiment.tail_rate", _checked(float, lambda r: 0.0 < r < 1.0, "in (0, 1)"), None)
    if (c is None) != (rate is None):
        raise ConfigError("experiment.tail_c and experiment.tail_rate must be set together")
    constants = None if c is None else (c, rate)
    return constants, _read(cfg.raw, "experiment.tail_tol", _POSITIVE_FINITE, None)


def read_memory(cfg: ExperimentConfig) -> tuple[int, int]:
    """(k_max, start) from [memory]; start defaults to the window's low end."""
    return _read(cfg.raw, "memory.k_max", _AT_LEAST_1, 12), _read(cfg.raw, "memory.start", int, cfg.window[0])


def read_simulate(cfg: ExperimentConfig) -> tuple[int, int, int, float]:
    """(steps, samples, bins, eps) from [simulate], for a noisy experiment."""
    if cfg.mode != "noisy":
        raise ConfigError("simulate requires experiment.mode = noisy")
    steps = _read(cfg.raw, "simulate.steps", _checked(int, lambda s: s >= 0, ">= 0"), 5)
    samples = _read(cfg.raw, "simulate.samples", _checked(int, lambda s: s >= 10**4, ">= 1e4"), 100000)
    bins = _read(cfg.raw, "simulate.bins", _AT_LEAST_1, 64)
    if cfg.n_points % bins != 0:
        raise ConfigError(f"simulate.bins: must divide experiment.n = {cfg.n_points}, got {bins}")
    eps = _read(cfg.raw, "simulate.eps", _checked(float, np.isfinite, "finite"), 0.0)
    return steps, samples, bins, eps


def _coeffs(cfg: ExperimentConfig, section: str, key: str) -> tuple[tuple, tuple]:
    """(cos_coeffs, sin_coeffs) of the `k:a:b` list `section.key`; empty when unset."""
    return _read(cfg.raw, f"{section}.{key}", _coeff_triples, ((), ()))


def build_map(cfg: ExperimentConfig, section: str = "reference_map") -> CircleMap:
    return CircleMap(_read(cfg.raw, f"{section}.degree", int), *_coeffs(cfg, section, "coeffs"))


def _noise_preset(text: str, n_points: int) -> NoiseDensity:
    if text == "uniform":
        return NoiseDensity.uniform(n_points)
    if not text.startswith("bump:"):
        raise ValueError(f"unknown preset {text!r}")
    parts = text[len("bump:") :].split(",")
    if len(parts) != 3:
        raise ValueError("bump wants bump:center,width,floor")
    return NoiseDensity.bump(*map(float, parts), n_points)


def build_noise(cfg: ExperimentConfig) -> NoiseDensity:
    n = cfg.n_points
    preset = _read(cfg.raw, "noise.preset", lambda text: _noise_preset(text, n), None)
    csv = _read(cfg.raw, "noise.csv", lambda path: NoiseDensity(gridmod.read_density_csv(path, n)), None)
    if (preset is None) == (csv is None):
        raise ConfigError("set exactly one of noise.preset and noise.csv")
    return csv if preset is None else preset


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
    kind = _read(cfg.raw, "schedule.kind", _one_of(SCHEDULE_KINDS), "constant")
    if kind == "constant":
        return kind, ["reference_map"]
    names = _checked(lambda text: [s.strip() for s in text.split(",") if s.strip()], len, "a list of map sections")
    return kind, _read(cfg.raw, "schedule.maps", names)


def build_system(cfg: ExperimentConfig, eps: float = 0.0) -> SequenceSystem:
    kind, sections = schedule_sections(cfg)
    entries = _entries(cfg, sections)
    if kind == "constant":
        schedule = constant_schedule(entries[0])
    elif kind == "periodic":
        schedule = periodic_schedule(entries)
    else:
        schedule = seeded_random_schedule(entries, _read(cfg.raw, "schedule.seed", _SEED, cfg.seed))
    return SequenceSystem(schedule, cfg.window, cfg.n_points, eps)
