"""Batch command-line front end.

Each command reads one experiment config file, runs the pipeline, and
writes CSV data plus JSON reports into the configured output directory.
Every run also writes a manifest with the config hash, package and
library versions, and wall time.  Exit codes: 0 ok, 1 config error,
2 invalid system, 3 non-convergence, 4 tolerance failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time

import numpy as np

from . import __version__, constants, grid, noise, response, sequence, transfer
from .config import (
    ExperimentConfig,
    _as_float,
    _as_int,
    _get,
    build_drift,
    build_kick,
    build_map,
    build_noise,
    build_system,
    load_config,
)
from .errors import (
    ConfigError,
    DegreeMismatch,
    DimensionMismatch,
    KickTooLarge,
    MNotFound,
    NoConvergence,
    NotConverged,
    NotExpanding,
    TailNotSmall,
)
from .grid import DensityGrid

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_INVALID = 2
EXIT_NO_CONVERGENCE = 3
EXIT_TOLERANCE = 4


def _config_digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_manifest(cfg: ExperimentConfig, command: str, outputs: list, t0: float) -> str:
    path = os.path.join(cfg.output_dir, "manifest.json")
    _write_json(
        path,
        {
            "command": command,
            "config": cfg.path,
            "config_sha256": _config_digest(cfg.path),
            "seqresponse_version": __version__,
            "numpy_version": np.__version__,
            "python_version": sys.version.split()[0],
            "wall_time_s": round(time.monotonic() - t0, 3),
            "outputs": sorted(outputs),
        },
    )
    return path


def _emit_gnuplot(cfg: ExperimentConfig, csv_files: list, title: str) -> None:
    lines = ["set datafile separator ','", "set key outside", f"set title '{title}'"]
    plots = ", ".join(
        f"'{os.path.basename(f)}' using 1:2 with lines title '{os.path.basename(f)}'"
        for f in csv_files
    )
    lines.append(f"plot {plots}")
    with open(os.path.join(cfg.output_dir, "plot.gp"), "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _seed_density(cfg: ExperimentConfig, section: str, zero_mass: bool) -> DensityGrid:
    csv = _get(cfg.raw, section, "seed_csv", None)
    if csv is not None:
        return grid.read_density_csv(csv)
    k = _as_int(_get(cfg.raw, section, "harmonic", "1"), f"{section}.harmonic")
    x = np.arange(cfg.n_points) / cfg.n_points
    wave = np.cos(2 * np.pi * k * x)
    return DensityGrid(wave if zero_mass else 1.0 + 0.5 * wave)


def _tail_constants(cfg: ExperimentConfig) -> tuple[float, float]:
    c = _get(cfg.raw, "experiment", "tail_c", None)
    rate = _get(cfg.raw, "experiment", "tail_rate", None)
    if c is not None and rate is not None:
        c, rate = _as_float(c, "experiment.tail_c"), _as_float(rate, "experiment.tail_rate")
        if not (c > 0.0 and 0.0 < rate < 1.0):
            raise ConfigError(f"need experiment.tail_c > 0 and 0 < tail_rate < 1, got {c}, {rate}")
        return c, rate
    if cfg.mode == "noisy":
        return constants.doeblin_certificate(build_noise(cfg))
    cert = constants.certify(build_map(cfg), cfg.n_points)
    return cert.elom_C, cert.elom_rate


def cmd_certify(cfg: ExperimentConfig, emit_gnuplot: bool, t0: float) -> int:
    cert = constants.certify(build_map(cfg), cfg.n_points)
    out = os.path.join(cfg.output_dir, "certificate.json")
    with open(out, "w") as fh:
        fh.write(cert.to_json() + "\n")
    _write_manifest(cfg, "certify", [out], t0)
    return EXIT_OK if cert.all_verified else EXIT_TOLERANCE


def _family_records(cfg: ExperimentConfig, fam, prefix: str):
    files, records = [], []
    for n in range(fam.n_lo, fam.n_hi + 1):
        name = f"{prefix}_{n:04d}.csv"
        path = os.path.join(cfg.output_dir, name)
        grid.write_density_csv(path, fam.density(n))
        files.append(path)
        records.append(
            {
                "n": n,
                "file": name,
                "mass": grid.mass(fam.density(n)),
                "w11_norm": grid.norm_w11(fam.density(n)),
                "residual": fam.convergence_residual,
            }
        )
    return files, records


def cmd_equivariant(cfg: ExperimentConfig, emit_gnuplot: bool, t0: float, two_seed: bool) -> int:
    sys_ = build_system(cfg)
    seed = DensityGrid.constant(1.0, cfg.n_points)
    fam = sequence.pullback_equivariant(sys_, cfg.burn_in, seed, tol=cfg.pullback_tol)
    files, records = _family_records(cfg, fam, "mu")
    report = {"burn_in": fam.burn_in, "residual": fam.convergence_residual, "family": records}
    if two_seed:
        alt = _seed_density(cfg, "equivariant", zero_mass=False)
        fam_b = sequence.pullback_equivariant(sys_, cfg.burn_in, alt, tol=cfg.pullback_tol)
        gap = max(grid.norm_l1(a - b) for a, b in zip(fam.densities, fam_b.densities))
        report["two_seed_l1_gap"] = gap
    out = os.path.join(cfg.output_dir, "family.json")
    _write_json(out, report)
    if emit_gnuplot:
        _emit_gnuplot(cfg, files, "equivariant family")
    _write_manifest(cfg, "equivariant", files + [out], t0)
    return EXIT_OK


def cmd_memory(cfg: ExperimentConfig, emit_gnuplot: bool, t0: float) -> int:
    sys_ = build_system(cfg)
    v = grid.project_zero_mass(_seed_density(cfg, "memory", zero_mass=True))
    k_max = _as_int(_get(cfg.raw, "memory", "k_max", "12"), "memory.k_max")
    start = _as_int(_get(cfg.raw, "memory", "start", str(cfg.window[0])), "memory.start")
    md = sequence.memory_decay(sys_, v, start, k_max)
    out_csv = os.path.join(cfg.output_dir, "decay.csv")
    with open(out_csv, "w") as fh:
        fh.write("k,w11,l1\n")
        for k, w11, l1 in md.records:
            fh.write(f"{int(k)},{float(w11)!r},{float(l1)!r}\n")
    out_json = os.path.join(cfg.output_dir, "memory.json")
    _write_json(out_json, {"fitted_rate": md.fitted_rate, "k_max": k_max, "start": start})
    if emit_gnuplot:
        _emit_gnuplot(cfg, [out_csv], "loss of memory")
    _write_manifest(cfg, "memory", [out_csv, out_json], t0)
    return EXIT_OK


def cmd_respond(cfg: ExperimentConfig, emit_gnuplot: bool, t0: float) -> int:
    sys_ = build_system(cfg)
    seed = DensityGrid.constant(1.0, cfg.n_points)
    fam = sequence.pullback_equivariant(sys_, cfg.burn_in, seed, tol=cfg.pullback_tol)
    g = response.forcing(sys_, fam)
    tail_tol = _get(cfg.raw, "experiment", "tail_tol", None)
    rep = response.neumann_response(
        sys_,
        fam,
        g,
        cfg.truncation,
        _tail_constants(cfg),
        tol=_as_float(tail_tol, "experiment.tail_tol") if tail_tol is not None else None,
    )
    files = []
    for n in range(rep.n_lo, rep.n_hi + 1):
        path = os.path.join(cfg.output_dir, f"eta_{n:04d}.csv")
        grid.write_density_csv(path, rep.eta(n))
        files.append(path)
    report = {
        "truncation_order": rep.truncation_order,
        "tail_bound": rep.tail_bound,
        "max_mass_defect": rep.max_mass_defect,
        "resolvent_residual": response.resolvent_residual(sys_, rep, g),
    }
    out_json = os.path.join(cfg.output_dir, "response.json")
    code = EXIT_OK
    if cfg.eps_list:
        fd = response.finite_difference_response(
            sys_, cfg.eps_list, cfg.burn_in, seed, base_family=fam, tol=cfg.pullback_tol
        )
        summary = response.validate(rep, fd, tol=cfg.tolerance)
        with open(os.path.join(cfg.output_dir, "validation.json"), "w") as fh:
            fh.write(summary.to_json() + "\n")
        files.append(os.path.join(cfg.output_dir, "validation.json"))
        report["validation_pass"] = summary.passed
        if not summary.passed:
            code = EXIT_TOLERANCE
    _write_json(out_json, report)
    if emit_gnuplot:
        _emit_gnuplot(cfg, [f for f in files if f.endswith(".csv")], "response")
    _write_manifest(cfg, "respond", files + [out_json], t0)
    return code


def cmd_simulate(cfg: ExperimentConfig, emit_gnuplot: bool, t0: float) -> int:
    if cfg.mode != "noisy":
        raise ConfigError("simulate requires experiment.mode = noisy")
    drift = build_drift(cfg, build_map(cfg))
    q = build_noise(cfg)
    steps = _as_int(_get(cfg.raw, "simulate", "steps", "5"), "simulate.steps")
    samples = _as_int(_get(cfg.raw, "simulate", "samples", "100000"), "simulate.samples")
    bins = _as_int(_get(cfg.raw, "simulate", "bins", "64"), "simulate.bins")
    eps = _as_float(_get(cfg.raw, "simulate", "eps", "0.0"), "simulate.eps")
    if samples < 10**4:
        raise ConfigError(f"simulate.samples must be >= 1e4, got {samples}")
    if bins < 1 or cfg.n_points % bins != 0:
        raise ConfigError(f"simulate.bins must divide experiment.n = {cfg.n_points}, got {bins}")
    hist = noise.simulate_marginal(drift, eps, q, steps, samples, seed=cfg.seed, n_bins=bins)
    out_csv = os.path.join(cfg.output_dir, "histogram.csv")
    hist.write_csv(out_csv)
    a = noise.build_kernel(drift, eps, q, cfg.n_points)
    f = DensityGrid.constant(1.0, cfg.n_points)
    for _ in range(steps):
        f = transfer.apply(a, f)
    binned = noise.bin_density(f, bins)
    l1 = float(np.mean(np.abs(hist.density - binned)))
    out_json = os.path.join(cfg.output_dir, "simulate.json")
    _write_json(
        out_json,
        {"steps": steps, "samples": samples, "bins": bins, "eps": eps, "seed": cfg.seed, "l1_vs_operator": l1},
    )
    if emit_gnuplot:
        _emit_gnuplot(cfg, [out_csv], "simulated marginal")
    _write_manifest(cfg, "simulate", [out_csv, out_json], t0)
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="seqresponse",
        description="Equivariant densities, loss of memory, and linear response for sequential circle dynamics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("certify", "equivariant", "memory", "respond", "simulate"):
        p = sub.add_parser(name)
        p.add_argument("config", help="experiment config file")
        p.add_argument("--emit-gnuplot", action="store_true", help="write a plot script beside the CSVs")
        if name == "equivariant":
            p.add_argument("--two-seed", action="store_true", help="rerun from a second seed and report the gap")
    args = parser.parse_args(argv)
    t0 = time.monotonic()
    try:
        cfg = load_config(args.config)
        os.makedirs(cfg.output_dir, exist_ok=True)
        if args.command == "certify":
            return cmd_certify(cfg, args.emit_gnuplot, t0)
        if args.command == "equivariant":
            return cmd_equivariant(cfg, args.emit_gnuplot, t0, args.two_seed)
        if args.command == "memory":
            return cmd_memory(cfg, args.emit_gnuplot, t0)
        if args.command == "respond":
            return cmd_respond(cfg, args.emit_gnuplot, t0)
        return cmd_simulate(cfg, args.emit_gnuplot, t0)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NotExpanding, KickTooLarge, DegreeMismatch, DimensionMismatch, ValueError) as exc:
        print(f"invalid system: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (NotConverged, NoConvergence, MNotFound) as exc:
        print(f"did not converge: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except TailNotSmall as exc:
        print(f"tolerance failure: {exc}", file=sys.stderr)
        return EXIT_TOLERANCE


if __name__ == "__main__":
    raise SystemExit(main())
