"""Batch command-line front end.

Each command `cmd_<name>(cfg, args)` runs the pipeline of one experiment
config and writes CSV data plus JSON reports (all through `_write_json`)
into the configured output directory, and every run a manifest with the
config hash, package and library versions, and wall time.  Exit codes:
0 ok, 1 config error or bad command line, 2 invalid system, 3
non-convergence, 4 tolerance failure; a failed run exits with the
`exit_code` of its `errors` class.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from . import __version__, constants, grid, noise, response, sequence, transfer
from .config import (
    ExperimentConfig,
    build_map,
    build_system,
    load_config,
    read_memory,
    read_seed,
    read_simulate,
    read_respond,
    schedule_sections,
)
from .errors import ConfigError, SeqResponseError, TailNotSmall
from .maps import CircleMap, c2_distance

EXIT_OK = 0
EXIT_TOLERANCE = TailNotSmall.exit_code  # a failed validation or certificate exits like an over-tolerance tail
# The title of each command's plot.gp; a command without one writes no plot.
PLOT_TITLES = {
    "equivariant": "equivariant family",
    "memory": "loss of memory",
    "respond": "response",
    "simulate": "simulated marginal",
}


def _config_digest(path: str) -> str:
    # Imported here, not at the top, so OpenSSL (about 3.5 MiB of RSS) loads after the command's own work.  It
    # still sets the peak of a light command: noisy-1024's respond reads 31.7 MiB before it and 35.2 after.
    import hashlib
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _write_json(cfg: ExperimentConfig, name: str, payload: dict) -> str:
    """The JSON report `name` in the output directory, indent 2 with sorted keys; returns its path."""
    path = os.path.join(cfg.output_dir, name)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _write_manifest(cfg: ExperimentConfig, command: str, outputs: list, t0: float) -> str:
    return _write_json(
        cfg,
        "manifest.json",
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


def _emit_gnuplot(cfg: ExperimentConfig, csv_files: list, title: str) -> None:
    lines = ["set datafile separator ','", "set key outside", f"set title '{title}'"]
    plots = ", ".join(
        f"'{os.path.basename(f)}' using 1:2 with lines title '{os.path.basename(f)}'"
        for f in csv_files
    )
    lines.append(f"plot {plots}")
    with open(os.path.join(cfg.output_dir, "plot.gp"), "w") as fh:
        fh.write("\n".join(lines) + "\n")


def cmd_certify(cfg: ExperimentConfig, args: argparse.Namespace) -> tuple[int, list]:
    cert = constants.certify(build_map(cfg), cfg.n_points)
    return (EXIT_OK if cert.all_verified else EXIT_TOLERANCE), [_write_json(cfg, "certificate.json", cert.report())]


def _write_window(cfg: ExperimentConfig, w: sequence.Window, prefix: str) -> list:
    """One density file <prefix>_<n>.csv per row of w; returns their paths in index order."""
    files = []
    for n in range(w.n_lo, w.n_hi + 1):
        path = os.path.join(cfg.output_dir, f"{prefix}_{n:04d}.csv")
        grid.write_density_csv(path, w[n])
        files.append(path)
    return files


def _row_norms(norm, values: np.ndarray, minus: np.ndarray | None = None) -> np.ndarray:
    """norm of each row of values, less the same row of minus if given, in batches of at most RESIDUAL_BUDGET samples.

    Each row's norm has the bits it has in a norm of the whole block; the
    batches keep the norm's temporaries small, as in the pullback's residual.
    """
    step = max(1, sequence.RESIDUAL_BUDGET // values.shape[1])
    norms = []
    for lo in range(0, values.shape[0], step):
        rows = values[lo : lo + step]
        norms.append(norm(rows if minus is None else rows - minus[lo : lo + step]))
    return np.concatenate(norms)


def cmd_equivariant(cfg: ExperimentConfig, args: argparse.Namespace) -> tuple[int, list]:
    sys_ = build_system(cfg)
    seed = np.ones(cfg.n_points)
    fam, residual = sequence.pullback_equivariant(sys_, cfg.burn_in, seed, tol=cfg.pullback_tol)
    files = _write_window(cfg, fam, "mu")
    w11 = _row_norms(grid.norm_w11, fam.values)
    stats = zip(range(fam.n_lo, fam.n_hi + 1), files, grid.mass(fam.values).tolist(), w11.tolist())
    records = [
        {"n": n, "file": os.path.basename(path), "mass": mass, "w11_norm": w11, "residual": residual}
        for n, path, mass, w11 in stats
    ]
    report = {"burn_in": cfg.burn_in, "residual": residual, "family": records}
    if args.two_seed:
        alt = read_seed(cfg, "equivariant", zero_mass=False)
        fam_b, _ = sequence.pullback_equivariant(sys_, cfg.burn_in, alt, tol=cfg.pullback_tol)
        report["two_seed_l1_gap"] = float(np.max(_row_norms(grid.norm_l1, fam.values, fam_b.values)))
    return EXIT_OK, files + [_write_json(cfg, "family.json", report)]


def cmd_memory(cfg: ExperimentConfig, args: argparse.Namespace) -> tuple[int, list]:
    k_max, start = read_memory(cfg)
    sys_ = build_system(cfg)
    v = grid.project_zero_mass(read_seed(cfg, "memory", zero_mass=True))
    records, fitted_rate = sequence.memory_decay(sys_, v, start, k_max)
    out_csv = os.path.join(cfg.output_dir, "decay.csv")
    with open(out_csv, "w") as fh:
        fh.write("k,w11,l1\n")
        for k, w11, l1 in records:
            fh.write(f"{int(k)},{float(w11)!r},{float(l1)!r}\n")
    report = {"fitted_rate": fitted_rate, "k_max": k_max, "start": start}
    return EXIT_OK, [out_csv, _write_json(cfg, "memory.json", report)]


def _certified_ball(cfg: ExperimentConfig, reference: CircleMap, delta_star: float) -> dict:
    """The scheduled maps against the admissible C^2 ball of radius delta_star around the reference map.

    A map of another degree than the reference's has no C^2 distance to
    it, so it is outside; max_c2_distance is None when every map is.
    """
    maps = {s: build_map(cfg, s) for s in schedule_sections(cfg)[1]}
    dist = {s: c2_distance(t, reference) for s, t in maps.items() if t.degree == reference.degree}
    return {
        "delta_star": delta_star,
        "max_c2_distance": max(dist.values(), default=None),
        "maps_outside": [s for s in maps if dist.get(s, np.inf) > delta_star],
    }


def cmd_respond(cfg: ExperimentConfig, args: argparse.Namespace) -> tuple[int, list]:
    tail_constants, tail_tol = read_respond(cfg)
    sys_ = build_system(cfg)
    seed = np.ones(cfg.n_points)
    fam, _ = sequence.pullback_equivariant(sys_, cfg.burn_in, seed, tol=cfg.pullback_tol)
    g = response.forcing(sys_, fam)
    report = {}
    if tail_constants is None and cfg.mode == "noisy":
        tail_constants = constants.doeblin_certificate(sys_.schedule(0).noise)
    elif tail_constants is None:
        t0 = build_map(cfg)
        cert = constants.certify(t0, cfg.n_points)
        tail_constants = cert.elom_C, cert.elom_rate
        report["certified_ball"] = _certified_ball(cfg, t0, cert.delta_star)
    etas, tail = response.neumann_response(sys_, g, cfg.truncation, tail_constants, tol=tail_tol)
    files = _write_window(cfg, etas, "eta")
    report |= {
        "truncation_order": cfg.truncation,
        "tail_bound": tail,
        "max_mass_defect": float(np.max(np.abs(grid.mass(etas.values)))),
        "resolvent_residual": response.resolvent_residual(sys_, etas, g),
    }
    del g
    code = EXIT_OK
    if cfg.eps_list:
        # validate pulls each quotient when it needs it, so one perturbed family is alive at a time
        quotients = (
            (eps, response.finite_difference_response(sys_, eps, cfg.burn_in, seed, fam, tol=cfg.pullback_tol))
            for eps in cfg.eps_list
        )
        entries, passed = response.validate(etas, quotients, tol=cfg.tolerance)
        summary = {"tol": cfg.tolerance, "pass": passed, "entries": [{"eps": e, "D": d} for e, d in entries]}
        files.append(_write_json(cfg, "validation.json", summary))
        report["validation_pass"] = passed
        if not passed:
            code = EXIT_TOLERANCE
    return code, files + [_write_json(cfg, "response.json", report)]


def cmd_simulate(cfg: ExperimentConfig, args: argparse.Namespace) -> tuple[int, list]:
    steps, samples, bins, eps = read_simulate(cfg)
    sys_ = build_system(cfg, eps)
    drift_at = lambda k: sys_.schedule(k).drift
    q = sys_.schedule(0).noise  # every scheduled entry shares the one configured noise
    density = noise.simulate_marginal(drift_at, eps, q, steps, samples, seed=cfg.seed, n_bins=bins)
    out_csv = os.path.join(cfg.output_dir, "histogram.csv")
    grid.write_density_csv(out_csv, density, "bin_left,density")
    f = np.ones(cfg.n_points)
    for k in range(steps):
        f = transfer.push(sys_.operator(k), f)
    l1 = float(np.mean(np.abs(density - noise.bin_density(f, bins))))
    report = {"steps": steps, "samples": samples, "bins": bins, "eps": eps, "seed": cfg.seed, "l1_vs_operator": l1}
    return EXIT_OK, [out_csv, _write_json(cfg, "simulate.json", report)]


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
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a bad command line (usage on stderr), 0 after --help
        return ConfigError.exit_code if exc.code else EXIT_OK
    t0 = time.monotonic()
    try:
        cfg = load_config(args.config)
        os.makedirs(cfg.output_dir, exist_ok=True)
        command = globals()[f"cmd_{args.command}"]  # looked up per run, so a patched module attribute is called
        code, outputs = command(cfg, args)
        if args.emit_gnuplot and args.command in PLOT_TITLES:
            _emit_gnuplot(cfg, [f for f in outputs if f.endswith(".csv")], PLOT_TITLES[args.command])
        _write_manifest(cfg, args.command, outputs, t0)
        return code
    except SeqResponseError as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"{ConfigError.label}: {exc}", file=sys.stderr)
        return ConfigError.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
