"""Correctness checks on the outputs of one CLI command.

A command run fails on a nonzero exit code, a missing output, a failed
validation or certificate, a mass defect above MAX_MASS_DEFECT, a Monte
Carlo marginal further than MAX_MC_L1 from the operator, or a CSV that
differs from the stored reference output by more than MAX_OUTPUT_DEV.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

MAX_MASS_DEFECT = 1e-12
MAX_MC_L1 = 0.05  # acceptance criterion 10 of the test suite
# Largest allowed L1 distance of an output CSV from the reference output.  Far
# above round-off from reordered sums, far below any discretization change.
MAX_OUTPUT_DEV = 1e-8

# CSV files each command writes, by name prefix; the reference holds all of them.
CSV_PREFIX = {"certify": None, "equivariant": "mu_", "memory": "decay", "respond": "eta_", "simulate": "histogram"}


def read_csv(path: str) -> np.ndarray:
    """Value columns of an output CSV; the first column (x, k or bin) is dropped."""
    with open(path) as fh:
        next(fh)
        return np.array([[float(v) for v in line.split(",")[1:]] for line in fh])


def csv_distance(a: np.ndarray, b: np.ndarray) -> float:
    """L1 distance of two value tables: mean absolute difference, summed over columns."""
    if a.shape != b.shape:
        return float("inf")
    return float(np.abs(a - b).mean(axis=0).sum())


def _load_json(out_dir: str, name: str, problems: list) -> dict:
    path = os.path.join(out_dir, name)
    if not os.path.isfile(path):
        problems.append(f"missing {name}")
        return {}
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        problems.append(f"unreadable {name}: {exc}")
        return {}


@dataclass
class Result:
    """Checked outcome of one command run."""

    problems: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)  # numbers read from the JSON reports
    output_dev: float = 0.0  # largest CSV distance from the reference


def check_command(command: str, exit_code: int, out_dir: str, reference) -> Result:
    """Check the files one command left in out_dir against its contract and the reference."""
    res = Result()
    problems = res.problems
    if exit_code != 0:
        problems.append(f"{command} exited with {exit_code}")
    manifest = _load_json(out_dir, "manifest.json", problems)
    if manifest and manifest.get("command") != command:
        problems.append(f"manifest is for {manifest.get('command')!r}, not {command!r}")
    for path in manifest.get("outputs", ()):
        if not os.path.isfile(path):
            problems.append(f"manifest lists missing output {path}")
    if command == "certify":
        cert = _load_json(out_dir, "certificate.json", problems)
        if cert and cert.get("status") != "numerically certified":
            problems.append(f"certificate status {cert.get('status')!r}")
    elif command == "equivariant":
        _load_json(out_dir, "family.json", problems)
    elif command == "memory":
        _load_json(out_dir, "memory.json", problems)
    elif command == "respond":
        rep = _load_json(out_dir, "response.json", problems)
        val = _load_json(out_dir, "validation.json", problems)
        if rep:
            res.metrics["resolvent_residual"] = rep["resolvent_residual"]
            if not rep["max_mass_defect"] <= MAX_MASS_DEFECT:
                problems.append(f"max_mass_defect {rep['max_mass_defect']:.3g} > {MAX_MASS_DEFECT}")
        if val:
            res.metrics["fd_discrepancy"] = min(val["entries"], key=lambda e: e["eps"])["D"]
            if val.get("pass") is not True:
                problems.append("validation did not pass")
    elif command == "simulate":
        sim = _load_json(out_dir, "simulate.json", problems)
        if sim:
            res.metrics["mc_l1"] = sim["l1_vs_operator"]
            if not sim["l1_vs_operator"] <= MAX_MC_L1:
                problems.append(f"mc_l1 {sim['l1_vs_operator']:.3g} > {MAX_MC_L1}")
    prefix = CSV_PREFIX[command]
    if prefix is not None:
        names = sorted(n for n in reference if n.startswith(prefix))
        if not names:
            problems.append(f"reference holds no {prefix}* output")
        for name in names:
            path = os.path.join(out_dir, name)
            if not os.path.isfile(path):
                problems.append(f"missing {name}")
                continue
            try:
                dev = csv_distance(read_csv(path), reference[name])
            except (OSError, ValueError) as exc:
                problems.append(f"unreadable {name}: {exc}")
                continue
            res.output_dev = max(res.output_dev, dev)
        if not res.output_dev <= MAX_OUTPUT_DEV:
            problems.append(f"output deviates from reference by {res.output_dev:.3g} > {MAX_OUTPUT_DEV}")
    return res
