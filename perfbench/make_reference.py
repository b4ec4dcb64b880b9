"""Regenerate the stored reference outputs: every CSV of every workload variant.

Run from the root of a checkout, at the commit whose outputs are the reference:

    python3 perfbench/make_reference.py

Writes perfbench/reference/<workload>-v<variant>.npz, one array per CSV file.
"""

from __future__ import annotations

import os
import sys
import time

import numpy as np

import checks
import run
import workloads


def main() -> int:
    os.makedirs(run.WORK, exist_ok=True)
    os.makedirs(run.REFERENCE_DIR, exist_ok=True)
    for w in workloads.WORKLOADS.values():
        for v in range(workloads.POOL):
            cfg = os.path.join(run.WORK, f"{w.name}.ini")
            out_dir = os.path.join(run.WORK, f"{w.name}-out")
            with open(cfg, "w") as fh:
                fh.write(workloads.make_config(w.name, v, out_dir))
            for command, _, code, _ in run.run_commands(w, cfg, out_dir, time.monotonic() + 600):
                if code != 0:
                    raise SystemExit(f"{w.name} v{v}: {command[0]} exited with {code}")
            tables = {
                name: checks.read_csv(os.path.join(out_dir, name))
                for name in sorted(os.listdir(out_dir))
                if name.endswith(".csv")
            }
            np.savez_compressed(os.path.join(run.REFERENCE_DIR, f"{w.name}-v{v}.npz"), **tables)
            print(f"{w.name} v{v}: {len(tables)} CSV files")
    return 0


if __name__ == "__main__":
    sys.exit(main())
