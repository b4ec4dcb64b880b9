"""Write a BENCH_<n>.json record from pytest-benchmark JSON files of benches/test_layers.py.

    python benches/record.py BENCH_<n>.json parent=parent.json change=change.json

Each LABEL=PATH argument is one run; the record keeps, per benchmark and
label, the median and quartiles in seconds, the round count and the sizes
the benchmark ran at, plus the numpy version and the core count of this host.
"""

import json
import os
import sys

import numpy as np


def summary(path: str) -> dict:
    with open(path) as fh:
        run = json.load(fh)
    return {
        b["name"]: {**{k: b["stats"][k] for k in ("median", "q1", "q3", "rounds")}, **b["extra_info"]}
        for b in run["benchmarks"]
    }


def main(argv) -> int:
    out, *runs = argv
    layers: dict = {}
    for label, path in (arg.split("=", 1) for arg in runs):
        for name, stats in summary(path).items():
            layers.setdefault(name, {})[label] = stats
    record = {
        "numpy": np.__version__,
        "cores": len(os.sched_getaffinity(0)),
        "unit": "s",
        "layers": layers,
    }
    with open(out, "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
