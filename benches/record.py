"""Write a BENCH_<n>.json record from pytest-benchmark JSON files of benches/test_layers.py.

    python benches/record.py BENCH_<n>.json parent=parent.json change=change.json

Each LABEL=PATH argument is one run; the record keeps, per benchmark and
label, the median and quartiles in seconds, the round count and the sizes
the benchmark ran at, plus the numpy version and the core count of this host.
A bench's number can depend on the benches run before it in the same
process, so the record also keeps each label's bench order, and the script
exits 1 when two labels ran their benches in different orders.
"""

import json
import os
import sys

import numpy as np


def summary(path: str) -> dict:
    """Per benchmark, its stats and sizes, in the order the benchmarks ran."""
    with open(path) as fh:
        run = json.load(fh)
    return {
        b["name"]: {**{k: b["stats"][k] for k in ("median", "q1", "q3", "rounds")}, **b["extra_info"]}
        for b in run["benchmarks"]
    }


def main(argv) -> int:
    out, *runs = argv
    layers: dict = {}
    order: dict = {}
    for label, path in (arg.split("=", 1) for arg in runs):
        stats = summary(path)
        order[label] = list(stats)
        for name, layer in stats.items():
            layers.setdefault(name, {})[label] = layer
    record = {
        "numpy": np.__version__,
        "cores": len(os.sched_getaffinity(0)),
        "unit": "s",
        "order": order,
        "layers": layers,
    }
    with open(out, "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    if len({tuple(names) for names in order.values()}) > 1:
        print(f"{out}: the labels ran their benches in different orders", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
