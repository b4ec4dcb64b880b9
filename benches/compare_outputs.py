"""Check that two source trees give the same command-line outputs on the benchmark's workload configs.

    python3 benches/compare_outputs.py PARENT CHANGE

PARENT and CHANGE are checkouts of the repository.  Every command
(`equivariant` with `--two-seed`, all with `--emit-gnuplot`) runs on the
config of each workload in `perfbench/workloads.py` at seeds 0-2, once
from each tree's `src/`, in a fresh output directory.  The script
compares the exit codes, every output file byte for byte and
`manifest.json` by its keys and the basenames of its outputs (its wall
time, paths and config digest differ between any two runs).  It prints
one line per difference and exits 1 if there is any.
"""

import collections
import json
import os
import subprocess
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench"))
import workloads  # noqa: E402

COMMANDS = (("certify",), ("equivariant", "--two-seed"), ("memory",), ("respond",), ("simulate",))
SEEDS = (0, 1, 2)
# One BLAS thread, as in the benchmark, so a reduction's bits cannot depend on the thread count.
ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1", "PYTHONDONTWRITEBYTECODE": "1"}


def run_all(tree: str, work: str) -> dict:
    """{(workload, seed, command): (exit code, {file name: path})} for every run from tree's src/."""
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(tree), "src"), **ENV)
    runs = {}
    for name in workloads.WORKLOADS:
        for seed in SEEDS:
            for command in COMMANDS:
                key = (name, seed, " ".join(command))
                out = os.path.join(work, f"{name}-{seed}-{command[0]}")
                cfg = out + ".ini"
                with open(cfg, "w") as fh:
                    fh.write(workloads.make_config(name, seed, out))
                argv = [sys.executable, "-m", "seqresponse.cli", command[0], cfg, *command[1:], "--emit-gnuplot"]
                code = subprocess.run(argv, env=env, cwd=work, capture_output=True).returncode
                files = sorted(os.listdir(out)) if os.path.isdir(out) else []
                runs[key] = code, {f: os.path.join(out, f) for f in files}
    return runs


def read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def manifest_shape(path: str) -> tuple:
    manifest = json.loads(read(path))
    return sorted(manifest), sorted(os.path.basename(p) for p in manifest["outputs"])


def differences(parent: dict, change: dict) -> list:
    """One line per exit code, file set, file or manifest that differs between the two trees' runs."""
    lines = []
    for key, (code_a, files_a) in parent.items():
        code_b, files_b = change[key]
        where = "{} seed {} {}".format(*key)
        if code_a != code_b:
            lines.append(f"{where}: exit code {code_a} != {code_b}")
        for f in sorted(set(files_a) ^ set(files_b)):
            lines.append(f"{where}: {f} only in {'parent' if f in files_a else 'change'}")
        for f in sorted(set(files_a) & set(files_b)):
            if f == "manifest.json":
                same = manifest_shape(files_a[f]) == manifest_shape(files_b[f])
            else:
                same = read(files_a[f]) == read(files_b[f])
            if not same:
                lines.append(f"{where}: {f} differs")
    return lines


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as work:
        runs = []
        for label, tree in zip(("parent", "change"), argv):
            os.mkdir(os.path.join(work, label))
            runs.append(run_all(tree, os.path.join(work, label)))
        lines = differences(*runs)
    for line in lines:
        print(line)
    n_files = sum(len(files) for _, files in runs[0].values())
    codes = collections.Counter(code for code, _ in runs[0].values())
    exits = ", ".join(f"{n} exit {code}" for code, n in sorted(codes.items()))
    print(f"{len(runs[0])} runs per tree ({exits} in the parent), {n_files} parent files: {len(lines)} differences")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
