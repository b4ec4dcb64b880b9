"""Check that two source trees give the same command-line outputs on the benchmark's workload configs.

    python3 benches/compare_outputs.py PARENT CHANGE

PARENT and CHANGE are checkouts of the repository.  Every command
(`equivariant` with `--two-seed`, all with `--emit-gnuplot`) runs on the
config of each workload in `perfbench/workloads.py` at seeds 0-2, once
from each tree's `src/`, in a fresh output directory.  The script
compares the exit codes, every output file byte for byte and
`manifest.json` by its keys and the basenames of its outputs (its wall
time, paths and config digest differ between any two runs).  It prints
one line per difference, then the largest L1 distance (perfbench's
`checks.csv_distance`) of a differing CSV from the parent's beside the
bound `checks.MAX_OUTPUT_DEV`, and exits 1 if there is any difference.
Each command's peak RSS, from its own rusage (`os.wait4`, as
perfbench's runner reads it), is printed for both trees with the
largest rise, for the record only: it never sets the exit code.  A
spawned child's peak starts at the peak of the process that spawned it
(about 28 MiB for this script, which loads numpy), so no run reads less.
"""

import collections
import json
import os
import subprocess
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench"))
import checks  # noqa: E402
import workloads  # noqa: E402

COMMANDS = (("certify",), ("equivariant", "--two-seed"), ("memory",), ("respond",), ("simulate",))
SEEDS = (0, 1, 2)
# One BLAS thread, as in the benchmark, so a reduction's bits cannot depend on the thread count.
ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1", "PYTHONDONTWRITEBYTECODE": "1"}


def run_child(argv: list, env: dict, cwd: str) -> tuple[int, float]:
    """Run argv to completion with its output discarded: (exit code, peak RSS in MiB)."""
    proc = subprocess.Popen(argv, env=env, cwd=cwd, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped by wait4, so Popen must not wait for it
    return proc.returncode, usage.ru_maxrss / 1024  # ru_maxrss is in KiB on Linux


def run_all(tree: str, work: str) -> tuple[dict, dict]:
    """Every run from tree's src/: {key: (exit code, {file name: path})} and {key: peak RSS in MiB}.

    A key is (workload, seed, command).
    """
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(tree), "src"), **ENV)
    runs, peaks = {}, {}
    for name in workloads.WORKLOADS:
        for seed in SEEDS:
            for command in COMMANDS:
                key = (name, seed, " ".join(command))
                out = os.path.join(work, f"{name}-{seed}-{command[0]}")
                cfg = out + ".ini"
                with open(cfg, "w") as fh:
                    fh.write(workloads.make_config(name, seed, out))
                argv = [sys.executable, "-m", "seqresponse.cli", command[0], cfg, *command[1:], "--emit-gnuplot"]
                code, peaks[key] = run_child(argv, env, work)
                files = sorted(os.listdir(out)) if os.path.isdir(out) else []
                runs[key] = code, {f: os.path.join(out, f) for f in files}
    return runs, peaks


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


def largest_csv_distance(parent: dict, change: dict):
    """(L1 distance, where) of the differing CSV farthest from the parent's, or None if no CSV differs."""
    worst = None
    for key, (_, files_a) in parent.items():
        files_b = change[key][1]
        for f in sorted(set(files_a) & set(files_b)):
            if f.endswith(".csv") and read(files_a[f]) != read(files_b[f]):
                d = checks.csv_distance(checks.read_csv(files_a[f]), checks.read_csv(files_b[f]))
                if worst is None or d > worst[0]:
                    worst = d, "{} seed {} {}: {}".format(*key, f)
    return worst


def rss_lines(parent: dict, change: dict) -> list:
    """One line per run with its peak RSS in both trees, then the largest rise from parent to change."""
    lines, rises = [], []
    for key, before in parent.items():
        where = "{} seed {} {}".format(*key)
        after = change[key]
        lines.append(f"{where}: peak RSS {before:.2f} -> {after:.2f} MiB ({after - before:+.2f})")
        rises.append((after - before, where))
    if rises:
        rise, where = max(rises)
        lines.append(f"largest peak RSS rise {rise:+.2f} MiB ({where})")
    return lines


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as work:
        runs, peaks = [], []
        for label, tree in zip(("parent", "change"), argv):
            os.mkdir(os.path.join(work, label))
            tree_runs, tree_peaks = run_all(tree, os.path.join(work, label))
            runs.append(tree_runs)
            peaks.append(tree_peaks)
        lines = differences(*runs)
        worst = largest_csv_distance(*runs)
    for line in rss_lines(*peaks):
        print(line)
    for line in lines:
        print(line)
    if worst is not None:
        print(f"largest CSV L1 distance {worst[0]:.3g} ({worst[1]}), MAX_OUTPUT_DEV {checks.MAX_OUTPUT_DEV:g}")
    n_files = sum(len(files) for _, files in runs[0].values())
    codes = collections.Counter(code for code, _ in runs[0].values())
    exits = ", ".join(f"{n} exit {code}" for code, n in sorted(codes.items()))
    print(f"{len(runs[0])} runs per tree ({exits} in the parent), {n_files} parent files: {len(lines)} differences")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
