"""Benchmark of the seqresponse command line, one workload per invocation.

Run from the root of a checkout:

    python3 perfbench/run.py --workload det-2048 --seed 1 --seconds 30 --trace 0

The benchmark writes the workload's config for the seed, then runs closed
loop: one CLI process at a time, each session the workload's commands in
order, until --seconds have passed.  Every command's outputs are checked
(see checks.py).  With --trace 0 it reports the end-to-end metrics; with
--trace 1 it calls `cli.main` in this process with every module's public
functions wrapped (see tracing.py) and reports the per-layer metrics.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; attempted counts command runs.
Earlier lines record the environment and diagnostics that are not gated.
"""

from __future__ import annotations

import os

# Single-threaded BLAS, set before numpy is imported here or in a child.  On the
# 2-core machine the benchmark was tuned on, two BLAS threads made session times
# spread 14-23 % (interquartile range over median) and one thread 3-5 %.
BLAS_THREADS = "1"
if __name__ == "__main__":
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = BLAS_THREADS

import argparse
import gc
import json
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

import checks
import tracing
import workloads

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
STDERR_PATH = os.path.join(WORK, "stderr.txt")
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
BENCHMARK_JSON = os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")
REFERENCE_DIR = os.path.join(BENCH_DIR, "reference")
RUN_LIMIT_S = 170.0  # any child still running this long after the start is killed
SETUP_PER_SESSION = 2
# What every command pays before its pipeline starts: interpreter, import, config, system.
SETUP_CODE = "import sys\nfrom seqresponse import config\nconfig.build_system(config.load_config(sys.argv[1]))\n"
# Printed beside the metrics but not gated: zero at the reference commit, absent
# on some workloads (mc_l1), or varying several-fold between seeds (resolvent_residual).
UNGATED = {"fail_frac": "ratio", "max_output_dev": "L1", "mc_l1": "L1", "resolvent_residual": "L1"}


def run_child(argv: list, stderr_path: str, deadline: float) -> tuple[float, int, int]:
    """Run argv to completion: (seconds from spawn to exit, exit code, peak RSS in bytes).

    The peak comes from this child's own rusage (wait4), not the largest
    of all children so far.  A child still running at `deadline`
    (time.monotonic) is killed.
    """
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0),
        (os.POSIX_SPAWN_OPEN, 2, stderr_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    t0 = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, dict(os.environ, PYTHONPATH=SRC), file_actions=actions)
    killer = threading.Timer(max(0.0, deadline - time.monotonic()), os.kill, (pid, signal.SIGKILL))
    killer.start()
    try:
        # Wait without reaping, so the timer can never signal a reused pid.
        os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)
        elapsed = time.perf_counter() - t0
    finally:
        killer.cancel()
        killer.join()
        _, status, usage = os.wait4(pid, 0)
    return elapsed, os.waitstatus_to_exitcode(status), usage.ru_maxrss * 1024


@dataclass
class Session:
    """One pass over a workload's commands, with every command checked."""

    wall_s: float = 0.0
    peak_rss: int = 0
    warnings: int = 0
    results: list = field(default_factory=list)  # checks.Result per command

    def metric(self, name: str):
        values = [r.metrics[name] for r in self.results if name in r.metrics]
        return values[-1] if values else None


def run_commands(w: workloads.Workload, cfg: str, out_dir: str, deadline: float):
    """Empty out_dir, then run the workload's commands as child processes, in order.

    Yields (command, seconds, exit code, peak RSS) after each command; its
    standard error is in STDERR_PATH until the next command starts.
    """
    shutil.rmtree(out_dir, ignore_errors=True)
    for command in w.commands:
        argv = [sys.executable, "-m", "seqresponse.cli", command[0], cfg, *command[1:]]
        yield (command, *run_child(argv, STDERR_PATH, deadline))


def run_session(w: workloads.Workload, cfg: str, out_dir: str, reference, deadline: float) -> Session:
    """The workload's commands as child processes; wall_s sums their spawn-to-exit times."""
    s = Session()
    for command, dt, code, rss in run_commands(w, cfg, out_dir, deadline):
        s.wall_s += dt
        s.peak_rss = max(s.peak_rss, rss)
        s.results.append(checks.check_command(command[0], code, out_dir, reference))
        with open(STDERR_PATH) as fh:
            s.warnings += sum(1 for line in fh if "Warning:" in line)
    return s


def run_inprocess_session(cli, w: workloads.Workload, cfg: str, out_dir: str, reference) -> Session:
    """The workload's commands through cli.main in this process; every warning is counted."""
    shutil.rmtree(out_dir, ignore_errors=True)
    gc.collect()
    s = Session()
    for command in w.commands:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            t0 = time.perf_counter()
            try:
                code = cli.main([command[0], cfg, *command[1:]])
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            s.wall_s += time.perf_counter() - t0
        s.warnings += len(caught)
        s.results.append(checks.check_command(command[0], code, out_dir, reference))
    return s


def tail_percentile(samples: list) -> dict:
    """Median and the highest percentile with at least ten samples beyond it."""
    n = len(samples)
    out = {"n": n, "median": statistics.median(samples)}
    if n >= 11:
        p = 100 * (n - 10) // n
        out[f"p{p}"] = float(np.percentile(samples, p))
    else:
        out["note"] = "fewer than 11 samples: no percentile has ten beyond it"
    return out


def llc_bytes():
    try:
        res = subprocess.run(["getconf", "LEVEL3_CACHE_SIZE"], capture_output=True, text=True, timeout=10)
        return int(res.stdout.strip())
    except (OSError, ValueError, subprocess.TimeoutExpired):
        return None


def environment(w: workloads.Workload, seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "nproc": len(os.sched_getaffinity(0)),
        "llc_bytes": llc_bytes(),
        "workload": w.name,
        "n_points": {name: wl.n_points for name, wl in workloads.WORKLOADS.items()},
        "seed": seed,
        "variant": workloads.variant(seed),
        "heldout_seed": workloads.HELDOUT_SEED,
    }


def measure(w, cfg, out_dir, reference, seconds, deadline) -> tuple[dict, list, dict]:
    """End-to-end metrics with tracing off: (metrics, sessions, diagnostics).

    Set-up processes run between sessions, SETUP_PER_SESSION at a time,
    so both medians sample the same stretch of the machine's load.
    """
    def setup_time() -> float:
        dt, code, _ = run_child([sys.executable, "-c", SETUP_CODE, cfg], STDERR_PATH, deadline)
        if code != 0:
            raise RuntimeError(f"set-up process exited with {code}")
        return dt

    setup_time()  # also compiles the package's bytecode
    setup, sessions = [], []
    stop = time.monotonic() + seconds
    while not sessions or time.monotonic() < stop:
        setup.extend(setup_time() for _ in range(SETUP_PER_SESSION))
        sessions.append(run_session(w, cfg, out_dir, reference, deadline))
    fd = [s.metric("fd_discrepancy") for s in sessions if s.metric("fd_discrepancy") is not None]
    metrics = {
        "wall_s": statistics.median(s.wall_s for s in sessions),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(s.peak_rss for s in sessions) / 2**20,
        "fd_discrepancy": statistics.median(fd) if fd else 0.0,
    }
    diagnostics = {
        "wall_s": tail_percentile([s.wall_s for s in sessions]),
        "setup_s": tail_percentile(setup),
    }
    return metrics, sessions, diagnostics


def measure_traced(w, cfg, out_dir, reference, seconds, names) -> tuple[dict, list, dict]:
    """Per-layer metrics: (metrics, sessions, diagnostics).

    Traced sessions alternate with untraced ones, both in this process,
    so trace.overhead_s is the wrappers' cost alone.
    """
    sys.path.insert(0, SRC)
    from seqresponse import cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"seqresponse imported from {cli.__file__}, not from {SRC}")
    tracer = tracing.Tracer()
    # A first, untimed session takes the one-time costs of running in this process.
    warm = run_inprocess_session(cli, w, cfg, out_dir, reference)
    plain, traced, layers = [], [], []
    stop = time.monotonic() + seconds
    while not traced or time.monotonic() < stop:
        plain.append(run_inprocess_session(cli, w, cfg, out_dir, reference))
        tracer.reset()
        tracer.install()
        try:
            s = run_inprocess_session(cli, w, cfg, out_dir, reference)
        finally:
            tracer.uninstall()
        traced.append(s)
        output_bytes = sum(e.stat().st_size for e in os.scandir(out_dir) if e.is_file())
        layers.append(tracing.per_layer(tracer, names, output_bytes, s.warnings))
    with open(os.path.join(WORK, f"spans-{w.name}.json"), "w") as fh:
        json.dump({"workload": w.name, "fields": ["name", "start", "end", "parent"], "spans": tracer.spans}, fh)
    metrics = {name: statistics.median(v[name] for v in layers) for name in names}
    traced_s = [s.wall_s for s in traced]
    plain_s = [s.wall_s for s in plain]
    metrics["trace.overhead_s"] = statistics.median(traced_s) - statistics.median(plain_s)
    diagnostics = {"traced_s": tail_percentile(traced_s), "untraced_inprocess_s": tail_percentile(plain_s)}
    return metrics, [warm] + plain + traced, diagnostics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "seqresponse", "cli.py")):
        print(f"no seqresponse sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    w = workloads.WORKLOADS[args.workload]
    ref_path = os.path.join(REFERENCE_DIR, f"{w.name}-v{workloads.variant(args.seed)}.npz")
    if not os.path.isfile(ref_path):
        print(f"missing reference outputs {ref_path}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    os.makedirs(WORK, exist_ok=True)
    cfg = os.path.join(WORK, f"{w.name}.ini")
    out_dir = os.path.join(WORK, f"{w.name}-out")
    with open(cfg, "w") as fh:
        fh.write(workloads.make_config(w.name, args.seed, out_dir))
    with np.load(ref_path) as npz:
        reference = {name: npz[name] for name in npz}
    with open(BENCHMARK_JSON) as fh:
        units = {m["name"]: m["unit"] for m in json.load(fh)["per_layer" if args.trace else "end_to_end"]}
    if args.trace:
        metrics, sessions, diagnostics = measure_traced(w, cfg, out_dir, reference, args.seconds, list(units))
    else:
        metrics, sessions, diagnostics = measure(w, cfg, out_dir, reference, args.seconds, deadline)
    results = [r for s in sessions for r in s.results]
    failed = sum(1 for r in results if r.problems)
    mc = [s.metric("mc_l1") for s in sessions if s.metric("mc_l1") is not None]
    residual = [s.metric("resolvent_residual") for s in sessions if s.metric("resolvent_residual") is not None]
    diagnostics.update(
        {
            "sessions": len(sessions),
            "fail_frac": failed / len(results),
            "max_output_dev": max(r.output_dev for r in results),
            "resolvent_residual": statistics.median(residual) if residual else None,
            "mc_l1": statistics.median(mc) if mc else None,
            "warnings_per_session": statistics.median(s.warnings for s in sessions),
            "problems": sorted({p for r in results for p in r.problems})[:20],
        }
    )
    print(json.dumps({"environment": environment(w, args.seed)}))
    print(json.dumps({"diagnostics": diagnostics}))
    for name, unit in units.items():
        print(f"{name} = {metrics[name]!r} {unit}")
    for name, unit in UNGATED.items():
        print(f"{name} = {diagnostics[name]!r} {unit} (not gated)")
    result = {
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
