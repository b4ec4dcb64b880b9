"""Spans around the public functions of each seqresponse module, recorded from outside.

The tracer replaces module attributes (and a few class methods) with
wrappers that record one span per call: name, start, end and parent.
Modules call each other through module attributes, so every cross-module
call passes through a wrapper.  Spans stay in memory; `per_layer` turns
them into the per-layer metrics that BENCHMARK.json names.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
import weakref
from collections import Counter

PACKAGE = "seqresponse"
# (span name, owner module in PACKAGE, attribute path).  A dotted path patches a class attribute.
TARGETS = (
    ("transfer.compose_matrices", "transfer", "compose_matrices"),
    ("transfer.build_kick", "transfer", "build_kick"),
    ("transfer.build_deterministic", "transfer", "build_deterministic"),
    ("transfer.apply", "transfer", "apply"),
    ("transfer.d_operator", "transfer", "d_operator"),
    ("sequence.operator", "sequence", "SequenceSystem.operator"),
    ("sequence.pullback_equivariant", "sequence", "pullback_equivariant"),
    ("sequence.memory_decay", "sequence", "memory_decay"),
    ("noise.build_kernel", "noise", "build_kernel"),
    ("noise.kernel_forcing", "noise", "kernel_forcing"),
    ("noise.simulate_marginal", "noise", "simulate_marginal"),
    ("grid.interpolate_values", "grid", "interpolate_values"),
    ("grid.interpolation_stencil6", "grid", "interpolation_stencil6"),
    ("grid.derivative", "grid", "derivative"),
    ("grid.norm_w11", "grid", "norm_w11"),
    ("grid.write_density_csv", "grid", "write_density_csv"),
    ("maps.inverse_branches", "maps", "CircleMap.inverse_branches"),
    ("maps.trigpoly", "maps", "TrigPoly.__call__"),
    ("maps.trigpoly", "maps", "TrigPoly.d1"),
    ("maps.trigpoly", "maps", "TrigPoly.d2"),
    ("response.forcing", "response", "forcing"),
    ("response.neumann_response", "response", "neumann_response"),
    ("response.finite_difference_response", "response", "finite_difference_response"),
    ("response.resolvent_residual", "response", "resolvent_residual"),
    ("response.validate", "response", "validate"),
    ("constants.certify", "constants", "certify"),
    ("constants.choose_M", "constants", "choose_M"),
    ("config.load_config", "config", "load_config"),
    ("config.build_system", "config", "build_system"),
    ("cli.certify", "cli", "cmd_certify"),
    ("cli.equivariant", "cli", "cmd_equivariant"),
    ("cli.memory", "cli", "cmd_memory"),
    ("cli.respond", "cli", "cmd_respond"),
    ("cli.simulate", "cli", "cmd_simulate"),
)
ASSEMBLY = ("transfer.build_deterministic", "transfer.build_kick", "transfer.compose_matrices", "noise.build_kernel")

# Per-layer metrics that are not a span's self time (`<span>.s`) or call count
# (`<span>.calls`).  Counters named `*_computed` come from array sizes.
DERIVED = (
    "transfer.compose_matrices.flops_computed",  # 2 N^3 per call
    "transfer.matrices_built",  # assembled matrices, kernels included
    "transfer.resident_bytes_computed",  # peak bytes of live assembled matrices
    "transfer.apply.bytes_computed",  # 8 N^2 per call
    "grid.write_density_csv.bytes",
    "sequence.operator.hit_ratio",  # calls without an assembly child / all calls
    "noise.samples_per_s",  # Monte Carlo samples / simulate_marginal inclusive time
    "cli.output_bytes",  # bytes in the output directory after the session
    "cli.warnings",  # Python warnings raised, each occurrence counted
    "trace.overhead_s",  # set by the runner
)


class Tracer:
    """Records spans as [name, start, end, parent index] lists plus named counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._live_bytes = 0
        self._undo: list = []

    def span(self, name: str, fn, after=None):
        """Wrap fn so each call records a span; after(args, kwargs, result) may add counters."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            record = [name, time.perf_counter(), None, self._stack[-1] if self._stack else None]
            self.spans.append(record)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self._stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _track_matrix(self, args, kwargs, result):
        """Count an assembled matrix and keep the computed bytes of live ones."""
        nbytes = result.entries.nbytes
        self.counters["transfer.matrices_built"] += 1
        self._live_bytes += nbytes
        peak = max(self.counters["transfer.resident_bytes_computed"], self._live_bytes)
        self.counters["transfer.resident_bytes_computed"] = peak
        weakref.finalize(result, self._release, nbytes)

    def _release(self, nbytes):
        self._live_bytes -= nbytes

    def _after_hooks(self):
        def compose(args, kwargs, result):
            self._track_matrix(args, kwargs, result)
            self.counters["transfer.compose_matrices.flops_computed"] += 2 * result.n_points**3

        def apply(args, kwargs, result):
            self.counters["transfer.apply.bytes_computed"] += 8 * result.n_points**2

        def write_csv(args, kwargs, result):
            self.counters["grid.write_density_csv.bytes"] += os.path.getsize(args[0])

        def simulate(args, kwargs, result):
            self.counters["noise.samples"] += int(kwargs.get("n_samples", args[4] if len(args) > 4 else 0))

        return {
            "transfer.compose_matrices": compose,
            "transfer.build_kick": self._track_matrix,
            "transfer.build_deterministic": self._track_matrix,
            "noise.build_kernel": self._track_matrix,
            "transfer.apply": apply,
            "grid.write_density_csv": write_csv,
            "noise.simulate_marginal": simulate,
        }

    def install(self) -> None:
        """Patch every TARGETS attribute, in every module of PACKAGE that holds it."""
        hooks = self._after_hooks()
        modules = [m for n, m in sys.modules.items() if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for name, module, path in TARGETS:
            owner = importlib.import_module(f"{PACKAGE}.{module}")
            *cls, attr = path.split(".")
            if cls:
                owner = getattr(owner, cls[0])
                original = owner.__dict__[attr]
                self._undo.append((owner, attr, original))
                setattr(owner, attr, self.span(name, original, hooks.get(name)))
                continue
            original = getattr(owner, attr)
            wrapped = self.span(name, original, hooks.get(name))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, original))
                        setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def reset(self) -> None:
        self.spans.clear()
        self.counters.clear()
        self._live_bytes = 0


def self_times(spans) -> tuple[Counter, Counter, Counter]:
    """Per-name (self seconds, inclusive seconds, calls).

    Self time is a span's duration minus the durations of its direct
    children; spans of one thread nest, so the children never overlap.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent is not None:
            child[parent] += end - start
    self_s, incl_s, calls = Counter(), Counter(), Counter()
    for (name, start, end, _), covered in zip(spans, child):
        self_s[name] += (end - start) - covered
        incl_s[name] += end - start
        calls[name] += 1
    return self_s, incl_s, calls


def per_layer(tracer: Tracer, names, output_bytes: int, warnings: int) -> dict[str, float]:
    """The named per-layer metrics of one traced session; trace.overhead_s is left 0."""
    self_s, incl_s, calls = self_times(tracer.spans)
    span_names = {name for name, _, _ in TARGETS}
    assembled = {parent for name, _, _, parent in tracer.spans if name in ASSEMBLY}
    ops = [i for i, span in enumerate(tracer.spans) if span[0] == "sequence.operator"]
    sim = incl_s["noise.simulate_marginal"]
    derived = dict(tracer.counters)
    derived.update(
        {
            "sequence.operator.hit_ratio": sum(1 for i in ops if i not in assembled) / len(ops) if ops else 0.0,
            "noise.samples_per_s": tracer.counters["noise.samples"] / sim if sim else 0.0,
            "cli.output_bytes": output_bytes,
            "cli.warnings": warnings,
        }
    )
    values = {}
    for metric in names:
        base, _, leaf = metric.rpartition(".")
        if base in span_names and leaf == "s":
            values[metric] = float(self_s[base])
        elif base in span_names and leaf == "calls":
            values[metric] = float(calls[base])
        elif metric in DERIVED:
            values[metric] = float(derived.get(metric, 0.0))
        else:
            raise KeyError(f"unknown per-layer metric {metric!r}")
    return values
