"""Tests of the benchmark's own arithmetic, config generator and output checks.

Run from the root of a checkout: python3 -m pytest perfbench/tests
"""

import json

import numpy as np
import pytest

import checks
import run
import tracing
import workloads
from seqresponse import cli, config
from seqresponse.maps import c2_distance



def test_self_time_of_synthetic_nested_spans():
    # a [0, 10] holds b [1, 4] (which holds c [2, 3]) and b [5, 7].
    spans = [["a", 0.0, 10.0, None], ["b", 1.0, 4.0, 0], ["c", 2.0, 3.0, 1], ["b", 5.0, 7.0, 0]]
    self_s, incl_s, calls = tracing.self_times(spans)
    assert self_s == {"a": 5.0, "b": 4.0, "c": 1.0}
    assert incl_s == {"a": 10.0, "b": 5.0, "c": 1.0}
    assert calls == {"a": 1, "b": 2, "c": 1}


def test_tracer_records_parents_of_nested_calls():
    tracer = tracing.Tracer()
    inner = tracer.span("inner", lambda x: x + 1)
    outer = tracer.span("outer", lambda x: inner(x) * inner(x))
    assert outer(1) == 4
    names = [s[0] for s in tracer.spans]
    parents = [s[3] for s in tracer.spans]
    assert names == ["outer", "inner", "inner"]
    assert parents == [None, 0, 0]
    self_s, incl_s, _ = tracing.self_times(tracer.spans)
    assert self_s["outer"] == pytest.approx(incl_s["outer"] - incl_s["inner"])


def test_tracer_install_is_undone():
    from seqresponse import sequence, transfer

    original = transfer.apply
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert transfer.apply is not original
        assert sequence.transfer.apply is transfer.apply
    finally:
        tracer.uninstall()
    assert transfer.apply is original


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_same_config(name):
    a = workloads.make_config(name, 5, "out")
    assert a == workloads.make_config(name, 5, "out")
    assert a == workloads.make_config(name, 5 + workloads.POOL, "out")
    assert a != workloads.make_config(name, 6, "out")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("seed", range(workloads.POOL))
def test_generated_maps_are_admissible(tmp_path, name, seed):
    path = tmp_path / "exp.ini"
    path.write_text(workloads.make_config(name, seed, str(tmp_path / "out")))
    cfg = config.load_config(str(path))
    assert cfg.n_points == workloads.WORKLOADS[name].n_points
    sections = [s for s in cfg.raw.sections() if s == "reference_map" or s.startswith("map.")]
    reference = config.build_map(cfg)
    for section in sections:
        t = config.build_map(cfg, section)  # raises NotExpanding otherwise
        assert t.constants()[0] >= workloads.MIN_EXPANSION
        assert c2_distance(t, reference) <= workloads.MAX_C2_DISTANCE
    config.build_system(cfg)


SMALL_MEMORY = """
[experiment]
mode = deterministic
n = 64
window = 0, 12
output_dir = {out}

[reference_map]
degree = 2
coeffs = 1:0.0:0.05

[kick]
coeffs = {kick}
"""


@pytest.fixture
def memory_run(tmp_path):
    out = tmp_path / "out"
    path = tmp_path / "exp.ini"
    path.write_text(SMALL_MEMORY.format(out=out, kick=workloads.KICK))
    assert cli.main(["memory", str(path)]) == 0
    reference = {"decay.csv": checks.read_csv(str(out / "decay.csv"))}
    return out, reference


def test_benchmark_json_names_what_the_runner_reports():
    with open(run.BENCHMARK_JSON) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    names = [m["name"] for m in bench["per_layer"]]
    values = tracing.per_layer(tracing.Tracer(), names, 0, 0)  # raises on an unknown name
    assert list(values) == names


def test_per_layer_metrics_of_a_traced_command(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text(SMALL_MEMORY.format(out=tmp_path / "out", kick=workloads.KICK))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.main(["memory", str(path)]) == 0
    finally:
        tracer.uninstall()
    names = ["transfer.apply.calls", "transfer.build_deterministic.calls", "transfer.matrices_built",
             "sequence.operator.calls", "sequence.operator.hit_ratio", "sequence.memory_decay.s", "noise.build_kernel.calls"]
    values = tracing.per_layer(tracer, names, 0, 0)
    assert values["transfer.apply.calls"] == values["sequence.operator.calls"] == 12
    assert values["transfer.build_deterministic.calls"] == values["transfer.matrices_built"] == 1
    assert values["sequence.operator.hit_ratio"] == 11 / 12
    assert values["sequence.memory_decay.s"] > 0.0
    assert values["noise.build_kernel.calls"] == 0.0


def test_check_passes_unchanged_outputs(memory_run):
    out, reference = memory_run
    res = checks.check_command("memory", 0, str(out), reference)
    assert res.problems == []
    assert res.output_dev == 0.0


def test_check_flags_corrupted_csv(memory_run):
    out, reference = memory_run
    csv = out / "decay.csv"
    lines = csv.read_text().splitlines()
    k, w11, l1 = lines[3].split(",")
    lines[3] = f"{k},{float(w11) * 1.001!r},{l1}"
    csv.write_text("\n".join(lines) + "\n")
    res = checks.check_command("memory", 0, str(out), reference)
    assert res.output_dev > checks.MAX_OUTPUT_DEV
    assert any("deviates" in p for p in res.problems)


def test_check_flags_truncated_and_missing_outputs(memory_run):
    out, reference = memory_run
    csv = out / "decay.csv"
    csv.write_text("".join(csv.read_text().splitlines(keepends=True)[:-1]))
    assert checks.check_command("memory", 0, str(out), reference).problems
    csv.unlink()
    assert any("missing" in p for p in checks.check_command("memory", 0, str(out), reference).problems)


def test_check_flags_exit_code_and_failed_validation(tmp_path):
    (tmp_path / "manifest.json").write_text(json.dumps({"command": "respond", "outputs": []}))
    (tmp_path / "response.json").write_text(json.dumps({"resolvent_residual": 1e-8, "max_mass_defect": 1e-9}))
    (tmp_path / "validation.json").write_text(json.dumps({"pass": False, "entries": [{"eps": 0.01, "D": 0.5}]}))
    np.savetxt(tmp_path / "eta_0009.csv", np.c_[np.arange(16) / 16, np.zeros(16)], delimiter=",", header="x,value", comments="")
    reference = {"eta_0009.csv": np.zeros((16, 1))}
    res = checks.check_command("respond", 4, str(tmp_path), reference)
    text = " ".join(res.problems)
    assert "exited with 4" in text
    assert "validation did not pass" in text
    assert "max_mass_defect" in text
    assert res.metrics["fd_discrepancy"] == 0.5
