import importlib.util
import json
import pathlib

import pytest

RECORD = pathlib.Path(__file__).resolve().parents[1] / "benches" / "record.py"


@pytest.fixture(scope="module")
def record():
    spec = importlib.util.spec_from_file_location("bench_record", RECORD)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bench_json(path, names):
    """A pytest-benchmark JSON file whose benchmarks ran in the order of names."""
    stats = {"median": 1e-3, "q1": 9e-4, "q3": 1.1e-3, "rounds": 5}
    path.write_text(json.dumps({"benchmarks": [{"name": n, "stats": stats, "extra_info": {"n": 256}} for n in names]}))
    return str(path)


@pytest.mark.parametrize("second, code", [(["a", "b"], 0), (["b", "a"], 1)], ids=["same-order", "other-order"])
def test_records_bench_order(tmp_path, record, second, code):
    parent = bench_json(tmp_path / "parent.json", ["a", "b"])
    change = bench_json(tmp_path / "change.json", second)
    out = tmp_path / "BENCH.json"
    assert record.main([str(out), f"parent={parent}", f"change={change}"]) == code
    written = json.loads(out.read_text())
    assert written["order"] == {"parent": ["a", "b"], "change": second}
    assert written["layers"]["a"]["change"] == {"median": 1e-3, "q1": 9e-4, "q3": 1.1e-3, "rounds": 5, "n": 256}
