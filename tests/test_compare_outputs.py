import importlib.util
import json
import pathlib

import pytest

COMPARE = pathlib.Path(__file__).resolve().parents[1] / "benches" / "compare_outputs.py"
KEY = ("det-256-session", 1, "respond")


@pytest.fixture(scope="module")
def compare():
    spec = importlib.util.spec_from_file_location("compare_outputs", COMPARE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def manifest(path, out_dir, wall_time, outputs):
    path.write_text(
        json.dumps(
            {
                "command": "respond",
                "config": str(out_dir) + ".ini",
                "config_sha256": str(out_dir),
                "wall_time_s": wall_time,
                "outputs": [str(out_dir / name) for name in outputs],
            }
        )
    )


def tree(tmp_path, label, files, code=0, wall_time=1.0):
    """One tree's runs: {KEY: (code, {name: path})} with the given file contents and a manifest listing them."""
    out = tmp_path / label
    out.mkdir()
    paths = {}
    for name, text in files.items():
        (out / name).write_text(text)
        paths[name] = str(out / name)
    manifest(out / "manifest.json", out, wall_time, sorted(files))
    paths["manifest.json"] = str(out / "manifest.json")
    return {KEY: (code, paths)}


def test_same_outputs_have_no_differences(tmp_path, compare):
    # the manifests differ in wall time, paths and config digest only
    parent = tree(tmp_path, "parent", {"eta_0009.csv": "x,value\n0,1\n"}, wall_time=1.0)
    change = tree(tmp_path, "change", {"eta_0009.csv": "x,value\n0,1\n"}, wall_time=2.5)
    assert compare.differences(parent, change) == []


def test_exit_code_change_is_flagged(tmp_path, compare):
    parent = tree(tmp_path, "parent", {"a.csv": "1\n"}, code=0)
    change = tree(tmp_path, "change", {"a.csv": "1\n"}, code=4)
    assert compare.differences(parent, change) == ["det-256-session seed 1 respond: exit code 0 != 4"]


@pytest.mark.parametrize("side", ["parent", "change"])
def test_file_on_one_side_is_flagged(tmp_path, compare, side):
    runs = {}
    for label in ("parent", "change"):
        runs[label] = tree(tmp_path, label, {"a.csv": "1\n"} | ({"b.csv": "2\n"} if label == side else {}))
    where = "det-256-session seed 1 respond"
    # the manifest lists b.csv on one side only, so it differs too
    lines = compare.differences(runs["parent"], runs["change"])
    assert lines == [f"{where}: b.csv only in {side}", f"{where}: manifest.json differs"]


def test_byte_change_is_flagged(tmp_path, compare):
    parent = tree(tmp_path, "parent", {"a.csv": "0.10000000000000001\n"})
    change = tree(tmp_path, "change", {"a.csv": "0.10000000000000002\n"})
    assert compare.differences(parent, change) == ["det-256-session seed 1 respond: a.csv differs"]


def test_manifest_shape_ignores_wall_time_and_paths(tmp_path, compare):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    manifest(a, tmp_path / "one" / "out", 0.25, ["eta_0009.csv"])
    manifest(b, tmp_path / "two" / "other", 9.0, ["eta_0009.csv"])
    assert compare.manifest_shape(a) == compare.manifest_shape(b)
    assert compare.manifest_shape(a) == (
        ["command", "config", "config_sha256", "outputs", "wall_time_s"],
        ["eta_0009.csv"],
    )


def test_largest_csv_distance_names_its_file(tmp_path, compare):
    # only the CSVs that differ count, the farthest one is named, and its distance is perfbench's
    parent = tree(tmp_path, "parent", {"eta_0009.csv": "x,value\n0,1\n0.5,3\n", "eta_0010.csv": "x,value\n0,1\n", "a.json": "1"})
    change = tree(tmp_path, "change", {"eta_0009.csv": "x,value\n0,1\n0.5,2.5\n", "eta_0010.csv": "x,value\n0,1\n", "a.json": "2"})
    assert compare.largest_csv_distance(parent, change) == (0.25, "det-256-session seed 1 respond: eta_0009.csv")
    assert compare.largest_csv_distance(parent, parent) is None
