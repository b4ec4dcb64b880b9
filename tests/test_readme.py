"""The README's quick example and config block run as written, so the public names they use stay honest."""

import pathlib
import re

import numpy as np
import pytest

from seqresponse import cli

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_quick_example_runs():
    code = re.search(r"Quick example.*?```python\n(.*?)```", README.read_text(), re.S).group(1)
    scope: dict = {}
    exec(code, scope)
    x = np.arange(scope["N"]) / scope["N"]
    # the example's closing comment: etas[n] (n = 9 .. 12) is -cos(2 pi x) up to discretization error
    for n in range(9, 13):
        assert np.max(np.abs(scope["etas"][n] + np.cos(2 * np.pi * x))) <= 1e-6


@pytest.mark.parametrize("mode", ["deterministic", "noisy"])
def test_config_block_responds(tmp_path, mode):
    # the block as written, only its output directory moved; the noisy run flips the one mode line
    block = re.search(r"### Config format.*?```ini\n(.*?)```", README.read_text(), re.S).group(1)
    assert "mode = deterministic\n" in block and "output_dir = out\n" in block
    text = block.replace("output_dir = out\n", f"output_dir = {tmp_path / 'out'}\n")
    path = tmp_path / "exp.ini"
    path.write_text(text.replace("mode = deterministic\n", f"mode = {mode}\n"))
    assert cli.main(["respond", str(path)]) == 0
    assert (tmp_path / "out" / "validation.json").exists()
