"""The README's quick example runs as written, so the public names it uses stay honest."""

import pathlib
import re

import numpy as np

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_quick_example_runs():
    code = re.search(r"Quick example.*?```python\n(.*?)```", README.read_text(), re.S).group(1)
    scope: dict = {}
    exec(code, scope)
    x = np.arange(scope["N"]) / scope["N"]
    # the example's closing comment: etas[n] (n = 9 .. 12) is -cos(2 pi x) up to discretization error
    for n in range(9, 13):
        assert np.max(np.abs(scope["etas"][n] + np.cos(2 * np.pi * x))) <= 1e-6
