import json

import numpy as np
import pytest

from seqresponse import cli, config
from seqresponse.errors import ConfigError

BASE_DET = """
[experiment]
mode = deterministic
n = 256
window = 0, 12
burn_in = 60
eps = 1e-2, 1e-3
seed = 7
output_dir = {out}
truncation = 8
tolerance = 2e-2
tail_c = 1.0
tail_rate = 0.5

[reference_map]
degree = 2

[kick]
coeffs = 1:0.0:0.15915494309189535

[schedule]
kind = constant
"""

BASE_NOISY = """
[experiment]
mode = noisy
n = 256
window = 0, 10
burn_in = 60
eps = 1e-2, 1e-3
seed = 11
output_dir = {out}
truncation = 6
tolerance = 2e-2

[reference_map]
degree = 2

[drift]
dot = 2:0.0:1.0

[noise]
preset = bump:0.5,0.08,0.3

[schedule]
kind = constant

[simulate]
steps = 3
samples = 20000
bins = 32
eps = 0.02
"""


def write_config(tmp_path, text, name="exp.ini", **extra):
    out = tmp_path / "out"
    body = text.format(out=out)
    for line in extra.get("append", ()):
        body += line + "\n"
    path = tmp_path / name
    path.write_text(body)
    return str(path), out


class TestConfigParsing:
    def test_missing_field_named(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[experiment]\nmode = deterministic\n")
        with pytest.raises(ConfigError, match="experiment.n"):
            config.load_config(str(path))

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            config.load_config("/nonexistent/exp.ini")

    def test_bad_mode(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[experiment]\nmode = quantum\nn = 256\n")
        with pytest.raises(ConfigError, match="mode"):
            config.load_config(str(path))

    def test_coeff_triples(self):
        cos, sin = config.parse_coeff_triples("0:0.5:0.0, 2:0.1:-0.2", "t")
        assert cos == (0.5, 0.0, 0.1)
        assert sin == (0.0, 0.0, -0.2)

    def test_coeff_triples_malformed(self):
        with pytest.raises(ConfigError, match="k:a:b"):
            config.parse_coeff_triples("1:0.5", "t")

    def test_roundtrip_system(self, tmp_path):
        path, _ = write_config(tmp_path, BASE_DET)
        cfg = config.load_config(path)
        sys_ = config.build_system(cfg)
        assert sys_.n_points == 256
        assert sys_.window == (0, 12)


class TestExitCodes:
    def test_config_error_is_1(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[experiment]\nmode = deterministic\n")
        assert cli.main(["certify", str(path)]) == 1

    def test_non_expanding_is_2(self, tmp_path, capsys):
        path, _ = write_config(
            tmp_path,
            BASE_DET.replace("degree = 2", "degree = 2\ncoeffs = 1:0.0:0.5"),
        )
        assert cli.main(["certify", path]) == 2
        assert "invalid system" in capsys.readouterr().err

    def test_not_converged_is_3(self, tmp_path):
        # non-uniform fixed point, two burn-in steps, absurd tolerance
        path, _ = write_config(
            tmp_path,
            BASE_DET.replace("burn_in = 60", "burn_in = 2\npullback_tol = 1e-18").replace(
                "degree = 2", "degree = 2\ncoeffs = 1:0.0:0.01"
            ),
        )
        assert cli.main(["equivariant", path]) == 3

    def test_tail_not_small_is_4(self, tmp_path):
        path, _ = write_config(
            tmp_path, BASE_DET.replace("tolerance = 2e-2", "tolerance = 2e-2\ntail_tol = 1e-12")
        )
        assert cli.main(["respond", path]) == 4

    def test_validation_failure_is_4(self, tmp_path):
        path, _ = write_config(tmp_path, BASE_DET.replace("tolerance = 2e-2", "tolerance = 1e-12"))
        assert cli.main(["respond", path]) == 4

    def test_simulate_needs_noisy(self, tmp_path):
        path, _ = write_config(tmp_path, BASE_DET)
        assert cli.main(["simulate", path]) == 1

    @pytest.mark.parametrize(
        "base, old, new, command",
        [
            pytest.param(BASE_DET, "n = 256", "n = 255", "certify", id="odd-n"),
            pytest.param(BASE_DET, "n = 256", "n = 8", "certify", id="small-n"),
            pytest.param(BASE_DET, "[schedule]", "[memory]\nk_max = twelve\n\n[schedule]", "memory", id="k_max"),
            pytest.param(BASE_DET, "tail_c = 1.0", "tail_c = one", "respond", id="tail_c"),
            pytest.param(BASE_DET, "[schedule]", "[memory]\nharmonic = two\n\n[schedule]", "memory", id="harmonic"),
            pytest.param(BASE_NOISY, "samples = 20000", "samples = 1e5", "simulate", id="samples"),
            pytest.param(BASE_DET, "window = 0, 12", "window = 5, 0", "equivariant", id="window-reversed"),
            pytest.param(BASE_DET, "burn_in = 60", "burn_in = 0", "equivariant", id="burn_in-0"),
            pytest.param(BASE_DET, "truncation = 8", "truncation = 0", "respond", id="truncation-0"),
            pytest.param(BASE_DET, "eps = 1e-2, 1e-3", "eps = 1e-2, 0", "respond", id="eps-0"),
            pytest.param(BASE_NOISY, "samples = 20000", "samples = 9999", "simulate", id="samples-few"),
            pytest.param(BASE_NOISY, "bins = 32", "bins = 48", "simulate", id="bins-not-dividing-n"),
            pytest.param(BASE_DET, "tail_rate = 0.5", "tail_rate = 1.5", "respond", id="tail_rate-1.5"),
            pytest.param(BASE_DET, "tail_rate = 0.5", "tail_rate = 1.0", "respond", id="tail_rate-1"),
            pytest.param(BASE_DET, "tail_rate = 0.5", "tail_rate = -0.5", "respond", id="tail_rate-negative"),
            pytest.param(BASE_DET, "tail_c = 1.0", "tail_c = 0", "respond", id="tail_c-0"),
        ],
    )
    def test_bad_value_is_1(self, tmp_path, capsys, base, old, new, command):
        assert old in base
        path, _ = write_config(tmp_path, base.replace(old, new))
        assert cli.main([command, path]) == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "base, old, new, command",
        [
            pytest.param(BASE_DET, "degree = 2", "degree = 1", "certify", id="degree-1"),
            pytest.param(BASE_DET, "degree = 2", "degree = 2\ncoeffs = 17:0.0:0.001", "certify", id="index-17"),
            pytest.param(BASE_NOISY, "bump:0.5,0.08,0.3", "bump:0.5,0.08,1.0", "simulate", id="floor-1"),
        ],
    )
    def test_invalid_system_is_2(self, tmp_path, capsys, base, old, new, command):
        assert old in base
        path, _ = write_config(tmp_path, base.replace(old, new))
        assert cli.main([command, path]) == 2
        assert "invalid system" in capsys.readouterr().err


class TestCertify:
    def test_doubling(self, tmp_path):
        path, out = write_config(tmp_path, BASE_DET)
        assert cli.main(["certify", path]) == 0
        cert = json.loads((out / "certificate.json").read_text())
        assert cert["status"] == "numerically certified"
        assert cert["C_T0"] == 6.0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "certify"
        assert len(manifest["config_sha256"]) == 64


class TestEquivariant:
    def test_uniform_family(self, tmp_path):
        path, out = write_config(tmp_path, BASE_DET)
        assert cli.main(["equivariant", path]) == 0
        data = np.loadtxt(out / "mu_0005.csv", delimiter=",", skiprows=1)
        assert np.max(np.abs(data[:, 1] - 1.0)) <= 1e-8
        report = json.loads((out / "family.json").read_text())
        assert len(report["family"]) == 13
        assert all(abs(r["mass"] - 1.0) <= 1e-9 for r in report["family"])

    def test_two_seed_report(self, tmp_path):
        path, out = write_config(tmp_path, BASE_NOISY)
        assert cli.main(["equivariant", path, "--two-seed"]) == 0
        report = json.loads((out / "family.json").read_text())
        assert report["two_seed_l1_gap"] <= 1e-8

    def test_byte_identical_reruns(self, tmp_path):
        path, out = write_config(tmp_path, BASE_NOISY)
        assert cli.main(["equivariant", path]) == 0
        first = (out / "mu_0003.csv").read_bytes()
        assert cli.main(["equivariant", path]) == 0
        assert (out / "mu_0003.csv").read_bytes() == first


class TestMemory:
    def test_decay_csv(self, tmp_path):
        path, out = write_config(tmp_path, BASE_NOISY, append=["[memory]", "k_max = 6"])
        assert cli.main(["memory", path]) == 0
        rows = (out / "decay.csv").read_text().strip().splitlines()
        assert rows[0] == "k,w11,l1"
        assert len(rows) == 7
        # Doeblin schedule: L1 norms decay at least like 0.69^k
        l1 = [float(r.split(",")[2]) for r in rows[1:]]
        assert l1[-1] <= 0.7**6 * l1[0] / 0.69 + 1e-9


class TestRespond:
    def test_closed_form(self, tmp_path):
        path, out = write_config(tmp_path, BASE_DET)
        assert cli.main(["respond", path, "--emit-gnuplot"]) == 0
        data = np.loadtxt(out / "eta_0010.csv", delimiter=",", skiprows=1)
        assert np.max(np.abs(data[:, 1] + np.cos(2 * np.pi * data[:, 0]))) <= 1e-5
        report = json.loads((out / "response.json").read_text())
        assert report["validation_pass"]
        assert report["max_mass_defect"] <= 1e-8
        summary = json.loads((out / "validation.json").read_text())
        assert summary["pass"]
        assert (out / "plot.gp").exists()

    def test_zero_perturbation_zero_eta(self, tmp_path):
        path, out = write_config(
            tmp_path,
            BASE_DET.replace("coeffs = 1:0.0:0.15915494309189535", "")
            .replace("eps = 1e-2, 1e-3", "eps ="),
        )
        assert cli.main(["respond", path]) == 0
        data = np.loadtxt(out / "eta_0010.csv", delimiter=",", skiprows=1)
        assert np.max(np.abs(data[:, 1])) <= 1e-12


class TestSimulate:
    def test_histogram_and_comparison(self, tmp_path):
        path, out = write_config(tmp_path, BASE_NOISY)
        assert cli.main(["simulate", path]) == 0
        rows = (out / "histogram.csv").read_text().strip().splitlines()
        assert rows[0] == "bin_left,density"
        assert len(rows) == 33
        report = json.loads((out / "simulate.json").read_text())
        assert report["l1_vs_operator"] <= 0.1

    def test_seed_determinism(self, tmp_path):
        path, out = write_config(tmp_path, BASE_NOISY)
        assert cli.main(["simulate", path]) == 0
        first = (out / "histogram.csv").read_bytes()
        assert cli.main(["simulate", path]) == 0
        assert (out / "histogram.csv").read_bytes() == first
