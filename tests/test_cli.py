import hashlib
import json
import os
import pathlib
import shutil
import subprocess
import sys
import warnings

import numpy as np
import pytest

from seqresponse import cli, config, constants, errors, grid, noise, sequence, transfer
from seqresponse.errors import ConfigError
from seqresponse.maps import CircleMap, c2_distance

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


# Two maps, neither the reference map, alternating from step 0.
PERIODIC_NOISY = BASE_NOISY.replace("kind = constant", "kind = periodic\nmaps = map.a, map.b") + """
[map.a]
degree = 2
coeffs = 1:0.0:0.05

[map.b]
degree = 3
coeffs = 1:0.02:0.0, 2:0.0:0.01
"""


# Three maps: a third, map.c, after the two of PERIODIC_NOISY.
PERIODIC_NOISY_3 = PERIODIC_NOISY.replace("maps = map.a, map.b", "maps = map.a, map.b, map.c") + """
[map.c]
degree = 2
coeffs = 1:0.01:0.0
"""


SEEDED_DET = BASE_DET.replace("kind = constant", "kind = seeded_random\nmaps = reference_map\nseed = 0")


# No tail constants and no eps list: respond certifies the reference map and runs no validation.
CERTIFIED_DET = BASE_DET.replace("tail_c = 1.0\n", "").replace("tail_rate = 0.5\n", "").replace("eps = 1e-2, 1e-3", "eps =")
FAR_MAPS = """
[map.far]
degree = 2
coeffs = 1:0.0:0.05

[map.cubic]
degree = 3
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

    def test_coeff_triples(self, tmp_path):
        path, _ = write_config(tmp_path, BASE_DET.replace("degree = 2", "degree = 2\ncoeffs = 0:0.5:0.0, 2:0.01:-0.02"))
        p = config.build_map(config.load_config(path)).p
        assert p.a.tolist() == [0.5, 0.0, 0.01]
        assert p.b.tolist() == [0.0, 0.0, -0.02]

    def test_percent_is_literal(self, tmp_path):
        path, out = write_config(tmp_path, BASE_DET.replace("output_dir = {out}", "output_dir = {out}/100%"))
        assert config.load_config(path).output_dir == f"{out}/100%"

    def test_unset_keys_take_typed_defaults(self, tmp_path):
        path = tmp_path / "min.ini"
        path.write_text("[experiment]\nmode = noisy\nn = 256\n")
        cfg = config.load_config(str(path))
        assert (cfg.window, cfg.burn_in, cfg.eps_list, cfg.seed, cfg.output_dir) == ((0, 10), 60, (), 0, "out")
        assert (cfg.truncation, cfg.tolerance, cfg.pullback_tol) == (8, 1e-2, 1e-8)
        assert config.read_respond(cfg) == (None, None)
        assert config.read_memory(cfg) == (12, 0)
        assert config.read_simulate(cfg) == (5, 100000, 64, 0.0)
        assert config.schedule_sections(cfg) == ("constant", ["reference_map"])

    def test_default_bins_must_divide_n(self, tmp_path):
        # a default is not parsed, so the rule across keys still sees the default 64 bins
        path = tmp_path / "n48.ini"
        path.write_text("[experiment]\nmode = noisy\nn = 48\n")
        with pytest.raises(ConfigError, match=r"^simulate.bins: must divide experiment.n = 48, got 64$"):
            config.read_simulate(config.load_config(str(path)))

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[experiment]\nmode = noisy\n", "missing field experiment.n"),
            ("[reference_map]\n", "missing section [experiment]"),
            ("[experiment]\nmode = noisy\nn = 2.5e2\n", "experiment.n: invalid literal for int() with base 10: '2.5e2'"),
            ("[experiment]\nmode = noisy\nn = 256\nwindow = 1, 2, 3\n", "experiment.window: must be two comma-separated integers"),
        ],
        ids=["missing-field", "missing-section", "parse", "check"],
    )
    def test_reader_names_the_key(self, tmp_path, text, message):
        path = tmp_path / "bad.ini"
        path.write_text(text)
        with pytest.raises(ConfigError) as info:
            config.load_config(str(path))
        assert str(info.value) == message

    def test_roundtrip_system(self, tmp_path):
        path, _ = write_config(tmp_path, BASE_DET)
        cfg = config.load_config(path)
        sys_ = config.build_system(cfg)
        assert sys_.n_points == 256
        assert sys_.window == (0, 12)

    def test_noise_built_once(self, tmp_path, monkeypatch):
        bumps = []
        bump = noise.NoiseDensity.bump
        monkeypatch.setattr(noise.NoiseDensity, "bump", lambda *a: bumps.append(a) or bump(*a))
        path, _ = write_config(tmp_path, PERIODIC_NOISY_3.replace("eps = 1e-2, 1e-3", "eps ="))
        sys_ = config.build_system(config.load_config(path))
        entries = [sys_.schedule(k) for k in range(3)]
        assert len({id(e.drift) for e in entries}) == 3
        assert all(e.noise is entries[0].noise for e in entries)
        # respond's Doeblin certificate reads the system's noise instead of building its own
        assert cli.main(["respond", path]) == 0
        assert len(bumps) == 2

    def test_entries_share_kick_and_drift_dot(self, tmp_path):
        det = BASE_DET.replace("kind = constant", "kind = periodic\nmaps = map.a, map.b, map.c")
        det += "".join(f"\n[map.{s}]\ndegree = 2\n" for s in "abc")
        for name, text, shared in (
            ("det.ini", det, lambda e: e.kick),
            ("noisy.ini", PERIODIC_NOISY_3, lambda e: e.drift.dot),
        ):
            path, _ = write_config(tmp_path, text, name=name)
            sys_ = config.build_system(config.load_config(path))
            entries = [sys_.schedule(k) for k in range(3)]
            assert len({id(e) for e in entries}) == 3
            assert shared(entries[0]) is not None
            assert all(shared(e) is shared(entries[0]) for e in entries)


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

    def test_window_too_short_for_truncation_is_1(self, tmp_path, capsys, monkeypatch):
        # found before any work: respond's reader checks it, so the pullback never runs
        pullbacks = []
        monkeypatch.setattr(sequence, "pullback_equivariant", lambda *a, **k: pullbacks.append(a))
        path, _ = write_config(tmp_path, BASE_DET.replace("window = 0, 12", "window = 0, 5"))
        assert cli.main(["respond", path]) == 1
        err = capsys.readouterr().err
        assert err == "config error: experiment.truncation: must be <= hi - lo - 1 = 4 of experiment.window, got 8\n"
        assert not pullbacks

    @pytest.mark.parametrize("hi, ok", [(9, True), (8, False)])
    def test_window_depth_is_truncation_plus_1(self, tmp_path, hi, ok):
        # the series reports eta_n from n = lo + K + 1 on, as neumann_response's own check has it
        path, _ = write_config(tmp_path, BASE_DET.replace("window = 0, 12", f"window = 0, {hi}"))
        cfg = config.load_config(path)
        if ok:
            assert config.read_respond(cfg) == ((1.0, 0.5), None)
        else:
            with pytest.raises(ConfigError, match="^experiment.truncation: "):
                config.read_respond(cfg)

    def test_simulate_needs_noisy(self, tmp_path):
        path, _ = write_config(tmp_path, BASE_DET)
        assert cli.main(["simulate", path]) == 1

    @pytest.mark.parametrize(
        "argv", [[], ["respond"], ["bogus", "x.ini"], ["certify", "x.ini", "--two-seed"]],
        ids=["no-arguments", "no-config", "unknown-command", "unknown-flag"],
    )
    def test_bad_command_line_is_1(self, capsys, argv):
        assert cli.main(argv) == 1
        assert "usage: seqresponse" in capsys.readouterr().err

    def test_help_is_0(self, capsys):
        assert cli.main(["--help"]) == 0
        assert "usage: seqresponse" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "base, old, new, command, key",
        [
            pytest.param(BASE_DET, "n = 256", "n = 255", "certify", "experiment.n", id="odd-n"),
            pytest.param(BASE_DET, "n = 256", "n = 8", "certify", "experiment.n", id="small-n"),
            pytest.param(BASE_DET, "[schedule]", "[memory]\nk_max = twelve\n\n[schedule]", "memory", "memory.k_max", id="k_max"),
            pytest.param(BASE_DET, "tail_c = 1.0", "tail_c = one", "respond", "experiment.tail_c", id="tail_c"),
            pytest.param(BASE_DET, "[schedule]", "[memory]\nharmonic = two\n\n[schedule]", "memory", "memory.harmonic", id="harmonic"),
            pytest.param(BASE_NOISY, "samples = 20000", "samples = 1e5", "simulate", "simulate.samples", id="samples"),
            pytest.param(BASE_DET, "window = 0, 12", "window = 5, 0", "equivariant", "experiment.window", id="window-reversed"),
            pytest.param(BASE_DET, "burn_in = 60", "burn_in = 0", "equivariant", "experiment.burn_in", id="burn_in-0"),
            pytest.param(BASE_DET, "burn_in = 60", "burn_in = 1", "equivariant", "experiment.burn_in", id="burn_in-1"),
            pytest.param(BASE_DET, "truncation = 8", "truncation = 0", "respond", "experiment.truncation", id="truncation-0"),
            pytest.param(BASE_DET, "eps = 1e-2, 1e-3", "eps = 1e-2, 0", "respond", "experiment.eps", id="eps-0"),
            pytest.param(BASE_DET, "eps = 1e-2, 1e-3", "eps = 1e-3, 0.001", "respond", "experiment.eps", id="eps-duplicate"),
            pytest.param(BASE_NOISY, "samples = 20000", "samples = 9999", "simulate", "simulate.samples", id="samples-few"),
            pytest.param(BASE_NOISY, "bins = 32", "bins = 48", "simulate", "simulate.bins", id="bins-not-dividing-n"),
            pytest.param(BASE_DET, "tail_rate = 0.5", "tail_rate = 1.5", "respond", "experiment.tail_rate", id="tail_rate-1.5"),
            pytest.param(BASE_DET, "tail_rate = 0.5", "tail_rate = 1.0", "respond", "experiment.tail_rate", id="tail_rate-1"),
            pytest.param(BASE_DET, "tail_rate = 0.5", "tail_rate = -0.5", "respond", "experiment.tail_rate", id="tail_rate-negative"),
            pytest.param(BASE_DET, "tail_c = 1.0", "tail_c = 0", "respond", "experiment.tail_c", id="tail_c-0"),
            pytest.param(BASE_DET, "tail_rate = 0.5\n", "", "respond", "experiment.tail_rate", id="tail_c-alone"),
            pytest.param(BASE_DET, "tail_c = 1.0\n", "", "respond", "experiment.tail_c", id="tail_rate-alone"),
            pytest.param(BASE_DET, "window = 0, 12", "window = 0, 5", "respond", "truncation", id="window-below-truncation"),
            pytest.param(BASE_DET, "[schedule]", "[memory]\nk_max = -1\n\n[schedule]", "memory", "memory.k_max", id="k_max-negative"),
            pytest.param(BASE_DET, "[schedule]", "[memory]\nk_max = 0\n\n[schedule]", "memory", "memory.k_max", id="k_max-0"),
            pytest.param(BASE_NOISY, "steps = 3", "steps = -1", "simulate", "simulate.steps", id="steps-negative"),
            pytest.param(BASE_DET, "degree = 2", "degree = 2\ncoeffs = 17:0.0:0.001", "certify", "reference_map.coeffs", id="index-17"),
            pytest.param(BASE_DET, "coeffs = 1:0.0:", "coeffs = 17:0.0:", "respond", "kick.coeffs", id="kick-index-17"),
            pytest.param(BASE_NOISY, "bump:0.5,0.08,0.3", "bump:0.5,0.08,1.0", "simulate", "noise.preset", id="floor-1"),
            pytest.param(BASE_NOISY, "bump:0.5,0.08,0.3", "bump:0.5,0.08,-0.1", "respond", "noise.preset", id="floor-negative"),
            pytest.param(BASE_NOISY, "bump:0.5,0.08,0.3", "bump:0.5,0,0.3", "respond", "noise.preset", id="width-0"),
            pytest.param(BASE_NOISY, "bump:0.5,0.08,0.3", "bump:nan,0.08,0.3", "simulate", "noise.preset", id="center-nan"),
            pytest.param(BASE_DET, "n = 256", "n = 256\nn = 256", "respond", "exp.ini", id="duplicate-key"),
            pytest.param(BASE_DET, "[schedule]", "[kick]\ncoeffs = 1:0.0:0.1\n\n[schedule]", "respond", "exp.ini", id="duplicate-section"),
            pytest.param(BASE_DET, "[experiment]\n", "", "respond", "exp.ini", id="no-section-header"),
            pytest.param(BASE_DET, "tolerance = 2e-2", "tolerance = 2%", "respond", "experiment.tolerance", id="percent-literal"),
            pytest.param(BASE_DET, "tolerance = 2e-2", "tolerance = nan", "respond", "experiment.tolerance", id="tolerance-nan"),
            pytest.param(BASE_DET, "tolerance = 2e-2", "tolerance = inf", "respond", "experiment.tolerance", id="tolerance-inf"),
            pytest.param(BASE_DET, "tolerance = 2e-2", "tolerance = -inf", "respond", "experiment.tolerance", id="tolerance--inf"),
            pytest.param(BASE_DET, "tolerance = 2e-2", "tolerance = 0", "respond", "experiment.tolerance", id="tolerance-0"),
            pytest.param(BASE_DET, "burn_in = 60", "burn_in = 60\npullback_tol = nan", "respond", "experiment.pullback_tol", id="pullback_tol-nan"),
            pytest.param(BASE_DET, "burn_in = 60", "burn_in = 60\npullback_tol = inf", "equivariant", "experiment.pullback_tol", id="pullback_tol-inf"),
            pytest.param(BASE_DET, "burn_in = 60", "burn_in = 60\npullback_tol = -1e-8", "equivariant", "experiment.pullback_tol", id="pullback_tol-negative"),
            pytest.param(BASE_DET, "tail_rate = 0.5", "tail_rate = 0.5\ntail_tol = nan", "respond", "experiment.tail_tol", id="tail_tol-nan"),
            pytest.param(BASE_DET, "tail_rate = 0.5", "tail_rate = 0.5\ntail_tol = inf", "respond", "experiment.tail_tol", id="tail_tol-inf"),
            pytest.param(BASE_DET, "eps = 1e-2, 1e-3", "eps = 1e-2, nan", "respond", "experiment.eps", id="eps-nan"),
            pytest.param(BASE_DET, "eps = 1e-2, 1e-3", "eps = inf, 1e-3", "respond", "experiment.eps", id="eps-inf"),
            pytest.param(BASE_DET, "eps = 1e-2, 1e-3", "eps = 1e-2, -inf", "respond", "experiment.eps", id="eps--inf"),
            pytest.param(BASE_NOISY, "eps = 0.02", "eps = nan", "simulate", "simulate.eps", id="simulate-eps-nan"),
            pytest.param(BASE_NOISY, "eps = 0.02", "eps = inf", "simulate", "simulate.eps", id="simulate-eps-inf"),
            pytest.param(
                BASE_DET, "[schedule]", "[equivariant]\nharmonic = 0\n\n[schedule]", "equivariant --two-seed",
                "equivariant.harmonic", id="equivariant-harmonic-0",
            ),
            pytest.param(
                BASE_DET, "[schedule]", "[equivariant]\nharmonic = 256\n\n[schedule]", "equivariant --two-seed",
                "equivariant.harmonic", id="equivariant-harmonic-n",
            ),
            pytest.param(BASE_DET, "[schedule]", "[memory]\nharmonic = 0\n\n[schedule]", "memory", "memory.harmonic", id="memory-harmonic-0"),
            pytest.param(BASE_DET, "[schedule]", "[memory]\nharmonic = -512\n\n[schedule]", "memory", "memory.harmonic", id="memory-harmonic--2n"),
            pytest.param(BASE_NOISY, "seed = 11", f"seed = {2**70}", "simulate", "experiment.seed", id="seed-2**70"),
            pytest.param(BASE_NOISY, "seed = 11", f"seed = {2**64 - 1}", "simulate", "experiment.seed", id="seed-2**64-1"),
            pytest.param(BASE_NOISY, "seed = 11", "seed = -1", "simulate", "experiment.seed", id="seed--1"),
            pytest.param(SEEDED_DET, "seed = 0", f"seed = {2**70}", "equivariant", "schedule.seed", id="schedule-seed-2**70"),
            pytest.param(SEEDED_DET, "seed = 0", f"seed = {2**64 - 1}", "equivariant", "schedule.seed", id="schedule-seed-2**64-1"),
            pytest.param(SEEDED_DET, "seed = 0", "seed = -1", "equivariant", "schedule.seed", id="schedule-seed--1"),
            pytest.param(BASE_DET, "degree = 2", "degree = 2\ncoeffs = 1:nan:0.0", "respond", "reference_map.coeffs", id="map-coeff-nan"),
            pytest.param(BASE_DET, "degree = 2", "degree = 2\ncoeffs = 1:0.5", "certify", "reference_map.coeffs: expected k:a:b triple", id="map-coeff-pair"),
            pytest.param(
                BASE_DET, "degree = 2", "degree = 2\ncoeffs = 1:0.0:0.05, 1:0.0:0.01", "equivariant", "reference_map.coeffs", id="map-coeff-duplicate"
            ),
            pytest.param(BASE_DET, "coeffs = 1:0.0:0.15915494309189535", "coeffs = 1:0.0:inf", "respond", "kick.coeffs", id="kick-coeff-inf"),
            pytest.param(BASE_NOISY, "dot = 2:0.0:1.0", "dot = 2:0.0:nan", "simulate", "drift.dot", id="drift-coeff-nan"),
            pytest.param(BASE_DET, "tail_c = 1.0", "tail_c = inf", "respond", "experiment.tail_c", id="tail_c-inf"),
            pytest.param(BASE_NOISY, "preset = bump:0.5,0.08,0.3", f"csv = {os.devnull}", "respond", "noise.csv", id="noise-csv-empty"),
            pytest.param(BASE_NOISY, "preset = bump:0.5,0.08,0.3", "csv = newline.csv", "respond", "noise.csv", id="noise-csv-newline"),
            pytest.param(
                BASE_DET, "[schedule]", f"[equivariant]\nseed_csv = {os.devnull}\n\n[schedule]", "equivariant --two-seed",
                "equivariant.seed_csv", id="seed-csv-empty",
            ),
            pytest.param(
                BASE_NOISY, "[schedule]", "csv = density.csv\n\n[schedule]", "respond", "noise.csv", id="noise-preset-and-csv"
            ),
            pytest.param(
                BASE_DET, "[schedule]", "[equivariant]\nseed_csv = density.csv\nharmonic = 2\n\n[schedule]",
                "equivariant --two-seed", "equivariant.harmonic", id="equivariant-seed_csv-and-harmonic",
            ),
            pytest.param(
                BASE_DET, "[schedule]", "[memory]\nseed_csv = density.csv\nharmonic = 2\n\n[schedule]", "memory",
                "memory.harmonic", id="memory-seed_csv-and-harmonic",
            ),
        ],
    )
    def test_bad_value_is_1(self, tmp_path, capsys, monkeypatch, base, old, new, command, key):
        assert old in base
        path, _ = write_config(tmp_path, base.replace(old, new))
        (tmp_path / "newline.csv").write_text("\n")  # the noise-csv-newline row reads it
        grid.write_density_csv(tmp_path / "density.csv", 1.0 + 0.5 * np.cos(2 * np.pi * np.arange(256) / 256))  # a valid one
        monkeypatch.chdir(tmp_path)
        name, *flags = command.split()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main([name, path, *flags]) == 1
        err = capsys.readouterr().err
        # one line naming the key at fault; a file that does not parse is named instead
        assert err.startswith("config error: ") and key in err, err
        assert not caught, [str(w.message) for w in caught]  # no warning is printed before the error
        assert err.count("\n") == 1, err

    def test_not_utf8_is_1(self, tmp_path, capsys):
        path, _ = write_config(tmp_path, BASE_DET)
        with open(path, "ab") as fh:
            fh.write("; r\u00e9sum\u00e9\n".encode("latin-1"))
        assert cli.main(["respond", path]) == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "base, old, new, command, warned",
        [
            pytest.param(BASE_DET, "degree = 2", "degree = 1", "certify", [], id="degree-1"),
            # the Doeblin floor 1e-220 rounds away in 1 - alpha; at width 0.001 it is 0
            pytest.param(BASE_NOISY, "bump:0.5,0.08,0.3", "bump:0.5,0.01,0.0", "respond", [], id="floor-rounds-away"),
            pytest.param(
                BASE_NOISY, "bump:0.5,0.08,0.3", "bump:0.5,0.001,0.0", "respond",
                ["noise density touches zero; Doeblin contraction unavailable"], id="floor-0",
            ),
            # l' = 2 - 4 pi 1e308 sin 4 pi x: the coefficient of p' overflows, and is named before any probe
            pytest.param(BASE_DET, "degree = 2", "degree = 2\ncoeffs = 2:1e308:0", "certify", [], id="map-derivative-nan"),
        ],
    )
    def test_invalid_system_is_2(self, tmp_path, capsys, base, old, new, command, warned):
        assert old in base
        path, _ = write_config(tmp_path, base.replace(old, new))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main([command, path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid system: ") and err.count("\n") == 1, err
        assert [str(w.message) for w in caught] == warned
        if "1e308" in new:
            assert err == "invalid system: coefficient of harmonic 2 in p' overflows: it is not finite\n"

    @pytest.mark.parametrize(
        "old, new, command, shown, reason",
        [
            pytest.param("eps = 1e-2, 1e-3", "eps = 1e-1, 1e-3", "respond", "0.1", "probed min", id="fd-eps"),
            pytest.param("eps = 0.02", "eps = 0.1", "simulate", "0.1", "probed min", id="simulate-eps"),
            # 4 pi eps overflows to inf: p' has a coefficient past the float range, named before any probe
            pytest.param(
                "eps = 0.02", "eps = 1e308", "simulate", "1e+308",
                "coefficient of harmonic 2 in p' overflows: it is not finite", id="simulate-eps-1e308",
            ),
        ],
    )
    def test_non_expanding_eps_drift_is_2(self, tmp_path, capsys, old, new, command, shown, reason):
        # with fdot = sin 4 pi x the eps-drift's l' = 2 + 4 pi eps cos 4 pi x dips below 1 at eps = 0.1
        assert BASE_NOISY.count(old) == 1
        path, _ = write_config(tmp_path, BASE_NOISY.replace(old, new))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main([command, path]) == 2
        err = capsys.readouterr().err
        prefix = f"invalid system: drift f0 + eps*fdot at eps = {shown}: {reason}"
        assert err.startswith(prefix) and err.count("\n") == 1, err
        assert not caught, [str(w.message) for w in caught]


class TestSineAtHarmonic0:
    """sin(0) = 0, so a sine amplitude at k = 0 would be dropped: it is a config error that names its key."""

    # each new text holds the k = 0 triple as 0:A0:B0
    CASES = [
        pytest.param(BASE_DET, "degree = 2", "degree = 2\ncoeffs = 0:A0:B0", "certify", "reference_map.coeffs", id="map"),
        pytest.param(
            PERIODIC_NOISY, "coeffs = 1:0.0:0.05", "coeffs = 1:0.0:0.05, 0:A0:B0", "equivariant", "map.a.coeffs",
            id="schedule-map",
        ),
        pytest.param(
            BASE_DET, "coeffs = 1:0.0:0.15915494309189535", "coeffs = 0:A0:B0, 1:0.0:0.15915494309189535", "respond",
            "kick.coeffs", id="kick",
        ),
        pytest.param(BASE_NOISY, "dot = 2:0.0:1.0", "dot = 0:A0:B0, 2:0.0:1.0", "simulate", "drift.dot", id="drift"),
    ]

    @pytest.mark.parametrize("base, old, new, command, key", CASES)
    @pytest.mark.parametrize("b", ["0.3", "-1e-300"])
    def test_is_1(self, tmp_path, capsys, base, old, new, command, key, b):
        path, _ = write_config(tmp_path, base.replace(old, new.replace("A0", "0.0").replace("B0", b)))
        assert cli.main([command, path]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {key}: harmonic 0 has no sine term") and err.count("\n") == 1, err

    @pytest.mark.parametrize("base, old, new, command, key", CASES)
    def test_constant_term_is_0(self, tmp_path, base, old, new, command, key):
        assert old in base
        path, _ = write_config(tmp_path, base.replace(old, new.replace("A0", "0.01").replace("B0", "0")))
        assert cli.main([command, path]) == 0


def test_every_error_names_its_exit_code():
    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    found = list(subclasses(errors.SeqResponseError))
    assert len(found) == 5
    assert all(c.exit_code in {1, 2, 3, 4} and c.label for c in found)


class TestSeedCsv:
    """`[equivariant] seed_csv` must fit the experiment, or the run is a config error."""

    def run(self, tmp_path, capsys, x, values):
        seed = tmp_path / "seed.csv"
        seed.write_text("x,value\n" + "".join(f"{a!r},{b!r}\n" for a, b in zip(x.tolist(), values.tolist())))
        path, out = write_config(tmp_path, BASE_DET, append=["[equivariant]", f"seed_csv = {seed}"])
        code = cli.main(["equivariant", path, "--two-seed"])
        return code, capsys.readouterr().err, out

    def test_fitting_file_runs(self, tmp_path, capsys):
        x = np.arange(256) / 256
        code, _, out = self.run(tmp_path, capsys, x, 1.0 + 0.5 * np.sin(2 * np.pi * x))
        assert code == 0
        assert json.loads((out / "family.json").read_text())["two_seed_l1_gap"] <= 1e-8

    def test_wrong_point_count_is_1(self, tmp_path, capsys):
        code, err, _ = self.run(tmp_path, capsys, np.arange(64) / 64, np.ones(64))
        assert code == 1
        assert "config error" in err and "64 points" in err

    def test_wrong_mass_is_1(self, tmp_path, capsys):
        code, err, _ = self.run(tmp_path, capsys, np.arange(256) / 256, np.full(256, 2.0))
        assert code == 1
        assert "config error" in err and "mass 1" in err

    def test_non_uniform_x_is_1(self, tmp_path, capsys):
        x = np.arange(256) / 256
        x[7] += 1e-3
        code, err, _ = self.run(tmp_path, capsys, x, np.ones(256))
        assert code == 1
        assert "config error" in err and "uniform grid" in err

    def test_nan_value_is_1(self, tmp_path, capsys):
        values = np.ones(256)
        values[5] = np.nan
        code, err, _ = self.run(tmp_path, capsys, np.arange(256) / 256, values)
        assert code == 1
        assert "config error" in err and "finite" in err


class TestNoiseCsv:
    """`[noise] csv` must fit the experiment, or the run is a config error."""

    def write(self, tmp_path, x, values):
        noise = tmp_path / "noise.csv"
        noise.write_text("x,value\n" + "".join(f"{a!r},{b!r}\n" for a, b in zip(x.tolist(), values.tolist())))
        path, _ = write_config(tmp_path, BASE_NOISY.replace("preset = bump:0.5,0.08,0.3", f"csv = {noise}"))
        return path

    def run(self, tmp_path, capsys, x, values):
        code = cli.main(["respond", self.write(tmp_path, x, values)])
        return code, capsys.readouterr().err

    def test_fitting_file_is_read(self, tmp_path):
        x = np.arange(256) / 256
        q = config.build_noise(config.load_config(self.write(tmp_path, x, 1.0 + 0.5 * np.cos(2 * np.pi * x))))
        assert q.n_points == 256 and q.alpha == pytest.approx(0.5)

    def test_wrong_point_count_is_1(self, tmp_path, capsys):
        code, err = self.run(tmp_path, capsys, np.arange(64) / 64, np.ones(64))
        assert code == 1
        assert "config error" in err and "64 points" in err

    def test_negative_samples_is_1(self, tmp_path, capsys):
        x = np.arange(256) / 256
        code, err = self.run(tmp_path, capsys, x, 1.0 + 2.0 * np.cos(2 * np.pi * x))
        assert code == 1
        assert "config error" in err and "negative samples" in err

    def test_non_uniform_x_is_1(self, tmp_path, capsys):
        code, err = self.run(tmp_path, capsys, np.arange(256) / 256 + 0.5 / 256, np.ones(256))
        assert code == 1
        assert "config error" in err and "uniform grid" in err

    def test_nan_value_is_1(self, tmp_path, capsys):
        values = np.ones(256)
        values[5] = np.nan
        code, err = self.run(tmp_path, capsys, np.arange(256) / 256, values)
        assert code == 1
        assert "config error" in err and "finite" in err


class TestNoDenseMatrix:
    """The commands run matrix-free: no transfer operator is ever made dense."""

    @pytest.mark.parametrize(
        "base, command",
        [
            (BASE_DET, "certify"),
            (BASE_DET, "respond"),
            (BASE_DET.replace("tail_c = 1.0\n", "").replace("tail_rate = 0.5\n", ""), "respond"),  # runs certify
            (BASE_NOISY, "respond"),
        ],
        ids=["certify", "respond", "respond-certified-tail", "respond-noisy"],
    )
    def test_runs_with_to_dense_disabled(self, tmp_path, monkeypatch, base, command):
        def refuse(self):
            raise AssertionError("to_dense called outside the tests")

        monkeypatch.setattr(transfer.TransferMatrix, "to_dense", refuse)
        path, out = write_config(tmp_path, base)
        assert cli.main([command, path]) == 0
        assert (out / "manifest.json").exists()


class TestCertify:
    def test_doubling(self, tmp_path):
        path, out = write_config(tmp_path, BASE_DET)
        assert cli.main(["certify", path]) == 0
        cert = json.loads((out / "certificate.json").read_text())
        assert cert["status"] == "numerically certified"
        assert cert["C_T0"] == 6.0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "certify"
        assert manifest["config_sha256"] == hashlib.sha256(pathlib.Path(path).read_bytes()).hexdigest()

    def test_writes_no_plot(self, tmp_path):
        path, out = write_config(tmp_path, BASE_DET)
        assert cli.main(["certify", path, "--emit-gnuplot"]) == 0
        assert not (out / "plot.gp").exists()


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

    @pytest.mark.parametrize(
        "command", ["certify", "equivariant --two-seed", "memory", "respond", "simulate"], ids=lambda c: c.split()[0]
    )
    def test_byte_identical_reruns(self, tmp_path, command):
        # every output but manifest.json, which holds the wall time
        path, out = write_config(tmp_path, BASE_NOISY)
        name, *flags = command.split()
        runs = []
        for _ in range(2):
            shutil.rmtree(out, ignore_errors=True)
            assert cli.main([name, path, *flags]) == 0
            runs.append({f.name: f.read_bytes() for f in out.iterdir() if f.name != "manifest.json"})
        assert runs[0] and runs[1] == runs[0]


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

    def test_plot_script(self, tmp_path):
        path, out = write_config(tmp_path, BASE_NOISY, append=["[memory]", "k_max = 6"])
        assert cli.main(["memory", path, "--emit-gnuplot"]) == 0
        assert (out / "plot.gp").read_text() == (
            "set datafile separator ','\nset key outside\nset title 'loss of memory'\n"
            "plot 'decay.csv' using 1:2 with lines title 'decay.csv'\n"
        )
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["outputs"] == [str(out / "decay.csv"), str(out / "memory.json")]


class TestRespond:
    def test_closed_form(self, tmp_path):
        path, out = write_config(tmp_path, BASE_DET)
        assert cli.main(["respond", path, "--emit-gnuplot"]) == 0
        data = np.loadtxt(out / "eta_0010.csv", delimiter=",", skiprows=1)
        assert np.max(np.abs(data[:, 1] + np.cos(2 * np.pi * data[:, 0]))) <= 1e-5
        report = json.loads((out / "response.json").read_text())
        assert report["validation_pass"]
        assert report["max_mass_defect"] <= 1e-8
        assert "certified_ball" not in report  # the tail constants are given, so nothing is certified
        text = (out / "validation.json").read_text()
        summary = json.loads(text)
        assert summary["pass"]
        assert list(summary) == ["entries", "pass", "tol"] and text == json.dumps(summary, indent=2, sort_keys=True) + "\n"
        assert (out / "plot.gp").exists()

    def test_validation_ranks_eps_by_magnitude(self, tmp_path):
        # D(-1e-2) is about 7e-3: ranked by signed eps it would be the smallest eps and fail the ordering
        path, out = write_config(tmp_path, BASE_DET.replace("eps = 1e-2, 1e-3", "eps = -1e-2, 1e-3"))
        assert cli.main(["respond", path]) == 0
        entries = json.loads((out / "validation.json").read_text())["entries"]
        assert [e["eps"] for e in entries] == [-1e-2, 1e-3]
        assert entries[1]["D"] < entries[0]["D"]

    def test_zero_perturbation_zero_eta(self, tmp_path):
        path, out = write_config(
            tmp_path,
            BASE_DET.replace("coeffs = 1:0.0:0.15915494309189535", "")
            .replace("eps = 1e-2, 1e-3", "eps ="),
        )
        assert cli.main(["respond", path]) == 0
        data = np.loadtxt(out / "eta_0010.csv", delimiter=",", skiprows=1)
        assert np.max(np.abs(data[:, 1])) <= 1e-12

    @pytest.mark.parametrize(
        "maps, outside, max_c2",
        [
            (None, [], 0.0),
            ("reference_map, map.far", ["map.far"], c2_distance(CircleMap(2, sin_coeffs=(0.0, 0.05)), CircleMap(2))),
            ("reference_map, map.cubic", ["map.cubic"], 0.0),
            ("map.cubic", ["map.cubic"], None),
        ],
        ids=["constant", "far-map", "other-degree", "only-other-degree"],
    )
    def test_certified_ball(self, tmp_path, maps, outside, max_c2):
        text = CERTIFIED_DET
        if maps is not None:
            text = text.replace("kind = constant", f"kind = periodic\nmaps = {maps}") + FAR_MAPS
        path, out = write_config(tmp_path, text)
        assert cli.main(["respond", path]) == 0  # a map outside the ball changes no exit code
        ball = json.loads((out / "response.json").read_text())["certified_ball"]
        delta_star = constants.certify(CircleMap(2), 256).delta_star
        assert ball == {"delta_star": delta_star, "max_c2_distance": max_c2, "maps_outside": outside}

    def test_mixed_degree_schedule(self, tmp_path):
        # unequal degrees are an InvalidSystem of c2_distance alone: a run may schedule them, and respond names
        # the map of the other degree as outside the certified ball
        text = CERTIFIED_DET.replace("kind = constant", "kind = periodic\nmaps = reference_map, map.cubic") + FAR_MAPS
        path, out = write_config(tmp_path, text)
        for command in ("certify", "equivariant", "memory", "respond"):
            assert cli.main([command, path]) == 0, command
        assert json.loads((out / "response.json").read_text())["certified_ball"]["maps_outside"] == ["map.cubic"]


class TestReportFormat:
    """Every JSON file a command writes has one format: indent 2, sorted keys, a final newline."""

    @pytest.mark.parametrize(
        "base, command",
        [
            (BASE_DET, "certify"),
            (BASE_DET, "equivariant --two-seed"),
            (BASE_NOISY, "memory"),
            (BASE_DET, "respond"),
            (CERTIFIED_DET, "respond"),
            (BASE_NOISY, "simulate"),
        ],
        ids=["certify", "equivariant", "memory", "respond", "respond-certified", "simulate"],
    )
    def test_sorted_indent_2(self, tmp_path, base, command):
        path, out = write_config(tmp_path, base)
        name, *flags = command.split()
        assert cli.main([name, path, *flags]) == 0
        reports = sorted(out.glob("*.json"))
        assert len(reports) >= 2  # the command's report and the manifest
        for report in reports:
            text = report.read_text()
            assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n", report.name


class TestManifestDigest:
    def test_import_leaves_openssl_unloaded(self):
        # hashlib is imported where the digest is taken, after the command: OpenSSL stays out of its peak
        src = str(pathlib.Path(cli.__file__).resolve().parents[1])
        code = "import sys, seqresponse.cli; print(sorted({'hashlib', '_hashlib'} & set(sys.modules)))"
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"


class TestSimulate:
    def test_histogram_and_comparison(self, tmp_path):
        path, out = write_config(tmp_path, BASE_NOISY)
        assert cli.main(["simulate", path]) == 0
        rows = (out / "histogram.csv").read_text().strip().splitlines()
        assert rows[0] == "bin_left,density"
        assert len(rows) == 33
        report = json.loads((out / "simulate.json").read_text())
        assert report["l1_vs_operator"] <= 0.1

    def test_follows_the_schedule(self, tmp_path):
        path, out = write_config(tmp_path, PERIODIC_NOISY.replace("samples = 20000", "samples = 100000"))
        assert cli.main(["simulate", path]) == 0
        sys_ = config.build_system(config.load_config(path))
        drift_at = lambda k: sys_.schedule(k).drift
        expected = noise.simulate_marginal(drift_at, 0.02, sys_.schedule(0).noise, 3, 100000, seed=11, n_bins=32)
        assert np.array_equal(np.loadtxt(out / "histogram.csv", delimiter=",", skiprows=1)[:, 1], expected)
        assert json.loads((out / "simulate.json").read_text())["l1_vs_operator"] <= 0.05

    def test_seed_determinism(self, tmp_path):
        path, out = write_config(tmp_path, BASE_NOISY)
        assert cli.main(["simulate", path]) == 0
        first = (out / "histogram.csv").read_bytes()
        assert cli.main(["simulate", path]) == 0
        assert (out / "histogram.csv").read_bytes() == first


class TestUniformNoise:
    def test_respond_and_simulate(self, tmp_path):
        # uniform noise forgets the drift in one step: mu = 1, g = 0, and the quotients vanish to round-off
        path, out = write_config(tmp_path, BASE_NOISY.replace("preset = bump:0.5,0.08,0.3", "preset = uniform"))
        assert cli.main(["respond", path]) == 0
        assert all(e["D"] <= 1e-13 for e in json.loads((out / "validation.json").read_text())["entries"])
        assert "certified_ball" not in json.loads((out / "response.json").read_text())  # noisy mode certifies by Doeblin
        assert cli.main(["simulate", path]) == 0
        assert json.loads((out / "simulate.json").read_text())["l1_vs_operator"] <= 0.05
