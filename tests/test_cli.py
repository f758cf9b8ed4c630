import contextlib
import copy
import dataclasses
import functools
import hashlib
import io
import json
import math
import os
import pathlib
import shlex
import shutil
import struct
import subprocess
import sys
import tempfile
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import twinbeam
from test_acceptance import REFERENCE_CONFIG
from twinbeam import cli, config, dsp, fileio, model, pipeline, synth
from twinbeam.cli import main
from twinbeam.config import parse_config
from twinbeam.errors import DomainError

# small but statistically usable synthesis for CLI round trips
BASE_CONFIG = {
    "version": "twinbeam-config/2",
    "nopo": {
        "transmission": 0.84,
        "intracavity_loss": 0.16,
        "cavity_bandwidth_hz": 24.7e6,
        "pump_power": 1.9044,
        "threshold_power": 1.0,
        "detection_efficiency": 0.88,
    },
    "synth": {
        "sample_rate_hz": 1e8,
        "num_samples": 2 ** 20,
        "seed": 11,
    },
    "chain": {
        "enl": 0.4074,
        "amplitude": {"mode_match": 1.0, "excess_noise": 0.0},
        "phase": {"mode_match": 0.90, "excess_noise": 0.04},
    },
    "analyzer": {"rbw_hz": 150e3, "vbw_hz": 2.0},
    "interferometer": {"analysis_frequency_hz": 20e6},
}


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(BASE_CONFIG))
    return str(path)


def write_config(tmp_path, mutate, name="mut.json"):
    doc = copy.deepcopy(BASE_CONFIG)
    mutate(doc)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def config_argv(command, path, tmp_path):
    """The argv of `command` run with the config at path, writing into tmp_path."""
    return {"synth": ["synth", "--config", path, "--out", str(tmp_path / "t.twbm")],
            "spectra": ["spectra", "--config", path, "--out", str(tmp_path / "s.csv")],
            "analyze": ["analyze", str(tmp_path / "t.twbm"), "--config", path]}[command]


# {key: (section, value)}: the keys that set the interferometer before it
# followed from f0, at its lock values, and the analyzer's window and span,
# at values that read what the Hann analyzer without a span reads
RETIRED_KEYS = {"arm_length_difference_m": ("interferometer", model.arm_length_difference(20e6)),
                "dc_phase_rad": ("interferometer", math.pi / 2),
                "theta_tol": ("interferometer", 0.05), "phi_tol": ("interferometer", 0.05),
                "window": ("analyzer", "hann"), "center_frequency_hz": ("analyzer", 20e6),
                "span_hz": ("analyzer", 10e6)}


# {case: (rbw_hz, vbw_hz)}: Hann segments of 0.5, 1.5, 0.75 and 1.5e308
# samples at 100 MS/s.  Each once crashed analyze, read DC as f0, or printed
# the length in 309 digits.
UNUSABLE_SEGMENTS = {"zero-length": (3e8, 3e8), "all-zero-window": (1e8, 1e8),
                     "dc-bin-only": (2e8, 1e8), "beyond-any-trace": (1e-300, 1e-300)}

# {case: (rbw_hz, vbw_hz)}: VBWs whose time constant 1/(2 pi vbw) overflows to
# inf.  The first crashed analyze on a nan video-filter decay; the second
# (infinitely long segments too) is refused for its VBW before its RBW.
INFINITE_TIME_CONSTANTS = {"smallest-subnormal": (150e3, 5e-324),
                           "infinite-length": (1e-320, 1e-320)}


# {case: (document text, message)}: documents the schema refuses (exit 1)
_GOOD_TEXT = json.dumps(BASE_CONFIG)
MALFORMED_CONFIGS = {
    "not-an-object": ("[]", "config root must be a JSON object"),
    "missing-key": (_GOOD_TEXT.replace('"pump_power": 1.9044, ', ""),
                    "missing required key nopo.pump_power"),
    "wrong-type": (_GOOD_TEXT.replace('"pump_power": 1.9044', '"pump_power": "1.9"'),
                   "nopo.pump_power must be a number, got str"),
    "nan-literal": (_GOOD_TEXT.replace('"pump_power": 1.9044', '"pump_power": NaN'),
                    "nopo.pump_power must be finite"),
    "infinity-literal": (_GOOD_TEXT.replace('"pump_power": 1.9044', '"pump_power": Infinity'),
                         "nopo.pump_power must be finite"),
    "not-json": ("{not json", "config is not valid JSON"),
    "section-not-an-object": (json.dumps({**BASE_CONFIG, "nopo": []}),
                              "nopo must be a JSON object"),
    "float-for-an-integer": (_GOOD_TEXT.replace('"num_samples": 1048576',
                                                '"num_samples": 65536.0'),
                             "synth.num_samples must be an integer, got float"),
    "bool-for-an-integer": (_GOOD_TEXT.replace('"seed": 11', '"seed": true'),
                            "synth.seed must be an integer, got bool"),
}

# {case: (document text, key)}: a key given twice, whose last value json.load
# alone would keep; the top-level repeat moves f0 to 10 MHz
REPEATED_KEYS = {
    "top-level": (_GOOD_TEXT[:-1] + ', "interferometer": {"analysis_frequency_hz": 1e7}}',
                  "interferometer"),
    "nested": (_GOOD_TEXT.replace('"seed": 11', '"seed": 11, "seed": 99'), "seed"),
}

# {case: (section, key, value, message)}: values outside the physics (exit 2)
INFEASIBLE_VALUES = {
    "enl-at-one": ("chain", "enl", 1.0, "chain.enl must be in [0, 1)"),
    "pump-at-threshold": ("nopo", "pump_power", 1.0, "not above threshold"),
    "pump-below-threshold": ("nopo", "pump_power", 0.5, "not above threshold"),
    "zero-transmission": ("nopo", "transmission", 0.0, "need transmission > 0"),
    "zero-bandwidth": ("nopo", "cavity_bandwidth_hz", 0.0, "cavity bandwidth must be positive"),
    "efficiency-above-one": ("nopo", "detection_efficiency", 1.5,
                             "detection efficiency must be in (0, 1]"),
}


class TestConfigSchema:
    def test_parses(self):
        cfg = parse_config(copy.deepcopy(BASE_CONFIG))
        assert cfg.nopo.output_coupling == pytest.approx(0.84)
        assert model.arm_length_difference(cfg.analysis_frequency) == pytest.approx(
            7.4948, abs=1e-4)

    def test_unknown_key_rejected(self, tmp_path, capsys):
        path = write_config(tmp_path, lambda d: d["nopo"].update(finesse=164))
        assert main(["spectra", "--config", path, "--out", str(tmp_path / "o.csv")]) == 1
        assert "finesse" in capsys.readouterr().err

    def test_missing_version_rejected(self, tmp_path):
        path = write_config(tmp_path, lambda d: d.pop("version"))
        assert main(["spectra", "--config", path, "--out", str(tmp_path / "o.csv")]) == 1

    def test_explicit_eta_keys_are_unknown(self, tmp_path, capsys):
        # detection efficiency enters only through nopo.detection_efficiency;
        # the keys twinbeam-config/1 validated but no output read are gone too
        for section, key, value in (("chain", "detection_efficiency", 0.88),
                                    ("synth", "eta_placement", "explicit"),
                                    ("synth", "conjugate_mode", "minimum_uncertainty"),
                                    ("synth", "conjugate_excess", 1.0),
                                    ("interferometer", "winding_integer", 0)):
            path = write_config(tmp_path, lambda d: d[section].update({key: value}))
            assert main(["synth", "--config", path, "--out", str(tmp_path / "t.twbm")]) == 1
            assert key in capsys.readouterr().err
        assert not (tmp_path / "t.twbm").exists()

    def test_version_1_names_the_retired_keys(self, tmp_path, capsys):
        def mutate(doc):
            doc["version"] = "twinbeam-config/1"
            doc["synth"]["conjugate_mode"] = "minimum_uncertainty"
        path = write_config(tmp_path, mutate)
        assert main(["synth", "--config", path, "--out", str(tmp_path / "t.twbm")]) == 1
        err = capsys.readouterr().err
        for key in ("synth.conjugate_mode", "synth.conjugate_excess",
                    "interferometer.winding_integer", "twinbeam-config/2"):
            assert key in err
        assert not (tmp_path / "t.twbm").exists()

    def test_non_power_of_two_length_runs(self, tmp_path, capsys):
        # every stage streams, so any positive length runs end to end
        path = write_config(tmp_path, lambda d: d["synth"].update(num_samples=3000))
        trace, out = tmp_path / "t.twbm", tmp_path / "a.json"
        assert main(["synth", "--config", path, "--out", str(trace)]) == 0
        assert main(["analyze", str(trace), "--config", path, "--out", str(out)]) == 0
        assert len(fileio.read_trace(trace)[1]["snl"]) == 3000
        assert json.loads(out.read_text())["num_averages"] >= 1

    @pytest.mark.parametrize("num_samples", [0, -4096])
    def test_nonpositive_length_is_infeasible(self, tmp_path, capsys, num_samples):
        path = write_config(tmp_path, lambda d: d["synth"].update(num_samples=num_samples))
        assert main(["synth", "--config", path, "--out", str(tmp_path / "t.twbm")]) == 2
        assert "num_samples must be positive" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["mut.json"]

    @pytest.mark.parametrize("command", ["synth", "spectra", "analyze"])
    @pytest.mark.parametrize("num_samples", [1000, 1499])
    def test_length_too_short_for_the_analyzer_is_infeasible_at_load(self, tmp_path, capsys,
                                                                      num_samples, command):
        # 150 kHz RBW at 100 MS/s gives 1000-sample segments, and two at 50%
        # overlap take 1500 samples: synth would write a trace analyze refuses
        if command == "analyze":  # a trace the analyzer could otherwise read
            good = write_config(tmp_path, lambda d: d["synth"].update(num_samples=2 ** 12),
                                name="good.json")
            assert main(["synth", "--config", good, "--out", str(tmp_path / "t.twbm")]) == 0
            capsys.readouterr()
        path = write_config(tmp_path, lambda d: d["synth"].update(num_samples=num_samples))
        before = sorted(os.listdir(tmp_path))
        assert main(config_argv(command, path, tmp_path) + ["--json"]) == 2
        captured = capsys.readouterr()
        assert captured.err == (f"twinbeam: infeasible: synth.num_samples {num_samples} too "
                                "short for two 1000-sample analyzer segments at 50% overlap; "
                                "need at least 1500\n")
        assert captured.out == "" and sorted(os.listdir(tmp_path)) == before

    def test_shortest_length_the_analyzer_reads_runs(self, tmp_path, capsys):
        path = write_config(tmp_path, lambda d: d["synth"].update(num_samples=1500))
        trace, out = tmp_path / "t.twbm", tmp_path / "a.json"
        assert main(["synth", "--config", path, "--out", str(trace)]) == 0
        assert main(["analyze", str(trace), "--config", path, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["num_averages"] == 2

    def test_negative_seed_is_infeasible(self, tmp_path, capsys):
        path = write_config(tmp_path, lambda d: d["synth"].update(seed=-1))
        assert main(["synth", "--config", path, "--out", str(tmp_path / "t.twbm")]) == 2
        assert "seed must be nonnegative" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["mut.json"]

    @pytest.mark.parametrize("command", ["synth", "spectra", "analyze"])
    def test_analysis_frequency_above_nyquist_is_usage_error(self, tmp_path, capsys, command):
        # 20 MHz against 4 MS/s: caught in the config before any work
        path = write_config(tmp_path, lambda d: d["synth"].update(sample_rate_hz=4e6,
                                                                  num_samples=2 ** 12))
        assert main(config_argv(command, path, tmp_path)) == 1
        err = capsys.readouterr().err
        assert "interferometer.analysis_frequency_hz" in err
        assert "Nyquist frequency 2e+06 Hz" in err
        assert os.listdir(tmp_path) == ["mut.json"]

    @pytest.mark.parametrize("command", ["synth", "spectra", "analyze"])
    @pytest.mark.parametrize("key", RETIRED_KEYS)
    def test_retired_interferometer_key_is_usage_error(self, tmp_path, capsys, key, command):
        # the arm and the dc phase follow from analysis_frequency_hz, and the
        # analyzer is Hann without a span, so each key is unknown, even at a
        # value that would read the same
        section, value = RETIRED_KEYS[key]
        path = write_config(tmp_path, lambda d: d[section].update({key: value}))
        assert main(config_argv(command, path, tmp_path)) == 1
        assert key in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["mut.json"]

    @pytest.mark.parametrize("f0", [0.0, -20e6])
    def test_nonpositive_analysis_frequency_is_infeasible(self, tmp_path, capsys, f0):
        path = write_config(tmp_path, lambda d: d["interferometer"].update(
            analysis_frequency_hz=f0))
        assert main(config_argv("synth", path, tmp_path)) == 2
        assert "analysis frequency must be positive" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["mut.json"]

    @pytest.mark.parametrize("command", ["synth", "spectra"])
    def test_invalid_analyzer_is_infeasible_at_load(self, tmp_path, capsys, command):
        path = write_config(tmp_path, lambda d: (
            d["synth"].update(num_samples=2 ** 18),
            d["analyzer"].update(rbw_hz=1e3, vbw_hz=1e6)))
        out = str(tmp_path / "out")
        assert main([command, "--config", path, "--out", out]) == 2
        assert "video bandwidth" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["mut.json"]

    @pytest.mark.parametrize("command", ["synth", "spectra", "analyze"])
    @pytest.mark.parametrize("case", UNUSABLE_SEGMENTS)
    def test_unusable_segment_length_is_infeasible_at_load(self, tmp_path, capsys, case,
                                                            command):
        if command == "analyze":  # a trace the analyzer could otherwise read
            good = write_config(tmp_path, lambda d: d["synth"].update(num_samples=2 ** 16),
                                name="good.json")
            assert main(["synth", "--config", good, "--out", str(tmp_path / "t.twbm")]) == 0
            capsys.readouterr()
        rbw, vbw = UNUSABLE_SEGMENTS[case]
        path = write_config(tmp_path, lambda d: d["analyzer"].update(rbw_hz=rbw, vbw_hz=vbw))
        before = sorted(os.listdir(tmp_path))
        assert main(config_argv(command, path, tmp_path) + ["--json"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("twinbeam: infeasible: rbw")
        assert "samples, outside [16, 2^62]" in captured.err and len(captured.err) < 200
        assert captured.out == "" and sorted(os.listdir(tmp_path)) == before

    @pytest.mark.parametrize("command", ["synth", "spectra", "analyze"])
    @pytest.mark.parametrize("case", INFINITE_TIME_CONSTANTS)
    def test_vbw_of_infinite_time_constant_is_infeasible_at_load(self, tmp_path, capsys, case,
                                                                 command):
        if command == "analyze":  # a trace the analyzer could otherwise read
            good = write_config(tmp_path, lambda d: d["synth"].update(num_samples=2 ** 16),
                                name="good.json")
            assert main(["synth", "--config", good, "--out", str(tmp_path / "t.twbm")]) == 0
            capsys.readouterr()
        rbw, vbw = INFINITE_TIME_CONSTANTS[case]
        path = write_config(tmp_path, lambda d: d["analyzer"].update(rbw_hz=rbw, vbw_hz=vbw))
        before = sorted(os.listdir(tmp_path))
        assert main(config_argv(command, path, tmp_path) + ["--json"]) == 2
        captured = capsys.readouterr()
        assert captured.err == (f"twinbeam: infeasible: video bandwidth {vbw:.6g} Hz gives an "
                                "infinite video-filter time constant\n")
        assert captured.out == "" and sorted(os.listdir(tmp_path)) == before

    @pytest.mark.parametrize("case", MALFORMED_CONFIGS)
    def test_malformed_document_is_usage_error(self, tmp_path, capsys, case):
        text, message = MALFORMED_CONFIGS[case]
        path = tmp_path / "mut.json"
        path.write_text(text)
        assert main(config_argv("synth", str(path), tmp_path)) == 1
        captured = capsys.readouterr()
        assert message in captured.err and captured.out == ""
        assert os.listdir(tmp_path) == ["mut.json"]

    @pytest.mark.parametrize("case", REPEATED_KEYS)
    @pytest.mark.parametrize("command", ["synth", "spectra", "analyze"])
    def test_repeated_key_is_usage_error(self, tmp_path, capsys, command, case):
        text, key = REPEATED_KEYS[case]
        path = tmp_path / "mut.json"
        path.write_text(text)
        assert main(config_argv(command, str(path), tmp_path)) == 1
        captured = capsys.readouterr()
        assert captured.err == f"twinbeam: error: JSON object repeats key {key!r}\n"
        assert captured.out == "" and os.listdir(tmp_path) == ["mut.json"]

    @pytest.mark.parametrize("command", ["synth", "spectra", "analyze"])
    def test_config_not_utf8_is_usage_error(self, tmp_path, capsys, command):
        path = tmp_path / "mut.json"
        path.write_bytes(b'{"version": "\xff"}')
        assert main(config_argv(command, str(path), tmp_path)) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("twinbeam: error: config is not valid JSON: 'utf-8'")
        assert captured.out == "" and os.listdir(tmp_path) == ["mut.json"]

    @pytest.mark.parametrize("case", INFEASIBLE_VALUES)
    def test_unphysical_value_is_infeasible_at_load(self, tmp_path, capsys, case):
        section, key, value, message = INFEASIBLE_VALUES[case]
        path = write_config(tmp_path, lambda d: d[section].update({key: value}))
        assert main(config_argv("synth", path, tmp_path)) == 2
        captured = capsys.readouterr()
        assert message in captured.err and captured.out == ""
        assert os.listdir(tmp_path) == ["mut.json"]

    @pytest.mark.parametrize("command", ["synth", "spectra", "analyze"])
    def test_pump_whose_ratio_rounds_to_one_is_infeasible_at_load(self, tmp_path, capsys,
                                                                  command):
        # P = 1 + 2^-52 passes P > P_th, but sqrt(P / P_th) rounds to 1, where
        # the phase-sum dip is not defined: every command refuses it at load,
        # analyze of a valid trace too, and writes nothing
        good = write_config(tmp_path, lambda d: d["synth"].update(num_samples=2 ** 12),
                            name="good.json")
        trace = tmp_path / "t.twbm"
        assert main(["synth", "--config", good, "--out", str(trace)]) == 0
        before = trace.read_bytes()
        capsys.readouterr()
        path = write_config(tmp_path, lambda d: d["nopo"].update(pump_power=1.0000000000000002))
        assert main(config_argv(command, path, tmp_path)) == 2
        captured = capsys.readouterr()
        assert captured.err == ("twinbeam: infeasible: pump power 1.0000000000000002 "
                                "not above threshold 1.0\n")
        assert captured.out == "" and trace.read_bytes() == before
        assert sorted(os.listdir(tmp_path)) == ["good.json", "mut.json", "t.twbm"]

    @pytest.mark.parametrize("command", ["synth", "spectra", "analyze"])
    @pytest.mark.parametrize("nopo, message", [
        ({"transmission": 1e308, "intracavity_loss": 1e308},
         "need transmission > 0 and intracavity_loss >= 0 with a finite sum"),
        ({"pump_power": 1e308, "threshold_power": 1e-308},
         "pump power 1e+308 over threshold 1e-308 must be finite"),
    ], ids=["coupling-sum-overflows", "pump-ratio-overflows"])
    def test_finite_values_whose_derived_value_overflows_are_infeasible_at_load(
            self, tmp_path, capsys, command, nopo, message):
        # each field is finite, but T + loss or P / P_th overflows: the output
        # coupling then read 0 and the pump ratio inf, and both spectra read 1
        good = write_config(tmp_path, lambda d: d["synth"].update(num_samples=2 ** 12),
                            name="good.json")
        trace = tmp_path / "t.twbm"
        assert main(["synth", "--config", good, "--out", str(trace)]) == 0
        before = trace.read_bytes()
        capsys.readouterr()
        path = write_config(tmp_path, lambda d: d["nopo"].update(nopo))
        assert main(config_argv(command, path, tmp_path)) == 2
        captured = capsys.readouterr()
        assert captured.err == f"twinbeam: infeasible: {message}\n"
        assert captured.out == "" and trace.read_bytes() == before
        assert sorted(os.listdir(tmp_path)) == ["good.json", "mut.json", "t.twbm"]

    @pytest.mark.parametrize("command", ["synth", "spectra", "analyze"])
    def test_float_key_too_large_for_a_float_is_usage_error(self, tmp_path, capsys, command):
        # an integer of 401 digits is valid JSON, but no float holds it
        path = write_config(tmp_path, lambda d: d["analyzer"].update(rbw_hz=10 ** 400))
        assert main(config_argv(command, path, tmp_path)) == 1
        assert "analyzer.rbw_hz is too large for a float" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["mut.json"]


    @pytest.mark.parametrize("section, cls", [
        (("nopo",), model.NopoParams), (("synth",), synth.SynthConfig),
        (("analyzer",), dsp.AnalyzerSettings), (("chain", "amplitude"), synth.DetectionChain),
        (("chain", "phase"), synth.DetectionChain),
    ], ids=["nopo", "synth", "analyzer", "chain.amplitude", "chain.phase"])
    def test_schema_keys_name_the_dataclass_fields(self, section, cls):
        # parse_config builds each section's dataclass from its keys, so a key
        # and a field that drift apart would fail there with a TypeError
        schema = functools.reduce(dict.__getitem__, section, config._SCHEMA)
        assert set(config._fields(schema)) == {field.name for field in dataclasses.fields(cls)}

    def test_schema_types_and_order_follow_the_reference_config(self):
        # the dataclass sections take their types from annotations; one that
        # reads as a string (a postponed annotation) is checked by nothing
        def leaves(node, path=()):
            for key, value in node.items():
                if isinstance(value, dict):
                    yield from leaves(value, path + (key,))
                else:
                    yield path + (key,), value
        schema = dict(leaves(config._SCHEMA))
        assert list(schema) == [path for path, _ in leaves(REFERENCE_CONFIG)]
        assert schema.pop(("version",)) is str
        assert set(schema.values()) <= {int, float}


class TestSpectraCommand:
    def test_reference_marker_reproduction(self, config_path, tmp_path):
        out = tmp_path / "spectra.csv"
        assert main(["spectra", "--config", config_path, "--f-min", "0",
                     "--f-max", "100e6", "--num-points", "1001",
                     "--out", str(out)]) == 0
        freqs, s_i, s_p = fileio.read_spectrum_csv(out)
        row = np.argmin(np.abs(freqs - 20e6))
        assert s_i[row] == pytest.approx(0.5535, abs=5e-4)
        assert s_p[row] == pytest.approx(0.7113, abs=5e-4)

    def test_degenerate_grid_single_row(self, config_path, tmp_path):
        out = tmp_path / "one.csv"
        assert main(["spectra", "--config", config_path, "--f-min", "20e6",
                     "--f-max", "20e6", "--out", str(out)]) == 0
        freqs, _, _ = fileio.read_spectrum_csv(out)
        assert len(freqs) == 1

    def test_vanishing_correlation_gives_unity(self, tmp_path):
        def mutate(doc):
            doc["nopo"]["detection_efficiency"] = 1e-9
        path = write_config(tmp_path, mutate)
        out = tmp_path / "v.csv"
        assert main(["spectra", "--config", path, "--out", str(out)]) == 0
        _, s_i, s_p = fileio.read_spectrum_csv(out)
        np.testing.assert_allclose(s_i, 1.0, atol=1e-8)
        np.testing.assert_allclose(s_p, 1.0, atol=1e-8)

    def test_ideal_cavity_writes_an_empty_db_cell(self, tmp_path):
        # no loss and perfect detection: s_i(0) is exactly 0, which has no dB value
        path = write_config(tmp_path, lambda d: d["nopo"].update(intracavity_loss=0.0,
                                                                 detection_efficiency=1.0))
        out = tmp_path / "ideal.csv"
        assert main(["spectra", "--config", path, "--out", str(out)]) == 0
        header, first = out.read_text().splitlines()[:2]
        row = dict(zip(header.split(","), first.split(",")))
        assert (float(row["f_hz"]), float(row["s_i"]), row["s_i_db"]) == (0.0, 0.0, "")
        assert float(row["s_p_db"]) < 0
        freqs, s_i, s_p = fileio.read_spectrum_csv(out)
        assert (freqs[0], s_i[0]) == (0.0, 0.0) and s_p[0] > 0

    def test_readme_chain_default_grid_then_fit(self, config_path, tmp_path, capsys):
        # spectra with its default --f-min 0 writes a DC row; fit must take it
        out = tmp_path / "spectra.csv"
        assert main(["spectra", "--config", config_path, "--out", str(out)]) == 0
        assert main(["fit", str(out), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["converged"]
        assert report["efficiency_product"] == pytest.approx(0.88 * 0.84, rel=1e-6)
        assert report["bandwidth_hz"] == pytest.approx(24.7e6, rel=1e-6)

    def test_json_summary(self, config_path, tmp_path, capsys):
        out = tmp_path / "spectra.csv"
        assert main(["spectra", "--config", config_path, "--out", str(out), "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["out"] == str(out) and summary["num_points"] == 1001
        assert summary["config_hash"] == parse_config(copy.deepcopy(BASE_CONFIG)).hash
        assert len(fileio.read_spectrum_csv(out)[0]) == 1001

    def test_invalid_range_is_usage_error(self, config_path, tmp_path):
        assert main(["spectra", "--config", config_path, "--f-min", "5e6",
                     "--f-max", "1e6", "--out", str(tmp_path / "o.csv")]) == 1

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("f_max, num_points, bandwidth", [
        ("1e308", "1001", 24.7e6), ("100e6", "1001", 1e-300),
        (repr(sys.float_info.max), "4096", 24.7e6)],
        ids=["far-f-max", "narrow-cavity", "largest-f-max"])
    def test_overflowing_detuning_warns_nothing(self, tmp_path, capsys, f_max, num_points,
                                                bandwidth):
        # (f / bandwidth) ** 2 overflows to inf, which gives each dip its exact
        # limit 1, and at the largest float np.linspace's last point overflows
        # before it is set to f_max; the warnings are errors here
        path = write_config(tmp_path, lambda d: d["nopo"].update(cavity_bandwidth_hz=bandwidth))
        assert main(config_argv("spectra", path, tmp_path)
                    + [f"--f-max={f_max}", f"--num-points={num_points}"]) == 0
        assert capsys.readouterr().err == ""
        freqs, s_i, s_p = fileio.read_spectrum_csv(tmp_path / "s.csv")
        assert (len(freqs), freqs[-1], s_i[-1], s_p[-1]) == (int(num_points), float(f_max),
                                                             1.0, 1.0)

    @pytest.mark.parametrize("message, printed", [
        ("Unable to allocate 1.49 GiB for an array with shape (200000000,) and data type "
         "float64", None), ("", "out of memory")], ids=["numpy", "bare"])
    def test_out_of_memory_is_infeasible(self, config_path, tmp_path, monkeypatch, capsys,
                                         message, printed):
        def no_memory(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(np, "linspace", no_memory)
        out = tmp_path / "o.csv"
        assert main(["spectra", "--config", config_path, "--num-points", "200000000",
                     "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"twinbeam: infeasible: {printed or message}\n"
        assert captured.out == "" and os.listdir(tmp_path) == ["config.json"]

    @pytest.mark.parametrize("num_points", [2 ** 60, 2 ** 62, 10 ** 20, 2 ** 63 - 1],
                             ids=["2^60", "2^62", "10^20", "2^63-1"])
    def test_points_past_the_largest_array_are_infeasible(self, config_path, tmp_path, capsys,
                                                          num_points):
        # numpy refuses these arrays with ValueError or IndexError, not MemoryError
        out = tmp_path / "o.csv"
        assert main(["spectra", "--config", config_path, "--num-points", str(num_points),
                     "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("twinbeam: infeasible: ")
        assert f"{num_points} frequency points" in captured.err
        assert captured.out == "" and os.listdir(tmp_path) == ["config.json"]

    @pytest.mark.parametrize("bounds", [("0", "nan"), ("0", "inf"), ("nan", "1e6"),
                                        ("-inf", "1e6")])
    def test_non_finite_range_is_usage_error(self, config_path, tmp_path, capsys, bounds):
        out = tmp_path / "o.csv"
        assert main(["spectra", "--config", config_path, f"--f-min={bounds[0]}",
                     f"--f-max={bounds[1]}", "--out", str(out)]) == 1
        assert "invalid frequency range" in capsys.readouterr().err
        assert not out.exists()


class TestSynthCommand:
    def test_channel_table_and_determinism(self, config_path, tmp_path, capsys):
        out1, out2 = tmp_path / "a.twbm", tmp_path / "b.twbm"
        assert main(["synth", "--config", config_path, "--out", str(out1), "--json"]) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(["synth", "--config", config_path, "--out", str(out2), "--json"]) == 0
        second = json.loads(capsys.readouterr().out)
        assert first["channels"] == ["amp_signal", "phase_signal", "snl", "enl"]
        assert first["sha256"] == second["sha256"]
        assert (hashlib.sha256(out1.read_bytes()).hexdigest()
                == hashlib.sha256(out2.read_bytes()).hexdigest())
        rate, channels = fileio.read_trace(out1)
        assert rate == 1e8
        assert list(channels) == ["amp_signal", "phase_signal", "snl", "enl"]

    def test_channels_equal_the_library_path(self, tmp_path, capsys):
        # the CLI must not fork the physics: same bits as the library's
        # pipeline.trace_channels, after the trace's float32 rounding
        path = write_config(tmp_path, lambda d: d["synth"].update(num_samples=2 ** 16))
        out = tmp_path / "lean.twbm"
        assert main(["synth", "--config", path, "--out", str(out)]) == 0
        _, channels = fileio.read_trace(out)

        with open(path) as handle:
            cfg = parse_config(json.load(handle))
        library = {name: series.array() for name, series in pipeline.trace_channels(cfg).items()}
        assert list(channels) == list(library)
        for name, series in library.items():
            np.testing.assert_array_equal(channels[name].array(), series.astype(np.float32))

    def test_worker_failure_mid_stream_leaves_no_file(self, tmp_path, monkeypatch, capsys):
        # the electronics floor's shaping raising on a worker thread, a few
        # blocks into the channel, while the other worker writes a signal
        path = write_config(tmp_path, lambda d: d["synth"].update(num_samples=2 ** 18))
        out = tmp_path / "fail.twbm"
        colored_gaussian_series = synth.colored_gaussian_series
        raised_on = []

        def failing_series(*args, source, **kwargs):
            series = colored_gaussian_series(*args, source=source, **kwargs)

            def failing_blocks():
                for count, block in enumerate(series.blocks()):
                    if source == "enl" and count == 2:
                        raised_on.append(threading.get_ident())
                        raise DomainError("electronics stage failed")
                    yield block

            return synth.BlockSeries(series.length, failing_blocks())

        monkeypatch.setattr(synth, "colored_gaussian_series", failing_series)
        status = []
        caller = threading.Thread(
            target=lambda: status.append(main(["synth", "--config", path, "--out", str(out)])))
        caller.start()
        caller.join(timeout=120)
        assert not caller.is_alive()
        assert status == [2]
        assert "electronics stage failed" in capsys.readouterr().err
        assert raised_on and raised_on[0] != caller.ident
        assert os.listdir(tmp_path) == ["mut.json"]

    def test_trace_too_large_for_a_file_is_infeasible(self, tmp_path, capsys):
        path = write_config(tmp_path, lambda d: d["synth"].update(num_samples=2 ** 70))
        assert main(["synth", "--config", path, "--out", str(tmp_path / "t.twbm")]) == 2
        assert "too large for a file" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["mut.json"]  # no trace, nor its temp file

    @pytest.mark.parametrize("spare", [-1, 0], ids=["one-byte-short", "exact-fit"])
    def test_trace_beyond_the_free_disk_space_is_infeasible(self, tmp_path, monkeypatch,
                                                            capsys, spare):
        # as a 2^40-sample trace would on a real disk: refused before any byte is written
        path = write_config(tmp_path, lambda d: d["synth"].update(num_samples=2 ** 12))
        names = pipeline.TRACE_CHANNELS  # the header: magic, fields, name table; then samples
        size = 4 + 24 + sum(4 + len(name) for name in names) + 4 * len(names) * 2 ** 12
        free = size + spare
        usage = shutil.disk_usage(tmp_path)._replace(free=free)
        monkeypatch.setattr(shutil, "disk_usage", lambda where: usage)
        status = main(config_argv("synth", path, tmp_path))
        if spare < 0:
            assert status == 2
            assert capsys.readouterr().err == (f"twinbeam: infeasible: a trace of {size} bytes "
                                               f"does not fit in the {free} bytes free for it\n")
            assert os.listdir(tmp_path) == ["mut.json"]  # no trace, nor its temp file
        else:
            assert status == 0 and (tmp_path / "t.twbm").stat().st_size == size

    @pytest.mark.filterwarnings("error")
    def test_narrow_cavity_is_refused_without_warnings(self, tmp_path, capsys):
        # the dips' detuning overflows on the kernel's design grid, then the
        # kernel of a 1e-300 Hz dip is refused
        path = write_config(tmp_path, lambda d: (
            d["synth"].update(num_samples=2 ** 12),
            d["nopo"].update(cavity_bandwidth_hz=1e-300)))
        assert main(config_argv("synth", path, tmp_path)) == 2
        assert capsys.readouterr().err.startswith("twinbeam: infeasible: the shaping kernel")
        assert os.listdir(tmp_path) == ["mut.json"]

    def test_sample_beyond_float32_is_infeasible(self, tmp_path, capsys):
        # the phase channel's samples reach about 1e40: finite in float64, not
        # in the trace's float32, which analyze would then refuse to read
        path = write_config(tmp_path, lambda d: (
            d["synth"].update(num_samples=2 ** 16),
            d["chain"]["phase"].update(excess_noise=1e80)))
        assert main(["synth", "--config", path, "--out", str(tmp_path / "t.twbm")]) == 2
        captured = capsys.readouterr()
        assert "channel 'phase_signal' sample 0 is" in captured.err
        assert "not finite as a float32" in captured.err and captured.out == ""
        assert os.listdir(tmp_path) == ["mut.json"]  # no trace, nor its temp file

    def test_block_size_moves_no_trace_byte(self, tmp_path, monkeypatch, capsys):
        path = write_config(tmp_path, lambda d: d["synth"].update(num_samples=2 ** 17))
        digests = []
        for block in (synth._BLOCK_SAMPLES, 999):
            monkeypatch.setattr(synth, "_BLOCK_SAMPLES", block)
            assert main(["synth", "--config", path, "--out", str(tmp_path / "b.twbm"),
                         "--json"]) == 0
            digests.append(json.loads(capsys.readouterr().out)["sha256"])
        assert digests[0] == digests[1]

    def test_undersampled_synth_warns_once(self, tmp_path, capsys):
        path = write_config(tmp_path, lambda d: (
            d["synth"].update(sample_rate_hz=4e6, num_samples=2 ** 12),
            d["interferometer"].update(analysis_frequency_hz=1e6)))
        with pytest.warns(UserWarning, match="Nyquist") as record:
            assert main(["synth", "--config", path, "--out", str(tmp_path / "slow.twbm")]) == 0
        assert len(record) == 1

    def test_seed_override_changes_output(self, config_path, tmp_path, capsys):
        # the seed comes only from the config, so a new seed is a new config hash
        other_path = write_config(tmp_path, lambda d: d["synth"].update(seed=99))
        out = tmp_path / "c.twbm"
        summaries = []
        for path in (config_path, other_path):
            assert main(["synth", "--config", path, "--out", str(out), "--json"]) == 0
            summaries.append(json.loads(capsys.readouterr().out))
        base, other = summaries
        assert (base["seed"], other["seed"]) == (11, 99)
        assert other["sha256"] != base["sha256"]
        assert other["config_hash"] != base["config_hash"]


class TestAnalyzeCertifyPipeline:
    @pytest.fixture
    def analysis(self, config_path, tmp_path, capsys):
        trace = tmp_path / "run.twbm"
        assert main(["synth", "--config", config_path, "--out", str(trace)]) == 0
        capsys.readouterr()
        out = tmp_path / "analysis.json"
        assert main(["analyze", str(trace), "--config", config_path,
                     "--out", str(out)]) == 0
        capsys.readouterr()
        return json.loads(out.read_text())

    def test_readings_match_chain_oracle(self, analysis):
        # closed-form chain: amp -1.334 dB, phase -0.606 dB, enl -3.9 dB
        assert analysis["amplitude_db"] == pytest.approx(-1.334, abs=0.3)
        assert analysis["phase_db"] == pytest.approx(-0.606, abs=0.3)
        assert analysis["enl_db"] == pytest.approx(-3.9, abs=0.3)

    def test_certify_pipeline(self, analysis, tmp_path, capsys):
        path = tmp_path / "analysis.json"
        path.write_text(json.dumps(analysis))
        report_path = tmp_path / "report.json"
        assert main(["certify", str(path), "--out", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        assert report["entangled"]
        assert report["duan_sum"] < 2.0
        assert len(report["corrections"]) == 2

    def test_zero_electronics_floor_reads_null(self, tmp_path, capsys):
        def mutate(doc):
            doc["synth"]["num_samples"] = 2 ** 16
            doc["chain"]["enl"] = 0.0
        path = write_config(tmp_path, mutate)
        trace, analysis = tmp_path / "quiet.twbm", tmp_path / "quiet.json"
        assert main(["synth", "--config", path, "--out", str(trace)]) == 0
        assert main(["analyze", str(trace), "--config", path, "--out", str(analysis)]) == 0
        capsys.readouterr()
        reading = json.loads(analysis.read_text(), parse_constant=pytest.fail)
        assert reading["enl_db"] is None and reading["enl_db_stderr"] is None
        assert math.isfinite(reading["amplitude_db"]) and math.isfinite(reading["phase_db"])
        sigma_db = 10 / math.log(10) * math.sqrt(2.0 / reading["num_averages"])
        assert reading["amplitude_db_stderr"] == reading["phase_db_stderr"] == sigma_db
        assert main(["certify", str(analysis), "--json"]) == 0
        report = json.loads(capsys.readouterr().out, parse_constant=pytest.fail)
        assert "electronic_noise" not in {c["correction"] for c in report["corrections"]}
        assert report["amplitude_diff_variance"] == report["raw"]["amplitude"]

    def test_ideal_chain_reads_its_closed_form(self, tmp_path, capsys):
        # s_i is exactly 0 at f = 0 on the kernel's design grid; the mode-match
        # step maps it to the vacuum admixture, as expected_readings does
        path = write_config(tmp_path, lambda d: (
            d["synth"].update(num_samples=2 ** 16),
            d["nopo"].update(transmission=1.0, intracavity_loss=0.0,
                             detection_efficiency=1.0)))
        trace, out = tmp_path / "ideal.twbm", tmp_path / "ideal.json"
        assert main(["synth", "--config", path, "--out", str(trace)]) == 0
        assert main(["analyze", str(trace), "--config", path, "--out", str(out)]) == 0
        reading = json.loads(out.read_text())
        with open(path) as handle:
            expected = pipeline.expected_readings(parse_config(json.load(handle)))
        sigma_db = 10 / math.log(10) * math.sqrt(2.0 / reading["num_averages"])
        for key in ("amplitude_db", "phase_db", "enl_db"):
            assert abs(reading[key] - expected[key]) < 5 * sigma_db, key

    def test_amplitude_excess_noise_is_applied(self, tmp_path, capsys):
        # the closed-form chain at f0, within 5 sigma of the averaged reading
        path = write_config(tmp_path, lambda d: (
            d["synth"].update(num_samples=2 ** 18),
            d["chain"]["amplitude"].update(excess_noise=0.5)))
        trace, out = tmp_path / "excess.twbm", tmp_path / "excess.json"
        assert main(["synth", "--config", path, "--out", str(trace)]) == 0
        assert main(["analyze", str(trace), "--config", path, "--out", str(out)]) == 0
        reading = json.loads(out.read_text())
        with open(path) as handle:
            expected = pipeline.expected_readings(parse_config(json.load(handle)))
        sigma_db = 10 / math.log(10) * math.sqrt(2.0 / reading["num_averages"])
        assert abs(reading["amplitude_db"] - expected["amplitude_db"]) < 5 * sigma_db

    @pytest.mark.parametrize("rbw_hz", [1.5e6, 150e3, 15e3])
    def test_readings_equal_the_library_reading_step(self, tmp_path, capsys, rbw_hz):
        path = write_config(tmp_path, lambda d: (d["synth"].update(num_samples=2 ** 18),
                                                 d["analyzer"].update(rbw_hz=rbw_hz)))
        trace, out = tmp_path / "t.twbm", tmp_path / "a.json"
        assert main(["synth", "--config", path, "--out", str(trace)]) == 0
        assert main(["analyze", str(trace), "--config", path, "--out", str(out)]) == 0
        analysis = json.loads(out.read_text())
        sample_rate, channels = fileio.read_trace(trace)
        readings = pipeline.readings(channels, sample_rate, config.load_config(path))
        assert {key: analysis[key] for key in readings} == readings

    @pytest.mark.parametrize("silent, message", [
        ("snl", "reference power is zero at 2e+07 Hz"),
        ("amp_signal", "measured power is zero at 2e+07 Hz")], ids=["snl", "amp_signal"])
    def test_zero_power_channel_is_infeasible(self, tmp_path, capsys, silent, message):
        path = write_config(tmp_path, lambda d: d["synth"].update(num_samples=2 ** 16))
        trace, out = tmp_path / "t.twbm", tmp_path / "a.json"
        assert main(["synth", "--config", path, "--out", str(trace)]) == 0
        capsys.readouterr()
        rate, channels = fileio.read_trace(trace)
        channels = {name: series.array() for name, series in channels.items()}
        channels[silent] = np.zeros(2 ** 16)
        fileio.write_trace(trace, rate, channels)
        assert main(["analyze", str(trace), "--config", path, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"twinbeam: infeasible: {message}\n"
        assert captured.out == "" and not out.exists()

    def test_f0_outside_nyquist_is_usage_error(self, config_path, tmp_path, capsys):
        # a trace at 4 MS/s, read with the 100 MS/s config: its 20 MHz f0 is
        # above the trace's Nyquist frequency, though below the config's
        slow = write_config(tmp_path, lambda d: (
            d["synth"].update(sample_rate_hz=4e6, num_samples=2 ** 12),
            d["interferometer"].update(analysis_frequency_hz=1e6)))
        trace, out = tmp_path / "slow.twbm", tmp_path / "a.json"
        with pytest.warns(UserWarning, match="Nyquist"):
            assert main(["synth", "--config", slow, "--out", str(trace)]) == 0
        capsys.readouterr()
        assert main(["analyze", str(trace), "--config", config_path, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert "f0 2e+07 Hz not below the trace's Nyquist 2e+06 Hz" in captured.err
        assert captured.out == "" and not out.exists()

    def test_segment_too_short_at_the_trace_rate_is_infeasible(self, tmp_path, capsys):
        # 150 kHz RBW gives 1000-sample segments at the config's 100 MS/s, but
        # 10 at the trace's 1 MS/s: welch_psd refuses them as the config would
        def slow_rate(doc):
            doc["synth"].update(sample_rate_hz=1e6, num_samples=2 ** 12)
            doc["analyzer"].update(rbw_hz=1e3)
            doc["interferometer"].update(analysis_frequency_hz=100e3)
        slow = write_config(tmp_path, slow_rate, name="slow.json")
        fast = write_config(tmp_path, lambda d: d["interferometer"].update(
            analysis_frequency_hz=100e3), name="fast.json")
        trace, out = tmp_path / "slow.twbm", tmp_path / "a.json"
        with pytest.warns(UserWarning, match="Nyquist"):
            assert main(["synth", "--config", slow, "--out", str(trace)]) == 0
        capsys.readouterr()
        assert main(["analyze", str(trace), "--config", fast, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert "Hann segments of 10 samples" in captured.err
        assert captured.out == "" and not out.exists()

    def test_trace_too_short_for_the_analyzer_is_infeasible(self, tmp_path, capsys):
        # a 2^12-sample trace, read with a config whose 15 kHz RBW gives
        # 10000-sample segments: welch_psd refuses it, naming the length needed
        short = write_config(tmp_path, lambda d: d["synth"].update(num_samples=2 ** 12),
                             name="short.json")
        narrow = write_config(tmp_path, lambda d: d["analyzer"].update(rbw_hz=15e3),
                              name="narrow.json")
        trace, out = tmp_path / "t.twbm", tmp_path / "a.json"
        assert main(["synth", "--config", short, "--out", str(trace)]) == 0
        capsys.readouterr()
        assert main(["analyze", str(trace), "--config", narrow, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("twinbeam: infeasible: series of 4096 samples too short")
        assert captured.err.endswith("need at least 15000\n")
        assert captured.out == "" and not out.exists()

    def test_missing_channel_is_usage_error(self, tmp_path, capsys):
        path = write_config(tmp_path, lambda d: d["synth"].update(num_samples=2 ** 16))
        trace, out = tmp_path / "t.twbm", tmp_path / "a.json"
        assert main(["synth", "--config", path, "--out", str(trace)]) == 0
        capsys.readouterr()
        rate, channels = fileio.read_trace(trace)
        kept = {name: series.array() for name, series in channels.items() if name != "enl"}
        fileio.write_trace(trace, rate, kept)
        assert main(["analyze", str(trace), "--config", path, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert "trace file lacks required channel 'enl'" in captured.err
        assert captured.out == "" and not out.exists()

    def test_zero_sample_rate_reports_offset(self, tmp_path, capsys):
        path = write_config(tmp_path, lambda d: d["synth"].update(num_samples=2 ** 16))
        trace = tmp_path / "t.twbm"
        assert main(["synth", "--config", path, "--out", str(trace)]) == 0
        capsys.readouterr()
        data = bytearray(trace.read_bytes())
        data[8:16] = np.array([0.0], dtype="<f8").tobytes()  # the header's sample rate
        trace.write_bytes(bytes(data))
        assert main(["analyze", str(trace), "--config", path, "--json"]) == 2
        captured = capsys.readouterr()
        assert "invalid sample rate 0.0 (byte offset 8)" in captured.err
        assert captured.out == ""

    def test_nonfinite_sample_is_infeasible(self, config_path, tmp_path, capsys):
        trace = tmp_path / "run4.twbm"
        assert main(["synth", "--config", config_path, "--out", str(trace)]) == 0
        capsys.readouterr()
        data = bytearray(trace.read_bytes())
        offset = len(data) - 4 * 1000  # a sample of the last channel
        data[offset:offset + 4] = np.array([np.nan], dtype="<f4").tobytes()
        trace.write_bytes(bytes(data))
        assert main(["analyze", str(trace), "--config", config_path, "--json"]) == 2
        captured = capsys.readouterr()
        assert f"byte offset {offset}" in captured.err
        assert captured.out == ""

    def test_corrupt_trace_reports_offset(self, config_path, tmp_path, capsys):
        trace = tmp_path / "run3.twbm"
        assert main(["synth", "--config", config_path, "--out", str(trace)]) == 0
        capsys.readouterr()
        data = trace.read_bytes()
        trace.write_bytes(data[: len(data) // 2])
        assert main(["analyze", str(trace), "--config", config_path]) == 2
        assert "byte offset" in capsys.readouterr().err

    def test_nonfinite_sample_under_zero_weight_groups_is_infeasible(self, tmp_path, capsys):
        # At VBW = RBW the video filter weighs the first segment group (65
        # segments of 1000 samples, hop 500) exactly 0, so no estimate
        # transforms amp_signal's sample 1000; it is checked all the same.
        path = write_config(tmp_path, lambda d: d["analyzer"].update(vbw_hz=150e3))
        num_segments = (2 ** 20 - 1000) // 500 + 1
        tau = 1.0 / (2.0 * math.pi * 150e3)
        assert (tau / (tau + 500 / 1e8)) ** (num_segments - 65) == 0.0
        trace = tmp_path / "fast.twbm"
        assert main(["synth", "--config", path, "--out", str(trace)]) == 0
        capsys.readouterr()
        data = bytearray(trace.read_bytes())
        offset = len(data) - 4 * 4 * 2 ** 20 + 4 * 1000
        data[offset:offset + 4] = np.array([np.nan], dtype="<f4").tobytes()
        trace.write_bytes(bytes(data))
        assert main(["analyze", str(trace), "--config", path, "--json"]) == 2
        captured = capsys.readouterr()
        assert f"byte offset {offset}" in captured.err
        assert captured.out == ""

    def test_nonfinite_last_channel_writes_no_analysis(self, config_path, tmp_path, capsys,
                                                       monkeypatch):
        trace, out = tmp_path / "run5.twbm", tmp_path / "analysis.json"
        assert main(["synth", "--config", config_path, "--out", str(trace)]) == 0
        capsys.readouterr()
        data = bytearray(trace.read_bytes())
        offset = len(data) - 4  # the last sample of the last channel, enl
        data[offset:offset + 4] = np.array([np.inf], dtype="<f4").tobytes()
        trace.write_bytes(bytes(data))
        finished = []
        welch_psd = dsp.welch_psd

        def recording_welch_psd(*args, **kwargs):
            estimate = welch_psd(*args, **kwargs)
            finished.append(estimate)
            return estimate

        monkeypatch.setattr(dsp, "welch_psd", recording_welch_psd)
        assert main(["analyze", str(trace), "--config", config_path, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert len(finished) == 3  # amp_signal, phase_signal and snl
        assert f"byte offset {offset}" in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_nonfinite_sample_in_an_unused_channel_is_infeasible(self, tmp_path, capsys):
        path = write_config(tmp_path, lambda d: d["synth"].update(num_samples=2 ** 16))
        trace = tmp_path / "aux.twbm"
        assert main(["synth", "--config", path, "--out", str(trace)]) == 0
        capsys.readouterr()
        rate, channels = fileio.read_trace(trace)
        channels = {name: series.array() for name, series in channels.items()}
        channels["aux"] = np.zeros(2 ** 16)
        fileio.write_trace(trace, rate, channels)
        data = bytearray(trace.read_bytes())
        offset = len(data) - 4 * (2 ** 16 - 7)  # aux's sample 7; the writer refuses a NaN
        data[offset:offset + 4] = np.array([np.nan], dtype="<f4").tobytes()
        trace.write_bytes(bytes(data))
        out = tmp_path / "a.json"
        assert main(["analyze", str(trace), "--config", path, "--out", str(out)]) == 2
        assert f"byte offset {offset}" in capsys.readouterr().err
        assert not out.exists()

    def test_finite_unused_channel_is_read_through(self, tmp_path, capsys, monkeypatch):
        # aux is read to its end, and the readings are those of the trace without it
        path = write_config(tmp_path, lambda d: d["synth"].update(num_samples=2 ** 16))
        plain, extended = tmp_path / "plain.twbm", tmp_path / "aux.twbm"
        assert main(["synth", "--config", path, "--out", str(plain)]) == 0
        rate, channels = fileio.read_trace(plain)
        channels = {name: series.array() for name, series in channels.items()}
        channels["aux"] = np.linspace(-1.0, 1.0, 2 ** 16)
        fileio.write_trace(extended, rate, channels)
        read_through, read = cli._read_through, []

        def recording_read_through(series):
            read_through(series)
            read.append(series.length)

        monkeypatch.setattr(cli, "_read_through", recording_read_through)
        readings = []
        for trace in (plain, extended):
            capsys.readouterr()
            assert main(["analyze", str(trace), "--config", path, "--json"]) == 0
            analysis = json.loads(capsys.readouterr().out)
            del analysis["trace_sha256"]
            readings.append(analysis)
        assert read == [2 ** 16]
        assert readings[0] == readings[1]


class TestCertifyCommand:
    def test_reference_raw_readings(self, tmp_path, capsys):
        analysis = {"amplitude_db": -1.25, "phase_db": -0.60, "enl_db": -3.9}
        path = tmp_path / "a.json"
        path.write_text(json.dumps(analysis))
        assert main(["certify", str(path), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert 10 * math.log10(report["phase_sum_variance"]) == pytest.approx(-1.07, abs=0.01)
        assert 10 * math.log10(report["amplitude_diff_variance"]) == pytest.approx(-2.38, abs=0.01)
        assert report["duan_sum"] == pytest.approx(1.36, abs=0.01)
        assert report["entangled"]

    def test_corrected_inputs_bypass_correction(self, capsys):
        assert main(["certify", "--vx", "0.552", "--vy", "0.785", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["duan_sum"] == pytest.approx(1.337, abs=1e-9)
        assert report["entangled"]
        assert report["corrections"] == []

    @pytest.mark.parametrize("argv, flags", [
        (["a.json", "--vx", "0.5", "--vy", "0.7"], "--vx/--vy"),
        (["--vx", "0.5"], "--vx and --vy"),
        ([], "--vx/--vy"),
    ], ids=["analysis-and-variances", "vx-alone", "no-input"])
    def test_conflicting_or_missing_inputs_are_usage_errors(self, argv, flags, tmp_path,
                                                             monkeypatch, capsys):
        # +3/+3 dB is separable: with the analysis ignored, --vx/--vy read entangled
        (tmp_path / "a.json").write_text('{"amplitude_db": 3.0, "phase_db": 3.0}')
        monkeypatch.chdir(tmp_path)
        assert main(["certify", *argv, "--json"]) == 1
        captured = capsys.readouterr()
        assert flags in captured.err
        assert captured.out == ""

    def test_snl_boundary_not_entangled(self, tmp_path, capsys):
        analysis = {"amplitude_db": 0.0, "phase_db": 0.0, "enl_db": -3.9}
        path = tmp_path / "b.json"
        path.write_text(json.dumps(analysis))
        assert main(["certify", str(path), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["duan_sum"] == pytest.approx(2.0, rel=1e-12)
        assert not report["entangled"]

    def test_below_floor_is_infeasible(self, tmp_path, capsys):
        analysis = {"amplitude_db": -5.0, "phase_db": -0.6, "enl_db": -3.9}
        path = tmp_path / "c.json"
        path.write_text(json.dumps(analysis))
        assert main(["certify", str(path)]) == 2

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_nonfinite_variance_is_infeasible(self, value, capsys):
        assert main(["certify", "--vx", "0.5", "--vy", value, "--json"]) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("content", [
        b"{not json",
        b'{"amplitude_db": -1.2, "phase_db": -0.6, "enl_db": "\xff"}',
        b'{"amplitude_db": "abc", "phase_db": -0.6}',
        b'{"amplitude_db": -1.2, "phase_db": -0.6, "enl_db": "x"}',
        b'{"amplitude_db": true, "phase_db": -0.6}',
        b'{"amplitude_db": -1.2, "phase_db": [-0.6]}',
        b"-1.2",
        b"[]",
        b'{"phase_db": -0.6}',
    ], ids=["not-json", "not-utf8", "text-reading", "text-enl", "bool-reading",
            "list-reading", "number", "list", "no-amplitude"])
    def test_malformed_analysis_is_usage_error(self, content, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        assert main(["certify", str(path), "--json"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("twinbeam: error: analysis JSON")
        assert captured.out == ""

    def test_repeated_reading_is_usage_error(self, tmp_path, capsys):
        # json.load alone would keep the last amplitude_db and certify "separable"
        path = tmp_path / "repeated.json"
        path.write_text('{"amplitude_db": -1.39, "phase_db": -0.64, "amplitude_db": 5.0}')
        out = tmp_path / "report.json"
        assert main(["certify", str(path), "--out", str(out), "--json"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "twinbeam: error: JSON object repeats key 'amplitude_db'\n"
        assert captured.out == "" and not out.exists()

    def test_nonfinite_reading_is_infeasible(self, tmp_path, capsys):
        path = tmp_path / "nan.json"
        path.write_text('{"amplitude_db": NaN, "phase_db": -0.6}')
        assert main(["certify", str(path), "--json"]) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("reading", ["null", "9" * 400, "4000.0"],
                             ids=["null", "huge-integer", "overflowing-float"])
    def test_null_or_overflowing_reading_is_infeasible(self, reading, tmp_path, capsys):
        path = tmp_path / "huge.json"
        path.write_text(f'{{"amplitude_db": {reading}, "phase_db": -0.6}}')
        assert main(["certify", str(path), "--json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("twinbeam: infeasible:")

    def test_overflowing_enl_db_is_infeasible(self, tmp_path, capsys):
        # 10^400 is too large for a float: the floor reads inf, outside (0, 1)
        path = tmp_path / "a.json"
        path.write_text('{"amplitude_db": -1.25, "phase_db": -0.6, "enl_db": 4000}')
        assert main(["certify", str(path), "--json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("twinbeam: infeasible: electronics noise level")

    @pytest.mark.parametrize("vy, mode_match, message", [
        ("0.7", "0", "mode-matching efficiency must be in (0, 1], got 0.0"),
        ("0.05", "0.9", "reading 0.05 below the vacuum admixture floor for overlap 0.9"),
    ], ids=["zero-overlap", "below-vacuum-floor"])
    def test_mode_match_out_of_reach_is_infeasible(self, vy, mode_match, message, capsys):
        assert main(["certify", "--vx", "0.5", "--vy", vy, "--mode-match", mode_match,
                     "--json"]) == 2
        captured = capsys.readouterr()
        assert message in captured.err and captured.out == ""

    def test_mode_match_deembedding(self, capsys):
        penalized = model.mode_match_penalty(0.7113, 0.90)
        assert main(["certify", "--vx", "0.5535", "--vy", str(penalized),
                     "--mode-match", "0.90", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["phase_sum_variance"] == pytest.approx(0.7113, rel=1e-9)

    def test_tagged_and_untagged_analyses_give_one_report(self, tmp_path):
        readings = {"amplitude_db": -1.25, "phase_db": -0.60, "enl_db": -3.9}
        reports = []
        for name, tag in (("untagged", {}), ("tagged", {"artifact": "twinbeam-analysis/1"})):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps({**tag, **readings}))
            assert main(["certify", str(path), "--out", str(tmp_path / f"{name}-report.json")]) == 0
            reports.append((tmp_path / f"{name}-report.json").read_bytes())
        assert reports[0] == reports[1]
        assert json.loads(reports[0])["artifact"] == "twinbeam-certify/1"

    @pytest.mark.parametrize("case", ["fit-json", "later-version", "not-a-string"])
    def test_analysis_of_another_kind_or_version_is_usage_error(self, case, tmp_path, capsys):
        # the tag is checked before the readings, so a fit JSON is refused for
        # its kind and not for a missing reading; the message names the tag
        path = tmp_path / "a.json"
        if case == "fit-json":
            assert main(["fit", _clean_spectrum_csv(tmp_path), "--out", str(path)]) == 0
            tag = "twinbeam-fit/1"
        else:
            tag = {"later-version": "twinbeam-analysis/2",
                   "not-a-string": ["twinbeam-analysis/1"]}[case]
            path.write_text(json.dumps({"artifact": tag, "amplitude_db": -1.25,
                                        "phase_db": -0.60, "enl_db": -3.9}))
        capsys.readouterr()
        out = tmp_path / "report.json"
        assert main(["certify", str(path), "--out", str(out), "--json"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("twinbeam: error: analysis JSON artifact must be "
                                       "'twinbeam-analysis/1', got ")
        assert repr(tag) in captured.err
        assert captured.out == "" and not out.exists()


# JSON texts of an analysis reading: ordinary dB values, ±0, subnormals, the
# extremes, the non-standard NaN/Infinity literals, integers too large for a
# float, and values of the wrong type
_READINGS = st.one_of(
    st.floats(-10.0, 3.0).map(repr),
    st.sampled_from(["0.0", "-0.0", "5e-324", "-5e-324", "2.2250738585072014e-308", "1e308",
                     "-1e308", "NaN", "Infinity", "-Infinity"]),
    st.sampled_from(["9" * 400, "-" + "9" * 400, "4000", "-4000"]),
    st.sampled_from(["null", "true", "false", '"-1.2"', "[-1.2]", "{}"]),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10 ** 30, 10 ** 30).map(str))
_KEYS = ("amplitude_db", "phase_db", "enl_db")
# JSON texts of an artifact tag: the analysis tag, another kind, another
# version, and values that are not a string
_RIGHT_TAG = '"twinbeam-analysis/1"'
_TAGS = st.sampled_from([_RIGHT_TAG, '"twinbeam-fit/1"', '"twinbeam-analysis/2"', "1", "null",
                         f"[{_RIGHT_TAG}]"])
_ANALYSIS = st.one_of(
    st.fixed_dictionaries(dict.fromkeys(_KEYS[:2], _READINGS),
                          optional={"enl_db": _READINGS, "artifact": _TAGS}),
    st.dictionaries(st.sampled_from(_KEYS), _READINGS),  # keys may be missing
    st.sampled_from(["[]", "-1.2", "null", "{not json", ""]),
).map(lambda doc: doc if isinstance(doc, str) else
      "{" + ", ".join(f'"{key}": {text}' for key, text in doc.items()) + "}")
# the text of a numeric flag: ordinary values, the same extremes, and a word
_FLAGS = st.one_of(
    st.floats(0.0, 3.0).map(repr),
    st.sampled_from(["0", "-0.0", "5e-324", "1e308", "-1e308", "nan", "inf", "-inf",
                     "9" * 400, "abc"]),
    st.floats().map(repr))
# (analysis, --vx, --vy): an analysis, the variances, or any mix of them
_INPUTS = st.one_of(st.tuples(_ANALYSIS, st.none(), st.none()),
                    st.tuples(st.none(), _FLAGS, _FLAGS),
                    st.tuples(*[st.one_of(st.none(), inputs)
                                for inputs in (_ANALYSIS, _FLAGS, _FLAGS)]))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(inputs=_INPUTS, mode_match=st.one_of(st.none(), _FLAGS))
def test_certify_inputs_exit_cleanly(inputs, mode_match):
    # every input exits 0, 1 or 2 without a traceback; a report is strict
    # JSON, and a failure writes no report.  A tag other than the analysis
    # tag exits 1.
    analysis, vx, vy = inputs
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "report.json")
        argv = ["certify", "--out", out, "--json"]
        if analysis is not None:
            path = os.path.join(tmp, "analysis.json")
            with open(path, "w") as handle:
                handle.write(analysis)
            argv.append(path)
        for flag, value in (("--vx", vx), ("--vy", vy), ("--mode-match", mode_match)):
            if value is not None:
                argv.append(f"{flag}={value}")
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            status = main(argv)
        assert status in (0, 1, 2)
        if '"artifact"' in (analysis or "") and f'"artifact": {_RIGHT_TAG}' not in analysis:
            assert status == 1
        if status == 0:
            report = json.loads(stdout.getvalue(), parse_constant=pytest.fail)
            with open(out) as handle:
                assert json.load(handle, parse_constant=pytest.fail) == report
            assert stderr.getvalue() == ""
        else:
            assert not os.path.exists(out)
            assert stdout.getvalue() == ""
            assert stderr.getvalue().startswith("twinbeam: ")


def _number_leaves(schema, path=()):
    """The (path, type) of each number in a config schema, depth first."""
    for key, kind in schema.items():
        if isinstance(kind, dict):
            yield from _number_leaves(kind, path + (key,))
        elif kind in (int, float):
            yield path + (key,), kind


# the edges each number is swept over; num_samples and --num-points are capped
# at 2^12 so that no example takes much memory or time
_SWEEP_FLOATS = (0.0, -0.0, 5e-324, 1e-300, 1e300, sys.float_info.max, -1.0)
_SWEEP_INTS = (0, 1, 2 ** 31, 2 ** 63, -1)
_SWEEP_CAP = 2 ** 12
_SWEEP_COUNTS = tuple(dict.fromkeys(min(value, _SWEEP_CAP) for value in _SWEEP_INTS))


def _leaf_edges(leaf):
    path, kind = leaf
    edges = _SWEEP_FLOATS if kind is float else (
        _SWEEP_COUNTS if path[-1] == "num_samples" else _SWEEP_INTS)
    return st.tuples(st.just(path), st.sampled_from(edges))


# up to two config leaves at their edges, and any of spectra's numeric flags
_LEAF_VALUES = st.lists(st.sampled_from(list(_number_leaves(config._SCHEMA))).flatmap(
    _leaf_edges), max_size=2, unique_by=lambda leaf_value: leaf_value[0])
_SPECTRA_FLAGS = st.fixed_dictionaries({}, optional={
    "--f-min": st.sampled_from(_SWEEP_FLOATS), "--f-max": st.sampled_from(_SWEEP_FLOATS),
    "--num-points": st.sampled_from(_SWEEP_COUNTS)})


@settings(derandomize=True, max_examples=200, deadline=None)
@given(leaf_values=_LEAF_VALUES, flags=_SPECTRA_FLAGS)
def test_config_and_spectra_inputs_exit_cleanly(leaf_values, flags):
    # spectra, synth and analyze exit 0, 1 or 2 without a traceback or a
    # RuntimeWarning; stdout is strict JSON, and a failure writes no file
    doc = copy.deepcopy(BASE_CONFIG)
    doc["synth"]["num_samples"] = _SWEEP_CAP
    for path, value in leaf_values:
        functools.reduce(dict.__getitem__, path[:-1], doc)[path[-1]] = value
    with tempfile.TemporaryDirectory() as tmp:
        config_file, trace = os.path.join(tmp, "config.json"), os.path.join(tmp, "t.twbm")
        with open(config_file, "w") as handle:
            json.dump(doc, handle)
        written = {"config.json"}
        for argv in (["spectra", "--config", config_file, "--out", os.path.join(tmp, "s.csv"),
                      *(f"{flag}={value}" for flag, value in flags.items())],
                     ["synth", "--config", config_file, "--out", trace],
                     ["analyze", trace, "--config", config_file,
                      "--out", os.path.join(tmp, "analysis.json")]):
            stdout, stderr = io.StringIO(), io.StringIO()
            with warnings.catch_warnings(record=True) as caught, \
                    contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                warnings.simplefilter("always")
                status = main(argv + ["--json"])
            assert status in (0, 1, 2)
            assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] \
                == []
            if status == 0:
                json.loads(stdout.getvalue(), parse_constant=pytest.fail)
                written.add(os.path.basename(argv[argv.index("--out") + 1]))
            else:
                assert stdout.getvalue() == ""
                assert stderr.getvalue().startswith("twinbeam: ")
            assert set(os.listdir(tmp)) == written  # no output, nor a temp file, of a failure


def _spectrum_bytes(header, rows, edits, bom, tail):
    """A spectrum CSV: the header, then the rows of cells as edited, each edit
    (row, column, text) setting a cell, appending one past the row's end or,
    with text None, cutting the row there."""
    rows = [list(row) for row in rows]
    for index, column, text in edits:
        if rows:
            row = rows[index % len(rows)]
            if text is None:
                del row[column:]
            elif column < len(row):
                row[column] = text
            else:
                row.append(text)
    return (bom + "\n".join([header, *map(",".join, rows)]) + "\n").encode() + tail


# 0-5 rows of distinct frequencies and two PSDs below the SNL, as spectra writes them;
# up to two cells set to ±0, the smallest subnormal, the largest decade, a
# non-finite or empty text or one that is not a number, or cut or added; a
# header with a column missing or extra; a UTF-8 BOM; bytes that are not UTF-8
_SPECTRUM = st.builds(
    _spectrum_bytes,
    header=st.sampled_from([",".join(fileio.SPECTRUM_COLUMNS)] * 6
                           + ["f_hz,s_i,s_p", "f_hz,s_i", "f_hz,s_i,s_p,s_i_db,s_p_db,extra"]),
    rows=st.lists(st.tuples(st.integers(1, 80).map(lambda mhz: repr(mhz * 1e6)),
                            st.floats(0.05, 1.0).map(repr), st.floats(0.05, 1.0).map(repr),
                            st.just(""), st.just("")), max_size=5, unique_by=lambda row: row[0]),
    edits=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 6), st.one_of(
        st.none(), st.sampled_from(["0", "-0", "5e-324", "1e308", "-1e308", "inf", "-inf",
                                    "nan", "", "abc", "1e", "0x10"]))), max_size=2),
    bom=st.sampled_from(["", "\ufeff"]),
    tail=st.sampled_from([b""] * 8 + [b"\xff", b"\xc3\x28"]))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(spectrum=_SPECTRUM)
def test_fit_inputs_exit_cleanly(spectrum):
    # every spectrum CSV exits 0, 1 or 2 without a traceback or a
    # RuntimeWarning; a fit is strict JSON, and a failure writes no file
    with tempfile.TemporaryDirectory() as tmp:
        path, out = os.path.join(tmp, "spectrum.csv"), os.path.join(tmp, "fit.json")
        with open(path, "wb") as handle:
            handle.write(spectrum)
        stdout, stderr = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            warnings.simplefilter("always")
            status = main(["fit", path, "--out", out, "--json"])
        assert status in (0, 1, 2)
        assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
        if status == 0:
            report = json.loads(stdout.getvalue(), parse_constant=pytest.fail)
            with open(out) as handle:
                assert json.load(handle, parse_constant=pytest.fail) == report
        else:
            assert stdout.getvalue() == ""
            assert stderr.getvalue().startswith("twinbeam: ")
            assert sorted(os.listdir(tmp)) == ["spectrum.csv"]


class TestFitCommand:
    def test_fit_round_trip(self, tmp_path, capsys):
        freqs = np.linspace(1e6, 80e6, 64)
        s_i = model.intensity_diff_psd(freqs, 0.7392, 24.7e6)
        s_p = model.phase_sum_psd(freqs, 0.7392, 24.7e6, 1.38)
        csv_path = tmp_path / "spec.csv"
        fileio.write_spectrum_csv(csv_path, freqs, amplitude=s_i, phase=s_p)
        assert main(["fit", str(csv_path), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["efficiency_product"] == pytest.approx(0.7392, rel=1e-6)
        assert report["bandwidth_hz"] == pytest.approx(24.7e6, rel=1e-6)
        assert report["pump_ratio"] == pytest.approx(1.38, rel=1e-6)
        assert report["converged"]

    def test_unavailable_covariance_is_null(self, tmp_path, capsys):
        # two points for two parameters leave no residual degrees of freedom
        freqs = np.array([1e6, 40e6])
        csv_path = tmp_path / "two.csv"
        fileio.write_spectrum_csv(csv_path, freqs,
                                  amplitude=model.intensity_diff_psd(freqs, 0.7, 24.7e6))
        with pytest.warns(UserWarning, match="octave"):
            assert main(["fit", str(csv_path), "--json"]) == 0
        report = json.loads(capsys.readouterr().out, parse_constant=pytest.fail)
        assert report["covariance"] == [[None, None], [None, None]]

    def test_missing_file_is_usage_error(self, capsys):
        assert main(["fit", "/nonexistent/spec.csv"]) == 1

    @pytest.mark.parametrize("row, residuals, parameters", [
        ("3e6,0.5,0.6,,", 2, 3), ("3e6,0.5,,,", 1, 2)], ids=["two-channel", "amplitude-only"])
    def test_fewer_residuals_than_parameters_is_infeasible(self, row, residuals, parameters,
                                                           tmp_path, capsys):
        # one row gives fewer residuals than the fit has parameters
        path, out = tmp_path / "one.csv", tmp_path / "fit.json"
        path.write_text(f"f_hz,s_i,s_p,s_i_db,s_p_db\n{row}\n")
        with pytest.warns(UserWarning, match="octave"):
            assert main(["fit", str(path), "--out", str(out), "--json"]) == 2
        captured = capsys.readouterr()
        assert f"residual count {residuals} below the parameter count {parameters}" in captured.err
        assert captured.out == "" and not out.exists()

    def test_spectrum_at_zero_frequency_alone_is_infeasible(self, config_path, tmp_path,
                                                            capsys):
        # spectra writes the single row f = 0; no bandwidth follows from it
        spectrum, out = tmp_path / "dc.csv", tmp_path / "fit.json"
        assert main(["spectra", "--config", config_path, "--f-min", "0", "--f-max", "0",
                     "--out", str(spectrum)]) == 0
        assert main(["fit", str(spectrum), "--out", str(out)]) == 2
        assert "no positive frequency" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("row", ["3_000_000,0.5,0.6,,", "\u0663" + "\u0660" * 6 + ",0.5,0.6,,",
                                     "3e6,0.5, 0.6 ,,"],
                             ids=["underscore", "arabic-indic-digits", "padded"])
    def test_spelling_no_csv_tool_writes_is_infeasible(self, row, tmp_path, capsys):
        # float() reads each of these cells; a spectrum CSV cell is visible ASCII
        path = tmp_path / "odd.csv"
        path.write_text(f"f_hz,s_i,s_p,s_i_db,s_p_db\n2e6,0.6,0.7,,\n{row}\n4e6,0.6,0.7,,\n"
                        "8e6,0.7,0.8,,\n", encoding="utf-8")
        assert main(["fit", str(path), "--json"]) == 2
        captured = capsys.readouterr()
        assert "line 3 holds a cell that is not a number" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("row, message", [
        (b"1e6,abc,0.5,,", "line 3 holds a cell that is not a number"),
        (b"1e6,0.5,\xff\xfe,,", "not UTF-8 text (byte offset 49)"),
        (b"1e6,nan,0.5,,", "amplitude_observed must be finite"),
        (b"1e6,,0.5,,", "spectrum CSV has a partially filled channel column"),
    ], ids=["non-numeric", "non-utf8", "nan-observation", "partial-column"])
    def test_malformed_spectrum_is_infeasible(self, row, message, tmp_path, capsys):
        header = b"f_hz,s_i,s_p,s_i_db,s_p_db\n2e6,0.6,0.7,,\n"
        path = tmp_path / "bad.csv"
        path.write_bytes(header + row + b"\n4e6,0.6,0.7,,\n8e6,0.7,0.8,,\n")
        assert main(["fit", str(path), "--json"]) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""


    @pytest.mark.parametrize("rows, message", [
        # the span's eighth, the narrowest start bandwidth, rounds to 0 Hz
        ("0,0.5,0.6,,\n5e-324,0.5,0.6,,", "frequency span 4.94066e-324 Hz too narrow"),
        # the bandwidth and a growing pump ratio pull alike: J^T J turns singular
        ("47000000.0,0.99999,0.99999,,\n1000000.0,0.05,0.8766777449977223,,",
         "Jacobian is rank deficient"),
    ], ids=["subnormal-span", "singular-step"])
    def test_degenerate_spectrum_is_infeasible(self, rows, message, tmp_path, capsys):
        # both once raised an exception past main (ValueError, LinAlgError)
        path, out = tmp_path / "degenerate.csv", tmp_path / "fit.json"
        path.write_text(f"f_hz,s_i,s_p,s_i_db,s_p_db\n{rows}\n")
        with pytest.warns(UserWarning, match="octave"):
            assert main(["fit", str(path), "--out", str(out), "--json"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("twinbeam: infeasible:")
        assert message in captured.err
        assert captured.out == "" and not out.exists()

    def test_byte_order_mark_is_skipped(self, tmp_path, capsys):
        # a spreadsheet's UTF-8 CSV starts with a BOM, once read into the
        # first column's name ("missing columns ['f_hz']")
        plain = _clean_spectrum_csv(tmp_path)
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + pathlib.Path(plain).read_bytes())
        assert main(["fit", plain, "--json"]) == 0
        expected = capsys.readouterr().out
        assert main(["fit", str(marked), "--json"]) == 0
        assert capsys.readouterr().out == expected

    @pytest.mark.parametrize("freqs, value, message", [
        (np.linspace(1e6, 64e6, 64), 1e308, "every start point failed to evaluate"),
        (np.linspace(1e299, 1e300, 64), 0.6, "the Jacobian is not finite at the fit"),
    ], ids=["overflowing-values", "overflowing-frequencies"])
    def test_overflowing_spectrum_is_infeasible(self, freqs, value, message, tmp_path,
                                                capsys):
        path, out = tmp_path / "huge.csv", tmp_path / "fit.json"
        fileio.write_spectrum_csv(path, freqs, amplitude=np.full(64, value),
                                  phase=np.full(64, value))
        assert main(["fit", str(path), "--out", str(out), "--json"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("twinbeam: infeasible:")
        assert message in captured.err
        assert captured.out == "" and not out.exists()


class TestUsage:
    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1

    @pytest.mark.parametrize("where", ["config", "config-version", "analysis"])
    def test_json_nested_too_deep_is_usage_error(self, tmp_path, capsys, where):
        # json.load raises RecursionError past about 1000 levels
        deep = "[" * 10 ** 5 + "]" * 10 ** 5
        path = tmp_path / "deep.json"
        path.write_text(f'{{"version": {deep}}}' if where == "config-version" else deep)
        if where == "analysis":
            argv, message = ["certify", str(path)], "analysis JSON cannot be read"
        else:
            argv, message = config_argv("spectra", str(path), tmp_path), "config is not valid JSON"
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"twinbeam: error: {message}")
        assert captured.out == "" and os.listdir(tmp_path) == ["deep.json"]

    def test_missing_required_flag(self, capsys):
        assert main(["spectra"]) == 1

    @pytest.mark.parametrize("flag, value", [("--seed", "99"), ("--f0", "20e6"),
                                             ("--enl-db", "-3.9")])
    def test_removed_override_is_usage_error(self, tmp_path, capsys, flag, value):
        # the seed and f0 come only from the config, the floor only from the
        # analysis JSON: each command refuses the flag that once overrode
        # them, and runs without it
        path = write_config(tmp_path, lambda d: d["synth"].update(num_samples=2 ** 16))
        trace, analysis, out = tmp_path / "t.twbm", tmp_path / "a.json", str(tmp_path / "out")
        assert main(["synth", "--config", path, "--out", str(trace)]) == 0
        assert main(["analyze", str(trace), "--config", path, "--out", str(analysis)]) == 0
        capsys.readouterr()
        argv = {"--seed": ["synth", "--config", path, "--out", out],
                "--f0": ["analyze", str(trace), "--config", path, "--out", out],
                "--enl-db": ["certify", str(analysis), "--out", out]}[flag]
        before = sorted(os.listdir(tmp_path))
        assert main([*argv, flag, value]) == 1
        captured = capsys.readouterr()
        assert f"unrecognized arguments: {flag} {value}" in captured.err
        assert captured.out == "" and sorted(os.listdir(tmp_path)) == before
        assert main(argv) == 0


LONG_NAME = "ch_" + "n" * 200_000


def _trace_header(names, num_samples):
    """The header bytes of a trace holding `names` (repeats allowed) at 100 MS/s."""
    header = struct.pack("<4sIdIQ", fileio.TRACE_MAGIC, fileio.TRACE_VERSION, 1e8, len(names),
                         num_samples)
    for name in names:
        encoded = name.encode("utf-8")
        header += struct.pack("<I", len(encoded)) + encoded
    return header


def _long_name_with_a_nan(tmp_path):
    # the four measured channels, then a long-named one whose last sample is nan
    path = tmp_path / "t.twbm"
    rng = np.random.default_rng(0)
    fileio.write_trace(str(path), 1e8, {**{name: rng.standard_normal(2 ** 16)
                                           for name in pipeline.TRACE_CHANNELS},
                                        LONG_NAME: np.zeros(2 ** 16)})
    with open(path, "r+b") as handle:
        handle.seek(-4, os.SEEK_END)
        handle.write(struct.pack("<f", math.nan))
    return path


def _long_value_argv(tmp_path, case):
    """(argv, exit code, what the message must still name) for one long outside value."""
    def config(mutate):
        return write_config(tmp_path, mutate)

    def trace(data):
        path = tmp_path / "t.twbm"
        path.write_bytes(data)
        return path

    def analyze(path):
        return ["analyze", str(path), "--config", config(lambda d: None)]

    if case == "repeated-channel-name":
        return analyze(trace(_trace_header([LONG_NAME, LONG_NAME], 4))), 2, "byte offset"
    if case == "channel-truncated":
        return analyze(trace(_trace_header([LONG_NAME], 4))), 2, "byte offset"
    if case == "channel-not-finite":
        return analyze(_long_name_with_a_nan(tmp_path)), 2, "byte offset"
    if case.startswith("csv-"):  # the csv module refuses a field past 131072 characters
        path = tmp_path / "s.csv"
        cell = "x" * (100_000 if case == "csv-cell" else 200_000)
        header = "f_hz,s_i," + (cell if case == "csv-header-past-the-field-limit" else "s_p")
        path.write_text(f"{header}\n1e6,0.5,{cell}\n")
        return ["fit", str(path)], 2, "line 1" if "header" in case else "line 2"
    if case == "analysis-reading":
        path = tmp_path / "a.json"
        path.write_text(json.dumps({"amplitude_db": "x" * 100_000, "phase_db": -0.6}))
        return ["certify", str(path)], 1, "analysis JSON amplitude_db"
    if case == "artifact-tag":
        path = tmp_path / "a.json"
        path.write_text(json.dumps({"artifact": "x" * 100_000, "amplitude_db": -1.25,
                                    "phase_db": -0.6}))
        return ["certify", str(path)], 1, "analysis JSON artifact"
    if case == "negative-point-count":  # 4000 digits, within int's default limit of 4300
        path = config(lambda d: None)
        return (config_argv("spectra", path, tmp_path) + ["--num-points", "-" + "9" * 4000], 1,
                "invalid frequency range")
    if case == "unknown-key":
        path = config(lambda d: d["nopo"].update({"typo_" + "k" * 100_000: 1.0}))
        return config_argv("spectra", path, tmp_path), 1, "unknown key(s) ['typo_"
    version = "v" * 100_000 if case == "long-version" else functools.reduce(
        lambda inner, _: [inner], range(900), 0)  # nested 900 deep, within json's reach
    path = config(lambda d: d.update(version=version))
    return config_argv("spectra", path, tmp_path), 1, "config version"


@pytest.mark.parametrize("case", ["repeated-channel-name", "channel-truncated",
                                  "channel-not-finite", "csv-cell", "csv-cell-past-the-field-limit",
                                  "csv-header-past-the-field-limit", "analysis-reading",
                                  "artifact-tag", "negative-point-count", "unknown-key",
                                  "long-version", "nested-version"])
def test_a_long_outside_value_prints_cut_short(tmp_path, capsys, case):
    # each message names the value through reprlib, so a 10^5-character one
    # does not fill the terminal, and still says where the fault is
    argv, status, named = _long_value_argv(tmp_path, case)
    capsys.readouterr()
    assert main(argv) == status
    err = capsys.readouterr().err
    assert named in err and len(err) < 300, err[:300]


@pytest.mark.parametrize("command", ["spectra", "synth", "analyze", "certify", "fit"])
def test_every_json_output_carries_its_tag(tmp_path, capsys, command):
    # the tag names the kind and format version; the commands that load a
    # config record its hash, and a JSON written to --out is the one printed
    path = write_config(tmp_path, lambda d: d["synth"].update(num_samples=2 ** 16))
    trace, csv, analysis = (str(tmp_path / name) for name in ("t.twbm", "s.csv", "a.json"))
    for argv in (["synth", "--config", path, "--out", trace],
                 ["spectra", "--config", path, "--out", csv],
                 ["analyze", trace, "--config", path, "--out", analysis]):
        assert main(argv) == 0
    out = tmp_path / "out.json"
    argv = {"spectra": ["spectra", "--config", path, "--out", csv],
            "synth": ["synth", "--config", path, "--out", trace],
            "analyze": ["analyze", trace, "--config", path, "--out", str(out)],
            "certify": ["certify", analysis, "--out", str(out)],
            "fit": ["fit", csv, "--out", str(out)]}[command]
    capsys.readouterr()
    assert main(argv + ["--json"]) == 0
    printed = json.loads(capsys.readouterr().out)
    kind = "analysis" if command == "analyze" else command
    assert printed["artifact"] == f"twinbeam-{kind}/1"
    if command in ("spectra", "synth", "analyze"):
        with open(path) as handle:
            assert printed["config_hash"] == parse_config(json.load(handle)).hash
    else:
        assert "config_hash" not in printed
    assert out.exists() == (command not in ("spectra", "synth"))
    if out.exists():
        assert json.loads(out.read_text()) == printed


README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def _readme_block(heading, language):
    """The first ```language block after the line `heading` of README.md."""
    text = README.read_text()
    text = text[text.index(f"\n{heading}\n"):]
    start = text.index(f"\n```{language}\n") + len(language) + 5
    return text[start:text.index("\n```\n", start)]


def test_readme_cli_quick_start_runs_as_written(tmp_path, monkeypatch, capsys):
    # every line of the README's pipeline, as written, on its minimal config
    (tmp_path / "run.json").write_text(_readme_block("A minimal config:", "json"))
    monkeypatch.chdir(tmp_path)
    lines = _readme_block("## Quick start (CLI)", "sh").splitlines()
    assert [shlex.split(line)[:2] for line in lines] == [
        ["twinbeam", command] for command in ("spectra", "synth", "analyze", "certify", "fit")]
    for line in lines:
        assert main(shlex.split(line, comments=True)[1:]) == 0, line
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["entangled"]


def _src_env():
    src = os.path.dirname(os.path.dirname(os.path.abspath(twinbeam.__file__)))
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))


CRITERION_7_TRUTH = (0.7392, 24.7e6, 1.38)


def _clean_spectrum_csv(tmp_path):
    """Criterion 7's noiseless spectra as a CSV that `fit` reads."""
    freqs = np.linspace(1e6, 80e6, 64)
    path = tmp_path / "clean.csv"
    fileio.write_spectrum_csv(
        str(path), freqs, amplitude=model.intensity_diff_psd(freqs, *CRITERION_7_TRUTH[:2]),
        phase=model.phase_sum_psd(freqs, *CRITERION_7_TRUTH))
    return str(path)


def test_package_import_leaves_numpy_unloaded():
    # the package holds only its version; each name is imported from its module
    code = ("import sys, twinbeam; "
            "print('numpy' in sys.modules, [n for n in vars(twinbeam) if n[:2] != '__'])")
    result = subprocess.run([sys.executable, "-c", code], env=_src_env(),
                            capture_output=True, text=True, check=True)
    assert result.stdout == "False []\n"


def test_cli_import_leaves_scipy_unloaded(tmp_path):
    # nothing needs scipy, only synth and analyze start a thread pool, and
    # fit hashes nothing; every other subcommand starts and runs without
    # them.  hashlib is compared with what numpy loads in the same child, as
    # numpy 1.x imports numpy.random, which can load it
    code = ("import sys, numpy; "
            "hashing = lambda: {m for m in sys.modules if m in ('hashlib', '_hashlib')}; "
            "numpy_hashing = hashing(); "
            "import twinbeam.cli; "
            "loaded = lambda: sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy' or m.startswith('concurrent.futures')) "
            "+ sorted(hashing() - numpy_hashing); "
            "print(loaded()); "
            "status = twinbeam.cli.main(['fit', sys.argv[1], '--out', sys.argv[2]]); "
            "print(status, loaded())")
    result = subprocess.run([sys.executable, "-c", code, _clean_spectrum_csv(tmp_path),
                             str(tmp_path / "fit.json")], env=_src_env(),
                            capture_output=True, text=True, check=True)
    assert result.stdout.split("\n")[:2] == ["[]", "0 []"]


def _cli_without(package):
    """Code that runs `python -m twinbeam.cli` with every import of package made to fail."""
    return ("import runpy, sys\n"
            "class Blocked:\n"
            "    def find_spec(self, name, path=None, target=None):\n"
            f"        if name.split('.')[0] == {package!r}:\n"
            "            raise ImportError(f'{name} is blocked')\n"
            "sys.meta_path.insert(0, Blocked())\n"
            "sys.argv[0] = 'twinbeam.cli'\n"
            "runpy.run_module('twinbeam.cli', run_name='__main__', alter_sys=True)\n")


def test_fit_runs_without_scipy(tmp_path):
    result = subprocess.run([sys.executable, "-c", _cli_without("scipy"), "fit",
                             _clean_spectrum_csv(tmp_path), "--json"], env=_src_env(),
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    fitted = json.loads(result.stdout)
    assert fitted["converged"] is True
    assert fitted["efficiency_product"] == pytest.approx(CRITERION_7_TRUTH[0], rel=1e-6)
    assert fitted["bandwidth_hz"] == pytest.approx(CRITERION_7_TRUTH[1], rel=1e-6)
    assert fitted["pump_ratio"] == pytest.approx(CRITERION_7_TRUTH[2], rel=1e-6)


def test_help_is_short_and_names_every_subcommand():
    result = subprocess.run([sys.executable, "-m", "twinbeam.cli", "--help"], env=_src_env(),
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0 and result.stderr == ""
    assert len(result.stdout.splitlines()) < 20
    for command in ("spectra", "synth", "analyze", "certify", "fit"):
        assert command in result.stdout


@pytest.mark.parametrize("argv, status", [
    (["--vx", "0.552", "--vy", "0.785", "--json"], 0),
    (["{analysis}", "--mode-match", "0.9", "--out", "{out}", "--json"], 0),
    (["{malformed}", "--json"], 1),
    (["{repeated}", "--json"], 1),
    (["--vx", "0.5", "--vy", "nan", "--json"], 2),
    (["--vx", "1e308", "--vy", "1e308", "--json"], 2),
], ids=["variances", "analysis", "malformed-analysis", "repeated-key", "nan-variance",
        "overflowing-sum"])
@pytest.mark.parametrize("package", ["numpy", "dataclasses", "inspect"])
def test_certify_runs_without_numpy(package, argv, status, tmp_path, capsys):
    # with every import of numpy, dataclasses or inspect made to fail, the
    # same exit code, stdout, stderr and report as in process, where all
    # three are loaded
    analysis = tmp_path / "analysis.json"
    analysis.write_text('{"amplitude_db": -1.25, "phase_db": -0.60, "enl_db": -3.9}')
    malformed = tmp_path / "malformed.json"
    malformed.write_text("{not json")
    repeated = tmp_path / "repeated.json"
    repeated.write_text('{"amplitude_db": -1.39, "phase_db": -0.64, "amplitude_db": 5.0}')
    outputs = []
    for where in ("child", "in-process"):
        out = tmp_path / f"{where}.json"
        args = ["certify"] + [a.format(analysis=analysis, malformed=malformed,
                                       repeated=repeated, out=out) for a in argv]
        if where == "child":
            result = subprocess.run([sys.executable, "-c", _cli_without(package), *args],
                                    env=_src_env(), capture_output=True, text=True,
                                    timeout=60)
            code, stdout, stderr = result.returncode, result.stdout, result.stderr
        else:
            code = main(args)
            stdout, stderr = capsys.readouterr()
        report = out.read_bytes() if out.exists() else None
        outputs.append((code, stdout, stderr, report))
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == status
    assert (outputs[0][2] == "") == (status == 0), outputs[0][2]  # no traceback either
    assert (outputs[0][3] is not None) == ("--out" in argv)


@pytest.mark.skipif(os.name != "posix", reason="file modes and the umask are POSIX")
@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)],
                         ids=["umask-022", "umask-077"])
def test_artifacts_take_the_mode_the_umask_gives(tmp_path, umask, mode):
    # the mode open(path, "w") gives, not mkstemp's 0o600; the commands run in
    # a child so that the umask can be set for it alone.  The last, a Duan sum
    # that overflows, exits 2 and writes nothing.
    path = write_config(tmp_path, lambda d: d["synth"].update(num_samples=2 ** 12))
    out = tmp_path / "out"
    out.mkdir()
    code = ("import sys; from twinbeam.cli import main; config, out = sys.argv[1:]; "
            "print([main(argv) for argv in ("
            "['synth', '--config', config, '--out', out + '/run.twbm'], "
            "['analyze', out + '/run.twbm', '--config', config, '--out', out + '/analysis.json'], "
            "['certify', out + '/analysis.json', '--out', out + '/report.json'], "
            "['spectra', '--config', config, '--out', out + '/spectra.csv'], "
            "['certify', '--vx', '1e308', '--vy', '1e308', '--out', out + '/failed.json'])])")
    result = subprocess.run([sys.executable, "-c", code, path, str(out)], env=_src_env(),
                            umask=umask, capture_output=True, text=True, timeout=120)
    assert result.stdout.splitlines()[-1] == "[0, 0, 0, 0, 2]", result.stderr
    assert {entry.name: entry.stat().st_mode & 0o777 for entry in out.iterdir()} == {
        name: mode for name in ("run.twbm", "analysis.json", "report.json", "spectra.csv")}


def test_importing_the_package_leaves_the_umask_alone(tmp_path):
    # a child whose os.umask raises imports the CLI and writes a report
    code = ("import os, sys\n"
            "def refuse(mask): raise AssertionError('os.umask called')\n"
            "os.umask = refuse\n"
            "from twinbeam.cli import main\n"
            "sys.exit(main(['certify', '--vx', '0.552', '--vy', '0.785', '--out', sys.argv[1]]))")
    out = tmp_path / "report.json"
    result = subprocess.run([sys.executable, "-c", code, str(out)], env=_src_env(),
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert json.loads(out.read_text())["entangled"]
    assert os.listdir(tmp_path) == ["report.json"]


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                    reason="needs os.sched_setaffinity")
def test_output_does_not_depend_on_the_core_count(tmp_path):
    # synth and analyze in a child process pinned to one CPU, then unpinned
    path = write_config(tmp_path, lambda d: d["synth"].update(num_samples=2 ** 18))
    code = ("import os, sys; from twinbeam.cli import main; cpus = sys.argv[1]; "
            "cpus != 'all' and os.sched_setaffinity(0, {int(cpus)}); "
            "out = sys.argv[2]; "
            "sys.exit(main(['synth', '--config', sys.argv[3], '--out', out + '.twbm']) or "
            "main(['analyze', out + '.twbm', '--config', sys.argv[3], '--out', out + '.json']))")
    one_cpu = min(os.sched_getaffinity(0))
    outputs = []
    for cpus in (str(one_cpu), "all"):
        out = str(tmp_path / f"cpus-{cpus}")
        subprocess.run([sys.executable, "-c", code, cpus, out, path], env=_src_env(),
                       capture_output=True, text=True, check=True, timeout=300)
        with open(out + ".twbm", "rb") as trace, open(out + ".json", "rb") as analysis:
            outputs.append((hashlib.sha256(trace.read()).hexdigest(), analysis.read()))
    assert outputs[0] == outputs[1]


def test_analyze_peak_memory_is_flat_in_the_length(tmp_path, capsys):
    # each estimate reads its channel block by block, so whatever the length,
    # analyze holds at most the sha256's read chunk (1 MiB) and the group
    # buffers and read blocks of the tasks on the two workers.  Which tasks
    # overlap moves the peak (2.70 to 3.07 MB over 110 runs at 2^18 and 2^20,
    # also under -X dev), so the bound is absolute: 1.1 MB above the highest
    # peak, and 2.7 MB below the lowest plus one whole 2^20-sample channel
    # (4 MiB of float32), which would break it whichever tasks overlapped.
    def traced_peak(num_samples):
        path = write_config(tmp_path, lambda d: d["synth"].update(num_samples=num_samples),
                            name=f"{num_samples}.json")
        trace = tmp_path / f"{num_samples}.twbm"
        assert main(["synth", "--config", path, "--out", str(trace)]) == 0
        tracemalloc.start()
        try:
            assert main(["analyze", str(trace), "--config", path]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    traced_peak(2 ** 16)  # the first transforms of a size fill numpy's caches
    for num_samples in (2 ** 18, 2 ** 20):
        assert traced_peak(num_samples) <= fileio._HASH_CHUNK + 3 * 2 ** 20


@pytest.mark.skipif(not hasattr(os, "wait4"), reason="needs os.wait4")
def test_analyze_child_holds_no_trace(tmp_path, capsys):
    # a 2^22-sample trace is 64 MiB; analyze in a child process peaks less
    # than half of that above a child that only imports what analyze loads
    path = write_config(tmp_path, lambda d: d["synth"].update(num_samples=2 ** 22))
    trace = tmp_path / "long.twbm"
    assert main(["synth", "--config", path, "--out", str(trace)]) == 0
    kib = 1 if sys.platform != "darwin" else 1 / 1024  # ru_maxrss is in bytes on macOS

    def peak_rss_kib(code, *args):
        child = subprocess.Popen([sys.executable, "-c", code, *args], env=_src_env(),
                                 stdout=subprocess.DEVNULL)
        _, status, usage = os.wait4(child.pid, 0)
        child.returncode = os.waitstatus_to_exitcode(status)
        assert child.returncode == 0
        return usage.ru_maxrss * kib

    bare = peak_rss_kib("import numpy, twinbeam.cli, twinbeam.config, twinbeam.dsp, "
                        "twinbeam.fileio, twinbeam.pipeline")
    analyze = peak_rss_kib(
        "import sys; from twinbeam.cli import main; sys.exit(main(sys.argv[1:]))",
        "analyze", str(trace), "--config", path)
    assert analyze - bare < 32 * 1024
