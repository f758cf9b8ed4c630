import copy
import hashlib
import json
import math
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

import twinbeam
from twinbeam import fileio, model, synth
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


class TestConfigSchema:
    def test_parses(self):
        cfg = parse_config(copy.deepcopy(BASE_CONFIG))
        assert cfg.nopo.output_coupling == pytest.approx(0.84)
        assert cfg.interferometer.arm_length_difference == pytest.approx(7.4948, abs=1e-4)

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

    def test_non_power_of_two_is_infeasible(self, tmp_path):
        path = write_config(tmp_path, lambda d: d["synth"].update(num_samples=3000))
        assert main(["synth", "--config", path, "--out", str(tmp_path / "t.twbm")]) == 2

    def test_negative_seed_is_infeasible(self, tmp_path, capsys):
        path = write_config(tmp_path, lambda d: d["synth"].update(seed=-1))
        assert main(["synth", "--config", path, "--out", str(tmp_path / "t.twbm")]) == 2
        assert "seed must be nonnegative" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["mut.json"]


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

    def test_readme_chain_default_grid_then_fit(self, config_path, tmp_path, capsys):
        # spectra with its default --f-min 0 writes a DC row; fit must take it
        out = tmp_path / "spectra.csv"
        assert main(["spectra", "--config", config_path, "--out", str(out)]) == 0
        assert main(["fit", str(out), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["converged"]
        assert report["efficiency_product"] == pytest.approx(0.88 * 0.84, rel=1e-6)
        assert report["bandwidth_hz"] == pytest.approx(24.7e6, rel=1e-6)

    def test_invalid_range_is_usage_error(self, config_path, tmp_path):
        assert main(["spectra", "--config", config_path, "--f-min", "5e6",
                     "--f-max", "1e6", "--out", str(tmp_path / "o.csv")]) == 1

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
        # combinations through the chain functions, after the trace's
        # float32 rounding
        path = write_config(tmp_path, lambda d: d["synth"].update(num_samples=2 ** 16))
        out = tmp_path / "lean.twbm"
        assert main(["synth", "--config", path, "--out", str(out)]) == 0
        _, channels = fileio.read_trace(out)

        with open(path) as handle:
            cfg = parse_config(json.load(handle))
        seed, n = cfg.synth.seed, cfg.synth.num_samples
        combinations = dict(synth.measured_combinations(cfg.nopo, cfg.synth))

        def signal(series, mode, chain):
            return synth.mz_signal(synth.BlockSeries.of(series), mode, cfg.interferometer,
                                   chain, seed).array()

        library = {
            "amp_signal": signal(combinations["xminus"], "amplitude", cfg.amplitude_chain),
            "phase_signal": signal(combinations["yplus"], "phase", cfg.phase_chain),
            "snl": synth.mz_reference(n, "amplitude", cfg.amplitude_chain, seed).array(),
            "enl": synth.electronics_floor(cfg.enl, n, seed).array(),
        }
        assert list(channels) == list(library)
        for name, series in library.items():
            np.testing.assert_array_equal(channels[name], series.astype(np.float32))

    def test_worker_failure_mid_stream_leaves_no_file(self, tmp_path, monkeypatch, capsys):
        # a chain stage raising on the worker thread, a few blocks into the
        # electronics floor, while the calling thread shapes the combinations
        path = write_config(tmp_path, lambda d: d["synth"].update(num_samples=2 ** 18))
        out = tmp_path / "fail.twbm"
        electronics_floor = synth.electronics_floor
        raised_on = []

        def failing_floor(*args, **kwargs):
            floor = electronics_floor(*args, **kwargs)
            block = floor.block

            def failing_block(start, stop):
                if start >= 2 * synth._BLOCK_SAMPLES:
                    raised_on.append(threading.get_ident())
                    raise DomainError("electronics stage failed")
                return block(start, stop)

            return synth.BlockSeries(floor.length, failing_block)

        monkeypatch.setattr(synth, "electronics_floor", failing_floor)
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

    def test_seed_override_changes_output(self, config_path, tmp_path, capsys):
        out = tmp_path / "c.twbm"
        assert main(["synth", "--config", config_path, "--out", str(out), "--json"]) == 0
        base = json.loads(capsys.readouterr().out)
        assert main(["synth", "--config", config_path, "--seed", "99",
                     "--out", str(out), "--json"]) == 0
        other = json.loads(capsys.readouterr().out)
        assert other["seed"] == 99
        assert other["sha256"] != base["sha256"]

    def test_negative_seed_override_is_infeasible(self, config_path, tmp_path, capsys):
        out = tmp_path / "n.twbm"
        assert main(["synth", "--config", config_path, "--seed", "-1", "--out", str(out)]) == 2
        assert "seed must be nonnegative" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["config.json"]


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
        assert reading["enl_db"] is None
        assert math.isfinite(reading["amplitude_db"]) and math.isfinite(reading["phase_db"])
        assert main(["certify", str(analysis), "--json"]) == 0
        report = json.loads(capsys.readouterr().out, parse_constant=pytest.fail)
        assert "electronic_noise" not in {c["correction"] for c in report["corrections"]}
        assert report["amplitude_diff_variance"] == report["raw"]["amplitude"]

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
            cfg = parse_config(json.load(handle))
        f0 = cfg.interferometer.analysis_frequency
        sensitivity = math.sin(cfg.interferometer.rf_sideband_phase / 2.0) ** 2
        expected = model.with_electronic_noise(
            model.mode_match_penalty(
                sensitivity * model.intensity_diff_spectrum(cfg.nopo, f0),
                cfg.amplitude_chain.mode_match) + 0.5,
            cfg.enl)
        sigma_db = 4.343 * math.sqrt(2.0 / reading["num_averages"])
        assert abs(reading["amplitude_db"] - model.db_rel_snl(expected)) < 5 * sigma_db

    def test_f0_outside_nyquist_is_usage_error(self, config_path, tmp_path, capsys):
        trace = tmp_path / "run2.twbm"
        assert main(["synth", "--config", config_path, "--out", str(trace)]) == 0
        capsys.readouterr()
        assert main(["analyze", str(trace), "--config", config_path,
                     "--f0", "60e6"]) == 1

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
    ], ids=["not-json", "not-utf8", "text-reading", "text-enl", "bool-reading",
            "list-reading", "number", "list"])
    def test_malformed_analysis_is_usage_error(self, content, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        assert main(["certify", str(path), "--json"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("twinbeam: error: analysis JSON")
        assert captured.out == ""

    def test_nonfinite_reading_is_infeasible(self, tmp_path, capsys):
        path = tmp_path / "nan.json"
        path.write_text('{"amplitude_db": NaN, "phase_db": -0.6}')
        assert main(["certify", str(path), "--json"]) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("reading", ["null", "9" * 400], ids=["null", "huge-integer"])
    def test_null_or_overflowing_reading_is_infeasible(self, reading, tmp_path, capsys):
        path = tmp_path / "huge.json"
        path.write_text(f'{{"amplitude_db": {reading}, "phase_db": -0.6}}')
        assert main(["certify", str(path), "--json"]) == 2
        assert capsys.readouterr().out == ""

    def test_mode_match_deembedding(self, capsys):
        penalized = model.mode_match_penalty(0.7113, 0.90)
        assert main(["certify", "--vx", "0.5535", "--vy", str(penalized),
                     "--mode-match", "0.90", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["phase_sum_variance"] == pytest.approx(0.7113, rel=1e-9)


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

    @pytest.mark.parametrize("row, message", [
        (b"1e6,abc,0.5,,", "line 3 holds a cell that is not a number"),
        (b"1e6,0.5,\xff\xfe,,", "not UTF-8 text (byte offset 49)"),
        (b"1e6,nan,0.5,,", "amplitude_observed must be finite"),
    ], ids=["non-numeric", "non-utf8", "nan-observation"])
    def test_malformed_spectrum_is_infeasible(self, row, message, tmp_path, capsys):
        header = b"f_hz,s_i,s_p,s_i_db,s_p_db\n2e6,0.6,0.7,,\n"
        path = tmp_path / "bad.csv"
        path.write_bytes(header + row + b"\n4e6,0.6,0.7,,\n8e6,0.7,0.8,,\n")
        assert main(["fit", str(path), "--json"]) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""


class TestUsage:
    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_missing_required_flag(self, capsys):
        assert main(["spectra"]) == 1


def _src_env():
    src = os.path.dirname(os.path.dirname(os.path.abspath(twinbeam.__file__)))
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))


def test_cli_import_leaves_scipy_unloaded():
    # only fit_spectra needs scipy, and only synth and analyze start a thread
    # pool; every other subcommand starts without either
    code = ("import sys, twinbeam.cli; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy' or m.startswith('concurrent.futures')))")
    result = subprocess.run([sys.executable, "-c", code], env=_src_env(),
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"


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
