"""Acceptance gate: one test per release criterion, one verdict line each.

Verdict lines are printed in the terminal summary of any pytest run (and
inline with ``-s``).  Criteria 1-3 pin reference arithmetic; 4-9 are
statistical/property checks on the synthetic pipeline with frozen seeds.
"""

import functools
import hashlib
import json
import math
import pathlib
import re
import time

import numpy as np
import pytest

from twinbeam import dsp, model, synth
from twinbeam.cli import main
from twinbeam.config import parse_config
from twinbeam.fit import FitProblem, _jacobian, _residuals, fit_spectra

FS = 1e8
SETTINGS = dsp.AnalyzerSettings(rbw=150e3, vbw=2.0)

REFERENCE_CONFIG = {
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
        "sample_rate_hz": FS,
        "num_samples": 2 ** 22,
        "seed": 7,
    },
    "chain": {
        "enl": 0.4074,
        "amplitude": {"mode_match": 1.0, "excess_noise": 0.0},
        "phase": {"mode_match": 0.90, "excess_noise": 0.04},
    },
    "analyzer": {"rbw_hz": 150e3, "vbw_hz": 2.0},
    "interferometer": {"analysis_frequency_hz": 20e6},
}


def verdict(number, description):
    """Decorator recording one PASS/FAIL line per criterion."""
    def wrap(func):
        @functools.wraps(func)
        def runner(*args, **kwargs):
            try:
                func(*args, **kwargs)
            except BaseException:
                _record(f"FAIL criterion {number}: {description}")
                raise
            _record(f"PASS criterion {number}: {description}")
        return runner
    return wrap


def _record(line):
    print(line)
    from conftest import ACCEPTANCE_VERDICTS
    ACCEPTANCE_VERDICTS.append(line)


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run_pipeline(tmp_path, config):
    """synth -> analyze -> certify through the CLI; returns (analysis, report)."""
    cfg_path = write_config(tmp_path, config)
    trace = str(tmp_path / "trace.twbm")
    analysis_path = str(tmp_path / "analysis.json")
    report_path = str(tmp_path / "report.json")
    assert main(["synth", "--config", cfg_path, "--out", trace]) == 0
    assert main(["analyze", trace, "--config", cfg_path, "--out", analysis_path]) == 0
    assert main(["certify", analysis_path, "--out", report_path]) == 0
    analysis = json.loads((tmp_path / "analysis.json").read_text())
    report = json.loads((tmp_path / "report.json").read_text())
    return analysis, report


@verdict(1, "analytic spectra hit 0.5535 / 0.7113 at 20 MHz in under 1 s")
def test_criterion_1_analytic_markers(tmp_path, capsys):
    out = str(tmp_path / "spectra.csv")
    cfg_path = write_config(tmp_path, REFERENCE_CONFIG)
    start = time.perf_counter()
    assert main(["spectra", "--config", cfg_path, "--f-min", "0",
                 "--f-max", "100e6", "--num-points", "1001", "--out", out]) == 0
    elapsed = time.perf_counter() - start
    from twinbeam import fileio
    freqs, s_i, s_p = fileio.read_spectrum_csv(out)
    row = int(np.argmin(np.abs(freqs - 20e6)))
    assert abs(freqs[row] - 20e6) < 1.0
    assert s_i[row] == pytest.approx(0.5535, abs=0.0005)
    assert s_p[row] == pytest.approx(0.7113, abs=0.0005)
    # the looser reference rounding windows around the same markers
    assert round(s_i[row], 2) == 0.55
    assert model.db_rel_snl(s_i[row]) == pytest.approx(-2.58, abs=0.02)
    assert abs(s_p[row] - 0.70) <= 0.02
    assert elapsed < 1.0


@verdict(2, "electronic-noise correction maps -0.60 dB to -1.07 dB")
def test_criterion_2_enl_correction():
    corrected = model.correct_for_electronic_noise(
        model.from_db(-0.60), model.from_db(-3.9))
    corrected_db = model.db_rel_snl(corrected)
    assert corrected_db == pytest.approx(-1.07, abs=0.005)
    assert abs(corrected_db - (-1.05)) <= 0.05


@verdict(3, "Duan sum 1.33 certifies entanglement; the shot-noise pair does not")
def test_criterion_3_duan_certification():
    pair = model.QuadratureVariancePair(0.552, 0.785)
    result = model.duan_certify(pair)
    assert 1.32 <= result.total <= 1.35
    assert result.total == pytest.approx(1.337, abs=0.001)
    assert result.entangled
    boundary = model.duan_certify(model.QuadratureVariancePair(1.0, 1.0))
    assert boundary.total == 2.0
    assert not boundary.entangled


@verdict(4, "end-to-end run reads raw dips -1.33 / -0.61 dB within 0.2 dB in under 60 s")
def test_criterion_4_end_to_end(tmp_path, capsys):
    start = time.perf_counter()
    analysis, report = run_pipeline(tmp_path, REFERENCE_CONFIG)
    elapsed = time.perf_counter() - start
    assert analysis["amplitude_db"] == pytest.approx(-1.33, abs=0.2)
    assert analysis["phase_db"] == pytest.approx(-0.61, abs=0.2)
    assert report["entangled"]
    assert elapsed < 60.0


@verdict(5, "unit-white PSD flat to 0.2 dB with >=200 averages; Parseval within 1%")
def test_criterion_5_estimator_calibration():
    series = synth.colored_gaussian_series(np.ones_like, FS, 2 ** 22, seed=5).array()
    estimate = dsp.welch_psd(series, FS, SETTINGS)
    assert estimate.num_averages >= 200
    band = (estimate.frequencies > 1e6) & (estimate.frequencies < 40e6)
    for lo in np.arange(1e6, 40e6, 1e6):
        sub = band & (estimate.frequencies >= lo) & (estimate.frequencies < lo + 1e6)
        assert abs(10 * math.log10(np.mean(estimate.psd[sub]))) < 0.2
    assert np.mean(estimate.psd) == pytest.approx(np.var(series), rel=0.01)


@verdict(6, "synthesized twin-beam PSDs track the forward model within 0.15 dB")
def test_criterion_6_synthesis_fidelity():
    rng = np.random.default_rng(20)
    for _ in range(5):
        product = rng.uniform(0.3, 0.9)
        bandwidth = rng.uniform(8e6, 24e6)
        ratio = rng.uniform(1.1, 2.0)
        params = model.NopoParams.from_derived(
            output_coupling=product, pump_ratio=ratio,
            cavity_bandwidth=bandwidth, detection_efficiency=1.0)
        cfg = synth.SynthConfig(sample_rate=FS, num_samples=2 ** 22,
                                seed=int(rng.integers(0, 2 ** 31)))
        xminus = synth.colored_gaussian_series(
            lambda f: model.intensity_diff_spectrum(params, f), FS, cfg.num_samples,
            cfg.seed, source="xminus")
        yplus = synth.colored_gaussian_series(
            lambda f: model.phase_sum_spectrum(params, f), FS, cfg.num_samples,
            cfg.seed, source="yplus")
        est_x = dsp.welch_psd(xminus.array(), FS, SETTINGS)
        est_y = dsp.welch_psd(yplus.array(), FS, SETTINGS)
        for f0 in rng.uniform(2e6, 40e6, size=5):
            i = int(np.argmin(np.abs(est_x.frequencies - f0)))
            f_bin = est_x.frequencies[i]
            dev_x = 10 * math.log10(
                est_x.psd[i] / model.intensity_diff_psd(f_bin, product, bandwidth))
            dev_y = 10 * math.log10(
                est_y.psd[i] / model.phase_sum_psd(f_bin, product, bandwidth, ratio))
            assert abs(dev_x) <= 0.15
            assert abs(dev_y) <= 0.15


@verdict(7, "fit recovers parameters: noiseless 1e-6, 1% noise medians 2%/5%/5%")
def test_criterion_7_fit_recovery():
    truth = (0.7392, 24.7e6, 1.38)
    freqs = np.linspace(1e6, 80e6, 64)
    s_i = model.intensity_diff_psd(freqs, truth[0], truth[1])
    s_p = model.phase_sum_psd(freqs, truth[0], truth[1], truth[2])

    clean = fit_spectra(FitProblem(freqs, s_i, s_p))
    assert clean.efficiency_product == pytest.approx(truth[0], rel=1e-6)
    assert clean.bandwidth == pytest.approx(truth[1], rel=1e-6)
    assert clean.pump_ratio == pytest.approx(truth[2], rel=1e-6)

    rng = np.random.default_rng(123)
    errors = []
    for _ in range(50):
        noisy_i = s_i * (1 + 0.01 * rng.standard_normal(freqs.size))
        noisy_p = s_p * (1 + 0.01 * rng.standard_normal(freqs.size))
        result = fit_spectra(FitProblem(freqs, noisy_i, noisy_p))
        errors.append([abs(result.efficiency_product / truth[0] - 1),
                       abs(result.bandwidth / truth[1] - 1),
                       abs(result.pump_ratio / truth[2] - 1)])
    medians = np.median(errors, axis=0)
    assert medians[0] <= 0.02 and medians[1] <= 0.05 and medians[2] <= 0.05

    x = np.array([truth[0], math.log(truth[1]), math.log(truth[2] - 1.0)])
    problem = FitProblem(freqs, s_i, s_p)
    weights = np.ones(freqs.size)
    analytic = _jacobian(x, problem, True, weights)
    numeric = np.zeros_like(analytic)
    for j in range(3):
        h = 6e-6 * max(1.0, abs(x[j]))
        xp, xm = x.copy(), x.copy()
        xp[j] += h
        xm[j] -= h
        numeric[:, j] = (_residuals(xp, problem, True, weights)
                         - _residuals(xm, problem, True, weights)) / (2 * h)
    scale = np.abs(analytic) + np.abs(numeric) + 1e-9
    assert np.max(np.abs(analytic - numeric) / scale) < 1e-6


@verdict(8, "interferometer geometry: 7.4948 m arm difference, pi rf phase")
def test_criterion_8_geometry():
    delta_l = model.arm_length_difference(20e6)
    assert delta_l == pytest.approx(7.4948, abs=0.0001)
    assert round(delta_l, 1) == 7.5
    assert model.rf_phase(delta_l, 20e6) == pytest.approx(math.pi, rel=1e-15)


@verdict(9, "identical seeds give bit-identical trace files")
def test_criterion_9_determinism(tmp_path, capsys):
    cfg = dict(REFERENCE_CONFIG)
    cfg["synth"] = dict(cfg["synth"], num_samples=2 ** 18)
    cfg_path = write_config(tmp_path, cfg)
    digests = []
    for name in ("first.twbm", "second.twbm"):
        out = tmp_path / name
        assert main(["synth", "--config", cfg_path, "--out", str(out)]) == 0
        digests.append(hashlib.sha256(out.read_bytes()).hexdigest())
    assert digests[0] == digests[1]


@verdict("closure", "ideal-chain pipeline returns the analytic Duan sum within 0.03")
def test_pipeline_closure_invariant(tmp_path, capsys):
    config = json.loads(json.dumps(REFERENCE_CONFIG))
    config["chain"]["enl"] = 1e-6
    config["chain"]["phase"] = {"mode_match": 1.0, "excess_noise": 0.0}
    _, report = run_pipeline(tmp_path, config)
    assert report["duan_sum"] == pytest.approx(1.2648, abs=0.03)
    assert report["entangled"]


def test_readme_config_is_the_reference_config():
    # the README's minimal config is the one this gate (and the benchmark) runs
    readme = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = re.search(r"A minimal config:\s*```json\n(.*?)```", readme, re.DOTALL)
    assert block is not None, "README lacks the minimal config block"
    document = json.loads(block.group(1))
    parse_config(document)
    assert document == REFERENCE_CONFIG
