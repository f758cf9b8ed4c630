import copy
import pathlib
import re
import types
import warnings

import numpy as np
import pytest

from seed_sweep import independent_bins, mean_bound, sd_bounds, sweep
from test_acceptance import REFERENCE_CONFIG
from twinbeam import dsp, model, pipeline, synth
from twinbeam.config import parse_config
from twinbeam.errors import DomainError

ORACLE = pathlib.Path(__file__).resolve().parent.parent / "bench" / "oracle.py"
PERTURBED_CHAINS = [
    {"enl": 0.2, "amplitude": {"mode_match": 0.85, "excess_noise": 0.1},
     "phase": {"mode_match": 0.7, "excess_noise": 0.2}},
    {"enl": 0.6, "amplitude": {"mode_match": 0.95, "excess_noise": 0.0},
     "phase": {"mode_match": 1.0, "excess_noise": 0.5}},
]


def bench_oracle():
    """bench/oracle.py as a module, compiled from its text (no bytecode is written)."""
    oracle = types.ModuleType("bench_oracle")
    exec(compile(ORACLE.read_text(), str(ORACLE), "exec"), oracle.__dict__)
    return oracle


@pytest.mark.parametrize("chain", [None, *PERTURBED_CHAINS],
                         ids=["reference", "perturbed-1", "perturbed-2"])
def test_expected_readings_agree_with_the_bench_oracle(chain):
    doc = copy.deepcopy(REFERENCE_CONFIG)
    if chain is not None:
        doc["chain"] = chain
    expected = pipeline.expected_readings(parse_config(doc))
    oracle = bench_oracle().expected_readings(model, doc)
    for key in ("amplitude_db", "phase_db", "enl_db"):
        assert expected[key] == pytest.approx(oracle[key], rel=0, abs=1e-12), key


def test_expected_readings_at_zero_floor_and_off_f0():
    doc = copy.deepcopy(REFERENCE_CONFIG)
    doc["chain"]["enl"] = 0.0
    cfg = parse_config(doc)
    assert pipeline.expected_readings(cfg)["enl_db"] is None
    # far above the cavity bandwidth the combinations are at the SNL
    doc["interferometer"]["analysis_frequency_hz"] = 49e6
    cfg = parse_config(doc)
    far = pipeline.expected_readings(cfg)
    assert far["amplitude_db"] == pytest.approx(
        model.db_rel_snl(model.intensity_diff_spectrum(cfg.nopo, 49e6)), abs=1e-12)


def test_only_trace_channels_warns_of_a_truncating_sample_rate():
    # at 4 MS/s, Nyquist lies below twice the 24.7 MHz cavity bandwidth; the
    # psds are only evaluated at given frequencies until trace_channels
    # samples them, and its warning names the caller's file
    doc = copy.deepcopy(REFERENCE_CONFIG)
    doc["synth"]["sample_rate_hz"] = 4e6
    doc["interferometer"]["analysis_frequency_hz"] = 1e6
    cfg = parse_config(doc)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pipeline.channel_psds(cfg)
        pipeline.expected_readings(cfg)
    with pytest.warns(UserWarning, match="Nyquist 2e\\+06 Hz below twice the cavity bandwidth "
                                         "2.47e\\+07 Hz; spectra will be truncated") as record:
        pipeline.trace_channels(cfg)
    assert [w.filename for w in record] == [__file__]


def test_channel_psds_are_the_chain_forward_model():
    cfg = parse_config(REFERENCE_CONFIG)
    psds = pipeline.channel_psds(cfg)
    assert list(psds) == list(pipeline.TRACE_CHANNELS)
    freqs = np.array([0.0, 5e6, 20e6, 50e6])
    enl = cfg.enl
    phase = model.with_electronic_noise(
        0.90 * model.phase_sum_spectrum(cfg.nopo, freqs) + 0.10 + 0.04, enl)
    np.testing.assert_allclose(psds["phase_signal"](freqs), phase, rtol=1e-12)
    np.testing.assert_allclose(psds["snl"](freqs), 1.0)
    np.testing.assert_allclose(psds["enl"](freqs), enl)


@pytest.mark.parametrize("name", ["amp_signal", "phase_signal"])
def test_shaped_psd_error_below_six_tenths_of_nyquist(name):
    # the kernel's tail-energy bound does not bound |H(f)|^2 - psd(f) near
    # fs/2 (a few 1e-4 there); below 0.6 fs/2 it is about 4e-6
    cfg = parse_config(REFERENCE_CONFIG)
    psd, fs = pipeline.channel_psds(cfg)[name], cfg.synth.sample_rate
    kernel = synth.shaping_kernel(psd, fs)
    freqs = np.linspace(0, 0.3 * fs, 1201)
    lags = np.arange(kernel.size) - kernel.size // 2
    response = np.cos(2 * np.pi * np.outer(freqs / fs, lags)) @ kernel
    assert np.abs(response ** 2 - psd(freqs)).max() <= 1e-5


def test_readings_read_the_reference_amplitude_chain():
    # amplitude chain with the reference electronics floor: -1.33 dB
    doc = copy.deepcopy(REFERENCE_CONFIG)
    doc["synth"]["seed"] = 30
    cfg = parse_config(doc)
    readings = pipeline.readings(pipeline.trace_channels(cfg), cfg.synth.sample_rate, cfg)
    assert readings["amplitude_db"] == pytest.approx(-1.33, abs=0.2)


@pytest.mark.parametrize("silent, message", [
    ("snl", "reference power is zero at 2e+07 Hz"),
    ("amp_signal", "measured power is zero at 2e+07 Hz"),
    ("phase_signal", "measured power is zero at 2e+07 Hz"),
], ids=["snl", "amp_signal", "phase_signal"])
def test_zero_power_is_domain_error(silent, message):
    doc = copy.deepcopy(REFERENCE_CONFIG)
    doc["synth"]["num_samples"] = 2 ** 16
    cfg = parse_config(doc)
    channels = pipeline.trace_channels(cfg)
    channels[silent] = np.zeros(2 ** 16)
    with pytest.raises(DomainError, match=re.escape(message)):
        pipeline.readings(channels, cfg.synth.sample_rate, cfg)


def test_seed_sweep_bounds_are_the_printed_ones():
    # the scatter test below applies 0.60 and [0.59, 1.45]; at n = 30 and
    # alpha = 0.001 the kit gives 0.6008, 0.5938 and 1.4472
    low, high = sd_bounds(30, 0.001)
    assert (mean_bound(30, 0.001), low, high) == pytest.approx((0.6008, 0.5938, 1.4472),
                                                              abs=5e-5)
    assert (round(mean_bound(30, 0.001), 2), round(low, 2), round(high, 2)) == (0.60, 0.59, 1.45)


def test_readings_scatter_as_their_standard_error():
    # 30 seeds at 2^18 samples: z = (reading - expected) / sigma_dB with
    # sigma_dB the reported *_db_stderr, 10/ln10 * sqrt(2 / num_averages),
    # the error of a ratio of two independent Welch estimates; the bounds
    # are the 0.1% two-sided limits of the mean and of chi^2(29) for the
    # standard deviation, as the seed-sweep kit gives them to two digits
    expected = pipeline.expected_readings(parse_config(REFERENCE_CONFIG))
    swept = sweep(REFERENCE_CONFIG, range(100, 130), 2 ** 18)
    for key in ("amplitude_db", "phase_db", "enl_db"):
        z = [(readings[key] - expected[key]) / readings[f"{key}_stderr"] for readings in swept]
        assert abs(np.mean(z)) <= 0.60, key
        assert 0.59 <= np.std(z, ddof=1) <= 1.45, key


def test_independent_bins_of_a_hann_welch_estimate():
    # one bin varies by Welch's overlap factor for Hann at 50%, sd 1.027; the
    # 290 bins of the closure test below, which correlate 0.46 at lag 1 and
    # 0.04 at lag 2, are worth 137.6 independent ones
    assert 1.0 / independent_bins(1, 1000) == pytest.approx(1.027 ** 2, abs=1e-3)
    assert independent_bins(290, 1000) == pytest.approx(137.6, abs=0.05)


def test_full_spectrum_closes_on_the_chain_forward_model():
    # REFERENCE_CONFIG at its own seed: each shaped channel's full-grid Welch
    # estimate against its chain PSD, z = (estimate / psd - 1) sqrt(num_averages)
    # pooled over the 290 bins in [1 MHz, 0.6 Nyquist], where the shaped PSD is
    # within 1e-5 of its target.  The mean's bound counts the bins as the
    # independent z-scores they are worth; a 1% power error in a channel moves
    # the mean by about 0.9, more than three times the bound
    cfg = parse_config(REFERENCE_CONFIG)
    fs, psds = cfg.synth.sample_rate, pipeline.channel_psds(cfg)
    channels = pipeline.trace_channels(cfg)
    bound = mean_bound(independent_bins(290, dsp.segment_length(fs, cfg.analyzer)), 0.001)
    for name in ("amp_signal", "phase_signal", "snl"):
        estimate = dsp.welch_psd(channels[name], fs, cfg.analyzer)
        f = estimate.frequencies
        band = (f >= 1e6) & (f <= 0.6 * fs / 2.0)
        assert band.sum() == 290
        z = (estimate.psd[band] / psds[name](f[band]) - 1.0) * np.sqrt(estimate.num_averages)
        assert abs(z.mean()) <= bound, name
