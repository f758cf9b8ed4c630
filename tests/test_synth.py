import copy
import json
import math
import os
import tempfile
import tracemalloc

import numpy as np
import pytest

from twinbeam import fileio, model, pipeline, synth
from twinbeam.cli import main
from twinbeam.config import parse_config
from twinbeam.dsp import AnalyzerSettings, welch_psd
from twinbeam.errors import DomainError

FS = 1e8
SETTINGS = AnalyzerSettings(rbw=150e3, vbw=2.0)
REF_PARAMS = model.NopoParams.from_derived(0.84, 1.38, 24.7e6, 0.88)
S_I_20M = model.intensity_diff_spectrum(REF_PARAMS, 20e6)   # 0.55353
S_P_20M = model.phase_sum_spectrum(REF_PARAMS, 20e6)        # 0.71125
AMPLITUDE_DIP = lambda f: model.intensity_diff_psd(f, 0.88 * 0.84, 24.7e6)
PHASE_DIP = lambda f: model.phase_sum_psd(f, 0.88 * 0.84, 24.7e6, 1.38)

CHAIN_DOC = {
    "version": "twinbeam-config/2",
    "nopo": {"transmission": 0.84, "intracavity_loss": 0.16,
             "cavity_bandwidth_hz": 24.7e6, "pump_power": 1.9044,
             "threshold_power": 1.0, "detection_efficiency": 0.88},
    "synth": {"sample_rate_hz": FS, "num_samples": 2 ** 16, "seed": 8},
    "chain": {"enl": 0.4,
              "amplitude": {"mode_match": 0.8, "excess_noise": 0.3},
              "phase": {"mode_match": 0.8, "excess_noise": 0.04}},
    "analyzer": {"rbw_hz": 150e3, "vbw_hz": 2.0},
    "interferometer": {"analysis_frequency_hz": 20e6},
}


def run_config(n=2 ** 16, seed=8, enl=0.4, amplitude=None, phase=None, **sections):
    """CHAIN_DOC with the given length, seed, floor, channel chains and sections."""
    doc = copy.deepcopy(CHAIN_DOC)
    doc["synth"].update(num_samples=n, seed=seed)
    doc["chain"]["enl"] = enl
    doc["chain"]["amplitude"].update(amplitude or {})
    doc["chain"]["phase"].update(phase or {})
    for key, value in sections.items():
        doc[key].update(value)
    return parse_config(doc)


def psd_at(estimate, f0):
    return estimate.psd[np.argmin(np.abs(estimate.frequencies - f0))]


def estimate(series, settings=SETTINGS):
    return welch_psd(series, FS, settings)


def channels(cfg):
    return {name: series.array() for name, series in pipeline.trace_channels(cfg).items()}


class TestColoredGaussianSeries:
    def test_white_identity(self):
        series = synth.colored_gaussian_series(np.ones_like, FS, 2 ** 20, seed=3)
        est = estimate(series.array())
        assert est.num_averages >= 200
        # flat within 0.2 dB on 1-MHz sub-band averages across (1, 40) MHz
        for lo in np.arange(1e6, 40e6, 1e6):
            band = (est.frequencies >= lo) & (est.frequencies < lo + 1e6)
            assert abs(10 * math.log10(np.mean(est.psd[band]))) < 0.2

    def test_matches_amplitude_dip_target(self):
        series = synth.colored_gaussian_series(AMPLITUDE_DIP, FS, 2 ** 22, seed=7)
        assert psd_at(estimate(series.array()), 20e6) == pytest.approx(S_I_20M, abs=0.015)

    def test_deterministic_for_fixed_seed(self):
        a = synth.colored_gaussian_series(PHASE_DIP, FS, 2 ** 14, seed=42).array()
        b = synth.colored_gaussian_series(PHASE_DIP, FS, 2 ** 14, seed=42).array()
        assert np.array_equal(a, b)

    def test_distinct_sources_get_distinct_streams(self):
        a = synth.colored_gaussian_series(np.ones_like, FS, 2 ** 14, seed=42, source="a")
        b = synth.colored_gaussian_series(np.ones_like, FS, 2 ** 14, seed=42, source="b")
        assert not np.array_equal(a.array(), b.array())

    def test_output_is_real_and_zero_mean(self):
        series = synth.colored_gaussian_series(AMPLITUDE_DIP, FS, 2 ** 16, seed=1).array()
        assert series.dtype == float
        assert abs(np.mean(series)) < 0.05

    def test_peak_memory_is_flat_in_the_length(self):
        # the normals are drawn and filtered segment by segment as the
        # blocks are read, so a 4x longer series peaks no higher
        def peak(n):
            tracemalloc.start()
            try:
                for _ in synth.colored_gaussian_series(AMPLITUDE_DIP, FS, n, seed=7).blocks():
                    pass
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(2 ** 14)  # the first transform of a size fills numpy's caches
        assert abs(peak(2 ** 20) - peak(2 ** 18)) <= 8 * synth._BLOCK_SAMPLES

    def test_block_size_moves_no_bit(self, monkeypatch):
        whole = synth.colored_gaussian_series(PHASE_DIP, FS, 2 ** 17, seed=4).array()
        monkeypatch.setattr(synth, "_BLOCK_SAMPLES", 1000)
        blocked = synth.colored_gaussian_series(PHASE_DIP, FS, 2 ** 17, seed=4).array()
        assert whole.tobytes() == blocked.tobytes()

    def test_overlap_save_equals_direct_convolution(self):
        # several FFT segments and a short last one, against np.convolve on
        # the same (seed, source) stream of normals
        n = 2 ** 17
        kernel = synth.shaping_kernel(AMPLITUDE_DIP, FS)
        normals = synth._substream(5, "colored").standard_normal(n + kernel.size - 1)
        series = synth.colored_gaussian_series(AMPLITUDE_DIP, FS, n, seed=5).array()
        np.testing.assert_allclose(series, np.convolve(normals, kernel, "valid"),
                                   rtol=0, atol=1e-12)

    def test_kernel_is_short_and_zero_phase(self):
        amplitude = synth.shaping_kernel(AMPLITUDE_DIP, FS)
        assert amplitude.size % 2 == 1 and amplitude.size <= 256
        np.testing.assert_allclose(amplitude, amplitude[::-1], atol=1e-15)
        # its response squared is the psd: to 1e-5 below 0.8 Nyquist, and to
        # 1e-3 at Nyquist, where sqrt(psd) repeated past fs/2 has a kink
        freqs = np.linspace(0, FS / 2, 2001)
        lags = np.arange(amplitude.size) - amplitude.size // 2
        response = np.cos(2 * np.pi * np.outer(freqs / FS, lags)) @ amplitude
        error = np.abs(response ** 2 / AMPLITUDE_DIP(freqs) - 1)
        assert error[freqs <= 0.4 * FS].max() < 1e-5
        assert error.max() < 1e-3
        assert synth.shaping_kernel(np.ones_like, FS).tolist() == [1.0]

    def test_zero_psd_gives_zeros(self):
        series = synth.colored_gaussian_series(np.zeros_like, FS, 2 ** 14, seed=2)
        assert not np.any(series.array())

    def test_step_psd_is_refused(self):
        # a brick-wall PSD has a sinc kernel that never decays enough
        step = lambda f: np.where(f < 1e7, 1.0, 0.5)
        with pytest.raises(DomainError, match="taps"):
            synth.colored_gaussian_series(step, FS, 2 ** 14, seed=0)

    def test_nonpositive_psd_rejected(self):
        with pytest.raises(DomainError):
            synth.colored_gaussian_series(lambda f: 1.0 - f / 1e7, FS, 2 ** 14, seed=0)

    @pytest.mark.parametrize("num_samples", [0, -3000])
    def test_nonpositive_length_rejected(self, num_samples):
        with pytest.raises(DomainError, match="num_samples must be positive"):
            synth.colored_gaussian_series(np.ones_like, FS, num_samples, seed=0)


class TestSynthesizeTwinBeams:
    """The two quadrature combinations, shaped from the model spectra."""

    @staticmethod
    def combinations(params, n, seed):
        return {source: synth.colored_gaussian_series(
                    lambda f: spectrum(params, f), FS, n, seed, source=source).array()
                for source, spectrum in (("xminus", model.intensity_diff_spectrum),
                                         ("yplus", model.phase_sum_spectrum))}

    def test_squeezed_combinations_hit_targets(self):
        combinations = self.combinations(REF_PARAMS, 2 ** 22, seed=2)
        assert psd_at(estimate(combinations["xminus"]), 20e6) == pytest.approx(S_I_20M, abs=0.015)
        assert psd_at(estimate(combinations["yplus"]), 20e6) == pytest.approx(S_P_20M, abs=0.015)

    def test_uncorrelated_limit_is_vacuum(self):
        params = model.NopoParams.from_derived(1e-6, 1e4, 24.7e6, 1e-6)
        for series in self.combinations(params, 2 ** 20, seed=5).values():
            assert psd_at(estimate(series), 20e6) == pytest.approx(1.0, abs=0.05)

    def test_combinations_independent(self):
        combinations = self.combinations(REF_PARAMS, 2 ** 20, seed=9)
        assert abs(np.corrcoef(combinations["xminus"], combinations["yplus"])[0, 1]) < 0.01

    def test_undersampled_bandwidth_warns_at_the_call(self):
        # trace_channels checks at once, and the warning names the caller's
        # line, not pipeline.py
        cfg = run_config(synth={"sample_rate_hz": 4e6},
                         interferometer={"analysis_frequency_hz": 1e6})
        with pytest.warns(UserWarning, match="Nyquist") as record:
            pipeline.trace_channels(cfg)
        assert [w.filename for w in record] == [__file__]


class TestMzMeasure:
    """The measured channels: each chain's PSD, shaped as trace_channels shapes it."""

    def test_transparent_chain_passes_quadrature_through(self):
        cfg = run_config(n=2 ** 20, seed=9, enl=1e-9,
                         phase={"mode_match": 1.0, "excess_noise": 0.0})
        signal = channels(cfg)["phase_signal"]
        assert psd_at(estimate(signal), 20e6) == pytest.approx(S_P_20M, abs=0.04)

    def test_reference_phase_chain_reading(self):
        # (0.90 * S_P + 0.10 + 0.04) through the electronics floor: -0.606 dB
        cfg = run_config(n=2 ** 21, seed=9, enl=0.4074,
                         phase={"mode_match": 0.90, "excess_noise": 0.04})
        reading = pipeline.readings(channels(cfg), FS, cfg)["phase_db"]
        expected = 10 * math.log10(
            (0.90 * S_P_20M + 0.10 + 0.04) * (1 - 0.4074) + 0.4074)
        assert reading == pytest.approx(expected, abs=0.3)
        assert reading == pytest.approx(-0.60, abs=0.3)  # measured raw phase dip

    def test_amplitude_chain_reading(self):
        cfg = run_config(n=2 ** 21, seed=9, enl=0.4074,
                         amplitude={"mode_match": 1.0, "excess_noise": 0.0})
        reading = pipeline.readings(channels(cfg), FS, cfg)["amplitude_db"]
        assert reading == pytest.approx(-1.334, abs=0.3)

    def test_snl_channel_is_unity(self):
        snl = channels(run_config(n=2 ** 20, seed=3, enl=0.4074))["snl"]
        assert psd_at(estimate(snl), 20e6) == pytest.approx(1.0, abs=0.05)

    def test_deterministic(self):
        cfg = run_config(seed=77, enl=0.3, phase={"mode_match": 0.9, "excess_noise": 0.02})
        first, second = channels(cfg), channels(cfg)
        for name in pipeline.TRACE_CHANNELS:
            assert np.array_equal(first[name], second[name])


def _write_trace(series):
    with tempfile.TemporaryDirectory() as tmp:
        try:
            fileio.write_trace(os.path.join(tmp, "t.twbm"), FS, {"ch": series})
        except RuntimeError:
            assert os.listdir(tmp) == []  # no trace, nor its temp file
            raise


# every reader of a BlockSeries, each taking its blocks once
STREAM_CONSUMERS = {
    "iteration": lambda series: list(series.blocks()),
    "array": synth.BlockSeries.array,
    "welch-full-grid": lambda series: welch_psd(series, FS, SETTINGS),
    "welch-f0": lambda series: welch_psd(series, FS, SETTINGS, 20e6),
    "write-trace": _write_trace,
}


class TestBlockSeries:
    def test_blocks_join_into_the_array(self):
        series = np.arange(2 ** 16 + 123, dtype=float)

        def stream():
            return synth.BlockSeries(len(series), iter(np.split(series, [2 ** 16, 2 ** 16 + 7])))

        blocks = list(stream().blocks())
        assert [len(b) for b in blocks] == [2 ** 16, 7, 116]
        np.testing.assert_array_equal(np.concatenate(blocks), series)
        once = stream()
        np.testing.assert_array_equal(once.array(), series)
        with pytest.raises(RuntimeError, match="already read"):
            once.array()

    @pytest.mark.parametrize("stream", ["one-more", "one-fewer", "second-read"])
    @pytest.mark.parametrize("consumer", STREAM_CONSUMERS)
    def test_stream_of_another_length_is_refused(self, consumer, stream):
        # blocks() checks the count for every consumer; a second read finds none
        n = 2 ** 14
        extra = {"one-more": 1, "one-fewer": -1, "second-read": 0}[stream]
        samples = np.random.default_rng(7).standard_normal(n + extra)
        series = synth.BlockSeries(n, iter(np.array_split(samples, 5)))
        if stream == "second-read":
            STREAM_CONSUMERS[consumer](series)
        with pytest.raises(RuntimeError, match=f"its {n} samples"):
            STREAM_CONSUMERS[consumer](series)

    @pytest.mark.parametrize("mode", ["amplitude", "phase"])
    def test_chain_block_size_moves_no_bit(self, monkeypatch, mode):
        cfg = run_config(n=2 ** 17, seed=6, enl=0.3)
        names = ("amp_signal" if mode == "amplitude" else "phase_signal", "snl", "enl")

        def measure():
            traces = channels(cfg)
            return [traces[name].tobytes() for name in names]

        whole = measure()
        monkeypatch.setattr(synth, "_BLOCK_SAMPLES", 999)
        assert measure() == whole

    def test_chain_equals_the_whole_series_arithmetic(self, tmp_path):
        # every channel `twinbeam synth` writes is its chain kernel convolved
        # with its whole stream of normals, rounded to float32
        cfg = run_config()
        config, trace = tmp_path / "chain.json", tmp_path / "chain.twbm"
        config.write_text(json.dumps(CHAIN_DOC))
        assert main(["synth", "--config", str(config), "--out", str(trace)]) == 0
        _, written = fileio.read_trace(trace)
        assert list(written) == list(pipeline.TRACE_CHANNELS)

        n, seed = cfg.synth.num_samples, cfg.synth.seed
        for name, psd in pipeline.channel_psds(cfg).items():
            kernel = synth.shaping_kernel(psd, FS)
            normals = synth._substream(seed, name).standard_normal(n + kernel.size - 1)
            expected = np.convolve(normals, kernel, "valid")
            np.testing.assert_allclose(written[name].array(), expected, rtol=2 ** -23, atol=1e-12,
                                       err_msg=name)


class TestSynthConfigValidation:
    @pytest.mark.parametrize("num_samples", [0, -3000])
    def test_positive_length_required(self, num_samples):
        with pytest.raises(DomainError, match="num_samples must be positive"):
            synth.SynthConfig(sample_rate=FS, num_samples=num_samples, seed=0)
