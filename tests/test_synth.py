import json
import math
import tracemalloc

import numpy as np
import pytest

from twinbeam import fileio, model, synth
from twinbeam.cli import main
from twinbeam.config import parse_config
from twinbeam.dsp import AnalyzerSettings, band_power_rel_snl, welch_psd
from twinbeam.errors import ConfigurationError, DomainError

FS = 1e8
SETTINGS = AnalyzerSettings(rbw=150e3, vbw=2.0)
REF_PARAMS = model.NopoParams.from_derived(0.84, 1.38, 24.7e6, 0.88)
S_I_20M = model.intensity_diff_spectrum(REF_PARAMS, 20e6)   # 0.55353
S_P_20M = model.phase_sum_spectrum(REF_PARAMS, 20e6)        # 0.71125


def psd_at(estimate, f0):
    return estimate.psd[np.argmin(np.abs(estimate.frequencies - f0))]


def estimate(series, settings=SETTINGS):
    return welch_psd(series, FS, settings)


class TestColoredGaussianSeries:
    def test_white_identity(self):
        series = synth.colored_gaussian_series(np.ones_like, FS, 2 ** 20, seed=3)
        est = estimate(series)
        assert est.num_averages >= 200
        # flat within 0.2 dB on 1-MHz sub-band averages across (1, 40) MHz
        for lo in np.arange(1e6, 40e6, 1e6):
            band = (est.frequencies >= lo) & (est.frequencies < lo + 1e6)
            assert abs(10 * math.log10(np.mean(est.psd[band]))) < 0.2

    def test_matches_amplitude_dip_target(self):
        psd = lambda f: model.intensity_diff_psd(f, 0.88 * 0.84, 24.7e6)
        series = synth.colored_gaussian_series(psd, FS, 2 ** 22, seed=7)
        assert psd_at(estimate(series), 20e6) == pytest.approx(S_I_20M, abs=0.015)

    def test_deterministic_for_fixed_seed(self):
        a = synth.colored_gaussian_series(np.ones_like, FS, 2 ** 14, seed=42)
        b = synth.colored_gaussian_series(np.ones_like, FS, 2 ** 14, seed=42)
        assert np.array_equal(a, b)

    def test_distinct_sources_get_distinct_streams(self):
        a = synth.colored_gaussian_series(np.ones_like, FS, 2 ** 14, seed=42, source="a")
        b = synth.colored_gaussian_series(np.ones_like, FS, 2 ** 14, seed=42, source="b")
        assert not np.array_equal(a, b)

    def test_output_is_real_and_zero_mean(self):
        series = synth.colored_gaussian_series(np.ones_like, FS, 2 ** 16, seed=1)
        assert series.dtype == float
        assert abs(np.mean(series)) < 0.05

    def test_peak_memory_is_spectrum_output_and_one_grid_array(self):
        # the normals go straight into the complex spectrum, block by block
        n = 2 ** 20
        size = n // 2 + 1
        budget = 1.25 * (16 * size + 8 * n + 8 * size)
        psd = lambda f: model.intensity_diff_psd(f, 0.88 * 0.84, 24.7e6)
        tracemalloc.start()
        try:
            synth.colored_gaussian_series(psd, FS, n, seed=7)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < budget

    def test_block_size_moves_no_bit(self, monkeypatch):
        psd = lambda f: model.phase_sum_psd(f, 0.88 * 0.84, 24.7e6, 1.38)
        whole = synth.colored_gaussian_series(psd, FS, 2 ** 17, seed=4)
        monkeypatch.setattr(synth, "_BLOCK_SAMPLES", 1000)
        blocked = synth.colored_gaussian_series(psd, FS, 2 ** 17, seed=4)
        assert whole.tobytes() == blocked.tobytes()

    def test_nonpositive_psd_rejected(self):
        with pytest.raises(DomainError):
            synth.colored_gaussian_series(lambda f: 1.0 - f / 1e7, FS, 2 ** 14, seed=0)

    def test_non_power_of_two_rejected(self):
        with pytest.raises(DomainError):
            synth.colored_gaussian_series(np.ones_like, FS, 3000, seed=0)


class TestSynthesizeTwinBeams:
    """The two combinations the chain reads, as measured_combinations shapes them."""

    def test_squeezed_combinations_hit_targets(self):
        cfg = synth.SynthConfig(sample_rate=FS, num_samples=2 ** 22, seed=2)
        combinations = dict(synth.measured_combinations(REF_PARAMS, cfg))
        assert psd_at(estimate(combinations["xminus"]), 20e6) == pytest.approx(S_I_20M, abs=0.015)
        assert psd_at(estimate(combinations["yplus"]), 20e6) == pytest.approx(S_P_20M, abs=0.015)

    def test_uncorrelated_limit_is_vacuum(self):
        params = model.NopoParams.from_derived(1e-6, 1e4, 24.7e6, 1e-6)
        cfg = synth.SynthConfig(sample_rate=FS, num_samples=2 ** 20, seed=5)
        for _, series in synth.measured_combinations(params, cfg):
            assert psd_at(estimate(series), 20e6) == pytest.approx(1.0, abs=0.05)

    def test_combinations_independent(self):
        cfg = synth.SynthConfig(sample_rate=FS, num_samples=2 ** 20, seed=9)
        combinations = dict(synth.measured_combinations(REF_PARAMS, cfg))
        assert abs(np.corrcoef(combinations["xminus"], combinations["yplus"])[0, 1]) < 0.01

    def test_undersampled_bandwidth_warns_at_the_call(self):
        # the check runs when measured_combinations is called, before any
        # shaping, and the warning names the caller's line, not synth.py
        cfg = synth.SynthConfig(sample_rate=4e6, num_samples=2 ** 16, seed=1)
        with pytest.warns(UserWarning, match="Nyquist") as record:
            synth.measured_combinations(REF_PARAMS, cfg)
        assert [w.filename for w in record] == [__file__]


class TestMzMeasure:
    ifc = model.InterferometerConfig.matched(20e6)

    def traces(self, n=2 ** 21, seed=9):
        cfg = synth.SynthConfig(sample_rate=FS, num_samples=n, seed=seed)
        return dict(synth.measured_combinations(REF_PARAMS, cfg))

    def signal(self, traces, mode, chain, seed, ifc=None):
        series = traces["xminus" if mode == "amplitude" else "yplus"]
        return synth.mz_signal(synth.BlockSeries.of(series), mode, ifc or self.ifc,
                               chain, seed).array()

    def reference(self, traces, mode, chain, seed):
        return synth.mz_reference(len(traces["xminus"]), mode, chain, seed).array()

    def test_transparent_chain_passes_quadrature_through(self):
        traces = self.traces(n=2 ** 20)
        chain = synth.DetectionChain(mode_match=1.0, enl=1e-9)
        signal = self.signal(traces, "phase", chain, seed=9)
        assert psd_at(estimate(signal), 20e6) == pytest.approx(S_P_20M, abs=0.04)

    def test_reference_phase_chain_reading(self):
        # (0.90 * S_P + 0.10 + 0.04) through the electronics floor: -0.606 dB
        traces = self.traces()
        chain = synth.DetectionChain(mode_match=0.90, enl=0.4074, excess_noise=0.04)
        reading = band_power_rel_snl(
            estimate(self.signal(traces, "phase", chain, seed=9)),
            estimate(self.reference(traces, "phase", chain, seed=9)), 20e6)
        expected = 10 * math.log10(
            (0.90 * S_P_20M + 0.10 + 0.04) * (1 - 0.4074) + 0.4074)
        assert reading == pytest.approx(expected, abs=0.3)
        assert reading == pytest.approx(-0.60, abs=0.3)  # measured raw phase dip

    def test_amplitude_chain_reading(self):
        traces = self.traces()
        chain = synth.DetectionChain(enl=0.4074)
        reading = band_power_rel_snl(
            estimate(self.signal(traces, "amplitude", chain, seed=9)),
            estimate(self.reference(traces, "amplitude", chain, seed=9)), 20e6)
        assert reading == pytest.approx(-1.334, abs=0.3)

    def test_snl_channel_is_unity(self):
        traces = self.traces(n=2 ** 20)
        chain = synth.DetectionChain(mode_match=0.9, enl=0.4074)
        snl = self.reference(traces, "amplitude", chain, seed=3)
        assert psd_at(estimate(snl), 20e6) == pytest.approx(1.0, abs=0.05)

    def test_out_of_tolerance_interferometer_rejected(self):
        traces = self.traces(n=2 ** 16)
        bad = model.InterferometerConfig(analysis_frequency=20e6, arm_length_difference=8.0)
        with pytest.raises(ConfigurationError, match="theta"):
            self.signal(traces, "phase", synth.DetectionChain(), seed=0, ifc=bad)

    def test_unknown_mode_rejected(self):
        with pytest.raises(DomainError):
            self.signal(self.traces(n=2 ** 16), "both", synth.DetectionChain(), seed=0)

    def test_deterministic(self):
        traces = self.traces(n=2 ** 16)
        chain = synth.DetectionChain(mode_match=0.9, enl=0.3, excess_noise=0.02)
        for measure in (self.signal, self.reference):
            a = measure(traces, "phase", chain, seed=77)
            b = measure(traces, "phase", chain, seed=77)
            assert np.array_equal(a, b)


class TestBlockSeries:
    ifc = model.InterferometerConfig.matched(20e6)

    def test_blocks_join_into_the_array(self):
        series = np.arange(2 ** 16 + 123, dtype=float)
        stream = synth.BlockSeries.of(series)
        blocks = list(stream.blocks())
        assert [len(b) for b in blocks] == [2 ** 16, 123]
        np.testing.assert_array_equal(np.concatenate(blocks), series)
        np.testing.assert_array_equal(synth.BlockSeries.of(series).array(), series)

    @pytest.mark.parametrize("mode", ["amplitude", "phase"])
    def test_chain_block_size_moves_no_bit(self, monkeypatch, mode):
        n = 2 ** 17
        cfg = synth.SynthConfig(sample_rate=FS, num_samples=n, seed=6)
        combinations = dict(synth.measured_combinations(REF_PARAMS, cfg))
        series = combinations["xminus" if mode == "amplitude" else "yplus"]
        chain = synth.DetectionChain(mode_match=0.8, enl=0.3, excess_noise=0.04)

        def measure():
            signal = synth.mz_signal(synth.BlockSeries.of(series), mode, self.ifc, chain, seed=6)
            return [signal.array().tobytes(),
                    synth.mz_reference(n, mode, chain, seed=6).array().tobytes(),
                    synth.electronics_floor(0.3, n, seed=6).array().tobytes()]

        whole = measure()
        monkeypatch.setattr(synth, "_BLOCK_SAMPLES", 999)
        assert measure() == whole

    def test_chain_equals_the_whole_series_arithmetic(self, tmp_path):
        # every channel `twinbeam synth` writes is the chain applied to whole
        # series, as it was before it ran in blocks, rounded to float32
        n, seed, mu, enl = 2 ** 16, 8, 0.8, 0.4
        excess = {"amplitude": 0.3, "phase": 0.04}
        doc = {
            "version": "twinbeam-config/2",
            "nopo": {"transmission": 0.84, "intracavity_loss": 0.16,
                     "cavity_bandwidth_hz": 24.7e6, "pump_power": 1.9044,
                     "threshold_power": 1.0, "detection_efficiency": 0.88},
            "synth": {"sample_rate_hz": FS, "num_samples": n, "seed": seed},
            "chain": {"enl": enl,
                      **{mode: {"mode_match": mu, "excess_noise": excess[mode]}
                         for mode in excess}},
            "analyzer": {"rbw_hz": 150e3, "vbw_hz": 2.0},
            "interferometer": {"analysis_frequency_hz": 20e6},
        }
        config, trace = tmp_path / "chain.json", tmp_path / "chain.twbm"
        config.write_text(json.dumps(doc))
        assert main(["synth", "--config", str(config), "--out", str(trace)]) == 0
        _, channels = fileio.read_trace(trace)

        cfg = parse_config(doc)
        params = cfg.nopo
        product = params.detection_efficiency * params.output_coupling
        combinations = {
            "amplitude": synth.colored_gaussian_series(
                lambda f: model.intensity_diff_psd(f, product, params.cavity_bandwidth),
                FS, n, seed, source="xminus"),
            "phase": synth.colored_gaussian_series(
                lambda f: model.phase_sum_psd(f, product, params.cavity_bandwidth,
                                              params.pump_ratio),
                FS, n, seed, source="yplus"),
        }

        def white(scale, source):
            return scale * synth._substream(seed, source).standard_normal(n)

        expected = {}
        sensitivity = math.sin(cfg.interferometer.rf_sideband_phase / 2.0)
        for mode, name in (("amplitude", "amp_signal"), ("phase", "phase_signal")):
            signal = sensitivity * combinations[mode]
            signal = math.sqrt(mu) * signal + white(math.sqrt(1 - mu), f"{mode}:mode_match_vacuum")
            signal = signal + white(math.sqrt(excess[mode]), f"{mode}:excess_noise")
            expected[name] = (math.sqrt(1 - enl) * signal
                              + white(math.sqrt(enl), f"{mode}:electronics_signal"))
        expected["snl"] = (white(math.sqrt(1 - enl), "amplitude:snl_vacuum")
                           + white(math.sqrt(enl), "amplitude:electronics_reference"))
        expected["enl"] = white(math.sqrt(enl), "enl")
        assert list(channels) == list(expected)
        for name, series in expected.items():
            assert channels[name].tobytes() == series.astype(np.float32).tobytes(), name


class TestSynthConfigValidation:
    def test_power_of_two_required(self):
        with pytest.raises(DomainError):
            synth.SynthConfig(sample_rate=FS, num_samples=3000, seed=0)

