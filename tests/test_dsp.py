import math
import tracemalloc

import numpy as np
import pytest

from twinbeam import dsp, model, synth
from twinbeam.errors import DomainError, InsufficientDataError

FS = 1e8
SETTINGS = dsp.AnalyzerSettings(rbw=150e3, vbw=2.0)
NARROW_SETTINGS = dsp.AnalyzerSettings(rbw=10e3, vbw=30.0)


def psd_at(estimate, f0):
    return estimate.psd[np.argmin(np.abs(estimate.frequencies - f0))]


def reference_welch(series, sample_rate, settings):
    """The per-segment video-filter recursion welch_psd's weighted sum replaces:
    every periodogram held at once, then accum = decay * accum + p per segment."""
    series = np.asarray(series, dtype=float)
    length = dsp.segment_length(sample_rate, settings)
    hop = max(1, length // 2)
    win = np.hanning(length) if settings.window == "hann" else np.ones(length)
    segments = np.lib.stride_tricks.sliding_window_view(series, length)[::hop]
    spectra = np.fft.rfft(segments * win, axis=1)
    periodograms = (spectra.real ** 2 + spectra.imag ** 2) / np.sum(win ** 2)
    periodograms[:, 0] *= 0.5
    if length % 2 == 0:  # the last bin is the Nyquist bin only for even lengths
        periodograms[:, -1] *= 0.5
    dt = hop / sample_rate
    tau = 1.0 / (2.0 * math.pi * settings.vbw)
    decay = tau / (tau + dt)
    accum = np.zeros(periodograms.shape[1])
    norm = 0.0
    for p in periodograms:
        accum = decay * accum + p
        norm = decay * norm + 1.0
    num_segments = periodograms.shape[0]
    if decay < 1.0:
        sum_w = (1.0 - decay ** num_segments) / (1.0 - decay)
        sum_w2 = (1.0 - decay ** (2 * num_segments)) / (1.0 - decay ** 2)
    else:
        sum_w, sum_w2 = num_segments, num_segments
    freqs = np.fft.rfftfreq(length, 1.0 / sample_rate)
    psd = accum / norm
    if settings.span is not None:
        lo = settings.center_frequency - settings.span / 2.0
        hi = settings.center_frequency + settings.span / 2.0
        keep = (freqs >= lo) & (freqs <= hi)
        freqs, psd = freqs[keep], psd[keep]
    return freqs, psd, max(1, int(round(sum_w ** 2 / sum_w2)))


class TestAnalyzerSettings:
    def test_vbw_above_rbw_rejected(self):
        with pytest.raises(DomainError):
            dsp.AnalyzerSettings(rbw=10e3, vbw=20e3)

    def test_unknown_window_rejected(self):
        with pytest.raises(DomainError):
            dsp.AnalyzerSettings(rbw=10e3, vbw=30.0, window="flattop")

    def test_span_requires_center(self):
        with pytest.raises(DomainError):
            dsp.AnalyzerSettings(rbw=10e3, vbw=30.0, span=1e6)


class TestWelchPsd:
    def test_white_calibration(self):
        series = np.random.default_rng(3).standard_normal(2 ** 21)
        est = dsp.welch_psd(series, FS, SETTINGS)
        assert est.num_averages >= 200
        for lo in np.arange(1e6, 40e6, 1e6):
            band = (est.frequencies >= lo) & (est.frequencies < lo + 1e6)
            assert abs(10 * math.log10(np.mean(est.psd[band]))) < 0.2

    def test_matches_analytic_dip(self):
        psd = lambda f: model.intensity_diff_psd(f, 0.88 * 0.84, 24.7e6)
        series = synth.colored_gaussian_series(psd, FS, 2 ** 22, seed=7)
        assert psd_at(dsp.welch_psd(series, FS, SETTINGS), 20e6) == pytest.approx(
            0.5535, abs=0.015)

    def test_tone_power_closed_form(self):
        # Hann-window peak bin of an on-grid tone: A^2 L / 6 above unit floor.
        amplitude, f0 = 0.5, 20e6
        length = dsp.segment_length(FS, SETTINGS)
        t = np.arange(2 ** 21) / FS
        series = (np.random.default_rng(15).standard_normal(2 ** 21)
                  + amplitude * np.cos(2 * np.pi * f0 * t))
        est = dsp.welch_psd(series, FS, SETTINGS)
        expected = amplitude ** 2 * length / 6.0 + 1.0
        reading_db = 10 * math.log10(psd_at(est, f0) / expected)
        assert abs(reading_db) < 0.3

    def test_parseval(self):
        series = synth.colored_gaussian_series(
            lambda f: model.intensity_diff_psd(f, 0.7, 20e6), FS, 2 ** 21, seed=8)
        est = dsp.welch_psd(series, FS, SETTINGS)
        assert est.num_averages >= 100
        assert np.mean(est.psd) == pytest.approx(np.var(series), rel=0.01)

    def test_rbw_halving_doubles_segment_length(self):
        base = dsp.segment_length(FS, NARROW_SETTINGS)
        halved = dsp.segment_length(FS, dsp.AnalyzerSettings(rbw=5e3, vbw=30.0))
        assert halved == 2 * base

    def test_narrow_rbw_segment_length(self):
        # 10 kHz RBW with a Hann window (ENBW 1.5 bins) at 100 MHz sampling
        assert dsp.segment_length(FS, NARROW_SETTINGS) == 15000

    def test_insufficient_data_reports_required_length(self):
        with pytest.raises(InsufficientDataError) as err:
            dsp.welch_psd(np.zeros(2 ** 10), FS, NARROW_SETTINGS)
        assert err.value.required_length == 22500

    def test_span_crops_grid(self):
        settings = dsp.AnalyzerSettings(rbw=150e3, vbw=2.0,
                                        center_frequency=20e6, span=10e6)
        series = np.random.default_rng(0).standard_normal(2 ** 18)
        est = dsp.welch_psd(series, FS, settings)
        assert est.frequencies.min() >= 15e6
        assert est.frequencies.max() <= 25e6

    @pytest.mark.parametrize("window", ["hann", "rectangular"])
    @pytest.mark.parametrize("rbw, vbw, span", [
        (150e3, 2.0, None),
        (150e3, 3e3, None),
        (150e3, 150e3, None),        # decay^K underflows: most weights are 0
        (1.5e6, 40.0, None),         # many segments per block
        (15e3, 2.0, (20e6, 10e6)),   # few segments per block, cropped span
        (7e3, 500.0, None),          # odd segment length, blocks of 3
    ])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_reference_recursion(self, window, rbw, vbw, span, dtype):
        center, width = span if span else (None, None)
        settings = dsp.AnalyzerSettings(rbw=rbw, vbw=vbw, window=window,
                                        center_frequency=center, span=width)
        # not a whole number of segments, nor of blocks
        series = np.random.default_rng(4).standard_normal(2 ** 18 + 1234).astype(dtype)
        est = dsp.welch_psd(series, FS, settings)
        freqs, psd, num_averages = reference_welch(series, FS, settings)
        np.testing.assert_array_equal(est.frequencies, freqs)
        np.testing.assert_allclose(est.psd, psd, rtol=1e-12, atol=0)
        assert est.num_averages == num_averages

    def test_zero_weight_blocks_are_not_transformed(self, monkeypatch):
        # At VBW = RBW the video filter's weights underflow to exactly 0.0 for
        # all but the last few hundred segments; those add exactly 0, so only
        # the blocks from the first nonzero weight on are transformed.
        settings = dsp.AnalyzerSettings(rbw=150e3, vbw=150e3)
        series = np.random.default_rng(9).standard_normal(2 ** 20)
        transformed = []
        rfft = np.fft.rfft

        def counting_rfft(a, *args, **kwargs):
            transformed.append(len(a))
            return rfft(a, *args, **kwargs)

        monkeypatch.setattr(dsp.np.fft, "rfft", counting_rfft)
        est = dsp.welch_psd(series, FS, settings)
        monkeypatch.undo()
        length = dsp.segment_length(FS, settings)
        num_segments = (len(series) - length) // (length // 2) + 1
        block = dsp._BLOCK_SAMPLES // length
        # 428 of the 2096 weights are nonzero; one partial block may precede them
        assert 0 < sum(transformed) < block + 428 < num_segments
        freqs, psd, num_averages = reference_welch(series, FS, settings)
        np.testing.assert_array_equal(est.frequencies, freqs)
        np.testing.assert_allclose(est.psd, psd, rtol=1e-12, atol=0)
        assert est.num_averages == num_averages

    def test_odd_length_top_bin_is_not_halved(self):
        # 7 kHz RBW gives L = 21429: the last rfft bin is an ordinary bin,
        # not the Nyquist bin, so white noise reads 1 there as everywhere
        settings = dsp.AnalyzerSettings(rbw=7e3, vbw=2.0)
        length = dsp.segment_length(FS, settings)
        assert length == 21429
        series = np.random.default_rng(10).standard_normal(2 ** 22)
        est = dsp.welch_psd(series, FS, settings)
        # 381 averages: one bin reads 1 within about 0.05 (1 sigma); halved, 0.5
        assert est.num_averages > 300
        assert est.psd[-1] == pytest.approx(1.0, abs=0.25)
        assert np.mean(est.psd[-50:]) == pytest.approx(1.0, abs=0.05)

    def test_float32_input_is_not_copied_whole(self):
        # 2^22 float32 samples are 16 MiB; today's blocks need well under 1 MiB,
        # where all segments at once took about 128 MiB
        series = np.random.default_rng(5).standard_normal(2 ** 22).astype(np.float32)
        tracemalloc.start()
        try:
            dsp.welch_psd(series, FS, SETTINGS)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20

    def test_vbw_controls_effective_averaging(self):
        series = np.random.default_rng(1).standard_normal(2 ** 20)
        slow = dsp.welch_psd(series, FS, dsp.AnalyzerSettings(rbw=150e3, vbw=2.0))
        fast = dsp.welch_psd(series, FS, dsp.AnalyzerSettings(rbw=150e3, vbw=100e3))
        assert slow.num_averages > 10 * fast.num_averages


class TestBandPowerRelSnl:
    def estimates(self):
        rng = np.random.default_rng(6)
        meas = dsp.welch_psd(rng.standard_normal(2 ** 19), FS, SETTINGS)
        ref = dsp.welch_psd(rng.standard_normal(2 ** 19), FS, SETTINGS)
        return meas, ref

    def test_self_reference_is_zero(self):
        meas, _ = self.estimates()
        for f0 in (5e6, 20e6, 37e6):
            assert dsp.band_power_rel_snl(meas, meas, f0) == 0.0

    def test_reads_known_ratio(self):
        # amplitude chain with the reference electronics floor: -1.33 dB
        psd = lambda f: model.with_electronic_noise(
            model.intensity_diff_psd(f, 0.88 * 0.84, 24.7e6), 0.4074)
        meas = dsp.welch_psd(
            synth.colored_gaussian_series(psd, FS, 2 ** 22, seed=30), FS, SETTINGS)
        ref = dsp.welch_psd(
            synth.colored_gaussian_series(np.ones_like, FS, 2 ** 22, seed=31), FS, SETTINGS)
        assert dsp.band_power_rel_snl(meas, ref, 20e6) == pytest.approx(-1.33, abs=0.2)

    def test_zero_measured_power_is_domain_error(self):
        _, ref = self.estimates()
        silent = dsp.welch_psd(np.zeros(2 ** 19), FS, SETTINGS)
        with pytest.raises(DomainError, match="measured power is zero"):
            dsp.band_power_rel_snl(silent, ref, 20e6)

    def test_grid_mismatch_rejected(self):
        meas, _ = self.estimates()
        other = dsp.welch_psd(np.random.default_rng(2).standard_normal(2 ** 19),
                              FS, dsp.AnalyzerSettings(rbw=300e3, vbw=2.0))
        with pytest.raises(DomainError):
            dsp.band_power_rel_snl(meas, other, 20e6)

    def test_off_grid_frequency_warns(self):
        meas, ref = self.estimates()
        with pytest.warns(UserWarning, match="nearest bin"):
            dsp.band_power_rel_snl(meas, ref, 51e6)  # past the grid edge at Nyquist


class TestSpectrumEstimateInvariants:
    def test_grid_must_increase(self):
        with pytest.raises(DomainError):
            dsp.SpectrumEstimate(frequencies=np.array([1.0, 1.0]),
                                 psd=np.array([1.0, 1.0]),
                                 num_averages=1, settings=SETTINGS)

    def test_negative_psd_rejected(self):
        with pytest.raises(DomainError):
            dsp.SpectrumEstimate(frequencies=np.array([1.0, 2.0]),
                                 psd=np.array([1.0, -1.0]),
                                 num_averages=1, settings=SETTINGS)
