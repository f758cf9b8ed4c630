import math
import tracemalloc
import warnings

import numpy as np
import pytest

from twinbeam import dsp, model, synth
from twinbeam.errors import DomainError, InsufficientDataError
from twinbeam.series import BlockSeries

FS = 1e8
SETTINGS = dsp.AnalyzerSettings(rbw=150e3, vbw=2.0)
NARROW_SETTINGS = dsp.AnalyzerSettings(rbw=10e3, vbw=30.0)
# The "hann" and "rectangular" case ids of the Welch tests below keep the names
# they had when the window was a setting.  A "rectangular" case runs Hann at 1.5
# times the RBW: the segment length, hop and blocking that the rectangular
# window (ENBW 1 bin) had at the RBW itself.
RBW_SCALES = pytest.mark.parametrize("rbw_scale", [1.0, 1.5], ids=["hann", "rectangular"])


def psd_at(estimate, f0):
    return estimate.psd[np.argmin(np.abs(estimate.frequencies - f0))]


def reference_welch(series, sample_rate, settings):
    """The per-segment video-filter recursion welch_psd's weighted sum replaces:
    every periodogram held at once, then accum = decay * accum + p per segment."""
    series = np.asarray(series, dtype=float)
    length = dsp.segment_length(sample_rate, settings)
    hop = max(1, length // 2)
    win = np.hanning(length)
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
    return freqs, accum / norm, max(1, int(round(sum_w ** 2 / sum_w2)))


class TestAnalyzerSettings:
    def test_vbw_above_rbw_rejected(self):
        with pytest.raises(DomainError):
            dsp.AnalyzerSettings(rbw=10e3, vbw=20e3)

    @pytest.mark.parametrize("rbw", [FS * 1.5 / 15.9, 1e8, 3e8, 1e-300, 1e-320],
                             ids=["15.9-samples", "1.5-samples", "0.5-samples", "1.5e308-samples",
                                  "infinite"])
    def test_unusable_segment_length_rejected(self, rbw):
        with pytest.raises(DomainError, match=r"outside \[16, 2\^62\]"):
            dsp.segment_length(FS, dsp.AnalyzerSettings(rbw=rbw, vbw=rbw))

    def test_shortest_segment_realizes_the_rbw_within_10_percent(self):
        # np.hanning's symmetric window has an ENBW of 1.5 L/(L - 1) bins
        rbw = FS * 1.5 / 16.5  # rounds to L = 16: the widest bandwidth it realizes
        length = dsp.segment_length(FS, dsp.AnalyzerSettings(rbw=rbw, vbw=rbw))
        win = np.hanning(length)
        enbw_hz = length * np.sum(win ** 2) / np.sum(win) ** 2 * FS / length
        assert length == 16
        assert enbw_hz == pytest.approx(1.5 * FS / 15, rel=1e-12)
        assert enbw_hz / rbw == pytest.approx(1.1, rel=1e-12)
        assert dsp.segment_length(FS, dsp.AnalyzerSettings(rbw=FS * 1.5 / 16, vbw=1.0)) == 16

    def test_shortest_segment_reads_white_noise_at_unity(self):
        settings = dsp.AnalyzerSettings(rbw=FS * 1.5 / 16, vbw=1.0)
        series = np.random.default_rng(5).standard_normal(2 ** 16)
        estimate = dsp.welch_psd(series, FS, settings)
        assert len(estimate.frequencies) == 9
        assert np.mean(estimate.psd[1:-1]) == pytest.approx(1.0, abs=0.02)


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
        series = synth.colored_gaussian_series(psd, FS, 2 ** 22, seed=7).array()
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
            lambda f: model.intensity_diff_psd(f, 0.7, 20e6), FS, 2 ** 21, seed=8).array()
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

    @RBW_SCALES
    @pytest.mark.parametrize("rbw, vbw", [
        (150e3, 2.0),
        (150e3, 3e3),
        (150e3, 150e3),        # decay^K underflows: most weights are 0
        (1.5e6, 40.0),         # many segments per block
        (15e3, 2.0),           # few segments per block
        (7e3, 500.0),          # odd segment length, blocks of 3
        (150e3, 1e-13),        # decay rounds to 1.0: every weight is 1
    ], ids=["150000.0-2.0-None", "150000.0-3000.0-None", "150000.0-150000.0-None",
            "1500000.0-40.0-None", "15000.0-2.0-span4", "7000.0-500.0-None",
            "150000.0-1e-13-None"])  # the ids of the cases that once set a span
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_reference_recursion(self, rbw_scale, rbw, vbw, dtype):
        settings = dsp.AnalyzerSettings(rbw=rbw * rbw_scale, vbw=vbw)
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

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_zero_weight_groups_are_larger_than_the_last(self, dtype):
        # L = 100 gives 5239 segments in groups of 655, 428 weights nonzero: the
        # only group transformed holds 654 segments, the skipped groups 655
        settings = dsp.AnalyzerSettings(rbw=1.5e6, vbw=1.5e6)
        series = np.random.default_rng(15).standard_normal(262044).astype(dtype)
        length = dsp.segment_length(FS, settings)
        block = dsp._BLOCK_SAMPLES // length
        num_segments = (len(series) - length) // (length // 2) + 1
        assert (length, block, num_segments) == (100, 655, 5239)
        est = dsp.welch_psd(series, FS, settings)
        freqs, psd, num_averages = reference_welch(series, FS, settings)
        np.testing.assert_array_equal(est.frequencies, freqs)
        np.testing.assert_allclose(est.psd, psd, rtol=1e-12, atol=0)
        assert est.num_averages == num_averages
        pieces = (series[start:start + 999] for start in range(0, len(series), 999))
        streamed = dsp.welch_psd(BlockSeries(len(series), pieces), FS, settings)
        np.testing.assert_array_equal(streamed.psd, est.psd)

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

    @pytest.mark.parametrize("block", ["999", "under_a_segment", "one_hop", "2^16"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @RBW_SCALES
    # at VBW = RBW the leading groups all weigh exactly 0 and are not transformed
    @pytest.mark.parametrize("vbw", [2.0, 150e3], ids=["slow_vbw", "fast_vbw"])
    def test_streamed_series_is_bit_identical(self, block, dtype, rbw_scale, vbw):
        settings = dsp.AnalyzerSettings(rbw=150e3 * rbw_scale, vbw=vbw)
        length = dsp.segment_length(FS, settings)
        size = {"999": 999, "under_a_segment": 2 * length // 3, "one_hop": length // 2,
                "2^16": 2 ** 16}[block]
        series = np.random.default_rng(6).standard_normal(2 ** 18 + 1234).astype(dtype)
        taken = []

        def pieces():
            for start in range(0, len(series), size):
                taken.append(min(size, len(series) - start))
                yield series[start:start + size]

        # the whole grid, and the selected bins: DC, f0 and Nyquist
        for frequencies in (None, (0.0, 20e6, FS / 2)):
            taken.clear()
            whole = dsp.welch_psd(series, FS, settings, frequencies)
            streamed = dsp.welch_psd(BlockSeries(len(series), pieces()), FS, settings,
                                     frequencies)
            np.testing.assert_array_equal(streamed.frequencies, whole.frequencies)
            np.testing.assert_array_equal(streamed.psd, whole.psd)
            assert streamed.num_averages == whole.num_averages
            assert sum(taken) == len(series)  # zero-weight groups' samples are read too

    @pytest.mark.parametrize("extra", [-1, 1])
    def test_streamed_series_of_another_length_is_refused(self, extra):
        series = np.random.default_rng(7).standard_normal(2 ** 14 + extra)
        blocks = iter(np.array_split(series, 5))
        with pytest.raises(RuntimeError, match=f"{2 ** 14}"):
            dsp.welch_psd(BlockSeries(2 ** 14, blocks), FS, SETTINGS)

    @RBW_SCALES
    @pytest.mark.parametrize("rbw, vbw, frequencies", [
        (150e3, 2.0, (20e6,)),                   # even L = 1000 (Hann)
        (150e3, 2.0, (0.0, FS / 2)),             # DC and Nyquist, both halved
        (150e3, 150e3, (20e6, 37.3e6)),          # zero-weight leading groups
        (15e3, 2.0, (15e6, 20e6, 25e6)),         # three bins, few segments per block
        (7e3, 500.0, (0.0, 20e6, FS / 2)),       # odd L = 21429 (Hann): top bin not halved
    ], ids=["f0", "dc-nyquist", "vbw-rbw", "span", "odd-length"])  # "span" once set one
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_selected_bins_equal_the_full_grid(self, rbw_scale, rbw, vbw, frequencies,
                                               dtype):
        settings = dsp.AnalyzerSettings(rbw=rbw * rbw_scale, vbw=vbw)
        series = np.random.default_rng(11).standard_normal(2 ** 18 + 1234).astype(dtype)
        full = dsp.welch_psd(series, FS, settings)
        selected = dsp.welch_psd(series, FS, settings, frequencies)
        index = [int(np.argmin(np.abs(full.frequencies - f))) for f in frequencies]
        np.testing.assert_array_equal(selected.frequencies, full.frequencies[index])
        # a direct DFT of at most 21429 float64 terms against the rfft
        np.testing.assert_allclose(selected.psd, full.psd[index], rtol=1e-10, atol=0)
        assert selected.num_averages == full.num_averages

    def test_selected_bins_take_no_rfft(self, monkeypatch):
        def no_rfft(*args, **kwargs):
            raise AssertionError("rfft called for a selected bin")

        monkeypatch.setattr(dsp.np.fft, "rfft", no_rfft)
        series = np.random.default_rng(12).standard_normal(2 ** 16)
        assert len(dsp.welch_psd(series, FS, SETTINGS, (20e6, 20e6 + 1.0)).psd) == 1

    def test_halfway_frequency_picks_the_bin_band_power_reads(self):
        grid = np.fft.rfftfreq(dsp.segment_length(FS, SETTINGS), 1.0 / FS)
        halfway = (grid[200] + grid[201]) / 2.0
        assert halfway - grid[200] == grid[201] - halfway  # an exact tie: the first wins
        rng = np.random.default_rng(13)
        meas, ref = rng.standard_normal(2 ** 17), rng.standard_normal(2 ** 17)
        full = [dsp.welch_psd(x, FS, SETTINGS) for x in (meas, ref)]
        selected = [dsp.welch_psd(x, FS, SETTINGS, (halfway,)) for x in (meas, ref)]
        assert selected[0].frequencies[0] == grid[200]
        assert dsp.band_power_rel_snl(*selected, halfway) == pytest.approx(
            dsp.band_power_rel_snl(*full, halfway), rel=0, abs=1e-9)

    @pytest.mark.parametrize("frequencies", [
        (math.nan,), (math.inf,), (20e6, -math.inf), (-1.0,), (FS / 2 + 1.0,), (),
    ], ids=["nan", "inf", "minus-inf", "negative", "above-nyquist", "none"])
    def test_bad_frequencies_are_domain_errors(self, frequencies):
        series = np.random.default_rng(14).standard_normal(2 ** 14)
        with pytest.raises(DomainError):
            dsp.welch_psd(series, FS, SETTINGS, frequencies)

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
            synth.colored_gaussian_series(psd, FS, 2 ** 22, seed=30).array(), FS, SETTINGS)
        ref = dsp.welch_psd(
            synth.colored_gaussian_series(np.ones_like, FS, 2 ** 22, seed=31).array(), FS,
            SETTINGS)
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

    def test_bin_beyond_half_the_rbw_warns_inside_the_grid(self):
        # welch_psd's bins lie at most rbw/3 apart; a library caller's estimate
        # on a 1 MHz grid at the 150 kHz RBW does not
        grid = np.arange(1, 6) * 1e6
        estimate = dsp.SpectrumEstimate(grid, np.ones(5), num_averages=1, settings=SETTINGS)
        with pytest.warns(UserWarning, match="beyond half the RBW"):
            assert dsp.band_power_rel_snl(estimate, estimate, 2.4e6) == 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert dsp.band_power_rel_snl(estimate, estimate, 2.05e6) == 0.0  # 50 kHz off


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
