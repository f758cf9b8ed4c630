"""Spectrum-analyzer emulation: Welch averaging with RBW/VBW semantics.

The estimator is normalized so unit-variance white input reads a flat PSD
of 1.0, matching the SNL-relative convention used everywhere else.  RBW
fixes the segment length through the window's equivalent noise bandwidth;
VBW is emulated as a single-pole low-pass over the stream of segment
periodograms, mirroring an analyzer's video filter on a noise-like trace.
That filter is linear in the periodograms, so its output is one weighted
sum with exponential segment weights (the newest segment weighs 1), equal
to the single-pole recursion.  The segments are windowed, transformed and
summed one block of about _BLOCK_SAMPLES samples at a time, in buffers made
once per call (only each block's transform is new), so the memory beyond
the input series is bounded by one block, whatever the series length.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InsufficientDataError

_ENBW_BINS = {"hann": 1.5, "rectangular": 1.0}
_BLOCK_SAMPLES = 2 ** 16


@dataclass(frozen=True)
class AnalyzerSettings:
    """Resolution/video bandwidths and optional display span of the emulated analyzer."""
    rbw: float
    vbw: float
    window: str = "hann"
    center_frequency: float = None
    span: float = None

    def __post_init__(self):
        if self.rbw <= 0:
            raise DomainError("resolution bandwidth must be positive")
        if not 0 < self.vbw <= self.rbw:
            raise DomainError(f"video bandwidth must satisfy 0 < vbw <= rbw, got {self.vbw}")
        if self.window not in _ENBW_BINS:
            raise DomainError(f"unsupported window {self.window!r}")
        if (self.center_frequency is None) != (self.span is None):
            raise DomainError("center_frequency and span must be given together")
        if self.span is not None and self.span <= 0:
            raise DomainError("span must be positive")


@dataclass(frozen=True)
class SpectrumEstimate:
    """Frequency grid plus SNL-relative PSD, with averaging provenance."""
    frequencies: np.ndarray
    psd: np.ndarray
    num_averages: int
    settings: AnalyzerSettings

    def __post_init__(self):
        if len(self.frequencies) != len(self.psd):
            raise DomainError("frequency grid and PSD lengths differ")
        if np.any(np.diff(self.frequencies) <= 0):
            raise DomainError("frequency grid must be strictly increasing")
        if np.any(np.asarray(self.psd) < 0):
            raise DomainError("PSD values must be nonnegative")
        if self.num_averages < 1:
            raise DomainError("num_averages must be >= 1")


def segment_length(sample_rate, settings):
    """Segment length implied by the RBW: L = round(Fs * ENBW / rbw)."""
    return int(round(sample_rate * _ENBW_BINS[settings.window] / settings.rbw))


def welch_psd(series, sample_rate, settings):
    """Averaged periodogram of a real series in SNL-relative units.

    Hann (or rectangular) window, 50% overlap; the per-segment periodogram
    stream is smoothed by a single-pole filter whose time constant is
    1/(2 pi vbw) against the segment update rate.  That filter is evaluated
    as the weighted sum sum_k w_k p_k / sum_k w_k with w_k = decay**(K-1-k)
    over the K segment periodograms p_k, which equals the recursion
    accum = decay * accum + p.  Segments are processed in blocks of about
    _BLOCK_SAMPLES samples, so memory beyond the series is one block; the
    leading blocks whose weights all underflow to 0.0 (a fast video filter
    over a long series) add exactly 0 and are skipped.  A float32 series is
    read as is: each block is up-cast to float64 exactly before the window
    multiply, and any other input is converted to float64.  DC, and the
    last bin when the segment length is even (the Nyquist bin), carry no
    one-sided doubling.  The reported num_averages is the effective count
    1/sum(weights^2) of the filter.
    """
    series = np.asarray(series)
    if series.dtype != np.float32:
        series = np.asarray(series, dtype=float)
    length = segment_length(sample_rate, settings)
    hop = max(1, length // 2)
    if len(series) < length + hop:
        raise InsufficientDataError(
            f"series of {len(series)} samples too short for two {length}-sample "
            f"segments at 50% overlap; need at least {length + hop}",
            required_length=length + hop)

    if settings.window == "hann":
        win = np.hanning(length)
    else:
        win = np.ones(length)
    power_norm = np.sum(win ** 2)

    segments = np.lib.stride_tricks.sliding_window_view(series, length)[::hop]
    num_segments = segments.shape[0]
    # Video filter: decay per update set by the VBW time constant 1/(2 pi vbw).
    dt = hop / sample_rate
    tau = 1.0 / (2.0 * math.pi * settings.vbw)
    decay = tau / (tau + dt)
    weights = decay ** np.arange(num_segments - 1, -1, -1, dtype=float)
    block = max(1, _BLOCK_SAMPLES // length)
    # Leading blocks whose weights all underflowed to 0.0 add exactly 0.
    first = int(np.argmax(weights > 0)) // block * block
    rows = min(block, num_segments - first)
    windowed = np.empty((rows, length))
    power = np.empty((rows, length // 2 + 1))
    imag_power = np.empty(power.shape)
    accum = np.zeros(length // 2 + 1)
    for start in range(first, num_segments, block):
        count = min(block, num_segments - start)
        # Up-cast first, then window in place: the same products as a
        # mixed-type multiply, without its buffered casting loop.
        np.copyto(windowed[:count], segments[start:start + count])
        windowed[:count] *= win
        spectra = np.fft.rfft(windowed[:count], axis=1)
        np.square(spectra.real, out=power[:count])
        np.square(spectra.imag, out=imag_power[:count])
        power[:count] += imag_power[:count]
        accum += weights[start:start + count] @ power[:count]
    psd = accum / (power_norm * weights.sum())
    psd[0] *= 0.5   # DC carries no one-sided doubling, nor does Nyquist,
    if length % 2 == 0:
        psd[-1] *= 0.5  # which is the last bin only for an even length

    # Closed forms of sum(w) and sum(w^2) over the weights decay^k, k = 0 newest.
    if decay < 1.0:
        sum_w = (1.0 - decay ** num_segments) / (1.0 - decay)
        sum_w2 = (1.0 - decay ** (2 * num_segments)) / (1.0 - decay ** 2)
    else:
        sum_w, sum_w2 = num_segments, num_segments
    num_averages = max(1, int(round(sum_w ** 2 / sum_w2)))

    freqs = np.fft.rfftfreq(length, 1.0 / sample_rate)
    if settings.span is not None:
        lo = settings.center_frequency - settings.span / 2.0
        hi = settings.center_frequency + settings.span / 2.0
        keep = (freqs >= lo) & (freqs <= hi)
        freqs, psd = freqs[keep], psd[keep]
    return SpectrumEstimate(frequencies=freqs, psd=psd,
                            num_averages=num_averages, settings=settings)


def band_power_rel_snl(measured, reference, f0):
    """Nearest-bin reading of 10 log10(measured/reference) at f0, in dB.

    Raises DomainError if the two estimates differ in settings or grid, or
    if either reads zero power in that bin (the reading would be -inf).
    """
    if measured.settings != reference.settings:
        raise DomainError("measured and reference estimates use different analyzer settings")
    if len(measured.frequencies) != len(reference.frequencies) or \
            not np.array_equal(measured.frequencies, reference.frequencies):
        raise DomainError("measured and reference estimates live on different grids")
    idx = int(np.argmin(np.abs(measured.frequencies - f0)))
    offset = abs(measured.frequencies[idx] - f0)
    if offset > measured.settings.rbw / 2.0:
        warnings.warn(
            f"requested frequency {f0:.6g} Hz is {offset:.6g} Hz from the nearest bin, "
            f"beyond half the RBW", stacklevel=2)
    ref_power = reference.psd[idx]
    if ref_power <= 0:
        raise DomainError(f"reference power is zero at {measured.frequencies[idx]:.6g} Hz")
    if measured.psd[idx] <= 0:
        raise DomainError(f"measured power is zero at {measured.frequencies[idx]:.6g} Hz")
    return 10.0 * math.log10(measured.psd[idx] / ref_power)
