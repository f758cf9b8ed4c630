"""Spectrum-analyzer emulation: Welch averaging with RBW/VBW semantics.

The estimator is normalized so unit-variance white input reads a flat PSD
of 1.0, matching the SNL-relative convention used everywhere else.  The
window is Hann, and RBW fixes the segment length through its equivalent
noise bandwidth of 1.5 bins; VBW is emulated as a single-pole low-pass
over the stream of segment periodograms, mirroring an analyzer's video
filter on a noise-like trace.
That filter is linear in the periodograms, so its output is one weighted
sum with exponential segment weights (the newest segment weighs 1), equal
to the single-pole recursion.  The segments are windowed, transformed and
summed in groups of about _BLOCK_SAMPLES samples as a series' blocks are
read (a trace channel from fileio.read_trace is never held whole), with one
buffer kept across groups: it holds a group's samples and carries their
overlap into the next.  So memory beyond one block is bounded by a group,
and no bit of the result depends on how the series is split into blocks.

With frequency=None, welch_psd returns the whole grid from an rfft of
each segment; given a frequency, only the bin nearest it, by a direct DFT,
O(L) per segment of L samples.  pipeline.readings reads one bin per
channel, at f0, so that is the only bin it transforms.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .series import BlockSeries

_HANN_ENBW_BINS = 1.5
# np.hanning's symmetric window of L points has an ENBW of 1.5 L/(L - 1) bins,
# so from 1.5 fs/rbw >= 16 the bandwidth it realizes, 1.5 fs/(L - 1), is within
# 10% of the RBW; shorter segments miss it by more, down to the all-zero window
# at L = 2.  No series holds 2^62 samples: their bytes would pass a file offset.
_MIN_SEGMENT, _MAX_SEGMENT = 16, 2 ** 62
_BLOCK_SAMPLES = 2 ** 16


@dataclass(frozen=True)
class AnalyzerSettings:
    """Resolution and video bandwidths of the emulated analyzer; its window is Hann."""
    rbw: float
    vbw: float

    def __post_init__(self):  # each test is false for nan, so nan is refused too
        if not 0 < self.rbw < math.inf:
            raise DomainError(f"resolution bandwidth must be positive and finite, got {self.rbw}")
        if not 0 < self.vbw <= self.rbw:
            raise DomainError(f"video bandwidth must satisfy 0 < vbw <= rbw, got {self.vbw}")
        if not math.isfinite(self.time_constant):  # vbw below about 8.9e-310 Hz
            raise DomainError(f"video bandwidth {self.vbw:.6g} Hz gives an infinite "
                              "video-filter time constant")

    @property
    def time_constant(self):
        """The video filter's time constant, 1/(2 pi vbw), in seconds."""
        return 1.0 / (2.0 * math.pi * self.vbw)


@dataclass(frozen=True)
class SpectrumEstimate:
    """Frequency grid plus SNL-relative PSD, with averaging provenance."""
    frequencies: np.ndarray
    psd: np.ndarray
    num_averages: int


def segment_length(sample_rate, settings):
    """Segment length implied by the RBW: L = round(Fs * ENBW / rbw).

    Raises DomainError unless Fs * ENBW / rbw lies in [_MIN_SEGMENT, _MAX_SEGMENT].
    """
    length = sample_rate * _HANN_ENBW_BINS / settings.rbw
    if not _MIN_SEGMENT <= length <= _MAX_SEGMENT:  # rejects inf and nan too
        raise DomainError(f"rbw {settings.rbw:.6g} Hz at {sample_rate:.6g} Hz sampling gives "
                          f"Hann segments of {length:.6g} samples, outside [{_MIN_SEGMENT}, 2^62]")
    return int(round(length))


def welch_psd(series, sample_rate, settings, frequency=None):
    """Averaged periodogram of a real series in SNL-relative units.

    series is an array or a series.BlockSeries; both take one path, as an
    array is wrapped as a BlockSeries of one block.  Its blocks() refuses,
    with RuntimeError, blocks that hold more or fewer samples than len().
    Hann window, 50% overlap; the per-segment periodogram stream is
    smoothed by a single-pole filter whose time constant is 1/(2 pi vbw)
    against the segment update rate.  That filter is evaluated as the
    weighted sum sum_k w_k p_k / sum_k w_k with w_k = decay**(K-1-k)
    over the K segment periodograms p_k, which equals the recursion
    accum = decay * accum + p.  Segments are transformed in groups of about
    _BLOCK_SAMPLES samples as the series' blocks arrive; each sample is
    copied once into `held`, a float64 buffer of one group (an exact
    up-cast of float32) that carries the overlap into the next group, and
    the only buffer kept across groups.  A group whose weights all
    underflow to 0.0 (a fast video filter over a long series) adds exactly
    0 and is not transformed, though its samples are still read.  DC, and
    the last bin when the segment length is even (the Nyquist bin), carry
    no one-sided doubling.  The reported num_averages is the filter's
    effective count sum(w)^2 / sum(w^2), computed from the weights themselves.

    The grid is rfftfreq of the segment length.  With frequency=None the
    estimate holds the whole grid, from an rfft of each segment.  Given a
    frequency, it holds only the grid bin nearest it (the first of ties),
    and transforms each segment at that bin alone by a direct DFT, one
    product with a windowed cosine and sine made once per call: O(L) per
    segment of L samples.  Raises DomainError unless the frequency lies in
    [0, sample_rate/2].
    """
    if not isinstance(series, BlockSeries):
        series = BlockSeries(len(series), (np.asarray(series),))
    num_samples = len(series)
    length = segment_length(sample_rate, settings)
    hop = length // 2
    if num_samples < length + hop:
        raise DomainError(f"series of {num_samples} samples too short for two {length}-sample "
                          f"segments at 50% overlap; need at least {length + hop}")

    freqs = np.fft.rfftfreq(length, 1.0 / sample_rate)
    win = np.hanning(length)
    power_norm = np.sum(win ** 2)
    if frequency is None:
        bins = np.arange(len(freqs))

        def quadratures(rows):
            """The real and imaginary parts of every bin of each windowed row."""
            spectra = np.fft.rfft(rows * win, axis=1)
            return spectra.real, spectra.imag
    else:
        if not 0.0 <= frequency <= sample_rate / 2.0:  # rejects nan too
            raise DomainError(f"frequency {frequency:.6g} Hz outside [0, Nyquist "
                              f"{sample_rate / 2:.6g} Hz]")
        bins = np.argmin(np.abs(freqs - frequency), keepdims=True)  # the first of ties
        # (k n) mod L in integers keeps every angle in [0, 2 pi) exactly
        angles = (2.0 * np.pi / length) * (np.outer(np.arange(length), bins) % length)
        basis = np.hstack((win[:, None] * np.cos(angles), win[:, None] * np.sin(angles)))

        def quadratures(rows):
            """The real and (negated) imaginary parts of the selected bin of each row."""
            # overlapping rows are no BLAS operand; numpy would multiply them more slowly
            parts = np.ascontiguousarray(rows) @ basis
            return parts[:, :len(bins)], parts[:, len(bins):]

    num_segments = (num_samples - length) // hop + 1
    # Video filter: decay per update set by the VBW time constant 1/(2 pi vbw).
    dt = hop / sample_rate
    tau = settings.time_constant
    decay = tau / (tau + dt)
    weights = decay ** np.arange(num_segments - 1, -1, -1, dtype=float)
    block = max(1, _BLOCK_SAMPLES // length)
    held = np.empty((block - 1) * hop + length)  # a full group
    held_rows = np.lib.stride_tricks.sliding_window_view(held, length)[::hop]  # its segments
    accum = np.zeros(len(bins))
    start, filled = 0, 0  # the group being filled: its first segment, samples held
    for data in series.blocks():
        while len(data) and start < num_segments:
            count = min(block, num_segments - start)
            need = (count - 1) * hop + length
            taken = min(need - filled, len(data))
            held[filled:filled + taken] = data[:taken]  # an exact up-cast of float32
            filled += taken
            data = data[taken:]
            if filled < need:
                break
            # a group whose newest weight underflowed to 0.0 weighs 0 throughout
            if weights[start + count - 1] > 0:
                real, imag = quadratures(held_rows[:count])
                accum += weights[start:start + count] @ (real ** 2 + imag ** 2)
            # the next group starts count segments on, overlapping this one's end
            held[:length - hop] = held[count * hop:need]
            start, filled = start + count, length - hop
    sum_w = weights.sum()
    psd = accum / (power_norm * sum_w)
    # DC carries no one-sided doubling, nor does Nyquist, which is the last
    # rfft bin only for an even length
    psd[(bins == 0) | (2 * bins == length)] *= 0.5
    num_averages = max(1, int(round(sum_w ** 2 / (weights @ weights))))
    return SpectrumEstimate(frequencies=freqs[bins], psd=psd, num_averages=num_averages)
