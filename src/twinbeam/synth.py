"""Stochastic synthesis of twin-beam quadrature time series.

Sampled zero-mean Gaussian series are shaped in the frequency domain so
their expected periodograms match the analytic targets, then pushed through
the modeled measurement chain (interferometer sensitivity, mode matching,
optional excess noise, electronics floor).  Every random draw comes
from a sub-stream deterministically derived from (seed, source name), so
results are bit-reproducible and independent sources never share a stream.

Because each source has its own stream, the work can be cut into blocks
without moving a bit.  The shaping draws its normals block by block into
the spectrum, and the chain is a BlockSeries: each block takes its samples
from every source's stream in turn, with the products and sums of the
whole-series arithmetic, so a channel comes out whole (BlockSeries.array)
or one block at a time (BlockSeries.blocks) with the same bits.  The
coloured shaping itself is one global inverse FFT per series.
"""

import hashlib
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import model
from .errors import DomainError

_BLOCK_SAMPLES = 2 ** 16


def _substream(seed, source):
    """Deterministic per-source generator keyed by (seed, source name)."""
    tag = int.from_bytes(hashlib.sha256(source.encode()).digest()[:8], "little")
    return np.random.default_rng(np.random.SeedSequence([int(seed), tag]))


def _is_power_of_two(n):
    return n > 0 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class SynthConfig:
    """Discretization and seed of the two combinations measured_combinations shapes."""
    sample_rate: float
    num_samples: int
    seed: int

    def __post_init__(self):
        if self.sample_rate <= 0:
            raise DomainError("sample rate must be positive")
        if not _is_power_of_two(self.num_samples):
            raise DomainError(f"num_samples must be a power of two, got {self.num_samples}")
        if self.seed < 0:
            raise DomainError(f"seed must be nonnegative, got {self.seed}")


@dataclass(frozen=True)
class DetectionChain:
    """Per-channel chain: spatial overlap, electronics floor, excess noise.

    Detection efficiency is not a chain stage: it enters the analytic
    spectra (NopoParams.detection_efficiency).
    """
    mode_match: float = 1.0
    enl: float = 0.0  # linear PSD of the electronics floor, relative to SNL
    excess_noise: float = 0.0  # white PSD added after the mode-match vacuum

    def __post_init__(self):
        if not 0 < self.mode_match <= 1:
            raise DomainError("mode-matching efficiency must be in (0, 1]")
        if not 0 <= self.enl < 1:
            raise DomainError("electronics noise level must be in [0, 1)")
        if self.excess_noise < 0:
            raise DomainError("excess noise must be nonnegative")


def colored_gaussian_series(psd, sample_rate, num_samples, seed, source="colored"):
    """Real Gaussian series whose expected periodogram equals psd(f).

    psd maps an array of frequencies in [0, sample_rate/2] to a positive
    linear PSD relative to the unit white level.  Shaping happens on the
    rfft grid with Hermitian symmetry implied, so the output is exactly real
    and bit-reproducible for a fixed (seed, source).  The normals are drawn
    block by block straight into the complex spectrum, so the memory beyond
    the spectrum and the output is one float64 array on the rfft grid.
    """
    if not _is_power_of_two(num_samples):
        raise DomainError(f"num_samples must be a power of two, got {num_samples}")
    freqs = np.fft.rfftfreq(num_samples, 1.0 / sample_rate)
    target = np.asarray(psd(freqs), dtype=float)
    if target.shape != freqs.shape:
        target = np.broadcast_to(target, freqs.shape).astype(float)
    if np.any(target <= 0) or not np.all(np.isfinite(target)):
        bad = freqs[~(np.isfinite(target) & (target > 0))][0]
        raise DomainError(f"target PSD must be finite and positive; fails at f={bad:.6g} Hz")

    size = freqs.size
    del freqs
    # E|X_k|^2 = psd_k * n makes the one-sided periodogram (|X|^2 / n for
    # interior bins in SNL-relative units) land on the target.  The DC and
    # Nyquist bins are real, with full variance.
    dc_scale = math.sqrt(target[0] * num_samples)
    nyquist_scale = math.sqrt(target[-1] * num_samples)
    scale = target * num_samples
    del target
    scale /= 2.0
    np.sqrt(scale, out=scale)

    # The 2 * size normals fill the real parts, then the imaginary parts, in
    # draw order, one block at a time; each part is normal * scale, as the
    # complex product (re + 1j * im) * scale rounds it.
    rng = _substream(seed, source)
    spectrum = np.empty(size, dtype=complex)
    gauss = np.empty(min(size, _BLOCK_SAMPLES))

    def fill(part):
        """part = normals * scale; returns the first and the last normal."""
        for start in range(0, size, gauss.size):
            stop = min(size, start + gauss.size)
            draw = rng.standard_normal(out=gauss[:stop - start])
            np.multiply(draw, scale[start:stop], out=part[start:stop])
            if start == 0:
                first = draw[0]
        return first, draw[-1]

    dc, nyquist = fill(spectrum.real)
    fill(spectrum.imag)
    del scale
    spectrum[0] = dc * dc_scale
    spectrum[-1] = nyquist * nyquist_scale
    return np.fft.irfft(spectrum, n=num_samples)


def measured_combinations(params, cfg):
    """Yield ("xminus", series), then ("yplus", series): the combinations the chain reads.

    xminus, the amplitude difference, is shaped to model.intensity_diff_spectrum
    and yplus, the phase sum, to model.phase_sum_spectrum, from independent
    draws, so a shot-noise-limited combination is unit-variance white.  The
    Nyquist check runs at once, so a truncated spectrum warns at this
    call, before any shaping.  Each series is shaped when the returned
    generator is advanced to it, so a caller can put the first to work
    while the second is shaped, and never holds two inverse FFTs at once.
    """
    nyquist = cfg.sample_rate / 2.0
    if nyquist < 2.0 * params.cavity_bandwidth:
        warnings.warn(
            f"Nyquist {nyquist:.3g} Hz below twice the cavity bandwidth "
            f"{params.cavity_bandwidth:.3g} Hz; spectra will be truncated",
            stacklevel=2)
    fs, n, seed = cfg.sample_rate, cfg.num_samples, cfg.seed

    def shaped():
        yield "xminus", colored_gaussian_series(
            lambda f: model.intensity_diff_spectrum(params, f), fs, n, seed, source="xminus")
        yield "yplus", colored_gaussian_series(
            lambda f: model.phase_sum_spectrum(params, f), fs, n, seed, source="yplus")

    return shaped()


class BlockSeries:
    """A series of `length` samples, computed one block at a time.

    block(start, stop) returns samples [start, stop) as a float64 array that
    the caller must not write into.  A series made by this module's chain
    functions draws each block of every noise term from that term's own
    (seed, source) stream, in turn, so its blocks must be taken once and in
    order from 0, by blocks() or by array(); they then hold the bits of the
    same arithmetic done on whole series, whatever the block size.
    """

    def __init__(self, length, block):
        self.length = length
        self.block = block

    @classmethod
    def of(cls, series):
        """An existing array, read as views of its blocks."""
        return cls(len(series), lambda start, stop: series[start:stop])

    def blocks(self):
        """The consecutive blocks of about _BLOCK_SAMPLES samples, in order."""
        for start in range(0, self.length, _BLOCK_SAMPLES):
            yield self.block(start, min(self.length, start + _BLOCK_SAMPLES))

    def array(self):
        """The whole series as one new float64 array."""
        out = np.empty(self.length)
        start = 0
        for block in self.blocks():
            out[start:start + len(block)] = block
            start += len(block)
        return out


class _WhiteNoise:
    """scale * unit white noise from the (seed, source) substream, drawn block by block."""

    def __init__(self, scale, seed, source):
        self.scale = scale
        self._rng = _substream(seed, source)

    def draw(self, count):
        block = self._rng.standard_normal(count)
        block *= self.scale
        return block


def mz_signal(series, mode, ifc, chain, seed):
    """The signal photocurrent of one combination, a BlockSeries.

    mode 'amplitude' reads the amplitude-difference combination xminus,
    'phase' the phase-sum combination yplus.  The chain applies the
    interferometer sensitivity sin(theta/2), mixes in vacuum by the
    mode-match weight, adds the chain's excess noise, and overlays the
    electronics floor.  Each stage scales and adds in place, block by
    block: the same products and sums as a * signal + b * noise on whole
    series.
    """
    ifc.validate()
    if mode not in ("amplitude", "phase"):
        raise DomainError(f"unknown measurement mode {mode!r}")
    sensitivity = math.sin(ifc.rf_sideband_phase / 2.0)
    stages = []  # (gain, noise): signal *= gain, then signal += noise
    mu = chain.mode_match
    if mu < 1.0:
        stages.append((math.sqrt(mu),
                       _WhiteNoise(math.sqrt(1.0 - mu), seed, f"{mode}:mode_match_vacuum")))
    if chain.excess_noise > 0:
        stages.append((1.0, _WhiteNoise(math.sqrt(chain.excess_noise), seed,
                                        f"{mode}:excess_noise")))
    enl = chain.enl
    stages.append((math.sqrt(1.0 - enl),
                   _WhiteNoise(math.sqrt(enl), seed, f"{mode}:electronics_signal")))

    def block(start, stop):
        signal = sensitivity * series.block(start, stop)
        for gain, noise in stages:
            signal *= gain
            signal += noise.draw(stop - start)
        return signal

    return BlockSeries(series.length, block)


def mz_reference(length, mode, chain, seed):
    """The SNL calibration photocurrent of one mode, a BlockSeries: an
    independent vacuum trace through the chain's electronics, so its PSD
    defines the measured SNL."""
    vacuum = _WhiteNoise(math.sqrt(1.0 - chain.enl), seed, f"{mode}:snl_vacuum")
    electronics = _WhiteNoise(math.sqrt(chain.enl), seed, f"{mode}:electronics_reference")

    def block(start, stop):
        snl = vacuum.draw(stop - start)
        snl += electronics.draw(stop - start)
        return snl

    return BlockSeries(length, block)


def electronics_floor(enl, length, seed):
    """Electronics noise alone, at PSD enl relative to the measured SNL, a BlockSeries."""
    if not 0 <= enl < 1:
        raise DomainError("electronics noise level must be in [0, 1)")
    noise = _WhiteNoise(math.sqrt(enl), seed, "enl")
    return BlockSeries(length, lambda start, stop: noise.draw(stop - start))

