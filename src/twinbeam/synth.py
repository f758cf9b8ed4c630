"""Stochastic synthesis of stationary Gaussian series with a target PSD.

colored_gaussian_series filters unit white normals with a short zero-phase
kernel whose frequency response is the square root of the target PSD, so
the expected periodogram of the output is the target.  The kernel is
designed once, on a grid just fine enough that all but 1e-10 of its energy
lies in the taps kept; a Lorentzian dip needs a few hundred taps, and a
white PSD one tap (a scalar multiply).  The normals are then drawn and
filtered block by block by overlap-save, so a series needs the same memory
whatever its length.

Every random draw comes from a sub-stream deterministically derived from
(seed, source name), so results are bit-reproducible and independent
sources never share a stream.  The overlap-save FFT size depends only on
the kernel length, so a series has the same bits whichever thread reads it.
"""

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .series import BlockSeries

_BLOCK_SAMPLES = 2 ** 16
_TAIL_ENERGY = 1e-10  # kernel energy outside the taps kept, relative to the total
_MAX_KERNEL_GRID = 2 ** 18  # design grid cap: kernels longer than a quarter of it are refused


def _substream(seed, source):
    """Deterministic per-source generator keyed by (seed, source name)."""
    tag = int.from_bytes(hashlib.sha256(source.encode()).digest()[:8], "little")
    return np.random.default_rng(np.random.SeedSequence([int(seed), tag]))


@dataclass(frozen=True)
class SynthConfig:
    """Discretization and seed of a synthetic trace."""
    sample_rate: float
    num_samples: int
    seed: int

    def __post_init__(self):  # each test is false for nan, so nan is refused too
        if not 0 < self.sample_rate < math.inf:
            raise DomainError(f"sample rate must be positive and finite, got {self.sample_rate}")
        if self.num_samples < 1:
            raise DomainError(f"num_samples must be positive, got {self.num_samples}")
        if self.seed < 0:
            raise DomainError(f"seed must be nonnegative, got {self.seed}")


@dataclass(frozen=True)
class DetectionChain:
    """Per-channel chain: spatial overlap and excess noise.

    Detection efficiency is not a chain stage: it enters the analytic
    spectra (NopoParams.detection_efficiency).  The electronics floor is
    shared by every channel (RunConfig.enl).
    """
    mode_match: float
    excess_noise: float  # white PSD added after the mode-match vacuum

    def __post_init__(self):  # each test is false for nan, so nan is refused too
        if not 0 < self.mode_match <= 1:
            raise DomainError("mode-matching efficiency must be in (0, 1]")
        if not 0 <= self.excess_noise < math.inf:
            raise DomainError(f"excess noise must be finite and >= 0, got {self.excess_noise}")


def shaping_kernel(psd, sample_rate):
    """The zero-phase taps h[-K], ..., h[K] of the filter with response sqrt(psd(f)).

    h is irfft(sqrt(psd)) on a grid of M points, cut to the central 2K+1
    taps.  M starts at 256 and doubles until all but _TAIL_ENERGY of h's
    energy lies in those taps with 2K+1 <= M/4; past _MAX_KERNEL_GRID this
    raises DomainError (a PSD with a step or a very narrow feature).  A
    PSD that is zero everywhere gives the single tap 0.

    The energy bound does not bound |H(f)|^2 - psd(f) near fs/2: sqrt(psd)
    repeated past fs/2 has a kink there, so the taps decay as a power law.
    For the signal channels of the reference chain the error is below
    5e-6 up to 0.6 fs/2 but a few 1e-4 in the last tenth below fs/2.
    """
    size = 256
    while size <= _MAX_KERNEL_GRID:
        freqs = np.fft.rfftfreq(size, 1.0 / sample_rate)
        target = np.broadcast_to(np.asarray(psd(freqs), dtype=float), freqs.shape)
        bad = ~(np.isfinite(target) & (target >= 0))
        if bad.any():
            raise DomainError(f"target PSD must be finite and nonnegative; "
                              f"fails at f={freqs[bad][0]:.6g} Hz")
        kernel = np.fft.irfft(np.sqrt(target), size)
        # lag_energy[k]: the energy of the taps at lags +k and -k
        energy = np.square(kernel)
        lag_energy = energy[:size // 2 + 1].copy()
        lag_energy[1:size // 2] += energy[:size // 2:-1]
        total = lag_energy.sum()
        if total == 0:
            return np.zeros(1)
        outside = np.cumsum(lag_energy[:0:-1])[::-1]  # outside[k]: beyond lag k
        half = int(np.argmax(np.append(outside, 0.0) <= _TAIL_ENERGY * total))
        if 2 * half + 1 <= size // 4:
            return np.concatenate((kernel[size - half:], kernel[:half + 1]))
        size *= 2
    raise DomainError(
        f"the shaping kernel of this PSD needs more than {_MAX_KERNEL_GRID // 4 - 1} taps "
        f"to hold all but {_TAIL_ENERGY:g} of its energy: the PSD has a step, or a "
        "feature too narrow for the sample rate")


def _overlap_save(kernel, rng, length):
    """The `length` samples of np.convolve(normals, kernel, "valid"), segment by segment.

    normals are the next length + len(kernel) - 1 draws of rng.  Each
    segment is one FFT of a size fixed by the kernel length alone, zero-padded
    by rfft when short (the last).  The one buffer, `segment`, takes each
    segment's draws and carries its last len(kernel) - 1 into the next.
    """
    taps = kernel.size
    size = max(2 ** 15, 1 << (8 * taps - 1).bit_length())
    step = size - taps + 1
    response = np.fft.rfft(kernel, size)
    segment = np.empty(size)
    rng.standard_normal(out=segment[:taps - 1])
    for start in range(0, length, step):
        count = min(step, length - start)
        end = taps - 1 + count
        rng.standard_normal(out=segment[taps - 1:end])
        spectrum = np.fft.rfft(segment[:end], size)
        spectrum *= response
        yield np.fft.irfft(spectrum, size)[taps - 1:end]
        segment[:taps - 1] = segment[count:end]


def _white(gain, rng, length):
    """gain times the next `length` draws of rng, in pieces of _BLOCK_SAMPLES."""
    for start in range(0, length, _BLOCK_SAMPLES):
        piece = rng.standard_normal(min(_BLOCK_SAMPLES, length - start))
        piece *= gain
        yield piece


def colored_gaussian_series(psd, sample_rate, num_samples, seed, source="colored"):
    """A real stationary Gaussian BlockSeries whose expected periodogram is psd(f).

    psd maps an array of frequencies in [0, sample_rate/2] to a finite,
    nonnegative linear PSD relative to the unit white level.  The series is
    the (seed, source) stream of unit normals filtered by shaping_kernel(psd);
    only the kernel is made here, and each block is drawn and filtered as
    it is read.
    """
    if num_samples < 1:
        raise DomainError(f"num_samples must be positive, got {num_samples}")
    kernel = shaping_kernel(psd, sample_rate)
    rng = _substream(seed, source)
    if kernel.size == 1:
        pieces = _white(kernel[0], rng, num_samples)
    else:
        pieces = _overlap_save(kernel, rng, num_samples)
    return BlockSeries(num_samples, pieces)
