"""Stochastic synthesis of twin-beam quadrature time series.

Sampled zero-mean Gaussian series are shaped in the frequency domain so
their expected periodograms match the analytic targets, then pushed through
the modeled measurement chain (interferometer sensitivity, mode matching,
optional excess phase noise, electronics floor).  Every random draw comes
from a sub-stream deterministically derived from (seed, source name), so
results are bit-reproducible and independent sources never share a stream.
"""

import hashlib
import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import model
from .errors import ConfigurationError, DomainError

SQRT2 = math.sqrt(2.0)


def _substream(seed, source):
    """Deterministic per-source generator keyed by (seed, source name)."""
    tag = int.from_bytes(hashlib.sha256(source.encode()).digest()[:8], "little")
    return np.random.default_rng(np.random.SeedSequence([int(seed), tag]))


def _is_power_of_two(n):
    return n > 0 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class SynthConfig:
    """Discretization and conjugate-quadrature policy for a synthesis run."""
    sample_rate: float
    num_samples: int
    seed: int
    conjugate_mode: str = "minimum_uncertainty"  # or "explicit"
    conjugate_excess: float = 1.0  # used in "explicit" mode, >= 1

    def __post_init__(self):
        if self.sample_rate <= 0:
            raise DomainError("sample rate must be positive")
        if not _is_power_of_two(self.num_samples):
            raise DomainError(f"num_samples must be a power of two, got {self.num_samples}")
        if self.conjugate_mode not in ("minimum_uncertainty", "explicit"):
            raise DomainError(f"unknown conjugate mode {self.conjugate_mode!r}")
        if self.conjugate_mode == "explicit" and self.conjugate_excess < 1:
            raise DomainError("conjugate excess must be >= 1")


@dataclass(frozen=True)
class DetectionChain:
    """Per-channel chain: spatial overlap, electronics floor, excess noise.

    Detection efficiency is not a chain stage: it enters either the analytic
    spectra (NopoParams.detection_efficiency) or an explicit beamsplitter on
    the combinations (apply_detection).
    """
    mode_match: float = 1.0
    enl: float = 0.0  # linear PSD of the electronics floor, relative to SNL
    excess_phase_noise: float = 0.0

    def __post_init__(self):
        if not 0 < self.mode_match <= 1:
            raise DomainError("mode-matching efficiency must be in (0, 1]")
        if not 0 <= self.enl < 1:
            raise DomainError("electronics noise level must be in [0, 1)")
        if self.excess_phase_noise < 0:
            raise DomainError("excess phase noise must be nonnegative")


@dataclass(frozen=True)
class TraceSet:
    """Sampled joint-combination and per-beam quadrature series.

    xminus/xplus are the amplitude difference/sum combinations, yplus/yminus
    the phase sum/difference, all scaled so a shot-noise-limited combination
    is unit-variance white.  Per-beam series satisfy x1 = (xplus+xminus)/sqrt2,
    x2 = (xplus-xminus)/sqrt2 and likewise for y.  The measurement chain
    reads only xminus and yplus; every other series may be absent.
    """
    sample_rate: float
    xminus: np.ndarray
    xplus: Optional[np.ndarray] = None
    yplus: Optional[np.ndarray] = None
    yminus: Optional[np.ndarray] = None
    x1: Optional[np.ndarray] = None
    x2: Optional[np.ndarray] = None
    y1: Optional[np.ndarray] = None
    y2: Optional[np.ndarray] = None

    def __post_init__(self):
        n = len(self.xminus)
        for name in ("xplus", "yplus", "yminus", "x1", "x2", "y1", "y2"):
            series = getattr(self, name)
            if series is not None and len(series) != n:
                raise DomainError(f"series {name} has length {len(series)}, expected {n}")


def white_series(n, rng):
    """Unit-variance Gaussian white noise: flat PSD of 1 in SNL-relative units."""
    return rng.standard_normal(n)


def colored_gaussian_series(psd, sample_rate, num_samples, seed, source="colored"):
    """Real Gaussian series whose expected periodogram equals psd(f).

    psd maps an array of frequencies in [0, sample_rate/2] to a positive
    linear PSD relative to the unit white level.  Shaping happens on the
    rfft grid with Hermitian symmetry implied, so the output is exactly real
    and bit-reproducible for a fixed (seed, source).
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

    rng = _substream(seed, source)
    # E|X_k|^2 = psd_k * n makes the one-sided periodogram (|X|^2 / n for
    # interior bins in SNL-relative units) land on the target.
    spectrum = np.empty(freqs.shape, dtype=complex)
    gauss = rng.standard_normal((2, freqs.size))
    spectrum[:] = (gauss[0] + 1j * gauss[1]) * np.sqrt(target * num_samples / 2.0)
    # DC and Nyquist bins are their own conjugates: real, full variance.
    spectrum[0] = gauss[0, 0] * math.sqrt(target[0] * num_samples)
    spectrum[-1] = gauss[0, -1] * math.sqrt(target[-1] * num_samples)
    return np.fft.irfft(spectrum, n=num_samples)


def _combination_psds(params):
    """Target PSDs of the measured combinations: amplitude difference, phase sum."""
    product = params.detection_efficiency * params.output_coupling
    bandwidth = params.cavity_bandwidth
    ratio = params.pump_ratio

    def s_amp(f):
        return model.intensity_diff_psd(f, product, bandwidth)

    def s_phase(f):
        return model.phase_sum_psd(f, product, bandwidth, ratio)

    return s_amp, s_phase


def synthesize_measured_combinations(params, cfg):
    """A TraceSet holding only xminus and yplus, the combinations mz_measure reads.

    The draws are those of synthesize_twin_beams, so both give bit-identical
    xminus and yplus for one (params, cfg).
    """
    nyquist = cfg.sample_rate / 2.0
    if nyquist < 2.0 * params.cavity_bandwidth:
        warnings.warn(
            f"Nyquist {nyquist:.3g} Hz below twice the cavity bandwidth "
            f"{params.cavity_bandwidth:.3g} Hz; spectra will be truncated",
            stacklevel=2)
    s_amp, s_phase = _combination_psds(params)
    fs, n, seed = cfg.sample_rate, cfg.num_samples, cfg.seed
    return TraceSet(
        sample_rate=fs,
        xminus=colored_gaussian_series(s_amp, fs, n, seed, source="xminus"),
        yplus=colored_gaussian_series(s_phase, fs, n, seed, source="yplus"),
    )


def synthesize_twin_beams(params, cfg):
    """Generate a TraceSet whose combination PSDs match the analytic spectra.

    xminus targets the amplitude-difference dip, yplus the phase-sum dip;
    the conjugate combinations get the frequency-wise reciprocal (minimum
    uncertainty) or reciprocal times an explicit excess factor.  The four
    combinations are statistically independent; per-beam series are derived
    algebraically.
    """
    measured = synthesize_measured_combinations(params, cfg)
    s_amp, s_phase = _combination_psds(params)
    excess = 1.0 if cfg.conjugate_mode == "minimum_uncertainty" else cfg.conjugate_excess
    fs, n, seed = cfg.sample_rate, cfg.num_samples, cfg.seed
    xminus, yplus = measured.xminus, measured.yplus
    xplus = colored_gaussian_series(lambda f: excess / s_amp(f), fs, n, seed, source="xplus")
    yminus = colored_gaussian_series(lambda f: excess / s_phase(f), fs, n, seed, source="yminus")

    return TraceSet(
        sample_rate=fs,
        xminus=xminus, xplus=xplus, yplus=yplus, yminus=yminus,
        x1=(xplus + xminus) / SQRT2,
        x2=(xplus - xminus) / SQRT2,
        y1=(yplus + yminus) / SQRT2,
        y2=(yplus - yminus) / SQRT2,
    )


def apply_detection(series, efficiency, seed, source="detection"):
    """Lossy detection as a beamsplitter: sqrt(eta) signal + sqrt(1-eta) vacuum."""
    if not 0 < efficiency <= 1:
        raise DomainError(f"detection efficiency must be in (0, 1], got {efficiency}")
    if efficiency == 1.0:
        return series
    vacuum = white_series(len(series), _substream(seed, source))
    return math.sqrt(efficiency) * series + math.sqrt(1.0 - efficiency) * vacuum


def combine_channels(a, b, op):
    """Power-combiner output (a +/- b)/sqrt2, preserving the SNL normalization."""
    if len(a) != len(b):
        raise DomainError(f"length mismatch: {len(a)} vs {len(b)}")
    if op == "sum":
        return (a + b) / SQRT2
    if op == "difference":
        return (a - b) / SQRT2
    raise DomainError(f"unknown combiner op {op!r}")


class MzReadout:
    """One interferometer measurement: signal photocurrent and its SNL calibration.

    snl_channel is given either as a series or as a function of no arguments
    that draws it; the function runs the first time snl_channel is read, so
    a caller that takes its SNL from another readout never pays for it.
    """

    def __init__(self, signal_channel, snl_channel):
        self.signal_channel = signal_channel
        self._snl = snl_channel

    @property
    def snl_channel(self):
        if callable(self._snl):
            self._snl = self._snl()
        return self._snl


def _scaled_white(scale, n, seed, source):
    """scale * white_series from the (seed, source) substream, scaled in place."""
    series = white_series(n, _substream(seed, source))
    series *= scale
    return series


def mz_measure(traces, mode, ifc, chain, seed):
    """Push one joint combination through the modeled measurement chain.

    mode 'amplitude' reads the amplitude-difference combination, 'phase' the
    phase-sum combination.  The chain applies the interferometer sensitivity
    sin(theta/2), mixes in vacuum by the mode-match weight, adds the excess
    phase noise (phase mode only), and overlays the electronics floor; the
    returned snl_channel is an independent vacuum trace through the same
    electronics, so its PSD defines the measured SNL.  It is drawn when first
    read.
    """
    ifc.validate()
    if mode == "amplitude":
        series = traces.xminus
    elif mode == "phase":
        series = traces.yplus
    else:
        raise DomainError(f"unknown measurement mode {mode!r}")
    if series is None:
        raise ConfigurationError(f"trace set lacks the {mode} combination series")

    # Each stage scales and adds in place: the same products and sums as
    # a * signal + b * noise, without a full-length temporary per term.
    n = len(series)
    signal = math.sin(ifc.rf_sideband_phase / 2.0) * series

    mu = chain.mode_match
    if mu < 1.0:
        signal *= math.sqrt(mu)
        signal += _scaled_white(math.sqrt(1.0 - mu), n, seed, f"{mode}:mode_match_vacuum")
    if mode == "phase" and chain.excess_phase_noise > 0:
        signal += _scaled_white(math.sqrt(chain.excess_phase_noise), n, seed,
                                "phase:excess_noise")

    enl = chain.enl
    signal *= math.sqrt(1.0 - enl)
    signal += _scaled_white(math.sqrt(enl), n, seed, f"{mode}:electronics_signal")

    def draw_snl():
        snl = _scaled_white(math.sqrt(1.0 - enl), n, seed, f"{mode}:snl_vacuum")
        snl += _scaled_white(math.sqrt(enl), n, seed, f"{mode}:electronics_reference")
        return snl

    return MzReadout(signal_channel=signal, snl_channel=draw_snl)


def electronics_floor_series(enl, n, seed, source="enl"):
    """Electronics noise alone, at PSD enl relative to the measured SNL."""
    if not 0 <= enl < 1:
        raise DomainError("electronics noise level must be in [0, 1)")
    return _scaled_white(math.sqrt(enl), n, seed, source)
