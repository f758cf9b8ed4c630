"""The detection chain of one synthetic experiment: how a trace is made and read.

channel_psds is the chain's forward model: the PSD of each measured
channel of a trace (TRACE_CHANNELS), relative to the shot-noise limit.
The chain's noise sources (the quadrature combination, the mode-match
vacuum, excess noise, the electronics) are independent stationary
Gaussians, so each channel is itself a stationary Gaussian series with
that PSD, and trace_channels shapes it as one from its own stream.
readings turns the channels' Welch estimates into the analyzer readings
relative to the shot-noise reference, and expected_readings gives their
closed form.  `twinbeam synth`, `twinbeam analyze` and
demos/synthetic_experiment.py all go through these functions.
"""

import math
import sys
import warnings

import numpy as np

from . import dsp, model, synth
from .errors import DomainError

TRACE_CHANNELS = ("amp_signal", "phase_signal", "snl", "enl")


def channel_psds(run_config):
    """{channel: psd(f)} for each of TRACE_CHANNELS, linear and relative to the SNL.

    amp_signal reads the amplitude-difference combination and phase_signal
    the phase-sum one, each through its chain: the mode-match vacuum, the
    excess noise and the electronics floor.  The interferometer, locked at
    the analysis frequency, is taken to pass the phase quadrature whole at
    every frequency.  snl is the shot-noise reference through the same
    electronics (1), enl the floor alone.  Warns, naming the caller's line,
    when the sample rate truncates the cavity's spectra.
    """
    params, enl = run_config.nopo, run_config.enl
    nyquist = run_config.synth.sample_rate / 2.0
    if nyquist < 2.0 * params.cavity_bandwidth:
        # the first line outside this module, also when trace_channels called here
        level, frame = 2, sys._getframe(1)
        while frame.f_globals["__name__"] == __name__:
            level, frame = level + 1, frame.f_back
        warnings.warn(
            f"Nyquist {nyquist:.3g} Hz below twice the cavity bandwidth "
            f"{params.cavity_bandwidth:.3g} Hz; spectra will be truncated",
            stacklevel=level)

    def signal(spectrum, chain):
        def psd(f):
            detected = model.mode_match_penalty(spectrum(params, f), chain.mode_match)
            return model.with_electronic_noise(detected + chain.excess_noise, enl)
        return psd

    return {
        "amp_signal": signal(model.intensity_diff_spectrum, run_config.amplitude_chain),
        "phase_signal": signal(model.phase_sum_spectrum, run_config.phase_chain),
        "snl": np.ones_like,
        "enl": lambda f: np.full_like(f, enl, dtype=float),
    }


def trace_channels(run_config):
    """Yield (name, synth.BlockSeries) for each of TRACE_CHANNELS, in that order.

    Each channel is shaped from its own (seed, name) stream as its blocks
    are read, so the channels can be read at once on separate threads.
    """
    psds = channel_psds(run_config)
    cfg = run_config.synth
    for name in TRACE_CHANNELS:
        yield name, synth.colored_gaussian_series(psds[name], cfg.sample_rate,
                                                  cfg.num_samples, cfg.seed, source=name)


def readings(estimates, f0):
    """The analyzer readings at f0 from {channel: dsp.SpectrumEstimate}.

    Returns amplitude_db, phase_db and enl_db, each in dB relative to the
    snl estimate, and that estimate's num_averages.  enl_db is None when
    the electronics floor reads zero power (chain.enl 0): there is no floor
    to correct for.  Each reading's standard error, *_db_stderr, is that of
    a ratio of two independent estimates of num_averages averages each,
    10/ln10 * sqrt(2/num_averages) dB (None where the reading is None).
    An estimate may hold the whole grid or only the bin nearest f0.
    """
    reference = estimates["snl"]
    amplitude_db = dsp.band_power_rel_snl(estimates["amp_signal"], reference, f0)
    # The reading above accepted the grid and the reference, so a DomainError
    # here can only be the floor's zero power.
    try:
        enl_db = dsp.band_power_rel_snl(estimates["enl"], reference, f0)
    except DomainError:
        enl_db = None
    stderr = 10.0 / math.log(10.0) * math.sqrt(2.0 / reference.num_averages)
    return {
        "amplitude_db": amplitude_db,
        "amplitude_db_stderr": stderr,
        "phase_db": dsp.band_power_rel_snl(estimates["phase_signal"], reference, f0),
        "phase_db_stderr": stderr,
        "enl_db": enl_db,
        "enl_db_stderr": None if enl_db is None else stderr,
        "num_averages": reference.num_averages,
    }


def expected_readings(run_config):
    """The closed form of readings at the config's f0: channel_psds in dB relative to snl.

    enl_db is None when chain.enl is 0, as readings reports it.
    """
    f0 = run_config.analysis_frequency
    psds = channel_psds(run_config)
    reference = float(psds["snl"](f0))

    def db(name):
        value = float(psds[name](f0)) / reference
        return model.db_rel_snl(value) if value > 0 else None

    return {"amplitude_db": db("amp_signal"), "phase_db": db("phase_signal"),
            "enl_db": db("enl")}
