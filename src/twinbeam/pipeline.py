"""The detection chain of one synthetic experiment: how a trace is made and read.

channel_psds is the chain's forward model: the PSD of each measured
channel of a trace (TRACE_CHANNELS), relative to the shot-noise limit.
The chain's noise sources (the quadrature combination, the mode-match
vacuum, excess noise, the electronics) are independent stationary
Gaussians, so each channel is itself a stationary Gaussian series with
that PSD, and trace_channels shapes it as one from its own stream.
trace_channels, the one function that samples the PSDs, warns when the
sample rate truncates the cavity's spectra; channel_psds and
expected_readings, which evaluate them at given frequencies, do not.
readings is the one reading step: it makes each channel's Welch
estimate at the analysis frequency f0 and reads it relative to the
shot-noise reference, as a spectrum analyzer does, and expected_readings
gives the readings' closed form.  `twinbeam synth`, `twinbeam analyze`,
demos/synthetic_experiment.py and the seed-sweep tests all go through
these functions.
"""

import math
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
    electronics (1), enl the floor alone.  A psd takes any frequency, so
    no sample rate is checked here: trace_channels, which samples the
    psds, warns of one that truncates the cavity's spectra.
    """
    params, enl = run_config.nopo, run_config.enl

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
    """{name: synth.BlockSeries} for each of TRACE_CHANNELS, in that order.

    Each channel is shaped from its own (seed, name) stream as its blocks
    are read, so the channels can be read at once on separate threads.
    Warns, naming the caller's line, when the sample rate truncates the
    cavity's spectra.
    """
    psds = channel_psds(run_config)
    cfg, bandwidth = run_config.synth, run_config.nopo.cavity_bandwidth
    if cfg.sample_rate / 2.0 < 2.0 * bandwidth:
        warnings.warn(f"Nyquist {cfg.sample_rate / 2.0:.3g} Hz below twice the cavity "
                      f"bandwidth {bandwidth:.3g} Hz; spectra will be truncated", stacklevel=2)
    return {name: synth.colored_gaussian_series(psds[name], cfg.sample_rate, cfg.num_samples,
                                                cfg.seed, source=name)
            for name in TRACE_CHANNELS}


def readings(channels, sample_rate, run_config):
    """The analyzer readings at the config's f0 from {name: series} holding TRACE_CHANNELS.

    Each channel is an array or a series.BlockSeries sampled at
    sample_rate.  Its Welch estimate (dsp.welch_psd with the config's
    analyzer settings) is made at the bin nearest f0 alone, in
    TRACE_CHANNELS order.  Returns amplitude_db, phase_db and enl_db, each
    in dB relative to the snl estimate, and that estimate's num_averages.
    enl_db is None when the electronics floor reads zero power (chain.enl
    0): there is no floor to correct for.  Each reading's standard error,
    *_db_stderr, is that of a ratio of two independent estimates of
    num_averages averages each, 10/ln10 * sqrt(2/num_averages) dB (None
    where the reading is None).  Raises DomainError if the snl channel, or
    a signal channel, reads zero power at f0: its reading would be -inf.
    """
    f0 = run_config.analysis_frequency
    # dsp.welch_psd is looked up at each call, so a wrapper set on dsp sees every estimate
    estimates = {name: dsp.welch_psd(channels[name], sample_rate, run_config.analyzer, f0)
                 for name in TRACE_CHANNELS}
    reference = estimates["snl"]
    where = f"{reference.frequencies[0]:.6g} Hz"
    if reference.psd[0] <= 0:
        raise DomainError(f"reference power is zero at {where}")

    def db(name):
        measured = estimates[name].psd[0]
        if measured <= 0:
            raise DomainError(f"measured power is zero at {where}")
        return 10.0 * math.log10(measured / reference.psd[0])

    enl_db = None if estimates["enl"].psd[0] <= 0 else db("enl")
    stderr = 10.0 / math.log(10.0) * math.sqrt(2.0 / reference.num_averages)
    return {
        "amplitude_db": db("amp_signal"),
        "amplitude_db_stderr": stderr,
        "phase_db": db("phase_signal"),
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
