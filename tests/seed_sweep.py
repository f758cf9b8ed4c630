"""Shared pieces of the seed-sweep gates: the bounds, and the sweep itself.

A gate runs one config over many seeds and bounds the z-scores of its
readings against their closed form.  mean_bound and sd_bounds give the
two-sided limits at false-alarm rate alpha for n independent z-scores;
independent_bins counts what n adjacent bins of one Welch estimate are
worth as such; sweep gives the readings, through pipeline.readings as
analyze makes them.
"""

import copy
import math

import numpy as np
from scipy import stats

from twinbeam import pipeline
from twinbeam.config import parse_config


def mean_bound(n, alpha):
    """The two-sided limit on |mean z| of n standard normal z-scores at rate alpha."""
    return stats.norm.ppf(1.0 - alpha / 2.0) / math.sqrt(n)


def sd_bounds(n, alpha):
    """The two-sided limits on the sample sd (ddof 1) of n standard normal z-scores.

    They are sqrt(chi^2(n - 1) / (n - 1)) at alpha/2 and 1 - alpha/2.
    """
    return tuple(math.sqrt(stats.chi2.ppf(q, n - 1) / (n - 1))
                 for q in (alpha / 2.0, 1.0 - alpha / 2.0))


def independent_bins(n, length):
    """The count of independent z-scores whose mean varies as that of n adjacent Welch bins.

    The estimate is dsp.welch_psd's: Hann segments of length samples at 50%
    overlap, with the video filter's weights equal from one segment to the
    next (to 1e-4 at the reference config).  For a Gaussian series whose PSD
    is flat over a few bins, away from DC and Nyquist, the z-scores
    (estimate / psd - 1) sqrt(num_averages) of bins D apart covary as
    g(D) = sum over d = -1, 0, 1 of |sum_t w_t w_(t + d hop) e^(-2 pi i D t / L)|^2
    / (sum_t w_t^2)^2: the segments d apart, the only ones that overlap.  The
    mean of n of them has variance sum over |D| < n of (n - |D|) g(D) / n^2,
    and the count is its inverse, so mean_bound(count, alpha) bounds that mean.
    g(0) is Welch's overlap factor, 1.055 for Hann at 50%.
    """
    win = np.hanning(length)
    hop = length // 2
    same, adjacent = np.fft.fft(win ** 2), np.fft.fft(win[:length - hop] * win[hop:], length)
    g = (np.abs(same[:n]) ** 2 + 2.0 * np.abs(adjacent[:n]) ** 2) / (win @ win) ** 2
    lags = np.arange(1, n)
    return n ** 2 / (n * g[0] + 2.0 * np.sum((n - lags) * g[1:]))


def sweep(doc, seeds, num_samples):
    """pipeline.readings of the config document doc at num_samples samples, per seed.

    Each seed's channels are shaped as synth shapes them and streamed into
    their f0 estimates, so no channel is held whole.  Returns one readings
    dict per seed, in the order of seeds.
    """
    doc = copy.deepcopy(doc)
    doc["synth"]["num_samples"] = num_samples
    out = []
    for seed in seeds:
        doc["synth"]["seed"] = seed
        cfg = parse_config(doc)
        out.append(pipeline.readings(pipeline.trace_channels(cfg), cfg.synth.sample_rate, cfg))
    return out
