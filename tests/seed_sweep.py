"""Shared pieces of the seed-sweep gates: the bounds, and the sweep itself.

A gate runs one config over many seeds and bounds the z-scores of its
readings against their closed form.  mean_bound and sd_bounds give the
two-sided limits at false-alarm rate alpha for n independent z-scores;
sweep gives the readings, through pipeline.readings as analyze makes them.
"""

import copy
import math

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
        out.append(pipeline.readings(dict(pipeline.trace_channels(cfg)),
                                     cfg.synth.sample_rate, cfg))
    return out
