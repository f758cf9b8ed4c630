"""The detection chain of one synthetic experiment: how a trace is made and read.

trace_channels makes the four measured channels of a trace
(TRACE_CHANNELS) from a RunConfig: the amplitude-difference and phase-sum
combinations, each through its interferometer chain, the shot-noise
reference and the electronics floor.  readings turns the channels' Welch
estimates into the analyzer readings relative to the shot-noise
reference.  `twinbeam synth`, `twinbeam analyze` and
demos/synthetic_experiment.py all go through these two functions.
"""

from . import dsp, synth
from .errors import DomainError

TRACE_CHANNELS = ("amp_signal", "phase_signal", "snl", "enl")


def trace_channels(run_config):
    """Yield (name, synth.BlockSeries) for each of TRACE_CHANNELS.

    The noise-only channels come first.  The signal channels follow, each
    as soon as its combination is shaped: advancing the generator past the
    amplitude channel shapes yplus.  xminus comes first: its chain is the
    shorter one, so xminus is freed before yplus's inverse FFT peaks.  Each
    channel's blocks must be taken before the generator is advanced.
    """
    seed, n = run_config.synth.seed, run_config.synth.num_samples
    combinations = synth.measured_combinations(run_config.nopo, run_config.synth)
    yield "snl", synth.mz_reference(n, "amplitude", run_config.amplitude_chain, seed)
    yield "enl", synth.electronics_floor(run_config.enl, n, seed)
    measured = {"xminus": ("amp_signal", "amplitude", run_config.amplitude_chain),
                "yplus": ("phase_signal", "phase", run_config.phase_chain)}
    for combination, series in combinations:
        name, mode, chain = measured[combination]
        stream = synth.BlockSeries.of(series)
        yield name, synth.mz_signal(stream, mode, run_config.interferometer, chain, seed)
        # Only the consumer holds the combination while the next is shaped.
        del series, stream


def readings(estimates, f0):
    """The analyzer readings at f0 from {channel: dsp.SpectrumEstimate}.

    Returns amplitude_db, phase_db and enl_db, each in dB relative to the
    snl estimate, and that estimate's num_averages.  enl_db is None when
    the electronics floor reads zero power (chain.enl 0): there is no floor
    to correct for.
    """
    reference = estimates["snl"]
    amplitude_db = dsp.band_power_rel_snl(estimates["amp_signal"], reference, f0)
    # The reading above accepted the grid and the reference, so a DomainError
    # here can only be the floor's zero power.
    try:
        enl_db = dsp.band_power_rel_snl(estimates["enl"], reference, f0)
    except DomainError:
        enl_db = None
    return {
        "amplitude_db": amplitude_db,
        "phase_db": dsp.band_power_rel_snl(estimates["phase_signal"], reference, f0),
        "enl_db": enl_db,
        "num_averages": reference.num_averages,
    }
