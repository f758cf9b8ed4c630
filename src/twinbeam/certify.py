"""The one path from readings to verdict: dB to linear, the chain corrections
and the Duan inseparability verdict.

analysis_readings checks an analysis object and gives its linear readings;
report corrects them and certifies.  `twinbeam certify` and
demos/synthetic_experiment.py both run these two.  Every reading is one
float, so the module needs no numpy, and `twinbeam certify` starts without
loading it.  Its two value types, QuadratureVariancePair and DuanVerdict,
are named tuples, so it loads no dataclasses, nor inspect through it.
model imports the scalar steps back, beside the spectra.

ARTIFACT names the kind and format version every JSON artifact of the cli
carries under "artifact", such as "twinbeam-analysis/1".  analysis_readings
refuses (UsageError, exit 1) an analysis whose tag names another kind or
version or is not a string; an analysis with no tag, such as one written by
hand, is read as before.
"""

import math
from collections import namedtuple
from reprlib import repr as _brief  # a long outside value prints cut short

from .errors import DomainError, UsageError

SNL_BOUND = 2.0  # the Duan sum of two SNL-limited (separable) variances
ARTIFACT = "twinbeam-{}/1"  # the tag of an artifact of the kind in {}


def from_db(db):
    """Inverse of model.db_rel_snl; a reading too large for a float gives inf."""
    try:
        return 10.0 ** (db / 10.0)
    except OverflowError:
        return math.inf


def correct_for_electronic_noise(measured, enl):
    """Remove the electronics floor from an SNL-relative reading.

    Both the measured trace and the SNL calibration trace contain the same
    additive floor, so the correction subtracts it from numerator and
    denominator of the ratio: (measured - enl) / (1 - enl).
    """
    if not 0 < enl < 1:
        raise DomainError(f"electronics noise level must be in (0, 1), got {enl}")
    if measured <= enl:
        raise DomainError(f"measured power {measured} at or below the electronics floor {enl}")
    return (measured - enl) / (1.0 - enl)


def remove_mode_match_penalty(value, mode_match):
    """Inverse of model.mode_match_penalty, for de-embedding a known overlap."""
    if not 0 < mode_match <= 1:
        raise DomainError(f"mode-matching efficiency must be in (0, 1], got {mode_match}")
    corrected = (value - (1.0 - mode_match)) / mode_match
    if corrected <= 0:
        raise DomainError(
            f"reading {value} below the vacuum admixture floor for overlap {mode_match}")
    return corrected


class QuadratureVariancePair(namedtuple("QuadratureVariancePair",
                                         "amplitude_diff_variance phase_sum_variance")):
    """Joint-combination variances, each relative to its own SNL of 1."""
    __slots__ = ()

    def __new__(cls, amplitude_diff_variance, phase_sum_variance):
        for value in (amplitude_diff_variance, phase_sum_variance):
            if not (math.isfinite(value) and value > 0):
                raise DomainError(f"variances must be finite and positive, got {value}")
        return super().__new__(cls, amplitude_diff_variance, phase_sum_variance)


DuanVerdict = namedtuple("DuanVerdict", "total entangled")
DuanVerdict.__doc__ = "Outcome of the inseparability test: total < 2 certifies entanglement."


def duan_certify(pair):
    """Inseparability test: variance sum strictly below 2 certifies entanglement.

    Raises DomainError if the sum overflows a float.
    """
    total = pair.amplitude_diff_variance + pair.phase_sum_variance
    if not math.isfinite(total):
        raise DomainError(f"variance sum {pair.amplitude_diff_variance} + "
                          f"{pair.phase_sum_variance} overflows a float")
    return DuanVerdict(total=total, entangled=total < SNL_BOUND)


def analysis_readings(analysis):
    """Linear (amplitude, phase, enl or None) from a parsed analysis object.

    amplitude_db and phase_db are required; each of them and enl_db must be
    a float or None, as json.load(..., parse_int=float) reads them, and an
    artifact tag, if present, must be the analysis tag, or UsageError is
    raised.  A None signal reading gives a NaN variance, which report
    rejects; a None or absent enl_db means no floor.
    """
    if not isinstance(analysis, dict):
        raise UsageError("analysis JSON must be an object")
    tag = ARTIFACT.format("analysis")
    if analysis.get("artifact", tag) != tag:
        raise UsageError(f"analysis JSON artifact must be {tag!r}, "
                         f"got {_brief(analysis['artifact'])}")
    for key in ("amplitude_db", "phase_db"):
        if key not in analysis:
            raise UsageError(f"analysis JSON lacks {key!r}")
    keys = ("amplitude_db", "phase_db", "enl_db")
    for key in keys:
        value = analysis.get(key)
        if value is not None and not isinstance(value, float):
            raise UsageError(f"analysis JSON {key} must be a number or null, got {_brief(value)}")
    amplitude, phase, enl = (analysis.get(key) for key in keys)
    return (math.nan if amplitude is None else from_db(amplitude),
            math.nan if phase is None else from_db(phase),
            None if enl is None else from_db(enl))


def report(amplitude, phase, enl=None, mode_match=None):
    """The certify report of linear readings, each relative to the SNL.

    Removes the floor enl from both channels, then de-embeds mode_match
    from the phase channel, skipping a step whose argument is None; records
    each step in "corrections" and certifies the corrected pair.
    """
    variances = {"amplitude": amplitude, "phase": phase}
    corrections = []

    def correct(channel, name, step, argument):
        before, variances[channel] = variances[channel], step(variances[channel], argument)
        corrections.append({"channel": channel, "correction": name,
                            "before": before, "after": variances[channel]})

    if enl is not None:
        correct("amplitude", "electronic_noise", correct_for_electronic_noise, enl)
        correct("phase", "electronic_noise", correct_for_electronic_noise, enl)
    if mode_match is not None:
        correct("phase", "mode_match", remove_mode_match_penalty, mode_match)
    verdict = duan_certify(QuadratureVariancePair(variances["amplitude"], variances["phase"]))
    return {"raw": {"amplitude": amplitude, "phase": phase}, "corrections": corrections,
            "amplitude_diff_variance": variances["amplitude"],
            "phase_sum_variance": variances["phase"], "duan_sum": verdict.total,
            "entangled": verdict.entangled, "snl_bound": SNL_BOUND}
