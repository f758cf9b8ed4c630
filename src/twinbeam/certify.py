"""The arithmetic of `twinbeam certify`: dB to linear, the chain corrections
and the Duan inseparability verdict.

Every reading here is one float, so the module needs no numpy, and
`twinbeam certify` starts without loading it.  model imports these names
back, beside the spectra they correct.
"""

import math
from dataclasses import dataclass

from .errors import DomainError, InfeasibleMeasurementError


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
        raise InfeasibleMeasurementError(
            f"measured power {measured} at or below the electronics floor {enl}")
    return (measured - enl) / (1.0 - enl)


def remove_mode_match_penalty(value, mode_match):
    """Inverse of model.mode_match_penalty, for de-embedding a known overlap."""
    if not 0 < mode_match <= 1:
        raise DomainError(f"mode-matching efficiency must be in (0, 1], got {mode_match}")
    corrected = (value - (1.0 - mode_match)) / mode_match
    if corrected <= 0:
        raise InfeasibleMeasurementError(
            f"reading {value} below the vacuum admixture floor for overlap {mode_match}")
    return corrected


@dataclass(frozen=True)
class QuadratureVariancePair:
    """Joint-combination variances, each relative to its own SNL of 1."""
    amplitude_diff_variance: float
    phase_sum_variance: float

    def __post_init__(self):
        for value in (self.amplitude_diff_variance, self.phase_sum_variance):
            if not (math.isfinite(value) and value > 0):
                raise DomainError(f"variances must be finite and positive, got {value}")


@dataclass(frozen=True)
class DuanVerdict:
    """Outcome of the inseparability test: total < 2 certifies entanglement."""
    total: float
    entangled: bool


def duan_certify(pair):
    """Inseparability test: variance sum strictly below 2 certifies entanglement.

    Raises InfeasibleMeasurementError if the sum overflows a float.
    """
    total = pair.amplitude_diff_variance + pair.phase_sum_variance
    if not math.isfinite(total):
        raise InfeasibleMeasurementError(f"variance sum {pair.amplitude_diff_variance} + "
                                         f"{pair.phase_sum_variance} overflows a float")
    return DuanVerdict(total=total, entangled=total < 2.0)
