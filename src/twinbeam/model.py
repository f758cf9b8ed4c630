"""Closed-form physics of above-threshold twin beams.

Everything here is a pure function: parameter derivations, the analytic
intensity-difference / phase-sum noise spectra of a non-degenerate OPO
above threshold, dB bookkeeping relative to the shot noise limit (SNL),
the electronic-noise correction, the mode-matching vacuum admixture, the
unbalanced-interferometer geometry conditions, and the Duan inseparability
verdict.  All noise powers are linear and normalized so that the SNL of
each quadrature combination equals 1.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import BelowThresholdError, ConfigurationError, DomainError, InfeasibleMeasurementError

SPEED_OF_LIGHT = 299792458.0  # m/s, exact by definition


# ---------------------------------------------------------------------------
# parameter derivations

def output_coupling_efficiency(transmission, intracavity_loss):
    """Fraction of the intracavity field usefully extracted: T / (T + loss)."""
    if transmission <= 0:
        raise DomainError(f"mirror transmission must be positive, got {transmission}")
    if intracavity_loss < 0:
        raise DomainError(f"intracavity loss must be nonnegative, got {intracavity_loss}")
    return transmission / (transmission + intracavity_loss)


def pump_parameter(pump_power, threshold_power):
    """How far above oscillation threshold the pump sits: sqrt(P / P_threshold)."""
    if threshold_power <= 0:
        raise DomainError(f"threshold power must be positive, got {threshold_power}")
    if pump_power < threshold_power:
        raise BelowThresholdError(
            f"pump power {pump_power} below threshold {threshold_power}; "
            "the above-threshold model does not apply")
    return math.sqrt(pump_power / threshold_power)


@dataclass(frozen=True)
class NopoParams:
    """Physical parameters of the NOPO cavity and detection.

    Powers may be in any consistent unit (only their ratio matters);
    cavity_bandwidth is in Hz.
    """
    transmission: float
    intracavity_loss: float
    cavity_bandwidth: float
    pump_power: float
    threshold_power: float
    detection_efficiency: float

    def __post_init__(self):
        if self.transmission <= 0 or self.intracavity_loss < 0:
            raise DomainError("need transmission > 0 and intracavity_loss >= 0")
        if self.cavity_bandwidth <= 0:
            raise DomainError(f"cavity bandwidth must be positive, got {self.cavity_bandwidth}")
        if not 0 < self.detection_efficiency <= 1:
            raise DomainError(
                f"detection efficiency must be in (0, 1], got {self.detection_efficiency}")
        if self.threshold_power <= 0:
            raise DomainError("threshold power must be positive")
        if self.pump_power <= self.threshold_power:
            raise BelowThresholdError(
                f"pump power {self.pump_power} not above threshold {self.threshold_power}")

    @property
    def output_coupling(self):
        return output_coupling_efficiency(self.transmission, self.intracavity_loss)

    @property
    def pump_ratio(self):
        return pump_parameter(self.pump_power, self.threshold_power)

    @classmethod
    def from_derived(cls, output_coupling, pump_ratio, cavity_bandwidth, detection_efficiency):
        """Build params directly from the derived quantities (exact back-solve)."""
        if not 0 < output_coupling <= 1:
            raise DomainError(f"output coupling must be in (0, 1], got {output_coupling}")
        return cls(
            transmission=output_coupling,
            intracavity_loss=1.0 - output_coupling,
            cavity_bandwidth=cavity_bandwidth,
            pump_power=pump_ratio ** 2,
            threshold_power=1.0,
            detection_efficiency=detection_efficiency,
        )


# ---------------------------------------------------------------------------
# analytic noise spectra (SNL = 1)

def intensity_diff_psd(f, efficiency_product, bandwidth):
    """Low-level Lorentzian dip of the amplitude-difference combination."""
    f = np.asarray(f, dtype=float)
    out = 1.0 - efficiency_product / (1.0 + (f / bandwidth) ** 2)
    return out if out.ndim else float(out)


def phase_sum_psd(f, efficiency_product, bandwidth, pump_ratio):
    """Low-level dip of the phase-sum combination, valid above threshold only."""
    f = np.asarray(f, dtype=float)
    out = 1.0 - efficiency_product / (pump_ratio ** 2 + (f / bandwidth) ** 2)
    return out if out.ndim else float(out)


def intensity_diff_spectrum(params, f):
    """Amplitude-difference noise power at analysis frequency f, relative to SNL=1."""
    if np.any(np.asarray(f) < 0):
        raise DomainError("analysis frequency must be nonnegative")
    product = params.detection_efficiency * params.output_coupling
    return intensity_diff_psd(f, product, params.cavity_bandwidth)


def phase_sum_spectrum(params, f):
    """Phase-sum noise power at analysis frequency f, relative to SNL=1."""
    if np.any(np.asarray(f) < 0):
        raise DomainError("analysis frequency must be nonnegative")
    ratio = params.pump_ratio
    if ratio <= 1:
        raise BelowThresholdError("phase-sum spectrum defined above threshold only")
    product = params.detection_efficiency * params.output_coupling
    return phase_sum_psd(f, product, params.cavity_bandwidth, ratio)


# ---------------------------------------------------------------------------
# dB bookkeeping

def db_rel_snl(value):
    """Linear power relative to SNL -> decibels (negative means below the SNL)."""
    if np.any(np.asarray(value) <= 0):
        raise DomainError("relative power must be positive for a dB reading")
    out = 10.0 * np.log10(value)
    return out if np.ndim(out) else float(out)


def from_db(db):
    """Inverse of db_rel_snl."""
    out = 10.0 ** (np.asarray(db, dtype=float) / 10.0)
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# detection-chain corrections

def with_electronic_noise(value, enl):
    """Forward map of an additive electronics floor shared by trace and SNL reference."""
    if not 0 <= enl < 1:
        raise DomainError(f"electronics noise level must be in [0, 1), got {enl}")
    return value * (1.0 - enl) + enl


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


def mode_match_penalty(value, mode_match):
    """Vacuum admixture from imperfect spatial overlap at the recombiner."""
    if not 0 < mode_match <= 1:
        raise DomainError(f"mode-matching efficiency must be in (0, 1], got {mode_match}")
    if value <= 0:
        raise DomainError("noise power must be positive")
    return mode_match * value + (1.0 - mode_match)


def remove_mode_match_penalty(value, mode_match):
    """Inverse of mode_match_penalty, for de-embedding a known overlap."""
    if not 0 < mode_match <= 1:
        raise DomainError(f"mode-matching efficiency must be in (0, 1], got {mode_match}")
    corrected = (value - (1.0 - mode_match)) / mode_match
    if corrected <= 0:
        raise InfeasibleMeasurementError(
            f"reading {value} below the vacuum admixture floor for overlap {mode_match}")
    return corrected


# ---------------------------------------------------------------------------
# entanglement certification

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
    """Inseparability test: variance sum strictly below 2 certifies entanglement."""
    total = pair.amplitude_diff_variance + pair.phase_sum_variance
    return DuanVerdict(total=total, entangled=total < 2.0)


# ---------------------------------------------------------------------------
# unbalanced-interferometer geometry

def arm_length_difference(f):
    """Arm-length imbalance that puts the rf sideband phase at pi: c / (2 f)."""
    if f <= 0:
        raise DomainError(f"analysis frequency must be positive, got {f}")
    return SPEED_OF_LIGHT / (2.0 * f)


def rf_phase(delta_length, f):
    """Phase accumulated by the rf sideband over the arm imbalance: 2 pi f dL / c."""
    if delta_length <= 0 or f <= 0:
        raise DomainError("arm-length difference and frequency must be positive")
    return 2.0 * math.pi * f * delta_length / SPEED_OF_LIGHT


def _wrapped_offset(angle, target):
    """Signed distance from angle to target, wrapped into (-pi, pi]."""
    return (angle - target + math.pi) % (2.0 * math.pi) - math.pi


@dataclass(frozen=True)
class InterferometerConfig:
    """Locked operating point of one unbalanced Mach-Zehnder interferometer."""
    analysis_frequency: float
    arm_length_difference: float
    dc_phase: float = math.pi / 2.0
    theta_tol: float = 0.05
    phi_tol: float = 0.05

    def __post_init__(self):
        if self.analysis_frequency <= 0 or self.arm_length_difference <= 0:
            raise DomainError("analysis frequency and arm-length difference must be positive")

    @classmethod
    def matched(cls, analysis_frequency, **kwargs):
        """Config with the arm imbalance tuned exactly to the analysis frequency."""
        return cls(
            analysis_frequency=analysis_frequency,
            arm_length_difference=arm_length_difference(analysis_frequency),
            **kwargs,
        )

    @property
    def rf_sideband_phase(self):
        return rf_phase(self.arm_length_difference, self.analysis_frequency)

    def validate(self):
        """Raise ConfigurationError naming the violated lock condition, if any."""
        theta_err = abs(_wrapped_offset(self.rf_sideband_phase, math.pi))
        if theta_err > self.theta_tol:
            raise ConfigurationError(
                f"rf sideband phase off pi by {theta_err:.4f} rad "
                f"(tolerance {self.theta_tol}); condition 'theta' violated")
        phi_err = abs(_wrapped_offset(self.dc_phase, math.pi / 2.0))
        if phi_err > self.phi_tol:
            raise ConfigurationError(
                f"dc phase off pi/2 by {phi_err:.4f} rad "
                f"(tolerance {self.phi_tol}); condition 'phi' violated")
