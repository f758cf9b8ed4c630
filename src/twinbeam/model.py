"""Closed-form physics of above-threshold twin beams.

Everything here is a pure function or a frozen value: the cavity's
parameters (NopoParams, which derives its output coupling and pump ratio),
the analytic intensity-difference / phase-sum noise spectra of a
non-degenerate OPO above threshold (Fabre et al., J. Phys. France 50, 1209
(1989)), dB bookkeeping relative to the shot noise limit (SNL), the
electronics floor and the mode-matching vacuum admixture, and the geometry
of the unbalanced interferometer locked at the analysis frequency.  All
noise powers are linear and normalized so that the SNL of each quadrature
combination equals 1.
Both spectra are Lorentzian dips, and their terms come from one function,
dip_terms; fit's projection reads its model from there too.
The steps of `twinbeam certify` (from_db, the inverse corrections and the
Duan verdict) are defined in certify, which needs no numpy; model imports
them back under the same names.
"""

import math
from dataclasses import dataclass

import numpy as np

from .certify import QuadratureVariancePair, correct_for_electronic_noise, duan_certify, from_db
from .errors import DomainError

SPEED_OF_LIGHT = 299792458.0  # m/s, exact by definition


# ---------------------------------------------------------------------------
# cavity parameters

@dataclass(frozen=True)
class NopoParams:
    """Physical parameters of the NOPO cavity and detection.

    Powers may be in any consistent unit (only their ratio matters);
    cavity_bandwidth is in Hz.  The two quantities the spectra depend on
    are derived from these: output_coupling and pump_ratio.  A pump whose
    pump_ratio is not above 1 is refused, and so are finite values from
    which either derived quantity would overflow a float, so both spectra
    are defined for every params value.
    """
    transmission: float
    intracavity_loss: float
    cavity_bandwidth: float
    pump_power: float
    threshold_power: float
    detection_efficiency: float

    def __post_init__(self):  # each test is false for nan, so nan is refused too
        # their sum too: past the float range output_coupling would read 0
        if not (0 < self.transmission and 0 <= self.intracavity_loss
                and self.transmission + self.intracavity_loss < math.inf):
            raise DomainError("need transmission > 0 and intracavity_loss >= 0 with a finite sum")
        if not 0 < self.cavity_bandwidth < math.inf:
            raise DomainError(
                f"cavity bandwidth must be positive and finite, got {self.cavity_bandwidth}")
        if not 0 < self.detection_efficiency <= 1:
            raise DomainError(
                f"detection efficiency must be in (0, 1], got {self.detection_efficiency}")
        if not self.threshold_power > 0:
            raise DomainError("threshold power must be positive")
        # the ratio too: just above threshold, sqrt(P / P_th) can round to 1
        if not (self.pump_power > self.threshold_power and self.pump_ratio > 1):
            raise DomainError(
                f"pump power {self.pump_power} not above threshold {self.threshold_power}")
        if not self.pump_ratio < math.inf:  # a finite pump over a tiny threshold overflows too
            raise DomainError(f"pump power {self.pump_power:.6g} over threshold "
                              f"{self.threshold_power:.6g} must be finite")

    @property
    def output_coupling(self):
        """Fraction of the intracavity field usefully extracted: T / (T + loss)."""
        return self.transmission / (self.transmission + self.intracavity_loss)

    @property
    def pump_ratio(self):
        """How far above oscillation threshold the pump sits: sqrt(P / P_threshold)."""
        return math.sqrt(self.pump_power / self.threshold_power)

    @classmethod
    def from_derived(cls, output_coupling, pump_ratio, cavity_bandwidth, detection_efficiency):
        """Build params directly from the derived quantities (exact back-solve).

        An output coupling outside (0, 1] or a pump ratio not above 1 is
        refused by the checks of the params it gives.
        """
        try:
            pump_power = pump_ratio ** 2
        except OverflowError:  # a float ratio above about 1.3e154
            raise DomainError(f"pump ratio {pump_ratio:.6g} squared overflows") from None
        return cls(
            transmission=output_coupling,
            intracavity_loss=1.0 - output_coupling,
            cavity_bandwidth=cavity_bandwidth,
            pump_power=pump_power,
            threshold_power=1.0,
            detection_efficiency=detection_efficiency,
        )


# ---------------------------------------------------------------------------
# analytic noise spectra (SNL = 1)

# Each spectrum is a dip 1 - a / (floor + u^2), with u = f / bandwidth and a
# the efficiency product.  The floor is 1 for the amplitude difference and
# s^2, s the pump ratio, for the phase sum, so the two dips coincide at
# threshold.  Far above the bandwidth u^2 overflows to inf, which gives each
# PSD its exact limit 1, so the overflow is not reported.  So does the
# square of a pump ratio above about 1.3e154, taken as a float64 because a
# Python float's ** 2 raises OverflowError there (both round alike).

def dip_terms(f, bandwidth, floor):
    """The terms of a dip at frequencies f: u^2 = (f / bandwidth)^2 and floor + u^2.

    The floor broadcasts against u^2, so a column of floors gives one row
    of denominators per dip: fit's projection asks for both at once.
    """
    u2 = (np.asarray(f, dtype=float) / bandwidth) ** 2
    return u2, floor + u2


def _dip_psd(f, efficiency_product, bandwidth, pump_ratio):
    with np.errstate(over="ignore"):
        out = 1.0 - efficiency_product / dip_terms(f, bandwidth, np.float64(pump_ratio) ** 2)[1]
    return out if out.ndim else float(out)


def intensity_diff_psd(f, efficiency_product, bandwidth):
    """Low-level Lorentzian dip of the amplitude-difference combination."""
    return _dip_psd(f, efficiency_product, bandwidth, 1.0)  # the floor 1 = 1^2, as at threshold


def phase_sum_psd(f, efficiency_product, bandwidth, pump_ratio):
    """Low-level dip of the phase-sum combination, valid above threshold only."""
    return _dip_psd(f, efficiency_product, bandwidth, pump_ratio)


def _spectrum(params, f, pump_ratio):
    """A dip of params at analysis frequencies f, with floor pump_ratio^2."""
    if np.any(np.asarray(f) < 0):
        raise DomainError("analysis frequency must be nonnegative")
    product = params.detection_efficiency * params.output_coupling
    return _dip_psd(f, product, params.cavity_bandwidth, pump_ratio)


def intensity_diff_spectrum(params, f):
    """Amplitude-difference noise power at analysis frequency f, relative to SNL=1."""
    return _spectrum(params, f, 1.0)


def phase_sum_spectrum(params, f):
    """Phase-sum noise power at analysis frequency f, relative to SNL=1."""
    return _spectrum(params, f, params.pump_ratio)


# ---------------------------------------------------------------------------
# dB bookkeeping

def db_rel_snl(value):
    """Linear power relative to SNL -> decibels (negative means below the SNL)."""
    if np.any(np.asarray(value) <= 0):
        raise DomainError("relative power must be positive for a dB reading")
    out = 10.0 * np.log10(value)
    return out if np.ndim(out) else float(out)


# ---------------------------------------------------------------------------
# detection-chain corrections

def with_electronic_noise(value, enl):
    """Forward map of an additive electronics floor shared by trace and SNL reference."""
    if not 0 <= enl < 1:
        raise DomainError(f"electronics noise level must be in [0, 1), got {enl}")
    return value * (1.0 - enl) + enl


def mode_match_penalty(value, mode_match):
    """Vacuum admixture from imperfect spatial overlap at the recombiner, elementwise on arrays.

    A noise power of 0 (s_i at f = 0 of an ideal cavity) maps to the
    vacuum admixture 1 - mode_match alone; a negative one is rejected.
    """
    if not 0 < mode_match <= 1:
        raise DomainError(f"mode-matching efficiency must be in (0, 1], got {mode_match}")
    if np.any(np.asarray(value) < 0):
        raise DomainError("noise power must be nonnegative")
    return mode_match * value + (1.0 - mode_match)


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

