"""Twin-beam NOPO noise toolkit.

Analytic above-threshold quadrature spectra, seeded stochastic synthesis of
each measured channel from its detection-chain PSD (short-kernel shaping,
streamed in blocks), spectrum-analyzer emulation with RBW/VBW semantics,
electronic-noise correction, Duan entanglement certification, and nonlinear
least-squares spectrum fitting.
"""

from .model import (
    SPEED_OF_LIGHT,
    DuanVerdict,
    InterferometerConfig,
    NopoParams,
    QuadratureVariancePair,
    arm_length_difference,
    correct_for_electronic_noise,
    db_rel_snl,
    duan_certify,
    from_db,
    intensity_diff_spectrum,
    mode_match_penalty,
    output_coupling_efficiency,
    phase_sum_spectrum,
    pump_parameter,
    remove_mode_match_penalty,
    rf_phase,
    with_electronic_noise,
)
from .synth import (
    DetectionChain,
    SynthConfig,
    colored_gaussian_series,
)
from .dsp import AnalyzerSettings, SpectrumEstimate, band_power_rel_snl, welch_psd
from .fit import FitProblem, FitResult, fit_spectra

__version__ = "0.1.0"
