"""Twin-beam NOPO noise toolkit.

Analytic above-threshold quadrature spectra, seeded stochastic synthesis of
each measured channel from its detection-chain PSD (short-kernel shaping,
streamed in blocks), spectrum-analyzer emulation with RBW/VBW semantics,
electronic-noise correction, Duan entanglement certification, and nonlinear
least-squares spectrum fitting.

The package-level names below are imported from their modules on first use,
so `import twinbeam` alone loads no numpy.
"""

import importlib

_NAMES = {
    "certify": ("DuanVerdict", "QuadratureVariancePair", "correct_for_electronic_noise",
                "duan_certify", "from_db", "remove_mode_match_penalty"),
    "model": ("SPEED_OF_LIGHT", "NopoParams", "arm_length_difference", "db_rel_snl",
              "intensity_diff_spectrum", "mode_match_penalty", "output_coupling_efficiency",
              "phase_sum_spectrum", "pump_parameter", "rf_phase", "with_electronic_noise"),
    "synth": ("DetectionChain", "SynthConfig", "colored_gaussian_series"),
    "dsp": ("AnalyzerSettings", "SpectrumEstimate", "band_power_rel_snl", "welch_psd"),
    "fit": ("FitProblem", "FitResult", "fit_spectra"),
}
_MODULE_OF = {name: module for module, names in _NAMES.items() for name in names}
__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)


def __dir__():
    return sorted([*globals(), *__all__])
