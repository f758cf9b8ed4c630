"""Recover the physical parameters from noisy measured spectra.

Generates amplitude-difference and phase-sum spectra on a 64-point
grid, adds multiplicative measurement noise, and fits the forward model
(efficiency product, cavity bandwidth, pump ratio) with the built-in
Levenberg-Marquardt routine.  Detection efficiency and output coupling
only ever appear as a product in the model, so that product is what the
fit reports.
"""

import numpy as np

from twinbeam import model
from twinbeam.fit import FitProblem, fit_spectra

rng = np.random.default_rng(42)

TRUTH = {"efficiency_product": 0.88 * 0.84, "bandwidth": 24.7e6, "pump_ratio": 1.38}
freqs = np.linspace(1e6, 80e6, 64)
s_i = model.intensity_diff_psd(freqs, TRUTH["efficiency_product"], TRUTH["bandwidth"])
s_p = model.phase_sum_psd(freqs, TRUTH["efficiency_product"], TRUTH["bandwidth"],
                          TRUTH["pump_ratio"])

# 1% multiplicative noise, roughly what a few thousand analyzer averages give
noisy_i = s_i * (1 + 0.01 * rng.standard_normal(freqs.size))
noisy_p = s_p * (1 + 0.01 * rng.standard_normal(freqs.size))

result = fit_spectra(FitProblem(freqs, noisy_i, noisy_p))
sigma = np.sqrt(np.diag(result.covariance))

print(f"converged in {result.iterations} function evaluations, "
      f"residual norm {result.residual_norm:.3e}")
names = ("efficiency_product", "bandwidth", "pump_ratio")
values = (result.efficiency_product, result.bandwidth, result.pump_ratio)
for name, value, err in zip(names, values, sigma):
    truth = TRUTH[name]
    print(f"{name:<19} = {value:12.5g} +- {err:.2g}   "
          f"(truth {truth:g}, off by {100 * (value / truth - 1):+.2f}%)")

# With only the amplitude channel the pump ratio drops out of the model
# entirely; the fit flags it rather than inventing a value.
amp_only = fit_spectra(FitProblem(freqs, noisy_i, None))
print(f"amplitude-only fit: pump_ratio={amp_only.pump_ratio}, "
      f"unidentifiable={amp_only.unidentifiable}")
