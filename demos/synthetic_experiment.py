"""End-to-end synthetic twin-beam experiment, library edition.

Synthesizes quadrature time series for both beams, pushes them through
the self-homodyne / Mach-Zehnder detection chains with a realistic
electronics floor, reads the dips off an emulated spectrum analyzer,
corrects for the electronics, and certifies entanglement.

The same pipeline is available from the command line as
``twinbeam synth`` / ``twinbeam analyze`` / ``twinbeam certify``.
"""

import numpy as np

from twinbeam import (
    AnalyzerSettings, DetectionChain, InterferometerConfig, NopoParams,
    QuadratureVariancePair, SynthConfig, band_power_rel_snl,
    correct_for_electronic_noise, duan_certify, electronics_floor_series,
    from_db, mz_measure, synthesize_twin_beams, welch_psd,
)

SAMPLE_RATE = 100e6
NUM_SAMPLES = 2 ** 22
ANALYSIS_FREQ = 20e6
ENL = 0.4074  # electronics floor, -3.9 dB below the shot-noise limit

params = NopoParams.from_derived(
    output_coupling=0.84, pump_ratio=1.38,
    cavity_bandwidth=24.7e6, detection_efficiency=0.88)

# 1. synthesize correlated quadrature series for the two beams
cfg = SynthConfig(sample_rate=SAMPLE_RATE, num_samples=NUM_SAMPLES, seed=7)
traces = synthesize_twin_beams(params, cfg)

# 2. detect: direct difference for amplitude, unbalanced Mach-Zehnder
#    (arm difference tuned so 20 MHz sidebands carry the phase quadrature)
ifc = InterferometerConfig.matched(ANALYSIS_FREQ)
print(f"arm length difference = {ifc.arm_length_difference:.4f} m")
amp_chain = DetectionChain(mode_match=1.0, enl=ENL)
phase_chain = DetectionChain(mode_match=0.90, enl=ENL, excess_phase_noise=0.04)
amp = mz_measure(traces, "amplitude", ifc, amp_chain, seed=cfg.seed)
phase = mz_measure(traces, "phase", ifc, phase_chain, seed=cfg.seed)
enl_trace = electronics_floor_series(ENL, NUM_SAMPLES, seed=cfg.seed)

# 3. spectrum-analyzer emulation: 150 kHz RBW, 2 Hz VBW, Hann window
settings = AnalyzerSettings(rbw=150e3, vbw=2.0)
reference = welch_psd(amp.snl_channel, SAMPLE_RATE, settings)
readings = {
    name: band_power_rel_snl(welch_psd(series, SAMPLE_RATE, settings),
                             reference, ANALYSIS_FREQ)
    for name, series in [("amplitude", amp.signal_channel),
                         ("phase", phase.signal_channel),
                         ("electronics", enl_trace)]
}
print(f"averaged segments     = {reference.num_averages}")
for name, db in readings.items():
    print(f"raw {name:<11} reading = {db:+.2f} dB rel SNL")

# 4. remove the electronics floor and certify
enl = from_db(readings["electronics"])
vx = correct_for_electronic_noise(from_db(readings["amplitude"]), enl)
vy = correct_for_electronic_noise(from_db(readings["phase"]), enl)
verdict = duan_certify(QuadratureVariancePair(vx, vy))
print(f"corrected variances   = ({vx:.3f}, {vy:.3f})")
print(f"Duan sum              = {verdict.total:.3f}  "
      f"({'entangled' if verdict.entangled else 'separable'}, bound 2)")
