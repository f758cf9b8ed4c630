"""End-to-end synthetic twin-beam experiment, library edition.

Synthesizes the amplitude-difference and phase-sum noise of the two beams,
pushes them through the self-homodyne / Mach-Zehnder detection chains with
a realistic electronics floor, reads the dips off an emulated spectrum
analyzer, corrects for the electronics, and certifies entanglement.

The chain is twinbeam.pipeline, the one the command line runs as
``twinbeam synth`` / ``twinbeam analyze`` / ``twinbeam certify``, set up
from the same config document; this script keeps the channels in float64
instead of writing a float32 trace file.
"""

from twinbeam import (
    AnalyzerSettings, QuadratureVariancePair, correct_for_electronic_noise,
    duan_certify, from_db, pipeline, welch_psd,
)
from twinbeam.config import parse_config

# output coupling 0.84, pump at 1.38x threshold, 24.7 MHz cavity bandwidth,
# detection efficiency 0.88; electronics floor 0.4074 (-3.9 dB rel SNL)
CONFIG = {
    "version": "twinbeam-config/2",
    "nopo": {
        "transmission": 0.84, "intracavity_loss": 0.16,
        "cavity_bandwidth_hz": 24.7e6,
        "pump_power": 1.9044, "threshold_power": 1.0,
        "detection_efficiency": 0.88,
    },
    "synth": {"sample_rate_hz": 1e8, "num_samples": 2 ** 22, "seed": 7},
    "chain": {
        "enl": 0.4074,
        "amplitude": {"mode_match": 1.0, "excess_noise": 0.0},
        "phase": {"mode_match": 0.90, "excess_noise": 0.04},
    },
    "analyzer": {"rbw_hz": 150e3, "vbw_hz": 2.0},
    # the arm difference is tuned so 20 MHz sidebands carry the phase quadrature
    "interferometer": {"analysis_frequency_hz": 20e6},
}

run = parse_config(CONFIG)
sample_rate = run.synth.sample_rate
f0 = run.interferometer.analysis_frequency
print(f"arm length difference = {run.interferometer.arm_length_difference:.4f} m")

# 1-2. synthesize the two combinations and detect them: direct difference
#      for amplitude, unbalanced Mach-Zehnder for phase, plus the shot-noise
#      reference and the electronics floor
# 3.   spectrum-analyzer emulation: 150 kHz RBW, 2 Hz VBW, Hann window
settings = AnalyzerSettings(**run.analyzer)
estimates = {name: welch_psd(channel.array(), sample_rate, settings)
             for name, channel in pipeline.trace_channels(run)}
readings = pipeline.readings(estimates, f0)
print(f"averaged segments     = {readings['num_averages']}")
for name, key in (("amplitude", "amplitude_db"), ("phase", "phase_db"),
                  ("electronics", "enl_db")):
    print(f"raw {name:<11} reading = {readings[key]:+.2f} dB rel SNL")

# 4. remove the electronics floor and certify
enl = from_db(readings["enl_db"])
vx = correct_for_electronic_noise(from_db(readings["amplitude_db"]), enl)
vy = correct_for_electronic_noise(from_db(readings["phase_db"]), enl)
verdict = duan_certify(QuadratureVariancePair(vx, vy))
print(f"corrected variances   = ({vx:.3f}, {vy:.3f})")
print(f"Duan sum              = {verdict.total:.3f}  "
      f"({'entangled' if verdict.entangled else 'separable'}, bound 2)")
