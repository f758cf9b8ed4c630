"""End-to-end synthetic twin-beam experiment, library edition.

Synthesizes the amplitude-difference and phase-sum noise of the two beams,
pushes them through the self-homodyne / Mach-Zehnder detection chains with
a realistic electronics floor, reads the dips off an emulated spectrum
analyzer, corrects for the electronics, and certifies entanglement.

The chain is twinbeam.pipeline, the one the command line runs as
``twinbeam synth`` / ``twinbeam analyze``, set up from the same config
document; this script hands the channels straight to pipeline.readings,
the reading step analyze runs, instead of writing a float32 trace file,
so each channel's float64 blocks stream into its Welch estimate and no
channel is held whole.  The readings then go through
certify.analysis_readings and certify.report, the one path from readings
to verdict that ``twinbeam certify`` runs.
"""

from twinbeam import certify, model, pipeline
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
print(f"arm length difference = {model.arm_length_difference(run.analysis_frequency):.4f} m")

# 1-2. synthesize the detected channels, each shaped from its chain PSD:
#      direct difference for amplitude, unbalanced Mach-Zehnder for phase,
#      plus the shot-noise reference and the electronics floor
# 3.   spectrum-analyzer emulation: 150 kHz RBW, 2 Hz VBW, Hann window
#      at the f0 bin alone, the one bin read, as `twinbeam analyze` does
readings = pipeline.readings(pipeline.trace_channels(run), run.synth.sample_rate, run)
print(f"averaged segments     = {readings['num_averages']}")
for name, key in (("amplitude", "amplitude_db"), ("phase", "phase_db"),
                  ("electronics", "enl_db")):
    print(f"raw {name:<11} reading = {readings[key]:+.2f} dB rel SNL")

# 4. remove the electronics floor and certify, as `twinbeam certify` does
report = certify.report(*certify.analysis_readings(readings))
print(f"corrected variances   = ({report['amplitude_diff_variance']:.3f}, "
      f"{report['phase_sum_variance']:.3f})")
print(f"Duan sum              = {report['duan_sum']:.3f}  "
      f"({'entangled' if report['entangled'] else 'separable'}, bound {report['snl_bound']:g})")
