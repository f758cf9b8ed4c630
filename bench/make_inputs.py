"""Set-up step of a benchmark run: import twinbeam, then write the workload's inputs.

Run as its own process so that its wall time is what a user pays to start
from nothing: a fresh `import twinbeam`, the config files and the noisy
spectrum CSVs.

    python3 bench/make_inputs.py SPEC.json

SPEC.json holds {"configs": {path: document}, "spectra": [{"out", "seed",
"f_min", "f_max", "num_points", "noise", "efficiency_product",
"bandwidth_hz", "pump_ratio"}]}.
"""

import json
import sys

import numpy as np

from twinbeam import fileio, model


def write_spectrum(spec):
    freqs = np.linspace(spec["f_min"], spec["f_max"], spec["num_points"])
    product, bandwidth = spec["efficiency_product"], spec["bandwidth_hz"]
    clean_i = model.intensity_diff_psd(freqs, product, bandwidth)
    clean_p = model.phase_sum_psd(freqs, product, bandwidth, spec["pump_ratio"])
    rng = np.random.default_rng(spec["seed"])
    noise = spec["noise"] * rng.standard_normal((2, freqs.size))
    fileio.write_spectrum_csv(spec["out"], freqs, amplitude=clean_i * (1.0 + noise[0]),
                              phase=clean_p * (1.0 + noise[1]))


def main(spec_path):
    with open(spec_path) as handle:
        spec = json.load(handle)
    for path, document in spec["configs"].items():
        fileio.write_json(path, document)
    for spectrum in spec.get("spectra", []):
        write_spectrum(spectrum)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
