"""Golden outputs: the reference run's outputs at seed 7, pinned.

cli.main runs synth, analyze at three RBWs, certify, spectra and fit on
REFERENCE_CONFIG in process, and the outputs are compared with
golden_reference.json.  The numbers come first, in one comparison, so a
failure reads as a diff.  Readings and the Duan sum must match to 1e-12
relative.  The fitted values must match to 1e-9, because
Levenberg-Marquardt stops on a 1e-12 relative step.

Then the sha256 of the trace and of the spectra CSV are compared, but only
under the numpy major version that wrote the file.  The trace's float32
samples round from a float64 shaping whose FFT differs between numpy
majors, so its last bits may too.  The test prints both hashes, so a run
with ``-s`` shows them under any numpy.  The JSON outputs' hashes are not
pinned: they go through BLAS (the f0 DFT's matrix product, the fit's solve
and SVD) and numpy's CPU-dispatched sin and cos, whose last bits may
differ from one machine to the next.

A change that moves an output on purpose rewrites the file with
``PYTHONPATH=src python tests/test_golden.py`` and lists old -> new.
"""

import copy
import hashlib
import json
import pathlib
import tempfile

import numpy as np
import pytest

from test_acceptance import REFERENCE_CONFIG
from twinbeam.cli import main

GOLDEN = pathlib.Path(__file__).with_name("golden_reference.json")
RBWS_HZ = (1.5e6, 150e3, 15e3)
READING_KEYS = ("amplitude_db", "phase_db", "enl_db", "num_averages")
FIT_KEYS = ("efficiency_product", "bandwidth_hz", "pump_ratio")


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def reference_outputs(directory):
    """Run the reference chain in directory; returns the golden file's content."""
    def config(rbw_hz):
        doc = copy.deepcopy(REFERENCE_CONFIG)
        doc["analyzer"]["rbw_hz"] = rbw_hz
        path = directory / f"config-{rbw_hz:g}.json"
        path.write_text(json.dumps(doc))
        return str(path)

    trace, csv = directory / "trace.twbm", directory / "spectra.csv"
    assert main(["synth", "--config", config(150e3), "--out", str(trace)]) == 0
    numbers = {}
    for rbw_hz in RBWS_HZ:
        analysis = directory / f"analysis-{rbw_hz:g}.json"
        assert main(["analyze", str(trace), "--config", config(rbw_hz),
                     "--out", str(analysis)]) == 0
        readings = json.loads(analysis.read_text())
        numbers.update({f"analyze {rbw_hz:g} Hz {key}": readings[key] for key in READING_KEYS})
    report = directory / "report.json"
    assert main(["certify", str(directory / "analysis-150000.json"), "--out", str(report)]) == 0
    numbers["certify duan_sum"] = json.loads(report.read_text())["duan_sum"]
    assert main(["spectra", "--config", config(150e3), "--out", str(csv)]) == 0
    fit = directory / "fit.json"
    assert main(["fit", str(csv), "--out", str(fit)]) == 0
    fitted = json.loads(fit.read_text())
    numbers.update({f"fit {key}": fitted[key] for key in FIT_KEYS})
    return {"numpy_version": np.__version__, "numbers": numbers,
            "sha256": {"trace": _sha256(trace), "spectra_csv": _sha256(csv)}}


def test_reference_outputs_match_the_golden_file(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    outputs = reference_outputs(tmp_path)
    print(f"\nnumpy {np.__version__}: sha256 {json.dumps(outputs['sha256'], sort_keys=True)}")
    expected = {name: pytest.approx(value, rel=1e-9 if name.startswith("fit ") else 1e-12)
                for name, value in golden["numbers"].items()}
    assert outputs["numbers"] == expected
    if np.__version__.split(".")[0] == golden["numpy_version"].split(".")[0]:
        assert outputs["sha256"] == golden["sha256"]
    else:
        print(f"hashes not compared: the golden file was written under numpy "
              f"{golden['numpy_version']}")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        GOLDEN.write_text(json.dumps(reference_outputs(pathlib.Path(scratch)),
                                     indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
