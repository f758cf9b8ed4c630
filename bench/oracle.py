"""Closed-form expectations and output checks for the benchmark.

Every check returns a list of problems; an op whose list is non-empty, or
that exits nonzero, counts as failed.  Readings are compared with the exact
forward model of the chain at the analyzer bin, built from `model`'s public
maps: sin^2(theta/2) * S(f0), then `mode_match_penalty`, plus excess noise,
then `with_electronic_noise`.  The tolerance is K_SIGMA standard errors of a
ratio of two Welch estimates with `num_averages` averages each,
sigma_dB = 10/ln(10) * sqrt(2 / num_averages) (Welch 1967).
"""

import csv
import hashlib
import json
import math

import numpy as np

K_SIGMA = 5.0
DB_PER_NEPER = 10.0 / math.log(10.0)
READINGS = ("amplitude_db", "phase_db", "enl_db")

# A fit of a 1001-point spectrum with 1% noise must land this close to the
# truth (relative error), well outside its scatter over seeds.
FIT_TOLERANCE = {"efficiency_product": 0.02, "bandwidth_hz": 0.05, "pump_ratio": 0.05}


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def strict_json(text):
    """Parse JSON, rejecting the NaN/Infinity extensions Python accepts by default."""
    return json.loads(text, parse_constant=_reject_constant)


def file_sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 22), b""):
            digest.update(block)
    return digest.hexdigest()


def nopo_params(model, doc):
    nopo = doc["nopo"]
    return model.NopoParams(
        transmission=nopo["transmission"], intracavity_loss=nopo["intracavity_loss"],
        cavity_bandwidth=nopo["cavity_bandwidth_hz"], pump_power=nopo["pump_power"],
        threshold_power=nopo["threshold_power"],
        detection_efficiency=nopo["detection_efficiency"])


def expected_readings(model, doc):
    """Closed-form amplitude/phase/ENL readings and Duan sum for a config document."""
    params = nopo_params(model, doc)
    ifc = doc["interferometer"]
    f0 = ifc["analysis_frequency_hz"]
    delta_l = ifc.get("arm_length_difference_m") or model.arm_length_difference(f0)
    sensitivity = math.sin(model.rf_phase(delta_l, f0) / 2.0) ** 2
    chain = doc["chain"]
    enl = chain["enl"]

    def detected(spectrum, channel):
        value = model.mode_match_penalty(sensitivity * spectrum, channel["mode_match"])
        return value + channel["excess_noise"]

    amp = detected(model.intensity_diff_spectrum(params, f0), chain["amplitude"])
    phase = detected(model.phase_sum_spectrum(params, f0), chain["phase"])
    return {
        "amplitude_db": model.db_rel_snl(model.with_electronic_noise(amp, enl)),
        "phase_db": model.db_rel_snl(model.with_electronic_noise(phase, enl)),
        "enl_db": model.db_rel_snl(enl),
        "duan_sum": amp + phase,
    }


def sigma_db(num_averages):
    return DB_PER_NEPER * math.sqrt(2.0 / num_averages)


def duan_sigma(analysis):
    """Delta-method standard error of the ENL-corrected Duan sum.

    The three linear readings a, p, e each carry relative error
    sqrt(2/num_averages), taken as independent; the sum is
    (a - e)/(1 - e) + (p - e)/(1 - e).
    """
    rel = math.sqrt(2.0 / analysis["num_averages"])
    a, p, e = (10.0 ** (analysis[k] / 10.0) for k in READINGS)
    grads = (1.0 / (1.0 - e), 1.0 / (1.0 - e), (a + p - 2.0) / (1.0 - e) ** 2)
    return math.sqrt(sum((g * x * rel) ** 2 for g, x in zip(grads, (a, p, e))))


def _deviation(name, value, expected, sigma):
    z = (value - expected) / sigma
    return {"name": name, "value": value, "expected": expected, "sigma": sigma,
            "z": z, "ok": abs(z) <= K_SIGMA}


def check_synth(stdout, trace_path):
    problems = []
    try:
        summary = strict_json(stdout)
    except ValueError as exc:
        return [f"synth summary is not strict JSON: {exc}"], None
    digest = file_sha256(trace_path)
    if summary.get("sha256") != digest:
        problems.append(f"synth reports sha256 {summary.get('sha256')}, file has {digest}")
    return problems, digest


def check_analysis(text, expected, config_hash, trace_sha):
    """Problems and per-reading deviations of one `analyze` output."""
    try:
        analysis = strict_json(text)
    except ValueError as exc:
        return [f"analysis is not strict JSON: {exc}"], None, []
    problems = []
    missing = [k for k in READINGS + ("num_averages", "config_hash", "trace_sha256")
               if k not in analysis]
    if missing:
        return [f"analysis lacks {missing}"], None, []
    if analysis["config_hash"] != config_hash:
        problems.append("analysis config_hash differs from the config's hash")
    if analysis["trace_sha256"] != trace_sha:
        problems.append("analysis trace_sha256 differs from the trace file's hash")
    sigma = sigma_db(analysis["num_averages"])
    deviations = [_deviation(k, analysis[k], expected[k], sigma) for k in READINGS]
    problems += [f"{d['name']} {d['value']:.4f} dB is {d['z']:+.1f} sigma from "
                 f"{d['expected']:.4f} dB" for d in deviations if not d["ok"]]
    return problems, analysis, deviations


def check_certify(model, text, analysis, expected):
    """A certify report on an analysis: exact arithmetic, then the closed form."""
    try:
        report = strict_json(text)
    except ValueError as exc:
        return [f"certify report is not strict JSON: {exc}"], []
    enl = model.from_db(analysis["enl_db"])
    vx = model.correct_for_electronic_noise(model.from_db(analysis["amplitude_db"]), enl)
    vy = model.correct_for_electronic_noise(model.from_db(analysis["phase_db"]), enl)
    problems = _certify_arithmetic(report, vx, vy)
    deviation = _deviation("duan_sum", report.get("duan_sum", math.nan),
                           expected["duan_sum"], duan_sigma(analysis))
    if not deviation["ok"]:
        problems.append(f"duan_sum {deviation['value']:.4f} is {deviation['z']:+.1f} sigma "
                        f"from {deviation['expected']:.4f}")
    return problems, [deviation]


def check_certify_variances(text, vx, vy):
    try:
        report = strict_json(text)
    except ValueError as exc:
        return [f"certify report is not strict JSON: {exc}"]
    return _certify_arithmetic(report, vx, vy)


def _certify_arithmetic(report, vx, vy):
    total = report.get("duan_sum")
    if not isinstance(total, (int, float)) or not math.isclose(total, vx + vy, rel_tol=1e-9):
        return [f"duan_sum {total} differs from {vx} + {vy}"]
    if report.get("entangled") is not (total < 2.0):
        return [f"entangled is {report.get('entangled')} for duan_sum {total}"]
    return []


def check_spectrum_csv(model, path, params, num_points):
    """The CSV holds num_points rows of the analytic spectra, digit for digit."""
    with open(path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    if len(rows) != num_points:
        return [f"spectrum CSV has {len(rows)} rows, expected {num_points}"]
    got = np.array([[float(r["f_hz"]), float(r["s_i"]), float(r["s_p"])] for r in rows])
    freqs = got[:, 0]
    want = np.column_stack([freqs, model.intensity_diff_spectrum(params, freqs),
                            model.phase_sum_spectrum(params, freqs)])
    if not np.all(np.isfinite(got)):
        return ["spectrum CSV has non-finite values"]
    if not np.allclose(got, want, rtol=1e-12, atol=0.0):
        return ["spectrum CSV differs from the analytic spectra"]
    return []


def fit_problems(fit, truth):
    """Problems of one fit result (a dict with the CLI's keys) against the truth."""
    if fit.get("converged") is not True:
        return [f"fit did not converge after {fit.get('iterations')} evaluations"]
    problems = []
    for key, tol in FIT_TOLERANCE.items():
        value = fit.get(key)
        if not isinstance(value, (int, float)) or not abs(value / truth[key] - 1.0) <= tol:
            problems.append(f"fit {key} {value} misses truth {truth[key]:.6g} by more than "
                            f"{tol:.0%}")
    return problems


def check_fit_output(text, truth):
    try:
        fit = strict_json(text)
    except ValueError as exc:
        return [f"fit output is not strict JSON: {exc}"]
    return fit_problems(fit, truth)
