"""The benchmark's workloads and its traced layer run.

Timed runs drive the `twinbeam` CLI as one child process at a time (a
closed loop with one client), so the program has every core to itself.
Each op's output is checked; an op fails if it exits nonzero, prints
invalid JSON, or reads outside the closed-form tolerance (see `oracle`).
The traced run replays the same CLI calls in process, through `cli.main`,
with every public layer function wrapped (see `tracing`).
"""

import contextlib
import copy
import importlib
import io
import json
import os
import statistics
import sys
import time
import tracemalloc
from collections import defaultdict

import numpy as np

import oracle
import procs
import tracing

RBW_HZ = {"analyze_wide": 1.5e6, "analyze": 150e3, "analyze_narrow": 15e3}
IMPORT_REPEATS = 3
CHILD_TIMEOUT_S = 60.0
FIT_GRID_HZ = (1e5, 100e6)
FIT_POINTS = 1001
FIT_NOISE = 0.01
FIT_PUMP_RATIOS = (1.2, 1.6, 2.4)
BATCH_ROUNDS = 4


class SetupError(RuntimeError):
    """The program could not produce a workload's inputs."""


class Bench:
    """One benchmark run: its inputs, the ops it made and their metric samples."""

    def __init__(self, root, work, seed, reference, num_samples=None):
        self.root, self.work, self.seed = root, work, seed
        self.env = procs.child_env(root / "src")
        self.model = importlib.import_module("twinbeam.model")
        self.config_module = importlib.import_module("twinbeam.config")
        self.doc = copy.deepcopy(reference)
        self.doc["synth"]["seed"] = seed
        if num_samples is not None:
            self.doc["synth"]["num_samples"] = num_samples
        self.ops = []
        self.samples = defaultdict(list)
        self.units = {}
        self.deviations = []
        self.op_kinds = []
        self.iterations = 0
        self._iteration_rss = None
        self._inputs = None

    # -- bookkeeping -------------------------------------------------------

    def path(self, name):
        return str(self.work / name)

    def sample(self, name, value, unit):
        self.samples[name].append(value)
        self.units[name] = unit

    def record(self, kind, returncode, wall_s, problems, stderr="", counted=True):
        if returncode != 0:
            last = stderr.strip().splitlines()[-1:] or ["(no message)"]
            problems = [f"exit {returncode}: {last[0]}"] + list(problems)
        self.ops.append({"kind": kind, "returncode": returncode, "wall_s": wall_s,
                         "ok": not problems, "problems": problems, "counted": counted})

    def deviation(self, op, deviations):
        self.deviations += [dict(d, op=op) for d in deviations]

    def cli(self, kind, args):
        """Run one CLI op in a fresh process and sample its wall time and RSS."""
        result = procs.cli([str(a) for a in args], self.work, self.env, CHILD_TIMEOUT_S)
        self.timed(kind, result.wall_s)
        group = "analyze" if kind.startswith("analyze") else kind
        rss = self._iteration_rss
        rss[group] = max(rss.get(group, 0.0), result.peak_rss_mib)
        return result

    def timed(self, kind, seconds):
        """Sample the wall time of one op of an iteration."""
        if kind not in self.op_kinds:
            self.op_kinds.append(kind)
        self.sample(f"{kind}_s", seconds, "s")

    def loop(self, seconds, iteration):
        """Run whole iterations until `seconds` have passed (at least one).

        The set-up runs again before every iteration after the first, so its
        samples spread over the run as the op samples do; on a shared machine
        the speed can change from one minute to the next.
        """
        start = time.perf_counter()
        while self.iterations == 0 or time.perf_counter() - start < seconds:
            if self.iterations:
                self.make_inputs(self._inputs)
            self._iteration_rss = rss = {}
            iteration()
            self.sample("peak_rss_mib", max(rss.values()), "MiB")
            for group in ("synth", "analyze"):
                if group in rss:
                    self.sample(f"{group}_rss_mib", rss[group], "MiB")
            self.iterations += 1

    # -- inputs --------------------------------------------------------------

    def config(self, rbw_hz=None):
        doc = copy.deepcopy(self.doc)
        if rbw_hz is not None:
            doc["analyzer"]["rbw_hz"] = rbw_hz
        return doc

    def config_hash(self, doc):
        return self.config_module.config_hash(doc)

    def make_inputs(self, spec):
        """One set-up: write the inputs with `make_inputs.py` in a timed process."""
        spec_path = self.path("inputs.json")
        with open(spec_path, "w") as handle:
            json.dump(spec, handle)
        argv = [sys.executable, str(self.root / "bench" / "make_inputs.py"), spec_path]
        result = procs.run(argv, self.work, self.env, CHILD_TIMEOUT_S)
        if result.returncode != 0:
            raise SetupError(f"set-up exited {result.returncode}: {result.stderr.strip()}")
        self.sample("setup_s", result.wall_s, "s")
        self._inputs = spec

    def fit_specs(self):
        """Seeded truths for the fit spectra, spread over the pump ratio."""
        rng = np.random.default_rng([self.seed, 0xF17])
        truth = self.reference_truth()
        specs = []
        for k, ratio in enumerate(FIT_PUMP_RATIOS):
            specs.append({
                "out": self.path(f"spectrum{k}.csv"), "seed": [self.seed, k],
                "f_min": FIT_GRID_HZ[0], "f_max": FIT_GRID_HZ[1], "num_points": FIT_POINTS,
                "noise": FIT_NOISE,
                "efficiency_product": truth["efficiency_product"] * rng.uniform(0.9, 1.1),
                "bandwidth_hz": truth["bandwidth_hz"] * rng.uniform(0.8, 1.2),
                "pump_ratio": ratio * rng.uniform(0.95, 1.05),
            })
        return specs

    def reference_truth(self):
        params = oracle.nopo_params(self.model, self.doc)
        return {"efficiency_product": params.detection_efficiency * params.output_coupling,
                "bandwidth_hz": params.cavity_bandwidth, "pump_ratio": params.pump_ratio}

    def fit_problems_in_process(self, specs):
        fileio = importlib.import_module("twinbeam.fileio")
        fit = importlib.import_module("twinbeam.fit")
        problems = []
        for spec in specs:
            freqs, amplitude, phase = fileio.read_spectrum_csv(spec["out"])
            problems.append(fit.FitProblem(freqs, amplitude, phase))
        return problems

    # -- checked ops ---------------------------------------------------------

    def analyze(self, kind, config, trace, out, expected, config_hash, trace_sha):
        result = self.cli(kind, ["analyze", trace, "--config", config, "--out", out])
        analysis = None
        problems = []
        if result.returncode == 0:
            with open(out) as handle:
                problems, analysis, deviations = oracle.check_analysis(
                    handle.read(), expected, config_hash, trace_sha)
            self.deviation(kind, deviations)
        self.record(kind, result.returncode, result.wall_s, problems, result.stderr)
        return analysis

    def certify(self, analysis_path, analysis, out, expected):
        result = self.cli("certify", ["certify", analysis_path, "--out", out])
        problems = []
        if result.returncode == 0:
            with open(out) as handle:
                problems, deviations = oracle.check_certify(
                    self.model, handle.read(), analysis, expected)
            self.deviation("certify", deviations)
        self.record("certify", result.returncode, result.wall_s, problems, result.stderr)

    # -- results -------------------------------------------------------------

    def metric(self, name):
        if name == "wall_s":
            return self.wall_metric()
        values = self.samples[name]
        return {"value": statistics.median(values), "unit": self.units[name],
                "n": len(values), "min": min(values), "max": max(values)}

    def wall_metric(self):
        """Wall time of one iteration's ops, built from the median op of each kind.

        The sum over op kinds of (ops of that kind per iteration) x (their
        median wall time).  Where an iteration runs several ops of a kind this
        is steadier than the median of whole-iteration sums.
        """
        total = sum(statistics.median(self.samples[f"{kind}_s"])
                    * len(self.samples[f"{kind}_s"]) / self.iterations
                    for kind in self.op_kinds)
        return {"value": total, "unit": "s", "n": self.iterations}

    def fail_ratio(self):
        """Failed over attempted ops, the README-chain probe included."""
        failed = sum(not op["ok"] for op in self.ops)
        return {"value": failed / len(self.ops), "unit": "1", "n": len(self.ops),
                "failed": failed}

    def readings(self):
        """Median of each reading per op, with its deviation in sigma."""
        grouped = defaultdict(list)
        for d in self.deviations:
            grouped[(d["op"], d["name"])].append(d)
        out = {}
        for (op, name), items in grouped.items():
            out[f"{op}.{name}"] = {
                "value": statistics.median(d["value"] for d in items),
                "expected": items[0]["expected"],
                "sigma": statistics.median(d["sigma"] for d in items),
                "z": statistics.median(d["z"] for d in items),
                "max_abs_z": max(abs(d["z"]) for d in items), "n": len(items)}
        return out


def experiment(b, seconds):
    """The paper's loop with an analyzer sweep.

    `synth`, then `analyze` of that trace at 1.5 MHz, 150 kHz and 15 kHz RBW
    (2 Hz VBW), then `certify` of the 150 kHz reading.  At 1.5 MHz the
    per-segment video-filter loop dominates; at 15 kHz a few long FFTs do.
    """
    configs = {kind: b.path(f"{kind}.json") for kind in RBW_HZ}
    b.make_inputs({"configs": {configs[k]: b.config(rbw) for k, rbw in RBW_HZ.items()}})
    expected = oracle.expected_readings(b.model, b.doc)
    hashes = {kind: b.config_hash(b.config(rbw)) for kind, rbw in RBW_HZ.items()}
    trace, report = b.path("run.twbm"), b.path("report.json")
    digests = set()

    def iteration():
        result = b.cli("synth", ["synth", "--config", configs["analyze"], "--out", trace,
                                 "--json"])
        problems, digest = [], None
        if result.returncode == 0:
            problems, digest = oracle.check_synth(result.stdout, trace)
            b.sample("trace_mb", os.path.getsize(trace) / 1e6, "MB")
            digests.add(digest)
            if len(digests) > 1:
                problems.append("the same config gave a different trace in another iteration")
        b.record("synth", result.returncode, result.wall_s, problems, result.stderr)
        analyses = {kind: b.analyze(kind, configs[kind], trace, b.path(f"{kind}.out.json"),
                                    expected, hashes[kind], digest) for kind in RBW_HZ}
        if analyses["analyze"] is not None:
            b.certify(b.path("analyze.out.json"), analyses["analyze"], report, expected)

    b.loop(seconds, iteration)


def fit_batch(b, seconds):
    """CLI fits and certifies, the README chain, and an in-process fit batch."""
    config = b.path("reference.json")
    specs = b.fit_specs()
    b.make_inputs({"configs": {config: b.doc}, "spectra": specs})
    problems_in_process = b.fit_problems_in_process(specs)
    fit = importlib.import_module("twinbeam.fit")
    f0 = b.doc["interferometer"]["analysis_frequency_hz"]
    params = oracle.nopo_params(b.model, b.doc)
    spectra_csv = b.path("spectra.csv")
    readme_truth = b.reference_truth()
    fit.fit_spectra(problems_in_process[0])  # first-call costs stay out of the batch

    def iteration():
        for spec in specs:
            result = b.cli("fit", ["fit", spec["out"], "--json"])
            problems = []
            if result.returncode == 0:
                problems = oracle.check_fit_output(result.stdout, spec)
            b.record("fit", result.returncode, result.wall_s, problems, result.stderr)
        for k, spec in enumerate(specs):
            vx = b.model.intensity_diff_psd(f0, spec["efficiency_product"], spec["bandwidth_hz"])
            vy = b.model.phase_sum_psd(f0, spec["efficiency_product"], spec["bandwidth_hz"],
                                       spec["pump_ratio"])
            out = b.path(f"certify{k}.json")
            result = b.cli("certify", ["certify", "--vx", repr(vx), "--vy", repr(vy),
                                       "--out", out])
            problems = []
            if result.returncode == 0:
                with open(out) as handle:
                    problems = oracle.check_certify_variances(handle.read(), vx, vy)
            b.record("certify", result.returncode, result.wall_s, problems, result.stderr)

        # The README chain exactly as written: default --f-min, then fit.
        result = b.cli("spectra", ["spectra", "--config", config, "--out", spectra_csv])
        problems = []
        if result.returncode == 0:
            problems = oracle.check_spectrum_csv(b.model, spectra_csv, params, FIT_POINTS)
        b.record("spectra", result.returncode, result.wall_s, problems, result.stderr)
        result = b.cli("readme_fit", ["fit", spectra_csv, "--json"])
        problems = []
        if result.returncode == 0:
            problems = oracle.check_fit_output(result.stdout, readme_truth)
        b.record("readme_fit", result.returncode, result.wall_s, problems, result.stderr,
                 counted=False)

        start = time.perf_counter()
        results = [fit.fit_spectra(problem)
                   for _ in range(BATCH_ROUNDS) for problem in problems_in_process]
        elapsed = time.perf_counter() - start
        b.timed("fit_batch", elapsed)
        b.sample("fits_per_s", len(results) / elapsed, "1/s")
        for i, res in enumerate(results):
            b.record("fit_spectra", 0, elapsed / len(results),
                     oracle.fit_problems(_fitted(res), specs[i % len(specs)]))

    b.loop(seconds, iteration)


def _fitted(result):
    """A FitResult under the keys the CLI's `fit --json` prints."""
    return {"efficiency_product": result.efficiency_product, "bandwidth_hz": result.bandwidth,
            "pump_ratio": result.pump_ratio, "converged": result.converged,
            "iterations": result.iterations}


WORKLOADS = {"experiment": experiment, "fit_batch": fit_batch}

# Metrics each workload reports, in print order; the first three are the
# end-to-end metrics every workload shares.
REPORTED = {
    "experiment": ("setup_s", "wall_s", "peak_rss_mib", "synth_s", "analyze_wide_s",
                   "analyze_s", "analyze_narrow_s", "certify_s", "synth_rss_mib",
                   "analyze_rss_mib", "trace_mb"),
    "fit_batch": ("setup_s", "wall_s", "peak_rss_mib", "certify_s", "spectra_s", "fit_s",
                  "fits_per_s", "readme_fit_s"),
}


# ---------------------------------------------------------------------------
# traced run

def traced(b):
    """Per-layer metrics from in-process passes over the whole CLI pipeline.

    A first untraced pass warms the process (FFT plans, lazy imports, the
    file cache).  A span-only pass and a second untraced pass then time the
    same sequence; their difference is the tracing overhead.  tracemalloc
    slows every allocation, which distorts the per-segment loop of
    `welch_psd` most, so memory peaks come from a last pass over `synth` and
    `analyze` alone.
    """
    kinds = list(RBW_HZ)
    configs = {kind: b.path(f"{kind}.json") for kind in kinds}
    specs = b.fit_specs()
    b.make_inputs({"configs": {configs[k]: b.config(RBW_HZ[k]) for k in kinds},
                   "spectra": specs})
    imports = [procs.run([sys.executable, "-c", "import twinbeam"], b.work, b.env,
                         CHILD_TIMEOUT_S) for _ in range(IMPORT_REPEATS)]
    if any(r.returncode != 0 for r in imports):
        raise SetupError("import twinbeam failed in a child process")
    inputs = {
        "configs": configs, "trace": b.path("run.twbm"), "specs": specs,
        "problems": b.fit_problems_in_process(specs),
        "expected": oracle.expected_readings(b.model, b.doc),
        "hashes": {k: b.config_hash(b.config(RBW_HZ[k])) for k in kinds},
    }
    everything = ("synth", *kinds, "certify", "spectra", "fit", "fit_batch")

    def untraced():
        start = time.perf_counter()
        _pipeline(b, tracing.Tracer(), inputs, everything)
        return time.perf_counter() - start

    untraced()
    length = b.doc["synth"]["num_samples"]
    tracer = tracing.Tracer(series_length=length)
    with tracing.installed(tracer):
        start = time.perf_counter()
        _pipeline(b, tracer, inputs, everything)
        traced_wall = time.perf_counter() - start
    untraced_wall = untraced()
    memory = tracing.Tracer(memory=True, series_length=length)
    with tracing.installed(memory):
        tracemalloc.start()
        try:
            _pipeline(b, memory, inputs, ("synth", "analyze"))
        finally:
            tracemalloc.stop()

    metrics, detail = layer_metrics(tracer.spans, memory.spans, inputs["trace"])
    import_s = statistics.median(r.wall_s for r in imports)
    metrics["cli.import_s"] = (import_s, "s")
    for entry in detail["accounting"].values():
        entry["with_import_s"] = entry["span_s"] + import_s  # compare with the CLI op time
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.untraced_wall_s"] = (untraced_wall, "s")
    metrics["trace.overhead_ratio"] = (traced_wall / untraced_wall, "1")
    detail["overhead_s"] = traced_wall - untraced_wall
    return metrics, detail, {"timing": tracer.spans, "memory": memory.spans}


def _pipeline(b, tracer, inputs, wanted):
    """The CLI calls of both workloads, once each, through `cli.main`.

    `wanted` names the op kinds to run; `synth` always runs, since the others
    read its trace.
    """
    cli = importlib.import_module("twinbeam.cli")
    fit = importlib.import_module("twinbeam.fit")
    configs, trace, expected = inputs["configs"], inputs["trace"], inputs["expected"]

    def run(kind, argv):
        out, err = io.StringIO(), io.StringIO()
        with tracer.op(kind) as span, contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            status = cli.main([str(a) for a in argv])
        return status, out.getvalue(), err.getvalue(), tracing.duration(span)

    status, stdout, stderr, wall = run("synth", ["synth", "--config", configs["analyze"],
                                                 "--out", trace, "--json"])
    problems, digest = oracle.check_synth(stdout, trace) if status == 0 else ([], None)
    b.record("synth", status, wall, problems, stderr)

    analyses = {}
    for kind in (k for k in RBW_HZ if k in wanted):
        out = b.path(f"{kind}.out.json")
        status, _, stderr, wall = run(kind, ["analyze", trace, "--config", configs[kind],
                                             "--out", out])
        problems = []
        if status == 0:
            with open(out) as handle:
                problems, analyses[kind], deviations = oracle.check_analysis(
                    handle.read(), expected, inputs["hashes"][kind], digest)
            b.deviation(kind, deviations)
        b.record(kind, status, wall, problems, stderr)

    if "certify" in wanted and analyses.get("analyze") is not None:
        report = b.path("report.json")
        status, _, stderr, wall = run("certify", ["certify", b.path("analyze.out.json"),
                                                  "--out", report])
        problems = []
        if status == 0:
            with open(report) as handle:
                problems, deviations = oracle.check_certify(
                    b.model, handle.read(), analyses["analyze"], expected)
            b.deviation("certify", deviations)
        b.record("certify", status, wall, problems, stderr)

    if "spectra" not in wanted:
        return
    spectra_csv = b.path("spectra.csv")
    status, _, stderr, wall = run("spectra", ["spectra", "--config", configs["analyze"],
                                              "--out", spectra_csv])
    problems = []
    if status == 0:
        problems = oracle.check_spectrum_csv(b.model, spectra_csv,
                                             oracle.nopo_params(b.model, b.doc), FIT_POINTS)
    b.record("spectra", status, wall, problems, stderr)
    for spec in inputs["specs"]:
        status, stdout, stderr, wall = run("fit", ["fit", spec["out"], "--json"])
        problems = oracle.check_fit_output(stdout, spec) if status == 0 else []
        b.record("fit", status, wall, problems, stderr)
    status, stdout, stderr, wall = run("readme_fit", ["fit", spectra_csv, "--json"])
    problems = oracle.check_fit_output(stdout, b.reference_truth()) if status == 0 else []
    b.record("readme_fit", status, wall, problems, stderr, counted=False)

    with tracer.op("fit_batch") as span:
        results = [fit.fit_spectra(problem) for problem in inputs["problems"]]
    for res, spec in zip(results, inputs["specs"]):
        b.record("fit_spectra", 0, tracing.duration(span) / len(results),
                 oracle.fit_problems(_fitted(res), spec))


def layer_metrics(spans, memory_spans, trace_path):
    """Per-layer metrics from the traced passes, and the self-time accounting."""
    views = tracing.op_views(spans)
    memory = tracing.op_views(memory_spans)
    absent = []

    def one(kind):
        return views[kind][0]

    def attr(span_list, key):
        values = [s[key] for s in span_list if key in s]
        if not values:
            absent.append(key)
            return 0
        return values[0]

    def med(values):
        values = list(values)
        return statistics.median(values) if values else 0.0

    synth = one("synth")
    analyses = {kind: one(kind) for kind in RBW_HZ}
    m = {}
    m["cli.synth_self_s"] = (synth.self_time(), "s")
    m["cli.analyze_self_s"] = (analyses["analyze"].self_time(), "s")
    every = [v for found in views.values() for v in found]
    m["config.load_config_s"] = (med(tracing.duration(s) for v in every
                                     for s in v.named("config.load_config")), "s")
    m["model.target_psd_s"] = (synth.total("model.intensity_diff_psd",
                                           "model.phase_sum_psd"), "s")
    for name in ("colored_gaussian_series", "synthesize_twin_beams", "mz_measure_amplitude",
                 "mz_measure_phase", "electronics_floor_series"):
        m[f"synth.{name}_s"] = (synth.total(f"synth.{name}"), "s")
    # Synth outputs stay alive until the trace is written, so this peak is
    # measured from the op's start; the dsp peak is each call's own.
    synth_memory = memory["synth"][0]
    m["synth.peak_alloc_mib"] = (synth_memory.peak_mib(synth_memory.outermost("synth.")),
                                 "MiB")
    produced = sum(s.get("series_out", 0) for s in synth.leaves("synth."))
    welch_reads = len(analyses["analyze"].named("dsp.welch_psd"))
    m["synth.series_produced"] = (produced, "count")
    m["synth.useful_ratio"] = (welch_reads / produced if produced else 0.0, "1")
    for name in ("encode_trace", "atomic_write_bytes"):
        m[f"fileio.{name}_s"] = (synth.total(f"fileio.{name}"), "s")
    m["fileio.read_trace_s"] = (med(v.total("fileio.read_trace")
                                    for v in analyses.values()), "s")
    m["fileio.trace_bytes"] = (os.path.getsize(trace_path), "B")
    channels = attr(analyses["analyze"].named("fileio.read_trace"), "channels")
    m["fileio.channel_use_ratio"] = (welch_reads / channels if channels else 0.0, "1")
    m["fileio.write_spectrum_csv_s"] = (one("spectra").total("fileio.write_spectrum_csv"), "s")
    m["fileio.read_spectrum_csv_s"] = (med(v.total("fileio.read_spectrum_csv")
                                           for v in views.get("fit", [])), "s")
    for kind, suffix in (("analyze_wide", "_wide"), ("analyze", ""),
                         ("analyze_narrow", "_narrow")):
        calls = analyses[kind].named("dsp.welch_psd")
        m[f"dsp.welch_psd{suffix}_s"] = (med(tracing.duration(s) for s in calls), "s")
        m[f"dsp.segments{suffix}"] = (attr(calls, "segments"), "count")
        m[f"dsp.num_averages{suffix}"] = (attr(calls, "num_averages"), "count")
    analyze_memory = memory["analyze"][0]
    m["dsp.peak_alloc_mib"] = (analyze_memory.peak_mib(analyze_memory.named("dsp.welch_psd"),
                                                       own=True), "MiB")
    batch = one("fit_batch").named("fit.fit_spectra")
    m["fit.fit_spectra_s"] = (med(tracing.duration(s) for s in batch), "s")
    m["fit.iterations"] = (med(s["iterations"] for s in batch), "count")
    fits = [s for v in every for s in v.named("fit.fit_spectra")]
    m["fit.converged_ratio"] = (sum(s["converged"] for s in fits) / len(fits), "1")

    accounting = {}
    for kind, view in (("synth", synth), ("analyze", analyses["analyze"])):
        table = view.self_table()
        accounting[kind] = {
            "span_s": tracing.duration(view.root),
            "self_s": {name: round(total, 6) for name, (_, total) in table.items()},
            "calls": {name: calls for name, (calls, _) in table.items()},
            "sum_self_s": sum(total for _, total in table.values()),
        }
    return m, {"accounting": accounting, "absent": absent}
