"""twinbeam benchmark: one synthetic twin-beam experiment, end to end and by layer.

    python3 bench/run.py --workload experiment --seed 7 --seconds 50 --trace 0
    python3 bench/run.py --smoke

Run from the root of a source checkout; the program is imported from `src/`.
Workloads (see `workloads.py`):

  experiment  REFERENCE_CONFIG from tests/test_acceptance.py with the seed
              replaced: `twinbeam synth`, `analyze` at 1.5 MHz, 150 kHz and
              15 kHz RBW, then `certify` of the 150 kHz reading.
  fit_batch   `fit` and `certify --vx --vy` on seeded 1%-noise spectra, the
              README's `spectra` -> `fit` chain, and an in-process batch of
              `fit_spectra` calls.

With --trace 0 the last line of standard output holds the end-to-end metrics;
with --trace 1 it holds the per-layer metrics of a traced in-process replay of
both workloads' CLI calls, whichever --workload is named, so that every
layer is measured in every traced run.  Lines before it print every metric
with its unit and sample count, the readings, the provenance and the path of
the run's result.json, which also holds every op and the raw samples.
--smoke runs every workload and the traced run at 2^16 samples and checks
that each named metric is emitted with its unit.
"""

import argparse
import ast
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SMOKE_SAMPLES = 2 ** 16
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def reference_config(root):
    """REFERENCE_CONFIG as the acceptance test defines it (it may use FS)."""
    path = root / "tests" / "test_acceptance.py"
    tree = ast.parse(path.read_text(), str(path))
    names = {}
    for node in tree.body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id in ("FS", "REFERENCE_CONFIG")):
            code = compile(ast.Module(body=[node], type_ignores=[]), str(path), "exec")
            exec(code, {"__builtins__": {}}, names)
    return names["REFERENCE_CONFIG"]


def last_level_cache_bytes():
    """Size of the highest-level cache of CPU 0, from sysfs, or None."""
    best = None
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        scale = {"K": 1024, "M": 1024 ** 2}.get(size[-1:], 1)
        value = int(size.rstrip("KM")) * scale
        if best is None or level > best[0]:
            best = (level, value)
    return best[1] if best else None


def provenance(b, config_hash):
    import numpy
    import scipy
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = None  # not a git checkout
    src_lines = sum(len(p.read_bytes().splitlines()) for p in (ROOT / "src").rglob("*.py"))
    return {
        "seed": b.seed, "config_hash": config_hash,
        "num_samples": b.doc["synth"]["num_samples"],
        "nproc": len(os.sched_getaffinity(0)), "llc_bytes": last_level_cache_bytes(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "git_commit": commit, "src_lines": src_lines,
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARIABLES},
    }


def load_benchmark_spec():
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def run_once(workload, seed, seconds, trace, num_samples=None):
    """One run; returns the final-line object, the full result and the run's directory."""
    import workloads

    work = ROOT / ".bench_runs" / f"{workload}-seed{seed}-trace{trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    b = workloads.Bench(ROOT, work, seed, reference_config(ROOT), num_samples)
    started = time.time()
    try:
        if trace:
            layer, detail, spans = workloads.traced(b)
            metrics = {name: {"value": value, "unit": unit}
                       for name, (value, unit) in layer.items()}
            with open(work / "spans.json", "w") as handle:
                json.dump(spans, handle)
        else:
            workloads.WORKLOADS[workload](b, seconds)
            metrics = {name: b.metric(name) for name in workloads.REPORTED[workload]}
            metrics["fail_ratio"] = b.fail_ratio()
            detail = {"iterations": b.iterations}
    finally:
        for path in work.iterdir():
            if path.suffix in (".twbm", ".csv"):
                path.unlink()
    counted = [op for op in b.ops if op["counted"]]
    failed = sum(not op["ok"] for op in counted)
    result = {
        "workload": workload, "trace": trace, "seconds": seconds,
        "wall_clock_s": time.time() - started, "metrics": metrics, "detail": detail,
        "readings": b.readings(), "samples": b.samples,
        "probes": [op for op in b.ops if not op["counted"]],
        "failures": [op for op in b.ops if not op["ok"]],
        "ops": Counter(op["kind"] for op in b.ops),
        "provenance": provenance(b, b.config_hash(b.doc)),
    }
    with open(work / "result.json", "w") as handle:
        json.dump(result, handle, indent=1, allow_nan=False)
    spec = load_benchmark_spec()
    wanted = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    final = {
        "correct": failed == 0, "attempted": len(counted), "failed": failed,
        "metrics": {name: {"value": metrics[name]["value"], "unit": metrics[name]["unit"]}
                    for name in wanted if name in metrics},
    }
    return final, result, work


def print_report(result, work):
    print(f"workload {result['workload']}  seed {result['provenance']['seed']}  "
          f"trace {result['trace']}  {result['detail'].get('iterations', 1)} iteration(s)")
    for name, m in result["metrics"].items():
        spread = f"  n={m['n']}" if "n" in m else ""
        if "min" in m:
            spread += f"  min={m['min']:.6g}  max={m['max']:.6g}"
        print(f"  {name:32s} {m['value']:>14.6g} {m['unit']:<6s}{spread}")
    for name, r in result["readings"].items():
        print(f"  reading {name:26s} {r['value']:+.4f} (closed form {r['expected']:+.4f}, "
              f"z={r['z']:+.2f}, max|z|={r['max_abs_z']:.2f}, n={r['n']})")
    for op in result["probes"]:
        print(f"  probe {op['kind']}: {'ok' if op['ok'] else '; '.join(op['problems'])}")
    for op in result["failures"]:
        if op["counted"]:
            print(f"  FAILED {op['kind']}: {'; '.join(op['problems'])}")
    print(f"  provenance: {json.dumps(result['provenance'], sort_keys=True)}")
    print(f"  result: {work / 'result.json'}")


def smoke():
    """Every workload and the traced run at 2^16 samples; checks names and units."""
    spec = load_benchmark_spec()
    import workloads
    problems = []
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        names = workloads.WORKLOADS if not trace else ["experiment"]
        for workload in names:
            final, result, work = run_once(workload, 1, 0.0, trace, SMOKE_SAMPLES)
            print_report(result, work)
            for metric in spec[section]:
                got = final["metrics"].get(metric["name"])
                if got is None or got["unit"] != metric["unit"]:
                    problems.append(f"{workload}/trace{trace}: {metric['name']} missing or "
                                    f"not in {metric['unit']}")
            if not trace:
                for name in workloads.REPORTED[workload]:
                    if name not in result["metrics"]:
                        problems.append(f"{workload}: reported metric {name} missing")
            if not result["readings"] and workload != "fit_batch":
                problems.append(f"{workload}/trace{trace}: no reading was checked")
            if not final["correct"]:
                problems.append(f"{workload}/trace{trace}: {final['failed']} op(s) failed")
    for problem in problems:
        print(f"smoke: {problem}", file=sys.stderr)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("experiment", "fit_batch"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "twinbeam").is_dir() or not (ROOT / "tests").is_dir():
        print(f"bench: no twinbeam source tree at {ROOT}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    final, result, work = run_once(args.workload, args.seed, args.seconds, args.trace)
    print_report(result, work)
    print(json.dumps(final, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
