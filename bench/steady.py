"""Steadiness report: repeat runs over seeds and give each metric's spread.

    python3 bench/steady.py --workload fit_batch --seeds 1 2 3 4 5 [--trace 0]
                            [--save bench/BENCH_1.json]

Runs `run.py` once per seed, one after another, and prints for every metric
the run reports its median and its spread: the distance between the first
and third quartile (`statistics.quantiles(values, n=4)`) as a share of the
median, next to the max-to-min share and, for end-to-end metrics, the bound
from BENCHMARK.json.  A spread above a third of its bound is flagged.
--save merges the medians, spreads and the first run's provenance into a
JSON file under the key "<workload>/trace<0|1>".
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True).stdout
    lines = out.strip().splitlines()
    path = next(line.split("result: ", 1)[1] for line in lines if "result: " in line)
    return json.loads(lines[-1]), json.loads(Path(path).read_text())


def spread(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    scale = abs(med) or 1.0
    return med, (q3 - q1) / scale, (max(values) - min(values)) / scale


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--save", type=Path, default=None)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values, units, failures, results = {}, {}, 0, []
    for seed in args.seeds:
        final, result = run(args.workload, seed, seconds, args.trace)
        results.append(result)
        failures += final["failed"] + (not final["correct"])
        print(f"seed {seed}: " + "  ".join(f"{k}={v['value']:.6g}"
                                          for k, v in final["metrics"].items()), flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]

    flagged = 0
    summary = {}
    print(f"{'metric':34s} {'median':>12s} {'unit':6s} {'iqr/med':>8s} {'range/med':>9s} "
          f"{'bound':>6s}")
    for name, vals in values.items():
        med, iqr, rng = spread(vals)
        bound = bounds.get(name)
        flag = bound is not None and name != "setup_s" and iqr > bound / 3
        flagged += flag
        shown = "" if bound is None else f"{bound:.2f}"
        print(f"{name:34s} {med:12.6g} {units[name]:6s} {iqr:8.2%} {rng:9.2%} {shown:>6s}"
              f"{'  <- above bound/3' if flag else ''}")
        summary[name] = {"median": med, "unit": units[name], "iqr_share": iqr,
                         "range_share": rng, "values": vals}
    print(f"failed or incorrect runs: {failures}")

    if args.save is not None:
        saved = json.loads(args.save.read_text()) if args.save.exists() else {}
        saved[f"{args.workload}/trace{args.trace}"] = {
            "seeds": args.seeds, "seconds": seconds, "metrics": summary,
            "readings": results[0]["readings"], "provenance": results[0]["provenance"],
        }
        args.save.write_text(json.dumps(saved, indent=1, sort_keys=True) + "\n")
    return 1 if flagged or failures else 0


if __name__ == "__main__":
    sys.exit(main())
