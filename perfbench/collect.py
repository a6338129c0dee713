"""Run the benchmark over several seeds and record the results.

    python3 perfbench/collect.py --label 0 [--workloads a,b]

For each workload it makes one untraced run on each of the seeds 1 to 10
and one traced run on seed 1, then writes
``perfbench/results/BENCH_<label>.json``: every end-to-end metric's values,
median, quartiles and spread (the distance between the quartiles over the
median), and the traced run's per-layer metrics. Runs one process at a
time, so runs never compete for the cores.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)


def run(spec: dict, workload: str, seed: int, trace: int) -> dict:
    command = [sys.executable, *spec["command"][1:], "--workload", workload, "--seed", str(seed),
               "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["exit_code"] = proc.returncode
    result["wall_s"] = round(time.perf_counter() - start, 1)
    print(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}, "
          f"correct {result['correct']}, {result['wall_s']} s", flush=True)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--workloads", help="comma-separated; default all")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {
        "machine": {"cpus": os.cpu_count(), "python": platform.python_version(),
                    "platform": platform.platform()},
        "run_seconds": spec["run_seconds"],
        "seeds": list(SEEDS),
        "workloads": {},
    }
    for name in names:
        runs = [run(spec, name, seed, 0) for seed in SEEDS]
        traced = run(spec, name, SEEDS[0], 1)
        metrics = {}
        for metric in runs[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in runs]
            median = statistics.median(values)
            quartiles = statistics.quantiles(values, n=4) if len(values) > 1 else [median] * 3
            metrics[metric] = {
                "unit": runs[0]["metrics"][metric]["unit"],
                "median": median,
                "q1": quartiles[0],
                "q3": quartiles[2],
                "spread": (quartiles[2] - quartiles[0]) / median,
                "bound": bounds[metric],
                "values": values,
            }
        report["workloads"][name] = {
            "all_correct": all(r["correct"] and r["exit_code"] == 0 for r in runs + [traced]),
            "end_to_end": metrics,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "per_layer_seed": SEEDS[0],
        }
    out = HERE / "results" / f"BENCH_{args.label}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(report, indent=1) + "\n")
    for name, entry in report["workloads"].items():
        for metric, m in entry["end_to_end"].items():
            print(f"{name:22s} {metric:12s} median {m['median']:.6g} {m['unit']:4s} "
                  f"spread {m['spread']:.3f} (bound {m['bound']})")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
