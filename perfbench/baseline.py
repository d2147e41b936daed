#!/usr/bin/env python3
"""Measure a baseline: several seeds per workload, plus one traced run.

    python3 perfbench/baseline.py --seeds 1,2,...,10 --records runs.txt \\
        --out perfbench/baseline.json [--workload NAME ...]

Runs ``run.py`` once per (workload, seed) with tracing off and once per
workload with tracing on, one run at a time.  Every record is appended to
``--records`` (input for ``compare.py``).  ``--out`` gets, per workload,
the median of each end-to-end metric, its quartile spread as a share of
the median (``statistics.quantiles(values, n=4)``) and the traced run's
per-layer metrics.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from compare import spread

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)], capture_output=True, text=True, cwd=ROOT, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.exit(f"{workload} seed {seed} trace {trace} exited "
                 f"{proc.returncode}:\n{proc.stderr}")
    return lines[-2], json.loads(lines[-1])


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", required=True,
                   help="comma-separated seeds for the untraced runs")
    p.add_argument("--workload", action="append",
                   help="workload to run (repeatable; default all)")
    p.add_argument("--records", required=True)
    p.add_argument("--out", required=True)
    args = p.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    names = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    summary = {}
    with open(args.records, "a", encoding="utf-8") as records:
        for name in names:
            values = {}
            correct = True
            for seed in seeds:
                record, result = run(name, seed, seconds, 0)
                records.write(record + "\n")
                correct = correct and result["correct"]
                for metric, m in result["metrics"].items():
                    values.setdefault(metric, []).append(m["value"])
            record, traced = run(name, seeds[0], seconds, 1)
            records.write(record + "\n")
            environment = json.loads(record)["record"]
            end_to_end = {}
            for metric, vals in values.items():
                median = statistics.median(vals)
                end_to_end[metric] = {"median": median,
                                      "spread": spread(vals), "runs": vals}
                print(f"{name:18s} {metric:13s} median {median:12.6g}  "
                      f"spread {spread(vals):6.1%}", flush=True)
            summary[name] = {
                "correct": correct and traced["correct"],
                "seeds": seeds,
                "end_to_end": end_to_end,
                "per_layer": {k: m["value"]
                              for k, m in traced["metrics"].items()},
            }
    summary["environment"] = {k: environment[k] for k in (
        "backend", "python", "nproc", "cpu")}
    summary["run_seconds"] = seconds
    Path(args.out).write_text(json.dumps(summary, indent=1, sort_keys=True)
                              + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
