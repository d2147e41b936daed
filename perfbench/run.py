#!/usr/bin/env python3
"""ortho2d benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all  ...   # every workload, in turn

Run from the root of a checkout; ortho2d is imported from ``src/``.  One
run measures one workload (see ``workloads.py``) in this fresh
interpreter, single-threaded:

1. set-up: ``SETUP_REPS`` fresh interpreters each import ortho2d and
   build the workload's systems; ``setup_s`` is their median wall time;
2. passes over the workload's units, each pass on fresh systems, while
   the next pass is expected to end within ``--seconds``, and at least
   ``MIN_PASSES``.

Set-up and untraced passes sample the host's speed between units, and
their times are reported at a fixed reference speed (see ``clock.py``).
With ``--trace 0`` it prints the end-to-end metrics, with ``--trace 1``
the per-layer metrics of a traced run (untraced and traced passes
alternate; ``trace.overhead_s`` is the median difference of a pair).  The
last line of stdout is the result:
``{"correct", "attempted", "failed", "metrics"}``.  The line before it is
the full record, with the rational backend, Python version, CPU count and
model, per-unit failures, the tail percentile used, the unscaled times
and the mean reference-loop time; ``compare.py``
compares such records.

A unit that misses its check counts against ``passed_frac``.  ``failed``
counts the units that miss their check in a way the seed does not; the
CLI cases that reproduce a known defect of the seed (listed in the record)
are not in it.  ``correct`` is false if any unit failed, or if the traced
run saw the Gram oracle on a workload that must bypass it.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer as tracing
from clock import Clock
from workloads import WORKLOADS, run_child

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

MIN_PASSES = 3
SETUP_REPS = 7
# Candidate tail percentiles; the highest one with at least ten units
# beyond it in MIN_PASSES passes is used, so it does not change with the
# number of passes a run happens to fit in.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

END_TO_END_UNITS = {"wall_s": "s", "unit_p50_ms": "ms", "unit_tail_ms": "ms",
                    "setup_s": "s", "peak_rss_mb": "MB", "passed_frac": "1"}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="minimal sizes, one pass: checks the harness only")
    return p.parse_args(argv)


def environment():
    from ortho2d import Scalar
    rational = type(Scalar.exact(1).value)
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"backend": f"{rational.__module__}.{rational.__name__}",
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "cpu": cpu}


def tail_percentile(min_samples):
    for p in TAIL_LADDER:
        if min_samples * (100.0 - p) / 100.0 >= 10:
            return p
    return 50.0


def percentile(values, p):
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def child_output(code):
    status, stdout = run_child([sys.executable, "-c", code])
    if status != 0:
        raise RuntimeError(f"child interpreter exited {status}:\n{code}")
    return stdout


def median_child_seconds(code, reps):
    """Median wall time of `reps` fresh interpreters running `code`, raw
    and scaled to the reference host speed (see clock.py)."""
    clock = Clock()
    times = [clock.time(lambda: child_output(code))[0] for _ in range(reps)]
    scaled = [t * k for t, k in zip(times, clock.scales())]
    return statistics.median(times), statistics.median(scaled)


def import_seconds(reps):
    """Median time to import ortho2d.cli, measured inside fresh
    interpreters (interpreter start excluded)."""
    code = ("import time\nt0 = time.perf_counter()\nimport ortho2d.cli\n"
            "print(time.perf_counter() - t0)\n")
    return statistics.median(float(child_output(code)) for _ in range(reps))


def timed_pass(workload, cfg, clock, tracer=None, trace_run=False):
    gc.collect()  # every pass starts from a collected heap
    t0 = time.perf_counter()
    if tracer is None:
        outcomes = workload.run_pass(cfg, clock, None, trace_run)
    else:
        with tracing.installed(tracer):
            outcomes = workload.run_pass(cfg, clock, tracer, trace_run)
    return time.perf_counter() - t0, outcomes


def run_passes(workload, cfg, seconds, min_passes, traced):
    """Passes while the next one is expected to end within `seconds`, and
    at least `min_passes`.  Traced runs alternate an untraced and a traced
    pass; they do not sample the host's speed.  Returns the walls of both
    kinds, all outcomes, the untraced passes' outcomes (a list per pass),
    their host-speed scales, the clock and the tracers."""
    clock = Clock(reference=not traced)
    walls, traced_walls, outcomes, untraced, tracers = [], [], [], [], []
    scales = []
    start = time.perf_counter()
    while len(walls) < min_passes or (
            time.perf_counter() - start
            + statistics.median(walls) + statistics.median(traced_walls or [0])
            <= seconds):
        wall, result = timed_pass(workload, cfg, clock, None, traced)
        scales.append(clock.scales())
        if len(scales[-1]) != len(result):
            raise RuntimeError(f"{workload.name}: a pass must time each of "
                               f"its units once with the clock")
        walls.append(wall)
        outcomes.extend(result)
        untraced.append(result)
        if traced:
            tracer = tracing.Tracer()
            wall, result = timed_pass(workload, cfg, clock, tracer, traced)
            clock.scales()  # traced passes are not scaled
            traced_walls.append(wall)
            outcomes.extend(result)
            tracers.append(tracer)
    return walls, traced_walls, outcomes, untraced, scales, clock, tracers


def timing_metrics(passes, scales, tail_p):
    """wall_s, unit_p50_ms and unit_tail_ms of untraced passes, every
    unit time multiplied by its scale.  wall_s is a pass's wall
    time with every unit at its median over the passes (a pass runs the
    same units in the same order every time), so that one slow spell of
    the host moves it little."""
    medians = [statistics.median(p[i].seconds * k[i]
                                 for p, k in zip(passes, scales))
               for i in range(len(passes[0]))]
    latencies = [o.seconds * f for p, k in zip(passes, scales)
                 for o, f in zip(p, k)]
    return {"wall_s": sum(medians),
            "unit_p50_ms": 1000.0 * statistics.median(medians),
            "unit_tail_ms": 1000.0 * percentile(latencies, tail_p)}


def layer_metrics(tracers, walls, traced_walls, import_s):
    """Per-layer metrics: median over traced passes of each layer's
    per-pass value."""
    summaries = [t.summary() for t in tracers]
    metrics = {}

    def put(name, values, unit):
        metrics[name] = {"value": statistics.median(values), "unit": unit}

    layers = sorted({layer for _, _, layer in tracing.SPANNED
                     if layer != "verify.verify_relation"}
                    | {"verify.verify_relation.exact",
                       "verify.verify_relation.float"})
    for layer in layers:
        put(f"{layer}.self_s", [s["self_s"].get(layer, 0.0)
                                for s in summaries], "s")
        put(f"{layer}.calls", [s["calls"].get(layer, 0)
                               for s in summaries], "count")
    put("ttr.ttr_from_gram.total_s",
        [s["total_s"].get("ttr.ttr_from_gram", 0.0) for s in summaries], "s")
    for name in ("construction.moment_bilinear.term_pairs",
                 "construction.expand_P.distinct"):
        put(name, [s["counters"].get(name, 0) for s in summaries], "count")
    put("construction.expand_P.max_terms",
        [s["maxima"].get("construction.expand_P.max_terms", 0)
         for s in summaries], "count")
    for name in ("ttr.gram_entry.max_bits", "construction.w_moment.max_bits"):
        put(name, [s["maxima"].get(name, 0) for s in summaries], "bits")
    metrics["cli.import_s"] = {"value": import_s, "unit": "s"}
    traced_wall = statistics.median(traced_walls)
    metrics["trace.wall_s"] = {"value": traced_wall, "unit": "s"}
    # Each traced pass follows its untraced twin, so their difference is
    # taken pair by pair, before the machine's speed drifts.
    metrics["trace.overhead_s"] = {
        "value": statistics.median(t - u for u, t in zip(walls, traced_walls)),
        "unit": "s"}
    metrics["trace.oracle_share"] = {
        "value": metrics["ttr.ttr_from_gram.total_s"]["value"] / traced_wall,
        "unit": "1"}
    return metrics


def run_one(args):
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        known = ", ".join(sorted(WORKLOADS))
        sys.exit(f"unknown workload {args.workload!r} (known: {known}, all)")
    cfg = workload.prepare(args.seed, args.smoke)
    traced = bool(args.trace)
    for module in tracing.MODULES:  # import cost belongs to set-up, not pass 1
        importlib.import_module(f"ortho2d.{module}")
    # A traced run needs one untraced/traced pair; more if time allows.
    min_passes = 1 if args.smoke or traced else MIN_PASSES
    reps = 1 if args.smoke else SETUP_REPS

    setup_raw_s, setup_s = median_child_seconds(workload.setup_code(cfg),
                                                reps)
    (walls, traced_walls, outcomes, untraced, scales, clock,
     tracers) = run_passes(
        workload, cfg, args.seconds, min_passes, traced)
    if workload.peak_rss_of_children and not traced:
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    attempted = len(outcomes)
    passed = sum(o.ok for o in outcomes)
    failed = [o for o in outcomes if not o.ok and not o.known_defect]
    failures = sorted({f"{o.label}: {o.reason}" for o in failed})
    known = sorted({f"{o.label}: {o.reason}" for o in outcomes
                    if o.known_defect})
    problems = list(failures)
    if traced and workload.oracle_free:
        for layer in tracing.ORACLE_LAYERS:
            calls = sum(t.calls.get(layer, 0) for t in tracers)
            if calls:
                problems.append(f"oracle bypass broken: {layer} called "
                                f"{calls} times")
    for line in problems:
        print(f"FAILED {args.workload}: {line}", file=sys.stderr)

    units_per_pass = len(outcomes) // (len(walls) + len(traced_walls))
    tail_p = tail_percentile(min_passes * units_per_pass)
    if traced:
        metrics = layer_metrics(tracers, walls, traced_walls,
                                import_seconds(reps))
    else:
        values = {
            **timing_metrics(untraced, scales, tail_p),
            "setup_s": setup_s,
            "peak_rss_mb": peak_kb / 1024.0,
            "passed_frac": passed / attempted,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in values.items()}
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "smoke": args.smoke,
        **environment(),
        "passes": len(walls) + len(traced_walls),
        "units_per_pass": units_per_pass,
        "unit_samples": len(outcomes),
        "tail_percentile": tail_p,
        "unscaled": {**timing_metrics(untraced, [[1.0] * len(p)
                                                 for p in untraced], tail_p),
                     "setup_s": setup_raw_s},
        "reference_ms": 1000.0 * statistics.fmean(clock.all_samples or [0]),
        "failures": failures,
        "known_defects": known,
        "problems": problems,
        "metrics": metrics,
    }
    print(json.dumps({"record": record}, sort_keys=True))
    result = {"correct": not problems, "attempted": attempted,
              "failed": len(failed), "metrics": metrics}
    print(json.dumps(result))
    return 0


def run_all(args):
    """Every workload in its own fresh interpreter, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            argv.append("--smoke")
        proc = subprocess.run(argv, capture_output=True, text=True,
                              timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit(f"workload {name} exited {proc.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        for key, metric in result["metrics"].items():
            print(f"{name:18s} {key:45s} {metric['value']:14.6g} "
                  f"{metric['unit']}")
            combined["metrics"][f"{name}.{key}"] = metric
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
    print(json.dumps(combined))
    return 0


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "ortho2d" / "__init__.py").is_file():
        sys.exit(f"error: no ortho2d package under {SRC}; run the benchmark "
                 f"from the root of an ortho2d checkout")
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
