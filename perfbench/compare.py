#!/usr/bin/env python3
"""Compare benchmark records of two commits.

    python3 perfbench/compare.py BASE.txt NEW.txt

Each file holds the standard output of any number of ``run.py`` runs; the
``{"record": ...}`` lines are read and the rest ignored.  For every
workload and end-to-end metric it prints both medians, each side's
quartile spread as a share of its median, and a verdict against the
metric's bound in ``BENCHMARK.json``:

* ``worse``      -- the new median is worse by more than the bound;
* ``unresolved`` -- a side's spread exceeds the bound, so no verdict;
* ``ok``         -- otherwise.

Records made with different rational backends are refused (exit 2): the
``gmpy2.mpq`` and ``fractions.Fraction`` backends differ by about an order
of magnitude, so such a comparison says nothing about the code.
"""
from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def read_records(path):
    records = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith('{"record"'):
                records.append(json.loads(line)["record"])
    return records


def spread(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def compare(base, new, bounds):
    """Rows (workload, metric, base median, new median, base spread,
    new spread, verdict) for every end-to-end metric both sides report."""
    rows = []
    workloads = sorted({r["workload"] for r in base + new})
    for workload in workloads:
        sides = [[r for r in recs if r["workload"] == workload
                  and not r["trace"] and not r["smoke"]]
                 for recs in (base, new)]
        if not all(sides):
            continue
        for name, (bound, better) in bounds.items():
            values = [[r["metrics"][name]["value"] for r in side]
                      for side in sides]
            b, n = (statistics.median(v) for v in values)
            sb, sn = (spread(v) for v in values)
            worse_by = (n - b) / b if better == "lower" else (b - n) / b
            if max(sb, sn) > bound:
                verdict = "unresolved"
            elif worse_by > bound:
                verdict = "worse"
            else:
                verdict = "ok"
            rows.append((workload, name, b, n, sb, sn, verdict))
    return rows


def main(argv):
    if len(argv) != 2:
        sys.exit(__doc__)
    base, new = (read_records(path) for path in argv)
    backends = {r["backend"] for r in base + new}
    if len(backends) > 1:
        print(f"refusing to compare records from different rational "
              f"backends: {', '.join(sorted(backends))}", file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    print(f"backend {backends.pop() if backends else '?'}; "
          f"{len(base)} base and {len(new)} new records")
    rows = compare(base, new, bounds)
    for workload, name, b, n, sb, sn, verdict in rows:
        print(f"{workload:18s} {name:13s} base {b:12.6g} (±{sb:5.1%})  "
              f"new {n:12.6g} (±{sn:5.1%})  {verdict}")
    return 1 if any(row[-1] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
