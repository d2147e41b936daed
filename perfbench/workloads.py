"""The four benchmark workloads.

A workload turns ``--seed`` into a fixed list of inputs (``prepare``) and
runs one *pass* over them (``run_pass``), timing every unit with a
``clock.Clock``.  A pass builds every system afresh, so no pass warms the
caches of the next; it returns one ``Outcome`` per work unit.
``setup_code`` is the Python source a fresh interpreter runs to measure
set-up: import plus ``make_system`` for the workload's systems.

Each workload stresses a different layer, so that a change to one layer
has a workload that exercises it and one that bypasses it:

* ``pinned-crosscheck`` -- the Gram oracle on small operands;
* ``sweep-crosscheck``  -- the Gram oracle on cold caches, large operands;
* ``structural-deep``   -- builder, exact/float relation checks and ranks
  at high degree, never the oracle;
* ``cli-cold``          -- interpreter start, import and the CLI layer.
"""
from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import threading
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

from tracer import ORACLE_LAYERS

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# The ten pinned parameter sets of the acceptance suite
# (tests/test_acceptance.py, PINNED).
PINNED = (
    ("disk", {"mu": "1/2"}),
    ("disk", {"mu": "3/2"}),
    ("biangle", {"alpha": "0", "beta": "0"}),
    ("biangle", {"alpha": "1", "beta": "1/2"}),
    ("simplex", {"alpha": "1/2", "beta": "1/2", "gamma": "1/2"}),
    ("simplex", {"alpha": "0", "beta": "1", "gamma": "2"}),
    ("square", {"alpha": "0", "beta": "0", "gamma": "0", "delta": "0"}),
    ("square", {"alpha": "1", "beta": "2", "gamma": "0", "delta": "1/2"}),
    ("laguerre-jacobi", {"alpha": "1", "beta": "1/2"}),
    ("bessel-laguerre", {"g": "5", "gamma": "2/5"}),
)


class Outcome(NamedTuple):
    label: str
    seconds: float
    ok: bool
    known_defect: bool = False
    reason: str = ""


class Config(NamedTuple):
    systems: tuple        # ((family, {param: str}), ...) in run order
    degrees: tuple        # degrees per system (cross-check: 0..D in order)
    extra: dict


def child_env():
    """Environment for child interpreters: ortho2d from this checkout."""
    return dict(os.environ, PYTHONPATH=str(SRC))


def run_child(argv, limit=120.0):
    """Run a child interpreter to completion; return (exit code, stdout).

    Waits with a blocking ``wait`` and kills the child from a watchdog
    after ``limit`` seconds: ``subprocess.run(timeout=...)`` polls with
    sleeps of up to 50 ms, which would quantize every time measured
    around it."""
    proc = subprocess.Popen(argv, env=child_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, text=True)
    watchdog = threading.Timer(limit, proc.kill)
    watchdog.start()
    try:
        with proc.stdout:
            stdout = proc.stdout.read()
        return proc.wait(), stdout
    finally:
        watchdog.cancel()


def _ortho2d():
    import ortho2d.catalog
    import ortho2d.ttr
    import ortho2d.verify
    return ortho2d


def _cid(family, params):
    return _ortho2d().catalog.catalog_id(family, **params)


def _label(family, params):
    inner = ",".join(f"{k}={v}" for k, v in params.items())
    return f"{family}({inner})"


def _make_systems_code(systems, module="ortho2d"):
    return (f"import {module}\n"
            "from ortho2d import catalog\n"
            f"for family, params in {list(systems)!r}:\n"
            "    catalog.make_system(catalog.catalog_id(family, **params))\n")


# -- correctness: digests of relation matrices recorded from the seed -------


def relation_text(ts):
    """Canonical string form of the six relation matrices of one TTRSet:
    name, shape and every entry of the dense matrix, in a fixed order."""
    parts = []
    for name, matrix in sorted(ts.matrices().items()):
        rows = ";".join(",".join(str(v) for v in row)
                        for row in matrix.dense())
        parts.append(f"{name}[{matrix.rows}x{matrix.cols}]={rows}")
    return "\n".join(parts)


def relation_digest(ts):
    return hashlib.sha256(relation_text(ts).encode()).hexdigest()


def digest_key(family, params, n):
    return f"{_label(family, params)}@{n}"


def load_digests():
    with open(HERE / "digests.json", encoding="utf-8") as fh:
        return json.load(fh)["digests"]


def _digest_ok(digests, family, params, n, ts):
    expected = digests.get(digest_key(family, params, n))
    return expected is not None and expected == relation_digest(ts)


def _same_dense(*sets):
    first = {k: m.dense() for k, m in sets[0].matrices().items()}
    return all({k: m.dense() for k, m in ts.matrices().items()} == first
               for ts in sets[1:])


class InProcess:
    """Defaults of the workloads that run ortho2d in this interpreter."""

    oracle_free = False
    peak_rss_of_children = False

    def setup_code(self, cfg):
        return _make_systems_code(cfg.systems)


# -- pinned-crosscheck --------------------------------------------------------


class PinnedCrosscheck(InProcess):
    """Three-way cross-check of the ten pinned systems, one system per
    pinned set with caches shared across its degrees.  Unit: one
    (system, degree).  The Gram oracle is nearly all the work."""

    name = "pinned-crosscheck"

    def prepare(self, seed, smoke):
        systems = list(PINNED[:2] if smoke else PINNED)
        random.Random(seed).shuffle(systems)
        top = 2 if smoke else 6
        return Config(tuple(systems), tuple(range(top + 1)),
                      {"digests": load_digests()})

    def run_pass(self, cfg, clock, tracer=None, trace_run=False):
        o2 = _ortho2d()
        catalog, ttr = o2.catalog, o2.ttr
        digests = cfg.extra["digests"]
        out = []
        for family, params in cfg.systems:
            cid = _cid(family, params)
            system = catalog.make_system(cid)
            for n in cfg.degrees:
                def unit():
                    return (catalog.closed_form_ttr(cid, n),
                            ttr.build_ttr(system, n),
                            ttr.ttr_from_gram(system, n))
                seconds, routes = clock.time(unit)
                agree = _same_dense(*routes)
                digest = _digest_ok(digests, family, params, n, routes[1])
                reason = ("" if agree and digest else
                          "routes disagree" if not agree else
                          "digest differs from seed")
                out.append(Outcome(digest_key(family, params, n), seconds,
                                   agree and digest, reason=reason))
            if tracer is not None:
                _note_moment_bits(system, 2 * cfg.degrees[-1] + 2)
        return out


def _note_moment_bits(system, total):
    """Read every moment the oracle can have used, so the traced run's
    w_moment hook sees their bit lengths."""
    for h in range(total + 1):
        for k in range(total + 1 - h):
            system.w_moment(h, k)


# -- sweep-crosscheck ---------------------------------------------------------

# Lower ends of each positive-definite family's parameter region (open).
_SWEEP_LOWER = (
    ("disk", {"mu": Fraction(-1, 2)}),
    ("biangle", {"alpha": -1, "beta": -1}),
    ("simplex", {"alpha": -1, "beta": -1, "gamma": -1}),
    ("square", {"alpha": -1, "beta": -1, "gamma": -1, "delta": -1}),
    ("laguerre-jacobi", {"alpha": -2, "beta": -1}),
)
# Denominators are assigned by position and numerators drawn with a fixed
# bit length, one more than the denominator's, so every seed gets the same
# operand sizes and the pass cost does not depend on the seed.
_SWEEP_DENOMINATORS = (7, 11, 13, 17, 19, 23)


def _draw(rng, lower, q):
    """A reduced fraction p/q in (lower, lower + 3], q prime, p % q != 0,
    |p| of bit length q.bit_length() + 1."""
    base = int(lower * q)
    bits = q.bit_length() + 1
    choices = [p for p in range(base + 1, base + 3 * q + 1)
               if p % q and abs(p).bit_length() == bits]
    return str(Fraction(rng.choice(choices), q))


def sweep_systems(seed, per_family):
    rng = random.Random(seed)
    dens = _SWEEP_DENOMINATORS
    out = []
    for family, lower in _SWEEP_LOWER:
        for i in range(per_family):
            out.append((family, {
                key: _draw(rng, low, dens[(i + j) % len(dens)])
                for j, (key, low) in enumerate(lower.items())}))
    # bessel-laguerre is only quasi-definite; positive integer g keeps
    # every Bessel ladder step bessel(g + 2m, -g) away from its poles.
    for i in range(per_family):
        out.append(("bessel-laguerre", {
            "g": str(1 + i % 6),
            "gamma": _draw(rng, 0, dens[i % len(dens)])}))
    rng.shuffle(out)
    return tuple(out)


class SweepCrosscheck(InProcess):
    """Seeded random parameters inside each family's positive-definite
    region.  Unit: build a fresh system and cross-check it to a low degree.
    Caches start cold and moments are large."""

    name = "sweep-crosscheck"

    def prepare(self, seed, smoke):
        per_family = 1 if smoke else 6
        degree = 2 if smoke else 4
        return Config(sweep_systems(seed, per_family), (degree,), {})

    def run_pass(self, cfg, clock, tracer=None, trace_run=False):
        catalog = _ortho2d().catalog
        degree = cfg.degrees[0]
        out = []
        for family, params in cfg.systems:
            cid = _cid(family, params)

            def unit():
                system = catalog.make_system(cid)
                return system, catalog.cross_check(cid, degree, system=system)
            seconds, (system, report) = clock.time(unit)
            out.append(Outcome(_label(family, params), seconds, report.ok,
                               reason="" if report.ok else "routes disagree"))
            if tracer is not None:
                _note_moment_bits(system, 2 * degree + 2)
        return out


# -- structural-deep ----------------------------------------------------------

# Double-precision residual bound for the float relation check.  At degree
# 11..14 the basis coefficients are large and evaluation at points outside
# the weight's support cancels; the seed measures at most 7.2e-7 over the
# pinned set, against the library default of 1e-10 meant for n <= 6.
FLOAT_TOL = 1e-5
FLOAT_POINTS = 20


class StructuralDeep(InProcess):
    """Builder, exact and float relation checks, ranks and the orthonormal
    transpose identity for the pinned systems at degrees beyond the oracle
    workload.  Unit: one (system, degree).  Never calls the oracle."""

    name = "structural-deep"
    oracle_free = True

    def prepare(self, seed, smoke):
        systems = list(PINNED[:2] if smoke else PINNED)
        rng = random.Random(seed)
        rng.shuffle(systems)
        degrees = (3, 4) if smoke else (11, 12, 13, 14)
        points = {
            digest_key(family, params, n): [
                [(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
                 for _ in range(FLOAT_POINTS)] for _ in range(2)]
            for family, params in systems for n in degrees}
        return Config(tuple(systems), degrees,
                      {"digests": load_digests(), "points": points})

    def run_pass(self, cfg, clock, tracer=None, trace_run=False):
        o2 = _ortho2d()
        catalog, ttr, verify = o2.catalog, o2.ttr, o2.verify
        digests = cfg.extra["digests"]
        out = []
        for family, params in cfg.systems:
            cid = _cid(family, params)
            system = catalog.make_system(cid)
            positive = catalog.positive_definite(cid)
            for n in cfg.degrees:
                key = digest_key(family, params, n)
                points = cfg.extra["points"][key]

                def unit():
                    checks = {"ttr": ttr.build_ttr(system, n)}
                    for i, axis in enumerate(("x", "y")):
                        checks[f"exact-{axis}"] = verify.verify_relation(
                            system, n, axis).passed
                        checks[f"float-{axis}"] = verify.verify_relation(
                            system, n, axis, mode="float", points=points[i],
                            tol=FLOAT_TOL).passed
                    checks["rank"] = ttr.rank_conditions(system, n).ok
                    if positive:
                        checks["transpose"] = (
                            verify.verify_orthonormal_transpose(system, n)
                            .passed)
                    return checks
                seconds, checks = clock.time(unit)
                checks["digest"] = _digest_ok(digests, family, params, n,
                                              checks.pop("ttr"))
                bad = [name for name, passed in checks.items() if not passed]
                out.append(Outcome(key, seconds, not bad,
                                   reason=",".join(bad)))
        return out


# -- cli-cold -----------------------------------------------------------------


class Case(NamedTuple):
    argv: tuple
    exit_code: int            # the code the README table prescribes
    output: str = ""          # "json", "csv" or "" (stdout must be empty)
    expect: str = ""          # substring the stdout must contain
    seed_exit: int = -1       # known defect: the code the seed exits with
    defect: str = ""          # ... and why


_P_DISK = ("--mu", "1/2")
_P_SQUARE0 = ("--alpha", "0", "--beta", "0", "--gamma", "0", "--delta", "0")
_P_SIMPLEX = ("--alpha", "1/2", "--beta", "1/2", "--gamma", "1/2")
_P_LJ = ("--alpha", "1", "--beta", "1/2")
_P_BL = ("--g", "5", "--gamma", "2/5")

# Exit codes follow the README table: 0 success, 1 a check failed,
# 2 usage or parameter error, 3 not quasi-definite.
CLI_CASES = (
    Case(("tables", "disk", *_P_DISK, "--max-n", "4"), 0, "json"),
    Case(("tables", "square", *_P_SQUARE0, "--format", "csv"), 0, "csv"),
    Case(("tables", "biangle", "--alpha", "1", "--beta", "1/2"), 0, "json"),
    Case(("tables", "simplex", *_P_SIMPLEX, "--max-n", "4"), 0, "json"),
    Case(("tables", "laguerre-jacobi", *_P_LJ, "--format", "csv"), 0, "csv"),
    Case(("tables", "bessel-laguerre", *_P_BL), 0, "json"),
    Case(("tables", "disk", "--mu", "0.25", "--format", "csv"), 0, "csv"),
    Case(("tables", "biangle", "--alpha", "0", "--beta", "-0.25"), 0, "json"),
    Case(("moments", "disk", *_P_DISK, "--max-h", "2", "--max-k", "2",
          "--format", "csv"), 0, "csv"),
    Case(("moments", "disk", "--mu", "3/2"), 0, "json"),
    Case(("moments", "simplex", "--alpha", "0", "--beta", "1", "--gamma", "2"),
         0, "json"),
    Case(("moments", "square", "--alpha", "1", "--beta", "2", "--gamma", "0",
          "--delta", "1/2", "--format", "csv"), 0, "csv"),
    Case(("moments", "laguerre-jacobi", *_P_LJ), 0, "json"),
    Case(("moments", "bessel-laguerre", *_P_BL, "--max-h", "3", "--max-k",
          "3"), 0, "json"),
    Case(("eval", "disk", *_P_DISK, "--n", "2", "--m", "1", "--x", "1/2",
          "--y", "1/3"), 0, "json", '"value": "5/12"'),
    Case(("eval", "disk", *_P_DISK, "--n", "2", "--m", "1", "--x", "1/2",
          "--y", "1/3", "--mode", "float"), 0, "json"),
    Case(("eval", "simplex", *_P_SIMPLEX, "--n", "4", "--m", "2", "--x", "1/3",
          "--y", "1/4"), 0, "json"),
    Case(("eval", "laguerre-jacobi", *_P_LJ, "--n", "3", "--m", "1", "--x",
          "2", "--y", "1/2"), 0, "json"),
    Case(("eval", "bessel-laguerre", *_P_BL, "--n", "3", "--m", "1", "--x",
          "1/2", "--y", "1/3"), 0, "json"),
    Case(("verify", "disk", *_P_DISK, "--max-n", "4"), 0, "json",
         '"passed": true'),
    Case(("verify", "square", *_P_SQUARE0, "--mode", "float", "--points",
          "20", "--seed", "7", "--max-n", "3"), 0, "json", '"passed": true'),
    Case(("verify", "disk", *_P_DISK, "--max-n", "3", "--corrupt"), 1,
         "json", '"passed": false'),
    Case(("tables", "nope", "--mu", "1"), 2),
    Case(("tables", "disk"), 2),
    Case(("tables", "square", "--alpha", "0", "--beta", "0", "--gamma", "0"),
         2),
    Case(("tables", "disk", *_P_DISK, "--alpha", "1"), 2),
    Case(("tables", "disk", "--mu", "1/x"), 2),
    Case(("tables", "disk", *_P_DISK, "--max-n", "-1"), 2),
    Case(("eval", "disk", *_P_DISK, "--n", "2", "--m", "3", "--x", "0",
          "--y", "0"), 2),
    Case(("verify", "disk", *_P_DISK, "--mode", "bogus"), 2),
    Case(("tables", "disk", "--mu", "1/0"), 2, seed_exit=3, defect=(
        "an unparseable rational exits 3: ZeroDivisionError is mapped to "
        "'not quasi-definite'")),
    Case(("tables", "disk", "--mu=-1/2", "--max-n", "2"), 3),
    Case(("moments", "disk", "--mu=-1/2", "--max-h", "2", "--max-k", "2"), 3),
    Case(("verify", "bessel-laguerre", "--g=-1", "--gamma", "1", "--max-n",
          "3"), 3),
    Case(("tables", "biangle", "--alpha", "-1/2", "--beta", "0"), 0, "json",
         seed_exit=2, defect=("the documented '--alpha -1/2' form is "
                              "rejected by argparse")),
)

# Families the CLI cases build systems for, for the set-up probe.
_CLI_SYSTEMS = (PINNED[0], PINNED[4], PINNED[6], PINNED[8], PINNED[9])


def _canonical_json(obj):
    """README: sorted keys, two-space indent, trailing newline."""
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def judge(case, code, stdout):
    """Reason the invocation misses the README contract, or ''."""
    if code != case.exit_code:
        return f"exit {code}, README says {case.exit_code}"
    if not case.output:
        return "" if stdout == "" else "unexpected output on stdout"
    if case.output == "json":
        try:
            obj = json.loads(stdout)
        except ValueError:
            return "stdout is not JSON"
        if _canonical_json(obj) != stdout:
            return "JSON does not round-trip byte-identical"
    else:
        rows = list(csv.reader(io.StringIO(stdout)))
        if len(rows) < 2 or len({len(r) for r in rows}) != 1:
            return "CSV is empty or ragged"
    if case.expect and case.expect not in stdout:
        return f"stdout lacks {case.expect!r}"
    return ""


class CliCold:
    """Cold ``python -m ortho2d.cli`` subprocesses, one at a time.  Unit:
    one invocation, judged by its exit code against the README table and
    by a byte-identical JSON round trip.  In a traced run ``cli.main``
    runs in-process on the same argument lists instead."""

    name = "cli-cold"
    oracle_free = False
    peak_rss_of_children = True

    def prepare(self, seed, smoke):
        cases = list(CLI_CASES)
        if smoke:
            cases = [c for c in cases if c.argv[0] != "verify"][:4] + [
                c for c in cases if c.defect]
        random.Random(seed).shuffle(cases)
        return Config(_CLI_SYSTEMS, (), {"cases": tuple(cases)})

    def setup_code(self, cfg):
        return _make_systems_code(cfg.systems, module="ortho2d.cli")

    def run_pass(self, cfg, clock, tracer=None, trace_run=False):
        if trace_run:
            return [self._in_process(case, clock, tracer)
                    for case in cfg.extra["cases"]]
        return [self._subprocess(case, clock) for case in cfg.extra["cases"]]

    def _outcome(self, case, seconds, code, stdout, extra_reason=""):
        reason = judge(case, code, stdout) or extra_reason
        known = bool(reason) and code == case.seed_exit and not extra_reason
        return Outcome(" ".join(case.argv), seconds, not reason, known,
                       reason)

    def _subprocess(self, case, clock):
        seconds, (code, stdout) = clock.time(lambda: run_child(
            [sys.executable, "-m", "ortho2d.cli", *case.argv]))
        return self._outcome(case, seconds, code, stdout)

    def _in_process(self, case, clock, tracer):
        import ortho2d.cli
        before = _oracle_calls(tracer)
        stdout, stderr = io.StringIO(), io.StringIO()

        def unit():
            with contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(stderr):
                return ortho2d.cli.main(list(case.argv))
        seconds, code = clock.time(unit)
        extra = ""
        if case.argv[0] != "verify" and _oracle_calls(tracer) != before:
            extra = "non-verify command called the Gram oracle"
        return self._outcome(case, seconds, code, stdout.getvalue(), extra)


def _oracle_calls(tracer):
    if tracer is None:
        return 0
    return sum(tracer.calls.get(layer, 0) for layer in ORACLE_LAYERS)


WORKLOADS = {w.name: w for w in (PinnedCrosscheck(), SweepCrosscheck(),
                                 StructuralDeep(), CliCold())}
