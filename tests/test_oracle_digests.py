"""The outputs of the three routes on the ten pinned sets and on the
sweep systems, pinned by digest.

``oracle_digests.json`` holds, per pinned set, under ``digests`` one
SHA-256 each of the Gram oracle's outputs:

* the ``ttr_from_gram`` matrices for n <= 8 (shape, bands and the stored
  entries of each);
* the Gram blocks ``gram_block(n, h)`` for h <= n <= 6;
* the diagonals of H_n for n <= 9;
* the moment table (D, W) grown at once to total degree 14 on a fresh
  system;

and under ``route_digests`` one SHA-256 each of:

* the ``build_ttr`` matrices for n <= 10;
* the ``closed_form_ttr`` matrices for n <= 10;
* the recurrence coefficients a, b and c to index 24 of ladder(0..3) and
  of q.

After the pinned sets it holds one entry per system of perfbench's
sweep-crosscheck at seeds 1 and 7 (six per family and seed, parameters
stored as strings, so the suite does not import perfbench), with under
``sweep_digests`` one SHA-256 each of the ``closed_form_ttr``,
``build_ttr`` and ``ttr_from_gram`` matrices for n <= 4.

Each pinned set also holds, under ``kernel_digests``, one SHA-256 each
of the three integer kernels' outputs on a fresh system:

* the basis integer forms ``_coeffs_int(n)`` for n <= 24 and the moments
  ``moments(40)`` as strings, of ladder(0..3) and of q;
* ``rank_conditions(sys, n)._asdict()`` for n <= 10;
* the exact ``verify_relation`` results for n <= 10 on both axes.

Last come the CLI calls of perfbench's cli-cold workload, their argument
lists stored as data: per call, under ``cli``, the exit code and one
SHA-256 each of stdout and stderr, run in-process through ``cli.main``.
The two calls whose exit codes are known defects are pinned as they
stand.

The oracle digests were recorded before the oracle moved into its own
module, the route digests before the recurrence closures were formed
from integers, the sweep digests before the closed-form tables were, and
the kernel and CLI digests before the rank, basis and moment kernels
took their plain forms; none may be re-recorded from a change that
claims identical outputs.  A change that alters an output on purpose
re-records only the digests it names.
"""
import contextlib
import hashlib
import io
import json
import os
from pathlib import Path
from unittest import mock

import pytest

from ortho2d import (build_ttr, catalog_id, closed_form_ttr, make_system,
                     rank_conditions, ttr_from_gram, verify_relation)
from ortho2d.cli import main
from ortho2d.ttr import SHIFTS

ENTRIES = json.loads(
    Path(__file__).with_name("oracle_digests.json").read_text())
DIGESTS = [e for e in ENTRIES if "digests" in e]
SWEEP = [e for e in ENTRIES if "seed" in e]
CLI = [e for e in ENTRIES if "argv" in e]


def _h_diagonal(sys_obj, n):
    return sys_obj._oracle.diagonal(n)


def _moment_table(sys_obj, top):
    return sys_obj._oracle.moment_table(top)


def _sha(value):
    return hashlib.sha256(repr(value).encode()).hexdigest()


def _matrices(ttr):
    return [(key, mat.shape, mat.lower_bandwidth, mat.upper_bandwidth,
             [(pos, str(v)) for pos, v in mat.items()])
            for key, mat in ttr.matrices().items()]


def oracle_digests(name, params):
    cid = catalog_id(name, **params)
    d, table = _moment_table(make_system(cid), 14)
    sys_obj = make_system(cid)
    matrices = [row for n in range(9)
                for row in _matrices(ttr_from_gram(sys_obj, n))]
    blocks = [[[str(v) for v in row]
               for row in sys_obj.gram_block(n, h).entries]
              for n in range(7) for h in range(n + 1)]
    diagonals = [[str(v) for v in _h_diagonal(sys_obj, n)]
                 for n in range(10)]
    return {"ttr_from_gram": _sha(matrices), "gram_block": _sha(blocks),
            "h_diagonals": _sha(diagonals), "moment_table": _sha((d, table))}


@pytest.mark.parametrize(
    "entry", DIGESTS,
    ids=[f"{e['family']}-{i}" for i, e in enumerate(DIGESTS)])
def test_oracle_outputs_match_the_recorded_digests(entry):
    assert oracle_digests(entry["family"], entry["params"]) == entry["digests"]


def route_digests(name, params):
    cid = catalog_id(name, **params)
    sys_obj = make_system(cid)
    built = [_matrices(build_ttr(sys_obj, n)) for n in range(11)]
    closed = [_matrices(closed_form_ttr(cid, n)) for n in range(11)]
    families = [sys_obj.ladder(m) for m in range(4)] + [sys_obj.q]
    recurrence = [[(str(fam.a(i)), str(fam.b(i)), str(fam.c(i)) if i else "")
                   for i in range(25)] for fam in families]
    return {"build_ttr": _sha(built), "closed_form_ttr": _sha(closed),
            "recurrence": _sha(recurrence)}


@pytest.mark.parametrize(
    "entry", DIGESTS,
    ids=[f"{e['family']}-{i}" for i, e in enumerate(DIGESTS)])
def test_builder_and_closed_form_outputs_match_the_recorded_digests(entry):
    assert (route_digests(entry["family"], entry["params"])
            == entry["route_digests"])


def sweep_digests(name, params):
    cid = catalog_id(name, **params)
    sys_obj = make_system(cid)
    routes = {"closed_form_ttr": lambda n: closed_form_ttr(cid, n),
              "build_ttr": lambda n: build_ttr(sys_obj, n),
              "ttr_from_gram": lambda n: ttr_from_gram(sys_obj, n)}
    return {key: _sha([_matrices(route(n)) for n in range(5)])
            for key, route in routes.items()}


@pytest.mark.parametrize(
    "entry", SWEEP,
    ids=[f"seed{e['seed']}-{e['family']}-{i}" for i, e in enumerate(SWEEP)])
def test_sweep_system_outputs_match_the_recorded_digests(entry):
    assert (sweep_digests(entry["family"], entry["params"])
            == entry["sweep_digests"])


def kernel_digests(name, params):
    sys_obj = make_system(catalog_id(name, **params))
    families = [sys_obj.ladder(m) for m in range(4)] + [sys_obj.q]
    forms = [[fam._coeffs_int(n) for n in range(25)] for fam in families]
    moments = [[str(v) for v in fam.moments(40)] for fam in families]
    ranks = [rank_conditions(sys_obj, n)._asdict() for n in range(11)]
    checks = [verify_relation(sys_obj, n, axis)
              for n in range(11) for axis in SHIFTS]
    return {"basis_forms": _sha(forms), "moments": _sha(moments),
            "rank_conditions": _sha(ranks), "verify_relation": _sha(checks)}


@pytest.mark.parametrize(
    "entry", DIGESTS,
    ids=[f"{e['family']}-{i}" for i, e in enumerate(DIGESTS)])
def test_integer_kernel_outputs_match_the_recorded_digests(entry):
    assert (kernel_digests(entry["family"], entry["params"])
            == entry["kernel_digests"])


def cli_digests(argv):
    # argparse wraps its usage text to COLUMNS, so the width is fixed at
    # the 80 columns the digests were recorded at.
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr), \
            mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        code = main(list(argv))
    return {"exit": code,
            "stdout": hashlib.sha256(stdout.getvalue().encode()).hexdigest(),
            "stderr": hashlib.sha256(stderr.getvalue().encode()).hexdigest()}


@pytest.mark.parametrize("entry", CLI,
                         ids=[" ".join(e["argv"]) for e in CLI])
def test_cli_calls_match_the_recorded_digests(entry):
    assert cli_digests(entry["argv"]) == entry["cli"]
