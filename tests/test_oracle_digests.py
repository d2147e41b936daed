"""The Gram oracle's outputs on the ten pinned sets, pinned by digest.

``oracle_digests.json`` holds, per pinned set, one SHA-256 each of:

* the ``ttr_from_gram`` matrices for n <= 8 (shape, bands and the stored
  entries of each);
* the Gram blocks ``gram_block(n, h)`` for h <= n <= 6;
* the diagonals of H_n for n <= 9;
* the moment table (D, W) grown at once to total degree 14 on a fresh
  system.

The digests were recorded before the oracle moved into its own module and
must not be re-recorded from a change that claims identical outputs; a
change that alters an output on purpose re-records only the digests it
names.
"""
import hashlib
import json
from pathlib import Path

import pytest

from ortho2d import catalog_id, make_system, ttr_from_gram

DIGESTS = json.loads(
    Path(__file__).with_name("oracle_digests.json").read_text())


def _h_diagonal(sys_obj, n):
    return sys_obj._oracle.diagonal(n)


def _moment_table(sys_obj, top):
    return sys_obj._oracle.moment_table(top)


def _sha(value):
    return hashlib.sha256(repr(value).encode()).hexdigest()


def oracle_digests(name, params):
    cid = catalog_id(name, **params)
    d, table = _moment_table(make_system(cid), 14)
    sys_obj = make_system(cid)
    matrices = [(key, mat.shape, mat.lower_bandwidth, mat.upper_bandwidth,
                 [(pos, str(v)) for pos, v in mat.items()])
                for n in range(9)
                for key, mat in ttr_from_gram(sys_obj, n).matrices().items()]
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
