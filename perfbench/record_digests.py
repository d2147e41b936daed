#!/usr/bin/env python3
"""Write digests.json: SHA-256 of every relation matrix set of the pinned
systems, degrees 0..14, as the structural builder computes it.

    python3 perfbench/record_digests.py

The committed file was recorded from the seed code; the benchmark fails a
unit whose matrices no longer match it, even when all three routes still
agree with one another.  Re-record only for a deliberate change of the
relation matrices.
"""
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from ortho2d import catalog, ttr  # noqa: E402
from workloads import PINNED, digest_key, relation_digest  # noqa: E402

MAX_DEGREE = 14


def main():
    digests = {}
    for family, params in PINNED:
        system = catalog.make_system(catalog.catalog_id(family, **params))
        for n in range(MAX_DEGREE + 1):
            digests[digest_key(family, params, n)] = relation_digest(
                ttr.build_ttr(system, n))
    text = json.dumps({"max_degree": MAX_DEGREE, "digests": digests},
                      indent=1, sort_keys=True) + "\n"
    (HERE / "digests.json").write_text(text, encoding="utf-8")


if __name__ == "__main__":
    main()
