"""The Gram oracle reads the moments and the basis forms, nothing else.

Every structural coefficient the builder and the closed forms read --
norms, leading coefficients, connection triples, the builder's relation
matrices and the closed-form block norms -- is patched to raise; the
oracle's relations on fresh systems must come out unchanged.  The oracle
holds its system weakly, so a dropped system is freed at once.
"""
import contextlib
import weakref
from unittest import mock

import pytest

from ortho2d import catalog_id, make_system, ttr_from_gram
from ortho2d import construction, ttr, univariate

SIX = [
    ("disk", {"mu": "3/2"}),
    ("biangle", {"alpha": "1", "beta": "1/2"}),
    ("simplex", {"alpha": "1/2", "beta": "1/3", "gamma": "2/7"}),
    ("square", {"alpha": "1", "beta": "2", "gamma": "0", "delta": "1/2"}),
    ("laguerre-jacobi", {"alpha": "1", "beta": "1/2"}),
    ("bessel-laguerre", {"g": "5", "gamma": "2/5"}),
]

STRUCTURAL = [
    (univariate.RecurrenceFamily, "norms"),
    (univariate.RecurrenceFamily, "leading_coeffs"),
    (univariate, "adjacent_down"),
    (univariate, "adjacent_up"),
    (univariate.RecurrenceFamily, "_down_int"),
    (univariate.RecurrenceFamily, "_up_int"),
    (ttr, "first_ttr"),
    (ttr, "second_ttr"),
    (construction.BivariateSystem, "block_norm"),
]


@pytest.mark.parametrize("name, params", SIX, ids=[f for f, _ in SIX])
def test_the_oracle_reads_no_structural_coefficient(name, params):
    cid = catalog_id(name, **params)
    unpatched = make_system(cid)
    want = [ttr_from_gram(unpatched, n) for n in range(5)]
    with contextlib.ExitStack() as stack:
        for owner, attr in STRUCTURAL:
            stack.enter_context(mock.patch.object(
                owner, attr, side_effect=AssertionError(f"read {attr}")))
        got = [ttr_from_gram(make_system(cid), n) for n in range(5)]
        with pytest.raises(AssertionError, match="read block_norm"):
            make_system(cid).block_norm(1, 0)
    assert got == want


def test_a_dropped_system_is_freed_with_its_oracle():
    sys_obj = make_system(catalog_id("disk", mu="1/2"))
    ttr_from_gram(sys_obj, 2)
    oracle = weakref.ref(sys_obj._oracle)
    system = weakref.ref(sys_obj)
    del sys_obj
    assert system() is None and oracle() is None
