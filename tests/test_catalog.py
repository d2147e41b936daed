"""Catalog families: identifiers, closed forms, and the three-way check."""
import copy
import pickle
import random
import sys
from fractions import Fraction

import pytest

from ortho2d import (
    FAMILY_PARAMS,
    CatalogId,
    ModeError,
    QuasiDefinitenessError,
    Scalar,
    build_ttr,
    catalog_id,
    closed_form_first,
    closed_form_second,
    closed_form_ttr,
    closed_forms,
    construction,
    cross_check,
    make_system,
    positive_definite,
    ttr_from_gram,
    univariate,
)
from ortho2d.numerics import _RAT

q = Scalar.exact

PINNED = [
    ("disk", {"mu": "1/2"}),
    ("disk", {"mu": "3/2"}),
    ("biangle", {"alpha": 0, "beta": 0}),
    ("biangle", {"alpha": 1, "beta": "1/2"}),
    ("simplex", {"alpha": "1/2", "beta": "1/2", "gamma": "1/2"}),
    ("simplex", {"alpha": 0, "beta": 1, "gamma": 2}),
    ("square", {"alpha": 0, "beta": 0, "gamma": 0, "delta": 0}),
    ("square", {"alpha": 1, "beta": 2, "gamma": 0, "delta": "1/2"}),
    ("laguerre-jacobi", {"alpha": 1, "beta": "1/2"}),
    ("bessel-laguerre", {"g": 5, "gamma": "2/5"}),
]


def test_catalog_id_validation():
    with pytest.raises(ValueError, match="unknown family"):
        catalog_id("pentagon", mu=1)
    with pytest.raises(ValueError, match="missing"):
        catalog_id("disk")
    with pytest.raises(ValueError, match="extra"):
        catalog_id("disk", mu=1, alpha=2)
    cid = catalog_id("disk", mu="1/2")
    assert cid.describe() == "disk(mu=1/2)"
    assert cid.param("mu") == q("1/2")
    assert cid.params_dict == {"mu": q("1/2")}


def test_bessel_laguerre_rejects_zero_g():
    # One check, where the id is made: no id with g = 0 reaches the
    # system, the closed forms or positive_definite.
    good = catalog_id("bessel-laguerre", g=5, gamma=1)
    for zero in (0, "0", "0/7", Fraction(0), q(0)):
        for build in (
                lambda: catalog_id("bessel-laguerre", g=zero, gamma=1),
                lambda: CatalogId("bessel-laguerre",
                                  (("g", zero), ("gamma", 1))),
                lambda: CatalogId._make(("bessel-laguerre",
                                         (("g", zero), ("gamma", 1)))),
                lambda: good._replace(params=(("g", zero), ("gamma", 1)))):
            with pytest.raises(ValueError, match="^bessel-laguerre "
                               "requires a nonzero parameter g$"):
                build()
    # the other parameter, and every other family's, may vanish
    assert catalog_id("bessel-laguerre", g=5, gamma=0).param("gamma") == 0
    assert catalog_id("disk", mu=0).param("mu") == 0
    assert good._replace(params=(("g", "1/2"), ("gamma", 1))) == (
        catalog_id("bessel-laguerre", g="1/2", gamma=1))


def test_catalog_id_refuses_a_repeated_parameter_name():
    for params in ((("mu", 1), ("mu", 2)), (("mu", 1), ("mu", 1))):
        with pytest.raises(ValueError, match="^family 'disk': parameter "
                           "'mu' is given more than once$"):
            CatalogId("disk", params)
    with pytest.raises(ValueError, match="parameter 'g' is given"):
        CatalogId("bessel-laguerre", (("g", 5), ("gamma", 1), ("g", 5)))
    # a mapping, which cannot repeat a name, is still read as one
    assert CatalogId("disk", {"mu": 1}) == catalog_id("disk", mu=1)


def test_catalog_id_is_checked_on_every_constructor():
    # _make and _replace normalize and refuse a float as the call does;
    # copy and pickle rebuild an equal id
    good = catalog_id("bessel-laguerre", g=5, gamma=1)
    disk = catalog_id("disk", mu="1/2")
    for build in (lambda: CatalogId._make(("disk", (("mu", 0.5),))),
                  lambda: disk._replace(params=(("mu", 0.5),))):
        with pytest.raises(ModeError):
            build()
    assert CatalogId._make(("disk", (("mu", "1/2"),))) == disk
    for cid in (good, disk):
        for twin in (copy.copy(cid), copy.deepcopy(cid),
                     pickle.loads(pickle.dumps(cid))):
            assert twin == cid and type(twin) is CatalogId


def test_positive_definite_flags():
    assert positive_definite(catalog_id("disk", mu="1/2"))
    assert not positive_definite(catalog_id("disk", mu=-1))
    assert positive_definite(
        catalog_id("laguerre-jacobi", alpha=1, beta="1/2"))
    assert not positive_definite(
        catalog_id("laguerre-jacobi", alpha=-3, beta="1/2"))
    assert not positive_definite(
        catalog_id("bessel-laguerre", g=5, gamma="2/5"))
    assert positive_definite(
        catalog_id("square", alpha=0, beta=0, gamma=0, delta=0))


# The open lower bound of each parameter on the positive-definite region.
POSITIVE_BOUNDS = {
    "disk": {"mu": "-1/2"},
    "biangle": {"alpha": -1, "beta": -1},
    "simplex": {"alpha": -1, "beta": -1, "gamma": -1},
    "square": {"alpha": -1, "beta": -1, "gamma": -1, "delta": -1},
    "laguerre-jacobi": {"alpha": -2, "beta": -1},
}


@pytest.mark.parametrize("name", sorted(POSITIVE_BOUNDS))
def test_positive_definite_region_of_each_family(name):
    bounds = {k: q(v) for k, v in POSITIVE_BOUNDS[name].items()}
    assert tuple(bounds) == FAMILY_PARAMS[name]
    inside = {k: b + 1 for k, b in bounds.items()}
    for key, bound in bounds.items():
        for value, expected in ((bound, False), (bound + q("1/1000"), True)):
            cid = catalog_id(name, **{**inside, key: value})
            assert positive_definite(cid) is expected, (key, value)


@pytest.mark.parametrize("g, gamma", [(5, "2/5"), (1, 1), ("1/2", 3),
                                      (-3, "-1/2"), (100, 100)])
def test_bessel_laguerre_is_never_positive_definite(g, gamma):
    cid = catalog_id("bessel-laguerre", g=g, gamma=gamma)
    assert positive_definite(cid) is False


def test_closed_form_structural_markers():
    cid = catalog_id("disk", mu="1/2")
    row0 = closed_form_second(cid, 1, 0)
    assert row0["a1"] is None and row0["b1"] is None and row0["c1"] is None
    assert row0["b3"] is not None  # m = 0 < n
    row1 = closed_form_second(cid, 1, 1)
    assert row1["b3"] is None and row1["c2"] is None and row1["c3"] is None
    first_top = closed_form_first(cid, 2, 2)
    assert first_top["c"] is None  # lowering matrix has no m = n column
    assert closed_form_first(cid, 2, 1)["c"] is not None


# Each table key: (columns of its matrix beyond n, column offset from row
# m).  At degree n, A has n + 2 columns, B n + 1 and C n.
BAND_LAYOUT = {
    "a": (2, 0), "b": (1, 0), "c": (0, 0),
    "a1": (2, -1), "a2": (2, 0), "a3": (2, 1),
    "b1": (1, -1), "b2": (1, 0), "b3": (1, 1),
    "c1": (0, -1), "c2": (0, 0), "c3": (0, 1),
}


@pytest.mark.parametrize("name,params", PINNED)
def test_closed_form_nulls_follow_the_band_layout(name, params):
    cid = catalog_id(name, **params)
    for n in range(9):
        for m in range(n + 1):
            first = closed_form_first(cid, n, m)
            second = closed_form_second(cid, n, m)
            assert set(first) == {"a", "b", "c"}
            assert set(first) | set(second) == set(BAND_LAYOUT)
            row = {**first, **second}
            for key, (extra, offset) in BAND_LAYOUT.items():
                outside = not 0 <= m + offset < n + extra
                assert (row[key] is None) == outside, (n, m, key)


@pytest.mark.parametrize("name,params", PINNED)
def test_closed_forms_run_nothing_in_univariate_or_construction(name, params):
    cid = catalog_id(name, **params)
    banned = {univariate.__file__, construction.__file__}
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code.co_filename)

    sys.setprofile(profile)
    try:
        for n in range(8):
            closed_form_ttr(cid, n)
    finally:
        sys.setprofile(None)
    assert seen and not seen & banned, sorted(seen & banned)


def test_closed_form_disk_anchor_values():
    cid = catalog_id("disk", mu="1/2")
    ts = closed_form_ttr(cid, 1)
    assert ts.a_x.get(0, 0) == q("3/5")
    assert ts.a_x.get(1, 1) == q("2/5")
    assert ts.c_x.get(0, 0) == q("3/8")
    assert ts.a_y.get(1, 0) == q("-2/15")
    assert ts.a_y.get(0, 1) == q("3/5")
    assert ts.a_y.get(1, 2) == q("2/3")
    assert ts.c_y.get(1, 0) == q("1/4")
    assert ts.b_x.is_zero and ts.b_y.is_zero


def test_closed_form_bessel_laguerre_anchor_values():
    cid = catalog_id("bessel-laguerre", g=5, gamma="2/5")
    second = closed_form_second(cid, 1, 1)
    assert second["a1"] == q("-5/21")
    assert second["a2"] == q("-4/7")
    assert second["a3"] == q("-2/5")
    assert second["b1"] == q("4/7")
    assert second["b2"] == q("4/7")


@pytest.mark.parametrize("name,params", PINNED)
def test_three_way_agreement(name, params):
    cid = catalog_id(name, **params)
    report = cross_check(cid, 5)
    assert report.ok, report.mismatches[:3]
    assert report.family == cid.describe()


def test_cross_check_detects_injected_fault():
    cid = catalog_id("disk", mu="1/2")
    report = cross_check(cid, 2, corrupt=True)
    assert not report.ok
    assert len(report.mismatches) == 1
    mm = report.mismatches[0]
    assert (mm.n, mm.matrix, mm.row, mm.col) == (0, "A_x", 0, 0)
    assert mm.built == mm.gram  # the two independent routes still agree
    assert mm.closed == mm.built + 1


def test_oracle_reads_the_moments_that_the_builder_never_reads():
    cid = catalog_id("simplex", alpha="1/2", beta="1/2", gamma="1/2")
    clean = make_system(cid)
    sys_obj = make_system(cid)
    base = sys_obj.ladder(0)
    # moments 0..2 normalise the next ladder step; moment 5 feeds only the
    # bivariate moments <w, x^h y^k> with h + deg(rho^k) >= 5.  The fault
    # goes into the one integer store: <u_0, x^5> + 1 over its denominator.
    d, ints = base._moments_int(12)
    ints[5] += d
    assert base.moments(5)[5] == clean.ladder(0).moments(5)[5] + 1
    for n in range(5):
        assert build_ttr(sys_obj, n) == build_ttr(clean, n)
    report = cross_check(cid, 4, system=sys_obj)
    assert not report.ok
    for mm in report.mismatches:
        assert mm.closed == mm.built and mm.built != mm.gram
    assert cross_check(cid, 4, system=clean).ok
    for n in range(5):
        assert build_ttr(sys_obj, n) == build_ttr(clean, n)
        assert closed_form_ttr(cid, n) == build_ttr(clean, n)


def test_oracle_alone_reads_the_moments_of_q():
    # q's moment 4 feeds only the bivariate moments <w, x^h y^4>: neither
    # the builder nor the closed forms read a moment of q, so a fault in
    # q's integer store breaks the oracle alone
    cid = catalog_id("simplex", alpha="1/2", beta="1/2", gamma="1/2")
    clean = make_system(cid)
    sys_obj = make_system(cid)
    d, ints = sys_obj.q._moments_int(12)
    ints[4] += d
    assert sys_obj.q.moments(4)[4] == clean.q.moments(4)[4] + 1
    assert sys_obj.w_moment(0, 4) != clean.w_moment(0, 4)
    report = cross_check(cid, 4, system=sys_obj)
    assert not report.ok
    for mm in report.mismatches:
        assert mm.closed == mm.built != mm.gram
    for n in range(5):
        assert build_ttr(sys_obj, n) == build_ttr(clean, n)
    assert cross_check(cid, 4, system=clean).ok


def _first_refusal(route, cid, top=5):
    """(degree, exception type) of the first failing degree <= top of one
    route, with degree "make_system" where building the system fails."""
    if route == "closed":
        def step(n):
            closed_form_ttr(cid, n)
    else:
        try:
            sys_obj = make_system(cid)
        except Exception as exc:
            return "make_system", type(exc)
        build = {"builder": build_ttr, "oracle": ttr_from_gram}[route]

        def step(n):
            build(sys_obj, n)
    for n in range(top + 1):
        try:
            step(n)
        except Exception as exc:
            return n, type(exc)
    return None


QDE = QuasiDefinitenessError


# How the three routes refuse on a vanishing hyperplane, pinned as they
# stand: the closed forms raise a bare ZeroDivisionError, and the first
# failing degree differs between routes on simplex and biangle.  On
# biangle(-2, 1/2) the closed forms refuse nothing to degree 5: their only
# zero there was removable (a3 at m = n = 0, now cancelled).
@pytest.mark.parametrize("name, params, closed, builder, oracle", [
    ("disk", {"mu": "-1/2"},
     (0, ZeroDivisionError), ("make_system", QDE), ("make_system", QDE)),
    ("simplex", {"alpha": "-1/2", "beta": "-1/2", "gamma": "-5/2"},
     (1, ZeroDivisionError), (0, QDE), (0, QDE)),
    ("biangle", {"alpha": "-2", "beta": "1/2"},
     None, (2, QDE), (1, QDE)),
])
def test_refusals_on_vanishing_hyperplanes_are_pinned(
        name, params, closed, builder, oracle):
    cid = catalog_id(name, **params)
    assert [_first_refusal(route, cid)
            for route in ("closed", "builder", "oracle")] == [
        closed, builder, oracle]


# The builder's refusals on two of those hyperplanes, message and index
# as they stand: the first failing degree fails again on a second call.
@pytest.mark.parametrize("name, params, degree, index, message", [
    ("biangle", {"alpha": "-2", "beta": "1/2"}, 2, 2,
     "jacobi01(-2,1): norm ratio h(2)/h(1) = c(2)/a(1) is zero "
     "[params alpha=-2, beta=1]"),
    ("simplex", {"alpha": "-1/2", "beta": "-1/2", "gamma": "-5/2"}, 0, 1,
     "simplex(alpha=-1/2, beta=-1/2, gamma=-5/2):jacobi01(0,-1/2): "
     "weight-chain value <u, rho^2> vanished at ladder step 1 "
     "[params alpha=0, beta=-1/2]"),
])
def test_builder_refusal_messages_are_pinned(name, params, degree, index,
                                             message):
    sys_obj = make_system(catalog_id(name, **params))
    for n in range(degree):
        build_ttr(sys_obj, n)
    for _ in range(2):
        with pytest.raises(QuasiDefinitenessError) as info:
            build_ttr(sys_obj, degree)
        assert (info.value.index, str(info.value)) == (index, message)


# Parameters on which a closed-form numerator and denominator vanish
# together at m = n or m = 0: the cancelled branch keeps the three routes
# in agreement up to the last degree that the builder and the oracle reach.
@pytest.mark.parametrize("name, params, top", [
    # a3 at m = n: n + al + be + 3/2 = 2n - m + al + be + 3/2 = 0 at n = 0
    ("biangle", {"alpha": "-2", "beta": "1/2"}, 0),
    # a3 and b3 at m = 0: m + 2 be + 1 = 2m + 2 be + 1 = 0
    ("biangle", {"alpha": 0, "beta": "-1/2"}, 5),
    # a3, b3 and c3 at m = 0: m + t + 1 = 2m + t + 1 = 0 (t = be + ga)
    ("simplex", {"alpha": 0, "beta": "-1/2", "gamma": "-1/2"}, 5),
    # a2 and a3 at m = n: n + m + s + 2 = 2n + s + 2 = 0 at n = 0
    ("simplex", {"alpha": -2, "beta": 0, "gamma": 0}, 0),
])
def test_cancelled_branches_keep_the_routes_in_agreement(name, params, top):
    report = cross_check(catalog_id(name, **params), top)
    assert report.ok, report.mismatches[:3]


def test_square_closed_forms_catch_a_reflected_jacobi_recurrence(
        monkeypatch):
    # b of jacobi(beta, alpha) still gives a valid recurrence, for another
    # weight; only closed forms stated apart from univariate can notice.
    closures = univariate._jacobi_raw_closures

    def reflected(al, be):
        a, _, c = closures(al, be)
        return a, closures(be, al)[1], c

    monkeypatch.setattr(univariate, "_jacobi_raw_closures", reflected)
    cid = catalog_id("square", alpha=1, beta=2, gamma=0, delta="1/2")
    report = cross_check(cid, 3)
    assert not report.ok
    assert {mm.matrix for mm in report.mismatches} >= {"B_x", "B_y"}
    for mm in report.mismatches:
        assert mm.built == mm.gram != mm.closed


def test_cross_check_shares_a_prebuilt_system():
    cid = catalog_id("disk", mu="1/2")
    sys_obj = make_system(cid)
    assert cross_check(cid, 3, system=sys_obj).ok


def test_cross_check_rejects_a_system_built_for_another_id():
    other = make_system(catalog_id("disk", mu="3/2"))
    with pytest.raises(ValueError, match="disk"):
        cross_check(catalog_id("disk", mu="1/2"), 3, system=other)


def test_cross_check_validates_degree():
    cid = catalog_id("disk", mu="1/2")
    for bad in (-1, True, 1.0):
        for call in (lambda: cross_check(cid, bad),
                     lambda: closed_form_ttr(cid, bad),
                     lambda: closed_form_first(cid, bad, 0),
                     lambda: closed_form_second(cid, 1, bad)):
            with pytest.raises(ValueError):
                call()


# -- the integer tables against their rational formulas -----------------------
#
# The closed-form tables as rational expressions in the parameters, one
# operation at a time, with the cancelled branches of the tables: the
# reference that the integer tables (one rational per entry) must equal.

_HALF = _RAT(1, 2)


def _ref_disk_first(p, n, m):
    mu = p["mu"]
    if m == n:
        a = 1 / (n + mu + 1)
    else:
        a = ((n - m + 1) * (n + m + 2 * mu + 1)
             / ((n + mu + 1) * (2 * n + 2 * mu + 1)))
    out = {"a": a}
    if m <= n - 1:
        out["c"] = (n + mu) / (2 * n + 2 * mu + 1)
    return out


def _ref_biangle_first(p, n, m):
    al, be = p["alpha"], p["beta"]
    d = 2 * n - m + al + be
    if m == n:
        a = 1 / (n + al + be + 5 * _HALF)
    else:
        a = ((n - m + 1) * (n + al + be + 3 * _HALF)
             / ((d + 3 * _HALF) * (d + 5 * _HALF)))
    b = (n + be + 3 * _HALF) * (n - m + 1) / (d + 5 * _HALF)
    if m < n:
        b = b - (n + be + _HALF) * (n - m) / (d + _HALF)
    out = {"a": a, "b": b}
    if m <= n - 1:
        out["c"] = ((n - m + al) * (n + be + _HALF)
                    / ((d + _HALF) * (d + 3 * _HALF)))
    return out


def _ref_simplex_first(p, n, m):
    al = p["alpha"]
    s = al + p["beta"] + p["gamma"]
    t = p["beta"] + p["gamma"]
    if m == n:
        a = 1 / (2 * n + s + 3)
    else:
        a = (n - m + 1) * (n + m + s + 2) / ((2 * n + s + 2) * (2 * n + s + 3))
    b = (n - m + al + 1) * (n - m + 1) / (2 * n + s + 3)
    if m < n:
        b = b - (n - m + al) * (n - m) / (2 * n + s + 1)
    out = {"a": a, "b": b}
    if m <= n - 1:
        out["c"] = ((n + m + t + 1) * (n - m + al)
                    / ((2 * n + s + 1) * (2 * n + s + 2)))
    return out


def _ref_jacobi_abc(al, be, k):
    """Recurrence coefficients a_k, b_k and c_k (None at k = 0) of the
    Jacobi polynomials for the weight (1-x)^al (1+x)^be on [-1, 1], in the
    normalisation p_k(1) = binomial(k + al, k)."""
    s = al + be
    if k == 0:
        return 2 / (s + 2), (be - al) / (s + 2), None
    return (2 * (k + 1) * (k + s + 1) / ((2 * k + s + 1) * (2 * k + s + 2)),
            (be * be - al * al) / ((2 * k + s) * (2 * k + s + 2)),
            2 * (k + al) * (k + be) / ((2 * k + s) * (2 * k + s + 1)))


def _ref_square_first(p, n, m):
    a, b, c = _ref_jacobi_abc(p["alpha"], p["beta"], n - m)
    out = {"c": c} if m <= n - 1 else {}
    return {**out, "a": a, "b": b}


def _ref_lj_first(p, n, m):
    al = p["alpha"]
    out = {"a": _RAT(-(n - m + 1)), "b": 2 * n + al + 2}
    if m <= n - 1:
        out["c"] = -(n + m + al + 1)
    return out


def _ref_bl_first(p, n, m):
    g = p["g"]
    if m == n:
        a = -g / (2 * n + g)
        b = g / (2 * n + g)
    else:
        a = -g * (n + m + g - 1) / ((2 * n + g - 1) * (2 * n + g))
        b = g * (2 * m + g - 2) / ((2 * n + g - 2) * (2 * n + g))
    out = {"a": a, "b": b}
    if m <= n - 1:
        out["c"] = g * (n - m) / ((2 * n + g - 2) * (2 * n + g - 1))
    return out


def _ref_disk_second(p, n, m):
    mu = p["mu"]
    # (m + 2 mu) / (2 m + 2 mu), cancelled to 1 at m = 0.
    f = _RAT(1) if m == 0 else (m + 2 * mu) / (2 * (m + mu))
    d = 2 * n + 2 * mu + 1
    out = {}
    if m >= 1:
        out["a1"] = (-(m + mu - _HALF) * (n - m + 1) * (n - m + 2)
                     / ((m + mu) * (n + mu + 1) * d))
        out["c1"] = (m + mu - _HALF) * (n + mu) / ((m + mu) * d)
    out["a3"] = ((m + 1) * f * (n + m + 2 * mu + 1) * (n + m + 2 * mu + 2)
                 / ((2 * m + 2 * mu + 1) * d * (n + mu + 1)))
    if m <= n - 2:
        out["c3"] = (-(m + 1) * f * (n + mu)
                     / ((2 * m + 2 * mu + 1) * d))
    return out


def _ref_biangle_second(p, n, m):
    al, be = p["alpha"], p["beta"]
    d = 2 * n - m + al + be + 3 * _HALF
    e = (2 * m + 2 * be + 1) * (2 * m + 2 * be + 2)
    # 2 (m + 1)(m + 2 be + 1) / e, cancelled at m = 0.
    u = 1 / (be + 1) if m == 0 else 2 * (m + 1) * (m + 2 * be + 1) / e
    out = {}
    if m >= 1:
        out["b1"] = (m + be) * (n - m + 1) / ((2 * m + 2 * be + 1) * d)
        out["c1"] = (m + be) * (n + be + _HALF) / ((2 * m + 2 * be + 1) * d)
    # d = n + al + be + 3/2 at m = n, cancelled.
    out["a3"] = u if m == n else u * (n + al + be + 3 * _HALF) / d
    if m <= n - 1:
        out["b3"] = u * (n - m + al) / d
    return out


def _ref_simplex_second(p, n, m):
    al, be, ga = p["alpha"], p["beta"], p["gamma"]
    s = al + be + ga
    t = be + ga
    lam = -(m + be + 1) * (m + 1) / (2 * m + t + 2)
    if m >= 1:
        lam = lam + (m + be) * m / (2 * m + t)
    d1 = 2 * n + s + 1
    d2 = 2 * n + s + 2
    d3 = 2 * n + s + 3
    e0 = (2 * m + t) * (2 * m + t + 1)
    e1 = (2 * m + t + 1) * (2 * m + t + 2)
    # (m + 1)(m + t + 1) / e1, cancelled at m = 0.
    r = 1 / (t + 2) if m == 0 else (m + 1) * (m + t + 1) / e1
    out = {}
    if m >= 1:
        out["a1"] = ((m + be) * (m + ga) * (n - m + 1) * (n - m + 2)
                     / (e0 * d2 * d3))
        out["b1"] = (-2 * (m + be) * (m + ga) * (n - m + 1) * (n + m + t + 1)
                     / (e0 * d1 * d3))
        out["c1"] = ((m + be) * (m + ga) * (n + m + t) * (n + m + t + 1)
                     / (e0 * d1 * d2))
    if m == n:  # n + m + s + 2 = d2 and n + m + s + 3 = d3, cancelled
        out["a2"] = lam / d3
        out["a3"] = r
    else:
        out["a2"] = lam * (n - m + 1) * (n + m + s + 2) / (d2 * d3)
        out["a3"] = r * (n + m + s + 2) * (n + m + s + 3) / (d2 * d3)
    inner = 1 - (n - m + al + 1) * (n - m + 1) / d3
    if m < n:
        inner = inner + (n - m + al) * (n - m) / d1
    out["b2"] = -lam * inner
    if m <= n - 1:
        out["b3"] = -2 * r * (n - m + al) * (n + m + s + 2) / (d1 * d3)
        out["c2"] = lam * (n - m + al) * (n + m + t + 1) / (d1 * d2)
    if m <= n - 2:
        out["c3"] = r * (n - m + al) * (n - m + al - 1) / (d1 * d2)
    return out


def _ref_square_second(p, n, m):
    a, b, c = _ref_jacobi_abc(p["gamma"], p["delta"], m)
    out = {"a3": a, "b2": b}
    if m >= 1:
        out["c1"] = c
    return out


def _ref_lj_second(p, n, m):
    al, be = p["alpha"], p["beta"]
    # b-coefficient of the second-variable family, cancelled at m = 0.
    qb = (-be / (be + 2) if m == 0
          else -be * be / ((2 * m + be) * (2 * m + be + 2)))
    e0 = (2 * m + be) * (2 * m + be + 1)
    e1 = (2 * m + be + 1) * (2 * m + be + 2)
    out = {}
    if m >= 1:
        out["a1"] = 2 * m * (m + be) * (n - m + 1) * (n - m + 2) / e0
        out["b1"] = -4 * m * (m + be) * (n + m + al + 1) * (n - m + 1) / e0
        out["c1"] = 2 * m * (m + be) * (n + m + al) * (n + m + al + 1) / e0
    out["a2"] = -qb * (n - m + 1)
    out["a3"] = 2 * (m + 1) * (m + be + 1) / e1
    out["b2"] = qb * (2 * n + al + 2)
    if m <= n - 1:
        out["b3"] = -4 * (m + 1) * (m + be + 1) / e1
        out["c2"] = -qb * (n + m + al + 1)
    if m <= n - 2:
        out["c3"] = 2 * (m + 1) * (m + be + 1) / e1
    return out


def _ref_bl_second(p, n, m):
    g, ga = p["g"], p["gamma"]
    gg = g * ga
    d0 = 2 * n + g - 2
    d1 = 2 * n + g - 1
    d2 = 2 * n + g
    out = {}
    if m >= 1:
        out["a1"] = -(m + gg - 1) * g / (d1 * d2)
    if m == n:
        out["a2"] = -(2 * n + gg) / d2
        out["a3"] = _RAT(-(n + 1)) / g
        out["b2"] = (2 * n + gg) / d2
    else:
        out["a2"] = -(2 * m + gg) * (n + m + g - 1) / (d1 * d2)
        out["a3"] = -(m + 1) * (n + m + g - 1) * (n + m + g) / (g * d1 * d2)
        out["b2"] = (2 * m + gg) * (2 * m + g - 2) / (d0 * d2)
    if m >= 1:
        out["b1"] = 2 * (m + gg - 1) * g / (d0 * d2)
        out["c1"] = -(m + gg - 1) * g / (d0 * d1)
    if m <= n - 1:
        out["b3"] = -2 * (m + 1) * (n - m) * (n + m + g - 1) / (g * d0 * d2)
        out["c2"] = (2 * m + gg) * (n - m) / (d0 * d1)
    if m <= n - 2:
        out["c3"] = -(m + 1) * (n - m) * (n - m - 1) / (g * d0 * d1)
    return out


REFERENCE = {
    "disk": (_ref_disk_first, _ref_disk_second),
    "biangle": (_ref_biangle_first, _ref_biangle_second),
    "simplex": (_ref_simplex_first, _ref_simplex_second),
    "square": (_ref_square_first, _ref_square_second),
    "laguerre-jacobi": (_ref_lj_first, _ref_lj_second),
    "bessel-laguerre": (_ref_bl_first, _ref_bl_second),
}


def _parity_draws():
    """Three parameter sets per family with perfbench's sweep sizes (p/q,
    q prime in 7..23, p of one bit more than q) and three of about 100
    bits, each parameter nonzero."""
    rng = random.Random(28)
    dens = (7, 11, 13, 17, 19, 23)

    def signed(bits):
        return rng.choice((1, -1)) * rng.randrange(2 ** (bits - 1), 2 ** bits)

    def small(q):
        return signed(q.bit_length() + 1), q

    def large(_):
        return signed(100), rng.randrange(2 ** 99, 2 ** 100)

    draws = []
    for draw in (small, large):
        for name, keys in FAMILY_PARAMS.items():
            for i in range(3):
                draws.append((name, {
                    k: str(Fraction(*draw(dens[(i + j) % len(dens)])))
                    for j, k in enumerate(keys)}))
    return draws


PARITY_SETS = PINNED + _parity_draws() + [
    ("disk", {"mu": "-1/2"}),
    ("disk", {"mu": -1}),
    ("simplex", {"alpha": "-1/2", "beta": "-1/2", "gamma": "-5/2"}),
    ("square", {"alpha": -1, "beta": -1, "gamma": 0, "delta": 0}),
    ("bessel-laguerre", {"g": -1, "gamma": 1}),
    ("biangle", {"alpha": -1, "beta": "-1/2"}),
    ("biangle", {"alpha": -2, "beta": "1/2"}),
    ("simplex", {"alpha": 0, "beta": "-1/2", "gamma": "-1/2"}),
    ("simplex", {"alpha": -2, "beta": 0, "gamma": 0}),
]


def _entries(table, p, n, m):
    try:
        return table(p, n, m)
    except ZeroDivisionError:
        return ZeroDivisionError


@pytest.mark.parametrize(
    "name, params", PARITY_SETS,
    ids=[f"{name}-{i}" for i, (name, _) in enumerate(PARITY_SETS)])
def test_integer_tables_match_their_rational_formulas(name, params):
    cid = catalog_id(name, **params)
    tables = closed_forms.TABLES[name]
    cleared = closed_forms._cleared(cid)
    values = cid.params_dict
    for which in (0, 1):
        for n in range(13):
            for m in range(n + 1):
                want = _entries(REFERENCE[name][which], values, n, m)
                got = _entries(tables[which], cleared, n, m)
                assert got == want, (which, n, m)
                if got is not ZeroDivisionError:
                    assert all(type(v) is _RAT for v in got.values()), (
                        which, n, m)
