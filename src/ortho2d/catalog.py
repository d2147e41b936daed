"""The six classical system families, with closed-form coefficient tables.

Each family is identified by a CatalogId (name plus rational parameters,
each stored as a backend rational: gmpy2.mpq or fractions.Fraction),
checked once, when it is made, by whichever constructor (the call,
``_make``, ``_replace``, copy or pickle): an unknown name, a missing,
extra or repeated parameter, or a vanishing one the family cannot take
(bessel-laguerre's g) is a ValueError, so every route reads
``params_dict`` unchecked.
``make_system`` assembles the corresponding BivariateSystem from its
univariate ingredients; ``closed_form_first``/``closed_form_second``
evaluate the per-family closed-form coefficient tables directly, without
touching any recurrence machinery, into rows of backend rationals; and
``cross_check`` confronts three independent routes entry by entry:

    closed-form table  ==  recurrence builders  ==  moment/Gram oracle.

The closed forms are rational expressions in (n, m) and the parameters.
Where a single rational expression would degenerate to 0/0 at a
structural index (typically m = n or m = 0) the algebraically cancelled
branch is used, so the tables evaluate at every index their band admits.
A family's table gives only the entries it computes; the band layout
(``numerics._LAYOUT``) alone decides where a row holds None or an exact
zero.  Each family is stated once, in one ``_Family`` record.

``closed_form_ttr`` and ``cross_check`` import ``ttr`` when called, so the
tables and the systems alone never load it.
"""
from __future__ import annotations

from typing import NamedTuple

from .construction import RhoSpec, assemble
from .numerics import (BandMatrix, Scalar, _RAT, _as_raw_exact,
                       _band_row, _check_degrees, _check_index, _int_list,
                       _relation)
from .univariate import (
    RecurrenceFamily,
    bessel,
    jacobi_shift,
    jacobi_std,
    laguerre,
)

_HALF = _RAT(1, 2)


class _CatalogIdFields(NamedTuple):
    name: str
    params: tuple


class CatalogId(_CatalogIdFields):
    """A family name plus its rational parameters (in declared order), each
    a backend rational."""

    __slots__ = ()

    def __new__(cls, name, params):
        family = _FAMILIES.get(name)
        if family is None:
            known = ", ".join(sorted(_FAMILIES))
            raise ValueError(f"unknown family {name!r} (known: {known})")
        declared = family.params
        given = {}
        for k, v in params.items() if hasattr(params, "keys") else params:
            if k in given:
                raise ValueError(f"family {name!r}: parameter {k!r} "
                                 f"is given more than once")
            given[k] = v
        missing = [k for k in declared if k not in given]
        extra = [k for k in given if k not in declared]
        if missing or extra:
            raise ValueError(
                f"family {name!r} takes parameters "
                f"({', '.join(declared)}); missing {missing}, extra {extra}")
        normalized = tuple((k, _as_raw_exact(given[k])) for k in declared)
        for k, v in normalized:
            if not v and k in family.nonzero:
                raise ValueError(f"{name} requires a nonzero parameter {k}")
        return super().__new__(cls, name, normalized)

    @classmethod
    def _make(cls, iterable):  # through __new__, as _replace is too
        return cls(*iterable)

    def param(self, key):
        return self.params_dict[key]

    @property
    def params_dict(self):
        return dict(self.params)

    def describe(self):
        inner = ", ".join(f"{k}={v}" for k, v in self.params)
        return f"{self.name}({inner})"


def catalog_id(name, **values):
    """Convenience constructor: catalog_id('disk', mu='1/2')."""
    return CatalogId(name, tuple(values.items()))


def make_system(cid):
    """Assemble the BivariateSystem for a catalog family."""
    values = cid.params_dict.values()
    return assemble(*_FAMILIES[cid.name].ingredients(*values),
                    label=cid.describe())


def positive_definite(cid):
    """Whether the family's functional is positive-definite (not merely
    quasi-definite) for these parameters."""
    values = cid.params_dict.values()
    bounds = _FAMILIES[cid.name].bounds
    return bounds is not None and all(v > b for v, b in zip(values, bounds))


def _scaled_laguerre(g, gamma):
    """The second-variable family of bessel-laguerre: Laguerre-type with
    parameter g gamma - 1, its recurrence coefficients divided by g."""
    gg = g * gamma
    # g = G / d and g gamma = GG / d, so each value is one rational of ints.
    d, (G, GG) = _int_list((g, gg))
    return RecurrenceFamily(
        f"scaled-laguerre({gg - 1};1/{g})",
        lambda m: _RAT(-(m + 1) * d, G),
        lambda m: _RAT(2 * m * d + GG, G),
        lambda m: _RAT(-(m * d + GG - d), G),
        params={"g": g, "gamma": gamma})


# -- closed-form first relation (diagonal matrices) ---------------------------


def _disk_first(p, n, m):
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


def _biangle_first(p, n, m):
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


def _simplex_first(p, n, m):
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


def _jacobi_abc(al, be, k):
    """Recurrence coefficients a_k, b_k and c_k (None at k = 0) of the
    Jacobi polynomials for the weight (1-x)^al (1+x)^be on [-1, 1], in the
    normalisation p_k(1) = binomial(k + al, k)."""
    s = al + be
    if k == 0:
        return 2 / (s + 2), (be - al) / (s + 2), None
    return (2 * (k + 1) * (k + s + 1) / ((2 * k + s + 1) * (2 * k + s + 2)),
            (be * be - al * al) / ((2 * k + s) * (2 * k + s + 2)),
            2 * (k + al) * (k + be) / ((2 * k + s) * (2 * k + s + 1)))


def _square_first(p, n, m):
    a, b, c = _jacobi_abc(p["alpha"], p["beta"], n - m)
    out = {"c": c} if m <= n - 1 else {}
    return {**out, "a": a, "b": b}


def _lj_first(p, n, m):
    al = p["alpha"]
    out = {"a": _RAT(-(n - m + 1)), "b": 2 * n + al + 2}
    if m <= n - 1:
        out["c"] = -(n + m + al + 1)
    return out


def _bl_first(p, n, m):
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


# -- closed-form second relation (tridiagonal matrices) -----------------------


def _disk_second(p, n, m):
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


def _biangle_second(p, n, m):
    al, be = p["alpha"], p["beta"]
    d = 2 * n - m + al + be + 3 * _HALF
    e = (2 * m + 2 * be + 1) * (2 * m + 2 * be + 2)
    out = {}
    if m >= 1:
        out["b1"] = (m + be) * (n - m + 1) / ((2 * m + 2 * be + 1) * d)
        out["c1"] = (m + be) * (n + be + _HALF) / ((2 * m + 2 * be + 1) * d)
    out["a3"] = (2 * (m + 1) * (m + 2 * be + 1) * (n + al + be + 3 * _HALF)
                 / (e * d))
    if m <= n - 1:
        out["b3"] = 2 * (m + 1) * (m + 2 * be + 1) * (n - m + al) / (e * d)
    return out


def _simplex_second(p, n, m):
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
    out = {}
    if m >= 1:
        out["a1"] = ((m + be) * (m + ga) * (n - m + 1) * (n - m + 2)
                     / (e0 * d2 * d3))
        out["b1"] = (-2 * (m + be) * (m + ga) * (n - m + 1) * (n + m + t + 1)
                     / (e0 * d1 * d3))
        out["c1"] = ((m + be) * (m + ga) * (n + m + t) * (n + m + t + 1)
                     / (e0 * d1 * d2))
    out["a2"] = lam * (n - m + 1) * (n + m + s + 2) / (d2 * d3)
    out["a3"] = ((m + 1) * (m + t + 1) * (n + m + s + 2) * (n + m + s + 3)
                 / (e1 * d2 * d3))
    inner = 1 - (n - m + al + 1) * (n - m + 1) / d3
    if m < n:
        inner = inner + (n - m + al) * (n - m) / d1
    out["b2"] = -lam * inner
    if m <= n - 1:
        out["b3"] = (-2 * (m + 1) * (m + t + 1) * (n - m + al)
                     * (n + m + s + 2) / (e1 * d1 * d3))
        out["c2"] = lam * (n - m + al) * (n + m + t + 1) / (d1 * d2)
    if m <= n - 2:
        out["c3"] = ((m + 1) * (m + t + 1) * (n - m + al) * (n - m + al - 1)
                     / (e1 * d1 * d2))
    return out


def _square_second(p, n, m):
    a, b, c = _jacobi_abc(p["gamma"], p["delta"], m)
    out = {"a3": a, "b2": b}
    if m >= 1:
        out["c1"] = c
    return out


def _lj_second(p, n, m):
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


def _bl_second(p, n, m):
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


class _Family(NamedTuple):
    """One catalog family: its parameter names in declared order, the
    open lower bound of each on the positive-definite region (None: only
    quasi-definite), its closed-form x- and y-relation tables, its
    ingredients (the parameter values -> rho, ladder factory, q) and the
    parameters that define no family at 0 (``CatalogId`` refuses them)."""

    params: tuple
    bounds: tuple | None
    tables: tuple
    ingredients: object
    nonzero: tuple = ()


_FAMILIES = {
    "disk": _Family(
        ("mu",), (-_HALF,), (_disk_first, _disk_second),
        lambda mu: (RhoSpec.sqrt_quadratic(-1, 0, 1),
                    lambda m: jacobi_std(mu + m, mu + m),
                    jacobi_std(mu - _HALF, mu - _HALF))),
    "biangle": _Family(
        ("alpha", "beta"), (-1, -1), (_biangle_first, _biangle_second),
        lambda al, be: (RhoSpec.sqrt_quadratic(0, 1, 0),
                        lambda m: jacobi_shift(al, be + m + _HALF),
                        jacobi_std(be, be))),
    "simplex": _Family(
        ("alpha", "beta", "gamma"), (-1, -1, -1),
        (_simplex_first, _simplex_second),
        lambda al, be, ga: (RhoSpec.linear(-1, 1),
                            lambda m: jacobi_shift(be + ga + 2 * m + 1, al),
                            jacobi_shift(ga, be))),
    "square": _Family(
        ("alpha", "beta", "gamma", "delta"), (-1, -1, -1, -1),
        (_square_first, _square_second),
        lambda al, be, ga, de: (RhoSpec.linear(0, 1),
                                lambda m: jacobi_std(al, be),
                                jacobi_std(ga, de))),
    "laguerre-jacobi": _Family(
        ("alpha", "beta"), (-2, -1), (_lj_first, _lj_second),
        lambda al, be: (RhoSpec.linear(1, 0),
                        lambda m: laguerre(al + 2 * m + 1),
                        jacobi_std(be, 0))),
    "bessel-laguerre": _Family(
        ("g", "gamma"), None, (_bl_first, _bl_second),
        lambda g, ga: (RhoSpec.linear(1, 0),
                       lambda m: bessel(g + 2 * m, -g),
                       _scaled_laguerre(g, ga)),
        nonzero=("g",)),
}
FAMILY_PARAMS = {name: family.params for name, family in _FAMILIES.items()}


def _row(name, which, p, n, m):
    """Row m at degree n of the x- (which = 0) or y-relation (which = 1)
    table of family name, laid out by ``numerics._band_row``."""
    _check_degrees(n, m)
    return _band_row(n, which, m, _FAMILIES[name].tables[which](p, n, m))


def closed_form_first(cid, n, m):
    """Row m of the three x-relation diagonals at degree n, from the
    family's closed-form table.  Keys 'a', 'b', 'c'; a value is a backend
    rational, or None when the matrix has no such column (c at m = n)."""
    return _row(cid.name, 0, cid.params_dict, n, m)


def closed_form_second(cid, n, m):
    """Row m of the y-relation bands at degree n, from the family's
    closed-form table.  Keys 'a1', 'a2', 'a3' (sub/main/super diagonal of
    the degree-raising matrix), likewise 'b*' and 'c*'; a value is a
    backend rational, or None when that band position falls outside the
    matrix."""
    return _row(cid.name, 1, cid.params_dict, n, m)


def closed_form_ttr(cid, n):
    """Assemble both relations at degree n purely from the closed forms."""
    _check_index(n, "degree")
    from .ttr import TTRSet
    p = cid.params_dict
    x, y = ([_row(cid.name, which, p, n, m) for m in range(n + 1)]
            for which in (0, 1))
    return TTRSet(n, *_relation(n, 0, x), *_relation(n, 1, y))


# -- three-route cross-check --------------------------------------------------


class Mismatch(NamedTuple):
    """One entry where the three routes disagree, with all three values."""

    n: int
    matrix: str
    row: int
    col: int
    closed: Scalar
    built: Scalar
    gram: Scalar


class CrossCheckReport(NamedTuple):
    family: str
    max_degree: int
    mismatches: tuple

    @property
    def ok(self):
        return not self.mismatches


def _corrupted(ts):
    """Fault-injection helper: bump one entry of the x-raising matrix."""
    a = ts.a_x
    entries = dict(a.items())
    entries[0, 0] = a.get(0, 0) + 1
    bad = BandMatrix(a.rows, a.cols, a.lower_bandwidth, a.upper_bandwidth,
                     entries)
    return ts._replace(a_x=bad)


def cross_check(cid, max_degree, corrupt=False, system=None):
    """Compare closed forms, recurrence builders and the Gram oracle for
    every matrix entry up to max_degree.  With corrupt=True one closed-form
    entry is deliberately perturbed, to exercise the failure path.  A
    pre-built ``system`` for the same catalog id may be passed to share
    its caches; a system built for another id is a ValueError."""
    _check_index(max_degree, "max_degree")
    if system is not None and system.label != cid.describe():
        raise ValueError(f"system {system.label!r} was not built for "
                         f"{cid.describe()!r}")
    from .ttr import build_ttr, ttr_from_gram
    sys = system if system is not None else make_system(cid)
    mismatches = []
    for n in range(max_degree + 1):
        closed = closed_form_ttr(cid, n)
        if corrupt and n == 0:
            closed = _corrupted(closed)
        built = build_ttr(sys, n)
        oracle = ttr_from_gram(sys, n)
        for name, mc in closed.matrices().items():
            mb = built.matrices()[name]
            mo = oracle.matrices()[name]
            if mc == mb and mb == mo:
                continue
            for r in range(mb.rows):
                for c in range(mb.cols):
                    vc, vb, vo = (mat.get(r, c) for mat in (mc, mb, mo))
                    if not vc == vb == vo:
                        mismatches.append(Mismatch(n, name, r, c, vc, vb, vo))
    return CrossCheckReport(cid.describe(), max_degree, tuple(mismatches))
