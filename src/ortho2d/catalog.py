"""The six classical system families, with closed-form coefficient tables.

Each family is identified by a CatalogId (name plus rational parameters).
``make_system`` assembles the corresponding BivariateSystem from its
univariate ingredients; ``closed_form_first``/``closed_form_second``
evaluate the per-family closed-form coefficient tables directly, without
touching any recurrence machinery; and ``cross_check`` confronts three
independent routes entry by entry:

    closed-form table  ==  recurrence builders  ==  moment/Gram oracle.

The closed forms are rational expressions in (n, m) and the parameters.
Where a single rational expression would degenerate to 0/0 at a
structural index (typically m = n or m = 0) the algebraically cancelled
branch is used, so the tables evaluate at every index their band admits.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

from .construction import RhoSpec, assemble
from .numerics import BandMatrix, Scalar, _RAT, _wrap
from .ttr import TTRSet, build_ttr, ttr_from_gram
from .univariate import (
    RecurrenceFamily,
    bessel,
    jacobi_shift,
    jacobi_std,
    laguerre,
)

_HALF = _RAT(1, 2)
_ZERO = _RAT(0)

FAMILY_PARAMS = {
    "disk": ("mu",),
    "biangle": ("alpha", "beta"),
    "simplex": ("alpha", "beta", "gamma"),
    "square": ("alpha", "beta", "gamma", "delta"),
    "laguerre-jacobi": ("alpha", "beta"),
    "bessel-laguerre": ("g", "gamma"),
}


@dataclass(frozen=True)
class CatalogId:
    """A family name plus its rational parameters (in declared order)."""

    name: str
    params: tuple

    def __post_init__(self):
        if self.name not in FAMILY_PARAMS:
            known = ", ".join(sorted(FAMILY_PARAMS))
            raise ValueError(f"unknown family {self.name!r} (known: {known})")
        declared = FAMILY_PARAMS[self.name]
        given = dict(self.params)
        missing = [k for k in declared if k not in given]
        extra = [k for k in given if k not in declared]
        if missing or extra:
            raise ValueError(
                f"family {self.name!r} takes parameters "
                f"({', '.join(declared)}); missing {missing}, extra {extra}")
        normalized = tuple((k, Scalar.exact(given[k])) for k in declared)
        object.__setattr__(self, "params", normalized)

    def param(self, key):
        for k, v in self.params:
            if k == key:
                return v
        raise KeyError(key)

    @property
    def params_dict(self):
        return dict(self.params)

    def describe(self):
        inner = ", ".join(f"{k}={v}" for k, v in self.params)
        return f"{self.name}({inner})"


def catalog_id(name, **values):
    """Convenience constructor: catalog_id('disk', mu='1/2')."""
    return CatalogId(name, tuple(values.items()))


def _raw_params(cid):
    return {k: v.value for k, v in cid.params}


def make_system(cid):
    """Assemble the BivariateSystem for a catalog family."""
    p = _raw_params(cid)
    label = cid.describe()
    name = cid.name
    if name == "disk":
        mu = p["mu"]
        return assemble(
            RhoSpec.sqrt_quadratic(-1, 0, 1),
            lambda m: jacobi_std(mu + m, mu + m),
            jacobi_std(mu - _HALF, mu - _HALF),
            label=label)
    if name == "biangle":
        al, be = p["alpha"], p["beta"]
        return assemble(
            RhoSpec.sqrt_quadratic(0, 1, 0),
            lambda m: jacobi_shift(al, be + m + _HALF),
            jacobi_std(be, be),
            label=label)
    if name == "simplex":
        al, be, ga = p["alpha"], p["beta"], p["gamma"]
        return assemble(
            RhoSpec.linear(-1, 1),
            lambda m: jacobi_shift(be + ga + 2 * m + 1, al),
            jacobi_shift(ga, be),
            label=label)
    if name == "square":
        al, be, ga, de = p["alpha"], p["beta"], p["gamma"], p["delta"]
        return assemble(
            RhoSpec.linear(0, 1),
            lambda m: jacobi_std(al, be),
            jacobi_std(ga, de),
            label=label)
    if name == "laguerre-jacobi":
        al, be = p["alpha"], p["beta"]
        return assemble(
            RhoSpec.linear(1, 0),
            lambda m: laguerre(al + 2 * m + 1),
            jacobi_std(be, 0),
            label=label)
    # bessel-laguerre
    g, ga = p["g"], p["gamma"]
    if not g:
        raise ValueError("bessel-laguerre requires a nonzero parameter g")
    gg = g * ga
    q = RecurrenceFamily(
        f"scaled-laguerre({gg - 1};1/{g})",
        lambda m: -(m + 1) / g,
        lambda m: (2 * m + gg) / g,
        lambda m: -(m + gg - 1) / g,
        params={"g": _wrap(g), "gamma": _wrap(ga)})
    return assemble(
        RhoSpec.linear(1, 0),
        lambda m: bessel(g + 2 * m, -g),
        q,
        label=label)


def positive_definite(cid):
    """Whether the family's functional is positive-definite (not merely
    quasi-definite) for these parameters."""
    p = _raw_params(cid)
    name = cid.name
    if name == "disk":
        return p["mu"] > -_HALF
    if name == "biangle":
        return p["alpha"] > -1 and p["beta"] > -1
    if name == "simplex":
        return all(p[k] > -1 for k in ("alpha", "beta", "gamma"))
    if name == "square":
        return all(p[k] > -1 for k in ("alpha", "beta", "gamma", "delta"))
    if name == "laguerre-jacobi":
        return p["alpha"] > -2 and p["beta"] > -1
    return False  # bessel-laguerre is quasi-definite only


# -- closed-form first relation (diagonal matrices) ----------------------------


def _disk_first(p, n, m):
    mu = p["mu"]
    if m == n:
        a = 1 / (n + mu + 1)
    else:
        a = ((n - m + 1) * (n + m + 2 * mu + 1)
             / ((n + mu + 1) * (2 * n + 2 * mu + 1)))
    c = (n + mu) / (2 * n + 2 * mu + 1) if m <= n - 1 else None
    return {"a": a, "b": _ZERO, "c": c}


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
    c = None
    if m <= n - 1:
        c = (n - m + al) * (n + be + _HALF) / ((d + _HALF) * (d + 3 * _HALF))
    return {"a": a, "b": b, "c": c}


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
    c = None
    if m <= n - 1:
        c = (n + m + t + 1) * (n - m + al) / ((2 * n + s + 1) * (2 * n + s + 2))
    return {"a": a, "b": b, "c": c}


def _square_first(p, n, m):
    fam = jacobi_std(p["alpha"], p["beta"])
    c = fam._c_raw(n - m) if m <= n - 1 else None
    return {"a": fam._a_raw(n - m), "b": fam._b_raw(n - m), "c": c}


def _lj_first(p, n, m):
    al = p["alpha"]
    c = -(n + m + al + 1) if m <= n - 1 else None
    return {"a": _RAT(-(n - m + 1)), "b": 2 * n + al + 2, "c": c}


def _bl_first(p, n, m):
    g = p["g"]
    if m == n:
        a = -g / (2 * n + g)
        b = g / (2 * n + g)
    else:
        a = -g * (n + m + g - 1) / ((2 * n + g - 1) * (2 * n + g))
        b = g * (2 * m + g - 2) / ((2 * n + g - 2) * (2 * n + g))
    c = None
    if m <= n - 1:
        c = g * (n - m) / ((2 * n + g - 2) * (2 * n + g - 1))
    return {"a": a, "b": b, "c": c}


_FIRST = {
    "disk": _disk_first,
    "biangle": _biangle_first,
    "simplex": _simplex_first,
    "square": _square_first,
    "laguerre-jacobi": _lj_first,
    "bessel-laguerre": _bl_first,
}


# -- closed-form second relation (tridiagonal matrices) --------------------------


def _disk_second(p, n, m):
    mu = p["mu"]
    # (m + 2 mu) / (2 m + 2 mu), cancelled to 1 at m = 0.
    f = _RAT(1) if m == 0 else (m + 2 * mu) / (2 * (m + mu))
    d = 2 * n + 2 * mu + 1
    out = {k: _ZERO for k in ("a1", "a2", "a3", "b1", "b2", "b3",
                              "c1", "c2", "c3")}
    if m >= 1:
        out["a1"] = (-(m + mu - _HALF) * (n - m + 1) * (n - m + 2)
                     / ((m + mu) * (n + mu + 1) * d))
        out["c1"] = (m + mu - _HALF) * (n + mu) / ((m + mu) * d)
    else:
        out["a1"] = None
        out["b1"] = None
        out["c1"] = None
    out["a3"] = ((m + 1) * f * (n + m + 2 * mu + 1) * (n + m + 2 * mu + 2)
                 / ((2 * m + 2 * mu + 1) * d * (n + mu + 1)))
    if m > n - 1:
        out["b3"] = None
        out["c2"] = None
    if m <= n - 2:
        out["c3"] = (-(m + 1) * f * (n + mu)
                     / ((2 * m + 2 * mu + 1) * d))
    else:
        out["c3"] = None
    return out


def _biangle_second(p, n, m):
    al, be = p["alpha"], p["beta"]
    d = 2 * n - m + al + be + 3 * _HALF
    e = (2 * m + 2 * be + 1) * (2 * m + 2 * be + 2)
    out = {k: _ZERO for k in ("a1", "a2", "a3", "b1", "b2", "b3",
                              "c1", "c2", "c3")}
    if m >= 1:
        out["b1"] = (m + be) * (n - m + 1) / ((2 * m + 2 * be + 1) * d)
        out["c1"] = (m + be) * (n + be + _HALF) / ((2 * m + 2 * be + 1) * d)
    else:
        out["a1"] = None
        out["b1"] = None
        out["c1"] = None
    out["a3"] = 2 * (m + 1) * (m + 2 * be + 1) * (n + al + be + 3 * _HALF) / (e * d)
    if m <= n - 1:
        out["b3"] = 2 * (m + 1) * (m + 2 * be + 1) * (n - m + al) / (e * d)
    else:
        out["b3"] = None
        out["c2"] = None
    out["c3"] = _ZERO if m <= n - 2 else None
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
    out["a1"] = ((m + be) * (m + ga) * (n - m + 1) * (n - m + 2)
                 / (e0 * d2 * d3)) if m >= 1 else None
    out["a2"] = lam * (n - m + 1) * (n + m + s + 2) / (d2 * d3)
    out["a3"] = (m + 1) * (m + t + 1) * (n + m + s + 2) * (n + m + s + 3) / (e1 * d2 * d3)
    out["b1"] = (-2 * (m + be) * (m + ga) * (n - m + 1) * (n + m + t + 1)
                 / (e0 * d1 * d3)) if m >= 1 else None
    inner = 1 - (n - m + al + 1) * (n - m + 1) / d3
    if m < n:
        inner = inner + (n - m + al) * (n - m) / d1
    out["b2"] = -lam * inner
    out["b3"] = (-2 * (m + 1) * (m + t + 1) * (n - m + al) * (n + m + s + 2)
                 / (e1 * d1 * d3)) if m <= n - 1 else None
    out["c1"] = ((m + be) * (m + ga) * (n + m + t) * (n + m + t + 1)
                 / (e0 * d1 * d2)) if m >= 1 else None
    out["c2"] = (lam * (n - m + al) * (n + m + t + 1)
                 / (d1 * d2)) if m <= n - 1 else None
    out["c3"] = ((m + 1) * (m + t + 1) * (n - m + al) * (n - m + al - 1)
                 / (e1 * d1 * d2)) if m <= n - 2 else None
    return out


def _square_second(p, n, m):
    qfam = jacobi_std(p["gamma"], p["delta"])
    out = {k: _ZERO for k in ("a1", "a2", "a3", "b1", "b2", "b3",
                              "c1", "c2", "c3")}
    out["a3"] = qfam._a_raw(m)
    out["b2"] = qfam._b_raw(m)
    if m >= 1:
        out["c1"] = qfam._c_raw(m)
    else:
        out["a1"] = None
        out["b1"] = None
        out["c1"] = None
    if m > n - 1:
        out["b3"] = None
        out["c2"] = None
    if m > n - 2:
        out["c3"] = None
    return out


def _lj_second(p, n, m):
    al, be = p["alpha"], p["beta"]
    # b-coefficient of the second-variable family, cancelled at m = 0.
    qb = (-be / (be + 2) if m == 0
          else -be * be / ((2 * m + be) * (2 * m + be + 2)))
    e0 = (2 * m + be) * (2 * m + be + 1)
    e1 = (2 * m + be + 1) * (2 * m + be + 2)
    out = {}
    out["a1"] = (2 * m * (m + be) * (n - m + 1) * (n - m + 2) / e0
                 ) if m >= 1 else None
    out["a2"] = -qb * (n - m + 1)
    out["a3"] = 2 * (m + 1) * (m + be + 1) / e1
    out["b1"] = (-4 * m * (m + be) * (n + m + al + 1) * (n - m + 1) / e0
                 ) if m >= 1 else None
    out["b2"] = qb * (2 * n + al + 2)
    out["b3"] = (-4 * (m + 1) * (m + be + 1) / e1) if m <= n - 1 else None
    out["c1"] = (2 * m * (m + be) * (n + m + al) * (n + m + al + 1) / e0
                 ) if m >= 1 else None
    out["c2"] = (-qb * (n + m + al + 1)) if m <= n - 1 else None
    out["c3"] = (2 * (m + 1) * (m + be + 1) / e1) if m <= n - 2 else None
    return out


def _bl_second(p, n, m):
    g, ga = p["g"], p["gamma"]
    gg = g * ga
    d0 = 2 * n + g - 2
    d1 = 2 * n + g - 1
    d2 = 2 * n + g
    out = {}
    out["a1"] = (-(m + gg - 1) * g / (d1 * d2)) if m >= 1 else None
    if m == n:
        out["a2"] = -(2 * n + gg) / d2
        out["a3"] = _RAT(-(n + 1)) / g
        out["b2"] = (2 * n + gg) / d2
    else:
        out["a2"] = -(2 * m + gg) * (n + m + g - 1) / (d1 * d2)
        out["a3"] = -(m + 1) * (n + m + g - 1) * (n + m + g) / (g * d1 * d2)
        out["b2"] = (2 * m + gg) * (2 * m + g - 2) / (d0 * d2)
    out["b1"] = (2 * (m + gg - 1) * g / (d0 * d2)) if m >= 1 else None
    out["b3"] = (-2 * (m + 1) * (n - m) * (n + m + g - 1) / (g * d0 * d2)
                 ) if m <= n - 1 else None
    out["c1"] = (-(m + gg - 1) * g / (d0 * d1)) if m >= 1 else None
    out["c2"] = ((2 * m + gg) * (n - m) / (d0 * d1)) if m <= n - 1 else None
    out["c3"] = (-(m + 1) * (n - m) * (n - m - 1) / (g * d0 * d1)
                 ) if m <= n - 2 else None
    return out


_SECOND = {
    "disk": _disk_second,
    "biangle": _biangle_second,
    "simplex": _simplex_second,
    "square": _square_second,
    "laguerre-jacobi": _lj_second,
    "bessel-laguerre": _bl_second,
}


def _check_index(n, m):
    if not (isinstance(n, int) and isinstance(m, int) and 0 <= m <= n):
        raise ValueError(f"need 0 <= m <= n, got (n, m) = ({n}, {m})")


def _wrapped(row):
    """A closed-form table row with each value as a Scalar; None stays."""
    return {k: (None if v is None
                else _wrap(_RAT(v) if isinstance(v, int) else v))
            for k, v in row.items()}


def closed_form_first(cid, n, m):
    """Row m of the three x-relation diagonals at degree n, from the
    family's closed-form table.  Keys 'a', 'b', 'c'; a value is None when
    the matrix has no such column (c at m = n)."""
    _check_index(n, m)
    return _wrapped(_FIRST[cid.name](_raw_params(cid), n, m))


def closed_form_second(cid, n, m):
    """Row m of the y-relation bands at degree n, from the family's
    closed-form table.  Keys 'a1', 'a2', 'a3' (sub/main/super diagonal of
    the degree-raising matrix), likewise 'b*' and 'c*'; a value is None
    when that band position falls outside the matrix."""
    _check_index(n, m)
    return _wrapped(_SECOND[cid.name](_raw_params(cid), n, m))


def closed_form_ttr(cid, n):
    """Assemble both relations at degree n purely from the closed forms."""
    if not isinstance(n, int) or n < 0:
        raise ValueError("degree must be a nonnegative int")
    p = _raw_params(cid)
    ax, bx, cx = {}, {}, {}
    ay, by, cy = {}, {}, {}
    for m in range(n + 1):
        first = _FIRST[cid.name](p, n, m)
        ax[(m, m)] = first["a"]
        bx[(m, m)] = first["b"]
        if first["c"] is not None:
            cx[(m, m)] = first["c"]
        second = _SECOND[cid.name](p, n, m)
        for key, target, pos in (
            ("a1", ay, (m, m - 1)), ("a2", ay, (m, m)), ("a3", ay, (m, m + 1)),
            ("b1", by, (m, m - 1)), ("b2", by, (m, m)), ("b3", by, (m, m + 1)),
            ("c1", cy, (m, m - 1)), ("c2", cy, (m, m)), ("c3", cy, (m, m + 1)),
        ):
            v = second[key]
            if v is not None:
                target[pos] = v
    return TTRSet(
        n,
        BandMatrix(n + 1, n + 2, 0, 0, ax),
        BandMatrix(n + 1, n + 1, 0, 0, bx),
        BandMatrix(n + 1, n, 0, 0, cx),
        BandMatrix(n + 1, n + 2, 1, 1, ay),
        BandMatrix(n + 1, n + 1, 1, 1, by),
        BandMatrix(n + 1, n, 1, 1, cy),
    )


# -- three-route cross-check -------------------------------------------------------


@dataclass(frozen=True)
class Mismatch:
    """One entry where the three routes disagree, with all three values."""

    n: int
    matrix: str
    row: int
    col: int
    closed: Scalar
    built: Scalar
    gram: Scalar


@dataclass(frozen=True)
class CrossCheckReport:
    family: str
    max_degree: int
    mismatches: tuple

    @property
    def ok(self):
        return not self.mismatches


def _corrupted(ts):
    """Fault-injection helper: bump one entry of the x-raising matrix."""
    dense = ts.a_x.dense()
    dense[0][0] = dense[0][0] + 1
    bad = BandMatrix.from_dense(dense, ts.a_x.lower_bandwidth,
                                ts.a_x.upper_bandwidth)
    return replace(ts, a_x=bad)


def cross_check(cid, max_degree, corrupt=False, system=None):
    """Compare closed forms, recurrence builders and the Gram oracle for
    every matrix entry up to max_degree.  With corrupt=True one closed-form
    entry is deliberately perturbed, to exercise the failure path.  A
    pre-built ``system`` for the same catalog id may be passed to share
    its caches."""
    if not isinstance(max_degree, int) or max_degree < 0:
        raise ValueError("max_degree must be a nonnegative int")
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
                    vc = mc.get(r, c)
                    vb = mb.get(r, c)
                    vo = mo.get(r, c)
                    if vc == vb and vb == vo:
                        continue
                    mismatches.append(Mismatch(n, name, r, c, vc, vb, vo))
    return CrossCheckReport(cid.describe(), max_degree, tuple(mismatches))
