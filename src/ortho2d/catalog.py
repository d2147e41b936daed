"""The six classical system families and the three-way cross-check.

Each family is identified by a CatalogId (name plus rational parameters,
each stored as a backend rational: gmpy2.mpq or fractions.Fraction),
checked once, when it is made, by whichever constructor (the call,
``_make``, ``_replace``, copy or pickle): an unknown name, a missing,
extra or repeated parameter, or a vanishing one the family cannot take
(bessel-laguerre's g) is a ValueError, so every route reads
``params_dict`` unchecked.
``make_system`` assembles the corresponding BivariateSystem from its
univariate ingredients, and ``cross_check`` confronts three independent
routes entry by entry:

    closed-form table  ==  recurrence builders  ==  moment/Gram oracle.

The closed-form tables live in ``closed_forms``, which imports only
``numerics``.  Each family is stated once, in one ``_Family`` record.
``cross_check`` imports ``ttr`` when called; the systems alone never do.
"""
from __future__ import annotations

from typing import NamedTuple

from .closed_forms import closed_form_ttr
from .construction import RhoSpec, assemble
from .numerics import (BandMatrix, Scalar, _RAT, _as_raw_exact,
                       _check_index, _int_list)
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


class _Family(NamedTuple):
    """One catalog family: its parameter names in declared order, the
    open lower bound of each on the positive-definite region (None: only
    quasi-definite), its ingredients (the parameter values -> rho,
    ladder factory, q) and the parameters that define no family at 0
    (``CatalogId`` refuses them)."""

    params: tuple
    bounds: tuple | None
    ingredients: object
    nonzero: tuple = ()


_FAMILIES = {
    "disk": _Family(
        ("mu",), (-_HALF,),
        lambda mu: (RhoSpec.sqrt_quadratic(-1, 0, 1),
                    lambda m: jacobi_std(mu + m, mu + m),
                    jacobi_std(mu - _HALF, mu - _HALF))),
    "biangle": _Family(
        ("alpha", "beta"), (-1, -1),
        lambda al, be: (RhoSpec.sqrt_quadratic(0, 1, 0),
                        lambda m: jacobi_shift(al, be + m + _HALF),
                        jacobi_std(be, be))),
    "simplex": _Family(
        ("alpha", "beta", "gamma"), (-1, -1, -1),
        lambda al, be, ga: (RhoSpec.linear(-1, 1),
                            lambda m: jacobi_shift(be + ga + 2 * m + 1, al),
                            jacobi_shift(ga, be))),
    "square": _Family(
        ("alpha", "beta", "gamma", "delta"), (-1, -1, -1, -1),
        lambda al, be, ga, de: (RhoSpec.linear(0, 1),
                                lambda m: jacobi_std(al, be),
                                jacobi_std(ga, de))),
    "laguerre-jacobi": _Family(
        ("alpha", "beta"), (-2, -1),
        lambda al, be: (RhoSpec.linear(1, 0),
                        lambda m: laguerre(al + 2 * m + 1),
                        jacobi_std(be, 0))),
    "bessel-laguerre": _Family(
        ("g", "gamma"), None,
        lambda g, ga: (RhoSpec.linear(1, 0),
                       lambda m: bessel(g + 2 * m, -g),
                       _scaled_laguerre(g, ga)),
        nonzero=("g",)),
}
FAMILY_PARAMS = {name: family.params for name, family in _FAMILIES.items()}


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
