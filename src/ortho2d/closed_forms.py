"""The closed-form route: per-family coefficient tables of both relations.

``closed_form_first``/``closed_form_second`` evaluate a family's tables
(``TABLES``) into rows of backend rationals, and ``closed_form_ttr``
assembles both relations at one degree.  They read a catalog id's name
and ``params_dict`` and import only ``numerics``: no recurrence family,
system or connection triple reaches them.

The closed forms are rational expressions in (n, m) and the parameters.
Where a single rational expression would degenerate to 0/0 at a
structural index (typically m = n or m = 0) the algebraically cancelled
branch is used, so the tables evaluate at every index their band admits.
Each entry is formed fraction-free: each ``closed_form_*`` call brings the
parameters over one common denominator once, and each entry is one
rational of two integer products, reduced by one gcd; any other vanishing
denominator, 0/0 included, raises ZeroDivisionError at that index.
A family's table gives only the entries it computes; the band layout
(``numerics._LAYOUT``) alone decides where a row holds None or an exact
zero.
"""
from __future__ import annotations

from .numerics import (TTRSet, _RAT, _band_row, _check_degrees,
                       _check_index, _int_list, _relation)

# -- closed-form first relation (diagonal matrices) ---------------------------
#
# A table reads p = (d, *ints): the family's parameters, in declared order,
# as integers over one common denominator d (``_cleared``), which is even,
# so that a half is h = d // 2.  Each entry is one rational of two integer
# products with the powers of d balanced by hand.  Its denominator keeps
# every factor that the rational expression divides by, so a vanishing one
# raises ZeroDivisionError at the same index (``_RAT``, which refuses 0/0
# too, never ``numerics._rat``).


def _disk_first(p, n, m):
    d, M = p
    if m == n:
        a = _RAT(d, (n + 1) * d + M)
    else:
        a = _RAT((n - m + 1) * ((n + m + 1) * d + 2 * M) * d,
                 ((n + 1) * d + M) * ((2 * n + 1) * d + 2 * M))
    out = {"a": a}
    if m <= n - 1:
        out["c"] = _RAT(n * d + M, (2 * n + 1) * d + 2 * M)
    return out


def _biangle_first(p, n, m):
    d, A, B = p
    h = d // 2
    e = (2 * n - m) * d + A + B
    if m == n:
        a = _RAT(d, n * d + A + B + 5 * h)
        b = _RAT(n * d + B + 3 * h, e + 5 * h)
    else:
        a = _RAT((n - m + 1) * (n * d + A + B + 3 * h) * d,
                 (e + 3 * h) * (e + 5 * h))
        b = _RAT((n * d + B + 3 * h) * (n - m + 1) * (e + h)
                 - (n * d + B + h) * (n - m) * (e + 5 * h),
                 (e + 5 * h) * (e + h))
    out = {"a": a, "b": b}
    if m <= n - 1:
        out["c"] = _RAT(((n - m) * d + A) * (n * d + B + h),
                        (e + h) * (e + 3 * h))
    return out


def _simplex_first(p, n, m):
    d, A, B, G = p
    S = A + B + G
    d1, d2, d3 = ((2 * n + k) * d + S for k in (1, 2, 3))
    if m == n:
        a = _RAT(d, d3)
        b = _RAT(d + A, d3)
    else:
        a = _RAT((n - m + 1) * ((n + m + 2) * d + S) * d, d2 * d3)
        b = _RAT(((n - m + 1) * d + A) * (n - m + 1) * d1
                 - ((n - m) * d + A) * (n - m) * d3, d3 * d1)
    out = {"a": a, "b": b}
    if m <= n - 1:
        out["c"] = _RAT(((n + m + 1) * d + B + G) * ((n - m) * d + A),
                        d1 * d2)
    return out


def _jacobi_abc(d, A, B, k):
    """Recurrence coefficients a_k, b_k and c_k (None at k = 0) of the
    Jacobi polynomials for the weight (1-x)^al (1+x)^be on [-1, 1], in the
    normalisation p_k(1) = binomial(k + al, k), with al = A / d and
    be = B / d."""
    S = A + B
    if k == 0:
        return _RAT(2 * d, S + 2 * d), _RAT(B - A, S + 2 * d), None
    e = 2 * k * d + S
    return (_RAT(2 * (k + 1) * ((k + 1) * d + S) * d,
                 (e + d) * (e + 2 * d)),
            _RAT(B * B - A * A, e * (e + 2 * d)),
            _RAT(2 * (k * d + A) * (k * d + B), e * (e + d)))


def _square_first(p, n, m):
    d, A, B, _, _ = p
    a, b, c = _jacobi_abc(d, A, B, n - m)
    out = {"c": c} if m <= n - 1 else {}
    return {**out, "a": a, "b": b}


def _lj_first(p, n, m):
    d, A, _ = p
    out = {"a": _RAT(-(n - m + 1)), "b": _RAT((2 * n + 2) * d + A, d)}
    if m <= n - 1:
        out["c"] = _RAT(-((n + m + 1) * d + A), d)
    return out


def _bl_first(p, n, m):
    d, G, _ = p
    d0, d1, d2 = ((2 * n + k) * d + G for k in (-2, -1, 0))
    if m == n:
        a = _RAT(-G, d2)
        b = _RAT(G, d2)
    else:
        a = _RAT(-G * ((n + m - 1) * d + G), d1 * d2)
        b = _RAT(G * ((2 * m - 2) * d + G), d0 * d2)
    out = {"a": a, "b": b}
    if m <= n - 1:
        out["c"] = _RAT(G * (n - m) * d, d0 * d1)
    return out


# -- closed-form second relation (tridiagonal matrices) -----------------------


def _disk_second(p, n, m):
    d, M = p
    h = d // 2
    # f = (m + 2 mu) / (2 m + 2 mu) = fn / fd, cancelled to 1 at m = 0.
    fn, fd = (1, 1) if m == 0 else (m * d + 2 * M, 2 * (m * d + M))
    e = (2 * n + 1) * d + 2 * M
    out = {}
    if m >= 1:
        out["a1"] = _RAT(-(m * d + M - h) * (n - m + 1) * (n - m + 2) * d * d,
                         (m * d + M) * ((n + 1) * d + M) * e)
        out["c1"] = _RAT((m * d + M - h) * (n * d + M), (m * d + M) * e)
    g = fd * ((2 * m + 1) * d + 2 * M) * e
    out["a3"] = _RAT((m + 1) * fn * ((n + m + 1) * d + 2 * M)
                     * ((n + m + 2) * d + 2 * M) * d,
                     g * ((n + 1) * d + M))
    if m <= n - 2:
        out["c3"] = _RAT(-(m + 1) * fn * (n * d + M) * d, g)
    return out


def _biangle_second(p, n, m):
    d, A, B = p
    h = d // 2
    e = (2 * n - m) * d + A + B + 3 * h
    f = (2 * m + 1) * d + 2 * B
    g = f * (f + d)
    u = 2 * (m + 1) * ((m + 1) * d + 2 * B) * d
    if m == 0:
        # The numerator's m + 2 be + 1 is 2 m + 2 be + 1 here, cancelled.
        u, g = 2 * d, 2 * (d + B)
    out = {}
    if m >= 1:
        out["b1"] = _RAT((m * d + B) * (n - m + 1) * d, f * e)
        out["c1"] = _RAT((m * d + B) * (n * d + B + h), f * e)
    if m == n:
        # e is the numerator's factor n + al + be + 3/2 here, cancelled.
        out["a3"] = _RAT(u, g)
    else:
        out["a3"] = _RAT(u * (n * d + A + B + 3 * h), g * e)
        out["b3"] = _RAT(u * ((n - m) * d + A), g * e)
    return out


def _simplex_second(p, n, m):
    d, A, B, G = p
    S, T = A + B + G, B + G
    # lam = ln / ld, its two terms over one denominator at m >= 1.
    if m == 0:
        ln, ld = -(d + B), 2 * d + T
    else:
        ln = (m * (m * d + B) * ((2 * m + 2) * d + T)
              - (m + 1) * ((m + 1) * d + B) * (2 * m * d + T))
        ld = ((2 * m + 2) * d + T) * (2 * m * d + T)
    d1, d2, d3 = ((2 * n + k) * d + S for k in (1, 2, 3))
    e1 = ((2 * m + 1) * d + T) * ((2 * m + 2) * d + T)
    u = (m + 1) * ((m + 1) * d + T)
    if m == 0:
        # The numerators' m + t + 1 is 2 m + t + 1 here, cancelled.
        u, e1 = 1, 2 * d + T
    out = {}
    if m >= 1:
        e0 = (2 * m * d + T) * ((2 * m + 1) * d + T)
        v = (m * d + B) * (m * d + G)
        out["a1"] = _RAT(v * (n - m + 1) * (n - m + 2) * d * d, e0 * d2 * d3)
        out["b1"] = _RAT(-2 * v * (n - m + 1) * ((n + m + 1) * d + T) * d,
                         e0 * d1 * d3)
        out["c1"] = _RAT(v * ((n + m) * d + T) * ((n + m + 1) * d + T),
                         e0 * d1 * d2)
    # b2 = -lam (1 - (n - m + al + 1)(n - m + 1) / d3
    #               + (n - m + al)(n - m) / d1), the last term at m < n.
    if m == n:
        # The numerators' n + m + s + 2 and n + m + s + 3 are d2 and d3
        # here, cancelled.
        out["a2"] = _RAT(ln * d, ld * d3)
        out["a3"] = _RAT(u * d, e1)
        out["b2"] = _RAT(-ln * (d3 - d - A), ld * d3)
        return out
    x = (n + m + 2) * d + S
    out["a2"] = _RAT(ln * (n - m + 1) * x * d, ld * d2 * d3)
    out["a3"] = _RAT(u * x * (x + d) * d, e1 * d2 * d3)
    out["b2"] = _RAT(-ln * (d1 * d3 - ((n - m + 1) * d + A) * (n - m + 1) * d1
                            + ((n - m) * d + A) * (n - m) * d3),
                     ld * d1 * d3)
    out["b3"] = _RAT(-2 * u * ((n - m) * d + A) * x * d, e1 * d1 * d3)
    out["c2"] = _RAT(ln * ((n - m) * d + A) * ((n + m + 1) * d + T),
                     ld * d1 * d2)
    if m <= n - 2:
        out["c3"] = _RAT(u * ((n - m) * d + A) * ((n - m - 1) * d + A) * d,
                         e1 * d1 * d2)
    return out


def _square_second(p, n, m):
    d, _, _, G, De = p
    a, b, c = _jacobi_abc(d, G, De, m)
    out = {"a3": a, "b2": b}
    if m >= 1:
        out["c1"] = c
    return out


def _lj_second(p, n, m):
    d, A, B = p
    # b-coefficient qn / qd of the second-variable family, cancelled at
    # m = 0.
    if m == 0:
        qn, qd = -B, B + 2 * d
    else:
        qn, qd = -B * B, (2 * m * d + B) * ((2 * m + 2) * d + B)
    e1 = ((2 * m + 1) * d + B) * ((2 * m + 2) * d + B)
    u = 2 * (m + 1) * ((m + 1) * d + B) * d
    out = {}
    if m >= 1:
        e0 = (2 * m * d + B) * ((2 * m + 1) * d + B)
        v = 2 * m * (m * d + B)
        out["a1"] = _RAT(v * (n - m + 1) * (n - m + 2) * d, e0)
        out["b1"] = _RAT(-2 * v * ((n + m + 1) * d + A) * (n - m + 1), e0)
        out["c1"] = _RAT(v * ((n + m) * d + A) * ((n + m + 1) * d + A),
                         e0 * d)
    out["a2"] = _RAT(-qn * (n - m + 1), qd)
    out["a3"] = _RAT(u, e1)
    out["b2"] = _RAT(qn * ((2 * n + 2) * d + A), qd * d)
    if m <= n - 1:
        out["b3"] = _RAT(-2 * u, e1)
        out["c2"] = _RAT(-qn * ((n + m + 1) * d + A), qd * d)
    if m <= n - 2:
        out["c3"] = out["a3"]
    return out


def _bl_second(p, n, m):
    d, G, Ga = p
    # g = G / d and g gamma = G Ga / d^2.
    dd = d * d
    d0, d1, d2 = ((2 * n + k) * d + G for k in (-2, -1, 0))
    u = ((m - 1) * dd + G * Ga) * G
    v = 2 * m * dd + G * Ga
    w = (n + m - 1) * d + G
    out = {}
    if m >= 1:
        out["a1"] = _RAT(-u, d * d1 * d2)
    if m == n:
        out["a2"] = _RAT(-v, d * d2)
        out["a3"] = _RAT(-(n + 1) * d, G)
        out["b2"] = _RAT(v, d * d2)
    else:
        out["a2"] = _RAT(-v * w, d * d1 * d2)
        out["a3"] = _RAT(-(m + 1) * w * (w + d) * d, G * d1 * d2)
        out["b2"] = _RAT(v * ((2 * m - 2) * d + G), d * d0 * d2)
    if m >= 1:
        out["b1"] = _RAT(2 * u, d * d0 * d2)
        out["c1"] = _RAT(-u, d * d0 * d1)
    if m <= n - 1:
        out["b3"] = _RAT(-2 * (m + 1) * (n - m) * w * dd, G * d0 * d2)
        out["c2"] = _RAT(v * (n - m), d0 * d1)
    if m <= n - 2:
        out["c3"] = _RAT(-(m + 1) * (n - m) * (n - m - 1) * dd * d,
                         G * d0 * d1)
    return out


# Family name -> its (x-relation, y-relation) tables.
TABLES = {
    "disk": (_disk_first, _disk_second),
    "biangle": (_biangle_first, _biangle_second),
    "simplex": (_simplex_first, _simplex_second),
    "square": (_square_first, _square_second),
    "laguerre-jacobi": (_lj_first, _lj_second),
    "bessel-laguerre": (_bl_first, _bl_second),
}


def _cleared(cid):
    """The tables' argument (d, *ints): the parameters of cid as integers
    over one common denominator d, which a half among them makes even."""
    d, ints = _int_list((*cid.params_dict.values(), _RAT(1, 2)))
    return (d, *ints[:-1])


def _row(name, which, p, n, m):
    """Row m at degree n of the x- (which = 0) or y-relation (which = 1)
    table of family name at the cleared parameters p, laid out by
    ``numerics._band_row``."""
    _check_degrees(n, m)
    return _band_row(n, which, m, TABLES[name][which](p, n, m))


def closed_form_first(cid, n, m):
    """Row m of the three x-relation diagonals at degree n, from the
    family's closed-form table.  Keys 'a', 'b', 'c'; a value is a backend
    rational, or None when the matrix has no such column (c at m = n)."""
    return _row(cid.name, 0, _cleared(cid), n, m)


def closed_form_second(cid, n, m):
    """Row m of the y-relation bands at degree n, from the family's
    closed-form table.  Keys 'a1', 'a2', 'a3' (sub/main/super diagonal of
    the degree-raising matrix), likewise 'b*' and 'c*'; a value is a
    backend rational, or None when that band position falls outside the
    matrix."""
    return _row(cid.name, 1, _cleared(cid), n, m)


def closed_form_ttr(cid, n):
    """Assemble both relations at degree n purely from the closed forms."""
    _check_index(n, "degree")
    p = _cleared(cid)
    x, y = ([_row(cid.name, which, p, n, m) for m in range(n + 1)]
            for which in (0, 1))
    return TTRSet(n, *_relation(n, 0, x), *_relation(n, 1, y))
