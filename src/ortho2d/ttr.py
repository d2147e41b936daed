"""Matrix coefficients of the two vector three-term relations.

Collecting the degree-n basis polynomials into the column vector
P_n = (P_{n,0}, ..., P_{n,n})^t, multiplication by either variable maps
onto neighbouring degrees:

    t_i P_n = A_{n,i} P_{n+1} + B_{n,i} P_n + C_{n,i} P_{n-1},  t = (x, y).

``first_ttr``/``second_ttr`` build these matrices from recurrence data in
closed form, row by row through ``numerics._relation`` as
``closed_forms`` does: the x-relation matrices are diagonal (each row is
the ladder recurrence at the right index), and the y-relation matrices
are tridiagonal, mixing the second-variable recurrence with the
adjacent-family connection coefficients.  Those come as integer pairs
from the ladder families' connection kernel
(``RecurrenceFamily._down_int``/``_up_int``, on which
``univariate.adjacent_down``/``adjacent_up`` are built), so each entry is
one rational; the module imports only ``numerics``.

``ttr_from_gram`` gives the same matrices from the independent Gram oracle
(``oracle.GramOracle``), from bivariate moments alone; it and ``build_ttr``
return a ``numerics.TTRSet``.  ``rank_conditions`` checks the rank
identities that make the recurrence well posed.
"""
from __future__ import annotations

from typing import NamedTuple

from .numerics import (BandMatrix, TTRSet, _check_index, _int_pair,
                       _int_rows, _rank_int, _rat, _relation)

# The relation axes, each with the exponent shift (dx, dy) of its variable.
SHIFTS = {"x": (1, 0), "y": (0, 1)}


def first_ttr(sys, n):
    """Matrices (A, B, C) of the x-relation at degree n; all diagonal.

    Row m is ladder step m's recurrence at index n - m (c undefined at 0).
    Built once per system and degree, then read from the system's cache.
    """
    _check_index(n, "degree")
    cached = sys._ttr_cache.get((n, "x"))
    if cached is not None:
        return cached
    ladders = [sys.ladder(m) for m in range(n + 1)]
    rows = [{"a": fam.a(k), "b": fam.b(k), "c": fam.c(k) if k else None}
            for fam, k in zip(ladders, range(n, -1, -1))]
    cached = sys._ttr_cache[(n, "x")] = _relation(n, 0, rows)
    return cached


def second_ttr(sys, n):
    """Matrices (A, B, C) of the y-relation at degree n; all tridiagonal.

    Row m combines the second-variable recurrence coefficients at index m
    with the adjacent-family connections: the subdiagonal consumes the
    upward triple between ladder steps m-1 and m, the superdiagonal the
    downward triple between steps m and m+1, and the diagonal, where q's
    b-coefficient is nonzero, the first-variable recurrence itself.  The
    connections come as integer pairs from the ladder families' kernel
    (``RecurrenceFamily._down_int``/``_up_int``, which ``adjacent_down``/
    ``adjacent_up`` also read), and q's coefficient is folded into each
    pair, so every entry is one rational of two integer products.

    Built once per system and degree, then read from the system's cache.
    Where rho is not a polynomial, q refuses a nonzero b-coefficient when
    it is read (see ``construction.assemble``); such a failure stores no
    matrices, so a failing degree fails again on every call.
    """
    _check_index(n, "degree")
    cached = sys._ttr_cache.get((n, "y"))
    if cached is not None:
        return cached
    rho = sys.rho
    s2 = _int_pair(rho.s2)
    q = sys.q
    rows = []
    for m in range(n + 1):
        k = n - m
        qa = q.a(m)
        row = {}
        # Subdiagonal: q's c-coefficient times the upward connection
        # between ladder steps m-1 and m, at first-variable index k.
        if m >= 1:
            row.update(_scaled(q.c(m), ("a1", "b1", "c1"), sys.ladder(
                m - 1)._up_int(sys.ladder(m), s2, k)))
        # Diagonal: q's b-coefficient times the ladder recurrence mapped
        # through rho = r1 x + r0; q refuses a nonzero b(m) elsewhere.
        qb = q.b(m)
        if qb:
            fam = sys.ladder(m)
            (r1n, r1d), (r0n, r0d) = _int_pair(rho.r1), _int_pair(rho.r0)
            (an, ad), (bn, bd) = _int_pair(fam.a(k)), _int_pair(fam.b(k))
            c2 = None
            if k:
                cn, cd = _int_pair(fam.c(k))
                c2 = (r1n * cn, r1d * cd)
            row.update(_scaled(qb, ("a2", "b2", "c2"), (
                (r1n * an, r1d * ad),
                (r1n * bn * r0d + r0n * r1d * bd, r1d * bd * r0d), c2)))
        # Superdiagonal: q's a-coefficient times the downward connection
        # between ladder steps m and m+1, at first-variable index k.
        row.update(_scaled(qa, ("a3", "b3", "c3"), sys.ladder(m)._down_int(
            sys.ladder(m + 1), s2, k)))
        rows.append(row)
    cached = sys._ttr_cache[(n, "y")] = _relation(n, 1, rows)
    return cached


def _scaled(factor, keys, pairs):
    """{key: factor * num / den} over the keys and the (num, den) pairs of
    the connection kernel, each one rational of two integer products; a
    pair the kernel leaves undefined (None) is left out."""
    fn, fd = _int_pair(factor)
    return {key: _rat(fn * p[0], fd * p[1]) for key, p in zip(keys, pairs)
            if p is not None}


def build_ttr(sys, n):
    """Both relations at degree n as a TTRSet (recurrence route)."""
    return TTRSet(n, *first_ttr(sys, n), *second_ttr(sys, n))


# -- the moment/Gram oracle ---------------------------------------------------


def ttr_from_gram(sys, n):
    """Both relations at degree n purely from bivariate moments: the Gram
    oracle's rows (``oracle.GramOracle.relation``) as full-bandwidth
    BandMatrices, so any band in the result is a finding, not an input."""
    _check_index(n, "degree")
    return TTRSet(n, *(BandMatrix.from_dense(rows)
                       for dx, dy in SHIFTS.values()
                       for rows in sys._oracle.relation(n, dx, dy)))


# -- rank conditions ----------------------------------------------------------


class RankReport(NamedTuple):
    """Exact ranks of the relation matrices at degree n.

    Well-posedness requires each A_{n,i} and each C_{n+1,i} to have full
    rank n+1, and the two stacked A's (resp. stacked C-transposes) to have
    full rank n+2.
    """

    n: int
    rank_a_x: int
    rank_a_y: int
    rank_c_next_x: int
    rank_c_next_y: int
    rank_joint_a: int
    rank_joint_c: int

    @property
    def ok(self):
        single = self.n + 1
        joint = self.n + 2
        return (self.rank_a_x == single and self.rank_a_y == single
                and self.rank_c_next_x == single
                and self.rank_c_next_y == single
                and self.rank_joint_a == joint
                and self.rank_joint_c == joint)


def rank_conditions(sys, n):
    """Evaluate the rank conditions at degree n (uses exact rank only).

    The integer rows of A_{n,x}, A_{n,y} and of the transposes of C_{n+1,x},
    C_{n+1,y} are formed once each, from the stored band entries, and serve
    both a single rank and a joint rank (rank C = rank C^t)."""
    a1, _, _ = first_ttr(sys, n)
    a2, _, _ = second_ttr(sys, n)
    _, _, c1_next = first_ttr(sys, n + 1)
    _, _, c2_next = second_ttr(sys, n + 1)
    a_x, a_y, ct_x, ct_y = (_int_rows(mat) for mat in (
        a1, a2, c1_next.transpose(), c2_next.transpose()))
    return RankReport(
        n,
        _rank_int(a_x),
        _rank_int(a_y),
        _rank_int(ct_x),
        _rank_int(ct_y),
        _rank_int(a_x + a_y),
        _rank_int(ct_x + ct_y),
    )
