"""Matrix coefficients of the two vector three-term relations.

Collecting the degree-n basis polynomials into the column vector
P_n = (P_{n,0}, ..., P_{n,n})^t, multiplication by either variable maps
onto neighbouring degrees:

    t_i P_n = A_{n,i} P_{n+1} + B_{n,i} P_n + C_{n,i} P_{n-1},  t = (x, y).

``first_ttr``/``second_ttr`` build these matrices from recurrence data in
closed form: the x-relation matrices are diagonal (each row is the ladder
recurrence at the right index), and the y-relation matrices are
tridiagonal, mixing the second-variable recurrence with the
adjacent-family connection coefficients.

``ttr_from_gram`` is the independent oracle: it computes the same
matrices purely from bivariate moments,

    A_{n,i} = <w, t_i P_n P_{n+1}^t> H_{n+1}^{-1},
    B_{n,i} = <w, t_i P_n P_n^t> H_n^{-1},
    C_{n,i} = <w, t_i P_n P_{n-1}^t> H_{n-1}^{-1},

with H_n the Gram block of degree n, of which only the diagonal is formed,
making no structural assumption (full bandwidth).  The moment matrices
<w, t_i P_n P_h^t> are the raw Gram blocks that ``BivariateSystem``
caches, read from moments and the expanded basis polynomials only.  C
is read from the block already cached for A_{n-1}:
C[r][c] = <w, t_i P_{n-1,c} P_{n,r}> / H_{n-1}[c].
``rank_conditions`` checks the rank identities that make the recurrence
well posed.
"""
from __future__ import annotations

from typing import NamedTuple

from .construction import CASE_I, _check_symmetric
from .numerics import BandMatrix, _check_index, _int_rows, _rank_int
from .univariate import _adjacent_down, _adjacent_up

AXES = ("x", "y")


class TTRSet(NamedTuple):
    """The six matrices of both relations at one degree n."""

    n: int
    a_x: BandMatrix
    b_x: BandMatrix
    c_x: BandMatrix
    a_y: BandMatrix
    b_y: BandMatrix
    c_y: BandMatrix

    def matrices(self):
        """Dict keyed by relation axis: A_x .. C_y."""
        return {"A_x": self.a_x, "B_x": self.b_x, "C_x": self.c_x,
                "A_y": self.a_y, "B_y": self.b_y, "C_y": self.c_y}


def first_ttr(sys, n):
    """Matrices (A, B, C) of the x-relation at degree n; all diagonal.

    Built once per system and degree, then read from the system's cache.
    """
    _check_index(n, "degree")
    cached = sys._ttr_cache.get((n, "x"))
    if cached is not None:
        return cached
    ladders = [sys.ladder(m) for m in range(n + 1)]
    a_entries = {}
    b_entries = {}
    c_entries = {}
    for m in range(n + 1):
        fam = ladders[m]
        a_entries[(m, m)] = fam.a(n - m)
        b_entries[(m, m)] = fam.b(n - m)
        if m <= n - 1:
            c_entries[(m, m)] = fam.c(n - m)
    cached = sys._ttr_cache[(n, "x")] = (
        BandMatrix(n + 1, n + 2, 0, 0, a_entries),
        BandMatrix(n + 1, n + 1, 0, 0, b_entries),
        BandMatrix(n + 1, n, 0, 0, c_entries),
    )
    return cached


def _down(sys, m, k):
    """The ``AdjacentDown`` triple between ladder steps m and m + 1 at index
    k, formed once per system: the superdiagonal of one degree and the
    subdiagonal of the next two read the same one."""
    triple = sys._down_cache.get((m, k))
    if triple is None:
        triple = sys._down_cache[(m, k)] = _adjacent_down(
            sys.ladder(m), sys.ladder(m + 1), sys.rho.s2, k)
    return triple


def second_ttr(sys, n):
    """Matrices (A, B, C) of the y-relation at degree n; all tridiagonal.

    Row m combines the second-variable recurrence coefficients at index m
    with the adjacent-family connections: the subdiagonal consumes the
    upward triple between ladder steps m-1 and m, the superdiagonal the
    downward triple between steps m and m+1, and the diagonal (case I
    only) the first-variable recurrence itself.

    Built once per system and degree, then read from the system's cache.
    In case II the symmetry of q is checked before anything is stored, so
    a failing degree fails again on every call.
    """
    _check_index(n, "degree")
    cached = sys._ttr_cache.get((n, "y"))
    if cached is not None:
        return cached
    rho = sys.rho
    case_i = sys.case == CASE_I
    q = sys.q
    if not case_i:
        _check_symmetric(q, sys.label, n)
    a_entries = {}
    b_entries = {}
    c_entries = {}
    for m in range(n + 1):
        qa = q.a(m)
        # Subdiagonal: q's c-coefficient times the upward connection
        # between ladder steps m-1 and m, at first-variable index n-m.
        if m >= 1:
            qc = q.c(m)
            eta, theta, vartheta = _adjacent_up(
                sys.ladder(m - 1), sys.ladder(m), rho.s2, n - m,
                lambda k: _down(sys, m - 1, k))
            a_entries[(m, m - 1)] = qc * eta
            b_entries[(m, m - 1)] = qc * theta
            c_entries[(m, m - 1)] = qc * vartheta
        # Diagonal: vanishes in case II; otherwise q's b-coefficient times
        # the ladder recurrence mapped through rho = r1 x + r0.
        if case_i:
            qb = q.b(m)
            if qb:
                fam = sys.ladder(m)
                a_entries[(m, m)] = qb * rho.r1 * fam.a(n - m)
                b_entries[(m, m)] = qb * (rho.r1 * fam.b(n - m) + rho.r0)
                if m <= n - 1:
                    c_entries[(m, m)] = qb * rho.r1 * fam.c(n - m)
        # Superdiagonal: q's a-coefficient times the downward connection
        # between ladder steps m and m+1, at first-variable index n-m.
        delta, epsilon, zeta = _down(sys, m, n - m)
        a_entries[(m, m + 1)] = qa * delta
        if m <= n - 1:
            b_entries[(m, m + 1)] = qa * epsilon
        if m <= n - 2:
            c_entries[(m, m + 1)] = qa * zeta
    cached = sys._ttr_cache[(n, "y")] = (
        BandMatrix(n + 1, n + 2, 1, 1, a_entries),
        BandMatrix(n + 1, n + 1, 1, 1, b_entries),
        BandMatrix(n + 1, n, 1, 1, c_entries),
    )
    return cached


def build_ttr(sys, n):
    """Both relations at degree n as a TTRSet (recurrence route)."""
    a1, b1, c1 = first_ttr(sys, n)
    a2, b2, c2 = second_ttr(sys, n)
    return TTRSet(n, a1, b1, c1, a2, b2, c2)


# -- the moment/Gram oracle -----------------------------------------------------


def _ratio(v, h):
    """v / h; a zero Gram entry, most of those off the band, is returned
    as it is, with no division."""
    return v / h if v else v


def ttr_from_gram(sys, n):
    """Both relations at degree n computed purely from bivariate moments.

    A and B divide the shifted Gram blocks <w, t_i P_n P_{n+1}^t> and
    <w, t_i P_n P_n^t> column by column by H_{n+1} and H_n; C reads the
    block cached for A_{n-1}: C[r][c] = <w, t_i P_{n-1} P_n^t>[c][r] /
    H_{n-1}[c].  The blocks come from moments and the basis polynomials
    only (see ``BivariateSystem``); no norm, ladder, recurrence or
    connection coefficient is read.  Returns full-bandwidth BandMatrices:
    any banded structure in the result is a finding, not an assumption.
    """
    _check_index(n, "degree")
    h_n = sys._gram_diag(n)
    h_next = sys._gram_diag(n + 1)
    h_prev = sys._gram_diag(n - 1) if n >= 1 else []
    out = {}
    for axis in AXES:
        dx, dy = (1, 0) if axis == "x" else (0, 1)
        a_dense = [[_ratio(v, h) for v, h in zip(row, h_next)]
                   for row in sys._gram_raw(n, n + 1, dx, dy)]
        b_dense = [[_ratio(v, h) for v, h in zip(row, h_n)]
                   for row in sys._gram_raw(n, n, dx, dy)]
        g_prev = sys._gram_raw(n - 1, n, dx, dy) if n >= 1 else []
        c_dense = [[_ratio(g_prev[c][r], h_prev[c]) for c in range(n)]
                   for r in range(n + 1)]
        out[axis] = (
            BandMatrix.from_dense(a_dense),
            BandMatrix.from_dense(b_dense),
            BandMatrix.from_dense(c_dense),
        )
    ax, bx, cx = out["x"]
    ay, by, cy = out["y"]
    return TTRSet(n, ax, bx, cx, ay, by, cy)


# -- rank conditions --------------------------------------------------------------


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
