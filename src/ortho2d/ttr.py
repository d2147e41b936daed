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

with H_n the diagonal Gram block, making no structural assumption (full
bandwidth).  The moment matrices <w, t_i P_n P_h^t> are the raw Gram
blocks that ``BivariateSystem`` caches, read from moments and the expanded
basis polynomials only.  C is read from the block already cached for
A_{n-1}: C[r][c] = <w, t_i P_{n-1,c} P_{n,r}> / H_{n-1}[c].
``rank_conditions`` checks the rank identities that make the recurrence
well posed.
"""
from __future__ import annotations

from dataclasses import dataclass

from .construction import CASE_I
from .numerics import BandMatrix, rank_exact
from .univariate import _down_raw, _up_raw

AXES = ("x", "y")


@dataclass(frozen=True)
class TTRSet:
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
    if not isinstance(n, int) or n < 0:
        raise ValueError("degree must be a nonnegative int")
    cached = sys._ttr_cache.get((n, "x"))
    if cached is not None:
        return cached
    ladders = [sys.ladder(m) for m in range(n + 1)]
    a_entries = {}
    b_entries = {}
    c_entries = {}
    for m in range(n + 1):
        fam = ladders[m]
        a_entries[(m, m)] = fam._a_raw(n - m)
        b_entries[(m, m)] = fam._b_raw(n - m)
        if m <= n - 1:
            c_entries[(m, m)] = fam._c_raw(n - m)
    cached = sys._ttr_cache[(n, "x")] = (
        BandMatrix(n + 1, n + 2, 0, 0, a_entries),
        BandMatrix(n + 1, n + 1, 0, 0, b_entries),
        BandMatrix(n + 1, n, 0, 0, c_entries),
    )
    return cached


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
    if not isinstance(n, int) or n < 0:
        raise ValueError("degree must be a nonnegative int")
    cached = sys._ttr_cache.get((n, "y"))
    if cached is not None:
        return cached
    rho = sys.rho
    s2 = rho.s2.value
    case_i = sys.case == CASE_I
    q = sys.q
    if not case_i:
        for m in range(n + 1):
            if q._b_raw(m):
                raise ValueError(
                    f"{sys.label}: case II second-variable family is not "
                    f"symmetric at index {m}")
    a_entries = {}
    b_entries = {}
    c_entries = {}
    for m in range(n + 1):
        qa = q._a_raw(m)
        # Subdiagonal: q's c-coefficient times the upward connection
        # between ladder steps m-1 and m, at first-variable index n-m.
        if m >= 1:
            qc = q._c_raw(m)
            eta, theta, vartheta = _up_raw(sys.ladder(m - 1), sys.ladder(m),
                                           s2, n - m)
            a_entries[(m, m - 1)] = qc * eta
            b_entries[(m, m - 1)] = qc * theta
            c_entries[(m, m - 1)] = qc * vartheta
        # Diagonal: vanishes in case II; otherwise q's b-coefficient times
        # the ladder recurrence mapped through rho = r1 x + r0.
        if case_i:
            qb = q._b_raw(m)
            if qb:
                r1 = rho.r1.value
                r0 = rho.r0.value
                fam = sys.ladder(m)
                a_entries[(m, m)] = qb * r1 * fam._a_raw(n - m)
                b_entries[(m, m)] = qb * (r1 * fam._b_raw(n - m) + r0)
                if m <= n - 1:
                    c_entries[(m, m)] = qb * r1 * fam._c_raw(n - m)
        # Superdiagonal: q's a-coefficient times the downward connection
        # between ladder steps m and m+1, at first-variable index n-m.
        delta, epsilon, zeta = _down_raw(sys.ladder(m), sys.ladder(m + 1),
                                         s2, n - m)
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


def _h_diag(sys, n):
    """Raw diagonal of the Gram block H_n."""
    rows = sys._gram_raw(n, n)
    return [rows[m][m] for m in range(n + 1)]


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
    if not isinstance(n, int) or n < 0:
        raise ValueError("degree must be a nonnegative int")
    h_n = _h_diag(sys, n)
    h_next = _h_diag(sys, n + 1)
    h_prev = _h_diag(sys, n - 1) if n >= 1 else []
    out = {}
    for axis in AXES:
        dx, dy = (1, 0) if axis == "x" else (0, 1)
        a_dense = [[v / h for v, h in zip(row, h_next)]
                   for row in sys._gram_raw(n, n + 1, dx, dy)]
        b_dense = [[v / h for v, h in zip(row, h_n)]
                   for row in sys._gram_raw(n, n, dx, dy)]
        g_prev = sys._gram_raw(n - 1, n, dx, dy) if n >= 1 else []
        c_dense = [[g_prev[c][r] / h_prev[c] for c in range(n)]
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


@dataclass(frozen=True)
class RankReport:
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
    """Evaluate the rank conditions at degree n (uses exact rank only)."""
    a1, _, _ = first_ttr(sys, n)
    a2, _, _ = second_ttr(sys, n)
    _, _, c1_next = first_ttr(sys, n + 1)
    _, _, c2_next = second_ttr(sys, n + 1)
    joint_a = a1._raw_rows() + a2._raw_rows()
    joint_c = c1_next.transpose()._raw_rows() + c2_next.transpose()._raw_rows()
    return RankReport(
        n,
        rank_exact(a1),
        rank_exact(a2),
        rank_exact(c1_next),
        rank_exact(c2_next),
        rank_exact(joint_a),
        rank_exact(joint_c),
    )
