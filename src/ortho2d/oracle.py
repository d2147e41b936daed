"""The Gram oracle: both relations' matrices from the moment definition,

    A_{n,i} = <w, t_i P_n P_{n+1}^t> H_{n+1}^{-1},
    B_{n,i} = <w, t_i P_n P_n^t> H_n^{-1},
    C_{n,i} = <w, t_i P_n P_{n-1}^t> H_{n-1}^{-1},

with every entry of every block formed and, of H_n, only the diagonal.  A
``GramOracle`` reads the moments <w, x^h y^k> as two ints and the basis
polynomials' integer forms, nothing else: this module imports only
``numerics``, so no norm, ladder, recurrence or connection coefficient
reaches it, and it stays the independent ground truth.

It runs fraction-free: the moments form one triangular integer grid over
their least common denominator D, the row moments of each basis
polynomial a grid of the same layout; both grow by total degree and are
rescaled by D_new / D_old.  One contraction (``_contract``) and one row
kernel (``_row``) form every Gram entry, stored once per row as ints over
one denominator; a rational is formed per entry only where it is read.
"""
from __future__ import annotations

import math

from .numerics import (_RAT, _ZERO, QuasiDefinitenessError, SparsePoly2,
                       _check_index, _int_list, _rat)


def _contract(terms, grid, a, b):
    """sum(c * grid[i + a][j + b]) over the terms (i, j, c): a polynomial's
    integer terms against a triangular integer grid shifted by x^a y^b."""
    return sum(c * grid[i + a][j + b] for i, j, c in terms)


def _columns(forms):
    """(d, [(d / d_col, terms)]): integer forms (d_col, terms) as the
    columns of a Gram row, over the lcm d of their denominators."""
    d = math.lcm(*(d_col for d_col, _ in forms))
    return d, [(d // d_col, terms) for d_col, terms in forms]


def _quotient(v, den, h):
    """v / den / h for a Gram entry, the int v over den, and a diagonal
    entry h of H: one rational, or the shared zero, with no division,
    where v vanishes, as most entries off the band do."""
    return _RAT(v * h.denominator, den * h.numerator) if v else _ZERO


class GramOracle:
    """The Gram oracle of one system, read from its moments ``w_int(h, k)
    -> (num, den)`` and basis forms ``P_int(n, m) -> (d, [(i, j, c)])``;
    ``label`` names the system in a QuasiDefinitenessError.  Each store
    below is built once.  Not thread-safe."""

    def __init__(self, w_int, P_int, label):
        self._w_int = w_int
        self._P_int = P_int
        self.label = label
        self._table = (1, [])  # (D, W) of moment_table
        self._row_moms = {}    # (n, m) -> (D, grid) of row_moments
        self._gram = {}        # (n, h, dx, dy) -> [(den, [ints])] of rows
        self._diag = {}        # n -> H_n's diagonal, of diagonal

    def moment_table(self, top):
        """(D, W): the moments of total degree <= top as integers W[h][k] =
        D <w, x^h y^k> over their least common denominator D.  A higher top
        adds the new total degrees only (``w_int``), over the lcm of their
        denominators reduced by one gcd; D becomes the lcm of the old and
        the new, and the old entries are rescaled by D_new / D_old."""
        d_old, table = self._table
        old_top = len(table) - 1
        if top > old_top:
            w = self._w_int
            # Row h gains the degrees k above old_top - h, row by row.
            new = [[w(h, k) for k in range(max(old_top + 1 - h, 0),
                                           top + 1 - h)]
                   for h in range(top + 1)]
            dens = {den for row in new for _, den in row}
            d_new = math.lcm(*dens)
            scale = {den: d_new // den for den in dens}
            new = [[num * scale[den] for num, den in row] for row in new]
            g = math.gcd(d_new, *(v for row in new for v in row))
            d_least = d_new // g
            d = math.lcm(d_old, d_least)
            f_old, f_new = d // d_old, d // d_least
            table = [[f_old * v for v in row] for row in table]
            table += [[] for _ in range(top - old_top)]
            for row, values in zip(table, new):
                row += [v // g * f_new for v in values]
            self._table = (d, table)
        return self._table

    def row_moments(self, n, m, deg):
        """(D, moms): the triangular grid moms[a][b] = D d <w, x^a y^b
        P_{n,m}> for a + b <= deg, d the basis polynomial's denominator and
        D the moment table's.  Each value is one contraction, taken once
        per system and rescaled by D_new / D_old when the table grows."""
        d_w, table = self.moment_table(n + deg)
        d_old, moms = self._row_moms.get((n, m), (d_w, []))
        if d_old != d_w:
            f = d_w // d_old
            moms = [[f * v for v in row] for row in moms]
        seen = len(moms) - 1
        if deg > seen:
            terms = self._P_int(n, m)[1]
            moms += [[] for _ in range(deg - seen)]
            for t in range(seen + 1, deg + 1):
                for a in range(t + 1):
                    moms[a].append(_contract(terms, table, a, t - a))
        self._row_moms[(n, m)] = (d_w, moms)
        return d_w, moms

    def bilinear(self, p, q, dx=0, dy=0):
        """<w, x^dx y^dy p(x,y) q(x,y)> for two exact polynomials.

        The sum over term pairs of c_p c_q <w, x^(i_p+i_q+dx) y^(j_p+j_q+dy)>,
        computed from the moments alone: both polynomials are scaled to
        integer coefficients, each term of q contracts p against the
        integer moment table (``_contract``), and the exact result is one
        rational."""
        _check_index(dx, "shift exponent")
        _check_index(dy, "shift exponent")
        if not all(isinstance(v, SparsePoly2) for v in (p, q)):
            raise TypeError("moment_bilinear takes two SparsePoly2")
        p_map, q_map = p.terms, q.terms
        d_p, p_ints = _int_list(p_map.values())
        d_q, q_ints = _int_list(q_map.values())
        top = (max((i + j for i, j in p_map), default=0)
               + max((i + j for i, j in q_map), default=0) + dx + dy)
        d_w, table = self.moment_table(top)
        p_terms = [(i, j, c) for (i, j), c in zip(p_map, p_ints)]
        num = sum(cq * _contract(p_terms, table, iq + dx, jq + dy)
                  for (iq, jq), cq in zip(q_map, q_ints))
        return _rat(num, d_w * d_p * d_q)

    # -- Gram rows ------------------------------------------------------------

    def _row(self, n, m, h, cols, dx=0, dy=0):
        """Row m of <w, x^dx y^dy P_{n,m} P_{h,.}>, the one formula of a
        Gram entry, as (den, [ints]): cols = (d, [(f, terms)]) holds the
        column forms of degree h over their lcm d (``_columns``); per
        column one contraction with the row moments (``row_moments``)
        shifted by x^dx y^dy, times f, all over den = d_w d_row d."""
        d_w, moms = self.row_moments(n, m, h + dx + dy)
        d, forms = cols
        return (d_w * self._P_int(n, m)[0] * d,
                [f * _contract(terms, moms, dx, dy) for f, terms in forms])

    def rows(self, n, h, dx=0, dy=0):
        """Dense rows <w, x^dx y^dy P_{n,m} P_{h,mp}>, rows m, columns mp,
        from moments only (``_row``): each row is (den, [ints]), one int
        per column over the row's den, built once per (n, h, dx, dy).  The
        unshifted H_n first forms its diagonal (``diagonal``), so a
        vanishing one raises before the block is built."""
        key = (n, h, dx, dy)
        cached = self._gram.get(key)
        if cached is not None:
            return cached
        if n == h and not (dx or dy):
            self.diagonal(n)
        cols = _columns([self._P_int(h, mp) for mp in range(h + 1)])
        raw = [self._row(n, m, h, cols, dx, dy) for m in range(n + 1)]
        self._gram[key] = raw
        return raw

    def diagonal(self, n):
        """The diagonal <w, P_{n,m}^2>, m = 0..n, of the Gram block H_n as
        rationals, built once per n without the rest of the block: each
        entry is the one-column row of ``_row``.  It is the one check of
        H_n's diagonal: the first vanishing entry raises a
        QuasiDefinitenessError at its (n, m), and nothing is stored."""
        cached = self._diag.get(n)
        if cached is not None:
            return cached
        diag = []
        for m in range(n + 1):
            den, (num,) = self._row(n, m, n, _columns([self._P_int(n, m)]))
            v = _rat(num, den)
            if not v:
                raise QuasiDefinitenessError(
                    self.label, {}, (n, m),
                    f"Gram diagonal <w, P_({n},{m})^2> vanishes")
            diag.append(v)
        self._diag[n] = diag
        return diag

    def block(self, n, h):
        """The Gram block pairing total degrees n and h as rows of
        rationals."""
        _check_index(n, "degree")
        _check_index(h, "degree")
        return tuple(tuple(_rat(v, den) for v in ints)
                     for den, ints in self.rows(n, h))

    # -- the relations and orthogonality -------------------------------------

    def relation(self, n, dx, dy):
        """The dense rows of (A, B, C) along the axis t = x^dx y^dy at
        degree n.  A and B divide the shifted blocks <w, t P_n P_{n+1}^t>
        and <w, t P_n P_n^t> column by column by H_{n+1} and H_n; C reads
        the block of A_{n-1}: C[r][c] = <w, t P_{n-1} P_n^t>[c][r] /
        H_{n-1}[c].  Each entry is one rational (``_quotient``)."""
        h_n = self.diagonal(n)
        h_next = self.diagonal(n + 1)
        h_prev = self.diagonal(n - 1) if n >= 1 else []
        a = [[_quotient(v, den, h) for v, h in zip(ints, h_next)]
             for den, ints in self.rows(n, n + 1, dx, dy)]
        b = [[_quotient(v, den, h) for v, h in zip(ints, h_n)]
             for den, ints in self.rows(n, n, dx, dy)]
        g_prev = self.rows(n - 1, n, dx, dy) if n >= 1 else []
        c = [[_quotient(ints[r], den, h)
              for (den, ints), h in zip(g_prev, h_prev)]
             for r in range(n + 1)]
        return a, b, c

    def orthogonality_failure(self, max_degree, norm):
        """The first failing entry of the Gram blocks <w, P_n P_h^t>, n =
        0..max_degree, h = 0..n, in one scan row by row, as (kind, details)
        (JSON-ready); None when every block passes.  A nonzero entry off
        the degree or off the diagonal fails, and so does a diagonal one
        unequal to norm(n, m).  A rational is formed only on the diagonal
        and for a failing entry."""
        for n in range(max_degree + 1):
            for h in range(n + 1):
                for m, (den, ints) in enumerate(self.rows(n, h)):
                    for mp, v in enumerate(ints):
                        if h == n and m == mp:
                            got, want = _rat(v, den), norm(n, m)
                            if got != want:
                                return "norm mismatch", {
                                    "n": n, "m": m, "gram": str(got),
                                    "predicted": str(want)}
                        elif v:
                            at = {"n": n, "h": h, "m": m, "mp": mp,
                                  "value": str(_rat(v, den))}
                            if h < n:
                                return "cross-degree block not zero", at
                            del at["h"]
                            return "diagonal block not diagonal", at
        return None
