"""Assembly of bivariate orthogonal systems from univariate ingredients.

A system is determined by three pieces of data:

* a radical factor rho(x): either a degree <= 1 polynomial r1 x + r0
  (case I) or the square root of a degree <= 2 polynomial
  s2 x^2 + s1 x + s0 (case II, which requires the second-variable family
  to be symmetric);
* a ladder of first-variable families, one per second-variable degree m,
  where step m+1 carries an extra rho^2 factor in its weight;
* a second-variable family q.

The degree-(n, m) basis polynomial is

    P_{n,m}(x, y) = p_{n-m}^{(m)}(x) * rho(x)^m * q_m(y / rho(x)),

which is a genuine polynomial because q_m has the same parity as m in
case II.  The module expands these basis polynomials, computes moments of
the induced bivariate functional, and evaluates Gram blocks -- the
independent ground truth against which the recurrence-built matrix
relations are checked.

Everything is built fraction-free, in the manner of Bareiss elimination:
basis polynomials, ladder coefficients and powers of rho are each cached
once, as integer forms (integers over one least positive denominator).
The moments <w, x^h y^k> form one integer table over a common denominator
D.  Each basis polynomial is contracted against it once per monomial: its
row moments <w, P_{n,m} x^a y^b> are kept as ints over D, rescaled by the
integer D_new / D_old when the table grows, and extended only by the
monomials not yet seen.  A Gram entry is one integer dot product of a
column polynomial with those row moments and a single rational, the
shared zero when it vanishes.  The kernel reads the moments and the basis
polynomials only -- no norm, ladder, recurrence or connection coefficient
-- so it stays an independent check.
"""
from __future__ import annotations

import math
from typing import NamedTuple

from .numerics import (
    Scalar,
    SparsePoly2,
    _RAT,
    _as_raw_exact,
    _int_list,
    _poly,
    _wrap,
)
from .univariate import QuasiDefinitenessError, RecurrenceFamily

_ZERO = _RAT(0)

CASE_I = "I"
CASE_II = "II"

# Largest index at which ``assemble`` checks a case-II q for symmetry.
_SYMMETRY_PRECHECK = 16


class RhoSpec(NamedTuple):
    """The radical factor.  s2, s1, s0 (coefficients of rho^2) are always
    populated; r1, r0 are present only in case I."""

    case: str
    r1: Scalar | None
    r0: Scalar | None
    s2: Scalar
    s1: Scalar
    s0: Scalar

    @classmethod
    def linear(cls, r1, r0):
        """Case I: rho(x) = r1 x + r0 itself is a polynomial."""
        r1_raw = _as_raw_exact(r1)
        r0_raw = _as_raw_exact(r0)
        if not r1_raw and not r0_raw:
            raise ValueError("rho must not be identically zero")
        return cls(
            CASE_I,
            _wrap(r1_raw),
            _wrap(r0_raw),
            _wrap(r1_raw * r1_raw),
            _wrap(2 * r1_raw * r0_raw),
            _wrap(r0_raw * r0_raw),
        )

    @classmethod
    def sqrt_quadratic(cls, s2, s1, s0):
        """Case II: only rho(x)^2 = s2 x^2 + s1 x + s0 is a polynomial."""
        s2_raw = _as_raw_exact(s2)
        s1_raw = _as_raw_exact(s1)
        s0_raw = _as_raw_exact(s0)
        if not (s2_raw or s1_raw or s0_raw):
            raise ValueError("rho^2 must not be identically zero")
        return cls(
            CASE_II,
            None,
            None,
            _wrap(s2_raw),
            _wrap(s1_raw),
            _wrap(s0_raw),
        )


class GramBlock(NamedTuple):
    """Dense block of bivariate inner products <w, P_{n,.} P_{h,.}>.

    entries[m][mp] pairs row degree (n, m) with column degree (h, mp).
    """

    n: int
    h: int
    entries: tuple


def _rat(num, den):
    """num / den as a raw rational; a zero is the shared zero."""
    return _RAT(num, den) if num else _ZERO


def _product(p, r):
    """The product of two dense integer coefficient lists as {k: c}, each
    nonzero coefficient c of x^k.  The products p_i r_d are summed term by
    term (i, then d, ascending) and a key whose sum vanishes is dropped, so
    the keys stand in the order of a term-by-term merge into a dict."""
    r_terms = [(d, rc) for d, rc in enumerate(r) if rc]
    out = {}
    for i, pc in enumerate(p):
        if pc:
            for d, rc in r_terms:
                k = i + d
                v = out.get(k, 0) + pc * rc
                if v:
                    out[k] = v
                else:
                    del out[k]
    return out


class BivariateSystem:
    """One assembled bivariate orthogonal system.  Build via ``assemble``.

    Basis polynomials, ladder coefficients and powers of rho are cached
    once, as integer forms, and each basis polynomial once more rounded to
    doubles for the float checks; ladders, moments, the row moments of
    each basis polynomial, the raw Gram blocks (shifted ones included), the
    diagonals of H_n, the connection triples between ladder steps, the
    matrices of ``ttr.first_ttr``/``second_ttr`` and the square roots of
    the block norms once each.  Not thread-safe.
    """

    def __init__(self, rho, ladder_factory, q, label):
        self.rho = rho
        self.q = q
        self.label = label
        self._factory = ladder_factory
        self._ladders = []
        self._P_cache = {}
        # Basis polynomials rounded to doubles, keyed (n, m), as
        # ({(i, j): float}, largest |coefficient|); filled by _P_float.
        self._float_cache = {}
        self._w_cache = {}
        self._w_table = (1, [])
        # Powers of rho as integer forms (d, [ints]), in steps of rho
        # (case I) or of rho^2 (case II).
        if rho.case == CASE_I:
            step = {1: _int_list([rho.r0.value, rho.r1.value])}
        else:
            step = {2: _int_list([rho.s0.value, rho.s1.value, rho.s2.value])}
        self._rho_pow = {0: (1, [1]), **step}
        # Row moments of the basis polynomials, keyed (n, m), as
        # [D, deg, {(a, b): int}]; filled by _row_moments.
        self._row_cache = {}
        # Raw Gram rows keyed (n, h, dx, dy); filled by _gram_raw.
        self._gram_cache = {}
        # Raw diagonals of the Gram blocks H_n keyed n; filled by _gram_diag.
        self._diag_cache = {}
        # (A, B, C) of the relation along axis at degree n, keyed (n, axis);
        # filled by ttr.first_ttr / second_ttr.
        self._ttr_cache = {}
        # Raw connection triples (delta, epsilon, zeta) between ladder steps
        # m and m + 1, keyed (m, k); filled by ttr._down.
        self._down_cache = {}
        # Square roots of the block norms of degree n as doubles, keyed n;
        # filled by verify._norm_roots.
        self._root_cache = {}

    def __repr__(self):
        return f"BivariateSystem({self.label!r})"

    @property
    def case(self):
        return self.rho.case

    # -- the ladder of first-variable families -------------------------------

    def ladder(self, m):
        """First-variable family for second-variable degree m, with its
        norm normalization chained through the rho^2-moment recursion."""
        if not isinstance(m, int) or m < 0:
            raise ValueError("ladder index must be a nonnegative int")
        while len(self._ladders) <= m:
            j = len(self._ladders)
            if j == 0:
                self._ladders.append(self._factory(0).with_h0(1))
                continue
            prev = self._ladders[j - 1]
            mom = [prev._moment_raw(i) for i in range(3)]
            chain = (self.rho.s2.value * mom[2]
                     + self.rho.s1.value * mom[1]
                     + self.rho.s0.value * mom[0])
            fam = self._factory(j)
            if not chain:
                raise QuasiDefinitenessError(
                    f"{self.label}:{fam.label}", fam.params, j,
                    f"weight-chain value <u, rho^2> vanished at ladder "
                    f"step {j}")
            self._ladders.append(fam.with_h0(chain))
        return self._ladders[m]

    # -- powers of rho ---------------------------------------------------------

    def _rho_pow_int(self, e):
        """rho(x)^e as (d, [ints]), constant term first.  In case II only
        rho^2 is a polynomial, so e must be even there."""
        if self.case == CASE_II and e % 2:
            raise ValueError("case II has only even powers of rho")
        if e not in self._rho_pow:
            step = 1 if self.case == CASE_I else 2
            (d, u), (d_s, s) = self._rho_pow_int(e - step), self._rho_pow[step]
            out = [0] * (len(u) + len(s) - 1)
            for i, a in enumerate(u):
                for k, b in enumerate(s):
                    out[i + k] += a * b
            self._rho_pow[e] = (d * d_s, out)
        return self._rho_pow[e]

    # -- basis polynomials -------------------------------------------------------

    def _P_int(self, n, m):
        """The (n, m) basis polynomial as (d, [(i, j, c)]), c over the least
        positive d; built once from the integer forms of q_m, p_{n-m}^{(m)}
        and rho^(m-j), and read by the relation checks and the Gram kernel."""
        if not (isinstance(n, int) and isinstance(m, int) and 0 <= m <= n):
            raise ValueError(f"need 0 <= m <= n, got (n, m) = ({n}, {m})")
        key = (n, m)
        cached = self._P_cache.get(key)
        if cached is not None:
            return cached
        d_q, q_coeffs = self.q._coeffs_int(m)
        d_p, p_coeffs = self.ladder(m)._coeffs_int(n - m)
        if self.case == CASE_II:
            _check_symmetric(self.q, self.label, m - 1)
        # Each y^j term carries rho^(m - j); bring them over one lcm.
        rho = {j: self._rho_pow_int(m - j)
               for j, qc in enumerate(q_coeffs) if qc}
        lcm = math.lcm(*(d for d, _ in rho.values()))
        terms = []
        for j, (d_rho, rho_e) in rho.items():
            scale = q_coeffs[j] * (lcm // d_rho)
            terms += [(i, j, c * scale)
                      for i, c in _product(p_coeffs, rho_e).items()]
        den = d_p * d_q * lcm
        g = math.gcd(den, *(c for _, _, c in terms))
        form = (den // g, [(i, j, c // g) for i, j, c in terms])
        self._P_cache[key] = form
        return form

    def _P_float(self, n, m):
        """The (n, m) basis polynomial as ({(i, j): c / d}, peak): each
        coefficient of ``_P_int`` rounded to a double once (correct
        rounding), in its key order, and the largest |coefficient|."""
        cached = self._float_cache.get((n, m))
        if cached is None:
            d, terms = self._P_int(n, m)
            coeffs = {(i, j): c / d for i, j, c in terms}
            cached = (coeffs, max(map(abs, coeffs.values())))
            self._float_cache[(n, m)] = cached
        return cached

    def expand_P(self, n, m):
        """The (n, m) basis polynomial as an exact SparsePoly2, formed at
        this boundary from the cached integer form (``_P_int``)."""
        d, terms = self._P_int(n, m)
        return _poly({(i, j): _RAT(c, d) for i, j, c in terms})

    # -- moments of the bivariate functional ----------------------------------

    def _w_moment_raw(self, h, k):
        key = (h, k)
        cached = self._w_cache.get(key)
        if cached is not None:
            return cached
        if self.case == CASE_II and k % 2:
            value = _ZERO
        else:
            d_rho, rho_k = self._rho_pow_int(k)
            base = self.ladder(0)
            base._moment_raw(h + len(rho_k) - 1)
            acc = sum(rc * base._moment_raw(h + d)
                      for d, rc in enumerate(rho_k) if rc)
            value = acc * self.q._moment_raw(k) / d_rho
        self._w_cache[key] = value
        return value

    def w_moment(self, h, k):
        """Moment <w, x^h y^k> of the bivariate functional."""
        if not (isinstance(h, int) and isinstance(k, int) and h >= 0 and k >= 0):
            raise ValueError("moment exponents must be nonnegative ints")
        return _wrap(self._w_moment_raw(h, k))

    def _moment_table(self, top):
        """(D, W): the moments of total degree <= top over one common
        denominator D, as integers W[h][k] = D * <w, x^h y^k>.

        When a higher degree is asked for, the table grows by the new total
        degrees only: D becomes the lcm of its old value and the new
        moments' denominators, and the old entries are rescaled by the
        integer D_new / D_old."""
        d_old, table = self._w_table
        old_top = len(table) - 1
        if top > old_top:
            wm = self._w_moment_raw
            # Row h gains the degrees k above old_top - h, row by row.
            new = [[wm(h, k) for k in range(max(old_top + 1 - h, 0),
                                            top + 1 - h)]
                   for h in range(top + 1)]
            d = math.lcm(d_old, *(int(v.denominator)
                                  for row in new for v in row))
            f = d // d_old
            table = [[f * v for v in row] for row in table]
            table += [[] for _ in range(top - old_top)]
            for row, values in zip(table, new):
                row += [int(v.numerator) * (d // int(v.denominator))
                        for v in values]
            self._w_table = (d, table)
        return self._w_table

    def _row_moments(self, n, m, deg):
        """{(a, b): D d <w, x^a y^b P_{n,m}>} for every a + b <= deg, with
        d the basis polynomial's denominator and D the moment table's.

        Each value is one contraction of the basis polynomial against the
        integer moment table, taken once per system: when the table grows
        the stored values are rescaled by the integer D_new / D_old, and a
        larger deg contracts only the monomials not yet seen."""
        d_w, table = self._moment_table(n + deg)
        entry = self._row_cache.get((n, m))
        if entry is None:
            entry = self._row_cache[(n, m)] = [d_w, -1, {}]
        d_old, seen, moms = entry
        if d_old != d_w:
            f = d_w // d_old
            for key in moms:
                moms[key] *= f
            entry[0] = d_w
        if deg > seen:
            terms = self._P_int(n, m)[1]
            for t in range(seen + 1, deg + 1):
                for a in range(t + 1):
                    moms[(a, t - a)] = sum(c * table[i + a][j + t - a]
                                           for i, j, c in terms)
            entry[1] = deg
        return moms

    def moment_bilinear(self, p, q_poly, dx=0, dy=0):
        """<w, x^dx y^dy p(x,y) q_poly(x,y)> for two exact polynomials.

        The sum over term pairs of c_p c_q <w, x^(i_p+i_q+dx) y^(j_p+j_q+dy)>,
        computed from the moments alone: both polynomials are scaled to
        integer coefficients, the sum runs in ints over the integer moment
        table, and the exact result is one rational."""
        if not (isinstance(dx, int) and isinstance(dy, int)
                and dx >= 0 and dy >= 0):
            raise ValueError("shift exponents must be nonnegative ints")
        if not all(isinstance(v, SparsePoly2) for v in (p, q_poly)):
            raise TypeError("moment_bilinear takes two SparsePoly2")
        d_p, p_ints = _int_list(p._terms.values())
        d_q, q_ints = _int_list(q_poly._terms.values())
        top = (max((i + j for i, j in p._terms), default=0)
               + max((i + j for i, j in q_poly._terms), default=0) + dx + dy)
        d_w, table = self._moment_table(top)
        num = sum(cp * cq * table[ip + iq + dx][jp + jq + dy]
                  for (ip, jp), cp in zip(p._terms, p_ints)
                  for (iq, jq), cq in zip(q_poly._terms, q_ints))
        return _wrap(_rat(num, d_w * d_p * d_q))

    # -- Gram blocks -------------------------------------------------------------

    def _gram_raw(self, n, h, dx=0, dy=0):
        """Raw dense rows <w, x^dx y^dy P_{n,m} P_{h,mp}>, rows m, columns
        mp, from moments only; built once per (n, h, dx, dy).  Each entry
        is one integer dot product of the column polynomial with the row
        moments (``_row_moments``), and one rational.  A vanishing diagonal
        of H_n (unshifted) raises before anything is stored."""
        key = (n, h, dx, dy)
        cached = self._gram_cache.get(key)
        if cached is not None:
            return cached
        deg = h + dx + dy
        d_w = self._moment_table(n + deg)[0]
        cols = [self._P_int(h, mp) for mp in range(h + 1)]
        raw = []
        for m in range(n + 1):
            moms = self._row_moments(n, m, deg)
            den_r = d_w * self._P_int(n, m)[0]
            raw.append([
                _rat(sum(c * moms[(i + dx, j + dy)] for i, j, c in c_terms),
                     den_r * d_c)
                for d_c, c_terms in cols
            ])
        if n == h and not (dx or dy):
            self._check_diagonal(n, [raw[m][m] for m in range(n + 1)])
        self._gram_cache[key] = raw
        return raw

    def _gram_diag(self, n):
        """Raw diagonal <w, P_{n,m}^2>, m = 0..n, of the Gram block H_n,
        built once per n without the rest of the block: each entry is the
        dot product ``_gram_raw`` forms for it, in the same order.  A
        vanishing entry raises before anything is stored."""
        cached = self._diag_cache.get(n)
        if cached is not None:
            return cached
        d_w = self._moment_table(2 * n)[0]
        forms = [self._P_int(n, m) for m in range(n + 1)]
        diag = []
        for m, (d, terms) in enumerate(forms):
            moms = self._row_moments(n, m, n)
            diag.append(_rat(sum(c * moms[(i, j)] for i, j, c in terms),
                             d_w * d * d))
        self._check_diagonal(n, diag)
        self._diag_cache[n] = diag
        return diag

    def _check_diagonal(self, n, diag):
        """Raise at the first vanishing <w, P_{n,m}^2> of diag."""
        for m, v in enumerate(diag):
            if not v:
                raise QuasiDefinitenessError(
                    self.label, {}, (n, m),
                    f"Gram diagonal <w, P_({n},{m})^2> vanishes")

    def gram_block(self, n, h):
        """Dense Gram block pairing total degrees n and h."""
        if not (isinstance(n, int) and isinstance(h, int)
                and n >= 0 and h >= 0):
            raise ValueError(f"degrees must be nonnegative ints, got "
                             f"(n, h) = ({n}, {h})")
        return GramBlock(n, h, tuple(tuple(_wrap(v) for v in row)
                                     for row in self._gram_raw(n, h)))

    def block_norm(self, n, m):
        """Closed-form squared norm of P_{n,m}: the ladder norm times the
        second-variable norm."""
        if not (isinstance(n, int) and isinstance(m, int) and 0 <= m <= n):
            raise ValueError(f"need 0 <= m <= n, got (n, m) = ({n}, {m})")
        raw = self.ladder(m)._h_raw(n - m) * self.q._h_raw(m)
        return _wrap(raw)


def assemble(rho, ladder_factory, q, label="system"):
    """Build a BivariateSystem and run eager structural checks.

    Case II requires the second-variable family to be symmetric: its
    b-coefficients are checked here up to index ``_SYMMETRY_PRECHECK``, and
    ``second_ttr`` and ``expand_P`` check them again at any degree.
    """
    if not isinstance(rho, RhoSpec):
        raise TypeError("rho must be a RhoSpec")
    if not isinstance(q, RecurrenceFamily):
        raise TypeError("q must be a RecurrenceFamily")
    if not callable(ladder_factory):
        raise TypeError("ladder_factory must map m to a RecurrenceFamily")
    q_norm = q.with_h0(1)
    if rho.case == CASE_II:
        _check_symmetric(q_norm, label, _SYMMETRY_PRECHECK)
    return BivariateSystem(rho, ladder_factory, q_norm, label)


def _check_symmetric(q, label, upto):
    """Raise ValueError unless b(j) = 0 for every j <= upto, as case II
    requires of q.  Nothing is stored, so a failure repeats on every call."""
    for j in range(upto + 1):
        if q._b_raw(j):
            raise ValueError(
                f"{label}: case II requires a symmetric second-variable "
                f"family; {q.label} has b({j}) != 0")
