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
The moments <w, x^h y^k> form one integer table over a common denominator;
each Gram row polynomial is contracted once against it, all sums run in
plain ints, and every entry is a single rational.  The kernel reads the
moments and the basis polynomials only -- no norm, ladder, recurrence or
connection coefficient -- so it stays an independent check.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .numerics import (
    Scalar,
    SparsePoly2,
    _RAT,
    _add_terms,
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


@dataclass(frozen=True)
class RhoSpec:
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


@dataclass(frozen=True)
class GramBlock:
    """Dense block of bivariate inner products <w, P_{n,.} P_{h,.}>.

    entries[m][mp] pairs row degree (n, m) with column degree (h, mp).
    """

    n: int
    h: int
    entries: tuple


def _integer_form(poly):
    """(d, terms): an exact polynomial as integer coefficients over one
    positive denominator d, terms being (i, j, d * coefficient) triples."""
    if not isinstance(poly, SparsePoly2):
        raise TypeError("expected a SparsePoly2")
    d, ints = _int_list(poly._terms.values())
    return d, [(i, j, c) for (i, j), c in zip(poly._terms, ints)]


class BivariateSystem:
    """One assembled bivariate orthogonal system.  Build via ``assemble``.

    Basis polynomials, ladder coefficients and powers of rho are cached
    once, as integer forms; ladders, moments, the raw Gram blocks (shifted
    ones included) and the matrices of ``ttr.first_ttr``/``second_ttr``
    once each.  Not thread-safe.
    """

    def __init__(self, rho, ladder_factory, q, label):
        self.rho = rho
        self.q = q
        self.label = label
        self._factory = ladder_factory
        self._ladders = []
        self._P_cache = {}
        self._w_cache = {}
        self._w_table = (1, [])
        # Powers of rho as integer forms (d, [ints]), in steps of rho
        # (case I) or of rho^2 (case II).
        if rho.case == CASE_I:
            step = {1: _int_list([rho.r0.value, rho.r1.value])}
        else:
            step = {2: _int_list([rho.s0.value, rho.s1.value, rho.s2.value])}
        self._rho_pow = {0: (1, [1]), **step}
        # Raw Gram rows keyed (n, h, dx, dy); filled by _gram_raw.
        self._gram_cache = {}
        # (A, B, C) of the relation along axis at degree n, keyed (n, axis);
        # filled by ttr.first_ttr / second_ttr.
        self._ttr_cache = {}

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
        # Each y^j term carries rho^(m - j); bring them over one lcm.
        rho = {}
        for j, qc in enumerate(q_coeffs):
            if qc:
                if (m - j) % 2 and self.case == CASE_II:
                    raise ValueError(
                        f"{self.label}: case II second-variable family is "
                        f"not symmetric (q_{m} has a y^{j} term)")
                rho[j] = self._rho_pow_int(m - j)
        lcm = math.lcm(*(d for d, _ in rho.values()))
        terms = {}
        for j, (d_rho, rho_e) in rho.items():
            scale = q_coeffs[j] * (lcm // d_rho)
            for i, pc in enumerate(p_coeffs):
                if pc:
                    _add_terms(terms, {(i + d, j): pc * scale * rc
                                       for d, rc in enumerate(rho_e) if rc})
        den = d_p * d_q * lcm
        g = math.gcd(den, *terms.values())
        form = (den // g, [(i, j, c // g) for (i, j), c in terms.items()])
        self._P_cache[key] = form
        return form

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

        When a higher degree is asked for, the table grows: D becomes the
        lcm of all the moments' denominators and every entry is rescaled
        to it."""
        if top >= len(self._w_table[1]):
            wm = self._w_moment_raw
            moments = [[wm(h, k) for k in range(top + 1 - h)]
                       for h in range(top + 1)]
            d, ints = _int_list([v for row in moments for v in row])
            flat = iter(ints)
            self._w_table = (d, [[next(flat) for _ in row] for row in moments])
        return self._w_table

    def _bilinear_raw(self, rows, cols, dx, dy):
        """Raw matrix <w, x^dx y^dy r c> over integer forms (see
        ``_integer_form``) of the row and column polynomials.

        Each row is contracted once against the integer moment table, one
        sum per column monomial; every column is then a dot product with
        that contraction.  All sums are plain ints, and each entry becomes
        one rational num / (D d_r d_c)."""
        col_monos = {(i, j) for _, terms in cols for i, j, _ in terms}
        top = (max((i + j for _, terms in rows for i, j, _ in terms),
                   default=0)
               + max((i + j for i, j in col_monos), default=0) + dx + dy)
        d_w, table = self._moment_table(top)
        out = []
        for d_r, r_terms in rows:
            r_shifted = [(i + dx, j + dy, c) for i, j, c in r_terms]
            contracted = {
                (i2, j2): sum(c * table[i + i2][j + j2]
                              for i, j, c in r_shifted)
                for i2, j2 in col_monos
            }
            den_r = d_w * d_r
            out.append([
                _RAT(sum(c * contracted[(i, j)] for i, j, c in c_terms),
                     den_r * d_c)
                for d_c, c_terms in cols
            ])
        return out

    def moment_bilinear(self, p, q_poly, dx=0, dy=0):
        """<w, x^dx y^dy p(x,y) q_poly(x,y)> for two exact polynomials.

        The sum over term pairs of c_p c_q <w, x^(i_p+i_q+dx) y^(j_p+j_q+dy)>,
        computed from the moments alone with the integer kernel of the
        Gram blocks: both polynomials are scaled to integer coefficients,
        the sum runs in ints over the integer moment table, and the exact
        result is one rational."""
        if not (isinstance(dx, int) and isinstance(dy, int)
                and dx >= 0 and dy >= 0):
            raise ValueError("shift exponents must be nonnegative ints")
        raw = self._bilinear_raw([_integer_form(p)], [_integer_form(q_poly)],
                                 dx, dy)
        return _wrap(raw[0][0])

    # -- Gram blocks -------------------------------------------------------------

    def _gram_raw(self, n, h, dx=0, dy=0):
        """Raw dense rows <w, x^dx y^dy P_{n,m} P_{h,mp}>, rows m, columns
        mp, from moments only; built once per (n, h, dx, dy).  A vanishing
        diagonal of H_n (unshifted) raises before anything is stored."""
        key = (n, h, dx, dy)
        cached = self._gram_cache.get(key)
        if cached is not None:
            return cached
        rows = [self._P_int(n, m) for m in range(n + 1)]
        cols = [self._P_int(h, mp) for mp in range(h + 1)]
        raw = self._bilinear_raw(rows, cols, dx, dy)
        if n == h and not (dx or dy):
            for m in range(n + 1):
                if not raw[m][m]:
                    raise QuasiDefinitenessError(
                        self.label, {}, (n, m),
                        f"Gram diagonal <w, P_({n},{m})^2> vanishes")
        self._gram_cache[key] = raw
        return raw

    def gram_block(self, n, h):
        """Dense Gram block pairing total degrees n and h."""
        return GramBlock(n, h, tuple(tuple(_wrap(v) for v in row)
                                     for row in self._gram_raw(n, h)))

    def block_norm(self, n, m):
        """Closed-form squared norm of P_{n,m}: the ladder norm times the
        second-variable norm."""
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
        for j in range(_SYMMETRY_PRECHECK + 1):
            if q_norm._b_raw(j):
                raise ValueError(
                    f"case II requires a symmetric second-variable family; "
                    f"{q_norm.label} has b({j}) != 0")
    return BivariateSystem(rho, ladder_factory, q_norm, label)
