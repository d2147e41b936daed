"""Assembly of bivariate orthogonal systems from univariate ingredients.

A system is determined by three pieces of data:

* a radical factor rho(x): either a degree <= 1 polynomial r1 x + r0
  (case I) or the square root of a degree <= 2 polynomial
  s2 x^2 + s1 x + s0 (case II, which requires the second-variable family
  to be symmetric);
* a ladder of first-variable families, one per second-variable degree m,
  where step m+1 carries an extra rho^2 factor in its weight, connected
  to step m by the families' integer kernel (``univariate.adjacent_down``
  and ``adjacent_up`` are built on it);
* a second-variable family q.

The degree-(n, m) basis polynomial is

    P_{n,m}(x, y) = p_{n-m}^{(m)}(x) * rho(x)^m * q_m(y / rho(x)),

which is a genuine polynomial because q_m has the same parity as m in
case II.  Both cases are one construction: each power of rho is
rho^(e-2) rho^2, built in one loop and seeded with rho^1 where rho is a
polynomial, one kernel, ``_rho_moment``, gives <u, x^h rho^e> as two ints
to the ladder's weight chain and the moments <w, x^h y^k> (``_w_int``),
and a vanishing moment of q gives a vanishing bivariate moment.  The
module expands these basis polynomials and computes moments of the
induced bivariate functional; the Gram blocks, the independent ground
truth, come from those alone (``oracle.GramOracle``).

Everything is built fraction-free, in the manner of Bareiss elimination:
basis polynomials, ladder coefficients and powers of rho are each cached
once, as integer forms (integers over one least positive denominator).
The univariate moments are integer vectors over one denominator
(``RecurrenceFamily._moments_int``).

Every value a system returns -- a moment, a Gram entry, a block norm, a
coefficient of ``RhoSpec`` or of an expanded basis polynomial -- is a
backend rational (gmpy2.mpq or fractions.Fraction).
"""
from __future__ import annotations

import math
import weakref
from functools import cached_property
from numbers import Rational
from typing import NamedTuple

from .numerics import (
    QuasiDefinitenessError,
    SparsePoly2,
    _RAT,
    _as_raw_exact,
    _check_degrees,
    _check_index,
    _int_list,
    _rat,
)
from .univariate import RecurrenceFamily

_ZERO = _RAT(0)

# Largest j for which ``assemble`` reads b(j) eagerly where rho is not a
# polynomial.
_SYMMETRY_PRECHECK = 16


class RhoSpec(NamedTuple):
    """The radical factor.  s2, s1, s0 (coefficients of rho^2) are always
    populated; r1, r0 are None exactly where rho is not a polynomial.  Each
    is a backend rational."""

    r1: Rational | None
    r0: Rational | None
    s2: Rational
    s1: Rational
    s0: Rational

    @classmethod
    def linear(cls, r1, r0):
        """Case I: rho(x) = r1 x + r0 itself is a polynomial."""
        r1, r0 = map(_as_raw_exact, (r1, r0))
        if not r1 and not r0:
            raise ValueError("rho must not be identically zero")
        return cls(r1, r0, r1 * r1, 2 * r1 * r0, r0 * r0)

    @classmethod
    def sqrt_quadratic(cls, s2, s1, s0):
        """Case II: only rho(x)^2 = s2 x^2 + s1 x + s0 is a polynomial."""
        s2, s1, s0 = map(_as_raw_exact, (s2, s1, s0))
        if not (s2 or s1 or s0):
            raise ValueError("rho^2 must not be identically zero")
        return cls(None, None, s2, s1, s0)


class GramBlock(NamedTuple):
    """Dense block of bivariate inner products <w, P_{n,.} P_{h,.}>.

    entries[m][mp] pairs row degree (n, m) with column degree (h, mp).
    """

    n: int
    h: int
    entries: tuple


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
    doubles for the float checks and once as its monomials' flat indices
    for both relation checks; ladders, the Gram oracle, the matrices of
    ``ttr.first_ttr``/``second_ttr`` and the square roots of the block
    norms once each.  No connection triple is kept: ``second_ttr`` forms
    each entry once per degree from the ladder families' integer kernel.
    Not thread-safe.
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
        # Flat monomial indices of each basis polynomial, keyed (n, m), as
        # three lists in _P_int's term order; filled by verify._indices.
        self._index_cache = {}
        # Powers of rho as integer forms (d, [ints]), keyed by exponent:
        # rho^0, rho^2 and, where rho is a polynomial, rho^1.
        self._rho_pow = {0: (1, [1]),
                         2: _int_list([rho.s0, rho.s1, rho.s2])}
        if rho.r1 is not None:
            self._rho_pow[1] = _int_list([rho.r0, rho.r1])
        # (A, B, C) of the relation along axis at degree n, keyed (n, axis);
        # filled by ttr.first_ttr / second_ttr.
        self._ttr_cache = {}
        # Square roots of the block norms of degree n as doubles, keyed n;
        # filled by verify._norm_roots.
        self._root_cache = {}

    def __repr__(self):
        return f"BivariateSystem({self.label!r})"

    # -- the ladder of first-variable families -------------------------------

    def ladder(self, m):
        """First-variable family for second-variable degree m, with its
        norm normalization chained through the rho^2-moment recursion."""
        _check_index(m, "ladder index")
        while len(self._ladders) <= m:
            j = len(self._ladders)
            # h_0 of step 0; of step j, <u_{j-1}, rho^2>
            chain = (_rat(*self._rho_moment(self._ladders[j - 1], 0, 2))
                     if j else 1)
            fam = self._factory(j)
            if not isinstance(fam, RecurrenceFamily):
                raise TypeError(f"ladder_factory({j}) returned "
                                f"{type(fam).__name__}, not a "
                                f"RecurrenceFamily")
            if not chain:
                raise QuasiDefinitenessError(
                    f"{self.label}:{fam.label}", fam.params, j,
                    f"weight-chain value <u, rho^2> vanished at ladder "
                    f"step {j}")
            self._ladders.append(fam.with_h0(chain))
        return self._ladders[m]

    # -- powers of rho --------------------------------------------------------

    def _rho_pow_int(self, e):
        """rho(x)^e as (d, [ints]), constant term first.  The missing
        powers of e's parity are built upward in one loop, each as
        rho^(k-2) rho^2 from the highest cached one.  Where rho is not a
        polynomial, an odd e is a ValueError."""
        pows = self._rho_pow
        if e not in pows:
            if e % 2 and 1 not in pows:
                raise ValueError(f"rho^{e}: rho is not a polynomial, "
                                 f"only its even powers are")
            d_s, s = pows[2]
            k = max(k for k in pows if k % 2 == e % 2)
            while k < e:
                (d, u), k = pows[k], k + 2
                out = _product(u, s)
                pows[k] = (d * d_s, [out.get(i, 0) for i in
                                     range(len(u) + len(s) - 1)])
        return pows[e]

    def _rho_moment(self, fam, h, e):
        """<u, x^h rho^e> for the functional u of the family fam as (num,
        den), two ints: rho^e (``_rho_pow_int``) against the integer moments
        fam stores, read up to rho^e's last nonzero coefficient.  The one
        kernel of the weight chain and of the moments <w, x^h y^k>."""
        d_rho, rho_e = self._rho_pow_int(e)
        terms = [(h + d, rc) for d, rc in enumerate(rho_e) if rc]
        d_u, moms = fam._moments_int(terms[-1][0])
        return sum(rc * moms[j] for j, rc in terms), d_u * d_rho

    # -- basis polynomials ----------------------------------------------------

    def _P_int(self, n, m):
        """The (n, m) basis polynomial as (d, [(i, j, c)]), c over the least
        positive d; built once from the integer forms of q_m, p_{n-m}^{(m)}
        and rho^(m-j), and read by the relation checks and the Gram kernel."""
        _check_degrees(n, m)
        key = (n, m)
        cached = self._P_cache.get(key)
        if cached is not None:
            return cached
        d_q, q_coeffs = self.q._coeffs_int(m)
        d_p, p_coeffs = self.ladder(m)._coeffs_int(n - m)
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
        rounding), in its key order, and the largest |coefficient|; one
        beyond the doubles is an OverflowError naming (n, m)."""
        cached = self._float_cache.get((n, m))
        if cached is None:
            d, terms = self._P_int(n, m)
            try:
                coeffs = {(i, j): c / d for i, j, c in terms}
            except OverflowError:
                raise OverflowError(f"a coefficient of the ({n},{m}) basis "
                                    f"polynomial overflows a double") from None
            cached = (coeffs, max(map(abs, coeffs.values())))
            self._float_cache[(n, m)] = cached
        return cached

    def expand_P(self, n, m):
        """The (n, m) basis polynomial as an exact SparsePoly2, formed at
        this boundary from the cached integer form (``_P_int``)."""
        d, terms = self._P_int(n, m)
        return SparsePoly2({(i, j): _RAT(c, d) for i, j, c in terms})

    # -- moments of the bivariate functional ----------------------------------

    def w_moment(self, h, k):
        """Moment <w, x^h y^k> = <u_0, x^h rho^k> <v, t^k> of the bivariate
        functional, one rational formed from the integer moments each
        univariate family stores (``_w_int``); the shared zero where q's
        k-th moment vanishes, as at every odd k of a symmetric q."""
        _check_index(h, "moment exponent")
        _check_index(k, "moment exponent")
        return _rat(*self._w_int(h, k))

    def _w_int(self, h, k):
        """<w, x^h y^k> as (num, den), two ints, for ``w_moment`` and the
        Gram oracle: q's k-th integer moment is read first, and where it
        vanishes so does the moment, (0, 1)."""
        d_q, q_moms = self.q._moments_int(k)
        if not q_moms[k]:
            return 0, 1
        num, den = self._rho_moment(self.ladder(0), h, k)
        return num * q_moms[k], den * d_q

    # -- Gram blocks ----------------------------------------------------------

    @cached_property
    def _oracle(self):
        """The Gram oracle, made on first use from the moments (``_w_int``)
        and basis forms (``_P_int``) alone.  It reads them through a weak
        proxy, so no reference cycle keeps a dropped system alive, and it
        serves only while its system lives."""
        from .oracle import GramOracle
        me = weakref.proxy(self)
        return GramOracle(lambda h, k: me._w_int(h, k),
                          lambda n, m: me._P_int(n, m), self.label)

    def moment_bilinear(self, p, q_poly, dx=0, dy=0):
        """<w, x^dx y^dy p(x,y) q_poly(x,y)> for two exact polynomials,
        from the moments alone (``oracle.GramOracle.bilinear``)."""
        return self._oracle.bilinear(p, q_poly, dx, dy)

    def gram_block(self, n, h):
        """Dense Gram block pairing total degrees n and h."""
        return GramBlock(n, h, self._oracle.block(n, h))

    def block_norm(self, n, m):
        """Closed-form squared norm of P_{n,m}: the ladder norm times the
        second-variable norm."""
        _check_degrees(n, m)
        return self.ladder(m).norms(n - m) * self.q.norms(m)


def assemble(rho, ladder_factory, q, label="system"):
    """Build a BivariateSystem and run eager structural checks.

    Where rho is not a polynomial (``rho.r1 is None``, case II) the
    second-variable family must be symmetric.  The system's q then refuses
    a nonzero b(j) wherever b(j) is read -- by moments, basis polynomials
    and ``second_ttr`` alike -- with a ValueError that is never stored, so
    it repeats on every call; here b(j) is read eagerly for
    j <= ``_SYMMETRY_PRECHECK``.
    """
    if not isinstance(rho, RhoSpec):
        raise TypeError("rho must be a RhoSpec")
    if not isinstance(q, RecurrenceFamily):
        raise TypeError("q must be a RecurrenceFamily")
    if not callable(ladder_factory):
        raise TypeError("ladder_factory must map m to a RecurrenceFamily")
    q_norm = q.with_h0(1)
    if rho.r1 is None:
        q_b = q_norm.b

        def symmetric_b(j):
            if q_b(j):
                raise ValueError(
                    f"{label}: case II requires a symmetric second-variable "
                    f"family; {q.label} has b({j}) != 0")
            return _ZERO

        q_norm = RecurrenceFamily(q.label, q_norm._a_fn, symmetric_b,
                                  q_norm._c_fn, 1, q.params)
        for j in range(_SYMMETRY_PRECHECK + 1):
            q_norm.b(j)
    return BivariateSystem(rho, ladder_factory, q_norm, label)
