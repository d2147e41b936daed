"""Univariate orthogonal polynomial families in monic-free recurrence form.

A family is defined by the three-term recurrence

    x p_n(x) = a_n p_{n+1}(x) + b_n p_n(x) + c_n p_{n-1}(x),    p_0 = 1,

together with the squared norm h_0 of p_0.  From the recurrence alone the
module derives leading coefficients, norms, moments of the underlying
functional, dense coefficient lists and point evaluation -- all exactly.

It also computes the two connection triples between a family and the
companion family obtained by appending a factor rho(x)^2 to its weight:

    p_n       = delta_n q_n + epsilon_n q_{n-1} + zeta_n q_{n-2}
    rho^2 q_n = eta_n p_{n+2} + theta_n p_{n+1} + vartheta_n p_n

where q is the companion family normalized so that its h_0 equals the
rho^2-moment of the base family (``adjacent_down`` / ``adjacent_up``).

Division by zero anywhere in the lazy recurrence data signals that the
parameter choice does not define a quasi-definite functional; it surfaces
as a structured QuasiDefinitenessError.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .numerics import (
    Scalar,
    _RAT,
    _as_raw_exact,
    _int_list,
    _wrap,
)

_ONE = _RAT(1)
_ZERO = _RAT(0)


class QuasiDefinitenessError(ArithmeticError):
    """A family's recurrence data degenerates at some index.

    Carries the family label, its parameters, the offending index and a
    human-readable detail string.
    """

    def __init__(self, label, params, index, detail):
        self.label = label
        self.params = dict(params or {})
        self.index = index
        self.detail = detail
        ptxt = ", ".join(f"{k}={v}" for k, v in self.params.items())
        suffix = f" [params {ptxt}]" if ptxt else ""
        super().__init__(f"{label}: {detail}{suffix}")


@dataclass(frozen=True)
class LeadingPair:
    """Leading coefficient k_n and subleading coefficient l_n of p_n."""

    k: Scalar
    l: Scalar


@dataclass(frozen=True)
class AdjacentDown:
    """Coefficients expanding a base polynomial in the companion family.

    epsilon is None for n < 1 and zeta is None for n < 2 (those terms do
    not occur).  delta is always nonzero.
    """

    delta: Scalar
    epsilon: Scalar | None
    zeta: Scalar | None


@dataclass(frozen=True)
class AdjacentUp:
    """Coefficients expanding rho^2 times a companion polynomial in the base
    family.  vartheta is always nonzero; eta vanishes when rho is constant
    or linear (s2 = 0)."""

    eta: Scalar
    theta: Scalar
    vartheta: Scalar


class RecurrenceFamily:
    """One univariate family, defined by recurrence closures.

    The closures a, b, c take an index n and return a raw exact rational;
    c is only consulted for n >= 1.  Each recurrence coefficient and all
    derived data (leading coefficients, norms, moments, dense coefficients)
    is computed lazily, once, and cached on the family.  A family is not
    thread-safe: share it between threads only behind a lock of your own.
    """

    def __init__(self, label, a, b, c, h0=1, params=None):
        self.label = label
        self.params = dict(params or {})
        self._a_fn = a
        self._b_fn = b
        self._c_fn = c
        h0_raw = _as_raw_exact(h0)
        if not h0_raw:
            raise ValueError(f"{label}: h0 must be nonzero")
        self._h0 = h0_raw
        self._abc_cache = {"a": {}, "b": {}, "c": {}}
        self._kl_cache = [(_ONE, _ZERO)]
        self._h_cache = [h0_raw]
        self._mom_cache = [[_ONE]]
        self._coeff_cache = [(1, [1])]

    def __repr__(self):
        return f"RecurrenceFamily({self.label!r})"

    def with_h0(self, h0):
        """Same recurrence, different normalization of h_0."""
        return RecurrenceFamily(self.label, self._a_fn, self._b_fn,
                                self._c_fn, h0, self.params)

    # -- guarded raw recurrence access -------------------------------------

    def _fail(self, index, detail, cause=None):
        raise QuasiDefinitenessError(self.label, self.params, index,
                                     detail) from cause

    def _raw(self, which, fn, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError(f"index must be a nonnegative int, got {n!r}")
        cache = self._abc_cache[which]
        value = cache.get(n)
        if value is None:
            # A failure is never stored, so it raises on every access.
            try:
                value = fn(n)
            except ZeroDivisionError as exc:
                self._fail(n, f"recurrence coefficient {which}({n}) is "
                              f"undefined (zero denominator)", exc)
            cache[n] = value
        return value

    def _a_raw(self, n):
        return self._raw("a", self._a_fn, n)

    def _b_raw(self, n):
        return self._raw("b", self._b_fn, n)

    def _c_raw(self, n):
        if n < 1:
            raise ValueError("c(n) is only defined for n >= 1")
        return self._raw("c", self._c_fn, n)

    # -- public recurrence coefficients ------------------------------------

    def a(self, n):
        return _wrap(self._a_raw(n))

    def b(self, n):
        return _wrap(self._b_raw(n))

    def c(self, n):
        return _wrap(self._c_raw(n))

    @property
    def h0(self):
        return _wrap(self._h0)

    # -- leading coefficients ------------------------------------------------

    def _kl_raw(self, n):
        cache = self._kl_cache
        while len(cache) <= n:
            j = len(cache) - 1
            k, l = cache[j]
            a_j = self._a_raw(j)
            if not a_j:
                self._fail(j, f"a({j}) = 0: degree cannot advance")
            cache.append((k / a_j, (l - self._b_raw(j) * k) / a_j))
        return cache[n]

    def leading_coeffs(self, n):
        """k_n (always nonzero) and l_n, the top two coefficients of p_n."""
        k, l = self._kl_raw(n)
        return LeadingPair(_wrap(k), _wrap(l))

    # -- norms ---------------------------------------------------------------

    def _h_raw(self, n):
        cache = self._h_cache
        while len(cache) <= n:
            j = len(cache)
            ratio = self._c_raw(j) / self._a_raw(j - 1)
            if not ratio:
                self._fail(j, f"norm ratio h({j})/h({j - 1}) = "
                              f"c({j})/a({j - 1}) is zero")
            cache.append(cache[j - 1] * ratio)
        return cache[n]

    def norms(self, n):
        """Squared norm h_n of p_n (relative to the chosen h_0)."""
        return _wrap(self._h_raw(n))

    # -- moments ---------------------------------------------------------------

    def _moment_raw(self, j):
        cache = self._mom_cache
        while len(cache) <= j:
            v = cache[-1]
            top = len(v) - 1
            new = []
            for i in range(top + 2):
                acc = _ZERO
                if 1 <= i <= top + 1:
                    acc = acc + self._a_raw(i - 1) * v[i - 1]
                if i <= top:
                    acc = acc + self._b_raw(i) * v[i]
                if i + 1 <= top:
                    acc = acc + self._c_raw(i + 1) * v[i + 1]
                new.append(acc)
            cache.append(new)
        return cache[j][0] * self._h0

    def moments(self, upto):
        """List of moments <u, x^j> for j = 0..upto (so moments(0) = [h_0])."""
        if not isinstance(upto, int) or upto < 0:
            raise ValueError("moment bound must be a nonnegative int")
        self._moment_raw(upto)
        return [_wrap(self._moment_raw(j)) for j in range(upto + 1)]

    # -- dense coefficients / evaluation ------------------------------------

    def _coeffs_int(self, n):
        """p_n as (d, [ints]): dense coefficients, constant term first, over
        their least positive denominator d.  Only the three multipliers of
        each recurrence step are rational; the coefficients stay ints."""
        cache = self._coeff_cache
        while len(cache) <= n:
            j = len(cache) - 1
            d, cur = cache[j]
            a_j = self._a_raw(j)
            if not a_j:
                self._fail(j, f"a({j}) = 0: degree cannot advance")
            # p_{j+1} = ((x - b_j) p_j - c_j p_{j-1}) / a_j over one lcm.
            inv = _ONE / (a_j * d)
            mults = [inv, -self._b_raw(j) * inv]
            prev = ()
            if j >= 1:
                d_prev, prev = cache[j - 1]
                mults.append(-self._c_raw(j) * inv * d / d_prev)
            den, factors = _int_list(mults)
            new = [0] + [factors[0] * v for v in cur]
            for f, poly in zip(factors[1:], (cur, prev)):
                for i, v in enumerate(poly):
                    new[i] += f * v
            g = math.gcd(den, *new)
            cache.append((den // g, [v // g for v in new]))
        return cache[n]

    def coeffs(self, n):
        """Dense monomial coefficients of p_n, constant term first, formed
        as rationals from the cached integer form at this boundary."""
        d, ints = self._coeffs_int(n)
        return [_wrap(_RAT(c, d)) for c in ints]

    def eval(self, n, x):
        """Evaluate p_n exactly at x (a Scalar, int or rational)."""
        xv = _as_raw_exact(x)
        if not isinstance(n, int) or n < 0:
            raise ValueError("degree must be a nonnegative int")
        p_prev = None
        p_cur = _ONE
        for j in range(n):
            a_j = self._a_raw(j)
            if not a_j:
                self._fail(j, f"a({j}) = 0: degree cannot advance")
            p_next = (xv - self._b_raw(j)) * p_cur
            if j >= 1:
                p_next = p_next - self._c_raw(j) * p_prev
            p_prev, p_cur = p_cur, p_next / a_j
        return _wrap(p_cur)


# -- family constructors ----------------------------------------------------


def _jacobi_raw_closures(alpha, beta):
    al, be = alpha, beta
    s = al + be

    def a(n):
        if n == 0:
            return 2 / (s + 2)
        return 2 * (n + 1) * (n + s + 1) / ((2 * n + s + 1) * (2 * n + s + 2))

    def b(n):
        if n == 0:
            return (be - al) / (s + 2)
        return (be * be - al * al) / ((2 * n + s) * (2 * n + s + 2))

    def c(n):
        return 2 * (n + al) * (n + be) / ((2 * n + s) * (2 * n + s + 1))

    return a, b, c


def jacobi_std(alpha, beta):
    """Jacobi-type family on the symmetric interval, weight (1-x)^alpha (1+x)^beta."""
    al = _as_raw_exact(alpha)
    be = _as_raw_exact(beta)
    a, b, c = _jacobi_raw_closures(al, be)
    return RecurrenceFamily(
        f"jacobi({al},{be})", a, b, c,
        params={"alpha": _wrap(al), "beta": _wrap(be)})


def jacobi_shift(alpha, beta):
    """Jacobi-type family on the unit interval, weight (1-x)^alpha x^beta."""
    al = _as_raw_exact(alpha)
    be = _as_raw_exact(beta)
    a, b, c = _jacobi_raw_closures(al, be)
    return RecurrenceFamily(
        f"jacobi01({al},{be})",
        lambda n: a(n) / 2,
        lambda n: (b(n) + 1) / 2,
        lambda n: c(n) / 2,
        params={"alpha": _wrap(al), "beta": _wrap(be)})


def laguerre(alpha):
    """Laguerre-type family, weight x^alpha e^{-x} on the half line."""
    al = _as_raw_exact(alpha)
    return RecurrenceFamily(
        f"laguerre({al})",
        lambda n: _RAT(-(n + 1)),
        lambda n: 2 * n + al + 1,
        lambda n: -(n + al),
        params={"alpha": _wrap(al)})


def bessel(a, b):
    """Bessel-type family (quasi-definite, never positive-definite).

    Normalized so every polynomial takes the value 1 at the origin.
    Requires b != 0; degenerate values of a surface lazily.
    """
    av = _as_raw_exact(a)
    bv = _as_raw_exact(b)
    if not bv:
        raise ValueError("bessel scale parameter b must be nonzero")

    def a_fn(n):
        if n == 0:
            return bv / av
        return (n + av - 1) * bv / ((2 * n + av - 1) * (2 * n + av))

    def b_fn(n):
        if n == 0:
            return -bv / av
        return -(av - 2) * bv / ((2 * n + av - 2) * (2 * n + av))

    def c_fn(n):
        return -n * bv / ((2 * n + av - 2) * (2 * n + av - 1))

    return RecurrenceFamily(
        f"bessel({av},{bv})", a_fn, b_fn, c_fn,
        params={"a": _wrap(av), "b": _wrap(bv)})


# -- adjacent-family connections ----------------------------------------------


def _down_raw(fam_m, fam_m1, s2, n):
    """Raw (delta, epsilon, zeta) of ``adjacent_down``; s2 is a raw
    rational, and epsilon (n < 1) and zeta (n < 2) are None."""
    k_m_n, l_m_n = fam_m._kl_raw(n)
    k_m1_n, l_m1_n = fam_m1._kl_raw(n)
    delta = k_m_n / k_m1_n
    epsilon = None
    zeta = None
    if n >= 1:
        k_m1_prev = fam_m1._kl_raw(n - 1)[0]
        epsilon = (l_m_n - delta * l_m1_n) / k_m1_prev
    if n >= 2:
        zeta = (s2 * fam_m1._kl_raw(n - 2)[0] / k_m_n
                * fam_m._h_raw(n) / fam_m1._h_raw(n - 2))
    return delta, epsilon, zeta


def _up_raw(fam_m, fam_m1, s2, n):
    """Raw (eta, theta, vartheta) of ``adjacent_up``; s2 is a raw
    rational."""
    eta = s2 * fam_m1._kl_raw(n)[0] / fam_m._kl_raw(n + 2)[0]
    delta = _down_raw(fam_m, fam_m1, s2, n)[0]
    epsilon_next = _down_raw(fam_m, fam_m1, s2, n + 1)[1]
    h_m1_n = fam_m1._h_raw(n)
    theta = epsilon_next * h_m1_n / fam_m._h_raw(n + 1)
    vartheta = delta * h_m1_n / fam_m._h_raw(n)
    return eta, theta, vartheta


def adjacent_down(fam_m, fam_m1, s2, n):
    """Triple (delta, epsilon, zeta) expanding fam_m's degree-n polynomial
    in fam_m1, the companion family whose weight carries an extra rho^2.

    s2 is the leading coefficient of rho^2; fam_m1 must be normalized by
    the rho^2-moment chain for the norm-dependent zeta to be meaningful.
    """
    if not isinstance(n, int) or n < 0:
        raise ValueError("index must be a nonnegative int")
    delta, epsilon, zeta = _down_raw(fam_m, fam_m1, _as_raw_exact(s2), n)
    return AdjacentDown(
        _wrap(delta),
        None if epsilon is None else _wrap(epsilon),
        None if zeta is None else _wrap(zeta),
    )


def adjacent_up(fam_m, fam_m1, s2, n):
    """Triple (eta, theta, vartheta) expanding rho^2 times fam_m1's degree-n
    polynomial back in fam_m.  Defined for every n >= 0."""
    if not isinstance(n, int) or n < 0:
        raise ValueError("index must be a nonnegative int")
    eta, theta, vartheta = _up_raw(fam_m, fam_m1, _as_raw_exact(s2), n)
    return AdjacentUp(_wrap(eta), _wrap(theta), _wrap(vartheta))
