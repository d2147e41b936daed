"""Univariate orthogonal polynomial families in monic-free recurrence form.

A family is defined by the three-term recurrence

    x p_n(x) = a_n p_{n+1}(x) + b_n p_n(x) + c_n p_{n-1}(x),    p_0 = 1,

together with the squared norm h_0 of p_0.  From the recurrence alone the
module derives leading coefficients, norms, moments of the underlying
functional, dense coefficient lists and point evaluation -- all exactly,
each grown in integers and stored once: k_j, the prefix sum S_j = b_0 +
... + b_{j-1} (l_j = -k_j S_j) and h_j as int pairs (``_lead_int``,
``_h_int``), dense coefficients and moments fraction-free, one gcd per
step (a basis step over the lcm of the denominators of p_j and p_{j-1},
a moment step term by term; ``_coeffs_int``, ``_moments_int``).
``leading_coeffs``, ``norms``, ``coeffs`` and ``moments`` form rationals
only at that boundary.  The family constructors bring their parameters
over one denominator once, so each recurrence coefficient is one
rational of two integer products, reduced by one gcd.

It also computes the two connection triples between a family and the
companion family obtained by appending a factor rho(x)^2 to its weight:

    p_n       = delta_n q_n + epsilon_n q_{n-1} + zeta_n q_{n-2}
    rho^2 q_n = eta_n p_{n+2} + theta_n p_{n+1} + vartheta_n p_n

where q is the companion family normalized so that its h_0 equals the
rho^2-moment of the base family (``adjacent_down`` / ``adjacent_up``).
Both are built on one integer kernel (``RecurrenceFamily._down_int`` /
``_up_int``), which the y-relation builder reads too: each coefficient
is an integer numerator and denominator, a product of the stored pairs
of k_j, S_j and h_j and of s2 (no rationals are subtracted), and becomes
one rational, reduced by one gcd, only where it is returned.  No triple
is stored.

Every value returned -- recurrence, leading, dense and connection
coefficients, norms, moments, point values, parameters -- is a backend
rational (gmpy2.mpq or fractions.Fraction); inputs may be Scalars, ints
or rationals.  The one exception is private: ``_float_coeffs`` rounds the
recurrence, divided through by a(j), to doubles once per family, for the
point residual of the float relation check.

Division by zero anywhere in the lazy recurrence data signals that the
parameter choice does not define a quasi-definite functional; it surfaces
as a structured QuasiDefinitenessError, as does a zero a(j), which
stops the degree at j (one rule, ``RecurrenceFamily._advancing_a``).
"""
from __future__ import annotations

import math
from numbers import Rational
from typing import NamedTuple

from .numerics import (_RAT, QuasiDefinitenessError, _as_raw_exact,
                       _check_index, _int_list, _int_pair, _lowest, _rat)

_ONE = _RAT(1)
_ZERO = _RAT(0)


class LeadingPair(NamedTuple):
    """Leading coefficient k_n and subleading coefficient l_n of p_n."""

    k: Rational
    l: Rational


class AdjacentDown(NamedTuple):
    """Coefficients expanding a base polynomial in the companion family.

    epsilon is None for n < 1 and zeta is None for n < 2 (those terms do
    not occur).  delta is always nonzero.
    """

    delta: Rational
    epsilon: Rational | None
    zeta: Rational | None


class AdjacentUp(NamedTuple):
    """Coefficients expanding rho^2 times a companion polynomial in the base
    family.  vartheta is always nonzero; eta vanishes when rho is constant
    or linear (s2 = 0)."""

    eta: Rational
    theta: Rational
    vartheta: Rational


class RecurrenceFamily:
    """One univariate family, defined by recurrence closures.

    The closures a, b, c take an index n and return an exact value (an
    int, a rational or a Scalar), which is read once through
    ``_as_raw_exact``, so a float is a ModeError; c is only consulted for
    n >= 1.  Each recurrence coefficient and all derived data is computed
    lazily, once, and cached on the family, one store per quantity: k_j
    and S_j, and h_j, as int pairs grown from a, b and c alone (never
    from the dense coefficients or the moments); the moments as one
    integer vector over one denominator, and the moment recursion only
    its last integer vector.  A family is not thread-safe: share it between
    threads only behind a lock of your own.
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
        self._abc_cache = {"a": {}, "b": {}, "c": {}}
        # The one store of (k_j, S_j) per index j (see ``_lead_int``) and
        # of h_j (``_h_int``), each value a (num, den) int pair.
        self._lead_ints = [((1, 1), (0, 1))]
        self._h_ints = [_int_pair(h0_raw)]
        # Moments <u, x^j> as ints over their least common denominator,
        # (M, [ints]); the integer vector of the last x^j in the p-basis as
        # (d, [ints]); the recurrence coefficients as ints over one
        # denominator (see ``_int_coeffs``).
        self._moments = (int(h0_raw.denominator), [int(h0_raw.numerator)])
        self._mom_vec = (1, [1])
        self._mom_coeffs = (1, [], [], [])
        # The recurrence divided through by a(j), in doubles (see
        # ``_float_coeffs``).
        self._float_store = ([], [], [])
        self._coeff_cache = [(1, [1])]

    def __repr__(self):
        return f"RecurrenceFamily({self.label!r})"

    def with_h0(self, h0):
        """Same recurrence, different normalization of h_0."""
        return RecurrenceFamily(self.label, self._a_fn, self._b_fn,
                                self._c_fn, h0, self.params)

    # -- recurrence coefficients ---------------------------------------------

    def _fail(self, index, detail, cause=None):
        raise QuasiDefinitenessError(self.label, self.params, index,
                                     detail) from cause

    def _coefficient(self, which, fn, n):
        _check_index(n, "index")
        cache = self._abc_cache[which]
        value = cache.get(n)
        if value is None:
            # A failure is never stored, so it raises on every access.
            try:
                value = _as_raw_exact(fn(n))
            except ZeroDivisionError as exc:
                self._fail(n, f"recurrence coefficient {which}({n}) is "
                              f"undefined (zero denominator)", exc)
            cache[n] = value
        return value

    def a(self, n):
        return self._coefficient("a", self._a_fn, n)

    def b(self, n):
        return self._coefficient("b", self._b_fn, n)

    def c(self, n):
        # Only an int is compared; _coefficient refuses any other index.
        if type(n) is int and n < 1:
            raise ValueError("c(n) is only defined for n >= 1")
        return self._coefficient("c", self._c_fn, n)

    def _advancing_a(self, j):
        """a(j), which takes the degree from j to j + 1: the one rule that a
        zero there is a QuasiDefinitenessError."""
        a_j = self.a(j)
        if not a_j:
            self._fail(j, f"a({j}) = 0: degree cannot advance")
        return a_j

    @property
    def h0(self):
        return _RAT(*self._h_ints[0])

    # -- leading coefficients ------------------------------------------------

    def leading_coeffs(self, n):
        """k_n (always nonzero) and l_n = -k_n S_n, the top two
        coefficients of p_n, formed as rationals from ``_lead_int``."""
        _check_index(n, "degree")
        (kn, kd), (sn, sd) = self._lead_int(n)
        return LeadingPair(_RAT(kn, kd), _rat(-kn * sn, kd * sd))

    def _lead_int(self, n):
        """(k_n, S_n), the leading coefficient of p_n and the prefix sum
        S_n = b(0) + ... + b(n - 1), as two (num, den) int pairs in lowest
        terms over positive denominators: the one store of both.  Grown one
        index at a time from the int pairs of a(j) and b(j), read in that
        order: k_(j+1) = k_j / a(j), S_(j+1) = S_j + b(j)."""
        ints = self._lead_ints
        while len(ints) <= n:
            j = len(ints) - 1
            (kn, kd), (sn, sd) = ints[j]
            an, ad = _int_pair(self._advancing_a(j))
            bn, bd = _int_pair(self.b(j))
            ints.append((_lowest(kn * ad, kd * an),
                         _lowest(sn * bd + bn * sd, sd * bd)))
        return ints[n]

    # -- norms ---------------------------------------------------------------

    def norms(self, n):
        """Squared norm h_n of p_n (relative to the chosen h_0), formed as
        a rational from ``_h_int``."""
        _check_index(n, "degree")
        return _RAT(*self._h_int(n))

    def _h_int(self, n):
        """h_n as a (num, den) int pair in lowest terms over a positive
        denominator: the one store of the norms, h_0 first.  Grown one
        index at a time from the int pairs of c(j) and a(j - 1), read in
        that order: h_j = h_(j-1) c(j) / a(j - 1)."""
        ints = self._h_ints
        while len(ints) <= n:
            j = len(ints)
            cn, cd = _int_pair(self.c(j))
            an, ad = _int_pair(self._advancing_a(j - 1))
            if not cn:
                self._fail(j, f"norm ratio h({j})/h({j - 1}) = "
                              f"c({j})/a({j - 1}) is zero")
            hn, hd = ints[j - 1]
            ints.append(_lowest(hn * cn * ad, hd * cd * an))
        return ints[n]

    # -- moments --------------------------------------------------------------

    def _int_coeffs(self, top):
        """The recurrence coefficients a(i), b(i) (i <= top) and c(i)
        (1 <= i <= top), as lists of ints over one common denominator L:
        (L, A, B, C) with C[0] = 0.  Grown one index at a time and rescaled
        by the integer factor L_new / L_old when L grows."""
        L, A, B, C = self._mom_coeffs
        while len(A) <= top:
            i = len(A)
            # Read c, b, a in the order the recurrence first needs them.
            new = (self.c(i) if i else _ZERO, self.b(i), self.a(i))
            dens = [int(v.denominator) for v in new]
            grown = math.lcm(L, *dens)
            if grown != L:
                f = grown // L
                A, B, C = ([f * v for v in lst] for lst in (A, B, C))
                L = grown
            for lst, v, d in zip((C, B, A), new, dens):
                lst.append(int(v.numerator) * (L // d))
            self._mom_coeffs = (L, A, B, C)
        return self._mom_coeffs

    def _float_coeffs(self, top):
        """(A, B, C): 1/a(j), b(j)/a(j) and c(j)/a(j) for j <= top as
        doubles, C[0] = 0.0, so that p_{j+1}(x) = (A[j] x - B[j]) p_j(x) -
        C[j] p_{j-1}(x).  Each is a ratio of two ints of ``_int_coeffs``,
        correctly rounded once per family; one beyond the doubles is an
        OverflowError naming the family and j.  The one float datum of a
        family, read by the point residual of the float relation check."""
        store = self._float_store
        if len(store[0]) <= top:
            L, A, B, C = self._int_coeffs(top)
            for j in range(len(store[0]), top + 1):
                self._advancing_a(j)  # a zero a(j) is refused by name
                try:
                    new = (L / A[j], B[j] / A[j], C[j] / A[j])
                except OverflowError:
                    raise OverflowError(
                        f"{self.label}: a recurrence coefficient at index "
                        f"{j} overflows a double") from None
                for lst, v in zip(store, new):
                    lst.append(v)
        return store

    def _moments_int(self, j):
        """(M, ints): the moments <u, x^i> for i <= j (and any already
        formed) as ints over their least common denominator M, the one
        store of moments.  x^j in the p-basis is one integer vector over one
        denominator, advanced by x p_i = a_i p_{i+1} + b_i p_i + c_i p_{i-1}
        term by term over its nonzero entries; its constant entry times h_0
        is the moment.  The vector and the store advance together, after the
        step's coefficients are read."""
        while len(self._moments[1]) <= j:
            d, v = self._mom_vec
            top = len(v) - 1
            L, A, B, C = self._int_coeffs(top)
            new = [0] * (top + 2)
            for i, x in enumerate(v):
                if x:
                    new[i + 1] += A[i] * x
                    new[i] += B[i] * x
                    if i:
                        new[i - 1] += C[i] * x
            den = d * L
            g = math.gcd(den, *new)
            if g > 1:
                den //= g
                new = [x // g for x in new]
            # The moment new[0] h_0 / den in lowest terms, over the lcm M.
            hn, hd = self._h_ints[0]
            num, mden = _lowest(new[0] * hn, den * hd)
            M, ints = self._moments
            grown = math.lcm(M, mden)
            if grown != M:
                ints = [x * (grown // M) for x in ints]
            ints.append(num * (grown // mden))
            self._mom_vec = (den, new)
            self._moments = (grown, ints)
        return self._moments

    def moments(self, upto):
        """List of moments <u, x^j> for j = 0..upto (so moments(0) = [h_0]),
        formed as rationals from the integer store at this boundary."""
        _check_index(upto, "moment bound")
        M, ints = self._moments_int(upto)
        return [_rat(v, M) for v in ints[:upto + 1]]

    # -- dense coefficients / evaluation ------------------------------------

    def _coeffs_int(self, n):
        """p_n as (d, [ints]): dense coefficients, constant term first, over
        their least positive denominator d.  Each recurrence step runs in
        plain ints on the numerators and denominators of a_j, b_j, c_j, with
        one lcm and one gcd."""
        cache = self._coeff_cache
        while len(cache) <= n:
            j = len(cache) - 1
            d, cur = cache[j]
            a_j = self._advancing_a(j)
            b_j = self.b(j)
            c_j = self.c(j) if j else _ZERO
            d_prev, prev = cache[j - 1] if j else (1, ())
            # p_{j+1} = ((x - b_j) p_j - c_j p_{j-1}) / a_j with p_j = cur / d
            # and p_{j-1} = prev / d_prev, both over D = lcm(d, d_prev).
            (an, ad), (bn, bd), (cn, cd) = map(_int_pair, (a_j, b_j, c_j))
            D = math.lcm(d, d_prev)
            f = ad * cd * (D // d)
            f_x, f_b, f_c = f * bd, f * bn, ad * cn * bd * (D // d_prev)
            new = [0] + [f_x * v for v in cur]
            for k, poly in ((f_b, cur), (f_c, prev)):
                for i, v in enumerate(poly):
                    new[i] -= k * v
            den = an * bd * cd * D
            g = math.gcd(den, *new)
            if den < 0:
                g = -g
            cache.append((den // g, [v // g for v in new]))
        return cache[n]

    def coeffs(self, n):
        """Dense monomial coefficients of p_n, constant term first, formed
        as rationals from the cached integer form at this boundary."""
        _check_index(n, "degree")
        d, ints = self._coeffs_int(n)
        return [_RAT(c, d) for c in ints]

    def eval(self, n, x):
        """p_n(x) as a backend rational, x a Scalar, int or rational."""
        xv = _as_raw_exact(x)
        _check_index(n, "degree")
        p_prev = None
        p_cur = _ONE
        for j in range(n):
            a_j = self._advancing_a(j)
            p_next = (xv - self.b(j)) * p_cur
            if j >= 1:
                p_next = p_next - self.c(j) * p_prev
            p_prev, p_cur = p_cur, p_next / a_j
        return p_cur

    # -- the connection kernel ----------------------------------------------

    def _down_int(self, comp, s2, n):
        """(delta, epsilon, zeta) of ``adjacent_down`` from this family into
        comp, each as (num, den), two ints; None where the term does not
        occur; s2 is a (num, den) pair.  With primes on comp and
        l_j = -k_j S_j (``_lead_int``),

            delta_n   = k_n / k'_n,
            epsilon_n = delta_n (S'_n - S_n) / a'_{n-1}
                      = k_n (S'_n - S_n) / k'_{n-1},
            zeta_n    = s2 k'_{n-2} h_n / (k_n h'_{n-2}),

        each a product of the ints of its ingredients, reduced by no gcd."""
        (kn, kd), (sn, sd) = self._lead_int(n)
        (cn, cd), (tn, td) = comp._lead_int(n)
        delta = (kn * cd, kd * cn)
        if n < 1:
            return delta, None, None
        pn, pd = comp._lead_int(n - 1)[0]
        epsilon = (kn * (tn * sd - sn * td) * pd, kd * sd * td * pn)
        if n < 2:
            return delta, epsilon, None
        rn, rd = comp._lead_int(n - 2)[0]
        hn, hd = self._h_int(n)
        gn, gd = comp._h_int(n - 2)
        return delta, epsilon, (s2[0] * rn * hn * kd * gd,
                                s2[1] * rd * hd * kn * gn)

    def _up_int(self, comp, s2, n):
        """(eta, theta, vartheta) of ``adjacent_up`` from comp back into this
        family, each as (num, den), two ints; s2 is a (num, den) pair:

            eta_n      = s2 k'_n / k_{n+2},
            theta_n    = epsilon_{n+1} h'_n / h_{n+1},
            vartheta_n = delta_n h'_n / h_n,

        with delta and epsilon from ``_down_int`` at n and n + 1, read
        before the norms here, so a refusal names the first ingredient
        that the downward triples read."""
        cn, cd = comp._lead_int(n)[0]
        kn, kd = self._lead_int(n + 2)[0]
        dn, dd = self._down_int(comp, s2, n)[0]
        en, ed = self._down_int(comp, s2, n + 1)[1]
        hn, hd = comp._h_int(n)
        h1n, h1d = self._h_int(n + 1)
        h0n, h0d = self._h_int(n)
        return ((s2[0] * cn * kd, s2[1] * cd * kn),
                (en * hn * h1d, ed * hd * h1n),
                (dn * hn * h0d, dd * hd * h0n))


# -- family constructors ----------------------------------------------------


def _jacobi_raw_closures(alpha, beta, shifted=False):
    """a, b, c of the Jacobi-type recurrence on [-1, 1], or on [0, 1] if
    shifted (a / 2, (b + 1) / 2, c / 2), each value one rational formed
    from ints: alpha = A / d, beta = B / d and alpha + beta = S / d."""
    d, (A, B) = _int_list((alpha, beta))
    S = A + B
    k, t = (2, 1) if shifted else (1, 0)

    def a(n):
        if n == 0:
            return _RAT(2 * d, k * (S + 2 * d))
        m = 2 * n * d + S
        return _RAT(2 * (n + 1) * (n * d + S + d) * d,
                    k * (m + d) * (m + 2 * d))

    def b(n):
        if n == 0:
            num, den = B - A, S + 2 * d
        else:
            m = 2 * n * d + S
            num, den = B * B - A * A, m * (m + 2 * d)
        return _RAT(num + t * den, k * den)

    def c(n):
        m = 2 * n * d + S
        return _RAT(2 * (n * d + A) * (n * d + B), k * m * (m + d))

    return a, b, c


def jacobi_std(alpha, beta):
    """Jacobi-type family on [-1, 1], weight (1-x)^alpha (1+x)^beta."""
    al, be = map(_as_raw_exact, (alpha, beta))
    return RecurrenceFamily(
        f"jacobi({al},{be})", *_jacobi_raw_closures(al, be),
        params={"alpha": al, "beta": be})


def jacobi_shift(alpha, beta):
    """Jacobi-type family on the unit interval, weight (1-x)^alpha x^beta."""
    al, be = map(_as_raw_exact, (alpha, beta))
    return RecurrenceFamily(
        f"jacobi01({al},{be})", *_jacobi_raw_closures(al, be, True),
        params={"alpha": al, "beta": be})


def laguerre(alpha):
    """Laguerre-type family, weight x^alpha e^{-x} on the half line."""
    al = _as_raw_exact(alpha)
    d, (A,) = _int_list((al,))
    return RecurrenceFamily(
        f"laguerre({al})",
        lambda n: _RAT(-n - 1),
        lambda n: _RAT(2 * n * d + A + d, d),
        lambda n: _RAT(-n * d - A, d),
        params={"alpha": al})


def bessel(a, b):
    """Bessel-type family (quasi-definite, never positive-definite).

    Normalized so every polynomial takes the value 1 at the origin.
    Requires b != 0; degenerate values of a surface lazily.
    """
    av, bv = map(_as_raw_exact, (a, b))
    if not bv:
        raise ValueError("bessel scale parameter b must be nonzero")
    # a = A / d and b = B / d, so each value is one rational of ints.
    d, (A, B) = _int_list((av, bv))

    def a_fn(n):
        if n == 0:
            return _RAT(B, A)
        m = 2 * n * d + A
        return _RAT((n * d + A - d) * B, (m - d) * m)

    def b_fn(n):
        if n == 0:
            return _RAT(-B, A)
        m = 2 * n * d + A
        return _RAT(-(A - 2 * d) * B, (m - 2 * d) * m)

    def c_fn(n):
        m = 2 * n * d + A
        return _RAT(-n * B * d, (m - 2 * d) * (m - d))

    return RecurrenceFamily(
        f"bessel({av},{bv})", a_fn, b_fn, c_fn,
        params={"a": av, "b": bv})


# -- adjacent-family connections ----------------------------------------------


def adjacent_down(fam_m, fam_m1, s2, n):
    """Triple (delta, epsilon, zeta) expanding fam_m's degree-n polynomial
    in fam_m1, the companion family whose weight carries an extra rho^2.

    s2 is the leading coefficient of rho^2; fam_m1 must be normalized by
    the rho^2-moment chain for the norm-dependent zeta to be meaningful.
    Each entry is one rational of the connection kernel's integer pair
    (``RecurrenceFamily._down_int``); no triple is stored.
    """
    _check_index(n, "index")
    return AdjacentDown(*_rationals(
        fam_m._down_int(fam_m1, _int_pair(_as_raw_exact(s2)), n)))


def adjacent_up(fam_m, fam_m1, s2, n):
    """Triple (eta, theta, vartheta) expanding rho^2 times fam_m1's degree-n
    polynomial back in fam_m.  Defined for every n >= 0; each entry is one
    rational of the connection kernel's integer pair
    (``RecurrenceFamily._up_int``)."""
    _check_index(n, "index")
    return AdjacentUp(*_rationals(
        fam_m._up_int(fam_m1, _int_pair(_as_raw_exact(s2)), n)))


def _rationals(pairs):
    """The kernel's (num, den) pairs as rationals; None stays None."""
    return [None if p is None else _rat(*p) for p in pairs]
