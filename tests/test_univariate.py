"""Univariate recurrence families and adjacent-family connections."""
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ortho2d import (
    ModeError,
    QuasiDefinitenessError,
    RecurrenceFamily,
    Scalar,
    adjacent_down,
    adjacent_up,
    bessel,
    catalog_id,
    jacobi_shift,
    jacobi_std,
    laguerre,
    make_system,
)
from ortho2d.catalog import _scaled_laguerre
from ortho2d.numerics import _RAT

q = Scalar.exact


# -- test-local oracles ----------------------------------------------------


def inner_product(fam, p_coeffs, q_coeffs):
    """<u, p q> computed from the family's moments alone."""
    top = len(p_coeffs) + len(q_coeffs) - 2
    mu = fam.moments(max(top, 0))
    acc = q(0)
    for i, a in enumerate(p_coeffs):
        for j, b in enumerate(q_coeffs):
            acc = acc + a * b * mu[i + j]
    return acc


def polynomial_product(u, v):
    out = [q(0)] * (len(u) + len(v) - 1)
    for i, a in enumerate(u):
        for j, b in enumerate(v):
            out[i + j] = out[i + j] + a * b
    return out


def assert_orthogonal_family(fam, upto):
    """Moment-level Gram check: <p_i, p_j> = h_i [i == j]."""
    coeffs = [fam.coeffs(n) for n in range(upto + 1)]
    for i in range(upto + 1):
        for j in range(i + 1):
            got = inner_product(fam, coeffs[i], coeffs[j])
            want = fam.norms(i) if i == j else q(0)
            assert got == want, (fam.label, i, j, str(got), str(want))


# -- fixed known values ----------------------------------------------------


def test_legendre_recurrence_values():
    leg = jacobi_std(0, 0)
    assert leg.a(0) == q(1)
    assert leg.a(2) == q("3/5")
    assert leg.c(2) == q("2/5")
    for n in range(6):
        assert leg.b(n) == q(0)
    assert leg.coeffs(2) == [q("-1/2"), q(0), q("3/2")]
    assert leg.norms(1) == q("1/3")
    assert leg.moments(4) == [q(1), q(0), q("1/3"), q(0), q("1/5")]


def test_jacobi_nonsymmetric_values():
    fam = jacobi_std(1, 0)
    assert fam.b(1) == q("-1/15")
    assert fam.b(0) == q("-1/3")


def test_jacobi_shift_values():
    fam = jacobi_shift(0, 0)
    assert fam.a(0) == q("1/2")
    assert fam.b(0) == q("1/2")
    assert fam.c(1) == q("1/6")
    mu = fam.moments(5)
    for k in range(6):
        assert mu[k] == q(1) / (k + 1)


def test_laguerre_values():
    fam = laguerre(0)
    assert fam.a(0) == q(-1) and fam.a(3) == q(-4)
    assert fam.b(0) == q(1) and fam.b(2) == q(5)
    assert fam.c(3) == q(-3)
    assert laguerre("1/2").b(2) == q("11/2")
    mu = fam.moments(5)
    import math

    for k in range(6):
        assert mu[k] == q(math.factorial(k))


def test_bessel_values():
    fam = bessel(3, 1)
    assert fam.c(1) == q("-1/12")
    assert fam.a(0) == q("1/3")
    assert fam.b(0) == q("-1/3")
    # a = 2 kills the generic b numerator for n >= 1 but not at n = 0
    fam2 = bessel(2, 1)
    assert fam2.b(0) == q("-1/2")
    assert fam2.b(1) == q(0) and fam2.b(2) == q(0)
    with pytest.raises(ValueError):
        bessel(3, 0)


def test_c_at_zero_is_an_error():
    leg = jacobi_std(0, 0)
    for _ in range(2):
        with pytest.raises(ValueError):
            leg.c(0)


def test_c_refuses_a_non_int_index_with_a_value_error():
    # c compares only an int with 1; every other index meets the one
    # index rule, as a(n) and b(n) do, before any comparison.
    leg = jacobi_std(0, 0)
    assert leg.c(2) == q("2/5")
    for bad in ("2", None, True, 2.0, q(2)):
        for method in (leg.a, leg.b, leg.c):
            with pytest.raises(ValueError, match="index must be"):
                method(bad)
    for bad in (0, -1):
        with pytest.raises(ValueError, match=r"c\(n\) is only defined"):
            leg.c(bad)


def test_leading_coefficients():
    leg = jacobi_std(0, 0)
    assert leg.leading_coeffs(1).k == q(1)
    assert leg.leading_coeffs(2).k == q("3/2")
    assert leg.leading_coeffs(2).l == q(0)
    bes = bessel(3, 1)
    # k_n = (n+a-1)_n / b^n, l_n = n (n+a-1)_{n-1} / b^{n-1} for a = 3, b = 1
    assert bes.leading_coeffs(1).k == q(3)
    assert bes.leading_coeffs(2).k == q(20)
    assert bes.leading_coeffs(1).l == q(1)
    assert bes.leading_coeffs(2).l == q(8)


def test_norm_ratios_bessel():
    a_, b_ = q(5), q("2/5")
    fam = bessel(a_, b_)
    assert fam.norms(1) / fam.norms(0) == -1 / (a_ + 1)
    for n in range(2, 7):
        want = -n * (2 * n + a_ - 3) / ((2 * n + a_ - 1) * (n + a_ - 2))
        assert fam.norms(n) / fam.norms(n - 1) == want


def test_with_h0_scales_norms_not_polynomials():
    leg = jacobi_std(0, 0)
    scaled = leg.with_h0("2/3")
    assert scaled.norms(0) == q("2/3")
    assert scaled.norms(2) == leg.norms(2) * q("2/3")
    assert scaled.coeffs(3) == leg.coeffs(3)
    assert scaled.moments(3) == [m * q("2/3") for m in leg.moments(3)]
    with pytest.raises(ValueError):
        leg.with_h0(0)


def test_eval_exact_and_float():
    leg = jacobi_std(0, 0)
    assert leg.eval(2, q("1/2")) == q("-1/8")
    assert leg.eval(3, q(1)) == q(1)
    # a float point is refused, not evaluated in floating point
    with pytest.raises(ModeError):
        leg.eval(2, 0.5)


def test_quasi_definiteness_error_paths():
    # each refusal repeats on a second call: a failure stores nothing
    degenerate = jacobi_std(-1, -1)  # a(0) divides by alpha+beta+2 = 0
    for method in (degenerate.coeffs, degenerate.leading_coeffs):
        for _ in range(2):
            with pytest.raises(QuasiDefinitenessError) as info:
                method(1)
            assert "a(0)" in str(info.value) and info.value.index == 0
    # a family whose c vanishes: norms must refuse to continue
    flat = RecurrenceFamily("flat", lambda n: 1, lambda n: 0, lambda n: 0)
    for _ in range(2):
        with pytest.raises(QuasiDefinitenessError, match=(
                r"^flat: norm ratio h\(1\)/h\(0\) = c\(1\)/a\(0\) is zero$")):
            flat.norms(1)
    assert flat.norms(0) == 1
    # the one store of k_j and S_j, and the one of h_j (h_0 first), keep
    # nothing past the refused index
    assert degenerate._lead_ints == [((1, 1), (0, 1))]
    assert flat._h_ints == [(1, 1)]


def test_recurrence_failures_are_not_cached():
    # a(2) = (2 + a - 1) b / ((4 + a - 1)(4 + a)) divides by zero at a = -3
    fam = bessel(-3, 1)
    assert fam.a(1) == q("-3/2")
    for _ in range(2):
        with pytest.raises(QuasiDefinitenessError, match=r"a\(2\)"):
            fam.a(2)


def test_recurrence_index_is_validated_after_caching():
    leg = jacobi_std(0, 0)
    assert leg.a(1) == q("2/3")
    with pytest.raises(ValueError):
        leg.a(1.0)
    with pytest.raises(ValueError):
        leg.b(-1)


def test_public_degree_is_validated_after_caching():
    # a negative degree must not read a cache from its end
    fam = jacobi_std(1, 2)
    assert fam.norms(5) == q("9/14")
    for method in (fam.norms, fam.leading_coeffs, fam.coeffs):
        for bad in (-1, 1.0, True):
            with pytest.raises(ValueError, match="degree"):
                method(bad)


def test_zero_a_raises_on_every_coeffs_call():
    stall = RecurrenceFamily("stall", lambda n: 0 if n == 1 else 1,
                             lambda n: 0, lambda n: 1)
    assert stall.coeffs(1) == [q(0), q(1)]
    for _ in range(2):
        with pytest.raises(QuasiDefinitenessError, match=r"a\(1\) = 0"):
            stall.coeffs(2)


def test_norms_refuse_a_zero_a_with_a_quasi_definiteness_error():
    # h_j = h_(j-1) c(j) / a(j - 1): a(j - 1) = 0 is the rule that the
    # degree cannot advance, not a bare ZeroDivisionError
    flat = RecurrenceFamily("t", lambda n: Fraction(0), lambda n: Fraction(0),
                            lambda n: Fraction(1))
    stall = RecurrenceFamily("stall", lambda n: Fraction(n != 1),
                             lambda n: Fraction(0), lambda n: Fraction(1))
    assert stall.norms(1) == 1
    for fam, n, j in ((flat, 1, 0), (stall, 2, 1)):
        for _ in range(2):
            with pytest.raises(QuasiDefinitenessError, match=(
                    rf"^{fam.label}: a\({j}\) = 0: degree cannot advance$")):
                fam.norms(n)
        assert len(fam._h_ints) == n
    # c(j) is read before a(j - 1), so its own failure is the one reported
    broken_c = RecurrenceFamily("c", lambda n: Fraction(0),
                                lambda n: Fraction(0),
                                lambda n: 1 / Fraction(0))
    for _ in range(2):
        with pytest.raises(QuasiDefinitenessError,
                           match=r"c\(1\) is undefined"):
            broken_c.norms(1)


def test_float_coeffs_are_the_recurrence_divided_by_a_rounded_once():
    fam = jacobi_std(q("1/2"), q("1/3"))
    A, B, C = fam._float_coeffs(6)
    for j in range(7):
        a, b = fam.a(j), fam.b(j)
        c = fam.c(j) if j else 0
        assert (A[j], B[j], C[j]) == (float(1 / a), float(b / a),
                                      float(c / a))
    assert fam._float_coeffs(3)[0] is A  # one store, grown on demand
    # a zero a(j) is the usual refusal; a ratio beyond the doubles is named
    stall = RecurrenceFamily("stall", lambda n: Fraction(n != 1),
                             lambda n: Fraction(0), lambda n: Fraction(1))
    tiny = RecurrenceFamily("tiny", lambda n: Fraction(1, 10 ** 400),
                            lambda n: Fraction(0), lambda n: Fraction(1))
    for _ in range(2):
        with pytest.raises(QuasiDefinitenessError, match=r"a\(1\) = 0"):
            stall._float_coeffs(1)
        with pytest.raises(OverflowError, match=r"^tiny: a recurrence "
                           r"coefficient at index 0 overflows a double$"):
            tiny._float_coeffs(0)


# -- dense coefficients against a plain Fraction recurrence ----------------

# One parameter set per catalog family; bessel-laguerre's q and ladders
# carry negative a, b and c.
CATALOG_SETS = [
    ("disk", {"mu": "1/2"}),
    ("biangle", {"alpha": "1", "beta": "1/2"}),
    ("simplex", {"alpha": "0", "beta": "1", "gamma": "2"}),
    ("square", {"alpha": "1", "beta": "2", "gamma": "0", "delta": "1/2"}),
    ("laguerre-jacobi", {"alpha": "1", "beta": "1/2"}),
    ("bessel-laguerre", {"g": "5", "gamma": "2/5"}),
]


def reference_coeffs(fam, top):
    """p_0..p_top from x p_j = a_j p_{j+1} + b_j p_j + c_j p_{j-1}, one
    Fraction at a time."""
    polys = [[Fraction(1)]]
    for j in range(top):
        cur = polys[j]
        new = [Fraction(0)] + cur
        for i, v in enumerate(cur):
            new[i] -= Fraction(fam.b(j)) * v
        if j >= 1:
            for i, v in enumerate(polys[j - 1]):
                new[i] -= Fraction(fam.c(j)) * v
        polys.append([v / Fraction(fam.a(j)) for v in new])
    return polys


def least_integer_form(values):
    """(d, [ints]): rationals over their least positive common denominator."""
    values = [Fraction(v) for v in values]
    d = math.lcm(*(v.denominator for v in values))
    return d, [int(v * d) for v in values]


@pytest.mark.parametrize("name, params", CATALOG_SETS)
def test_coeffs_match_a_fraction_recurrence(name, params):
    system = make_system(catalog_id(name, **params))
    for fam in [system.q] + [system.ladder(k) for k in range(4)]:
        want = reference_coeffs(fam, 12)
        for n in range(13):
            assert fam.coeffs(n) == want[n], (fam, n)
            # The cached coefficients, kept either as rationals or as an
            # integer form, must amount to the least integer form: a
            # positive denominator sharing no factor with the numerators.
            cached = fam._coeff_cache[n]
            if not isinstance(cached, tuple):
                cached = least_integer_form(cached)
            assert cached == least_integer_form(want[n]), (fam, n)


# Parameters of each univariate family, drawn exactly; laguerre's a(n) is
# negative at every n, and bessel's a, b and c take either sign.
small_rationals = st.fractions(min_value=-4, max_value=6, max_denominator=9)
drawn_families = st.one_of(
    st.tuples(small_rationals, small_rationals).map(
        lambda ab: jacobi_std(*ab)),
    st.tuples(small_rationals, small_rationals).map(
        lambda ab: jacobi_shift(*ab)),
    small_rationals.map(laguerre),
    st.tuples(small_rationals, small_rationals.filter(bool)).map(
        lambda ab: bessel(*ab)),
)


@settings(deadline=None)
@given(drawn_families)
def test_integer_coeffs_match_a_fraction_recurrence(fam):
    # Both recurrences read the same a(j), b(j), c(j), so a degenerate
    # draw fails both.
    try:
        want = reference_coeffs(fam, 10)
    except (QuasiDefinitenessError, ZeroDivisionError):
        with pytest.raises(QuasiDefinitenessError):
            fam._coeffs_int(10)
        return
    for n in range(11):
        assert fam._coeffs_int(n) == least_integer_form(want[n]), (fam, n)


# -- leading coefficients and norms against plain Fraction recurrences -----


def reference_leading(fam, top):
    """(k_n, l_n) for n = 0..top from k_(j+1) = k_j / a_j and
    l_(j+1) = (l_j - b_j k_j) / a_j, one Fraction at a time."""
    out = [(Fraction(1), Fraction(0))]
    for j in range(top):
        k, l = out[j]
        a_j, b_j = Fraction(fam.a(j)), Fraction(fam.b(j))
        out.append((k / a_j, (l - b_j * k) / a_j))
    return out


def reference_norms(fam, top):
    """h_n for n = 0..top from h_j = h_(j-1) c_j / a_(j-1), one Fraction
    at a time; a zero ratio is a ZeroDivisionError."""
    out = [Fraction(fam.h0)]
    for j in range(1, top + 1):
        ratio = Fraction(fam.c(j)) / Fraction(fam.a(j - 1))
        if not ratio:
            raise ZeroDivisionError(f"h({j})/h({j - 1}) is zero")
        out.append(out[j - 1] * ratio)
    return out


def assert_univariate_values(fam, top):
    """leading_coeffs, norms and their integer stores against the
    references: (k_n, S_n) and h_n as (num, den) in lowest terms, with
    l_n = -k_n S_n."""
    leading, norms = reference_leading(fam, top), reference_norms(fam, top)
    for n in range(top + 1):
        (k, l), h = leading[n], norms[n]
        assert fam.leading_coeffs(n) == (k, l), (fam, n)
        assert fam.norms(n) == h, (fam, n)
        s = -l / k
        assert fam._lead_int(n) == ((k.numerator, k.denominator),
                                    (s.numerator, s.denominator)), (fam, n)
        assert fam._h_int(n) == (h.numerator, h.denominator), (fam, n)


@settings(deadline=None)
@given(drawn_families)
def test_univariate_values_match_fraction_recurrences(fam):
    # Both sides read the same a(j), b(j), c(j), so a degenerate draw
    # fails the reference and is refused by the family, on every call.
    refused = False
    for reference, method in ((reference_leading, fam.leading_coeffs),
                              (reference_norms, fam.norms)):
        try:
            reference(fam, 10)
        except (QuasiDefinitenessError, ZeroDivisionError):
            refused = True
            for _ in range(2):
                with pytest.raises(QuasiDefinitenessError):
                    method(10)
    if not refused:
        assert_univariate_values(fam, 10)


# -- moments against a plain Fraction recursion ------------------------------

# The ten pinned parameter sets of the acceptance suite.
PINNED_SETS = [
    ("disk", {"mu": "1/2"}),
    ("disk", {"mu": "3/2"}),
    ("biangle", {"alpha": 0, "beta": 0}),
    ("biangle", {"alpha": 1, "beta": "1/2"}),
    ("simplex", {"alpha": "1/2", "beta": "1/2", "gamma": "1/2"}),
    ("simplex", {"alpha": 0, "beta": 1, "gamma": 2}),
    ("square", {"alpha": 0, "beta": 0, "gamma": 0, "delta": 0}),
    ("square", {"alpha": 1, "beta": 2, "gamma": 0, "delta": "1/2"}),
    ("laguerre-jacobi", {"alpha": 1, "beta": "1/2"}),
    ("bessel-laguerre", {"g": 5, "gamma": "2/5"}),
]

# Lower ends of each positive-definite family's region; a seeded draw
# lies in (lower, lower + 3], over the denominators 7, 11, 13 and 17 by
# position, like the parameters of the sweep benchmark.
SWEEP_LOWER = [
    ("disk", {"mu": Fraction(-1, 2)}),
    ("biangle", {"alpha": -1, "beta": -1}),
    ("simplex", {"alpha": -1, "beta": -1, "gamma": -1}),
    ("square", {"alpha": -1, "beta": -1, "gamma": -1, "delta": -1}),
    ("laguerre-jacobi", {"alpha": -2, "beta": -1}),
]


def sweep_draws(seed):
    rng = random.Random(seed)
    out = []
    for name, lower in SWEEP_LOWER:
        params = {}
        for key, den in zip(lower, (7, 11, 13, 17)):
            num = rng.randrange(1, 3 * den + 1)
            params[key] = str(Fraction(lower[key]) + Fraction(num, den))
        out.append((name, params))
    return out


def reference_moments(fam, top):
    """<u, x^j> for j = 0..top: x^(j+1) = x * x^j expanded in the p-basis
    by scattering x p_i = a_i p_(i+1) + b_i p_i + c_i p_(i-1), one Fraction
    at a time; the moment is the p_0 coefficient times h_0."""
    h0 = Fraction(fam.h0)
    v = [Fraction(1)]
    out = [h0]
    for _ in range(top):
        new = [Fraction(0)] * (len(v) + 1)
        for i, x in enumerate(v):
            new[i + 1] += Fraction(fam.a(i)) * x
            new[i] += Fraction(fam.b(i)) * x
            if i:
                new[i - 1] += Fraction(fam.c(i)) * x
        v = new
        out.append(v[0] * h0)
    return out


def _moment_families():
    fams = []
    for name, params in PINNED_SETS + sweep_draws(71) + sweep_draws(72):
        cid = catalog_id(name, **params)
        system = make_system(cid)
        fams += [(f"{cid.describe()}:ladder0", system.ladder(0)),
                 (f"{cid.describe()}:q", system.q)]
    fams += [(f"bessel({a},{b})", bessel(a, b))
             for a, b in ((3, -2), ("1/2", 5), ("-7/3", "2/5"))]
    return [pytest.param(label, fam, id=label) for label, fam in fams]


@pytest.mark.parametrize("label, fam", _moment_families())
def test_moments_match_a_fraction_recursion(label, fam):
    want = reference_moments(fam, 40)
    assert fam.moments(40) == want, label
    # a shorter list read after the recursion ran further
    assert fam.moments(17) == want[:18]


@pytest.mark.parametrize("label, fam", _moment_families())
def test_univariate_values_match_fraction_recurrences_at_depth(label, fam):
    # the ladders and q of the pinned and sweep sets, and bessel families
    # with negative a, b and c, to index 24
    assert_univariate_values(fam, 24)


def test_reflected_jacobi_b_changes_the_moments():
    al, be = q(1), q("1/2")
    jac = jacobi_std(al, be)
    mirror = jacobi_std(be, al)
    # a valid recurrence of another weight: b of jacobi(beta, alpha)
    mutant = RecurrenceFamily("mutant", jac.a, mirror.b, jac.c)
    got = mutant.moments(40)
    assert got == reference_moments(mutant, 40)
    assert got != jac.moments(40)
    assert got[1] == -jac.moments(1)[1]


# -- constructor closures against their rational formulas ------------------

# Each constructor's recurrence formulas, evaluated one rational operation
# at a time: the reference for its closures, which form each value from
# integers.


def reference_jacobi(al, be):
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


def reference_jacobi_shift(al, be):
    a, b, c = reference_jacobi(al, be)
    return (lambda n: a(n) / 2, lambda n: (b(n) + 1) / 2,
            lambda n: c(n) / 2)


def reference_laguerre(al):
    return (lambda n: -(n + 1), lambda n: 2 * n + al + 1,
            lambda n: -(n + al))


def reference_bessel(av, bv):
    def a(n):
        if n == 0:
            return bv / av
        return (n + av - 1) * bv / ((2 * n + av - 1) * (2 * n + av))

    def b(n):
        if n == 0:
            return -bv / av
        return -(av - 2) * bv / ((2 * n + av - 2) * (2 * n + av))

    def c(n):
        return -n * bv / ((2 * n + av - 2) * (2 * n + av - 1))

    return a, b, c


def reference_scaled_laguerre(g, gamma):
    gg = g * gamma
    return (lambda m: -(m + 1) / g, lambda m: (2 * m + gg) / g,
            lambda m: -(m + gg - 1) / g)


# Constructor by the label prefix of the families it makes, with its
# reference formulas and the names of its parameters.
CONSTRUCTORS = {
    "jacobi": (jacobi_std, reference_jacobi, ("alpha", "beta")),
    "jacobi01": (jacobi_shift, reference_jacobi_shift, ("alpha", "beta")),
    "laguerre": (laguerre, reference_laguerre, ("alpha",)),
    "bessel": (bessel, reference_bessel, ("a", "b")),
    "scaled-laguerre": (_scaled_laguerre, reference_scaled_laguerre,
                        ("g", "gamma")),
}


def _pinned_closure_cases():
    """(prefix, parameters) of ladder(0..3) and q of the pinned sets."""
    cases = set()
    for name, params in PINNED_SETS:
        system = make_system(catalog_id(name, **params))
        for fam in [system.ladder(m) for m in range(4)] + [system.q]:
            prefix = fam.label.split("(")[0]
            names = CONSTRUCTORS[prefix][2]
            cases.add((prefix, tuple(Fraction(fam.params[k]) for k in names)))
    return sorted(cases, key=str)


def _sweep_closure_cases():
    """Three draws per constructor at about 100 bits over 7..23."""
    rng = random.Random(27)

    def draw():
        return Fraction(rng.getrandbits(100) - 2 ** 99, rng.randint(7, 23))

    return [(prefix, tuple(draw() for _ in spec[2]))
            for prefix, spec in CONSTRUCTORS.items() for _ in range(3)]


# Parameters on which some closure value divides by zero, 0/0 included:
# jacobi(-1, -1) has b(0) = 0/0 (q of disk(-1/2)) and b(1) = 0/0.
DEGENERATE_CLOSURE_CASES = [
    ("jacobi", (Fraction(-1), Fraction(-1))),
    ("jacobi", (Fraction(-2), Fraction(0))),
    ("jacobi", (Fraction(-3, 2), Fraction(-1, 2))),
    ("jacobi01", (Fraction(-1, 2), Fraction(-3, 2))),
    ("jacobi01", (Fraction(-1), Fraction(-1))),
    ("laguerre", (Fraction(-1),)),
    ("bessel", (Fraction(0), Fraction(2))),
    ("bessel", (Fraction(-3), Fraction(1))),
    ("bessel", (Fraction(-2), Fraction(-1, 3))),
    ("scaled-laguerre", (Fraction(0), Fraction(1))),
    ("scaled-laguerre", (Fraction(5), Fraction(-1, 5))),
]


@pytest.mark.parametrize("prefix, args", [
    *_pinned_closure_cases(), *_sweep_closure_cases(),
    *DEGENERATE_CLOSURE_CASES])
def test_constructor_closures_match_their_rational_formulas(prefix, args):
    # Each value equals the formula's, is the backend rational both as the
    # closure returns it and as the family reads it, and a division by
    # zero in the formula (0/0 included) is refused at the same index.
    constructor, reference, _ = CONSTRUCTORS[prefix]
    fam = constructor(*args)
    closures = dict(zip("abc", (fam._a_fn, fam._b_fn, fam._c_fn)))
    for which, formula in zip("abc", reference(*args)):
        for n in range(1 if which == "c" else 0, 41):
            try:
                want = formula(n)
            except ZeroDivisionError:
                with pytest.raises(QuasiDefinitenessError) as info:
                    getattr(fam, which)(n)
                assert info.value.index == n
                continue
            got = getattr(fam, which)(n)
            assert got == want, (fam, which, n)
            assert type(got) is _RAT and type(closures[which](n)) is _RAT


# -- moment-level orthogonality (independent Gram oracle) ------------------


@pytest.mark.parametrize("fam", [
    jacobi_std(0, 0),
    jacobi_std("3/2", "1/2"),
    jacobi_shift("1/2", 2),
    laguerre("1/2"),
    bessel(5, "2/5"),
    bessel(7, -5),
])
def test_families_are_orthogonal_with_predicted_norms(fam):
    assert_orthogonal_family(fam, 7)


def test_recurrence_reconstructs_polynomials():
    # x p_n(x) = a_n p_{n+1} + b_n p_n + c_n p_{n-1}, coefficient-wise
    for fam in (jacobi_std("1/2", "3/2"), laguerre(1), bessel(4, 2)):
        for n in range(6):
            lhs = [q(0)] + fam.coeffs(n)
            rhs = [v * fam.a(n) for v in fam.coeffs(n + 1)]
            rhs = [rv + lv for rv, lv in zip(
                rhs, [v * fam.b(n) for v in fam.coeffs(n)] + [q(0), q(0)])]
            if n >= 1:
                down = [v * fam.c(n) for v in fam.coeffs(n - 1)]
                rhs = [rv + (down[i] if i < len(down) else q(0))
                       for i, rv in enumerate(rhs)]
            assert lhs == rhs, (fam.label, n)


# -- adjacent-family connections -------------------------------------------


def chained(base, companion, s2, s1, s0):
    """Companion family re-normalized by the rho^2-moment of the base."""
    mu = base.moments(2)
    h0 = s2 * mu[2] + s1 * mu[1] + s0 * mu[0]
    return companion.with_h0(h0)


CONNECTION_CASES = [
    # (base, companion bearing an extra rho^2 in its weight, s2, s1, s0)
    (jacobi_std(0, 0), jacobi_std(1, 1), -1, 0, 1),          # rho^2 = 1-x^2
    (jacobi_std("3/2", "1/2"), jacobi_std("5/2", "3/2"), -1, 0, 1),
    (jacobi_shift(1, "1/2"), jacobi_shift(1, "3/2"), 0, 1, 0),  # rho^2 = x
    (jacobi_shift("1/2", 2), jacobi_shift("5/2", 2), 1, -2, 1),  # (1-x)^2
    (laguerre("1/2"), laguerre("5/2"), 1, 0, 0),             # rho^2 = x^2
    (bessel(5, "2/5"), bessel(7, "2/5"), 1, 0, 0),
]


@pytest.mark.parametrize("base,comp,s2,s1,s0", CONNECTION_CASES)
def test_adjacent_down_identity(base, comp, s2, s1, s0):
    # p_n = delta_n pc_n + epsilon_n pc_{n-1} + zeta_n pc_{n-2},
    # verified coefficient-wise against the defining expansion
    comp = chained(base, comp, q(s2), q(s1), q(s0))
    for n in range(9):
        conn = adjacent_down(base, comp, q(s2), n)
        rhs = [v * conn.delta for v in comp.coeffs(n)]
        if n >= 1:
            assert conn.epsilon is not None
            for i, v in enumerate(comp.coeffs(n - 1)):
                rhs[i] = rhs[i] + v * conn.epsilon
        else:
            assert conn.epsilon is None
        if n >= 2:
            assert conn.zeta is not None
            for i, v in enumerate(comp.coeffs(n - 2)):
                rhs[i] = rhs[i] + v * conn.zeta
        else:
            assert conn.zeta is None
        assert rhs == base.coeffs(n), (base.label, n)


@pytest.mark.parametrize("base,comp,s2,s1,s0", CONNECTION_CASES)
def test_adjacent_up_identity(base, comp, s2, s1, s0):
    # rho^2 pc_n = eta_n p_{n+2} + theta_n p_{n+1} + vartheta_n p_n,
    # verified coefficient-wise
    rho2 = [q(s0), q(s1), q(s2)]
    comp = chained(base, comp, q(s2), q(s1), q(s0))
    for n in range(9):
        conn = adjacent_up(base, comp, q(s2), n)
        lhs = polynomial_product(rho2, comp.coeffs(n))
        width = n + 3
        lhs = lhs + [q(0)] * (width - len(lhs))
        rhs = [q(0)] * width
        for coeff, deg in ((conn.eta, n + 2), (conn.theta, n + 1),
                           (conn.vartheta, n)):
            for i, v in enumerate(base.coeffs(deg)):
                rhs[i] = rhs[i] + v * coeff
        assert lhs == rhs, (base.label, n)


@pytest.mark.parametrize("base,comp,s2,s1,s0", CONNECTION_CASES)
def test_adjacent_up_down_norm_invariant(base, comp, s2, s1, s0):
    # eta_n = zeta_{n+2} h_n(companion) / h_{n+2}(base)
    comp = chained(base, comp, q(s2), q(s1), q(s0))
    for n in range(7):
        up = adjacent_up(base, comp, q(s2), n)
        down = adjacent_down(base, comp, q(s2), n + 2)
        assert up.eta == down.zeta * comp.norms(n) / base.norms(n + 2)


def test_adjacent_linear_radical_has_no_skip_terms():
    # s2 = 0: the two-step coefficients vanish identically
    base = jacobi_shift(1, "1/2")
    comp = chained(base, jacobi_shift(1, "3/2"), q(0), q(1), q(0))
    for n in range(2, 6):
        assert adjacent_down(base, comp, q(0), n).zeta == q(0)
        assert adjacent_up(base, comp, q(0), n).eta == q(0)


def test_adjacent_known_laguerre_triple():
    # alpha -> alpha+2 with rho^2 = x^2: (delta, epsilon, zeta) = (1, -2, 1)
    base = laguerre(1)
    comp = chained(base, laguerre(3), q(1), q(0), q(0))
    for n in range(2, 8):
        conn = adjacent_down(base, comp, q(1), n)
        assert (conn.delta, conn.epsilon, conn.zeta) == (q(1), q(-2), q(1))
        up = adjacent_up(base, comp, q(1), n)
        assert up.eta == q((n + 1) * (n + 2))
        assert up.theta == q(-2 * (n + 1)) * (n + 1 + 2)
        assert up.vartheta == q((n + 1 + 1) * (n + 1 + 2))


@pytest.mark.parametrize("base,comp,s2,s1,s0", CONNECTION_CASES)
def test_adjacent_up_is_built_on_the_downward_triples(base, comp, s2, s1,
                                                      s0):
    # theta_n = epsilon_{n+1} h'_n / h_{n+1} and vartheta_n =
    # delta_n h'_n / h_n, the primes on the companion; s2 as an int, a
    # Scalar or a rational gives the same triples
    comp = chained(base, comp, q(s2), q(s1), q(s0))
    for n in range(7):
        up = adjacent_up(base, comp, q(s2), n)
        here = adjacent_down(base, comp, s2, n)
        after = adjacent_down(base, comp, q(s2).value, n + 1)
        assert up.theta == after.epsilon * comp.norms(n) / base.norms(n + 1)
        assert up.vartheta == here.delta * comp.norms(n) / base.norms(n)
        assert adjacent_up(base, comp, s2, n) == up
        assert adjacent_down(base, comp, q(s2), n) == here


def test_adjacent_down_reads_s2_only_in_zeta():
    # the same two families with two values of s2 give two triples that
    # differ only in zeta, which scales with s2
    base = jacobi_shift(1, "1/2")
    comp = chained(base, jacobi_shift(1, "3/2"), q(0), q(1), q(0))
    linear = adjacent_down(base, comp, q(0), 4)
    scaled = adjacent_down(base, comp, q(2), 4)
    assert linear.zeta == 0 and scaled.zeta != 0
    assert linear[:2] == scaled[:2]
    half = adjacent_down(base, comp, q("1/2"), 4)
    assert half.zeta == scaled.zeta / 4
    assert half[:2] == scaled[:2]


def test_failing_adjacent_down_raises_on_every_call_and_stores_nothing():
    # a zero a(2) in the companion stops its degree at 2: the triple at
    # index 3 fails on every call, the connection kernel keeps no
    # ingredient at index 3, and the triples below the stop still answer,
    # as they do on a family that never failed
    def stalled():
        return RecurrenceFamily("stall", lambda n: 0 if n == 2 else 1,
                                lambda n: 0, lambda n: 1)

    base = laguerre(1)
    stall = stalled()
    for _ in range(2):
        with pytest.raises(QuasiDefinitenessError, match=r"a\(2\) = 0"):
            adjacent_down(base, stall, 1, 3)
        assert len(stall._lead_ints) == 3
    with pytest.raises(QuasiDefinitenessError, match=r"a\(2\) = 0"):
        adjacent_up(base, stall, 1, 2)
    assert len(stall._lead_ints) == 3
    for n in range(3):
        assert (adjacent_down(base, stall, 1, n)
                == adjacent_down(base, stalled(), 1, n))
