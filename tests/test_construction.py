"""Bivariate system assembly, basis expansion, moments and Gram blocks."""
import hashlib
import math
import time
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ortho2d import (
    ModeError,
    QuasiDefinitenessError,
    RecurrenceFamily,
    RhoSpec,
    Scalar,
    SparsePoly2,
    assemble,
    catalog_id,
    jacobi_shift,
    jacobi_std,
    make_system,
    second_ttr,
    ttr_from_gram,
)
from ortho2d.construction import _product
from ortho2d.numerics import _int_list

q = Scalar.exact


@pytest.fixture(scope="module")
def disk():
    return make_system(catalog_id("disk", mu="1/2"))


@pytest.fixture(scope="module")
def lj():
    return make_system(catalog_id("laguerre-jacobi", alpha=1, beta="1/2"))


# -- RhoSpec ----------------------------------------------------------------


def test_rho_linear_derives_square():
    rho = RhoSpec.linear(2, "-1/2")
    assert (rho.r1, rho.r0) == (q(2), q("-1/2"))
    assert (rho.s2, rho.s1, rho.s0) == (q(4), q(-2), q("1/4"))
    with pytest.raises(ValueError):
        RhoSpec.linear(0, 0)


def test_rho_sqrt_quadratic():
    rho = RhoSpec.sqrt_quadratic(-1, 0, 1)
    # rho itself is no polynomial: r1 and r0 are None, and the fields are
    # the five coefficients with no stored case
    assert rho.r1 is None and rho.r0 is None
    assert rho == (None, None, q(-1), q(0), q(1))
    with pytest.raises(ValueError):
        RhoSpec.sqrt_quadratic(0, 0, 0)


# -- assemble validation ------------------------------------------------------


def test_assemble_type_checks():
    rho = RhoSpec.linear(0, 1)
    fam = jacobi_std(0, 0)
    with pytest.raises(TypeError):
        assemble("rho", lambda m: fam, fam)
    with pytest.raises(TypeError):
        assemble(rho, lambda m: fam, "q")
    with pytest.raises(TypeError):
        assemble(rho, None, fam)


def test_ladder_refuses_a_factory_value_that_is_no_family():
    sys_obj = assemble(RhoSpec.linear(0, 1), lambda m: "family",
                       jacobi_std(0, 0))
    for _ in range(2):
        with pytest.raises(TypeError, match=r"ladder_factory\(0\) "
                                            r"returned str"):
            sys_obj.ladder(0)


def test_case_two_requires_symmetric_q():
    rho = RhoSpec.sqrt_quadratic(-1, 0, 1)
    with pytest.raises(ValueError, match="symmetric"):
        assemble(rho, lambda m: jacobi_std(m, m), jacobi_std(1, 0))
    # a symmetric q is accepted
    assemble(rho, lambda m: jacobi_std(m, m), jacobi_std(2, 2))


def test_case_two_symmetry_is_checked_past_the_eager_range():
    # q is symmetric up to index 16, which assemble checks eagerly; its
    # first nonzero b-coefficient, b(17), is caught lazily where it is used
    late = RecurrenceFamily("late-asymmetric", lambda n: 1,
                            lambda n: 1 if n == 17 else 0, lambda n: 1)
    rho = RhoSpec.sqrt_quadratic(-1, 0, 1)
    sys_obj = assemble(rho, lambda m: jacobi_std(m, m), late)
    with pytest.raises(ValueError, match="symmetric"):
        second_ttr(sys_obj, 17)
    with pytest.raises(ValueError, match="symmetric"):
        sys_obj.expand_P(18, 18)
    # the moments read q's b-coefficients too, so they refuse it alike,
    # at an odd k as at an even one
    for k in (19, 20):
        with pytest.raises(ValueError, match=r"b\(17\) != 0"):
            sys_obj.w_moment(0, k)
    # below the first nonzero b-coefficient an odd moment is the zero
    assert sys_obj.w_moment(0, 17) == 0


def test_rho_powers_step_by_rho_squared():
    # where rho is not a polynomial an odd power is refused at once, even
    # one far past the recursion limit; even powers step by rho^2
    disk = make_system(catalog_id("disk", mu="1/2"))
    for e in (1, 3, 5001):
        with pytest.raises(ValueError, match="not a polynomial"):
            disk._rho_pow_int(e)
    assert disk._rho_pow_int(4) == (1, [1, 0, -2, 0, 1])
    # where it is, odd powers are rho^(e-2) rho^2 from rho^1
    lj = make_system(catalog_id("laguerre-jacobi", alpha=1, beta="1/2"))
    assert lj._rho_pow_int(3) == (1, [0, 0, 0, 1])


def test_rho_power_far_above_the_cache_is_built_in_a_loop():
    # rho = 1: rho^2501 steps 1250 times by rho^2 from rho^1, with no
    # recursion, and caches every power of its parity on the way
    square = make_system(catalog_id("square", alpha=0, beta=0, gamma=0,
                                    delta=0))
    start = time.perf_counter()
    assert square._rho_pow_int(2501) == (1, [1] + [0] * 2501)
    assert time.perf_counter() - start < 1.0
    assert square._rho_pow[1499] == (1, [1] + [0] * 1499)
    assert 2500 not in square._rho_pow


def test_case_two_symmetry_failure_is_not_cached():
    late = RecurrenceFamily("late-asymmetric", lambda n: 1,
                            lambda n: 1 if n == 17 else 0, lambda n: 1)
    rho = RhoSpec.sqrt_quadratic(-1, 0, 1)
    sys_obj = assemble(rho, lambda m: jacobi_std(m, m), late)
    second_ttr(sys_obj, 16)
    for _ in range(2):
        with pytest.raises(ValueError, match="symmetric"):
            second_ttr(sys_obj, 17)


def test_q_normalization_is_forced_to_one(disk):
    assert disk.q.norms(0) == q(1)


# -- the ladder and its chained normalization --------------------------------


def test_disk_ladder_chain(disk):
    assert disk.ladder(0).norms(0) == q(1)
    # <u0, 1 - x^2> for the Chebyshev-U weight: 1 - 1/4
    assert disk.ladder(1).norms(0) == q("3/4")


def test_ladder_chain_can_degenerate():
    # rho^2 = x against a symmetric weight: <u, x> = 0 stops the ladder
    rho = RhoSpec.sqrt_quadratic(0, 1, 0)
    sys_obj = assemble(rho, lambda m: jacobi_std(0, 0), jacobi_std(0, 0))
    with pytest.raises(QuasiDefinitenessError, match="weight-chain"):
        sys_obj.ladder(1)
    sys_obj.ladder(0)  # the base rung is fine


def test_ladder_index_validation(disk):
    for bad in (-1, True, 1.0):
        with pytest.raises(ValueError, match="ladder index"):
            disk.ladder(bad)


# -- basis polynomials ---------------------------------------------------------


def test_disk_low_degree_basis(disk):
    assert disk.expand_P(0, 0) == SparsePoly2({(0, 0): 1})
    # the m = 0 rung is jacobi(1/2, 1/2): p_1(x) = 3x/2
    assert disk.expand_P(1, 0) == SparsePoly2({(1, 0): "3/2"})
    assert disk.expand_P(1, 1) == SparsePoly2({(0, 1): 1})
    # P_{2,2} = rho^2 q_2(y/rho) = (3 y^2 - (1 - x^2)) / 2
    assert disk.expand_P(2, 2) == SparsePoly2(
        {(0, 2): "3/2", (2, 0): "1/2", (0, 0): "-1/2"})


def test_disk_parity(disk):
    # case II: the y-degree of every term of P_{n,m} has m's parity
    for n in range(5):
        for m in range(n + 1):
            for (_, j) in disk.expand_P(n, m).terms:
                assert (j - m) % 2 == 0


def test_lj_low_degree_basis(lj):
    # rho = x and q = jacobi(1/2, 0), whose q_1(t) = 5t/4 + 1/4:
    # P_{1,1} = rho q_1(y/rho) = 5y/4 + x/4
    assert lj.expand_P(1, 1) == SparsePoly2({(0, 1): "5/4", (1, 0): "1/4"})


def test_expand_degree_structure(disk, lj):
    for sys_obj in (disk, lj):
        for n in range(5):
            for m in range(n + 1):
                keys = sys_obj.expand_P(n, m).terms
                assert max(i + j for i, j in keys) == n
                assert max(j for _, j in keys) == m


def test_expand_argument_validation(disk):
    with pytest.raises(ValueError):
        disk.expand_P(1, 2)
    with pytest.raises(ValueError):
        disk.expand_P(-1, 0)


def test_block_norm_and_gram_block_validate_degrees(disk):
    disk.block_norm(3, 3)
    for n, m in ((2, 5), (-1, 0), (1, -1), (2.0, 0), (1, True), (True, 0)):
        for call in (disk.block_norm, disk.expand_P):
            with pytest.raises(ValueError, match="0 <= m <= n"):
                call(n, m)
    for n, h in ((-1, 0), (0, -1), (1, 0.5), (True, 0)):
        with pytest.raises(ValueError, match="degree"):
            disk.gram_block(n, h)


def reference_basis(sys_obj, n, m):
    """P_{n,m} as a {(i, j): Fraction} map in expansion order: for each y^j
    term of q_m, each x^i term of the ladder polynomial, each x^d term of
    rho^(m-j), add the product to key (i + d, j); a sum that vanishes drops
    its key, and a later term puts it back at the end."""
    rho = sys_obj.rho
    if rho.r1 is not None:  # a polynomial rho: step by rho itself
        step, base = 1, [rho.r0, rho.r1]
    else:
        step, base = 2, [rho.s0, rho.s1, rho.s2]
    p_coeffs = sys_obj.ladder(m).coeffs(n - m)
    terms = {}
    for j, qc in enumerate(sys_obj.q.coeffs(m)):
        if not qc:
            continue
        power = [Fraction(1)]
        for _ in range((m - j) // step):
            out = [Fraction(0)] * (len(power) + len(base) - 1)
            for k, u in enumerate(power):
                for e, v in enumerate(base):
                    out[k + e] += u * v
            power = out
        for i, pc in enumerate(p_coeffs):
            for d, rc in enumerate(power):
                if pc and rc:
                    acc = terms.get((i + d, j), 0) + pc * qc * rc
                    if acc:
                        terms[(i + d, j)] = acc
                    else:
                        terms.pop((i + d, j), None)
    return terms


def integer_form(poly):
    """(d, [(i, j, d * coefficient)]): a SparsePoly2 over its least common
    denominator d, in its key order."""
    d, ints = _int_list(poly._terms.values())
    return d, [(i, j, c) for (i, j), c in zip(poly._terms, ints)]


@pytest.mark.parametrize("name, params", [
    ("simplex", {"alpha": "1/2", "beta": "1/2", "gamma": "1/2"}),
    ("disk", {"mu": "1/2"}),
    ("bessel-laguerre", {"g": 5, "gamma": "2/5"}),
])
def test_basis_integer_forms_are_least_in_expansion_order(name, params):
    sys_obj = make_system(catalog_id(name, **params))
    for n in range(11):
        for m in range(n + 1):
            want = reference_basis(sys_obj, n, m)
            poly = sys_obj.expand_P(n, m)
            assert list(poly._terms.items()) == list(want.items()), (n, m)
            d, terms = integer_form(poly)
            assert d == math.lcm(*(c.denominator for c in want.values()))
            assert [(i, j) for i, j, _ in terms] == list(want)
            assert math.gcd(d, *(c for _, _, c in terms)) == 1
            # The cached basis polynomial, kept either as a polynomial or
            # as an integer form, must amount to this least integer form.
            cached = sys_obj._P_cache[(n, m)]
            if not isinstance(cached, tuple):
                cached = integer_form(cached)
            assert cached == (d, terms), (n, m)


def test_product_keeps_the_order_of_a_term_by_term_merge():
    # x^2 first gets 2 * 1, loses it to 1 * (-2) and comes back from 5 * 1
    # after x^3 has entered: a merge into a dict puts it behind x^3.
    assert list(_product([2, 1, 5], [1, -2, 1]).items()) == [
        (0, 2), (1, -3), (3, -9), (2, 5), (4, 5)]


@given(st.lists(st.integers(-3, 3), min_size=1, max_size=6),
       st.lists(st.integers(-3, 3), min_size=1, max_size=4))
def test_product_equals_a_term_by_term_merge(p, r):
    want = {}
    for i, pc in enumerate(p):
        for d, rc in enumerate(r):
            if pc and rc:
                v = want.get(i + d, 0) + pc * rc
                if v:
                    want[i + d] = v
                else:
                    del want[i + d]
    assert list(_product(p, r).items()) == list(want.items())


def test_basis_order_follows_the_merge_where_rho_powers_have_gaps():
    # rho^2 = 1 - x^2 has no x term; a ladder without parity then meets
    # it in an order that is not ascending.
    sys_obj = assemble(RhoSpec.sqrt_quadratic(-1, 0, 1),
                       lambda m: jacobi_std(m + 1, m), jacobi_std(0, 0))
    keys = [(j, i) for i, j, _ in sys_obj._P_int(5, 2)[1]]
    assert keys != sorted(keys)  # y-powers ascend, x-powers do not
    for n in range(7):
        for m in range(n + 1):
            want = reference_basis(sys_obj, n, m)
            assert list(sys_obj.expand_P(n, m)._terms.items()) == \
                list(want.items()), (n, m)


# The ten pinned parameter sets of the acceptance suite.
PINNED = [
    ("disk", {"mu": "1/2"}),
    ("disk", {"mu": "3/2"}),
    ("biangle", {"alpha": "0", "beta": "0"}),
    ("biangle", {"alpha": "1", "beta": "1/2"}),
    ("simplex", {"alpha": "1/2", "beta": "1/2", "gamma": "1/2"}),
    ("simplex", {"alpha": "0", "beta": "1", "gamma": "2"}),
    ("square", {"alpha": "0", "beta": "0", "gamma": "0", "delta": "0"}),
    ("square", {"alpha": "1", "beta": "2", "gamma": "0", "delta": "1/2"}),
    ("laguerre-jacobi", {"alpha": "1", "beta": "1/2"}),
    ("bessel-laguerre", {"g": "5", "gamma": "2/5"}),
]


def test_basis_integer_forms_are_pinned():
    # Denominators, coefficients and term order of every basis polynomial
    # up to degree 14 of the pinned systems: the float checks sum in this
    # order, so a change of order alone would move their residuals.
    digest = hashlib.sha256()
    for name, params in PINNED:
        sys_obj = make_system(catalog_id(name, **params))
        for n in range(15):
            for m in range(n + 1):
                digest.update(repr(sys_obj._P_int(n, m)).encode())
    assert digest.hexdigest() == (
        "958b29187e4ec17c8b894321c37a511b5c91cc30e6bdf9e7659638ac47d73eec")


def test_basis_key_order_is_pinned():
    simplex = make_system(catalog_id("simplex", alpha="1/2", beta="1/2",
                                     gamma="1/2"))
    assert list(simplex.expand_P(4, 2).terms) == [
        (0, 0), (1, 0), (2, 0), (3, 0), (4, 0), (0, 1), (1, 1), (2, 1),
        (3, 1), (0, 2), (1, 2), (2, 2)]


# -- moments -------------------------------------------------------------------


def _fraction_moments(fam, top):
    """<u, x^j> for j = 0..top, one Fraction at a time: x^(j+1) = x * x^j
    scattered over the p-basis by x p_i = a_i p_(i+1) + b_i p_i + c_i
    p_(i-1); the moment is the p_0 coefficient times h_0."""
    h0 = Fraction(fam.h0)
    v, out = [Fraction(1)], [h0]
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


def _reference_moment_table(sys_obj, top):
    """<w, x^h y^k> = <u_0, x^h rho^k> <v, t^k> for h + k <= top in plain
    Fractions, rho^k multiplied out from rho or, where rho is not a
    polynomial, from rho^2 (an odd k then meets a zero moment of q)."""
    rho = sys_obj.rho
    u0 = _fraction_moments(sys_obj.ladder(0), top)
    v = _fraction_moments(sys_obj.q, top)
    if rho.r1 is None:
        factor, step = [Fraction(c) for c in (rho.s0, rho.s1, rho.s2)], 2
    else:
        factor, step = [Fraction(c) for c in (rho.r0, rho.r1)], 1
    table = [[] for _ in range(top + 1)]
    for k in range(top + 1):
        power = [Fraction(1)]
        for _ in range(k // step):
            out = [Fraction(0)] * (len(power) + len(factor) - 1)
            for i, a in enumerate(power):
                for d, b in enumerate(factor):
                    out[i + d] += a * b
            power = out
        for h in range(top + 1 - k):
            table[h].append(v[k] and v[k] * sum(
                c * u0[h + d] for d, c in enumerate(power)))
    return table


@pytest.mark.parametrize("name, params", PINNED)
def test_moment_table_matches_a_fraction_reference(name, params):
    # The integer moment table grown 3 -> 7 -> 14 holds the same least
    # denominator D and integers as a table built at 14 at once, and each
    # entry is D <w, x^h y^k>, summed here in plain Fractions.
    cid = catalog_id(name, **params)
    grown = make_system(cid)
    for top in (3, 7):
        grown._oracle.moment_table(top)
    d, table = grown._oracle.moment_table(14)
    fresh = make_system(cid)
    assert (d, table) == fresh._oracle.moment_table(14)
    assert math.gcd(d, *(v for row in table for v in row)) == 1
    want = _reference_moment_table(grown, 14)
    assert [len(row) for row in table] == [15 - h for h in range(15)]
    for h, row in enumerate(table):
        for k, v in enumerate(row):
            assert Fraction(v, d) == want[h][k] == grown.w_moment(h, k), \
                (h, k)


def test_uniform_disk_moments(disk):
    # mu = 1/2 is the uniform unit disk, normalized to mass 1
    assert disk.w_moment(0, 0) == q(1)
    assert disk.w_moment(2, 0) == q("1/4")
    assert disk.w_moment(0, 2) == q("1/4")
    assert disk.w_moment(2, 2) == q("1/24")
    assert disk.w_moment(4, 0) == q("1/8")
    for h, k in [(1, 0), (0, 1), (1, 2), (3, 1)]:
        assert disk.w_moment(h, k) == q(0)


def test_lj_moment_factorizes(lj):
    # rho = x: <w, x^h y^k> = mu_{h+k} of the base rung times the q moment
    assert lj.w_moment(2, 1) == q(-12)


def test_moment_validation(disk):
    for h, k in ((-1, 0), (0, True), (1.0, 0)):
        with pytest.raises(ValueError, match="exponent"):
            disk.w_moment(h, k)


def test_moment_bilinear_matches_block_norm(disk, lj):
    for sys_obj in (disk, lj):
        for n in range(4):
            for m in range(n + 1):
                p = sys_obj.expand_P(n, m)
                assert sys_obj.moment_bilinear(p, p) == sys_obj.block_norm(n, m)


def test_moment_bilinear_with_monomial_shift(disk):
    p = disk.expand_P(1, 0)  # = 3x/2
    # <w, x * P10 * P00> = (3/2) <w, x^2> = 3/8
    assert disk.moment_bilinear(p, disk.expand_P(0, 0), dx=1) == q("3/8")


def _defining_sum(sys_obj, p, p2, dx, dy):
    # sum over term pairs of c1 c2 <w, x^(i1+i2+dx) y^(j1+j2+dy)>
    acc = q(0)
    for (i1, j1), c1 in p.terms.items():
        for (i2, j2), c2 in p2.terms.items():
            acc = acc + c1 * c2 * sys_obj.w_moment(i1 + i2 + dx, j1 + j2 + dy)
    return acc


@pytest.mark.parametrize("name, params, polynomial_rho", [
    ("simplex", {"alpha": "1/2", "beta": "1/2", "gamma": "1/2"}, True),
    ("disk", {"mu": "3/2"}, False),
    ("bessel-laguerre", {"g": 5, "gamma": "2/5"}, True),
])
def test_moment_bilinear_equals_defining_sum(name, params, polynomial_rho):
    # a fresh system, so the calls below meet an empty moment table that
    # must grow (and be rescaled to a new common denominator) as the
    # requested moment degree rises
    sys_obj = make_system(catalog_id(name, **params))
    assert (sys_obj.rho.r1 is not None) is polynomial_rho
    frac = SparsePoly2({(0, 0): "1/3", (1, 0): "-5/7", (0, 1): 2})
    zero = SparsePoly2()
    polys = [frac, zero, sys_obj.expand_P(2, 1),
             SparsePoly2({(3, 1): "2/9", (0, 2): "-1/4", (1, 1): "7/6"}),
             sys_obj.expand_P(5, 2), sys_obj.expand_P(7, 4)]
    pairs = [(a, b) for k, b in enumerate(polys) for a in polys[:k + 1]]
    for a, b in pairs:
        for dx, dy in [(0, 0), (1, 0), (0, 1)]:
            got = sys_obj.moment_bilinear(a, b, dx, dy)
            # an exact rational of the backend type, never a float
            assert type(got) is type(q(0).value)
            assert got == _defining_sum(sys_obj, a, b, dx, dy)
            assert sys_obj.moment_bilinear(b, a, dx, dy) == got
    # higher than any moment degree requested before: 2 * 7 + 1 -> 20
    high = sys_obj.expand_P(10, 3)
    got = sys_obj.moment_bilinear(high, high, 0, 0)
    assert got == _defining_sum(sys_obj, high, high, 0, 0)
    assert got == sys_obj.block_norm(10, 3)
    assert sys_obj.moment_bilinear(frac, frac, 1, 0) == _defining_sum(
        sys_obj, frac, frac, 1, 0)


@pytest.mark.parametrize("name, params", [
    ("simplex", {"alpha": "1/2", "beta": "1/2", "gamma": "1/2"}),
    ("disk", {"mu": "3/2"}),
    ("bessel-laguerre", {"g": 5, "gamma": "2/5"}),
])
def test_row_moments_stay_coherent_when_the_table_grows(name, params):
    # Degree 6 first builds the full moment table and the row moments of
    # degrees 5..7 over it; degrees 0..4 then add rows over that table.
    # The fresh system runs in ascending order, so its table grows and
    # its cached row moments are rescaled at every degree.
    cid = catalog_id(name, **params)
    late = make_system(cid)
    top_first = ttr_from_gram(late, 6)
    got = [ttr_from_gram(late, n) for n in range(6)] + [top_first]
    fresh = make_system(cid)
    assert got == [ttr_from_gram(fresh, n) for n in range(7)]
    # Every cached Gram entry up to degree 4 is the naive term-pair sum.
    checked = 0
    # Each row is stored once, as ints over the row's denominator.
    for (n, h, dx, dy), rows in late._oracle._gram.items():
        if max(n, h) > 4:
            continue
        for m, (den, ints) in enumerate(rows):
            for mp, v in enumerate(ints):
                want = _defining_sum(late, late.expand_P(n, m),
                                     late.expand_P(h, mp), dx, dy)
                assert Fraction(v, den) == want, (n, h, dx, dy, m, mp)
                checked += 1
    # So is every cached diagonal of H_n, which the oracle forms alone.
    for n, diag in late._oracle._diag.items():
        if n > 4:
            continue
        for m, v in enumerate(diag):
            p = late.expand_P(n, m)
            assert v == _defining_sum(late, p, p, 0, 0), (n, m)
            checked += 1
    assert checked > 200
    # moment_bilinear reads the same table and agrees with a system on
    # which nothing else ran.
    clean = make_system(cid)
    for n, m, h, mp, dx, dy in [(2, 1, 3, 0, 1, 0), (4, 4, 4, 2, 0, 1),
                                (6, 3, 7, 5, 0, 0), (1, 0, 0, 0, 0, 0)]:
        p, p2 = late.expand_P(n, m), late.expand_P(h, mp)
        den, ints = late._oracle.rows(n, h, dx, dy)[m]
        assert (late.moment_bilinear(p, p2, dx, dy)
                == clean.moment_bilinear(p, p2, dx, dy)
                == Fraction(ints[mp], den))


def test_moment_bilinear_refuses_float_polynomials(disk):
    # float coefficients never reach the kernel: the polynomial is refused
    with pytest.raises(ModeError):
        SparsePoly2({(0, 0): 0.5, (2, 0): 1.0})
    with pytest.raises(TypeError):
        disk.moment_bilinear({(0, 0): 0.5}, disk.expand_P(1, 0))
    with pytest.raises(ValueError):
        disk.moment_bilinear(disk.expand_P(1, 0), disk.expand_P(1, 0), dx=-1)


# -- Gram blocks ----------------------------------------------------------------


def test_gram_blocks_orthogonality(disk, lj):
    for sys_obj in (disk, lj):
        for n in range(4):
            for h in range(n):
                block = sys_obj.gram_block(n, h)
                assert not any(v for row in block.entries for v in row)
            diag = sys_obj.gram_block(n, n)
            for m in range(n + 1):
                for mp in range(n + 1):
                    want = sys_obj.block_norm(n, m) if m == mp else q(0)
                    assert diag.entries[m][mp] == want


def test_bessel_laguerre_norms_are_signed():
    sys_obj = make_system(catalog_id("bessel-laguerre", g=5, gamma="2/5"))
    assert sys_obj.block_norm(1, 0) == q("-1/6")
    assert sys_obj.block_norm(0, 0) == q(1)
    # quasi-definite: Gram diagonals stay nonzero even though signs flip
    block = sys_obj.gram_block(2, 2)
    for m in range(3):
        assert block.entries[m][m]


def test_vanishing_gram_diagonal_raises_on_every_call():
    # c(n) = 0 gives q_1 = y a zero norm, so <w, P_(1,1)^2> vanishes; the
    # failing block is never cached
    flat_q = RecurrenceFamily("flat", lambda n: 1, lambda n: 0, lambda n: 0)
    sys_obj = assemble(RhoSpec.linear(0, 1), lambda m: jacobi_std(0, 0),
                       flat_q)
    for call in (lambda: sys_obj.gram_block(1, 1),
                 lambda: ttr_from_gram(sys_obj, 0)):
        for _ in range(2):
            with pytest.raises(QuasiDefinitenessError) as info:
                call()
            assert info.value.index == (1, 1)


def test_a_planted_vanishing_gram_diagonal_raises_at_its_position():
    # P_(2,1) planted as the zero polynomial: H_2's diagonal vanishes at
    # (2, 1) alone, each route into it raises there and nothing is stored
    sys_obj = make_system(catalog_id("disk", mu="1/2"))
    sys_obj._P_cache[(2, 1)] = (1, [])
    for call in (lambda: sys_obj._oracle.diagonal(2),
                 lambda: sys_obj.gram_block(2, 2),
                 lambda: ttr_from_gram(sys_obj, 1)):
        with pytest.raises(QuasiDefinitenessError) as info:
            call()
        assert info.value.index == (2, 1)
    assert 2 not in sys_obj._oracle._diag
    assert (2, 2, 0, 0) not in sys_obj._oracle._gram
    # the other diagonals are the norms, and a shifted block is no check
    assert sys_obj._oracle.diagonal(1) == [sys_obj.block_norm(1, m)
                                           for m in range(2)]
    assert not any(sys_obj._oracle.rows(2, 2, 1, 0)[1][1])


def test_case_one_with_offset_radical():
    # rho = 1 - x on [0, 1] exercises nontrivial rho powers (r0 != 0):
    # rung m is orthogonal for the base weight times (1-x)^{2m}
    rho = RhoSpec.linear(-1, 1)
    sys_obj = assemble(rho, lambda m: jacobi_shift(2 * m + 1, 0),
                       jacobi_shift(0, 0), label="unit-simplex")
    for n in range(4):
        for h in range(n):
            block = sys_obj.gram_block(n, h)
            assert not any(v for row in block.entries for v in row)
        diag = sys_obj.gram_block(n, n)
        for m in range(n + 1):
            assert diag.entries[m][m] == sys_obj.block_norm(n, m)
