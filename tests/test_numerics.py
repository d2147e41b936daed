"""Scalar, polynomial, band-matrix and exact-rank primitives."""
import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ortho2d import (
    BandMatrix,
    ModeError,
    Scalar,
    SparsePoly2,
    build_ttr,
    catalog_id,
    make_system,
    parse_rational,
    poly_mul,
    rank_exact,
)

rationals = st.fractions(
    min_value=-1000, max_value=1000, max_denominator=10**4
)


def q(text):
    return Scalar.exact(text)


# -- parse_rational ------------------------------------------------------


def test_parse_rational_forms():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-1/2") == Fraction(-1, 2)
    assert parse_rational("0.25") == Fraction(1, 4)
    assert parse_rational("-0.25") == Fraction(-1, 4)
    assert parse_rational("25e-2") == Fraction(1, 4)
    assert parse_rational("1e1000") == 10 ** 1000
    assert parse_rational(" 2 ") == 2


@pytest.mark.parametrize("text", ["1e999999999", "1e-999999999",
                                  "-2.5E+999999999", "1e1001"])
def test_parse_rational_rejects_huge_decimal_exponents(text):
    with pytest.raises(ValueError, match="exponent"):
        parse_rational(text)


def test_parse_rational_rejects_garbage():
    with pytest.raises(ValueError):
        parse_rational("one half")


# -- Scalar ---------------------------------------------------------------


def test_scalar_constructors_and_str():
    assert str(q("3/4")) == "3/4"
    assert str(q(-2)) == "-2"
    assert str(Scalar.exact(Fraction(2, 6))) == "1/3"
    assert Scalar.zero().is_zero
    assert not Scalar.one().is_zero
    assert float(q("1/2")) == 0.5
    assert not hasattr(q(1), "mode")


def test_scalar_mode_discipline():
    # a float meets exact arithmetic: ModeError at every entry point
    with pytest.raises(ModeError):
        Scalar.exact(0.5)
    with pytest.raises(ModeError):
        Scalar(0.5)
    with pytest.raises(TypeError):
        Scalar.exact(True)
    for op in (lambda a: a + 0.5, lambda a: 0.5 + a, lambda a: a - 0.5,
               lambda a: a * 0.5, lambda a: a / 0.5, lambda a: 0.5 / a,
               lambda a: a < 0.5, lambda a: a >= 0.5, lambda a: a == 0.5,
               lambda a: a != 0.5):
        with pytest.raises(ModeError):
            op(q("1/2"))
    # ints and exact rationals mix
    assert q("1/2") + 1 == q("3/2")
    assert q("1/2") * Fraction(2, 3) == q("1/3")


def test_scalar_arithmetic_basics():
    assert q("1/3") + q("1/6") == q("1/2")
    assert q("1/3") - q("1/2") == q("-1/6")
    assert q("2/3") * q("9/4") == q("3/2")
    assert q("2/3") / q("4/9") == q("3/2")
    assert -q("1/3") == q("-1/3")
    assert abs(q("-5/7")) == q("5/7")
    assert q("2/3") ** 3 == q("8/27")
    assert q("2/3") ** 0 == q(1)
    assert 1 - q("1/4") == q("3/4")
    assert 2 / q("1/3") == q(6)


def test_scalar_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        q(1) / q(0)


def test_scalar_comparisons_and_hash():
    assert q("1/3") < q("1/2") <= q("1/2") < q(1)
    assert q("1/2") == Fraction(1, 2)
    assert hash(q("1/2")) == hash(Scalar.exact(Fraction(1, 2)))
    assert q("1/2") != q("1/3")
    assert sorted([q(3), q("1/2"), q(-1)]) == [q(-1), q("1/2"), q(3)]


def test_scalar_is_immutable():
    s = q("1/2")
    with pytest.raises(AttributeError):
        s.value = 7


def test_scalar_numerator_denominator():
    s = q("-6/8")
    assert (s.numerator, s.denominator) == (-3, 4)
    assert s.as_fraction() == Fraction(-3, 4)
    assert isinstance(s.numerator, int) and isinstance(s.denominator, int)


@given(rationals, rationals, rationals)
def test_scalar_field_arithmetic_matches_fraction(x, y, z):
    sx, sy, sz = map(Scalar.exact, (x, y, z))
    assert (sx + sy).as_fraction() == x + y
    assert (sx * sy).as_fraction() == x * y
    assert (sx - sy).as_fraction() == x - y
    assert ((sx + sy) * sz).as_fraction() == (x + y) * z == (
        sx * sz + sy * sz
    ).as_fraction()
    if y:
        assert (sx / sy).as_fraction() == x / y


# -- SparsePoly2 ----------------------------------------------------------


def test_poly_constructor():
    p = SparsePoly2({(1, 2): "3/2", (0, 0): 1})
    assert p.terms == {(1, 2): q("3/2"), (0, 0): q(1)}
    assert p.coeff(1, 2) == q("3/2") and p.coeff(2, 1).is_zero
    # zero coefficients are pruned on construction
    assert SparsePoly2({(1, 1): 0}) == SparsePoly2()
    assert SparsePoly2().terms == {}
    with pytest.raises(ValueError):
        SparsePoly2({(-1, 0): 1})


def test_poly_mul_known_product():
    x_plus_y = SparsePoly2({(1, 0): 1, (0, 1): 1})
    square = poly_mul(x_plus_y, x_plus_y)
    assert square.terms == (
        SparsePoly2({(2, 0): 1, (1, 1): 2, (0, 2): 1})
    ).terms
    x_minus_y = SparsePoly2({(1, 0): 1, (0, 1): -1})
    assert poly_mul(x_plus_y, x_minus_y) == SparsePoly2({(2, 0): 1,
                                                         (0, 2): -1})
    assert poly_mul(square, SparsePoly2()) == SparsePoly2()


def test_poly_eval():
    # p(x, y) = x^2 + 2xy - 1/3 at (1/2, 3)
    p = SparsePoly2({(2, 0): 1, (1, 1): 2, (0, 0): "-1/3"})
    value = p.eval(q("1/2"), q(3))
    assert value == q("1/4") + q(3) - q("1/3") == q("35/12")
    assert p.eval(Fraction(1, 2), 3) == value


def test_poly_mode_discipline():
    with pytest.raises(ModeError):
        SparsePoly2({(0, 0): 0.5})
    with pytest.raises(ModeError):
        SparsePoly2({(1, 0): 1.0})
    p = SparsePoly2({(1, 0): 1})
    assert not hasattr(p, "mode")
    with pytest.raises(ModeError):
        p.eval(1.0, q(2))
    with pytest.raises(ModeError):
        p.eval(q(1), 2.0)


def plus(*polys):
    """The sum of SparsePoly2 values, merged coefficient by coefficient."""
    out = {}
    for p in polys:
        for key, c in p.terms.items():
            out[key] = out.get(key, 0) + c
    return SparsePoly2(out)


@given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4), rationals),
                max_size=6),
       st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4), rationals),
                max_size=6),
       st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4), rationals),
                max_size=6))
def test_poly_mul_distributes(ta, tb, tc):
    def build(triples):
        return plus(*(SparsePoly2({(i, j): v}) for i, j, v in triples))

    pa, pb, pc = build(ta), build(tb), build(tc)
    assert poly_mul(pa, plus(pb, pc)) == plus(poly_mul(pa, pb),
                                              poly_mul(pa, pc))
    assert poly_mul(pa, pb) == poly_mul(pb, pa)


# -- BandMatrix -----------------------------------------------------------


def test_band_matrix_shape_and_band_errors():
    with pytest.raises(ValueError):
        BandMatrix(2, 2, -1, 0)
    with pytest.raises(IndexError):
        BandMatrix(2, 2, 0, 0, {(2, 0): 1})
    with pytest.raises(ValueError):
        BandMatrix(2, 2, 0, 0, {(0, 1): 1})  # nonzero outside the band
    # a zero entry outside the band is silently dropped
    m = BandMatrix(2, 2, 0, 0, {(0, 1): 0, (0, 0): 5})
    assert m.get(0, 1).is_zero and m.get(0, 0) == q(5)


def test_band_matrix_get_and_items():
    m = BandMatrix(2, 3, 0, 1, {(0, 0): 1, (0, 1): 2, (1, 2): "1/2"})
    assert m.shape == (2, 3)
    assert m.get(1, 1).is_zero  # in band, unset
    assert m.get(1, 0).is_zero  # out of band, in shape
    with pytest.raises(IndexError):
        m.get(2, 0)
    assert list(m.items()) == [
        ((0, 0), q(1)), ((0, 1), q(2)), ((1, 2), q("1/2"))]
    assert m.dense() == [[q(1), q(2), q(0)], [q(0), q(0), q("1/2")]]


def test_band_matrix_from_dense_and_equality():
    diag = BandMatrix(2, 2, 0, 0, {(0, 0): 3, (1, 1): 4})
    full = BandMatrix.from_dense([[3, 0], [0, 4]])
    # equality is by shape and values; declared bands may differ
    assert diag == full
    assert diag != BandMatrix.from_dense([[3, 0], [0, 5]])
    with pytest.raises(ValueError):
        BandMatrix.from_dense([[1, 2], [3]])


def test_band_matrix_transforms():
    m = BandMatrix.from_dense([[1, 2], [3, 4]])
    assert m.transpose().dense() == [[q(1), q(3)], [q(2), q(4)]]
    assert not hasattr(m, "mode")
    assert BandMatrix(2, 2, 0, 0).is_zero


def test_values_copy_and_pickle():
    cid = catalog_id("disk", mu="1/2")
    band = BandMatrix(2, 3, 1, 1, {(0, 0): 1, (0, 1): "1/2", (1, 2): -3})
    values = [q("-2/3"), SparsePoly2({(1, 2): "1/3", (0, 0): 5}), band, cid,
              build_ttr(make_system(cid), 3)]
    round_trips = (copy.copy, copy.deepcopy,
                   lambda v: pickle.loads(pickle.dumps(v)))
    for value in values:
        for round_trip in round_trips:
            again = round_trip(value)
            assert type(again) is type(value) and again == value
    again = pickle.loads(pickle.dumps(band))
    assert (again.lower_bandwidth, again.upper_bandwidth) == (1, 1)
    s = copy.deepcopy(q("1/2"))
    with pytest.raises(AttributeError):
        s.value = 7


def test_band_matrix_zero_columns():
    m = BandMatrix(1, 0, 0, 0)
    assert m.shape == (1, 0) and m.is_zero
    assert rank_exact(m) == 0


# -- rank_exact -----------------------------------------------------------


def test_rank_exact_known_values():
    assert rank_exact([[1, 2, 3], [2, 4, 6], [1, 0, 1]]) == 2
    assert rank_exact([[1, 0], [0, 1]]) == 2
    assert rank_exact([[0, 0], [0, 0]]) == 0
    assert rank_exact([[Fraction(1, 2), Fraction(1, 3)],
                       [Fraction(3, 2), Fraction(1, 1)]]) == 1  # singular
    assert rank_exact([[Fraction(1, 2), Fraction(1, 3)],
                       [Fraction(3, 2), Fraction(2, 1)],
                       [Fraction(2, 1), Fraction(4, 3)]]) == 2


def test_rank_exact_scalar_rows_and_band_matrix():
    rows = [[q("1/2"), q(1)], [q(1), q(2)]]
    assert rank_exact(rows) == 1
    m = BandMatrix.from_dense([[1, 1, 0], [0, 1, 1]])
    assert rank_exact(m) == 2
    assert rank_exact(m.transpose()) == 2


def test_rank_exact_rejects_float():
    with pytest.raises(ModeError):
        BandMatrix.from_dense([[1.0]])
    with pytest.raises(ModeError):
        BandMatrix(1, 1, 0, 0, {(0, 0): 0.5})
    with pytest.raises(ModeError):
        rank_exact([[0.5]])
    with pytest.raises(ModeError):
        rank_exact([[1, 2], [q(1), 0.25]])


def test_rank_exact_needs_exact_division_to_hold():
    # a matrix that exposes broken fraction-free elimination if the
    # intermediate integer divisions are not exact
    m = [[2, 1, 1, 0],
         [4, 3, 3, 1],
         [8, 7, 9, 5],
         [6, 7, 9, 8]]
    assert rank_exact(m) == 4
    singular = [[2, 1, 1], [4, 3, 3], [6, 4, 4]]
    assert rank_exact(singular) == 2


def reference_rank(rows):
    """Rank by plain Gaussian elimination over Fraction."""
    m = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        pivot = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for i in range(rank + 1, len(m)):
            f = m[i][col] / m[rank][col]
            m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


# Mostly zeros, so that rows skip pivot columns and the elimination leaves
# them over an older divisor (see numerics._rank_int).
sparse_entries = st.one_of(st.just(0), st.just(0), st.integers(-9, 9),
                           st.fractions(-20, 20, max_denominator=12))


def sparse_rows(cols):
    return st.lists(st.lists(sparse_entries, min_size=cols, max_size=cols),
                    min_size=1, max_size=8)


# Rows mixed from fewer sparse rows: their rank needs exact cancellation,
# which an inexact division in the elimination would break.
mixed_rows = st.integers(1, 7).flatmap(lambda cols: st.tuples(
    sparse_rows(cols), st.lists(st.lists(sparse_entries, min_size=8,
                                         max_size=8),
                                min_size=1, max_size=9))).map(
    lambda pair: [[sum(c * row[j] for c, row in zip(mix, pair[0]))
                   for j in range(len(pair[0][0]))] for mix in pair[1]])


@given(st.one_of(st.integers(1, 7).flatmap(sparse_rows), mixed_rows))
def test_rank_exact_matches_a_fraction_elimination(rows):
    want = reference_rank(rows)
    assert rank_exact(rows) == want
    band = BandMatrix.from_dense(rows)
    assert rank_exact(band) == rank_exact(band.transpose()) == want
