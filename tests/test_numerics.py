"""Scalar, polynomial, band-matrix and exact-rank primitives."""
import copy
import operator
import pickle
import random
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

ARITHMETIC = (operator.add, operator.sub, operator.mul, operator.truediv)
ORDERING = (operator.lt, operator.le, operator.gt, operator.ge)


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


def test_parse_rational_bounds_the_literal_length():
    from ortho2d.numerics import MAX_LITERAL_LENGTH
    assert parse_rational("7" * 4000) == int("7" * 4000)
    # refused before Fraction parses it, whatever the int digit limit
    with pytest.raises(ValueError, match="characters"):
        parse_rational("7" * (MAX_LITERAL_LENGTH + 1))


def test_parse_rational_rejects_garbage():
    with pytest.raises(ValueError):
        parse_rational("one half")


# -- Scalar ---------------------------------------------------------------


def test_scalar_constructors_and_str():
    assert str(q("3/4")) == "3/4"
    assert str(q(-2)) == "-2"
    assert str(Scalar.exact(Fraction(2, 6))) == "1/3"
    assert q(0).is_zero
    assert not q(1).is_zero
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
    # ... on either side of every operator
    for op in (*ARITHMETIC, *ORDERING, operator.eq, operator.ne):
        for left, right in ((q("1/2"), 0.5), (0.5, q("1/2"))):
            with pytest.raises(ModeError):
                op(left, right)
    # ints and exact rationals mix
    assert q("1/2") + 1 == q("3/2")
    assert q("1/2") * Fraction(2, 3) == q("1/3")
    # division by an exact zero, from either side
    for left, right in ((1, q(0)), (Fraction(1, 2), q(0)), (q(1), 0),
                        (q(1), q(0)), (q(1), Fraction(0))):
        with pytest.raises(ZeroDivisionError, match="division by exact zero"):
            left / right
    # a str, None or bool does not mix: TypeError for arithmetic and
    # ordering, unequal for ==
    for foreign in ("1/2", None, True, False):
        for left, right in ((q(1), foreign), (foreign, q(1))):
            for op in (*ARITHMETIC, *ORDERING):
                with pytest.raises(TypeError):
                    op(left, right)
            assert (left == right) is False and (left != right) is True


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


def test_scalar_value_is_in_lowest_terms():
    s = q("-6/8")
    assert (s.value.numerator, s.value.denominator) == (-3, 4)
    assert s.value == Fraction(-3, 4)


@given(rationals, rationals, rationals)
def test_scalar_field_arithmetic_matches_fraction(x, y, z):
    sx, sy, sz = map(Scalar.exact, (x, y, z))
    assert (sx + sy).value == x + y
    assert (sx * sy).value == x * y
    assert (sx - sy).value == x - y
    assert ((sx + sy) * sz).value == (x + y) * z == (
        sx * sz + sy * sz
    ).value
    if y:
        assert (sx / sy).value == x / y
    # every operator with a Scalar on one side and a Scalar, an int or a
    # Fraction on the other agrees with plain Fractions
    for left, right in ((sx, sy), (sx, y), (sx, y.numerator), (x, sy),
                        (x.numerator, sy), (sx, z), (z.numerator, sx)):
        lv, rv = (Fraction(v.value) if isinstance(v, Scalar) else Fraction(v)
                  for v in (left, right))
        for op in ARITHMETIC:
            if op is operator.truediv and not rv:
                continue
            got = op(left, right)
            assert isinstance(got, Scalar) and got.value == op(lv, rv)
        for op in (*ORDERING, operator.eq, operator.ne):
            assert op(left, right) is op(lv, rv)


# -- SparsePoly2 ----------------------------------------------------------


def test_poly_constructor():
    p = SparsePoly2({(1, 2): "3/2", (0, 0): 1})
    assert p.terms == {(1, 2): Fraction(3, 2), (0, 0): 1}
    assert p.coeff(1, 2) == Fraction(3, 2) and p.coeff(2, 1) == 0
    # zero coefficients are pruned on construction
    assert SparsePoly2({(1, 1): 0}) == SparsePoly2()
    assert SparsePoly2().terms == {}
    for key in ((-1, 0), (True, 0), (0, 1.0)):
        with pytest.raises(ValueError, match="exponent"):
            SparsePoly2({key: 1})


def test_poly_coeff_refuses_a_non_int_exponent():
    # disk mu = 1/2: P_{2,1} = 5/2 x y, whose (1, 1) coefficient no other
    # key may read
    p = make_system(catalog_id("disk", mu="1/2")).expand_P(2, 1)
    assert p.coeff(1, 1) == Fraction(5, 2) and p.coeff(0, 0) == 0
    for i, j in ((True, True), (1.0, 1), (1, 1.0), (-1, 0), (0, -1),
                 ("1", 1), (None, 0)):
        with pytest.raises(ValueError, match="exponent"):
            p.coeff(i, j)


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
    for shape in ((2, 2, -1, 0), (2.0, 2, 0, 0), (2, True, 0, 0),
                  (2, 2, 0, 1.0)):
        with pytest.raises(ValueError, match="must be a nonnegative int"):
            BandMatrix(*shape)
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
    for r, c in ((2, 0), (-1, 0), (0, 3)):
        with pytest.raises(IndexError):
            m.get(r, c)
    assert list(m.items()) == [
        ((0, 0), q(1)), ((0, 1), q(2)), ((1, 2), q("1/2"))]
    assert m.dense() == [[q(1), q(2), q(0)], [q(0), q(0), q("1/2")]]


@pytest.mark.parametrize("r, c", [(0.5, 0), (True, 0), (0.0, 0), (0, 1.0),
                                  (0, False), ("0", 0)])
def test_band_matrix_positions_are_ints(r, c):
    # A bool or float position is refused, not read as the int it equals.
    with pytest.raises(ValueError, match="pair of ints"):
        BandMatrix(2, 2, 1, 1, {(r, c): 1})
    m = BandMatrix.from_dense([[1, 2], [3, 4]])
    with pytest.raises(ValueError, match="pair of ints"):
        m.get(r, c)
    with pytest.raises(ValueError, match="pair of ints"):
        m[r, c]


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


def test_pickle_rebuilds_values_through_their_classes(monkeypatch):
    # A Scalar and a SparsePoly2 are made only by their constructors:
    # pickle rebuilds each by calling its class, whose checks run again.
    for value in (q("-2/3"), SparsePoly2({(1, 2): "1/3", (0, 0): 5})):
        cls = type(value)
        rebuild, args = value.__reduce__()
        assert rebuild is cls
        calls = []
        init = cls.__init__

        def counted(self, *a, init=init, calls=calls):
            calls.append(a)
            init(self, *a)

        monkeypatch.setattr(cls, "__init__", counted)
        again = pickle.loads(pickle.dumps(value))
        assert calls == [args] and type(again) is cls and again == value


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


def test_rank_exact_rows_enter_through_from_dense():
    # Rows enter through BandMatrix.from_dense, which raises each refusal
    # in one place, for rank_exact as for a direct call.
    for make in (rank_exact, BandMatrix.from_dense):
        with pytest.raises(ValueError, match="ragged rows"):
            make([[1, 2], [3]])
        with pytest.raises(ValueError, match="ragged rows"):
            make([[1], [2, 0.5]])
        with pytest.raises(ModeError):
            make([[1, 2], [3, 0.5]])
        with pytest.raises(TypeError, match="bool"):
            make([[1, True]])
    assert rank_exact([]) == rank_exact([[]]) == 0
    assert rank_exact(((1, 2), (2, 4))) == 1


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


def planted_rows(size, banded, rational):
    """A seeded square matrix of side ``size`` with planted rank defects:
    rows that are combinations of earlier rows, zero rows, and a multiple
    of the first row in second place, which cancels to all zeros at the
    first pivot column.  Dense entries are 64-bit integers or small
    rationals, some zero; banded rows keep their random entries within a
    width of 0..3 of the diagonal."""
    rng = random.Random(100 * size + 10 * banded + rational)
    width = rng.randint(0, 3) if banded else size

    def entry():
        if rational:
            return Fraction(rng.randint(-99, 99), rng.randint(1, 12))
        return rng.randint(-2**63, 2**63 - 1) if rng.random() > 0.2 else 0

    rows = []
    for i in range(size):
        kind = rng.random()
        if i and kind < 0.3:
            picks = rng.sample(rows, min(i, rng.randint(1, 3)))
            weights = [Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                       if rational else rng.randint(-9, 9) for _ in picks]
            rows.append([sum(w * row[j] for w, row in zip(weights, picks))
                         for j in range(size)])
        elif i and kind < 0.4:
            rows.append([0] * size)
        else:
            rows.append([entry() if abs(i - j) <= width else 0
                         for j in range(size)])
            rows[-1][i] = rows[-1][i] or 1
    if size > 1:
        rows[1] = [-3 * v for v in rows[0]]
    return rows


@pytest.mark.parametrize("size", (1, 2, 3, 5, 8, 11, 14, 17, 20, 22, 24))
@pytest.mark.parametrize("banded", (False, True), ids=("dense", "banded"))
@pytest.mark.parametrize("rational", (False, True), ids=("int", "rational"))
def test_rank_exact_matches_a_fraction_elimination_on_planted_defects(
        size, banded, rational):
    rows = planted_rows(size, banded, rational)
    want = reference_rank(rows)
    assert rank_exact(rows) == want
    assert rank_exact([list(col) for col in zip(*rows)]) == want


# Mostly zeros, so that rows skip pivot columns, where the elimination
# leaves them as they stand (see numerics._rank_int).
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
