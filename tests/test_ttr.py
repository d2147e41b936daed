"""Relation matrices: builder, Gram oracle, shapes, bands and ranks."""
import pytest

from ortho2d import (
    BandMatrix,
    Scalar,
    SparsePoly2,
    adjacent_down,
    adjacent_up,
    build_ttr,
    catalog_id,
    first_ttr,
    make_system,
    poly_mul,
    rank_conditions,
    second_ttr,
    ttr_from_gram,
    verify_orthonormal_transpose,
)
from ortho2d.ttr import RankReport

q = Scalar.exact


@pytest.fixture(scope="module")
def disk():
    return make_system(catalog_id("disk", mu="1/2"))


@pytest.fixture(scope="module")
def square():
    return make_system(catalog_id("square", alpha=0, beta=0, gamma=0, delta=0))


@pytest.mark.parametrize("family, params", [
    ("disk", {"mu": "3/2"}),
    ("simplex", {"alpha": "1/2", "beta": "1/2", "gamma": "1/2"}),
    ("square", {"alpha": "1", "beta": "2", "gamma": "0", "delta": "1/2"}),
])
def test_cached_relations_equal_a_cold_build(family, params):
    cid = catalog_id(family, **params)
    warm = make_system(cid)
    verify_orthonormal_transpose(warm, 8)
    for n in range(8):
        rank_conditions(warm, n)
    for n in range(9):
        assert build_ttr(warm, n) == build_ttr(make_system(cid), n)


@pytest.mark.parametrize("family, params", [
    ("biangle", {"alpha": 1, "beta": "1/2"}),
    ("bessel-laguerre", {"g": 5, "gamma": "2/5"}),
])
def test_gram_oracle_on_a_cold_system_equals_a_warm_one(family, params):
    # C at degree n reads the block that degree n-1 cached for its A
    cid = catalog_id(family, **params)
    warm = make_system(cid)
    for n in range(6):
        if n in (3, 5):
            assert ttr_from_gram(make_system(cid), n) == ttr_from_gram(warm, n)
        else:
            ttr_from_gram(warm, n)


def test_matrix_shapes_and_bands(disk):
    for n in range(4):
        a, b, c = first_ttr(disk, n)
        assert a.shape == (n + 1, n + 2)
        assert b.shape == (n + 1, n + 1)
        assert c.shape == (n + 1, n)
        assert a.lower_bandwidth == a.upper_bandwidth == 0
        a2, b2, c2 = second_ttr(disk, n)
        assert a2.shape == (n + 1, n + 2)
        assert b2.shape == (n + 1, n + 1)
        assert c2.shape == (n + 1, n)
        assert a2.lower_bandwidth == a2.upper_bandwidth == 1


def test_first_relation_uses_ladder_coefficients(disk):
    n = 3
    a, b, c = first_ttr(disk, n)
    for m in range(n + 1):
        rung = disk.ladder(m)
        assert a.get(m, m) == rung.a(n - m)
        assert b.get(m, m) == rung.b(n - m)
        if m <= n - 1:
            assert c.get(m, m) == rung.c(n - m)


def test_lowering_matrix_bottom_rows(disk):
    # x-relation: the bottom row of the lowering matrix is entirely zero;
    # y-relation: it carries one nonzero sub-diagonal entry
    for n in range(1, 5):
        c_x = first_ttr(disk, n)[2]
        assert all(c_x.get(n, c).is_zero for c in range(n))
        c_y = second_ttr(disk, n)[2]
        assert not c_y.get(n, n - 1).is_zero


def test_builder_matches_gram_oracle(disk, square):
    for sys_obj in (disk, square):
        for n in range(4):
            built = build_ttr(sys_obj, n)
            oracle = ttr_from_gram(sys_obj, n)
            for name, mat in built.matrices().items():
                assert mat == oracle.matrices()[name], (sys_obj.label, n, name)


def test_gram_oracle_degree_zero_shapes(disk):
    ts = ttr_from_gram(disk, 0)
    assert ts.a_x.shape == (1, 2)
    assert ts.b_x.shape == (1, 1)
    assert ts.c_x.shape == (1, 0)


def test_relations_hold_on_basis_polynomials(disk):
    # t_i P_n = A P_{n+1} + B P_n + C P_{n-1} for both variables, exactly
    for n in range(4):
        polys = {
            d: [disk.expand_P(d, m) for m in range(d + 1)]
            for d in (n - 1, n, n + 1) if d >= 0
        }
        for axis, mono in (("x", SparsePoly2({(1, 0): 1})),
                           ("y", SparsePoly2({(0, 1): 1}))):
            mats = first_ttr(disk, n) if axis == "x" else second_ttr(disk, n)
            for m in range(n + 1):
                lhs = poly_mul(disk.expand_P(n, m), mono)
                rhs = {}
                for mat, deg in zip(mats, (n + 1, n, n - 1)):
                    if deg < 0:
                        continue
                    for col in range(mat.cols):
                        v = mat.get(m, col)
                        for key, c in polys[deg][col].terms.items():
                            rhs[key] = rhs.get(key, 0) + c * v
                assert lhs == SparsePoly2(rhs), (axis, n, m)


def test_rank_conditions_hold(disk, square):
    for sys_obj in (disk, square):
        for n in range(4):
            report = rank_conditions(sys_obj, n)
            assert report.ok
            assert report.rank_a_x == n + 1
            assert report.rank_joint_a == n + 2


@pytest.mark.parametrize("family, params", [
    ("disk", {"mu": "3/2"}),
    ("simplex", {"alpha": "1/2", "beta": "1/2", "gamma": "1/2"}),
    ("bessel-laguerre", {"g": 5, "gamma": "2/5"}),
])
def test_connection_memo_equals_fresh_triples(family, params):
    # second_ttr forms each downward triple once per system; every one it
    # used to degree 12, and every upward triple it formed from them, is
    # the triple a fresh adjacent_down / adjacent_up gives.
    sys_obj = make_system(catalog_id(family, **params))
    for n in range(13):
        second_ttr(sys_obj, n)
    s2 = sys_obj.rho.s2
    # Row m of degree n: the superdiagonal reads (m, n - m), and the
    # subdiagonal's upward triple (m - 1, n - m) reads two downward ones.
    used = {(m, n - m) for n in range(13) for m in range(n + 1)}
    used |= {(m - 1, n - m + e) for n in range(13) for m in range(1, n + 1)
             for e in (0, 1)}
    assert set(sys_obj._down_cache) == used
    for (m, k), triple in sys_obj._down_cache.items():
        fresh = adjacent_down(sys_obj.ladder(m), sys_obj.ladder(m + 1), s2, k)
        assert triple == tuple(None if v is None else v.value for v in fresh)
    q_fam = sys_obj.q
    for n in range(13):
        a_y, b_y, c_y = second_ttr(sys_obj, n)
        for m in range(1, n + 1):
            up = adjacent_up(sys_obj.ladder(m - 1), sys_obj.ladder(m), s2,
                             n - m)
            qc = q_fam.c(m)
            assert a_y[m, m - 1] == qc * up.eta
            assert b_y[m, m - 1] == qc * up.theta
            if m <= n - 1:
                assert c_y[m, m - 1] == qc * up.vartheta


def reference_rank(matrix):
    """Rank of a BandMatrix by Gaussian elimination over its dense
    Fraction rows."""
    m = [[v.as_fraction() for v in row] for row in matrix.dense()]
    rank = 0
    for col in range(matrix.cols):
        pivot = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for i in range(rank + 1, len(m)):
            f = m[i][col] / m[rank][col]
            m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def stacked(top, bottom):
    return BandMatrix.from_dense(top.dense() + bottom.dense())


@pytest.mark.parametrize("family, params", [
    ("disk", {"mu": "1/2"}),
    ("square", {"alpha": 0, "beta": 0, "gamma": 0, "delta": 0}),
    ("simplex", {"alpha": 0, "beta": 1, "gamma": 2}),
])
def test_rank_conditions_on_a_zeroed_entry_match_dense_rows(family, params):
    # Zero one stored entry of A_{n,y} at a time, in the relation cache
    # that rank_conditions reads, and compare every rank with a plain
    # elimination over dense rows.
    n = 4
    cid = catalog_id(family, **params)
    base = make_system(cid)
    a_x = first_ttr(base, n)[0]
    c_x = first_ttr(base, n + 1)[2]
    c_y = second_ttr(base, n + 1)[2]
    a_y, b_y, c_y_n = second_ttr(base, n)
    deficient = 0
    for key, _ in a_y.items():
        entries = dict(a_y.items())
        entries[key] = 0
        zeroed = BandMatrix(a_y.rows, a_y.cols, 1, 1, entries)
        sys_obj = make_system(cid)
        sys_obj._ttr_cache[(n, "y")] = (zeroed, b_y, c_y_n)
        want = RankReport(
            n, reference_rank(a_x), reference_rank(zeroed),
            reference_rank(c_x), reference_rank(c_y),
            reference_rank(stacked(a_x, zeroed)),
            reference_rank(stacked(c_x.transpose(), c_y.transpose())))
        got = rank_conditions(sys_obj, n)
        assert got == want, key
        deficient += not got.ok
    assert deficient > 0


def test_rank_report_flags_degenerate_input():
    good = RankReport(1, 2, 2, 2, 2, 3, 3)
    bad = RankReport(1, 2, 1, 2, 2, 3, 3)
    assert good.ok and not bad.ok


def test_degree_validation(disk):
    with pytest.raises(ValueError):
        first_ttr(disk, -1)
    with pytest.raises(ValueError):
        second_ttr(disk, -1)
