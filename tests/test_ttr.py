"""Relation matrices: builder, Gram oracle, shapes, bands and ranks."""
import pytest

from ortho2d import (
    Scalar,
    SparsePoly2,
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
        for axis, mono in (("x", SparsePoly2.monomial(1, 0)),
                           ("y", SparsePoly2.monomial(0, 1))):
            mats = first_ttr(disk, n) if axis == "x" else second_ttr(disk, n)
            for m in range(n + 1):
                lhs = poly_mul(disk.expand_P(n, m), mono)
                rhs = SparsePoly2.zero()
                for mat, deg in zip(mats, (n + 1, n, n - 1)):
                    if deg < 0:
                        continue
                    for col in range(mat.cols):
                        v = mat.get(m, col)
                        if not v.is_zero:
                            rhs = rhs + polys[deg][col] * v
                assert (lhs - rhs).is_zero, (axis, n, m)


def test_rank_conditions_hold(disk, square):
    for sys_obj in (disk, square):
        for n in range(4):
            report = rank_conditions(sys_obj, n)
            assert report.ok
            assert report.rank_a_x == n + 1
            assert report.rank_joint_a == n + 2


def test_rank_report_flags_degenerate_input():
    from ortho2d.ttr import RankReport

    good = RankReport(1, 2, 2, 2, 2, 3, 3)
    bad = RankReport(1, 2, 1, 2, 2, 3, 3)
    assert good.ok and not bad.ok


def test_degree_validation(disk):
    with pytest.raises(ValueError):
        first_ttr(disk, -1)
    with pytest.raises(ValueError):
        second_ttr(disk, -1)
