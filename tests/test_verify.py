"""The verification layer: relations, orthogonality, symmetry, transpose."""
from fractions import Fraction

import pytest

import ortho2d.verify
from ortho2d import (
    BandMatrix,
    NotPositiveDefiniteError,
    Scalar,
    catalog_id,
    make_system,
)
from ortho2d.numerics import _RAT, _int_list, _rows
from ortho2d.univariate import RecurrenceFamily
from ortho2d.verify import (
    run_suite,
    verify_central_symmetry,
    verify_orthogonality,
    verify_orthonormal_transpose,
    verify_relation,
)

q = Scalar.exact


@pytest.fixture(scope="module")
def disk():
    return make_system(catalog_id("disk", mu="1/2"))


@pytest.fixture(scope="module")
def asymmetric_square():
    return make_system(
        catalog_id("square", alpha=1, beta=2, gamma=0, delta="1/2"))


# -- verify_relation ------------------------------------------------------


def test_relation_exact_passes(disk):
    for n in range(4):
        for axis in ("x", "y"):
            res = verify_relation(disk, n, axis)
            assert res.passed
            assert res.name == f"relation-{axis}"
            assert res.details == {"n": n, "mode": "exact"}


def test_relation_float_residuals_are_tiny(disk):
    points = [(0.3, -0.7), (0.11, 0.53)]
    res = verify_relation(disk, 3, "y", mode="float", points=points)
    assert res.passed
    assert res.details["max_coeff_residual"] < 1e-14
    assert res.details["max_point_residual"] < 1e-14


def test_relation_float_without_points(disk):
    res = verify_relation(disk, 2, "x", mode="float")
    assert res.passed
    assert res.details["max_point_residual"] is None


def _perturb_entry(monkeypatch, which, factor="1001/1000", position=None):
    """Make every relation matrix lookup return A, B, C with one stored
    entry of the one at position which (0 = A, 1 = B, 2 = C) multiplied by
    factor: the entry at position, or else the first nonzero one."""
    original = ortho2d.verify._relation_matrices

    def perturbed(sys, n, axis):
        mats = list(original(sys, n, axis))
        mat = mats[which]
        entries = dict(mat.items())
        key = next(iter(entries)) if position is None else position
        entries[key] = entries[key] * q(factor)
        mats[which] = BandMatrix(mat.rows, mat.cols, mat.lower_bandwidth,
                                 mat.upper_bandwidth, entries)
        return tuple(mats)

    monkeypatch.setattr(ortho2d.verify, "_relation_matrices", perturbed)


def _perturb_an_a_entry(monkeypatch):
    _perturb_entry(monkeypatch, 0)


def test_relation_float_residuals_are_pinned(asymmetric_square):
    # Residuals of the float check, to the last bit, at three fixed points.
    points = [(0.3, -0.7), (-0.45, 0.2), (0.9, 0.61)]
    want = {
        "x": "{'n': 5, 'mode': 'float', 'max_coeff_residual': "
             "2.650042837333707e-16, 'max_point_residual': "
             "3.3306690738754696e-16, 'tolerance': 1e-10}",
        "y": "{'n': 5, 'mode': 'float', 'max_coeff_residual': "
             "5.047700642540394e-17, 'max_point_residual': "
             "1.1102230246251565e-16, 'tolerance': 1e-10}",
    }
    for axis in ("x", "y"):
        res = verify_relation(asymmetric_square, 5, axis, mode="float",
                              points=points)
        assert repr(res.details) == want[axis]


def test_relation_float_detects_a_wrong_entry(disk, monkeypatch):
    _perturb_an_a_entry(monkeypatch)
    points = [(0.3, -0.7), (0.11, 0.53)]
    for axis in ("x", "y"):
        res = verify_relation(disk, 2, axis, mode="float", points=points)
        assert res.passed is False
        assert res.details["max_coeff_residual"] > res.details["tolerance"]
        assert res.details["max_point_residual"] > res.details["tolerance"]


def test_relation_exact_detects_a_wrong_entry(disk, monkeypatch):
    _perturb_an_a_entry(monkeypatch)
    want = {"x": ([0, 0], "-7/25600"), "y": ([1, 1], "21/12800")}
    for axis, (monomial, coefficient) in want.items():
        res = verify_relation(disk, 3, axis)
        assert res.passed is False
        assert res.details == {"n": 3, "m": 0, "mode": "exact",
                               "monomial": monomial,
                               "coefficient": coefficient}


@pytest.mark.parametrize("which, want", [
    (1, {"x": (0, [0, 0], "-1/66000"), "y": (0, [0, 0], "-1/10000")}),
    (2, {"x": (0, [0, 0], "1/3000"), "y": (1, [0, 0], "9/35000")}),
])
def test_relation_exact_detects_a_wrong_b_or_c_entry(
        asymmetric_square, monkeypatch, which, want):
    # the square is not centrally symmetric, so both B matrices are nonzero
    _perturb_entry(monkeypatch, which)
    for axis, (m, monomial, coefficient) in want.items():
        res = verify_relation(asymmetric_square, 3, axis)
        assert res.passed is False
        assert res.details == {"n": 3, "m": m, "mode": "exact",
                               "monomial": monomial,
                               "coefficient": coefficient}


# -- the float check against a per-term reference --------------------------

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

FIXED_POINTS = [(0.3, -0.7), (-0.45, 0.2), (0.9, 0.61), (0.05, -0.95),
                (-0.8, -0.33)]

# The largest error of a basis value read from the ingredients, relative
# to max(1, |exact value|), allowed over the pinned sets to degree 11 at
# FIXED_POINTS.  The worst measured is 9.6e-12, at P_{8,7} of
# simplex(0, 1, 2) at (0.05, -0.95): its exact value -9.6e-12 reads 0.0,
# the rounding of terms of order 1; every other value is within 3.6e-14.
VALUE_BOUND = 2e-11
# The largest difference allowed between the point residual of the check
# and the reference's, which reads the exact values rounded to doubles.
# The worst measured is 2.0e-11, relation-y of the same system at n = 8,
# whose row 7 reads P_{8,7}; the next, 1.4e-12, is relation-x there.
POINT_BOUND = 5e-11


def merge(out, terms):
    """Add the coefficient map terms into out, key by key, and return out;
    a key whose sum vanishes is dropped, a new key goes to the end."""
    for key, c in terms.items():
        acc = out.get(key, 0) + c
        if acc:
            out[key] = acc
        else:
            out.pop(key, None)
    return out


def exact_values(sys_obj, top, points):
    """{(k, m, i): P_{k,m}(points[i])} for k <= top: the exact expansion
    (``expand_P``) evaluated in rationals at the point read exactly."""
    exact = [(Fraction(x), Fraction(y)) for x, y in points]
    return {(k, m, i): sys_obj.expand_P(k, m).eval(x, y)
            for k in range(top + 1) for m in range(k + 1)
            for i, (x, y) in enumerate(exact)}


def reference_float_details(sys_obj, n, axis, points, exact, tol=1e-10):
    """The float check's details, its coefficient residual from a dict per
    term, one for the rhs and one for the residual (every basis coefficient
    and band entry rounded to a double on each call, each row's rhs merged
    term by term), and its point residual from the exact basis values
    rounded to doubles, each row's sides summed in entry order."""
    mats = ortho2d.verify._relation_matrices(sys_obj, n, axis)
    dx, dy = (1, 0) if axis == "x" else (0, 1)

    def float_map(n, m):
        d, terms = sys_obj._P_int(n, m)
        return {(i, j): c / d for i, j, c in terms}

    def max_abs(terms):
        return max(map(abs, terms.values()), default=0.0)

    polys = [[float_map(n + d, c) for c in range(n + d + 1)]
             for d in (1, 0, -1)]
    max_coeff = 0.0
    max_point = 0.0
    for m in range(n + 1):
        lhs = {(i + dx, j + dy): c for (i, j), c in polys[1][m].items()}
        rounded = [(maps[c], float(raw), n + d, c)
                   for mat, maps, d in zip(mats, polys, (1, 0, -1))
                   for c, raw in _rows(mat)[m]]
        terms = [{k: coeff * entry for k, coeff in poly.items()}
                 for poly, entry, _, _ in rounded if entry]
        rhs = {}
        for t in terms:
            merge(rhs, t)
        residual = merge(dict(lhs), {k: -c for k, c in rhs.items()})
        scale = max([max_abs(lhs)] + [max_abs(t) for t in terms])
        max_coeff = max(max_coeff, max_abs(residual) / max(scale, 1e-300))
        for i, point in enumerate(points):
            lv = point[dy] * float(exact[n, m, i])
            rv = 0.0
            for _, entry, k, c in rounded:
                if entry:
                    rv += entry * float(exact[k, c, i])
            rel_pt = abs(lv - rv) / max(1.0, abs(lv), abs(rv))
            max_point = max(max_point, rel_pt)
    return {"n": n, "mode": "float", "max_coeff_residual": max_coeff,
            "max_point_residual": max_point if points else None,
            "tolerance": tol}


@pytest.mark.parametrize("name, params", PINNED)
def test_relation_float_details_match_the_reference(
        name, params, monkeypatch):
    sys_obj = make_system(catalog_id(name, **params))
    exact = exact_values(sys_obj, 11, FIXED_POINTS)
    for n in range(11):
        values = ortho2d.verify._basis_values(sys_obj, n, FIXED_POINTS)
        for d, k in enumerate((n + 1, n, n - 1)):
            assert len(values[d]) == max(k + 1, 0)
            for m, per_point in enumerate(values[d]):
                for i, v in enumerate(per_point):
                    want = exact[k, m, i]
                    assert abs(Fraction(v) - want) <= (
                        VALUE_BOUND * max(1, abs(want))), (k, m, i)
    for perturbed in (False, True):
        if perturbed:
            _perturb_an_a_entry(monkeypatch)
        for n in range(11):
            for axis in ("x", "y"):
                for points in (FIXED_POINTS, []):
                    got = verify_relation(sys_obj, n, axis, mode="float",
                                          points=points).details
                    want = reference_float_details(sys_obj, n, axis, points,
                                                   exact)
                    where = (perturbed, n, axis, points)
                    point, want_point = (got.pop("max_point_residual"),
                                         want.pop("max_point_residual"))
                    # the coefficient half to the last bit
                    assert repr(got) == repr(want), where
                    if points:
                        assert abs(point - want_point) <= POINT_BOUND, where
                    else:
                        assert point is want_point is None, where


@pytest.mark.parametrize("name, params", [
    ("simplex", {"alpha": "1/2", "beta": "1/2", "gamma": "1/2"}),
    ("bessel-laguerre", {"g": "5", "gamma": "2/5"}),
    ("laguerre-jacobi", {"alpha": "1", "beta": "1/2"}),
])
@pytest.mark.parametrize("axis, which, position", [
    ("x", 0, (0, 0)),  # A_x[0][0]
    ("y", 1, (1, 1)),  # B_y[1][1]
])
def test_relation_float_point_residual_catches_a_relative_fault_of_1e_8(
        name, params, axis, which, position, monkeypatch):
    # The point residual alone reads the fault: 7.7e-10 to 3.7e-6 here.
    _perturb_entry(monkeypatch, which, "100000001/100000000", position)
    sys_obj = make_system(catalog_id(name, **params))
    for n in (4, 16):
        res = verify_relation(sys_obj, n, axis, mode="float",
                              points=FIXED_POINTS)
        assert res.passed is False
        assert res.details["max_point_residual"] > res.details["tolerance"]


@pytest.mark.parametrize("max_degree", [10, 16])
def test_the_readme_float_example_passes_both_relation_checks(max_degree):
    # ortho2d verify simplex --alpha 1/2 --beta 1/2 --gamma 1/2
    #     --mode float --points 50 --seed 7 --max-n <max_degree>
    report = run_suite(
        catalog_id("simplex", alpha="1/2", beta="1/2", gamma="1/2"),
        max_degree, mode="float", points=50, seed=7)
    checks = {c.name: c for c in report.checks}
    for axis in ("x", "y"):
        details = checks[f"relation-{axis}"].details
        assert checks[f"relation-{axis}"].passed, details
        assert details["max_point_residual"] <= 1e-10
    assert report.ok


def _sign_flipped_coeffs_int(self, n):
    """``RecurrenceFamily._coeffs_int`` with the b-term's sign flipped from
    j = 2 on: p_{j+1} = ((x + b_j) p_j - c_j p_{j-1}) / a_j there."""
    prev, cur = [], [_RAT(1)]
    for j in range(n):
        b = self.b(j) if j < 2 else -self.b(j)
        new = [_RAT(0)] + cur
        for i, v in enumerate(cur):
            new[i] -= b * v
        for i, v in enumerate(prev):
            new[i] -= self.c(j) * v
        prev, cur = cur, [v / self.a(j) for v in new]
    return _int_list(cur)


def test_relation_float_catches_the_sign_flipped_basis_by_its_coefficients(
        monkeypatch):
    # The basis forms of the mutant are wrong from degree 3 on, while the
    # relation matrices and the recurrences stay right: the coefficient
    # residual, which reads the basis forms, fails the check; the point
    # residual reads the recurrences and so, by design, misses it.
    monkeypatch.setattr(RecurrenceFamily, "_coeffs_int",
                        _sign_flipped_coeffs_int)
    sys_obj = make_system(
        catalog_id("square", alpha=1, beta=2, gamma=0, delta="1/2"))
    for axis in ("x", "y"):
        res = verify_relation(sys_obj, 3, axis, mode="float",
                              points=FIXED_POINTS)
        assert res.passed is False
        assert res.details["max_coeff_residual"] > 1e-2
        assert res.details["max_point_residual"] <= res.details["tolerance"]


@pytest.mark.parametrize("axis, point", [
    ("x", (float("inf"), 0.5)),
    ("y", (float("nan"), 0.5)),
    ("x", (0.5, float("-inf"))),
])
def test_relation_float_rejects_a_non_finite_point(disk, axis, point):
    with pytest.raises(ValueError, match="finite"):
        verify_relation(disk, 3, axis, mode="float", points=[point])


def _with_entry(sys_obj, n, axis, index, matrix):
    """Put matrix in place of A (index 0), B (1) or C (2) of the cached
    relation of sys_obj at degree n."""
    mats = list(ortho2d.verify._relation_matrices(sys_obj, n, axis))
    mats[index] = matrix
    sys_obj._ttr_cache[(n, axis)] = tuple(mats)


# A double near the largest: twice it, or it over a norm below 1,
# overflows to inf.
HUGE = 17 * 10 ** 307


def test_relation_float_refuses_a_side_that_overflows_at_a_point():
    # Both sides evaluate to inf at this point: their difference is a NaN,
    # which a max would drop, reading a pass.
    sys_obj = make_system(catalog_id("disk", mu="1/2"))
    with pytest.raises(OverflowError, match=r"^relation-x at n = 1, row 0: "
                       r"a side overflows a double at the point "
                       r"\(1\.3e\+154, 1\.3e\+154\)$"):
        verify_relation(sys_obj, 1, "x", mode="float",
                        points=[(1.3e154, 1.3e154)])


def test_relation_float_refuses_an_overflowing_coefficient():
    sys_obj = make_system(catalog_id("disk", mu="1/2"))
    _with_entry(sys_obj, 1, "x", 1, BandMatrix(2, 2, 0, 0, {(0, 0): HUGE}))
    with pytest.raises(OverflowError, match="relation-x at n = 1, row 0"):
        verify_relation(sys_obj, 1, "x", mode="float")


@pytest.mark.parametrize("name, params, n, index, shape", [
    # A~ overflows, and so does the scale: inf / inf is a NaN, which a max
    # would drop, reading a pass.
    ("laguerre-jacobi", {"alpha": 1, "beta": "1/2"}, 0, 0, (1, 2)),
    # C~ alone overflows: the residual would read inf.
    ("disk", {"mu": "1/2"}, 1, 2, (2, 1)),
])
def test_orthonormal_transpose_refuses_an_overflowing_entry(
        name, params, n, index, shape):
    sys_obj = make_system(catalog_id(name, **params))
    _with_entry(sys_obj, n, "x", index,
                BandMatrix(*shape, 0, 0, {(0, 0): HUGE}))
    with pytest.raises(OverflowError, match="orthonormal-transpose"):
        verify_orthonormal_transpose(sys_obj, 1)


@pytest.mark.parametrize("sign", [1, -1])
def test_float_checks_name_an_entry_beyond_the_doubles(sign):
    # an exact band entry that no double holds reads as an infinity, which
    # each check refuses by name, not with Python's bare division error
    sys_obj = make_system(catalog_id("disk", mu="1/2"))
    _with_entry(sys_obj, 1, "x", 1,
                BandMatrix(2, 2, 0, 0, {(0, 0): sign * 10 ** 400}))
    with pytest.raises(OverflowError, match=r"^relation-x at n = 1, row 0: "
                       r"a coefficient of the relation overflows a double$"):
        verify_relation(sys_obj, 1, "x", mode="float")
    _with_entry(sys_obj, 0, "x", 0,
                BandMatrix(1, 2, 0, 0, {(0, 0): sign * 10 ** 400}))
    with pytest.raises(OverflowError, match=r"^orthonormal-transpose at "
                       r"n = 0, axis x: overflows a double$"):
        verify_orthonormal_transpose(sys_obj, 1)


def test_orthonormal_transpose_names_an_overflowing_norm():
    sys_obj = make_system(catalog_id("disk", mu="1e400"))
    with pytest.raises(OverflowError,
                       match=r"orthonormal-transpose at n = 1, row 0"):
        verify_orthonormal_transpose(sys_obj, 2)
    # a norm that rounds to 0.0 would be divided by: it is refused alike
    sys_obj = make_system(catalog_id("biangle", alpha="1e400", beta="0"))
    for _ in range(2):  # and refused again, nothing having been stored
        with pytest.raises(OverflowError, match=r"orthonormal-transpose at "
                           r"n = 1, row 1: the squared norm underflows"):
            verify_orthonormal_transpose(sys_obj, 2)


def test_relation_float_names_an_overflowing_basis_coefficient():
    sys_obj = make_system(catalog_id("biangle", alpha="1e400", beta="0"))
    with pytest.raises(OverflowError, match=r"relation-x at n = 1: a "
                       r"coefficient of the \(2,0\) basis polynomial "
                       r"overflows a double"):
        verify_relation(sys_obj, 1, "x", mode="float")
    # the exact check of the same system needs no double
    assert verify_relation(sys_obj, 1, "x").passed


def test_relation_float_names_a_huge_point_as_a_side_that_overflows():
    # rho(x)^2 = 1 - x^2 and the ladder values are beyond the doubles at
    # x = 1e300: the side that reads them is refused, naming the check, n,
    # the row and the point, not read as a pass or a bare range error
    sys_obj = make_system(catalog_id("disk", mu="1/2"))
    with pytest.raises(OverflowError, match=r"^relation-x at n = 3, row 0: "
                       r"a side overflows a double at the point "
                       r"\(1e\+300, 0\.5\)$"):
        verify_relation(sys_obj, 3, "x", mode="float",
                        points=[(1e300, 0.5)])


def test_orthonormal_transpose_detects_a_wrong_entry(disk, monkeypatch):
    _perturb_an_a_entry(monkeypatch)
    res = verify_orthonormal_transpose(disk, 3)
    assert res.passed is False
    assert res.details["max_residual"] > res.details["tolerance"]


def test_relation_argument_validation(disk):
    with pytest.raises(ValueError):
        verify_relation(disk, 1, "z")
    with pytest.raises(ValueError):
        verify_relation(disk, -1, "x")
    with pytest.raises(ValueError):
        verify_relation(disk, 1, "x", mode="symbolic")


# -- verify_orthogonality --------------------------------------------------


def test_orthogonality_passes(disk):
    res = verify_orthogonality(disk, 4)
    assert res.passed
    assert res.details == {"max_degree": 4}


def test_orthogonality_reports_a_faulty_block(disk):
    sys_obj = make_system(catalog_id("disk", mu="1/2"))
    # fault injection: plant corrupted raw rows (den, [ints]) of a
    # cross-degree block, 0 and 1
    sys_obj._oracle._gram[(1, 0, 0, 0)] = [(1, [0]), (1, [1])]
    res = verify_orthogonality(sys_obj, 2)
    assert not res.passed
    assert res.details["kind"] == "cross-degree block not zero"
    assert (res.details["n"], res.details["h"]) == (1, 0)
    assert (res.details["m"], res.details["mp"]) == (1, 0)


def test_orthogonality_reports_a_non_diagonal_block():
    sys_obj = make_system(catalog_id("disk", mu="1/2"))
    good = sys_obj._oracle.rows(2, 2)
    # fault injection: one off-diagonal entry of H_2 planted as 3, an int
    # over its row's denominator
    den, ints = good[2]
    sys_obj._oracle._gram[(2, 2, 0, 0)] = [
        good[0], good[1], (den, [ints[0], 3 * den, ints[2]])]
    res = verify_orthogonality(sys_obj, 3)
    assert not res.passed
    assert res.details == {"max_degree": 3,
                           "kind": "diagonal block not diagonal",
                           "n": 2, "m": 2, "mp": 1, "value": "3"}


def test_orthogonality_reports_wrong_norm(disk):
    sys_obj = make_system(catalog_id("disk", mu="1/2"))
    good = sys_obj._oracle.rows(1, 1)
    # fault injection: the first diagonal entry of H_1 planted one larger
    den, ints = good[0]
    sys_obj._oracle._gram[(1, 1, 0, 0)] = [
        (den, [ints[0] + den, ints[1]]),
        good[1],
    ]
    res = verify_orthogonality(sys_obj, 1)
    assert not res.passed
    assert res.details["kind"] == "norm mismatch"


# -- verify_central_symmetry -----------------------------------------------


def test_central_symmetry_symmetric_case(disk):
    res = verify_central_symmetry(disk, 3)
    assert res.passed
    assert res.details["odd_moments_vanish"] is True
    assert res.details["b_matrices_zero"] is True
    assert res.details["first_nonzero_odd_moment"] is None
    assert res.details["first_nonzero_b"] is None


def test_central_symmetry_asymmetric_case(asymmetric_square):
    res = verify_central_symmetry(asymmetric_square, 3)
    # both verdicts are 'no', independently; the equivalence still holds
    assert res.passed
    assert res.details["odd_moments_vanish"] is False
    assert res.details["b_matrices_zero"] is False
    assert res.details["first_nonzero_odd_moment"] is not None
    assert res.details["first_nonzero_b"] is not None


# -- verify_orthonormal_transpose --------------------------------------------


def test_orthonormal_transpose_positive_definite(disk):
    res = verify_orthonormal_transpose(disk, 4)
    assert res.passed
    assert res.details["max_residual"] <= 1e-10


def test_orthonormal_transpose_residuals_are_pinned(asymmetric_square):
    # The largest transpose residual, to the last bit, to degree 12.
    lj = make_system(catalog_id("laguerre-jacobi", alpha=1, beta="1/2"))
    for sys_obj, want in ((asymmetric_square, 2.220446049250313e-16),
                          (lj, 5.597692996922351e-16)):
        res = verify_orthonormal_transpose(sys_obj, 12)
        assert res.passed
        assert repr(res.details) == repr(
            {"max_degree": 12, "max_residual": want, "tolerance": 1e-10})


def test_orthonormal_transpose_rejects_indefinite():
    sys_obj = make_system(catalog_id("bessel-laguerre", g=5, gamma="2/5"))
    for _ in range(2):  # a failed degree is not stored, so it fails again
        with pytest.raises(NotPositiveDefiniteError,
                           match="not positive-definite"):
            verify_orthonormal_transpose(sys_obj, 3)


# -- run_suite -----------------------------------------------------------------


def test_run_suite_exact(disk):
    report = run_suite(catalog_id("disk", mu="1/2"), 4)
    assert report.ok
    assert [c.name for c in report.checks] == [
        "cross-check", "relation-x", "relation-y",
        "orthogonality", "rank-conditions", "central-symmetry"]
    obj = report.to_obj()
    assert obj["passed"] is True
    assert all(c["status"] == "pass" for c in obj["checks"])
    assert obj["family"] == "disk(mu=1/2)"


def test_run_suite_float_reports_residuals():
    report = run_suite(catalog_id("disk", mu="1/2"), 3,
                       mode="float", points=5, seed=7)
    assert report.ok
    rel = {c.name: c for c in report.checks}
    assert rel["relation-x"].details["max_coeff_residual"] < 1e-12
    assert rel["relation-y"].details["max_point_residual"] < 1e-12


def test_run_suite_corrupt_fails_cross_check_only():
    report = run_suite(catalog_id("disk", mu="1/2"), 2, corrupt=True)
    assert not report.ok
    by_name = {c.name: c.passed for c in report.checks}
    assert by_name["cross-check"] is False
    assert all(passed for name, passed in by_name.items()
               if name != "cross-check")


def test_run_suite_validates_mode():
    with pytest.raises(ValueError):
        run_suite(catalog_id("disk", mu="1/2"), 2, mode="fuzzy")


@pytest.mark.parametrize("bad", [-1, True, 1.0])
def test_a_bool_or_float_degree_is_refused(disk, bad, monkeypatch):
    for call in (lambda: verify_relation(disk, bad, "x"),
                 lambda: verify_orthogonality(disk, bad),
                 lambda: verify_central_symmetry(disk, bad),
                 lambda: verify_orthonormal_transpose(disk, bad)):
        with pytest.raises(ValueError, match="degree"):
            call()

    def no_work(cid):
        raise AssertionError("a system was built")

    monkeypatch.setattr(ortho2d.verify, "make_system", no_work)
    with pytest.raises(ValueError, match="max_degree"):
        run_suite(catalog_id("disk", mu="1/2"), bad)


@pytest.mark.parametrize("points", [-3, -1, 2.0, "5", None, True])
def test_run_suite_refuses_a_bad_point_count_before_any_work(
        points, monkeypatch):
    def no_work(cid):
        raise AssertionError("a system was built")

    monkeypatch.setattr(ortho2d.verify, "make_system", no_work)
    for mode in ("exact", "float"):
        with pytest.raises(ValueError, match="points"):
            run_suite(catalog_id("disk", mu="1/2"), 1, mode=mode,
                      points=points)


def test_run_suite_float_without_points_reports_no_point_residual():
    report = run_suite(catalog_id("disk", mu="1/2"), 1, mode="float")
    for check in report.checks[1:3]:
        assert check.details["max_point_residual"] is None
