"""The verification layer: relations, orthogonality, symmetry, transpose."""
import pytest

import ortho2d.verify
from ortho2d import (
    BandMatrix,
    NotPositiveDefiniteError,
    Scalar,
    catalog_id,
    make_system,
)
from ortho2d.numerics import _eval_terms, _powers
from ortho2d.verify import (
    _row_entries,
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


def _perturb_first_entry(monkeypatch, which):
    """Make every relation matrix lookup return A, B, C with the first
    nonzero entry of the one at position which (0 = A, 1 = B, 2 = C)
    raised by one part in a thousand."""
    original = ortho2d.verify._relation_matrices

    def perturbed(sys, n, axis):
        mats = list(original(sys, n, axis))
        mat = mats[which]
        entries = dict(mat.items())
        first = next(iter(entries))
        entries[first] = entries[first] * q("1001/1000")
        mats[which] = BandMatrix(mat.rows, mat.cols, mat.lower_bandwidth,
                                 mat.upper_bandwidth, entries)
        return tuple(mats)

    monkeypatch.setattr(ortho2d.verify, "_relation_matrices", perturbed)


def _perturb_an_a_entry(monkeypatch):
    _perturb_first_entry(monkeypatch, 0)


def test_relation_float_residuals_are_pinned(asymmetric_square):
    # Residuals of the float check, to the last bit, at three fixed points.
    points = [(0.3, -0.7), (-0.45, 0.2), (0.9, 0.61)]
    want = {
        "x": "{'n': 5, 'mode': 'float', 'max_coeff_residual': "
             "2.650042837333707e-16, 'max_point_residual': "
             "3.2656416340363568e-15, 'tolerance': 1e-10}",
        "y": "{'n': 5, 'mode': 'float', 'max_coeff_residual': "
             "5.047700642540394e-17, 'max_point_residual': "
             "4.440892098500626e-16, 'tolerance': 1e-10}",
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
    _perturb_first_entry(monkeypatch, which)
    for axis, (m, monomial, coefficient) in want.items():
        res = verify_relation(asymmetric_square, 3, axis)
        assert res.passed is False
        assert res.details == {"n": 3, "m": m, "mode": "exact",
                               "monomial": monomial,
                               "coefficient": coefficient}


# -- the float check against the per-term dict algorithm ------------------

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


def reference_float_details(sys_obj, n, axis, points, tol=1e-10):
    """The float check's details as a dict per term, one for the rhs and
    one for the residual: every basis coefficient and band entry rounded
    to a double on each call, each row's rhs merged term by term."""
    mats = ortho2d.verify._relation_matrices(sys_obj, n, axis)
    dx, dy = (1, 0) if axis == "x" else (0, 1)

    def float_map(n, m):
        d, terms = sys_obj._P_int(n, m)
        return {(i, j): c / d for i, j, c in terms}

    def max_abs(terms):
        return max(map(abs, terms.values()), default=0.0)

    polys = [[float_map(n + d, c) for c in range(n + d + 1)]
             for d in (1, 0, -1)]
    powers = [(_powers(px, n + 1), _powers(py, n + 1)) for px, py in points]
    max_coeff = 0.0
    max_point = 0.0
    for m in range(n + 1):
        lhs = {(i + dx, j + dy): c for (i, j), c in polys[1][m].items()}
        rounded = [(maps[c], float(raw))
                   for mat, maps in zip(mats, polys)
                   for c, raw in _row_entries(mat, m)]
        terms = [{k: coeff * entry for k, coeff in poly.items()}
                 for poly, entry in rounded if entry]
        rhs = {}
        for t in terms:
            merge(rhs, t)
        residual = merge(dict(lhs), {k: -c for k, c in rhs.items()})
        scale = max([max_abs(lhs)] + [max_abs(t) for t in terms])
        max_coeff = max(max_coeff, max_abs(residual) / max(scale, 1e-300))
        for xs, ys in powers:
            lv = _eval_terms(lhs, xs, ys, 0.0)
            rv = _eval_terms(rhs, xs, ys, 0.0)
            rel_pt = abs(lv - rv) / max(1.0, abs(lv), abs(rv))
            max_point = max(max_point, rel_pt)
    return {"n": n, "mode": "float", "max_coeff_residual": max_coeff,
            "max_point_residual": max_point if points else None,
            "tolerance": tol}


@pytest.mark.parametrize("name, params", PINNED)
def test_relation_float_details_match_the_dict_algorithm(
        name, params, monkeypatch):
    sys_obj = make_system(catalog_id(name, **params))
    for perturbed in (False, True):
        if perturbed:
            _perturb_an_a_entry(monkeypatch)
        for n in range(11):
            for axis in ("x", "y"):
                for points in (FIXED_POINTS, []):
                    res = verify_relation(sys_obj, n, axis, mode="float",
                                          points=points)
                    want = reference_float_details(sys_obj, n, axis, points)
                    assert repr(res.details) == repr(want), (perturbed, n,
                                                             axis, points)


@pytest.mark.parametrize("axis, point", [
    ("x", (float("inf"), 0.5)),
    ("y", (float("nan"), 0.5)),
    ("x", (0.5, float("-inf"))),
])
def test_relation_float_rejects_a_non_finite_point(disk, axis, point):
    with pytest.raises(ValueError, match="finite"):
        verify_relation(disk, 3, axis, mode="float", points=[point])


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
    # fault injection: plant corrupted raw rows of a cross-degree block
    sys_obj._gram_cache[(1, 0, 0, 0)] = [[q(0).value], [q(1).value]]
    res = verify_orthogonality(sys_obj, 2)
    assert not res.passed
    assert res.details["kind"] == "cross-degree block not zero"
    assert (res.details["n"], res.details["h"]) == (1, 0)
    assert (res.details["m"], res.details["mp"]) == (1, 0)


def test_orthogonality_reports_wrong_norm(disk):
    sys_obj = make_system(catalog_id("disk", mu="1/2"))
    good = sys_obj._gram_raw(1, 1)
    sys_obj._gram_cache[(1, 1, 0, 0)] = [
        [good[0][0] + 1, good[0][1]],
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


def test_central_symmetry_moment_bound_override(disk):
    res = verify_central_symmetry(disk, 2, moment_bound=9)
    assert res.details["moment_bound"] == 9


@pytest.mark.parametrize("bound", [-3, -1, 2.0, "5"])
def test_central_symmetry_rejects_a_bad_moment_bound(disk, bound):
    with pytest.raises(ValueError, match="moment_bound"):
        verify_central_symmetry(disk, 2, moment_bound=bound)


def test_central_symmetry_moment_bound_zero_reads_no_moment(disk):
    res = verify_central_symmetry(disk, 2, moment_bound=0)
    assert res.passed
    assert res.details["moment_bound"] == 0


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
