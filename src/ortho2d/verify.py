"""Verification suite for assembled systems and their matrix relations.

Four independent checks, each returning a structured CheckResult:

* ``verify_relation`` -- the vector three-term relation along one axis at
  one degree: exactly (residual polynomial must vanish identically) or in
  floating point (coefficient residuals and optional random-point
  residuals within a relative tolerance).  Exact mode sums each row's
  residual in plain ints, reading each basis polynomial's cached integer
  form, and forms a rational only for a failing row.
  Float mode reads each basis polynomial rounded to doubles once per
  system (``BivariateSystem._P_float``), with its largest |coefficient|,
  rounds the band entries on each call, and sums each row's rhs on one
  coefficient map, keeping the coefficient residual as a running max.
  Both read the stored band entries of the relation matrices cached on
  the system (``ttr.first_ttr``/``second_ttr``), row by row.
* ``verify_orthogonality`` -- Gram blocks of unequal degrees vanish and
  diagonal blocks are diagonal with the predicted norms.
* ``verify_central_symmetry`` -- the equivalence "all odd moments vanish
  iff both B matrices vanish", checked from both sides independently.
* ``verify_orthonormal_transpose`` -- for positive-definite systems the
  norm-rescaled matrices satisfy the transpose identity
  C~_{n+1,i} = A~_{n,i}^t in floating point, on the stored entries of
  both matrices rounded to doubles on each call and the square roots of
  the block norms rounded once per system; non-positive-definite input
  is rejected with NotPositiveDefiniteError.

``run_suite`` bundles cross-check, relations, orthogonality, ranks and
central symmetry into one VerifyReport.
"""
from __future__ import annotations

import math
import random
from typing import NamedTuple

from .catalog import cross_check, make_system
from .numerics import _RAT, _eval_terms, _powers
from .ttr import first_ttr, rank_conditions, second_ttr

_TINY = 1e-300


class NotPositiveDefiniteError(ValueError):
    """The operation requires a positive-definite system."""


class CheckResult(NamedTuple):
    """Outcome of one named check.  details is JSON-ready."""

    name: str
    passed: bool
    details: dict


class VerifyReport(NamedTuple):
    family: str
    max_degree: int
    mode: str
    checks: tuple

    @property
    def ok(self):
        return all(c.passed for c in self.checks)

    def to_obj(self):
        return {
            "family": self.family,
            "max_degree": self.max_degree,
            "mode": self.mode,
            "passed": self.ok,
            "checks": [
                {"name": c.name,
                 "status": "pass" if c.passed else "fail",
                 "details": c.details}
                for c in self.checks
            ],
        }


def _relation_matrices(sys, n, axis):
    if axis == "x":
        return first_ttr(sys, n)
    if axis == "y":
        return second_ttr(sys, n)
    raise ValueError(f"axis must be 'x' or 'y', got {axis!r}")


def _row_entries(matrix, r):
    """[(c, raw)]: the stored entries of row r, by column."""
    entries = matrix._entries
    return [(r + off, entries[r, off])
            for off in range(-matrix.lower_bandwidth,
                             matrix.upper_bandwidth + 1)
            if (r, off) in entries]


def _exact_failure(sys, n, axis):
    """The first row m of t P_n = A P_{n+1} + B P_n + C P_{n-1} whose
    residual does not vanish, as (m, (i, j), coefficient) with (i, j) its
    smallest monomial; None when every row holds.

    Each basis polynomial is read as integers over its own denominator
    (``BivariateSystem._P_int``).  A row's lhs and its entry *
    polynomial terms are brought over one lcm L and the residual is summed
    in plain ints, in a dense list indexed i * width + j, so that its first
    nonzero entry is the smallest monomial; only a failing coefficient
    becomes a rational num / L.
    """
    mats = _relation_matrices(sys, n, axis)
    width = n + 2  # no monomial exceeds degree n + 1
    shift = width if axis == "x" else 1
    # A, B and C multiply the basis polynomials of degree n + 1, n, n - 1,
    # each as (d, flat indices, coefficients).
    forms = [[_flat(sys._P_int(n + d, c), width) for c in range(n + d + 1)]
             for d in (1, 0, -1)]
    for m in range(n + 1):
        d_lhs, lhs_at, lhs_c = forms[1][m]
        # Each term of the rhs as (numerator, denominator, form).
        terms = [(int(entry.numerator), int(entry.denominator) * polys[c][0],
                  polys[c])
                 for mat, polys in zip(mats, forms)
                 for c, entry in _row_entries(mat, m)]
        lcm = math.lcm(d_lhs, *(den for _, den, _ in terms))
        scale = lcm // d_lhs
        residual = [0] * (width * width)
        for k, c in zip(lhs_at, lhs_c):
            residual[k + shift] = c * scale
        for num, den, (_, at, coeffs) in terms:
            factor = num * (lcm // den)
            for k, c in zip(at, coeffs):
                residual[k] -= factor * c
        if any(residual):
            k = next(k for k, v in enumerate(residual) if v)
            return m, divmod(k, width), _RAT(residual[k], lcm)
    return None


def _flat(form, width):
    """Integer form (d, [(i, j, c)]) as (d, [i * width + j], [c])."""
    d, terms = form
    return d, [i * width + j for i, j, _ in terms], [c for _, _, c in terms]


def verify_relation(sys, n, axis, mode="exact", points=None, tol=1e-10):
    """Check the three-term relation along one axis at degree n.

    Exact mode requires each residual polynomial to vanish identically and
    reports the first row that does not, with its smallest monomial; the
    residuals are summed in integers (``_exact_failure``).  Float mode
    sums each row's rhs from the basis polynomials rounded to doubles once
    per system (``BivariateSystem._P_float``) times the band entries
    rounded on each call, and bounds the relative coefficient residual
    (and, if points are supplied, relative residuals at those evaluation
    points) by tol.  A non-finite point coordinate is a ValueError.
    """
    if not isinstance(n, int) or n < 0:
        raise ValueError("degree must be a nonnegative int")
    if mode not in ("exact", "float"):
        raise ValueError(f"mode must be 'exact' or 'float', got {mode!r}")
    points = [(float(px), float(py)) for px, py in points or ()]
    for point in points:
        if not all(map(math.isfinite, point)):
            raise ValueError(f"evaluation points must be finite, got {point}")
    name = f"relation-{axis}"

    if mode == "exact":
        failure = _exact_failure(sys, n, axis)
        if failure is None:
            return CheckResult(name, True, {"n": n, "mode": "exact"})
        m, (i, j), coefficient = failure
        return CheckResult(name, False, {
            "n": n, "m": m, "mode": "exact",
            "monomial": [i, j], "coefficient": str(coefficient)})

    powers = [(_powers(px, n + 1), _powers(py, n + 1))
              for px, py in points]  # no monomial exceeds degree n + 1
    mats = _relation_matrices(sys, n, axis)
    dx, dy = (1, 0) if axis == "x" else (0, 1)
    # A, B and C multiply the basis polynomials of degree n + 1, n, n - 1.
    polys = [[sys._P_float(n + d, c) for c in range(n + d + 1)]
             for d in (1, 0, -1)]
    max_coeff = 0.0
    max_point = 0.0
    for m in range(n + 1):
        lhs, scale = polys[1][m]  # t P_{n,m}, keyed before the shift
        rhs = {}
        for mat, row in zip(mats, polys):
            for c, raw in _row_entries(mat, m):
                entry = float(raw)
                if not entry:
                    continue
                poly, peak = row[c]
                scale = max(scale, peak * abs(entry))
                for key, coeff in poly.items():
                    v = coeff * entry
                    acc = rhs.get(key)
                    if acc is not None:
                        v += acc
                    if v:
                        rhs[key] = v
                    else:
                        rhs.pop(key, None)
        # The largest |lhs - rhs| over the nonzero entries of the residual,
        # in the key order of lhs - rhs merged into one map: the keys of
        # lhs, then those of rhs alone; the order matters only for a NaN.
        worst = None
        for (i, j), v in lhs.items():
            rv = rhs.get((i + dx, j + dy))
            if rv is not None:
                v -= rv
                if not v:
                    continue
            v = abs(v)
            if worst is None or v > worst:
                worst = v
        for (i, j), v in rhs.items():
            if (i - dx, j - dy) not in lhs:
                v = abs(v)
                if worst is None or v > worst:
                    worst = v
        rel = (0.0 if worst is None else worst) / max(scale, _TINY)
        max_coeff = max(max_coeff, rel)
        for xs, ys in powers:
            lv = _eval_terms(lhs, xs[dx:], ys[dy:], 0.0)
            rv = _eval_terms(rhs, xs, ys, 0.0)
            rel_pt = abs(lv - rv) / max(1.0, abs(lv), abs(rv))
            max_point = max(max_point, rel_pt)
    passed = max_coeff <= tol and max_point <= tol
    return CheckResult(name, passed, {
        "n": n, "mode": "float",
        "max_coeff_residual": max_coeff,
        "max_point_residual": max_point if points else None,
        "tolerance": tol})


def verify_orthogonality(sys, max_degree):
    """Gram blocks up to max_degree: off-degree blocks vanish, diagonal
    blocks are diagonal with the closed-form norms on the diagonal."""
    if not isinstance(max_degree, int) or max_degree < 0:
        raise ValueError("max_degree must be a nonnegative int")
    for n in range(max_degree + 1):
        for h in range(n):
            block = sys.gram_block(n, h)
            for m in range(n + 1):
                for mp in range(h + 1):
                    v = block.entries[m][mp]
                    if not v.is_zero:
                        return CheckResult("orthogonality", False, {
                            "max_degree": max_degree,
                            "kind": "cross-degree block not zero",
                            "n": n, "h": h, "m": m, "mp": mp,
                            "value": str(v)})
        block = sys.gram_block(n, n)
        for m in range(n + 1):
            for mp in range(n + 1):
                v = block.entries[m][mp]
                if m != mp:
                    if not v.is_zero:
                        return CheckResult("orthogonality", False, {
                            "max_degree": max_degree,
                            "kind": "diagonal block not diagonal",
                            "n": n, "m": m, "mp": mp, "value": str(v)})
                else:
                    expected = sys.block_norm(n, m)
                    if v != expected:
                        return CheckResult("orthogonality", False, {
                            "max_degree": max_degree,
                            "kind": "norm mismatch",
                            "n": n, "m": m,
                            "gram": str(v), "predicted": str(expected)})
    return CheckResult("orthogonality", True, {"max_degree": max_degree})


def verify_central_symmetry(sys, max_degree, moment_bound=None):
    """Check the equivalence: all odd moments vanish iff both B matrices
    vanish at every degree.  Both sides are evaluated independently; the
    check passes when the two verdicts agree."""
    if not isinstance(max_degree, int) or max_degree < 0:
        raise ValueError("max_degree must be a nonnegative int")
    if moment_bound is None:
        moment_bound = 2 * max_degree + 1
    elif not isinstance(moment_bound, int) or moment_bound < 0:
        raise ValueError("moment_bound must be a nonnegative int")
    odd_ok = True
    first_moment = None
    for total in range(1, moment_bound + 1, 2):
        for h in range(total + 1):
            k = total - h
            if not sys.w_moment(h, k).is_zero:
                odd_ok = False
                first_moment = [h, k]
                break
        if not odd_ok:
            break
    b_ok = True
    first_b = None
    for n in range(max_degree + 1):
        _, bx, _ = first_ttr(sys, n)
        _, by, _ = second_ttr(sys, n)
        if not bx.is_zero:
            b_ok = False
            first_b = {"n": n, "axis": "x"}
            break
        if not by.is_zero:
            b_ok = False
            first_b = {"n": n, "axis": "y"}
            break
    return CheckResult("central-symmetry", odd_ok == b_ok, {
        "max_degree": max_degree,
        "moment_bound": moment_bound,
        "odd_moments_vanish": odd_ok,
        "first_nonzero_odd_moment": first_moment,
        "b_matrices_zero": b_ok,
        "first_nonzero_b": first_b})


def _orthonormal(matrix, d_rows, d_cols):
    """{(r, c): v * (1 / d_row) * d_col} of doubles over the stored entries
    of the exact matrix, each entry v rounded once."""
    inv = [1.0 / d for d in d_rows]
    return {(r, r + off): float(raw) * inv[r] * d_cols[r + off]
            for (r, off), raw in matrix._entries.items()}


def _norm_roots(sys, n):
    """[sqrt(h_{n,m}) for m = 0..n] as doubles, each squared norm
    (``block_norm``) rounded once; built once per system and degree, and
    stored only when every norm of the degree is positive."""
    roots = sys._root_cache.get(n)
    if roots is None:
        roots = []
        for m in range(n + 1):
            h = sys.block_norm(n, m)
            if h <= 0:
                raise NotPositiveDefiniteError(
                    f"{sys.label} is not positive-definite: squared norm "
                    f"of the ({n},{m}) basis polynomial is {h}")
            roots.append(math.sqrt(float(h)))
        sys._root_cache[n] = roots
    return roots


def verify_orthonormal_transpose(sys, max_degree, tol=1e-10):
    """For a positive-definite system, check the float transpose identity
    between the norm-rescaled raising and lowering matrices.

    Only stored entries are compared: a position where both A~ and C~^t
    hold zero adds |0.0 - 0.0| = 0.0 to a max, which leaves it as it is."""
    if not isinstance(max_degree, int) or max_degree < 0:
        raise ValueError("max_degree must be a nonnegative int")
    norms = [_norm_roots(sys, n) for n in range(max_degree + 1)]
    worst = 0.0
    for n in range(max_degree):
        d_n = norms[n]
        d_up = norms[n + 1]
        for axis in ("x", "y"):
            a_tilde = _orthonormal(_relation_matrices(sys, n, axis)[0],
                                   d_n, d_up)
            # C~_{n+1} transposed, keyed like A~.
            c_tilde_t = {(c, r): v for (r, c), v in _orthonormal(
                _relation_matrices(sys, n + 1, axis)[2], d_up, d_n).items()}
            scale = max([1.0, *map(abs, a_tilde.values())])
            diff = max((abs(c_tilde_t.get(key, 0.0) - a_tilde.get(key, 0.0))
                        for key in a_tilde.keys() | c_tilde_t.keys()),
                       default=0.0)
            worst = max(worst, diff / scale)
    return CheckResult("orthonormal-transpose", worst <= tol, {
        "max_degree": max_degree, "max_residual": worst, "tolerance": tol})


def run_suite(cid, max_degree, mode="exact", points=0, seed=0, corrupt=False):
    """Full verification of one catalog family up to max_degree.

    mode='float' switches the relation checks to floating point with
    ``points`` (an int >= 0) random evaluation points per degree; a
    negative or non-int count is a ValueError.  All structural checks
    (cross-check, orthogonality, ranks, central symmetry) stay exact.
    """
    if mode not in ("exact", "float"):
        raise ValueError(f"mode must be 'exact' or 'float', got {mode!r}")
    if type(points) is not int or points < 0:
        raise ValueError(f"points must be an int >= 0, got {points!r}")
    sys = make_system(cid)
    checks = []

    cc = cross_check(cid, max_degree, corrupt=corrupt, system=sys)
    first = [
        {"n": mm.n, "matrix": mm.matrix, "row": mm.row, "col": mm.col,
         "closed_form": str(mm.closed), "builder": str(mm.built),
         "gram": str(mm.gram)}
        for mm in cc.mismatches[:5]
    ]
    checks.append(CheckResult("cross-check", cc.ok, {
        "max_degree": max_degree,
        "mismatches": len(cc.mismatches),
        "first_mismatches": first}))

    rng = random.Random(seed)
    for axis in ("x", "y"):
        failures = []
        worst_coeff = 0.0
        worst_point = 0.0
        for n in range(max_degree + 1):
            if mode == "exact":
                res = verify_relation(sys, n, axis, mode="exact")
            else:
                pts = [(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
                       for _ in range(points)]
                res = verify_relation(sys, n, axis, mode="float", points=pts)
                worst_coeff = max(worst_coeff,
                                  res.details["max_coeff_residual"])
                if res.details["max_point_residual"] is not None:
                    worst_point = max(worst_point,
                                      res.details["max_point_residual"])
            if not res.passed:
                failures.append(res.details)
        details = {"max_degree": max_degree, "mode": mode,
                   "failures": failures}
        if mode == "float":
            details["max_coeff_residual"] = worst_coeff
            details["max_point_residual"] = worst_point if points else None
        checks.append(CheckResult(f"relation-{axis}", not failures, details))

    checks.append(verify_orthogonality(sys, max_degree))

    rank_failures = []
    for n in range(max_degree + 1):
        report = rank_conditions(sys, n)
        if not report.ok:
            rank_failures.append({
                "n": n,
                "rank_a_x": report.rank_a_x, "rank_a_y": report.rank_a_y,
                "rank_c_next_x": report.rank_c_next_x,
                "rank_c_next_y": report.rank_c_next_y,
                "rank_joint_a": report.rank_joint_a,
                "rank_joint_c": report.rank_joint_c})
    checks.append(CheckResult("rank-conditions", not rank_failures, {
        "max_degree": max_degree, "failures": rank_failures}))

    checks.append(verify_central_symmetry(sys, max_degree))

    return VerifyReport(cid.describe(), max_degree, mode, tuple(checks))
