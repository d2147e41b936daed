"""Verification suite for assembled systems and their matrix relations.

Four independent checks, each returning a structured CheckResult:

* ``verify_relation`` -- the vector three-term relation along one axis at
  one degree: exactly (residual polynomial must vanish identically) or in
  floating point (coefficient residuals and optional random-point
  residuals within a relative tolerance).  Both modes sum each row's
  residual in one dense list on one flat monomial index that does not
  depend on the degree, k(i, j) = (i + j)(i + j + 1)/2 + j, through each
  basis polynomial's index lists, formed once per system (``_indices``).
  Exact mode sums in plain ints, reading each basis polynomial's cached
  integer form, and forms a rational only for a failing row.
  Float mode reads each basis polynomial rounded to doubles once per
  system (``BivariateSystem._P_float``), with its largest |coefficient|,
  rounds the band entries once per call, and keeps the coefficient
  residual as a running max.
  Its point residual reads no monomial: the basis values at the points
  come from the univariate recurrences (``_basis_values``), in O(n^2)
  per point, shared by every row.  Both modes read the stored band
  entries of the relation matrices cached on the system
  (``ttr.first_ttr``/``second_ttr``) through ``_rows``.
* ``verify_orthogonality`` -- Gram blocks of unequal degrees vanish and
  diagonal blocks are diagonal with the predicted norms, in one scan
  over the blocks of the system's Gram oracle.
* ``verify_central_symmetry`` -- the equivalence "all odd moments vanish
  iff both B matrices vanish", checked from both sides independently.
* ``verify_orthonormal_transpose`` -- for positive-definite systems the
  norm-rescaled matrices satisfy the transpose identity
  C~_{n+1,i} = A~_{n,i}^t in floating point, to the fixed relative
  bound 1e-10 that is also ``verify_relation``'s default, on the stored
  entries of both matrices rounded to doubles on each call and the
  square roots of the block norms rounded once per system;
  non-positive-definite input is rejected with NotPositiveDefiniteError.

``run_suite`` bundles cross-check, relations, orthogonality, ranks and
central symmetry into one VerifyReport.
"""
from __future__ import annotations

import math
import random
from typing import NamedTuple

from .catalog import cross_check, make_system
from .numerics import _RAT, _check_index, _rows
from .ttr import SHIFTS, first_ttr, rank_conditions, second_ttr

_TINY = 1e-300
# The relative bound of both float checks: verify_relation's default tol
# and verify_orthonormal_transpose's fixed bound.
_TOL = 1e-10


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


def _double(raw):
    """A rational rounded to a double; one beyond the doubles reads as the
    infinity of its sign, which every float check refuses by name."""
    try:
        return float(raw)
    except OverflowError:
        return math.inf if raw > 0 else -math.inf


def _relation_matrices(sys, n, axis):
    if axis == "x":
        return first_ttr(sys, n)
    if axis == "y":
        return second_ttr(sys, n)
    raise ValueError(f"axis must be 'x' or 'y', got {axis!r}")


def _indices(sys, n, m):
    """The flat indices of the (n, m) basis polynomial's monomials, in the
    term order of ``_P_int`` and ``_P_float``, as three lists: of x^i y^j,
    k(i, j) = (i + j)(i + j + 1)/2 + j, and of x and of y times it, k + i
    + j + 1 and k + i + j + 2.  Built once per system
    (``BivariateSystem._index_cache``)."""
    cached = sys._index_cache.get((n, m))
    if cached is None:
        terms = sys._P_int(n, m)[1]
        degrees = [i + j for i, j, _ in terms]
        plain = [s * (s + 1) // 2 + j for s, (_, j, _) in zip(degrees, terms)]
        cached = (plain, [k + s + 1 for k, s in zip(plain, degrees)],
                  [k + s + 2 for k, s in zip(plain, degrees)])
        sys._index_cache[(n, m)] = cached
    return cached


def _exact_failure(sys, n, axis):
    """The first row m of t P_n = A P_{n+1} + B P_n + C P_{n-1} whose
    residual does not vanish, as (m, (i, j), coefficient) with (i, j) its
    lexicographically smallest monomial; None when every row holds.

    Each basis polynomial is read as integers over its own denominator
    (``BivariateSystem._P_int``) with its flat indices (``_indices``).  A
    row's lhs and its entry * polynomial terms are brought over one lcm L
    and the residual is summed in plain ints, in one dense list over the
    (n + 2)(n + 3)/2 monomials of degree <= n + 1.  The index orders them
    by degree, so only a failing row looks up its smallest monomial, and
    only its coefficient becomes a rational num / L.
    """
    mats = [_rows(mat) for mat in _relation_matrices(sys, n, axis)]
    shifted = 1 + SHIFTS[axis][1]  # t P_{n,m}: the x- or y-shifted indices
    # A, B and C multiply the basis polynomials of degree n + 1, n, n - 1,
    # each as (d, [(i, j, c)], index lists).
    forms = [[(*sys._P_int(k, c), _indices(sys, k, c)) for c in range(k + 1)]
             for k in (n + 1, n, n - 1)]
    for m in range(n + 1):
        d_lhs, lhs, lhs_at = forms[1][m]
        # Each term of the rhs as (numerator, denominator, form).
        terms = [(int(entry.numerator), int(entry.denominator) * polys[c][0],
                  polys[c])
                 for rows, polys in zip(mats, forms)
                 for c, entry in rows[m]]
        lcm = math.lcm(d_lhs, *(den for _, den, _ in terms))
        scale = lcm // d_lhs
        residual = [0] * ((n + 2) * (n + 3) // 2)
        for k, (_, _, c) in zip(lhs_at[shifted], lhs):
            residual[k] = c * scale
        for num, den, (_, poly, at) in terms:
            factor = num * (lcm // den)
            for k, (_, _, c) in zip(at[0], poly):
                residual[k] -= factor * c
        if any(residual):
            monomials = [(s - j, j) for s in range(n + 2)
                         for j in range(s + 1)]
            (i, j), k = min((monomials[k], k)
                            for k, v in enumerate(residual) if v)
            return m, (i, j), _RAT(residual[k], lcm)
    return None


def _basis_values(sys, n, points):
    """The basis polynomials of degrees n + 1, n and n - 1 at the points,
    in doubles, from the ingredients: values[d][m] lists P_{n+1-d,m}(x, y)
    per point.

    P_{k,m} = p_{k-m}^{(m)}(x) Q_m with Q_m = rho^m q_m(y / rho), each
    factor by its family's recurrence on the doubles of
    ``RecurrenceFamily._float_coeffs``.  Q is homogenised,
    Q_{j+1} = (y / a_j - r b_j / a_j) Q_j - r^2 c_j / a_j Q_{j-1} with
    r = rho(x), so it never divides by rho; where rho is not a polynomial
    q is symmetric, every b_j is zero and only r^2 = rho(x)^2 enters.  A
    value beyond the doubles is left as it is, for the residual to refuse.
    """
    xs = [x for x, _ in points]
    ys = [y for _, y in points]
    rho = sys.rho
    if rho.r1 is None:
        r = [0.0] * len(xs)
        s2, s1, s0 = map(_double, (rho.s2, rho.s1, rho.s0))
        r2 = [(s2 * x + s1) * x + s0 for x in xs]
    else:
        r1, r0 = _double(rho.r1), _double(rho.r0)
        r = [r1 * x + r0 for x in xs]
        r2 = [v * v for v in r]
    ones = [1.0] * len(xs)
    zeros = [0.0] * len(xs)
    A, B, C = sys.q._float_coeffs(n)
    Q = [ones]
    prev = zeros
    for a, b, c in zip(A, B, C[:n + 1]):
        cur = Q[-1]
        Q.append([(a * y - b * s) * v - c * t * u
                  for y, s, t, v, u in zip(ys, r, r2, cur, prev)])
        prev = cur
    values = ([], [], [])
    for m in range(n + 2):
        top = n + 1 - m  # the ladder's degree in P_{n+1,m}
        p = [ones]
        if top:
            A, B, C = sys.ladder(m)._float_coeffs(top - 1)
            prev = zeros
            for a, b, c in zip(A[:top], B, C):
                cur = p[-1]
                p.append([(a * x - b) * v - c * u
                          for x, v, u in zip(xs, cur, prev)])
                prev = cur
        for d in range(min(3, top + 1)):
            values[d].append([v * w for v, w in zip(p[top - d], Q[m])])
    return values


def verify_relation(sys, n, axis, mode="exact", points=None, tol=_TOL):
    """Check the three-term relation along one axis at degree n.

    Exact mode requires each residual polynomial to vanish identically and
    reports the first row that does not, with its smallest monomial; the
    residuals are summed in integers (``_exact_failure``).  Float mode
    bounds two relative residuals per row by tol, with the band entries
    rounded to doubles once per call:

    * the coefficient residual: t P_{n,m} minus the rhs, summed on the
      basis polynomials rounded to doubles once per system
      (``BivariateSystem._P_float``) in one dense list on their flat
      indices (``_indices``), over the largest |term|;
    * if points are supplied, the point residual |lv - rv| / max(1, |lv|,
      |rv|) at each point, with lv = t P_{n,m}(x, y) and rv the sum of
      entry * value over the row's stored entries.  The values come from
      the ingredients (``_basis_values``), not from the monomials, so the
      residual measures the relation's own rounding, not the cancellation
      of a monomial sum.  A fault that only the basis forms carry is left
      to the coefficient residual.

    A tol that is no finite positive int or float (a bool included), in
    either mode, or a non-finite point coordinate is a ValueError; a basis
    or recurrence coefficient, band entry, residual or side beyond the
    doubles, an OverflowError naming the check, n and what overflowed.
    """
    _check_index(n, "degree")
    if mode not in ("exact", "float"):
        raise ValueError(f"mode must be 'exact' or 'float', got {mode!r}")
    if (isinstance(tol, bool) or not isinstance(tol, (int, float))
            or not 0 < tol < math.inf):
        raise ValueError(f"tol must be a finite positive number, got {tol!r}")
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

    mats = [_rows(mat) for mat in _relation_matrices(sys, n, axis)]
    dy = SHIFTS[axis][1]
    # A, B and C multiply the basis polynomials of degree n + 1, n, n - 1.
    degrees = (n + 1, n, n - 1)
    try:
        polys = [[sys._P_float(k, c) for c in range(k + 1)] for k in degrees]
        values = _basis_values(sys, n, points) if points else None
    except OverflowError as exc:
        raise OverflowError(f"{name} at n = {n}: {exc}") from None
    at = [[_indices(sys, k, c) for c in range(k + 1)] for k in degrees]
    ts = [point[dy] for point in points]  # t: x or y, by the axis
    max_coeff = 0.0
    max_point = 0.0
    for m in range(n + 1):
        lhs, scale = polys[1][m]  # t P_{n,m}, keyed before the shift
        residual = [0.0] * ((n + 2) * (n + 3) // 2)  # the rhs, summed first
        used = []  # (entry, values of its basis polynomial) at the points
        for d, (rows, row, row_at) in enumerate(zip(mats, polys, at)):
            for c, raw in rows[m]:
                entry = _double(raw)
                if not entry:
                    continue
                if values:
                    used.append((entry, values[d][c]))
                poly, peak = row[c]
                scale = max(scale, peak * abs(entry))
                for k, coeff in zip(row_at[c][0], poly.values()):
                    residual[k] += coeff * entry
        # t P_{n,m} - rhs.
        for k, v in zip(at[1][m][1 + dy], lhs.values()):
            residual[k] = v - residual[k]
        worst = max(map(abs, residual))
        if not (math.isfinite(scale) and math.isfinite(worst)):
            raise OverflowError(f"{name} at n = {n}, row {m}: a coefficient "
                                f"of the relation overflows a double")
        max_coeff = max(max_coeff, worst / max(scale, _TINY))
        if not values:
            continue
        lvs = [t * v for t, v in zip(ts, values[1][m])]
        rvs = [0.0] * len(points)
        for entry, vals in used:
            rvs = [s + entry * v for s, v in zip(rvs, vals)]
        rels = [abs(lv - rv) / max(1.0, abs(lv), abs(rv))
                for lv, rv in zip(lvs, rvs)]
        # Each finite rel is at most 2, so the sum is finite unless a side
        # or its difference is not.
        if not math.isfinite(sum(rels)):
            bad = next(k for k, v in enumerate(rels) if not math.isfinite(v))
            raise OverflowError(f"{name} at n = {n}, row {m}: a side "
                                f"overflows a double at the point "
                                f"{points[bad]}")
        max_point = max(max_point, *rels)
    passed = max_coeff <= tol and max_point <= tol
    return CheckResult(name, passed, {
        "n": n, "mode": "float",
        "max_coeff_residual": max_coeff,
        "max_point_residual": max_point if points else None,
        "tolerance": tol})


def verify_orthogonality(sys, max_degree):
    """Gram blocks up to max_degree: off-degree blocks vanish, diagonal
    blocks are diagonal with the closed-form norms on the diagonal.

    One scan of the Gram oracle's blocks <w, P_n P_h^t> for n =
    0..max_degree and h = 0..n (``oracle.GramOracle.orthogonality_failure``)
    reports the first entry that fails: a nonzero one off the degree or
    off the diagonal, or a diagonal one unequal to ``block_norm``."""
    _check_index(max_degree, "max_degree")
    found = sys._oracle.orthogonality_failure(max_degree, sys.block_norm)
    if found is None:
        return CheckResult("orthogonality", True, {"max_degree": max_degree})
    kind, where = found
    return CheckResult("orthogonality", False, {
        "max_degree": max_degree, "kind": kind, **where})


def verify_central_symmetry(sys, max_degree):
    """Check that all odd moments (to total degree 2 * max_degree + 1, the
    details' ``moment_bound``) vanish iff both B matrices vanish at every
    degree: both sides are decided independently, and must agree."""
    _check_index(max_degree, "max_degree")
    moment_bound = 2 * max_degree + 1
    first_moment = next(([h, t - h] for t in range(1, moment_bound + 1, 2)
                         for h in range(t + 1) if sys.w_moment(h, t - h)),
                        None)
    first_b = next(({"n": n, "axis": axis} for n in range(max_degree + 1)
                    for axis in SHIFTS
                    if not _relation_matrices(sys, n, axis)[1].is_zero),
                   None)
    odd_ok, b_ok = first_moment is None, first_b is None
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
    return {(r, c): _double(raw) * inv[r] * d_cols[c]
            for r, row in enumerate(_rows(matrix)) for c, raw in row}


def _norm_roots(sys, n):
    """[sqrt(h_{n,m}) for m = 0..n] as doubles, each squared norm
    (``block_norm``) rounded once; built once per system and degree, and
    stored only when every norm of the degree is positive and its root
    neither overflows nor underflows a double."""
    roots = sys._root_cache.get(n)
    if roots is None:
        roots = []
        for m in range(n + 1):
            h = sys.block_norm(n, m)
            if h <= 0:
                raise NotPositiveDefiniteError(
                    f"{sys.label} is not positive-definite: squared norm "
                    f"of the ({n},{m}) basis polynomial is {h}")
            root = math.sqrt(_double(h))
            if not 0.0 < root < math.inf:
                flow = "underflows" if root == 0.0 else "overflows"
                raise OverflowError(
                    f"orthonormal-transpose at n = {n}, row {m}: the "
                    f"squared norm {flow} a double")
            roots.append(root)
        sys._root_cache[n] = roots
    return roots


def verify_orthonormal_transpose(sys, max_degree):
    """For a positive-definite system, check the float transpose identity
    between the norm-rescaled raising and lowering matrices, to the fixed
    relative bound 1e-10 (``_TOL``, reported as ``tolerance``).

    Only stored entries are compared: a position where both A~ and C~^t
    hold zero adds |0.0 - 0.0| = 0.0 to a max, which leaves it as it is.
    An entry or residual that overflows a double is an OverflowError."""
    _check_index(max_degree, "max_degree")
    norms = [_norm_roots(sys, n) for n in range(max_degree + 1)]
    worst = 0.0
    for n in range(max_degree):
        d_n = norms[n]
        d_up = norms[n + 1]
        for axis in SHIFTS:
            a_tilde = _orthonormal(_relation_matrices(sys, n, axis)[0],
                                   d_n, d_up)
            # C~_{n+1} transposed, keyed like A~.
            c_tilde_t = {(c, r): v for (r, c), v in _orthonormal(
                _relation_matrices(sys, n + 1, axis)[2], d_up, d_n).items()}
            scale = max([1.0, *map(abs, a_tilde.values())])
            diff = max((abs(c_tilde_t.get(key, 0.0) - a_tilde.get(key, 0.0))
                        for key in a_tilde.keys() | c_tilde_t.keys()),
                       default=0.0)
            if not (math.isfinite(scale) and math.isfinite(diff)):
                raise OverflowError(f"orthonormal-transpose at n = {n}, "
                                    f"axis {axis}: overflows a double")
            worst = max(worst, diff / scale)
    return CheckResult("orthonormal-transpose", worst <= _TOL, {
        "max_degree": max_degree, "max_residual": worst, "tolerance": _TOL})


def run_suite(cid, max_degree, mode="exact", points=0, seed=0, corrupt=False):
    """Full verification of one catalog family up to max_degree.

    mode='float' switches the relation checks to floating point with
    ``points`` (a non-bool int >= 0) random evaluation points per degree;
    any other count, like a bool or float max_degree, is a ValueError.
    All structural checks (cross-check, orthogonality, ranks, central
    symmetry) stay exact.
    """
    if mode not in ("exact", "float"):
        raise ValueError(f"mode must be 'exact' or 'float', got {mode!r}")
    _check_index(max_degree, "max_degree")
    _check_index(points, "points")
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
    draws = points if mode == "float" else 0
    for axis in SHIFTS:
        results = []
        for n in range(max_degree + 1):
            pts = [(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
                   for _ in range(draws)]
            results.append(
                verify_relation(sys, n, axis, mode=mode, points=pts))
        details = {"max_degree": max_degree, "mode": mode,
                   "failures": [r.details for r in results if not r.passed]}
        if mode == "float":
            details["max_coeff_residual"] = max(
                r.details["max_coeff_residual"] for r in results)
            details["max_point_residual"] = max(
                r.details["max_point_residual"] for r in results
            ) if points else None
        checks.append(CheckResult(f"relation-{axis}",
                                  not details["failures"], details))

    checks.append(verify_orthogonality(sys, max_degree))

    reports = [rank_conditions(sys, n) for n in range(max_degree + 1)]
    rank_failures = [r._asdict() for r in reports if not r.ok]
    checks.append(CheckResult("rank-conditions", not rank_failures, {
        "max_degree": max_degree, "failures": rank_failures}))

    checks.append(verify_central_symmetry(sys, max_degree))

    return VerifyReport(cid.describe(), max_degree, mode, tuple(checks))
