"""Exact scalar arithmetic, sparse bivariate polynomials, banded matrices.

Every value the package computes is a raw exact rational of the backend
(gmpy2.mpq when available, fractions.Fraction otherwise).  Three types
hold such values:

* ``Scalar`` -- an immutable exact rational at the public boundary, which
  no call returns but ``Scalar.exact`` and the ``BandMatrix`` reads.  Its
  binary operators come from one factory (``_operator``) that reads the
  other operand through ``_as_raw_exact``, so a float meeting it raises
  ModeError and an exact pipeline cannot silently degrade to doubles.
* ``SparsePoly2`` -- a read-only bivariate polynomial stored as a map from
  exponent pairs to nonzero coefficients: the public form of a basis
  polynomial.  It has no arithmetic operators; every route works on
  integer forms instead.
* ``BandMatrix`` -- a rectangular matrix that only admits entries inside a
  declared band; reads outside the band are exact zeros, writes outside it
  are errors.  ``_LAYOUT`` and ``_relation`` lay out the ``TTRSet`` matrices.

Each value is made by its type's constructor, in arithmetic, reads and
unpickling too; other modules read a SparsePoly2's ``terms`` and a
BandMatrix's stored entries through ``_rows`` (by row and column).  Two
exact kernels: ``poly_mul`` and ``rank_exact`` (fraction-free integer
elimination with gcd-reduced rows, no doubles anywhere, on the stored
entries of a BandMatrix; dense rows enter through ``from_dense``).  One
evaluator, ``_eval_at``, sums a coefficient map at a point for
``SparsePoly2.eval`` and ``eval --mode float``: it raises each coordinate
only as far as the terms need it and names a point whose power overflows
a double.  Every degree, index, bound, count, exponent and matrix
dimension in the package passes one rule, ``_check_index``
(``_check_degrees`` for a pair 0 <= m <= n): a plain int >= 0, never a
bool or a float.  A matrix position is a pair of ints too (IndexError
outside the shape).
"""
from __future__ import annotations

import math
import operator
import re
from fractions import Fraction
from typing import NamedTuple

try:
    from gmpy2 import mpq as _mpq
except ImportError:  # pragma: no cover - exercised only without gmpy2
    _mpq = None

if _mpq is not None:
    _RAT = _mpq
    _RAT_TYPES = (Fraction, type(_mpq(1)))
else:  # pragma: no cover
    _RAT = Fraction
    _RAT_TYPES = (Fraction,)

_ZERO = _RAT(0)


class ModeError(TypeError):
    """Raised when a float meets exact arithmetic."""


class QuasiDefinitenessError(ArithmeticError):
    """A family's recurrence data or a system's Gram diagonal degenerates
    at some index: carries the label, the parameters, the offending index
    and a human-readable detail string."""

    def __init__(self, label, params, index, detail):
        self.label = label
        self.params = dict(params or {})
        self.index = index
        self.detail = detail
        ptxt = ", ".join(f"{k}={v}" for k, v in self.params.items())
        suffix = f" [params {ptxt}]" if ptxt else ""
        super().__init__(f"{label}: {detail}{suffix}")


# Largest |exponent| of a decimal literal such as 25e-2; Fraction would
# expand 1e999999999 into an integer of a billion digits.
MAX_DECIMAL_EXPONENT = 1000
# Longest literal parse_rational reads: parsing a digit string takes time
# quadratic in its length, so input stays bounded whatever the
# interpreter's int-to-str digit limit is.
MAX_LITERAL_LENGTH = 10_000
_EXPONENT = re.compile(r"[eE]([-+]?[0-9_]+)$")


def parse_rational(text):
    """Parse 'p', 'p/q' or a decimal literal into a raw exact rational."""
    text = str(text).strip()
    if len(text) > MAX_LITERAL_LENGTH:
        raise ValueError(f"a rational literal of {len(text)} characters "
                         f"exceeds {MAX_LITERAL_LENGTH}")
    exponent = _EXPONENT.search(text)
    if exponent and abs(int(exponent.group(1))) > MAX_DECIMAL_EXPONENT:
        raise ValueError(f"decimal exponent of {text[:40]!r} exceeds "
                         f"{MAX_DECIMAL_EXPONENT} in absolute value")
    frac = Fraction(text)
    return _RAT(frac.numerator, frac.denominator)


def _as_raw_exact(v):
    """Coerce v to a raw exact rational; reject floats."""
    if type(v) is _RAT_TYPES[-1]:  # already the backend's own type
        return v
    if isinstance(v, Scalar):
        return v.value
    if isinstance(v, bool):
        raise TypeError("bool is not a scalar")
    if isinstance(v, int):
        return _RAT(v)
    if isinstance(v, _RAT_TYPES):
        return _RAT(v.numerator, v.denominator)
    if isinstance(v, str):
        return parse_rational(v)
    if isinstance(v, float):
        raise ModeError("a float is not an exact rational")
    raise TypeError(
        f"cannot interpret {type(v).__name__} as an exact rational")


def _check_index(value, name):
    """The one rule for a degree, index, bound, count, exponent or matrix
    dimension: an int >= 0, not a bool, else a ValueError naming it."""
    if type(value) is not int or value < 0:
        raise ValueError(f"{name} must be a nonnegative int, got {value!r}")


def _check_degrees(n, m):
    """The rule for a basis degree pair: ints (not bools), 0 <= m <= n."""
    if not (type(n) is type(m) is int and 0 <= m <= n):
        raise ValueError(f"need 0 <= m <= n, got (n, m) = ({n}, {m})")


def _divide(a, b):
    if not b:
        raise ZeroDivisionError("division by exact zero")
    return a / b


def _operator(op, wrap=True, reflected=False):
    """A binary Scalar operator: op on the raw values, the Scalar's own
    first (second when reflected), the result a Scalar when wrap is set;
    an operand ``Scalar._coerced`` refuses gives NotImplemented."""
    def method(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        v = op(o, self.value) if reflected else op(self.value, o)
        return Scalar(v) if wrap else v
    return method


class Scalar:
    """An immutable exact rational, in lowest terms with positive
    denominator, from ``Scalar.exact``, the ``BandMatrix`` reads and its
    own arithmetic.  Plain ints and Fraction/mpq values mix with it; a
    float raises ModeError.
    """

    __slots__ = ("value",)

    def __init__(self, value):
        object.__setattr__(self, "value", _as_raw_exact(value))

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    def __reduce__(self):
        return Scalar, (self.value,)

    # -- constructors -------------------------------------------------

    @classmethod
    def exact(cls, value):
        return cls(value)

    # -- inspection ----------------------------------------------------

    @property
    def is_zero(self):
        return not self.value

    def __float__(self):
        return float(self.value)

    # -- arithmetic and comparison ----------------------------------------

    def _coerced(self, other):
        """other read by ``_as_raw_exact`` (a float raises ModeError), or
        None for a type that does not mix: a str, a bool, None, ..."""
        if isinstance(other, _OPERANDS) and not isinstance(other, bool):
            return _as_raw_exact(other)
        return None

    __add__ = __radd__ = _operator(operator.add)
    __sub__ = _operator(operator.sub)
    __rsub__ = _operator(operator.sub, reflected=True)
    __mul__ = __rmul__ = _operator(operator.mul)
    __truediv__ = _operator(_divide)
    __rtruediv__ = _operator(_divide, reflected=True)
    __eq__ = _operator(operator.eq, wrap=False)
    __lt__ = _operator(operator.lt, wrap=False)
    __le__ = _operator(operator.le, wrap=False)
    __gt__ = _operator(operator.gt, wrap=False)
    __ge__ = _operator(operator.ge, wrap=False)

    def __pow__(self, k):
        if not isinstance(k, int) or isinstance(k, bool):
            raise TypeError("exponent must be an int")
        if k < 0 and self.is_zero:
            raise ZeroDivisionError("negative power of exact zero")
        return Scalar(self.value ** k)

    def __neg__(self):
        return Scalar(-self.value)

    def __abs__(self):
        return Scalar(abs(self.value))

    def __hash__(self):
        return hash(self.value)

    def __bool__(self):
        return not self.is_zero

    # -- rendering -------------------------------------------------------

    def __str__(self):
        return str(self.value)

    def __repr__(self):
        return f"Scalar({self!s})"


_OPERANDS = (Scalar, int, float, *_RAT_TYPES)


def _eval_at(terms, point, acc):
    """acc plus the sum of c x^i y^j over the coefficient map terms at the
    point, each coordinate raised only up to the largest exponent that the
    terms hold in it; a power beyond the doubles names the point."""
    tops = [max((key[c] for key in terms), default=0) for c in (0, 1)]
    try:
        xs, ys = ([v ** i for i in range(top + 1)]
                  for v, top in zip(point, tops))
    except OverflowError:
        raise OverflowError(f"a power of the point {point} overflows a "
                            f"double") from None
    for (i, j), raw in terms.items():
        acc += raw * xs[i] * ys[j]
    return acc


class SparsePoly2:
    """Read-only bivariate polynomial: map from exponent pairs (i, j) to
    exact coefficients, as ``BivariateSystem.expand_P`` returns it or as a
    caller builds it for ``moment_bilinear``.

    Only nonzero coefficients are stored.  It reads, evaluates, compares
    and pickles; its one product is ``poly_mul``.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        clean = {}
        for (i, j), coeff in (terms or {}).items():
            _check_index(i, "exponent")
            _check_index(j, "exponent")
            raw = _as_raw_exact(coeff)
            if raw:
                clean[(i, j)] = raw
        object.__setattr__(self, "_terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("SparsePoly2 is immutable")

    def __reduce__(self):
        return SparsePoly2, (self._terms,)

    # -- inspection ----------------------------------------------------

    @property
    def terms(self):
        """Dict {(i, j): rational} of the nonzero terms (a fresh copy)."""
        return dict(self._terms)

    def coeff(self, i, j):
        _check_index(i, "exponent")
        _check_index(j, "exponent")
        return self._terms.get((i, j), _ZERO)

    def eval(self, x, y):
        """The backend rational value at exact x, y (Scalars, ints or
        rationals)."""
        point = (_as_raw_exact(x), _as_raw_exact(y))
        return _eval_at(self._terms, point, _ZERO)

    # -- comparison / rendering -----------------------------------------

    def __eq__(self, other):
        if not isinstance(other, SparsePoly2):
            return NotImplemented
        return self._terms == other._terms

    __hash__ = None

    def __repr__(self):
        if not self._terms:
            return "SparsePoly2(0)"
        bits = []
        for (i, j) in sorted(self._terms, key=lambda k: (k[0] + k[1], k)):
            c = self._terms[(i, j)]
            mono = "".join(
                f"{var}^{e}" if e > 1 else var
                for var, e in (("x", i), ("y", j))
                if e
            )
            bits.append(f"{c}*{mono}" if mono else f"{c}")
        return f"SparsePoly2({' + '.join(bits)})"


def poly_mul(p, q):
    """Exact product of two SparsePoly2."""
    if not isinstance(p, SparsePoly2) or not isinstance(q, SparsePoly2):
        raise TypeError("poly_mul takes two SparsePoly2")
    out = {}
    for (i1, j1), c1 in p._terms.items():
        for (i2, j2), c2 in q._terms.items():
            key = (i1 + i2, j1 + j2)
            acc = out.get(key)
            prod = c1 * c2
            acc = prod if acc is None else acc + prod
            if acc:
                out[key] = acc
            else:
                out.pop(key, None)
    return SparsePoly2(out)


class BandMatrix:
    """Rectangular matrix with a declared band of admissible entries.

    An entry (r, c) is inside the band when -lower_bandwidth <= c - r <=
    upper_bandwidth.  Reading any in-shape position outside the band yields
    an exact zero; providing a nonzero entry outside the band is an error.
    Stored entries are keyed by (row, diagonal offset).
    """

    __slots__ = ("rows", "cols", "lower_bandwidth", "upper_bandwidth",
                 "_entries")

    def __init__(self, rows, cols, lower_bandwidth, upper_bandwidth,
                 entries=None):
        for name, value in (("rows", rows), ("cols", cols),
                            ("lower_bandwidth", lower_bandwidth),
                            ("upper_bandwidth", upper_bandwidth)):
            _check_index(value, name)
            object.__setattr__(self, name, value)
        stored = {}
        for (r, c), coeff in (entries or {}).items():
            if not (type(r) is type(c) is int
                    and 0 <= r < rows and 0 <= c < cols):
                raise _position_error(r, c, rows, cols)
            raw = _as_raw_exact(coeff)
            if not raw:
                continue
            off = c - r
            if not (-lower_bandwidth <= off <= upper_bandwidth):
                raise ValueError(
                    f"entry ({r}, {c}) lies outside the declared band")
            stored[(r, off)] = raw
        object.__setattr__(self, "_entries", stored)

    def __setattr__(self, name, value):
        raise AttributeError("BandMatrix is immutable")

    def __reduce__(self):
        return BandMatrix, (self.rows, self.cols, self.lower_bandwidth,
                            self.upper_bandwidth, dict(self.items()))

    @classmethod
    def from_dense(cls, values):
        """Build from a sequence of equal-length rows (else ValueError
        "ragged rows"), with the full band of the shape."""
        rows = len(values)
        cols = len(values[0]) if rows else 0
        if any(len(row) != cols for row in values):
            raise ValueError("ragged rows")
        entries = {(r, c): v for r, row in enumerate(values)
                   for c, v in enumerate(row)}
        return cls(rows, cols, max(rows - 1, 0), max(cols - 1, 0), entries)

    # -- access ----------------------------------------------------------

    @property
    def shape(self):
        return (self.rows, self.cols)

    def get(self, r, c):
        if not (type(r) is type(c) is int
                and 0 <= r < self.rows and 0 <= c < self.cols):
            raise _position_error(r, c, self.rows, self.cols)
        return Scalar(self._entries.get((r, c - r), _ZERO))

    def __getitem__(self, key):
        r, c = key
        return self.get(r, c)

    def items(self):
        """Yield ((row, col), Scalar) for stored nonzero entries, sorted."""
        for (r, off) in sorted(self._entries):
            yield (r, r + off), Scalar(self._entries[(r, off)])

    def dense(self):
        """Dense rows of Scalars; every position outside the stored entries
        holds one shared exact zero."""
        zero = Scalar(_ZERO)
        rows = [[zero] * self.cols for _ in range(self.rows)]
        for (r, off), raw in self._entries.items():
            rows[r][r + off] = Scalar(raw)
        return rows

    @property
    def is_zero(self):
        return not self._entries

    # -- transforms --------------------------------------------------------

    def transpose(self):
        entries = {(r + off, r): v for (r, off), v in self._entries.items()}
        return BandMatrix(self.cols, self.rows, self.upper_bandwidth,
                          self.lower_bandwidth, entries)

    # -- comparison / rendering ---------------------------------------------

    def __eq__(self, other):
        """Value equality: same shape and entries (bands may differ)."""
        if not isinstance(other, BandMatrix):
            return NotImplemented
        return self.shape == other.shape and self._entries == other._entries

    __hash__ = None

    def __repr__(self):
        return (f"BandMatrix({self.rows}x{self.cols}, "
                f"bands=({self.lower_bandwidth}, {self.upper_bandwidth}), "
                f"{len(self._entries)} stored)")


def _position_error(r, c, rows, cols):
    """ValueError for a position that is not a pair of ints (a bool or a
    float included); IndexError for one outside the rows x cols shape."""
    if type(r) is type(c) is int:
        return IndexError(f"({r}, {c}) outside a {rows}x{cols} matrix")
    return ValueError(f"a matrix position is a pair of ints, got {(r, c)}")


class TTRSet(NamedTuple):
    """The six matrices of both relations at one degree n."""

    n: int
    a_x: BandMatrix
    b_x: BandMatrix
    c_x: BandMatrix
    a_y: BandMatrix
    b_y: BandMatrix
    c_y: BandMatrix

    def matrices(self):
        """Dict keyed by relation axis: A_x .. C_y."""
        return {"A_x": self.a_x, "B_x": self.b_x, "C_x": self.c_x,
                "A_y": self.a_y, "B_y": self.b_y, "C_y": self.c_y}


# The band layout of both relations, stated once.  At degree n the matrices
# are A (n+1)x(n+2), B (n+1)x(n+1) and C (n+1)xn; those of the x-relation
# are diagonal, those of the y-relation tridiagonal.  _MATRICES gives, in
# the order of TTRSet's fields above, each matrix's columns beyond n and
# its bandwidth; _LAYOUT maps each table key (the closed-form tables' and
# the builder's) to its matrix and to its column offset from row m.
_MATRICES = ((2, 0), (1, 0), (0, 0), (2, 1), (1, 1), (0, 1))
_LAYOUT = {
    "a": (0, 0), "b": (1, 0), "c": (2, 0),
    "a1": (3, -1), "a2": (3, 0), "a3": (3, 1),
    "b1": (4, -1), "b2": (4, 0), "b3": (4, 1),
    "c1": (5, -1), "c2": (5, 0), "c3": (5, 1),
}
TABLE_KEYS = tuple(_LAYOUT)
_KEYS = (TABLE_KEYS[:3], TABLE_KEYS[3:])


def _band_row(n, which, m, values):
    """Row m at degree n of the x- (which = 0) or y-relation (which = 1):
    each key's entry in values, an exact zero where values has none, or
    None where the key's position falls outside its matrix."""
    row = {}
    for key in _KEYS[which]:
        matrix, offset = _LAYOUT[key]
        inside = 0 <= m + offset < n + _MATRICES[matrix][0]
        row[key] = values.get(key, _ZERO) if inside else None
    return row


def _relation(n, which, rows):
    """The BandMatrices (A, B, C) of the x- (which = 0) or y-relation
    (which = 1) at degree n; rows[m] maps table keys to the entries of
    row m, and a None entry is left out.  An entry placed outside its
    matrix is an IndexError."""
    first = 3 * which
    entries = ({}, {}, {})
    for m, row in enumerate(rows):
        for key, v in row.items():
            if v is not None:
                matrix, offset = _LAYOUT[key]
                entries[matrix - first][(m, m + offset)] = v
    return tuple(BandMatrix(n + 1, n + extra, band, band, e)
                 for (extra, band), e in zip(_MATRICES[first:], entries))


def _rat(num, den):
    """num / den, two ints, as one raw rational; a zero is the shared
    zero."""
    return _RAT(num, den) if num else _ZERO


def _int_list(values):
    """(d, [ints]): a sequence of rationals as integers over their least
    common denominator d."""
    d = math.lcm(*(int(v.denominator) for v in values))
    return d, [int(v.numerator) * (d // int(v.denominator)) for v in values]


def _int_pair(v):
    """A rational as (numerator, denominator), two ints."""
    return int(v.numerator), int(v.denominator)


def _rows(matrix):
    """The stored entries of a BandMatrix, the one reader of its storage
    outside the class: per row, [(column, raw)] in ascending column order."""
    rows = [[] for _ in range(matrix.rows)]
    for (r, off), raw in matrix._entries.items():
        rows[r].append((r + off, raw))
    for row in rows:
        row.sort()  # a row's columns differ, so no two raws are compared
    return rows


def _int_rows(matrix):
    """The rows of a BandMatrix cleared of denominators, as lists of
    Python ints, read from its stored entries (``_rows``): each row is
    cleared by ``_int_list``, over the lcm of its own entries'
    denominators, which is the lcm over the whole row, its zeros having
    denominator 1."""
    rows = []
    for entries in _rows(matrix):
        row = [0] * matrix.cols
        ints = _int_list([v for _, v in entries])[1]
        for (c, _), x in zip(entries, ints):
            row[c] = x
        rows.append(row)
    return rows


def rank_exact(matrix):
    """Exact rank of a matrix of rationals (fraction-free elimination).

    Accepts a BandMatrix, or equal-length rows of exact values, which
    enter through ``BandMatrix.from_dense`` (ragged rows: ValueError; a
    float: ModeError; a bool: TypeError).  The stored entries are cleared
    of denominators row by row (``_int_rows``) and eliminated in integers
    (``_rank_int``)."""
    if not isinstance(matrix, BandMatrix):
        matrix = BandMatrix.from_dense(matrix)
    return _rank_int(_int_rows(matrix))


def _rank_int(rows):
    """Rank of equal-length int rows by fraction-free elimination: per
    column, each row below the pivot row whose head is nonzero becomes
    lead * row - head * pivot_row, divided by the gcd of its entries.
    Scaling by a nonzero integer keeps every zero a zero, so the pivots and
    the rank are those of the plain elimination.  The rows are read, never
    written: every update makes a new list."""
    m = list(rows)
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    rank = 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, nrows) if m[i][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        row_r = m[rank]
        lead = row_r[col]
        for i in range(rank + 1, nrows):
            head = m[i][col]
            if head:
                new = [lead * a - head * b
                       for a, b in zip(m[i][col + 1:], row_r[col + 1:])]
                g = math.gcd(*new)
                if g > 1:  # g is 0 where the row cancels to all zeros
                    new = [v // g for v in new]
                m[i] = [0] * (col + 1) + new
        rank += 1
        if rank == nrows:
            break
    return rank
