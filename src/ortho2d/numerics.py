"""Exact scalar arithmetic, sparse bivariate polynomials, banded matrices.

Everything downstream is built on three value types, all exact rational
(gmpy2.mpq when available, fractions.Fraction otherwise):

* ``Scalar`` -- an immutable exact rational.  A float meeting it in any
  operation raises ModeError, so an exact pipeline cannot silently degrade
  to doubles.
* ``SparsePoly2`` -- a read-only bivariate polynomial stored as a map from
  exponent pairs to nonzero coefficients: the public form of a basis
  polynomial.  It has no arithmetic operators; every route works on
  integer forms instead.
* ``BandMatrix`` -- a rectangular matrix that only admits entries inside a
  declared band; reads outside the band are exact zeros, writes outside it
  are errors.

Plus two exact kernels: ``poly_mul`` and ``rank_exact`` (Bareiss's
integer fraction-free elimination, no doubles anywhere; a BandMatrix is
read from its stored entries, never expanded to rational rows).  The
float relation check evaluates coefficient maps of doubles with
``_eval_terms``; ``SparsePoly2.eval`` uses it on exact coefficients.
"""
from __future__ import annotations

import math
import re
from fractions import Fraction

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


class ModeError(TypeError):
    """Raised when a float meets exact arithmetic."""


# Largest |exponent| of a decimal literal such as 25e-2; Fraction would
# expand 1e999999999 into an integer of a billion digits.
MAX_DECIMAL_EXPONENT = 1000
_EXPONENT = re.compile(r"[eE]([-+]?[0-9_]+)$")


def parse_rational(text):
    """Parse 'p', 'p/q' or a decimal literal into a raw exact rational."""
    text = str(text).strip()
    exponent = _EXPONENT.search(text)
    if exponent and abs(int(exponent.group(1))) > MAX_DECIMAL_EXPONENT:
        raise ValueError(f"decimal exponent of {text[:40]!r} exceeds "
                         f"{MAX_DECIMAL_EXPONENT} in absolute value")
    frac = Fraction(text)
    return _RAT(frac.numerator, frac.denominator)


def _as_raw_exact(v):
    """Coerce v to a raw exact rational; reject floats."""
    if isinstance(v, Scalar):
        return v.value
    if isinstance(v, bool):
        raise TypeError("bool is not a scalar")
    if isinstance(v, int):
        return _RAT(v)
    if isinstance(v, _RAT_TYPES):
        if type(v) is _RAT_TYPES[-1]:  # already the backend's own type
            return v
        return _RAT(v.numerator, v.denominator)
    if isinstance(v, str):
        return parse_rational(v)
    if isinstance(v, float):
        raise ModeError("a float is not an exact rational")
    raise TypeError(f"cannot interpret {type(v).__name__} as an exact rational")


class Scalar:
    """An immutable exact rational, in lowest terms with positive
    denominator.  Plain ints and Fraction/mpq values mix with it; a float
    raises ModeError.
    """

    __slots__ = ("value",)

    def __init__(self, value):
        object.__setattr__(self, "value", _as_raw_exact(value))

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    def __reduce__(self):
        return _wrap, (self.value,)

    # -- constructors -------------------------------------------------

    @classmethod
    def exact(cls, value):
        return cls(value)

    @classmethod
    def zero(cls):
        return _wrap(_RAT(0))

    @classmethod
    def one(cls):
        return _wrap(_RAT(1))

    # -- inspection ----------------------------------------------------

    @property
    def is_zero(self):
        return not self.value

    @property
    def numerator(self):
        return int(self.value.numerator)

    @property
    def denominator(self):
        return int(self.value.denominator)

    def as_fraction(self):
        return Fraction(int(self.value.numerator), int(self.value.denominator))

    def __float__(self):
        return float(self.value)

    # -- arithmetic ----------------------------------------------------

    def _coerced(self, other):
        """Return other as a raw rational, or None if foreign."""
        if isinstance(other, Scalar):
            return other.value
        if isinstance(other, bool):
            return None
        if isinstance(other, int):
            return _RAT(other)
        if isinstance(other, float):
            raise ModeError("cannot mix a float with an exact scalar")
        if isinstance(other, _RAT_TYPES):
            return _as_raw_exact(other)
        return None

    def __add__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return _wrap(self.value + o)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return _wrap(self.value - o)

    def __rsub__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return _wrap(o - self.value)

    def __mul__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return _wrap(self.value * o)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        if not o:
            raise ZeroDivisionError("division by exact zero")
        return _wrap(self.value / o)

    def __rtruediv__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        if self.is_zero:
            raise ZeroDivisionError("division by exact zero")
        return _wrap(o / self.value)

    def __pow__(self, k):
        if not isinstance(k, int) or isinstance(k, bool):
            raise TypeError("exponent must be an int")
        if k < 0 and self.is_zero:
            raise ZeroDivisionError("negative power of exact zero")
        return _wrap(self.value ** k)

    def __neg__(self):
        return _wrap(-self.value)

    def __abs__(self):
        return _wrap(abs(self.value))

    # -- comparison ----------------------------------------------------

    def __eq__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return self.value == o

    def __lt__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return self.value < o

    def __le__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return self.value <= o

    def __gt__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return self.value > o

    def __ge__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return self.value >= o

    def __hash__(self):
        return hash(self.value)

    def __bool__(self):
        return not self.is_zero

    # -- rendering -------------------------------------------------------

    def __str__(self):
        return str(self.value)

    def __repr__(self):
        return f"Scalar({self!s})"


def _wrap(raw):
    """Fast internal constructor: raw is already a backend rational."""
    s = object.__new__(Scalar)
    object.__setattr__(s, "value", raw)
    return s


def _powers(v, top):
    """[v ** 0, v ** 1, ..., v ** top]."""
    return [v ** i for i in range(top + 1)]


def _eval_terms(terms, xs, ys, acc):
    """acc plus the sum of c x^i y^j over the coefficient map terms, the
    powers read from xs[i] and ys[j] (see ``_powers``)."""
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
        if terms:
            for key, coeff in terms.items():
                i, j = key
                if not isinstance(i, int) or not isinstance(j, int) or i < 0 or j < 0:
                    raise ValueError(f"bad exponent pair {key!r}")
                raw = _as_raw_exact(coeff)
                if raw:
                    clean[(i, j)] = raw
        object.__setattr__(self, "_terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("SparsePoly2 is immutable")

    def __reduce__(self):
        return _poly, (self._terms,)

    # -- inspection ----------------------------------------------------

    @property
    def terms(self):
        """Dict {(i, j): Scalar} of the nonzero terms (a fresh copy)."""
        return {k: _wrap(v) for k, v in self._terms.items()}

    def coeff(self, i, j):
        raw = self._terms.get((i, j))
        if raw is None:
            return Scalar.zero()
        return _wrap(raw)

    def eval(self, x, y):
        """Evaluate at exact x, y (Scalars, ints or rationals)."""
        top = max((max(key) for key in self._terms), default=0)
        value = _eval_terms(self._terms, _powers(_as_raw_exact(x), top),
                            _powers(_as_raw_exact(y), top), _RAT(0))
        return _wrap(value)

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


def _poly(raw_terms):
    """Fast internal constructor: raw_terms maps (i, j) to nonzero rationals."""
    p = object.__new__(SparsePoly2)
    object.__setattr__(p, "_terms", raw_terms)
    return p


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
    return _poly(out)


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
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if lower_bandwidth < 0 or upper_bandwidth < 0:
            raise ValueError("bandwidths must be nonnegative")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "lower_bandwidth", lower_bandwidth)
        object.__setattr__(self, "upper_bandwidth", upper_bandwidth)
        stored = {}
        if entries:
            for (r, c), coeff in entries.items():
                if not (0 <= r < rows and 0 <= c < cols):
                    raise IndexError(f"entry ({r}, {c}) outside a {rows}x{cols} matrix")
                raw = _as_raw_exact(coeff)
                if not raw:
                    continue
                off = c - r
                if not (-lower_bandwidth <= off <= upper_bandwidth):
                    raise ValueError(
                        f"entry ({r}, {c}) lies outside the declared band"
                    )
                stored[(r, off)] = raw
        object.__setattr__(self, "_entries", stored)

    def __setattr__(self, name, value):
        raise AttributeError("BandMatrix is immutable")

    def __reduce__(self):
        return BandMatrix, (self.rows, self.cols, self.lower_bandwidth,
                            self.upper_bandwidth, dict(self.items()))

    @classmethod
    def from_dense(cls, values, lower_bandwidth=None, upper_bandwidth=None):
        """Build from a list of rows; bandwidths default to the full shape."""
        rows = len(values)
        cols = len(values[0]) if rows else 0
        for row in values:
            if len(row) != cols:
                raise ValueError("ragged rows")
        if lower_bandwidth is None:
            lower_bandwidth = max(rows - 1, 0)
        if upper_bandwidth is None:
            upper_bandwidth = max(cols - 1, 0)
        entries = {
            (r, c): values[r][c]
            for r in range(rows) for c in range(cols)
        }
        return cls(rows, cols, lower_bandwidth, upper_bandwidth, entries)

    # -- access ----------------------------------------------------------

    @property
    def shape(self):
        return (self.rows, self.cols)

    def get(self, r, c):
        if not (0 <= r < self.rows and 0 <= c < self.cols):
            raise IndexError(f"({r}, {c}) outside a {self.rows}x{self.cols} matrix")
        raw = self._entries.get((r, c - r))
        if raw is None:
            return Scalar.zero()
        return _wrap(raw)

    def __getitem__(self, key):
        r, c = key
        return self.get(r, c)

    def items(self):
        """Yield ((row, col), Scalar) for stored nonzero entries, sorted."""
        for (r, off) in sorted(self._entries):
            yield (r, r + off), _wrap(self._entries[(r, off)])

    def dense(self):
        """Dense rows of Scalars; every position outside the stored entries
        holds one shared exact zero."""
        zero = Scalar.zero()
        rows = [[zero] * self.cols for _ in range(self.rows)]
        for (r, off), raw in self._entries.items():
            rows[r][r + off] = _wrap(raw)
        return rows

    @property
    def is_zero(self):
        return not self._entries

    # -- transforms --------------------------------------------------------

    def transpose(self):
        entries = {(r + off, -off): v for (r, off), v in self._entries.items()}
        out = object.__new__(BandMatrix)
        object.__setattr__(out, "rows", self.cols)
        object.__setattr__(out, "cols", self.rows)
        object.__setattr__(out, "lower_bandwidth", self.upper_bandwidth)
        object.__setattr__(out, "upper_bandwidth", self.lower_bandwidth)
        object.__setattr__(out, "_entries", entries)
        return out

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


def _int_list(values):
    """(d, [ints]): a sequence of rationals as integers over their least
    common denominator d."""
    d = math.lcm(*(int(v.denominator) for v in values))
    return d, [int(v.numerator) * (d // int(v.denominator)) for v in values]


def _int_rows(matrix):
    """Clear denominators row by row; returns a list of Python-int rows.

    A BandMatrix is read from its stored entries: each row is scaled by the
    lcm of its own entries' denominators, which is the lcm over the whole
    row, its zeros having denominator 1."""
    if isinstance(matrix, BandMatrix):
        by_row = [[] for _ in range(matrix.rows)]
        for (r, off), raw in matrix._entries.items():
            by_row[r].append((r + off, raw))
        rows = []
        for entries in by_row:
            row = [0] * matrix.cols
            d = math.lcm(*(int(v.denominator) for _, v in entries))
            for c, v in entries:
                row[c] = int(v.numerator) * (d // int(v.denominator))
            rows.append(row)
        return rows
    dense = []
    for row in matrix:
        dense.append([_as_raw_exact(v) for v in row])
    if dense and any(len(r) != len(dense[0]) for r in dense):
        raise ValueError("ragged rows")
    return [_int_list(row)[1] for row in dense]


def rank_exact(matrix):
    """Exact rank of a matrix of rationals (fraction-free elimination).

    Accepts a BandMatrix or a list of rows of exact scalars/ints/rationals.
    A float entry raises ModeError.  The rows are cleared of denominators
    one by one (``_int_rows``; a BandMatrix straight from its stored
    entries) and eliminated in integers (``_rank_int``).
    """
    return _rank_int(_int_rows(matrix))


def _rank_int(rows):
    """Rank of equal-length int rows by Bareiss's fraction-free
    elimination (Bareiss 1968).  The rows are read, never written: every
    update makes a new list.

    Each step turns a row below the pivot into (lead * row - head *
    pivot_row) / prev, exactly.  A row whose head is zero is only scaled by
    lead / prev, and these factors telescope over the steps, so such a row
    is left as it stands and keeps the divisor it is over, div[i]: one
    update (lead * row - head * pivot_row) / div[i] brings it through every
    step it skipped, and a pivot row is first brought up to prev / div[i].
    Scaling by a nonzero integer keeps every zero a zero, so the pivots and
    the rank are those of the plain elimination; on banded rows only the
    few rows with a nonzero head are touched per column."""
    m = list(rows)
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    div = [1] * nrows
    rank = 0
    prev = 1
    for col in range(ncols):
        pivot = None
        for i in range(rank, nrows):
            if m[i][col]:
                pivot = i
                break
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        div[rank], div[pivot] = div[pivot], div[rank]
        row_r = m[rank]
        if div[rank] != prev:
            row_r = [v * prev // div[rank] for v in row_r]
        lead = row_r[col]
        for i in range(rank + 1, nrows):
            row_i = m[i]
            head = row_i[col]
            if head:
                d = div[i]
                m[i] = [0] * (col + 1) + [
                    (lead * a - head * b) // d
                    for a, b in zip(row_i[col + 1:], row_r[col + 1:])]
                div[i] = lead
        prev = lead
        rank += 1
        if rank == nrows:
            break
    return rank
