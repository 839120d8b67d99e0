"""Exact arithmetic over the quadratic field Q(sqrt(2)) and exact linear algebra.

Every structure constant, connection coefficient and certificate entry in this
package is a number of the form a + b*sqrt(2) with rational a, b.  This module
provides that scalar type, a fraction-free sparse echelon solver for integer
rows whose nullspace it returns in that type (the one elimination routine of
the package), and a dense multi-index array representation used for bulk
tensor contractions.  A dense array is one integer array ``parts`` of shape
(2, *shape), the rational and sqrt(2) coefficients over a shared denominator,
stored as int64 and falling back to arbitrary-precision Python ints only past
2^62.  Each Q(sqrt(2)) contraction is one real product on ``parts``, run in
float64 BLAS while every partial sum stays below 2^53, where float64 is exact.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

_SQRT2_FLOAT = math.sqrt(2.0)

Rational = int | Fraction

#: the ``a/b + c/d*sqrt2`` form of :meth:`QSqrt2.to_string`
_LITERAL = re.compile(r"(-?[0-9]+)/([0-9]+) \+ (-?[0-9]+)/([0-9]+)\*sqrt2")


class QSqrt2:
    """Exact scalar a + b*sqrt(2), a and b rational."""

    __slots__ = ("_a", "_b")

    def __init__(self, a: Rational | str = 0, b: Rational | str = 0) -> None:
        self._a = Fraction(a)
        self._b = Fraction(b)

    @property
    def a(self) -> Fraction:
        return self._a

    @property
    def b(self) -> Fraction:
        return self._b

    @classmethod
    def sqrt2(cls) -> QSqrt2:
        return cls(0, 1)

    def __repr__(self) -> str:
        return f"QSqrt2({self._a}, {self._b})"

    def __str__(self) -> str:
        return self.to_string()

    def __bool__(self) -> bool:
        return self._a != 0 or self._b != 0

    def __eq__(self, other: object) -> bool:
        if isinstance(other, QSqrt2):
            return self._a == other._a and self._b == other._b
        if isinstance(other, (int, Fraction)):
            return self._b == 0 and self._a == other
        return NotImplemented

    def __hash__(self) -> int:
        if self._b == 0:
            return hash(self._a)
        return hash((self._a, self._b))

    def __neg__(self) -> QSqrt2:
        return QSqrt2(-self._a, -self._b)

    def __add__(self, other: QSqrt2 | Rational) -> QSqrt2:
        if isinstance(other, QSqrt2):
            return QSqrt2(self._a + other._a, self._b + other._b)
        if isinstance(other, (int, Fraction)):
            return QSqrt2(self._a + other, self._b)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other: QSqrt2 | Rational) -> QSqrt2:
        return self + (-other if isinstance(other, QSqrt2) else QSqrt2(-Fraction(other)))

    def __rsub__(self, other: Rational) -> QSqrt2:
        return (-self) + other

    def __mul__(self, other: QSqrt2 | Rational) -> QSqrt2:
        if isinstance(other, QSqrt2):
            return QSqrt2(
                self._a * other._a + 2 * self._b * other._b,
                self._a * other._b + self._b * other._a,
            )
        if isinstance(other, (int, Fraction)):
            return QSqrt2(self._a * other, self._b * other)
        return NotImplemented

    __rmul__ = __mul__

    def inverse(self) -> QSqrt2:
        """Multiplicative inverse (a - b*sqrt2) / (a^2 - 2 b^2).

        Raises ZeroDivisionError on zero; a^2 - 2 b^2 vanishes for rational
        a, b only when a = b = 0, so every nonzero element is invertible.
        """
        norm = self._a * self._a - 2 * self._b * self._b
        if norm == 0:
            raise ZeroDivisionError("inverse of zero in Q(sqrt2)")
        return QSqrt2(self._a / norm, -self._b / norm)

    def __truediv__(self, other: QSqrt2 | Rational) -> QSqrt2:
        if isinstance(other, (int, Fraction)):
            other = QSqrt2(other)
        if isinstance(other, QSqrt2):
            return self * other.inverse()
        return NotImplemented

    def __rtruediv__(self, other: Rational) -> QSqrt2:
        return QSqrt2(other) * self.inverse()

    def to_float(self) -> float:
        return float(self._a) + float(self._b) * _SQRT2_FLOAT

    __float__ = to_float

    def bit_size(self) -> int:
        """Total bit length of the four stored integers; pivot-selection cost."""
        return (
            self._a.numerator.bit_length()
            + self._a.denominator.bit_length()
            + self._b.numerator.bit_length()
            + self._b.denominator.bit_length()
        )

    def to_string(self) -> str:
        """Canonical form ``a/b + c/d*sqrt2``; round-trips via :meth:`parse`."""
        return (
            f"{self._a.numerator}/{self._a.denominator}"
            f" + {self._b.numerator}/{self._b.denominator}*sqrt2"
        )

    @classmethod
    def parse(cls, text: str) -> QSqrt2:
        """Read the :meth:`to_string` form; ValueError on anything else."""
        match = _LITERAL.fullmatch(text)
        if match is None:
            raise ValueError(f"not a Q(sqrt2) literal: {text!r}")
        a_num, a_den, b_num, b_den = map(int, match.groups())
        if a_den == 0 or b_den == 0:
            raise ValueError(f"zero denominator in Q(sqrt2) literal: {text!r}")
        return cls(Fraction(a_num, a_den), Fraction(b_num, b_den))


ZERO = QSqrt2(0)
ONE = QSqrt2(1)
SQRT2 = QSqrt2(0, 1)
HALF_SQRT2 = QSqrt2(0, Fraction(1, 2))  # 1/sqrt(2)


def as_qsqrt2(value: QSqrt2 | Rational) -> QSqrt2:
    return value if isinstance(value, QSqrt2) else QSqrt2(value)


# ---------------------------------------------------------------------------
# Fraction-free sparse reduced row echelon form and nullspace extraction.
# ---------------------------------------------------------------------------

SparseRow = dict[int, int]


def _primitive(row: SparseRow) -> SparseRow:
    """``row`` divided by the gcd of its entries."""
    g = math.gcd(*row.values())
    return row if g <= 1 else {c: v // g for c, v in row.items()}


class SparseEchelon:
    """Incrementally maintained reduced row echelon form of integer rows.

    Rows are sparse column->int maps.  Elimination is fraction-free: each
    stored row is a primitive integer row whose pivot coefficient is positive
    and which contains no other pivot column, and a row is reduced against it
    as ``pivot*row - factor*stored`` followed by a gcd division, in a single
    pass over the row's pivot columns.  Rationals appear only in the
    nullspace returned by :meth:`kernel_basis`.
    """

    def __init__(self, cols: int) -> None:
        self.cols = cols
        self._pivot_rows: dict[int, SparseRow] = {}
        # column -> pivot columns of stored rows whose support contains it
        self._occurrences: dict[int, set[int]] = {}

    @property
    def rank(self) -> int:
        return len(self._pivot_rows)

    def reduce(self, row: SparseRow) -> SparseRow:
        """``row`` reduced to zero on every pivot column and made primitive."""
        out = {c: v for c, v in row.items() if v}
        for col in [c for c in out if c in self._pivot_rows]:
            stored = self._pivot_rows[col]
            g = math.gcd(stored[col], out[col])
            scale, factor = stored[col] // g, out.pop(col) // g
            if scale != 1:
                out = {c: scale * v for c, v in out.items()}
            for c, v in stored.items():
                if c == col:
                    continue
                acc = out.get(c, 0) - factor * v
                if acc:
                    out[c] = acc
                else:
                    out.pop(c, None)
        return _primitive(out)

    def insert(self, row: SparseRow) -> bool:
        """Reduce ``row`` against the basis; absorb it if independent."""
        new = self.reduce(row)
        if not new:
            return False
        pivot = min(new, key=lambda c: (abs(new[c]), c))
        if new[pivot] < 0:
            new = {c: -v for c, v in new.items()}
        # eliminate the new pivot column from every stored row containing it
        for holder in list(self._occurrences.get(pivot, ())):
            stored = self._pivot_rows[holder]
            self._occurrences[pivot].discard(holder)
            g = math.gcd(new[pivot], stored[pivot])
            scale, factor = new[pivot] // g, stored.pop(pivot) // g
            if scale != 1:
                for c in stored:
                    stored[c] *= scale
            for c, v in new.items():
                if c == pivot:
                    continue
                acc = stored.get(c, 0) - factor * v
                if acc:
                    if c not in stored:
                        self._occurrences.setdefault(c, set()).add(holder)
                    stored[c] = acc
                elif c in stored:
                    del stored[c]
                    self._occurrences[c].discard(holder)
            self._pivot_rows[holder] = _primitive(stored)
        self._pivot_rows[pivot] = new
        for c in new:
            self._occurrences.setdefault(c, set()).add(pivot)
        return True

    def kernel_basis(self) -> list[list[QSqrt2]]:
        """Exact nullspace basis over Q, one vector per free column.

        Each vector is rescaled so its first nonzero coordinate (in column
        order) equals 1, which makes the output deterministic.
        """
        free = [c for c in range(self.cols) if c not in self._pivot_rows]
        basis = []
        for f in free:
            # x_f = the lcm of the pivots of the rows holding f makes each
            # x_p = -row[f] * x_f / row[p] an integer
            rows = {p: self._pivot_rows[p] for p in self._occurrences.get(f, ())}
            vec = [0] * self.cols
            vec[f] = math.lcm(*(row[p] for p, row in rows.items()))
            for p, row in rows.items():
                vec[p] = -row[f] * vec[f] // row[p]
            lead = next(v for v in vec if v)
            basis.append([QSqrt2(Fraction(v, lead)) if v else ZERO for v in vec])
        return basis


# ---------------------------------------------------------------------------
# Dense exact arrays: one integer array of both parts over a shared denominator.
# ---------------------------------------------------------------------------

#: int64 storage holds integers below this in magnitude, so the sum or
#: difference of two stored arrays cannot overflow
_INT64_BOUND = 2**62
#: float64 holds every integer below this in magnitude exactly
_FLOAT_EXACT_BOUND = 2**53


def _storage(bound: int) -> type:
    """Storage dtype for integers of magnitude at most ``bound``: int64 below
    2^62, else an object array of arbitrary-precision Python ints."""
    return np.int64 if bound < _INT64_BOUND else object


def _peak(values) -> int:
    """Largest magnitude of an integer in ``values``, an integer or array."""
    # max and -min read the array without building a full-size abs temporary
    values = np.asarray(values)
    return max(int(values.max(initial=0)), -int(values.min(initial=0)))


def _int_gcd_reduce(parts: np.ndarray, den: int) -> tuple[np.ndarray, int]:
    g = den
    for part in parts.reshape(2, -1):
        if g == 1:
            break
        # a dense array usually reaches gcd 1 within its first entries; a
        # sparse one is scanned over its nonzero entries only, one part at
        # a time, so the sqrt2 part is skipped once the first gives 1
        g = math.gcd(g, int(np.gcd.reduce(part[:64])))
        if g != 1:
            g = math.gcd(g, int(np.gcd.reduce(part[part.nonzero()])))
    if g == 1:
        return parts, den
    if g == den and not parts.any():
        # only an all-zero array can have a g too large for int64 division
        return parts, 1
    return parts // g, den // g


@dataclass(frozen=True)
class ExactArray:
    """Dense array of Q(sqrt2) scalars stored as (parts[0] + parts[1]*sqrt2) / den.

    ``parts`` is one integer ndarray of shape (2, *shape), the rational part
    then the sqrt2 part, and ``den`` a positive int.  Each operation bounds
    the magnitude of the integers it produces from the peaks of its
    operands: below 2^62 they are stored as int64, otherwise as an object
    array of arbitrary-precision Python ints, so every result stays exact.
    Contractions whose products and partial sums all stay below 2^53 run in
    float64 (BLAS), where those integers are exact.
    """

    parts: np.ndarray
    den: int

    def __post_init__(self) -> None:
        if self.den <= 0:
            raise ValueError("denominator must be positive")

    @property
    def shape(self) -> tuple[int, ...]:
        return self.parts.shape[1:]

    @classmethod
    def zeros(cls, shape: tuple[int, ...]) -> ExactArray:
        return cls(np.zeros((2, *shape), dtype=np.int64), 1)

    @classmethod
    def build(
        cls, shape: tuple[int, ...], entry: Callable[[tuple[int, ...]], QSqrt2]
    ) -> ExactArray:
        values = [entry(idx) for idx in np.ndindex(*shape)]
        den = math.lcm(*(q.a.denominator for q in values), *(q.b.denominator for q in values))
        ints = [q.a.numerator * (den // q.a.denominator) for q in values] + [
            q.b.numerator * (den // q.b.denominator) for q in values
        ]
        dtype = _storage(max(map(abs, ints), default=0))
        return cls(np.array(ints, dtype=dtype).reshape((2, *shape)), den)

    def item(self, *idx: int) -> QSqrt2:
        a, b = self.parts[(slice(None), *idx)]
        return QSqrt2(Fraction(int(a), self.den), Fraction(int(b), self.den))

    def nonzero_items(self) -> list[tuple[tuple[int, ...], QSqrt2]]:
        """(index, value) of every nonzero entry, in C order."""
        support = np.argwhere(self.parts.any(axis=0))
        return [(tuple(idx), self.item(*idx)) for idx in support.tolist()]

    def reduced(self) -> ExactArray:
        return ExactArray(*_int_gcd_reduce(self.parts, self.den))

    def _common(self, other: ExactArray) -> tuple[np.ndarray, np.ndarray, int]:
        """Both operands' parts over their common denominator, in the one
        storage dtype that also holds their sum or difference."""
        den = math.lcm(self.den, other.den)
        s, o = den // self.den, den // other.den
        # max(peak, 1): the factor itself must fit the dtype where the peak is 0
        dtype = _storage(max(_peak(self.parts), 1) * s + max(_peak(other.parts), 1) * o)
        scaled = []
        for parts, factor in ((self.parts, s), (other.parts, o)):
            parts = parts.astype(dtype, copy=False)
            scaled.append(parts if factor == 1 else parts * factor)
        return (*scaled, den)

    def __add__(self, other: ExactArray) -> ExactArray:
        a, b, den = self._common(other)
        return ExactArray(a + b, den)

    def __sub__(self, other: ExactArray) -> ExactArray:
        a, b, den = self._common(other)
        return ExactArray(a - b, den)

    def __neg__(self) -> ExactArray:
        return ExactArray(-self.parts, self.den)

    def _times(self, p, q, den: int) -> ExactArray:
        """Each entry times p + q*sqrt2, over ``den``, reduced; ``p`` and
        ``q`` are integers or integer arrays of the entry shape."""
        dtype = _storage(max(_peak(self.parts), 1) * max(_peak(p) + 2 * _peak(q), 1))
        p, q = (np.asarray(v).astype(dtype, copy=False) for v in (p, q))
        a, b = self.parts.astype(dtype, copy=False)
        # (a + b*sqrt2)(p + q*sqrt2) = (a*p + 2*b*q) + (a*q + b*p)*sqrt2
        return ExactArray(np.stack([a * p + b * (2 * q), a * q + b * p]), den).reduced()

    def scale(self, factor: QSqrt2 | Rational) -> ExactArray:
        q = as_qsqrt2(factor)
        a_den, b_den = q.a.denominator, q.b.denominator
        return self._times(
            q.a.numerator * b_den, q.b.numerator * a_den, self.den * a_den * b_den
        )

    def times_sqrt2_powers(self, powers: np.ndarray) -> ExactArray:
        """Each entry times sqrt2^k, k the integer at its position in
        ``powers`` (negative k divide), reduced."""
        # sqrt2^k = 2^half * sqrt2^odd; the least negative half goes to den
        half, odd = np.divmod(np.asarray(powers, dtype=np.int64), 2)
        low = min(int(half.min(initial=0)), 0)
        factor = np.left_shift(1, half - low)
        return self._times(factor * (1 - odd), factor * odd, self.den << -low)

    def tensordot(self, other: ExactArray, axes) -> ExactArray:
        """``np.tensordot`` of the entries over the list pair ``axes``, as one
        real product parts = [[l.r, 2 l.i], [l.i, l.r]] . other.parts."""
        left_axes, right_axes = axes
        contracted = math.prod(self.shape[axis] for axis in left_axes)
        # parts[0] = l.r * r.r + 2 l.i * r.i sums at most 3 * contracted
        # products of two peaks; below 2^53 float64 computes every term and
        # every partial sum exactly, in whatever order BLAS adds them
        exact_in_float = contracted * _peak(self.parts) * _peak(other.parts) * 3 < _FLOAT_EXACT_BOUND
        dtype = np.float64 if exact_in_float else object
        lr, li = self.parts.astype(dtype, copy=False)
        # [output part, input part, *self.shape]
        left = np.stack([lr, 2 * li, li, lr]).reshape((2, 2, *self.shape))
        product = np.tensordot(
            left,
            other.parts.astype(dtype, copy=False),
            (
                [1, *(axis % len(self.shape) + 2 for axis in left_axes)],
                [0, *(axis % len(other.shape) + 1 for axis in right_axes)],
            ),
        )
        if exact_in_float:
            product = product.astype(np.int64)
        return ExactArray(product, self.den * other.den)

    def transpose(self, axes: tuple[int, ...]) -> ExactArray:
        ndim = len(self.shape)
        return ExactArray(
            self.parts.transpose((0, *(axis % ndim + 1 for axis in axes))), self.den
        )

    def is_zero(self) -> bool:
        return not self.parts.any()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExactArray):
            return NotImplemented
        if self.shape != other.shape:
            return False
        a, b, _ = self._common(other)
        # part by part, so a difference in the rational part ends the scan
        return all((x == y).all() for x, y in zip(a, b))

    def to_float(self) -> np.ndarray:
        a, b = self.parts.astype(np.float64)
        return (a + b * _SQRT2_FLOAT) / self.den


def csr_matvec(
    starts: np.ndarray, columns: np.ndarray, coefficients: np.ndarray, vector: ExactArray
) -> ExactArray:
    """Integer matrix in CSR form (row starts, columns, coefficients; no empty
    row) times a 1-D exact vector."""
    row_bound = int(np.add.reduceat(np.abs(coefficients), starts).max(initial=0))
    dtype = _storage(max(_peak(vector.parts), 1) * row_bound)
    gathered = vector.parts.astype(dtype, copy=False)[:, columns]
    return ExactArray(
        np.add.reduceat(coefficients.astype(dtype) * gathered, starts, axis=1), vector.den
    )
