"""Exact arithmetic over the quadratic field Q(sqrt(2)) and exact linear algebra.

Every structure constant, connection coefficient and certificate entry in this
package is a number of the form a + b*sqrt(2) with rational a, b.  This module
provides that scalar type, a sparse reduced-echelon nullspace solver (the one
elimination routine of the package), and a dense multi-index array
representation used for bulk tensor contractions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

_SQRT2_FLOAT = math.sqrt(2.0)

Rational = int | Fraction


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
        rational, _, irrational = text.partition(" + ")
        if not irrational.endswith("*sqrt2"):
            raise ValueError(f"not a Q(sqrt2) literal: {text!r}")
        return cls(Fraction(rational), Fraction(irrational[: -len("*sqrt2")]))

    def to_json(self) -> list[str]:
        return [str(self._a), str(self._b)]

    @classmethod
    def from_json(cls, pair: Sequence[str]) -> QSqrt2:
        a, b = pair
        return cls(Fraction(a), Fraction(b))


ZERO = QSqrt2(0)
ONE = QSqrt2(1)
SQRT2 = QSqrt2(0, 1)
HALF_SQRT2 = QSqrt2(0, Fraction(1, 2))  # 1/sqrt(2)


def as_qsqrt2(value: QSqrt2 | Rational) -> QSqrt2:
    return value if isinstance(value, QSqrt2) else QSqrt2(value)


# ---------------------------------------------------------------------------
# Sparse reduced row echelon form and nullspace extraction.
# ---------------------------------------------------------------------------

Scalar = QSqrt2 | Rational
SparseRow = dict[int, Scalar]


def _bit_size(v: Scalar) -> int:
    if isinstance(v, QSqrt2):
        return v.bit_size()
    return v.numerator.bit_length() + v.denominator.bit_length()


def _inverse(v: Scalar) -> Scalar:
    return v.inverse() if isinstance(v, QSqrt2) else Fraction(1, v)


class SparseEchelon:
    """Incrementally maintained reduced row echelon form over Q(sqrt2).

    Rows are sparse column->scalar maps whose scalars are ``QSqrt2`` or
    rationals (``int``/``Fraction``); rows with only rational entries are
    eliminated in rational arithmetic, as Q is closed under the row
    operations.  Stored pivot rows are normalized to pivot coefficient 1 and
    contain no other pivot column, so reducing an incoming row is a single
    pass over its support.
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
        """Return ``row`` minus its projection onto the stored row space."""
        out = dict(row)
        for col in [c for c in sorted(out) if c in self._pivot_rows]:
            factor = out.pop(col, None)
            if factor is None or not factor:
                continue
            for c, v in self._pivot_rows[col].items():
                if c == col:
                    continue
                acc = out.get(c, 0) - factor * v
                if acc:
                    out[c] = acc
                else:
                    out.pop(c, None)
        return {c: v for c, v in out.items() if v}

    def insert(self, row: SparseRow) -> bool:
        """Reduce ``row`` against the basis; absorb it if independent."""
        reduced = self.reduce(row)
        if not reduced:
            return False
        pivot = min(reduced, key=lambda c: (_bit_size(reduced[c]), c))
        inv = _inverse(reduced[pivot])
        normalized = {c: v * inv for c, v in reduced.items()}
        # eliminate the new pivot column from every stored row containing it
        for holder in list(self._occurrences.get(pivot, ())):
            stored = self._pivot_rows[holder]
            factor = stored.pop(pivot)
            self._occurrences[pivot].discard(holder)
            for c, v in normalized.items():
                if c == pivot:
                    continue
                acc = stored.get(c, 0) - factor * v
                if acc:
                    if c not in stored:
                        self._occurrences.setdefault(c, set()).add(holder)
                    stored[c] = acc
                else:
                    if c in stored:
                        del stored[c]
                        self._occurrences[c].discard(holder)
        self._pivot_rows[pivot] = normalized
        for c in normalized:
            self._occurrences.setdefault(c, set()).add(pivot)
        return True

    def kernel_basis(self) -> list[list[QSqrt2]]:
        """Exact nullspace basis over Q(sqrt2), one vector per free column.

        Each vector is rescaled so its first nonzero coordinate (in column
        order) equals 1, which makes the output deterministic.
        """
        free = [c for c in range(self.cols) if c not in self._pivot_rows]
        basis = []
        for f in free:
            vec: list[Scalar] = [0] * self.cols
            vec[f] = 1
            for pivot, stored in self._pivot_rows.items():
                coeff = stored.get(f)
                if coeff:
                    vec[pivot] = -coeff
            lead = next(v for v in vec if v)
            inv = _inverse(lead)
            basis.append([as_qsqrt2(v * inv) if v else ZERO for v in vec])
        return basis


# ---------------------------------------------------------------------------
# Dense exact arrays: integer-pair storage with a shared denominator.
# ---------------------------------------------------------------------------


def _int_gcd_reduce(rat: np.ndarray, irr: np.ndarray, den: int):
    g = den
    for part in (rat.ravel(), irr.ravel()):
        # a dense array usually reaches gcd 1 within its first entries; a
        # sparse one is scanned over its nonzero entries only
        g = np.gcd.reduce(part[:64], initial=g)
        if g != 1:
            g = np.gcd.reduce(part[part.nonzero()], initial=g)
    g = int(g)
    if g == 1:
        return rat, irr, den
    return rat // g, irr // g, den // g


def _peak(arr: np.ndarray) -> int:
    return int(np.abs(arr).max(initial=0))


@dataclass(frozen=True)
class ExactArray:
    """Dense array of Q(sqrt2) scalars stored as (rat + irr*sqrt2) / den.

    ``rat`` and ``irr`` are object-dtype ndarrays of arbitrary-precision ints
    and ``den`` a positive int, so all operations stay exact while contractions
    run through numpy's C loops instead of per-scalar Python arithmetic.
    """

    rat: np.ndarray
    irr: np.ndarray
    den: int

    def __post_init__(self) -> None:
        if self.den <= 0:
            raise ValueError("denominator must be positive")

    @property
    def shape(self) -> tuple[int, ...]:
        return self.rat.shape

    @classmethod
    def zeros(cls, shape: tuple[int, ...]) -> ExactArray:
        return cls(
            np.zeros(shape, dtype=object), np.zeros(shape, dtype=object), 1
        )

    @classmethod
    def build(
        cls, shape: tuple[int, ...], entry: Callable[[tuple[int, ...]], QSqrt2]
    ) -> ExactArray:
        values = [entry(idx) for idx in np.ndindex(*shape)]
        den = math.lcm(*(q.a.denominator for q in values), *(q.b.denominator for q in values))
        rat = np.array([q.a.numerator * (den // q.a.denominator) for q in values], dtype=object)
        irr = np.array([q.b.numerator * (den // q.b.denominator) for q in values], dtype=object)
        return cls(rat.reshape(shape), irr.reshape(shape), den)

    def item(self, *idx: int) -> QSqrt2:
        return QSqrt2(
            Fraction(int(self.rat[idx]), self.den),
            Fraction(int(self.irr[idx]), self.den),
        )

    def iter_items(self):
        for idx in np.ndindex(*self.shape):
            yield idx, self.item(*idx)

    def reduced(self) -> ExactArray:
        rat, irr, den = _int_gcd_reduce(self.rat, self.irr, self.den)
        return ExactArray(rat, irr, den)

    def _common(self, other: ExactArray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
        den = self.den * other.den // math.gcd(self.den, other.den)
        s, o = den // self.den, den // other.den
        return self.rat * s, self.irr * s, other.rat * o, other.irr * o, den

    def __add__(self, other: ExactArray) -> ExactArray:
        ra, ia, rb, ib, den = self._common(other)
        return ExactArray(ra + rb, ia + ib, den)

    def __sub__(self, other: ExactArray) -> ExactArray:
        ra, ia, rb, ib, den = self._common(other)
        return ExactArray(ra - rb, ia - ib, den)

    def __neg__(self) -> ExactArray:
        return ExactArray(-self.rat, -self.irr, self.den)

    def scale(self, factor: QSqrt2 | Rational) -> ExactArray:
        q = as_qsqrt2(factor)
        p_num, p_den = q.a.numerator, q.a.denominator
        r_num, r_den = q.b.numerator, q.b.denominator
        den = self.den * p_den * r_den
        pa = p_num * r_den
        pb = r_num * p_den
        return ExactArray(
            self.rat * pa + self.irr * pb * 2,
            self.rat * pb + self.irr * pa,
            den,
        ).reduced()

    def tensordot(self, other: ExactArray, axes) -> ExactArray:
        lhs = (self.rat, self.irr)
        rhs = (other.rat, other.irr)
        # int64 fast path when a conservative bound rules out overflow
        contracted = 1
        for axis in axes[0]:
            contracted *= self.shape[axis]
        peak_l = max(_peak(self.rat), _peak(self.irr))
        peak_r = max(_peak(other.rat), _peak(other.irr))
        if contracted * peak_l * peak_r * 3 < 2**62:
            lhs = (self.rat.astype(np.int64), self.irr.astype(np.int64))
            rhs = (other.rat.astype(np.int64), other.irr.astype(np.int64))
        rat = np.tensordot(lhs[0], rhs[0], axes) + 2 * np.tensordot(lhs[1], rhs[1], axes)
        irr = np.tensordot(lhs[0], rhs[1], axes) + np.tensordot(lhs[1], rhs[0], axes)
        return ExactArray(
            rat.astype(object), irr.astype(object), self.den * other.den
        )

    def transpose(self, axes: tuple[int, ...]) -> ExactArray:
        return ExactArray(
            self.rat.transpose(axes), self.irr.transpose(axes), self.den
        )

    def is_zero(self) -> bool:
        return bool((self.rat == 0).all() and (self.irr == 0).all())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExactArray):
            return NotImplemented
        if self.shape != other.shape:
            return False
        ra, ia, rb, ib, _ = self._common(other)
        return bool((ra == rb).all() and (ia == ib).all())

    def to_float(self) -> np.ndarray:
        return (
            self.rat.astype(np.float64)
            + self.irr.astype(np.float64) * _SQRT2_FLOAT
        ) / self.den
