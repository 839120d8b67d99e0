"""Exact arithmetic over the quadratic field Q(sqrt(2)) and exact linear algebra.

Every structure constant, connection coefficient and certificate entry in this
package is a number of the form a + b*sqrt(2) with rational a, b.  This module
provides that scalar type, a fraction-free sparse echelon solver for integer
rows whose nullspace it returns in that type (the one elimination routine of
the package, built on one row operation that clears a pivot column and
divides by the gcd), and a dense multi-index array representation used for
bulk tensor contractions.  A dense array is one integer array ``parts`` of shape
(2, *shape), the rational and sqrt(2) coefficients over a shared denominator,
stored as int64 and falling back to arbitrary-precision Python ints only past
2^62.  A signed sum of transposed contractions (``contraction_sum``, the
shape of every (d, d, d, d) formula in ``connections``) is one of two full
passes.  When every product has at most one slice's worth of contributing
entry pairs, a slice being the sum at one index of its last axis (d^3
entries), the sparse pass sums those pairs alone, in two phases.  A plan,
built once per nonzero pattern of the operands and kept in a fixed-size
cache, joins their nonzero entries on the contracted coordinates and fixes
the order in which the pairs are summed; the numeric pass of each call
gathers the entries by that plan and sums them, in int64 while every
partial sum stays below 2^53 and in Python ints past it.  Its result keeps
those sums as they are, an ``ExactArray`` held as its nonzero entries
alone, whose dense ``parts`` are built only when something reads them:
a comparison, a zero test, a transpose or a walk over the nonzero entries
never builds them.  The alpha family takes it; LC + alpha K has one nonzero
pattern for every alpha but 0 and +-1 (checked for n <= 6), so those
alphas share their plans.  Otherwise the dense pass, ``_signed_sum``,
the one loop that adds signed product views into a total, makes each
Q(sqrt(2)) contraction one real product on ``parts``, run in float64 BLAS
below the same 2^53 bound, where float64 is exact, a product at a time
over the heads of two float64 buffers that each thread reuses from call to
call; a dense random K takes it, and leaves no plan in the cache.
``contraction_vanishes`` routes such a sum first: the sparse pass decides
alone, and ahead of the dense pass the slice at index 0 of the last axis
is tried, a smaller formula of operands cut to that index (``_probe``)
that the same loop adds up in the same two buffers, the dense pass
running only when that slice is zero.
"""

from __future__ import annotations

import functools
import math
import re
import threading
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
        # a Fraction is immutable and already normalised, so it is kept as is
        self._a = a if type(a) is Fraction else Fraction(a)
        self._b = b if type(b) is Fraction else Fraction(b)

    @property
    def a(self) -> Fraction:
        return self._a

    @property
    def b(self) -> Fraction:
        return self._b

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


def _eliminate(row: SparseRow, stored: SparseRow, col: int) -> None:
    """Clear ``col`` from ``row``, in place, with ``stored``, the row whose pivot
    is ``col``: ``row`` becomes ``stored[col]*row - row[col]*stored``, both
    coefficients first divided by their gcd, then divided by the gcd of its
    entries.  The one fraction-free row operation of :class:`SparseEchelon`."""
    g = math.gcd(stored[col], row[col])
    scale, factor = stored[col] // g, row.pop(col) // g
    if scale != 1:
        for c in row:
            row[c] *= scale
    for c, v in stored.items():
        if c != col:
            acc = row.get(c, 0) - factor * v
            if acc:
                row[c] = acc
            else:
                row.pop(c, None)
    g = math.gcd(*row.values())
    if g > 1:
        for c in row:
            row[c] //= g


class SparseEchelon:
    """Incrementally maintained reduced row echelon form of integer rows.

    Rows are sparse column->int maps.  Each stored row is a primitive integer
    row whose pivot coefficient is positive and which contains no other pivot
    column.  Elimination is fraction-free and has one row operation,
    ``_eliminate``: a new row is cleared on each pivot column it holds, and its
    own pivot is then cleared from every stored row holding it.  Rationals
    appear only in the nullspace returned by :meth:`kernel_basis`.
    """

    def __init__(self, cols: int) -> None:
        self.cols = cols
        self._pivot_rows: dict[int, SparseRow] = {}

    @property
    def rank(self) -> int:
        return len(self._pivot_rows)

    def insert(self, row: SparseRow) -> bool:
        """Reduce ``row`` against the basis; absorb it if independent."""
        new = {c: v for c, v in row.items() if v}
        for col in [c for c in new if c in self._pivot_rows]:
            _eliminate(new, self._pivot_rows[col], col)
        if not new:
            return False
        # the least |entry| (then least column) is the pivot; dividing by the
        # gcd signed like it makes the row primitive with a positive pivot
        pivot = min(new, key=lambda c: (abs(new[c]), c))
        g = math.gcd(*new.values())
        if new[pivot] < 0:
            g = -g
        if g != 1:
            new = {c: v // g for c, v in new.items()}
        for stored in self._pivot_rows.values():
            if pivot in stored:
                _eliminate(stored, new, pivot)
        self._pivot_rows[pivot] = new
        return True

    def kernel_basis(self) -> list[list[QSqrt2]]:
        """Exact nullspace basis over Q, one vector per free column.

        Each vector is rescaled so its first nonzero coordinate (in column
        order) equals 1, which makes the output deterministic.
        """
        basis = []
        for f in range(self.cols):
            if f in self._pivot_rows:
                continue
            # x_f = the lcm of the pivots of the rows holding f makes each
            # x_p = -row[f] * x_f / row[p] an integer
            rows = [(p, row) for p, row in self._pivot_rows.items() if f in row]
            vec = [0] * self.cols
            vec[f] = math.lcm(*(row[p] for p, row in rows))
            for p, row in rows:
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
#: entries per gcd scan step of ``_int_gcd_reduce``; its temporaries stay small
_GCD_BLOCK = 8192


def _storage(bound: int) -> type:
    """Storage dtype for integers of magnitude at most ``bound``: int64 below
    2^62, else an object array of arbitrary-precision Python ints."""
    return np.int64 if bound < _INT64_BOUND else object


def _peak(values) -> int:
    """Largest magnitude of an integer in ``values``, an integer or array."""
    # max and -min read the array without building a full-size abs temporary
    values = np.asarray(values)
    return max(int(values.max(initial=0)), -int(values.min(initial=0)))


def _int_gcd_reduce(
    parts: np.ndarray, den: int, out: np.ndarray | None = None
) -> tuple[np.ndarray, int]:
    """``parts`` and ``den`` divided by the gcd of ``den`` and every entry,
    the quotient written into ``out`` when it is given (``parts`` itself, when
    the caller owns them); an all-zero array comes back over 1."""
    bits = int(np.bitwise_or.reduce(parts, axis=None))
    if bits == 0:
        # only here can the gcd be too large for int64 division
        return parts, 1
    # an entry's power of two is its lowest set bit, in two's complement as
    # well, so the lowest set bit of the or of all entries is the shared one
    g = math.gcd(den, bits & -bits)
    odd = den // (den & -den)
    if odd > 1:
        # a gcd scan over the nonzero entries of one block at a time, which is
        # quick on a sparse array, up to the block that brings it to 1, which
        # comes soon on a dense one
        flat = parts.reshape(-1)
        for start in range(0, flat.size, _GCD_BLOCK):
            block = flat[start : start + _GCD_BLOCK]
            odd = math.gcd(odd, int(np.gcd.reduce(block[block != 0])))
            if odd == 1:
                break
    g *= odd
    if g == 1:
        return parts, den
    return np.floor_divide(parts, g, out=out), den // g


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
        """``np.tensordot`` of the entries over the list pair ``axes``,
        reduced: the one-term case of ``contraction_sum``."""
        return contraction_sum([(self, other, axes)], [(1, 0, None)])

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
        a, b = (self.parts, other.parts) if self.den == other.den else self._common(other)[:2]
        # part by part, so a difference in the rational part ends the scan
        return all((x == y).all() for x, y in zip(a, b))

    def to_float(self) -> np.ndarray:
        a, b = self.parts.astype(np.float64)
        return (a + b * _SQRT2_FLOAT) / self.den


class _SparseArray(ExactArray):
    """An ``ExactArray`` held as its nonzero entries alone, as the sparse pass
    of ``contraction_sum`` returns it: ``at``, their flat indices in C order,
    ascending, and ``values``, their parts, of shape (2, len(at)), over
    ``den``.  No entry is zero and no factor divides ``den`` and every value,
    and an empty one is over 1, so two of them are equal exactly when their
    shapes, dens, ``at`` and ``values`` are.

    ``parts`` is built on its first read, by the zero-and-scatter of the
    values, and kept, so every other method reads it as on a dense array;
    ``is_zero``, ``nonzero_items``, ``transpose`` and ``==`` against another
    one read the entries alone.
    """

    def __init__(self, at: np.ndarray, values: np.ndarray, den: int, shape: tuple[int, ...]):
        for name, value in (("at", at), ("values", values), ("den", den), ("_shape", shape)):
            object.__setattr__(self, name, value)

    @property
    def shape(self) -> tuple[int, ...]:
        return self._shape

    @functools.cached_property
    def parts(self) -> np.ndarray:
        parts = np.zeros((2, math.prod(self._shape)), self.values.dtype)
        parts[:, self.at] = self.values
        return parts.reshape((2, *self._shape))

    def nonzero_items(self) -> list[tuple[tuple[int, ...], QSqrt2]]:
        coords = zip(*(axis.tolist() for axis in np.unravel_index(self.at, self._shape)))
        return [
            (idx, QSqrt2(Fraction(a, self.den), Fraction(b, self.den)))
            for idx, a, b in zip(coords, *self.values.tolist())
        ]

    def transpose(self, axes: tuple[int, ...]) -> ExactArray:
        axes = [axis % len(self._shape) for axis in axes]
        coords = np.unravel_index(self.at, self._shape)
        shape = tuple(self._shape[axis] for axis in axes)
        at = np.ravel_multi_index([coords[axis] for axis in axes], shape)
        order = np.argsort(at)
        return _SparseArray(at[order], self.values[:, order], self.den, shape)

    def is_zero(self) -> bool:
        return self.at.size == 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, _SparseArray):
            return super().__eq__(other)
        return (
            self._shape == other._shape
            and self.den == other.den
            and np.array_equal(self.at, other.at)
            and np.array_equal(self.values, other.values)
        )


#: float64 buffers of this thread's latest contraction in float64
_WORKSPACE = threading.local()
#: bytes past which ``_workspace`` holds nothing: 20 MiB, enough for the
#: two buffers of every d^4 formula up to n = 6 (d = 27, 16.2 MiB), not n = 7's
WORKSPACE_CAP = 20 * 2**20


def _workspace(count: int, size: int) -> list[np.ndarray]:
    """``count`` flat float64 buffers of at least ``size`` entries: the ones
    this thread holds when they are that large, else new ones of ``size``
    entries that it holds for its later calls.

    A d^4 product is written here rather than into a fresh array because a
    fresh one costs more than its arithmetic: glibc hands large freed blocks
    back to the OS, so every new one page-faults all of its pages in again.
    A signed sum takes the heads of two, the product being added and the
    total, whatever the number of products: 4.9 MiB at n = 5.  The cut
    formula of ``_probe`` is summed the same way, so a warm probe writes
    into the heads of the two buffers that the dense pass overwrites next.
    Past ``WORKSPACE_CAP`` bytes the held buffers are dropped and fresh ones
    returned, so that a large n does not stay resident after its call: at
    n = 8 the two are 114 MiB, and faulting them in afresh costs
    ``verify_theorem(8)`` at most about a tenth of its time.
    """
    if count * size * 8 > WORKSPACE_CAP:
        _WORKSPACE.buffers = []
        return [np.empty(size) for _ in range(count)]
    held = getattr(_WORKSPACE, "buffers", [])
    if len(held) < count or held[0].size < size:
        held = _WORKSPACE.buffers = [np.empty(size) for _ in range(count)]
    return held[:count]


def _split(shape: tuple[int, ...], contracted) -> tuple[list[int], list[int]]:
    """The contracted axes of an array of ``shape``, in the order given, and
    its free axes."""
    ndim = len(shape)
    contracted = [axis % ndim for axis in contracted]
    return contracted, [axis for axis in range(ndim) if axis not in contracted]


def _matrices(
    left: ExactArray, right: ExactArray, axes, factor: int, dtype: type
) -> tuple[np.ndarray, np.ndarray]:
    """Arrays a, of shape (2, *left free shape, inner), and b, of shape
    (inner, *right free shape), whose matrix product over ``inner`` is
    ``factor`` times the parts of ``left.tensordot(right, axes)``."""
    left_axes, left_free = _split(left.shape, axes[0])
    right_axes, right_free = _split(right.shape, axes[1])
    # a[p, *left_free, q, *left_axes] is entry [p, q] of [[l.r, 2 l.i],
    # [l.i, l.r]], the matrix that takes right.parts to the product's parts:
    # the rows of a run over (output part, *left_free), its columns over
    # (input part, *left_axes); it is filled through a view in left's own
    # axis order, so that a and b are the only arrays made
    a = np.empty(
        (2, *(left.shape[axis] for axis in left_free), 2, *(left.shape[axis] for axis in left_axes)),
        dtype,
    )
    place = {axis: i + 1 for i, axis in enumerate(left_free)}
    place.update((axis, i + len(left_free) + 2) for i, axis in enumerate(left_axes))
    block = a.transpose((0, len(left_free) + 1, *(place[axis] for axis in range(len(left.shape)))))
    real, irrational = left.parts
    block[0, 0] = block[1, 1] = real
    block[0, 1] = block[1, 0] = irrational
    block[0, 1] *= 2
    if factor != 1:
        a *= factor
    b = right.parts.transpose(
        (0, *(axis + 1 for axis in right_axes), *(axis + 1 for axis in right_free))
    ).astype(dtype, order="C")
    inner = 2 * math.prod(left.shape[axis] for axis in left_axes)
    return (
        a.reshape((*a.shape[: len(left_free) + 1], inner)),
        b.reshape((inner, *b.shape[len(right_axes) + 1 :])),
    )


def _operands(products) -> dict[int, ExactArray]:
    """Each distinct operand of ``products`` by its ``id``, so that one that
    fills several slots, as Gamma fills 3 of a curvature's 4, is read once;
    ``products`` holds them for as long as the ids are used."""
    return {id(array): array for left, right, _ in products for array in (left, right)}


def _prepared(products, terms) -> tuple[int, bool, list[int]]:
    """The common denominator of ``products``, whether float64 computes the
    signed sum of ``terms`` exactly, and the factor that puts each product
    over that denominator."""
    dens = [left.den * right.den for left, right, _ in products]
    den = math.lcm(*dens)
    factors = [den // d for d in dens]
    # an entry of a product sums 3 * contracted products of two peaks, times
    # its factor; while the terms' bounds add up to less than 2^53, float64
    # computes every product, partial sum and signed sum exactly, in whatever
    # order BLAS adds them (max(peak, 1): the factor must be exact as well)
    peaks = {key: max(_peak(array.parts), 1) for key, array in _operands(products).items()}
    bounds = [
        3
        * math.prod(left.shape[axis] for axis in axes[0])
        * peaks[id(left)]
        * peaks[id(right)]
        * factor
        for (left, right, axes), factor in zip(products, factors)
    ]
    exact_in_float = sum(bounds[index] for _, index, _ in terms) < _FLOAT_EXACT_BOUND
    return den, exact_in_float, factors


def _pairs(left_mask: np.ndarray, right_mask: np.ndarray, axes) -> int:
    """The entry pairs that contribute to a product of operands with these
    nonzero masks: over each value of the contracted coordinates, the left
    nonzeros there times the right ones."""
    counts = []
    for mask, contracted in ((left_mask, axes[0]), (right_mask, axes[1])):
        contracted, free = _split(mask.shape, contracted)
        rows = math.prod(mask.shape[axis] for axis in contracted)
        table = mask.transpose((*free, *contracted)).reshape(mask.size // max(rows, 1), rows)
        # a float64 product with ones counts each column exactly, and is
        # quicker than a count of bools along a strided axis
        counts.append(np.ones(len(table)) @ table.astype(np.float64))
    return int(counts[0] @ counts[1])


def _fewest_pairs(left_shape, right_shape, left_axes, right_axes, left_bits, right_bits) -> int:
    """A lower bound on ``_pairs`` from the operands' nonzero counts alone,
    read off their packed masks.  An operand with nnz nonzeros and F free
    entries at each of the K values of the contracted coordinates holds at
    least nnz - (K - 1) F of them at every value, so each nonzero of the
    other operand meets at least that many: a full operand meets every one
    of them F times."""
    least = []
    for shape, axes, bits in (
        (left_shape, left_axes, left_bits),
        (right_shape, right_axes, right_bits),
    ):
        contracted, free = _split(shape, axes)
        nnz = int.from_bytes(bits, "big").bit_count()
        rows = math.prod(shape[axis] for axis in contracted)
        least.append((nnz, nnz - (rows - 1) * math.prod(shape[axis] for axis in free)))
    (left_nnz, left_least), (right_nnz, right_least) = least
    return max(left_least * right_nnz, right_least * left_nnz, 0)


def _join(left_mask: np.ndarray, right_mask: np.ndarray, axes):
    """The contributing entry pairs of a product of operands with these
    nonzero masks: each pair's flat position in the left operand and in the
    right one, and its coordinates in the product, left free axes first.

    The nonzeros of the left operand are joined with those of the right one
    that share their contracted coordinates: the right ones are sorted by
    them, and each left one is repeated once per partner.
    """
    left_at, right_at = np.flatnonzero(left_mask), np.flatnonzero(right_mask)
    left_coords = np.unravel_index(left_at, left_mask.shape)
    right_coords = np.unravel_index(right_at, right_mask.shape)
    left_axes, left_free = _split(left_mask.shape, axes[0])
    right_axes, right_free = _split(right_mask.shape, axes[1])
    contracted = [left_mask.shape[axis] for axis in left_axes]
    # an outer product contracts no axis: every pair meets on one key, 0
    left_key, right_key = (
        np.ravel_multi_index([coords[axis] for axis in used], contracted)
        if contracted
        else np.zeros(len(at), np.intp)
        for at, coords, used in (
            (left_at, left_coords, left_axes),
            (right_at, right_coords, right_axes),
        )
    )
    by_key = np.argsort(right_key)
    count = np.bincount(right_key, minlength=math.prod(contracted))
    partners = count[left_key]
    li = np.repeat(np.arange(len(left_key)), partners)
    # pair j of left entry i takes the (j - its first pair)-th right entry of
    # its key in by_key, whose entries of a key start at start
    start = np.cumsum(count) - count
    offset = start[left_key] - (np.cumsum(partners) - partners)
    ri = by_key[np.repeat(offset, partners) + np.arange(len(li))]
    coords = [left_coords[axis][li] for axis in left_free]
    coords += [right_coords[axis][ri] for axis in right_free]
    return left_at[li], right_at[ri], coords


#: sparse-pass plans that ``_plan`` holds, the least recently used dropped
#: first.  A plan is its int32 index arrays, and its key holds the packed
#: masks: the alpha family's plans take 70-95 KB each at n = 5 (d = 20),
#: and 0.38-0.56 MB plus at most 42 KB of key at n = 8 (d = 44), so a cache
#: full of n = 8 plans holds at most about 19 MB.  One alpha's checks read 5
#: plans, and a predicates-n5 run of the benchmark 11
PLAN_CACHE_SIZE = 32


@dataclass(frozen=True)
class _Plan:
    """The index work of one sparse pass, which depends on the nonzero
    pattern of its operands alone, never on their values.

    ``read`` lists the products that some term reads, and ``left`` and
    ``right`` hold, per such product, the flat position in its left and its
    right operand of each contributing entry pair.  ``blocks`` lists each
    (sign, product) that some term reads: the product's pairs times the
    sign make one block, and the blocks are laid end to end.  ``gather``
    lists the pairs of every term as indices into those blocks, in the order
    of the flat index of the sum that each reaches; ``starts`` is where each
    run of one flat index begins in ``gather``, ``at`` that flat index, and
    ``shape`` the shape of the sum.
    """

    read: tuple[int, ...]
    left: tuple[np.ndarray, ...]
    right: tuple[np.ndarray, ...]
    blocks: tuple[tuple[int, int], ...]
    gather: np.ndarray
    starts: np.ndarray
    at: np.ndarray
    shape: tuple[int, ...]


class _DenseRoute(Exception):
    """A pattern that takes the dense pass.  ``_plan`` raises it rather than
    return a verdict because ``lru_cache`` keeps no call that raised, so that
    dense patterns, each random K's among them, take no slot."""


def _bits(array: ExactArray) -> bytes:
    """Where ``array`` is nonzero, packed eight entries to a byte in C order."""
    return np.packbits(np.logical_or(*array.parts, dtype=bool)).tobytes()


def _plan_key(products, terms) -> tuple:
    """The pattern of a signed sum, all that its plan is built from: per
    product the operands' shapes, the contracted axes and both operands'
    packed nonzero masks, then the terms.  Tuples compare whole, bytes
    included, so two patterns never share a key."""
    bits = {key: _bits(array) for key, array in _operands(products).items()}
    return (
        tuple(
            (left.shape, right.shape, tuple(axes[0]), tuple(axes[1]), bits[id(left)], bits[id(right)])
            for left, right, axes in products
        ),
        tuple((sign, index, perm if perm is None else tuple(perm)) for sign, index, perm in terms),
    )


def _indices(values: np.ndarray) -> np.ndarray:
    """``values``, read-only, as int32 when they fit, which halves a plan."""
    if values.size == 0 or values.max() < 2**31:
        values = values.astype(np.int32)
    values.flags.writeable = False
    return values


def _unpacked(bits: bytes, shape: tuple[int, ...]) -> np.ndarray:
    """The nonzero mask of shape ``shape`` that ``_bits`` packed."""
    flat = np.unpackbits(np.frombuffer(bits, np.uint8), count=math.prod(shape))
    return flat.view(bool).reshape(shape)


@functools.lru_cache(maxsize=PLAN_CACHE_SIZE)
def _plan(key) -> _Plan:
    """The plan of the sparse pass for the pattern ``key`` of ``_plan_key``,
    built from the key alone; raises ``_DenseRoute`` when the pattern takes
    the dense pass: when some product has more contributing entry pairs
    than one slice of the sum, at one index of its last axis, has entries,
    or the sum has no axis left, and so no slice.  ``_fewest_pairs`` tries
    each product from its nonzero counts first, and only a pattern that it
    leaves open is unpacked and counted pair by pair."""
    operands, terms = key
    shape = _term_shape([(left, right, axes) for left, right, *axes, _, _ in operands], terms)
    if not shape:
        raise _DenseRoute
    slice_size = math.prod(shape[:-1])
    # a full operand, a dense K's, is decided here without unpacking a mask
    if any(_fewest_pairs(*operand) > slice_size for operand in operands):
        raise _DenseRoute
    masks = []
    for left_shape, right_shape, left_axes, right_axes, left_bits, right_bits in operands:
        product = (
            _unpacked(left_bits, left_shape),
            _unpacked(right_bits, right_shape),
            (left_axes, right_axes),
        )
        if _pairs(*product) > slice_size:
            raise _DenseRoute
        masks.append(product)
    read = sorted({index for _, index, _ in terms})
    joined = {index: _join(*masks[index]) for index in read}
    # each (sign, product) that a term reads is one block of pairs, and the
    # blocks are laid end to end
    blocks = sorted({(sign, index) for sign, index, _ in terms})
    ends = dict(zip(blocks, np.cumsum([len(joined[index][0]) for _, index in blocks])))
    keys, gather = [], []
    for sign, index, perm in terms:
        left_at, _, coords = joined[index]
        coords = coords if perm is None else [coords[axis] for axis in perm]
        keys.append(np.ravel_multi_index(coords, shape))
        gather.append(np.arange(ends[sign, index] - len(left_at), ends[sign, index]))
    # integers add up exactly in any order, so the sort need not be stable
    keys = np.concatenate(keys)
    order = np.argsort(keys)
    keys = keys[order]
    starts = np.flatnonzero(np.diff(keys, prepend=-1))
    return _Plan(
        read=tuple(read),
        left=tuple(_indices(joined[index][0]) for index in read),
        right=tuple(_indices(joined[index][1]) for index in read),
        blocks=tuple(blocks),
        gather=_indices(np.concatenate(gather)[order]),
        starts=_indices(starts),
        at=_indices(keys[starts]),
        shape=shape,
    )


def _route(products, terms) -> _Plan | None:
    """The plan of the sparse pass for this sum, from the cache while its
    pattern stays there; None when the sum takes the dense pass."""
    try:
        return _plan(_plan_key(products, terms))
    except _DenseRoute:
        return None


def _sparse_sum(plan: _Plan, products, factors, exact_in_float: bool) -> np.ndarray:
    """The parts (2, count) of the signed sum at the flat indices ``plan.at``,
    from the contributing entry pairs of its products alone, in int64 below
    the 2^53 bound and in Python ints past it: the numeric pass of a plan.

    Each product read gathers its pairs' entries a + b sqrt2 of the left
    operand and c + d sqrt2 of the right one by their flat positions and
    forms (ac + 2bd) + (ad + bc) sqrt2 times its factor.  The plan's blocks
    are laid end to end, the terms' pairs are taken from them in the plan's
    order, and ``np.add.reduceat`` adds up each run of one flat index.
    """
    dtype = np.int64 if exact_in_float else object
    values = {}
    for index, left_at, right_at in zip(plan.read, plan.left, plan.right):
        left, right, _ = products[index]
        a, b = left.parts.reshape(2, -1).take(left_at, axis=1).astype(dtype, copy=False)
        c, d = right.parts.reshape(2, -1).take(right_at, axis=1).astype(dtype, copy=False)
        parts = np.stack([a * c + 2 * b * d, a * d + b * c])
        if factors[index] != 1:
            parts *= factors[index]
        values[index] = parts
    blocks = [values[index] if sign == 1 else -values[index] for sign, index in plan.blocks]
    pairs = np.concatenate(blocks, axis=1).take(plan.gather, axis=1)
    return np.add.reduceat(pairs, plan.starts, axis=1)


def _signed_sum(products, terms, factors, exact_in_float: bool) -> np.ndarray:
    """The signed sum of ``terms``: each product that a term reads is one
    matrix product of its ``_matrices`` into one buffer, whose signed
    transposed views are added into the total; in float64, the heads of two
    buffers of this thread's workspace, else fresh object arrays."""
    dtype = np.float64 if exact_in_float else object
    size = 2 * math.prod(_sum_shape(products, terms))
    if exact_in_float:
        buffer, total = (held[:size] for held in _workspace(2, size))
    else:
        buffer, total = (np.empty(size, dtype=object) for _ in range(2))
    first = True
    for index, ((left, right, axes), factor) in enumerate(zip(products, factors)):
        mine = [(sign, perm) for sign, i, perm in terms if i == index]
        if not mine:
            continue
        a, b = _matrices(left, right, axes, factor, dtype)
        rows = math.prod(a.shape[:-1])
        product = np.matmul(
            a.reshape(rows, -1), b.reshape(len(b), -1), out=buffer.reshape(rows, -1)
        ).reshape((*a.shape[:-1], *b.shape[1:]))
        for sign, perm in mine:
            view = product if perm is None else product.transpose((0, *(axis + 1 for axis in perm)))
            total = total.reshape(view.shape)
            {1: np.add, -1: np.subtract}[sign](0 if first else total, view, out=total)
            first = False
    return total


def _term_shape(shapes, terms) -> tuple[int, ...]:
    """The shape of every term of the sum, read from its first; ``shapes``
    lists (left shape, right shape, axes) per product."""
    _, index, perm = terms[0]
    left, right, axes = shapes[index]
    shape = [left[axis] for axis in _split(left, axes[0])[1]]
    shape += [right[axis] for axis in _split(right, axes[1])[1]]
    return tuple(shape if perm is None else (shape[axis] for axis in perm))


def _sum_shape(products, terms) -> tuple[int, ...]:
    """The shape of the signed sum of ``terms`` over ``products``."""
    return _term_shape([(left.shape, right.shape, axes) for left, right, axes in products], terms)


def contraction_sum(products, terms) -> ExactArray:
    """The reduced sum over ``terms`` of ``sign *
    left.tensordot(right, axes).transpose(perm)``, ``products`` listing
    (left, right, axes) and each term being (sign, index of its product,
    perm), with sign 1 or -1 and perm None for no transpose.  Each product
    is computed once, however many terms read it.

    Every term is put over one common denominator, and one bound from the
    operands' peaks decides whether float64 is exact; both are taken from
    the values of every call.  The route is read from the operands' nonzero
    pattern: when every product has at most one slice's worth of
    contributing entry pairs (a slice being the sum at one index of its
    last axis), the sparse pass sums those pairs alone.
    Its symbolic phase, the plan of ``_plan`` (which pairs meet, where each
    lands, in what order they are summed), is built once per pattern and
    cached; its numeric phase, ``_sparse_sum``, gathers and sums the values
    by that plan, in int64 below the bound and in Python ints past it.  The
    sums that are nonzero, divided by their gcd, are the result as they
    stand, a ``_SparseArray``: no zero array is made and nothing is
    scattered until its ``parts`` are read.
    Otherwise, below the bound, each distinct product in turn is one BLAS
    matrix product into this thread's product buffer, its signed transposed
    views are added into the workspace's total, and that total is cast once
    into a fresh int64 array; past the bound the same steps run on fresh
    object arrays.  The result is divided by its gcd in place.
    """
    den, exact_in_float, factors = _prepared(products, terms)
    plan = _route(products, terms)
    if plan is None:
        total = _signed_sum(products, terms, factors, exact_in_float)
        # the one cast to integers, into a fresh array that the caller owns
        parts = total.astype(np.int64) if exact_in_float else total
        return ExactArray(*_int_gcd_reduce(parts, den, out=parts))
    total, at = _sparse_sum(plan, products, factors, exact_in_float), plan.at
    nonzero = (total != 0).any(axis=0)
    if not nonzero.all():
        total, at = total[:, nonzero], at[nonzero]
    # the gcd of the entries that some pair reaches is the gcd of them all
    total, den = _int_gcd_reduce(total, den, out=total)
    return _SparseArray(at, total, den, plan.shape)


def contraction_vanishes(products, terms) -> bool:
    """Whether ``contraction_sum(products, terms)`` is zero, decided exactly
    from the same products over the same bound, without its int64 cast, its
    gcd or its result array.

    The sum is routed first, as ``contraction_sum`` routes it, and a sum
    that takes the sparse pass is decided by the numeric phase of its
    cached plan alone.  Ahead of the dense pass, ``_signed_sum`` adds up the
    cut formula of ``_probe``, the sum at index 0 of its last axis; every
    entry of it is an entry of the sum, so one nonzero decides False, and a
    sum that does not vanish usually has one there.  Otherwise the dense
    pass runs and is tested for any nonzero entry.
    """
    _, exact_in_float, factors = _prepared(products, terms)
    plan = _route(products, terms)
    if plan is not None:
        return not _sparse_sum(plan, products, factors, exact_in_float).any()
    if _signed_sum(*_probe(products, terms, factors), exact_in_float).any():
        return False
    return not _signed_sum(products, terms, factors, exact_in_float).any()


def _probe(products, terms, factors) -> tuple[list, list, list[int]]:
    """The (products, terms, factors) of the signed sum at index 0 of its
    last axis, the cut formula, whose sum has that axis at length 1.

    Each term reads its product at index 0 of the axis that its perm sends
    last, so one product is made per (product, cut axis): the operand that
    holds that axis, cut to its index 0, goes first, so that ``_matrices``
    builds the matrix of 2x2 blocks, twice the size of the other, from the
    small one.  When the right operand is cut, the two swap, and the move
    of its free axes ahead of the left one's is folded into the perm."""
    cut_products, cut_terms, cut_factors, slices = [], [], [], {}
    for sign, index, perm in terms:
        left, right, axes = products[index]
        left_free, right_free = _split(left.shape, axes[0])[1], _split(right.shape, axes[1])[1]
        perm = tuple(range(len(left_free) + len(right_free))) if perm is None else perm
        axis = perm[-1]
        if (index, axis) not in slices:
            slices[index, axis] = len(cut_products)
            if axis < len(left_free):
                cut = ExactArray(left.parts.take([0], axis=left_free[axis] + 1), left.den)
                cut_products.append((cut, right, axes))
            else:
                at = right_free[axis - len(left_free)] + 1
                cut = ExactArray(right.parts.take([0], axis=at), right.den)
                cut_products.append((cut, left, axes[::-1]))
            cut_factors.append(factors[index])
        if axis >= len(left_free):
            # the swapped product holds the right free axes, then the left ones
            perm = tuple(
                other + len(right_free) if other < len(left_free) else other - len(left_free)
                for other in perm
            )
        cut_terms.append((sign, slices[index, axis], perm))
    return cut_products, cut_terms, cut_factors


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
