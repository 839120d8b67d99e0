from __future__ import annotations

import itertools
import math
import sys
import threading
import traceback
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import as_objects, fractions, qsqrt2s
from gaussgeom import connections
from gaussgeom.exact import (
    HALF_SQRT2,
    ONE,
    PLAN_CACHE_SIZE,
    SQRT2,
    ZERO,
    ExactArray,
    QSqrt2,
    WORKSPACE_CAP,
    SparseEchelon,
    _WORKSPACE,
    _bits,
    _fewest_pairs,
    _int_gcd_reduce,
    _pairs,
    _plan,
    _prepared,
    _route,
    _sparse_sum,
    _SparseArray,
    _workspace,
    contraction_sum,
    contraction_vanishes,
)


class TestScalar:
    def test_sqrt2_squared_is_two(self):
        assert SQRT2 * SQRT2 == QSqrt2(2)

    def test_inverse_of_sqrt2(self):
        assert SQRT2.inverse() == QSqrt2(0, Fraction(1, 2))

    def test_conjugate_sum(self):
        assert QSqrt2(1, 1) + QSqrt2(1, -1) == QSqrt2(2)

    def test_inverse_of_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            ZERO.inverse()

    def test_division(self):
        assert (ONE + SQRT2) / (ONE + SQRT2) == ONE

    @given(qsqrt2s(), qsqrt2s(), qsqrt2s())
    def test_mul_associative(self, x, y, z):
        assert (x * y) * z == x * (y * z)

    @given(qsqrt2s(), qsqrt2s(), qsqrt2s())
    def test_distributive(self, x, y, z):
        assert x * (y + z) == x * y + x * z

    @given(qsqrt2s())
    def test_inverse_cancels(self, x):
        if x:
            assert x * x.inverse() == ONE

    @given(qsqrt2s())
    def test_float_approximation(self, x):
        expected = float(x.a) + float(x.b) * math.sqrt(2.0)
        assert abs(x.to_float() - expected) <= 1e-12

    @given(qsqrt2s())
    def test_string_round_trip(self, x):
        assert QSqrt2.parse(x.to_string()) == x

    @pytest.mark.parametrize(
        "text",
        [
            "1/0 + 0/1*sqrt2",
            "1/1 + 1/0*sqrt2",
            "1e3 + 0/1*sqrt2",
            "1e3/1 + 0/1*sqrt2",
            "1 + 0/1*sqrt2",
            "1/-2 + 0/1*sqrt2",
            "1/2+0/1*sqrt2",
            " 1/2 + 0/1*sqrt2",
            "1/2 + 0/1*sqrt2\n",
            "1/2 + 0/1",
            "1.5/1 + 0/1*sqrt2",
        ],
    )
    def test_parse_rejects_all_but_the_canonical_form(self, text):
        with pytest.raises(ValueError):
            QSqrt2.parse(text)

    def test_parse_reads_unreduced_fractions(self):
        assert QSqrt2.parse("2/4 + -3/6*sqrt2") == QSqrt2(Fraction(1, 2), Fraction(-1, 2))

    def test_canonical_string_format(self):
        assert QSqrt2(Fraction(1, 2), Fraction(-3, 4)).to_string() == "1/2 + -3/4*sqrt2"

    def test_zero_iff_both_parts_zero(self):
        assert not QSqrt2(0, 0)
        assert QSqrt2(0, 1)
        assert QSqrt2(1, 0)


def eliminate(rows, cols):
    """Echelon of dense integer rows, zero entries left out."""
    echelon = SparseEchelon(cols)
    for row in rows:
        echelon.insert({c: v for c, v in enumerate(row) if v})
    return echelon


def mul_vec(rows, vec):
    return [sum((v * x for v, x in zip(row, vec)), ZERO) for row in rows]


def rational(vec):
    """A kernel vector's entries as Fractions; they must have no sqrt2 part."""
    assert all(v.b == 0 for v in vec)
    return [v.a for v in vec]


def gauss_jordan(rows, cols):
    """Reference: the nonzero rows of the reduced row echelon form over Q,
    and its pivot columns, by dense Fraction arithmetic."""
    m = [[Fraction(v) for v in row] for row in rows]
    pivots = []
    for c in range(cols):
        k = len(pivots)
        r = next((i for i in range(k, len(m)) if m[i][c]), None)
        if r is None:
            continue
        m[k], m[r] = m[r], m[k]
        m[k] = [v / m[k][c] for v in m[k]]
        m = [
            row if i == k else [a - row[c] * b for a, b in zip(row, m[k])]
            for i, row in enumerate(m)
        ]
        pivots.append(c)
    return m[: len(pivots)], pivots


def reference_kernel(rows, cols):
    """Nullspace basis of the reference echelon form, one vector per free
    column."""
    reduced, pivots = gauss_jordan(rows, cols)
    basis = []
    for f in (c for c in range(cols) if c not in pivots):
        vec = [Fraction(0)] * cols
        vec[f] = Fraction(1)
        for row, p in zip(reduced, pivots):
            vec[p] = -row[f]
        basis.append(vec)
    return basis


@st.composite
def small_matrices(draw):
    """Integer matrices up to 8 x 8, mostly zeros; the large entries (some
    past 2^62) and the small non-unit ones reach non-unit pivots and the gcd
    division, and with sparse rows a new pivot is often cleared from two or
    more stored rows."""
    rows = draw(st.integers(min_value=1, max_value=8))
    cols = draw(st.integers(min_value=1, max_value=8))
    entries = st.one_of(
        st.just(0),
        st.just(0),
        st.integers(min_value=-6, max_value=6),
        st.integers(min_value=-(2**70), max_value=2**70),
    )
    return draw(
        st.lists(
            st.lists(entries, min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )


#: the third row's pivot, column 2, is held by both stored rows, so inserting
#: it clears column 2 from two rows; the kernel is spanned by (1, 1, -2, 1)
TWO_HOLDERS = [[1, 0, 1, 1], [0, 1, 1, 1], [0, 0, 1, 2]]


class TestKernel:
    def test_single_row(self):
        assert eliminate([[1, -1]], 2).kernel_basis() == [[ONE, ONE]]

    def test_identity_has_trivial_kernel(self):
        identity = [[int(i == j) for j in range(3)] for i in range(3)]
        echelon = eliminate(identity, 3)
        assert echelon.kernel_basis() == []
        assert echelon.rank == 3

    def test_hand_eliminated_system(self):
        # rows: 2 x0 = 3 x2, x1 = 0; the kernel spans (3, 0, 2), a non-unit
        # pivot on either end
        rows = [[2, 0, -3], [0, 1, 0]]
        (vec,) = eliminate(rows, 3).kernel_basis()
        assert mul_vec(rows, vec) == [ZERO, ZERO]
        # normalized so the first nonzero is 1
        assert vec == [ONE, ZERO, QSqrt2(Fraction(2, 3))]

    @given(small_matrices())
    @example(TWO_HOLDERS)
    def test_kernel_vectors_are_exact_solutions(self, rows):
        for vec in eliminate(rows, len(rows[0])).kernel_basis():
            assert mul_vec(rows, vec) == [ZERO] * len(rows)

    @given(small_matrices())
    @example(TWO_HOLDERS)
    def test_rank_nullity(self, rows):
        echelon = eliminate(rows, len(rows[0]))
        assert len(echelon.kernel_basis()) == len(rows[0]) - echelon.rank

    @given(small_matrices(), st.randoms(use_true_random=False))
    def test_rank_invariant_under_row_permutation(self, rows, rnd):
        shuffled = list(rows)
        rnd.shuffle(shuffled)
        cols = len(rows[0])
        assert eliminate(shuffled, cols).rank == eliminate(rows, cols).rank

    def test_sparse_interface_matches_dense(self):
        # rows given with their explicit zero entries eliminate like the
        # sparse rows that leave them out
        sparse = SparseEchelon(3)
        dense = SparseEchelon(3)
        for row in ([2, 0, -3], [0, 1, 0]):
            sparse.insert({c: v for c, v in enumerate(row) if v})
            dense.insert(dict(enumerate(row)))
        assert dense.rank == sparse.rank == 2
        assert dense.kernel_basis() == sparse.kernel_basis()

    @given(small_matrices())
    @example(TWO_HOLDERS)
    def test_rank_and_kernel_match_dense_reference(self, rows):
        # the same rank, and kernels that span the same space: both bases
        # have the same reduced row echelon form
        cols = len(rows[0])
        echelon = eliminate(rows, cols)
        reference = reference_kernel(rows, cols)
        assert echelon.rank == len(gauss_jordan(rows, cols)[1])
        basis = [rational(vec) for vec in echelon.kernel_basis()]
        assert gauss_jordan(basis, cols) == gauss_jordan(reference, cols)


class TestExactArray:
    def test_build_and_item(self):
        arr = ExactArray.build((2, 2), lambda idx: QSqrt2(idx[0], Fraction(idx[1], 2)))
        assert arr.item(1, 1) == QSqrt2(1, Fraction(1, 2))
        assert arr.item(0, 0) == ZERO

    def test_addition_rescales_denominators(self):
        a = ExactArray.build((2,), lambda i: QSqrt2(Fraction(1, 2)))
        b = ExactArray.build((2,), lambda i: QSqrt2(Fraction(1, 3)))
        assert (a + b).item(0) == QSqrt2(Fraction(5, 6))

    def test_equal_denominators_add_subtract_and_compare(self):
        a = ExactArray.build((2,), lambda i: QSqrt2(Fraction(1, 2), Fraction(i[0], 2)))
        b = ExactArray.build((2,), lambda i: QSqrt2(Fraction(3, 2), Fraction(1, 2)))
        assert a.den == b.den == 2
        total = a + b
        assert [total.item(i) for i in range(2)] == [QSqrt2(2, Fraction(1, 2)), QSqrt2(2, 1)]
        assert (b - a).item(0) == QSqrt2(1, Fraction(1, 2))
        assert a == ExactArray.build((2,), lambda i: QSqrt2(Fraction(1, 2), Fraction(i[0], 2)))
        assert not (a == b)
        # the operands are left as they were
        assert a.item(1) == QSqrt2(Fraction(1, 2), Fraction(1, 2))
        assert total.parts is not a.parts and total.parts is not b.parts

    def test_tensordot_matches_scalar_products(self):
        a = ExactArray.build((2, 2), lambda idx: QSqrt2(idx[0] + 1, idx[1]))
        b = ExactArray.build((2, 2), lambda idx: QSqrt2(idx[1], Fraction(1, 2)))
        prod = a.tensordot(b, axes=([1], [0]))
        for i in range(2):
            for j in range(2):
                expected = sum(
                    (a.item(i, k) * b.item(k, j) for k in range(2)), ZERO
                )
                assert prod.item(i, j) == expected

    def test_scale_and_equality(self):
        a = ExactArray.build((3,), lambda i: QSqrt2(i[0]))
        doubled = a.scale(QSqrt2(2))
        halved = doubled.scale(QSqrt2(Fraction(1, 2)))
        assert halved == a
        assert not (doubled == a)

    def test_scale_by_sqrt2(self):
        a = ExactArray.build((2,), lambda i: QSqrt2(1, 1))
        scaled = a.scale(SQRT2)
        assert scaled.item(0) == QSqrt2(2, 1)

    def test_scale_by_zero_past_int64(self):
        # the arbitrary-precision entries must not be cast to int64 first
        a = ExactArray.build((2,), lambda i: QSqrt2(2**70 + i[0]))
        assert a.scale(0).is_zero()

    @pytest.mark.parametrize("big", [1, 2**70])
    def test_times_sqrt2_powers(self, big):
        values = [QSqrt2(big, Fraction(1, 3)), QSqrt2(Fraction(5, 2), -big), QSqrt2(7, 1)]
        a = ExactArray.build((3,), lambda i: values[i[0]])
        powers = [3, -1, -4]
        result = a.times_sqrt2_powers(np.array(powers))
        for i, (value, k) in enumerate(zip(values, powers)):
            factor = SQRT2 if k > 0 else HALF_SQRT2
            for _ in range(abs(k)):
                value = value * factor
            assert result.item(i) == value

    @pytest.mark.parametrize("dtype", [np.int64, object])
    @pytest.mark.parametrize("axes", [(-1, 0, 1), (2, -3, -2), (-2, -1, -3)])
    def test_transpose_with_negative_axes(self, axes, dtype):
        # distinct entries, so a misplaced axis moves some of them
        a = ExactArray((np.arange(48).reshape(2, 2, 3, 4) - 20).astype(dtype), 3)
        result = a.transpose(axes)
        assert _same(result, np.transpose(as_objects(a), axes))
        assert result.parts.dtype == dtype

    def test_is_zero(self):
        assert ExactArray.zeros((2, 3)).is_zero()
        a = ExactArray.build((2,), lambda i: QSqrt2(i[0]))
        assert not a.is_zero()

    @given(st.lists(qsqrt2s(), min_size=1, max_size=6), st.integers(1, 12))
    def test_reduced_divides_out_the_common_factor(self, values, factor):
        a = ExactArray.build((len(values),), lambda idx: values[idx[0]])
        reduced = ExactArray(a.parts * factor, a.den * factor).reduced()
        assert reduced.den == a.den
        assert reduced.parts.tolist() == a.parts.tolist()

    @pytest.mark.parametrize("part", ["rat", "irr"])
    def test_reduced_scans_past_the_leading_entries(self, part):
        # the leading entries share the factor 4 with the denominator; one
        # entry far behind them, in either part, shares only 2
        parts = np.zeros((2, 100), dtype=object)
        parts[0, :70] = 4
        parts[["rat", "irr"].index(part), -1] = 2
        reduced = ExactArray(parts, 8).reduced()
        assert reduced.den == 4
        assert reduced.parts.tolist() == (parts // 2).tolist()

    @pytest.mark.parametrize("dtypes", [(np.int64, np.int64), (np.int64, object), (object, object)])
    def test_equality_over_equal_and_unequal_denominators(self, dtypes, monkeypatch):
        left, right = dtypes
        a = _array([1, -2, 0], [0, 3, 4], 6, left)
        equal = [_array([1, -2, 0], [0, 3, 4], 6, right), _array([2, -4, 0], [0, 6, 8], 12, right)]
        unequal = [_array([1, -2, 0], [0, 3, 5], 6, right), _array([2, -4, 0], [0, 6, 9], 12, right)]
        for b in equal:
            assert a == b and b == a
        for b in unequal:
            assert not (a == b) and not (b == a)

        # equal denominators compare the parts as they are, with no rescaling
        def no_common(self, other):
            raise AssertionError("_common called for equal denominators")

        monkeypatch.setattr(ExactArray, "_common", no_common)
        assert a == equal[0]
        assert not (a == unequal[0])

    def test_tensordot_survives_huge_entries(self):
        # entries around 2^40 force the arbitrary-precision path; the result
        # must stay exact far beyond the int64 range
        big = 1 << 40
        a = ExactArray.build((2, 2), lambda idx: QSqrt2(big + idx[0], big - idx[1]))
        prod = a.tensordot(a, axes=([1], [0]))
        expected = sum(
            (a.item(0, k) * a.item(k, 0) for k in range(2)),
            QSqrt2(0),
        )
        assert prod.item(0, 0) == expected
        assert abs(expected.a) > 2**63  # genuinely outside int64


def _same(result: ExactArray, reference: np.ndarray) -> bool:
    return result.shape == reference.shape and all(
        x == y for x, y in zip(as_objects(result).ravel(), reference.ravel())
    )


def _array(rat, irr, den: int = 1, dtype=np.int64) -> ExactArray:
    return ExactArray(np.array([rat, irr], dtype=dtype), den)


def _odd_near(limit: int, below: bool) -> int:
    """The largest odd p with p*p < limit, or the smallest odd p with
    p*p >= limit."""
    p = math.isqrt(limit - 1)
    if below:
        return p - (p % 2 == 0)
    return p + 1 + (p % 2 == 0)


@st.composite
def bounded_arrays(draw, shape: tuple[int, ...], bits: int) -> ExactArray:
    """Entries up to 2^bits in magnitude, one of them at the peak; stored as
    int64 where they fit and as Python-int object arrays either way."""
    size = math.prod(shape)
    limit = 2**bits
    rat = draw(st.lists(st.integers(-limit, limit), min_size=size, max_size=size))
    irr = draw(st.lists(st.integers(-limit, limit), min_size=size, max_size=size))
    rat[0] = draw(st.sampled_from([limit, -limit]))
    dtype = draw(st.sampled_from([np.int64, object])) if limit < 2**62 else object
    den = draw(st.sampled_from([1, 2, 3, 5, 12, 2**61 - 1, 3**50]))
    return ExactArray(np.array([rat, irr], dtype=dtype).reshape((2, *shape)), den)


class TestStorageBounds:
    """int64 storage below 2^62, exact float64 contractions below 2^53 and the
    object fallback beyond, each against the all-object reference."""

    @pytest.mark.parametrize("contracted", [1, 3])
    @pytest.mark.parametrize("below", [True, False])
    def test_tensordot_float_bound(self, contracted, below):
        # rat sums contracted * (p*p + 2*p*p) = 3*contracted*p^2, odd, at the
        # bound itself; just above 2^53 float64 cannot hold it
        p = _odd_near(-(-(2**53) // (3 * contracted)), below)
        assert (3 * contracted * p * p < 2**53) == below
        a = _array(np.full((2, contracted), p), np.full((2, contracted), p))
        b = _array(np.full((contracted, 2), p), np.full((contracted, 2), p))
        result = a.tensordot(b, axes=([1], [0]))
        reference = np.tensordot(as_objects(a), as_objects(b), axes=([1], [0]))
        assert _same(result, reference)
        assert result.parts.dtype == (np.int64 if below else object)

    @pytest.mark.parametrize(
        ("factor", "dtype"),
        [
            (lambda p: QSqrt2((2**62 - 1) // p), np.int64),
            (lambda p: QSqrt2(2**62 // p + 1), object),
            (lambda p: QSqrt2(0, (2**62 - 1) // (2 * p)), np.int64),
            (lambda p: QSqrt2(0, 2**62 // (2 * p) + 1), object),
            (lambda p: QSqrt2(Fraction(2**63 // p + 1, 3), 1), object),
            (lambda p: QSqrt2(2**70, -(2**70)), object),
        ],
    )
    def test_scale_int64_bound(self, factor, dtype):
        p = 2**40 + 1
        a = _array([p, -p, 1, 0], [0, 1, -p, p])
        q = factor(p)
        result = a.scale(q)
        assert _same(result, as_objects(a) * q)
        assert result.parts.dtype == dtype

    def test_scale_zero_array_by_tiny_and_huge_factors(self):
        zero = ExactArray.zeros((2, 2))
        for q in (QSqrt2(Fraction(1, 10**400)), QSqrt2(10**400, 3)):
            assert zero.scale(q).is_zero()
        tiny = _array([1, 2], [3, 0]).scale(Fraction(1, 10**400))
        assert tiny.item(1) == QSqrt2(Fraction(2, 10**400))

    @pytest.mark.parametrize(
        ("peak", "dtype"),
        [((2**62 - 1) // 8, np.int64), (2**62 // 8 + 1, object), (2**61, object)],
    )
    def test_common_denominator_int64_bound(self, peak, dtype):
        # over the denominator 15 the operands are scaled by 5 and 3, so
        # their sum reaches 8 * peak
        a = _array([peak, -peak, 1], [1, peak, 0], 3)
        b = _array([peak, peak, 0], [-peak, 1, peak], 5)
        objects_a, objects_b = as_objects(a), as_objects(b)
        for result, reference in ((a + b, objects_a + objects_b), (a - b, objects_a - objects_b)):
            assert _same(result, reference)
            assert result.parts.dtype == dtype
        # the same values over a denominator 7 times larger
        rescaled = ExactArray(a.parts.astype(object) * 7, 21)
        assert a == rescaled and rescaled == a
        off_by_one = ExactArray(rescaled.parts + np.array([[0, 0, 1], [0, 0, 0]]), 21)
        assert not a == off_by_one and not off_by_one == a

    @pytest.mark.parametrize("big", [False, True])
    def test_mixed_int64_and_object_operands(self, big):
        value = 2**62 if big else 5
        ints = ExactArray.build(
            (3, 2), lambda idx: QSqrt2(Fraction(idx[0] + 1, 2), idx[1] - 1)
        )
        objects = _array(
            [[value, 1], [-value, 0], [0, 2]], [[1, 2], [value, 0], [3, -1]], 3, object
        )
        assert ints.parts.dtype == np.int64 and objects.parts.dtype == object
        q = QSqrt2(3, Fraction(1, 2))
        for x, y in ((ints, objects), (objects, ints)):
            ox, oy = as_objects(x), as_objects(y)
            assert _same(x + y, ox + oy)
            assert _same(x - y, ox - oy)
            assert _same(x.scale(q), ox * q)
            assert _same(x.tensordot(y, axes=([0], [0])), np.tensordot(ox, oy, axes=([0], [0])))
            assert (x == y) == bool((ox == oy).all())
            assert x == ExactArray(x.parts.astype(object), x.den)

    @given(st.data(), st.integers(1, 4), st.integers(20, 30))
    def test_tensordot_matches_object_reference(self, data, contracted, bits):
        # 3 * contracted * 2^(2*bits) straddles 2^53 across the drawn sizes
        a = data.draw(bounded_arrays((2, contracted), bits))
        b = data.draw(bounded_arrays((3, contracted), bits))
        result = a.tensordot(b, axes=([1], [1]))
        reference = np.tensordot(as_objects(a), as_objects(b), axes=([1], [1]))
        assert _same(result, reference)

    @pytest.mark.parametrize(
        ("left_axes", "right_axes"), [([0, 2], [0, 1]), ([2, 0], [1, 0]), ([-1, 0], [1, 0])]
    )
    @pytest.mark.parametrize(
        ("peak", "dtype"), [("below", np.int64), ("above", object), (2**62 + 1, object)]
    )
    def test_tensordot_two_axes_of_3d_operands(self, left_axes, right_axes, peak, dtype):
        # 8 contracted products; the entries fall from the peak by distinct
        # small offsets, so a mispaired axis changes the sums
        if isinstance(peak, str):
            peak = _odd_near(-(-(2**53) // (3 * 8)), peak == "below")

        def near_peak(shape, shift):
            offsets = (np.arange(math.prod(shape)).reshape(shape) * 5 + shift) % 11
            offsets.flat[0] = 0
            values = peak - offsets.astype(object)
            return values.astype(np.int64) if peak < 2**62 else values

        a = ExactArray(np.stack([near_peak((2, 3, 4), 0), near_peak((2, 3, 4), 3)]), 3)
        b = ExactArray(np.stack([near_peak((2, 4, 5), 1), near_peak((2, 4, 5), 7)]), 2)
        result = a.tensordot(b, axes=(left_axes, right_axes))
        reference = np.tensordot(as_objects(a), as_objects(b), axes=(left_axes, right_axes))
        assert result.shape == (3, 5)
        assert _same(result, reference)
        assert result.parts.dtype == dtype

    @given(st.data(), st.integers(20, 30), st.permutations([0, 1, 2]), st.integers(1, 3))
    def test_tensordot_3d_in_any_axis_order(self, data, bits, order, count):
        # contract ``count`` axes of a 3-D array, taken in a drawn order, with
        # axes of a second array listed back to front
        a = data.draw(bounded_arrays((2, 3, 2), bits))
        left_axes = list(order[:count])
        b = data.draw(bounded_arrays((2, *(a.shape[axis] for axis in left_axes)), bits))
        right_axes = list(range(1, count + 1))
        axes = (left_axes[::-1], right_axes[::-1])
        result = a.tensordot(b, axes=axes)
        assert _same(result, np.tensordot(as_objects(a), as_objects(b), axes=axes))

    @given(st.data(), st.integers(56, 64), st.integers(56, 64))
    def test_sums_and_equality_match_object_reference(self, data, bits_a, bits_b):
        a = data.draw(bounded_arrays((2, 3), bits_a))
        b = data.draw(bounded_arrays((2, 3), bits_b))
        objects_a, objects_b = as_objects(a), as_objects(b)
        assert _same(a + b, objects_a + objects_b)
        assert _same(a - b, objects_a - objects_b)
        assert _same(-a, -objects_a)
        assert (a == b) == bool((objects_a == objects_b).all())
        assert a == ExactArray(a.parts.astype(object) * 6, a.den * 6)

    @given(st.data(), st.integers(30, 62), st.integers(0, 40))
    def test_scale_matches_object_reference(self, data, bits, factor_bits):
        a = data.draw(bounded_arrays((2, 3), bits))
        num = st.integers(-(2**factor_bits), 2**factor_bits)
        den = st.sampled_from([1, 2, 3, 7])
        q = QSqrt2(
            Fraction(data.draw(num), data.draw(den)), Fraction(data.draw(num), data.draw(den))
        )
        assert _same(a.scale(q), as_objects(a) * q)

    def test_nonzero_items_skip_zeros_in_c_order(self):
        a = _array([[0, 3], [0, 0], [-1, 0]], [[0, 0], [0, 2], [1, 0]], 2)
        expected = [(idx, a.item(*idx)) for idx in np.ndindex(*a.shape) if a.item(*idx)]
        assert a.nonzero_items() == expected
        assert [idx for idx, _ in expected] == [(0, 1), (1, 1), (2, 0)]
        assert ExactArray.zeros((2, 2)).nonzero_items() == []


class TestGcdReduce:
    """``reduced`` and ``_int_gcd_reduce`` against ``math.gcd`` over every entry."""

    @given(
        st.data(),
        st.sampled_from([0, 1, 63, 64, 65, 8191, 8192, 8193, 20000]),
        st.sampled_from([np.int64, object]),
        st.integers(0, 6),
        st.integers(0, 3),
    )
    def test_matches_gcd_of_every_entry(self, data, zeros, dtype, twos, threes):
        # a zero prefix, as long as whole scan blocks or longer, then entries
        # that share a drawn factor 2^a 3^b with the denominator
        limit = 2**40 if dtype is np.int64 else 2**70
        values = data.draw(st.lists(st.integers(-limit, limit), max_size=40))
        factor = 2 ** data.draw(st.integers(0, twos)) * 3 ** data.draw(st.integers(0, threes))
        flat = [0] * zeros + [value * factor for value in values]
        flat += [0] * (len(flat) % 2)
        parts = np.array(flat, dtype=dtype).reshape(2, -1)
        den = 2**twos * 3**threes * data.draw(st.sampled_from([1, 5, 7]))
        g = math.gcd(den, *flat)
        nonzero = any(flat)

        reduced = ExactArray(parts.copy(), den).reduced()
        assert reduced.den == (den // g if nonzero else 1)
        assert reduced.parts.tolist() == ((parts // g).tolist() if nonzero else parts.tolist())

        in_place = parts.copy()
        quotient, new_den = _int_gcd_reduce(in_place, den, out=in_place)
        assert new_den == reduced.den
        assert quotient.tolist() == in_place.tolist() == reduced.parts.tolist()

    @pytest.mark.parametrize("dtype", [np.int64, object])
    @pytest.mark.parametrize("den", [1, 12, 3**50, 2**64 * 3])
    def test_all_zero_array_comes_back_over_one(self, dtype, den):
        reduced = ExactArray(np.zeros((2, 5, 3), dtype=dtype), den).reduced()
        assert reduced.den == 1
        assert reduced.is_zero()


class TestContractionSum:
    """``contraction_sum`` against signed sums of transposed object-array
    ``np.tensordot`` products."""

    @given(
        st.data(),
        st.integers(20, 26),
        st.lists(
            st.tuples(st.sampled_from([1, -1]), st.integers(0, 1), st.permutations(range(4))),
            min_size=1,
            max_size=4,
        ),
    )
    def test_matches_object_reference(self, data, bits, terms):
        # 3 * 3 * 2^(2*bits) times the factor that puts both products over
        # one denominator straddles 2^53, and the drawn denominators go past
        # int64, so both dtypes are reached
        a = data.draw(bounded_arrays((3, 3, 3), bits))
        b = data.draw(bounded_arrays((3, 3, 3), bits))
        c = data.draw(bounded_arrays((3, 3, 3), bits))
        products = [(a, b, ([2], [1])), (c, a, ([0], [2]))]
        result = contraction_sum(products, [(s, i, tuple(p)) for s, i, p in terms])

        objects = [
            np.tensordot(as_objects(x), as_objects(y), axes=axes) for x, y, axes in products
        ]
        reference = sum(sign * np.transpose(objects[i], perm) for sign, i, perm in terms)
        assert _same(result, reference)
        assert contraction_vanishes(products, [(s, i, tuple(p)) for s, i, p in terms]) == (
            result.is_zero()
        )
        if result.is_zero():
            assert result.den == 1
        else:
            assert math.gcd(result.den, *result.parts.ravel().tolist()) == 1

    # a @ b has a zero first column: a term read as is vanishes at index 0 of
    # its last axis but not past it, one read transposed does not vanish there
    @pytest.mark.parametrize(
        ("terms", "vanishes"),
        [
            ([(1, 0, None)], False),
            ([(-1, 0, (1, 0))], False),
            ([(1, 0, None), (-1, 0, None)], True),
            ([(1, 0, (1, 0)), (-1, 0, (1, 0))], True),
        ],
    )
    @pytest.mark.parametrize("scale", [1, 2**55])
    def test_vanishes_exactly_whichever_stage_decides(self, terms, vanishes, scale):
        a = _array([[scale, 2 * scale], [3 * scale, 4 * scale]], [[0, scale], [scale, 0]])
        b = _array([[0, 1], [0, 2]], [[0, 3], [0, 1]], 3)
        products = [(a, b, ([1], [0]))]
        # 2^55 takes the bound past 2^53, onto object arrays
        assert _prepared(products, terms)[1] == (scale == 1)
        assert contraction_vanishes(products, terms) == vanishes
        assert contraction_sum(products, terms).is_zero() == vanishes

    def test_shared_product_without_transpose_and_fresh_result(self):
        a = _array([[1, 2], [3, 4]], [[0, 1], [1, 0]], 2)
        prod = a.tensordot(a, axes=([1], [0]))
        result = contraction_sum([(a, a, ([1], [0]))], [(1, 0, None), (-1, 0, (1, 0))])
        assert result == prod - prod.transpose((1, 0))
        # the sum never aliases a buffer the next call overwrites
        buffers = list(_WORKSPACE.buffers)
        assert buffers and not any(np.shares_memory(result.parts, buffer) for buffer in buffers)

    def test_workspace_past_its_cap_holds_nothing(self):
        _workspace(2, 8)
        assert len(_WORKSPACE.buffers) == 2
        # three buffers one entry past the cap; np.empty touches no page
        size = WORKSPACE_CAP // (3 * 8) + 1
        buffers = _workspace(3, size)
        assert [buffer.size for buffer in buffers] == [size] * 3
        assert _WORKSPACE.buffers == []
        # a d^4 sum at n = 7 (d = 35): its two buffers, 22.9 MiB, are not held
        # past the call, and a later n = 6 sum (16.2 MiB) holds its own again
        _workspace(2, 8)
        assert [buffer.size for buffer in _workspace(2, 35**4)] == [35**4] * 2
        assert _WORKSPACE.buffers == []
        _workspace(2, 27**4)
        assert [buffer.size for buffer in _WORKSPACE.buffers] == [27**4] * 2


def _unit(index: tuple[int, ...], rat: int, irr: int, den: int = 1, dtype=np.int64) -> ExactArray:
    """(rat + irr*sqrt2) / den at ``index`` of a (4, 4, 4) array, zero elsewhere."""
    parts = np.zeros((2, 4, 4, 4), dtype=dtype)
    parts[(slice(None), *index)] = rat, irr
    return ExactArray(parts, den)


@st.composite
def patterned_arrays(draw) -> ExactArray:
    """(4, 4, 4) arrays with no nonzero entry, one, about 5 % of them (4) or
    all of them, each part up to 2^20 or 2^30 in magnitude, on int64 or
    object storage."""
    size = 64
    count = draw(st.sampled_from([0, 1, 4, size]))
    support = draw(st.permutations(range(size)))[:count]
    limit = 2 ** draw(st.sampled_from([20, 30]))
    parts = np.zeros((2, size), dtype=object)
    for position in support:
        parts[0, position] = draw(st.integers(1, limit)) * draw(st.sampled_from([1, -1]))
        parts[1, position] = draw(st.integers(-limit, limit))
    dtype = draw(st.sampled_from([np.int64, object]))
    den = draw(st.sampled_from([1, 3, 12, 3**50]))
    return ExactArray(parts.astype(dtype).reshape((2, 4, 4, 4)), den)


ZEROS = ExactArray.zeros((4, 4, 4))
#: two entries each, which meet on contracted coordinate 1 in four pairs
PAIR_A = _unit((1, 0, 1), 3, -2, 2) + _unit((3, 2, 1), -1, 4)
PAIR_B = _unit((0, 1, 2), 5, 1) + _unit((2, 1, 0), 1, -7, 3)


def _meeting(count: int) -> list:
    """One product whose 8 left entries meet ``count`` right ones at
    contracted coordinate 0: 64 pairs fit the 64 entries of a slice of the
    (4, 4, 4, 4) sum, 72 do not."""
    left = sum((_unit((i // 4, i % 4, 0), i + 1, 1) for i in range(8)), ZEROS)
    right = sum((_unit((i // 4, 0, i % 4), 1, -i) for i in range(count)), ZEROS)
    return [(left, right, ([2], [1]))]


class TestSparseSum:
    """``contraction_sum`` and ``contraction_vanishes`` against signed sums
    of transposed object-array ``np.tensordot`` products, on operands with
    no, one, about 5 % and every entry nonzero, so that both the sparse pass
    (at most one slice's worth of entry pairs per product; here a slice
    holds 64 entries) and the dense pass run, each on int64 and on object
    arrays."""

    @given(
        patterned_arrays(),
        patterned_arrays(),
        patterned_arrays(),
        st.lists(
            st.tuples(st.sampled_from([1, -1]), st.integers(0, 1), st.permutations(range(4))),
            min_size=1,
            max_size=4,
        ),
    )
    # an all-zero operand: the sum is zero, over 1
    @example(ZEROS, PAIR_B, PAIR_A, [(1, 0, (0, 1, 2, 3)), (-1, 1, (3, 2, 1, 0))])
    # contracted coordinates that never meet: no pair at all
    @example(
        _unit((1, 2, 0), 3, 1),
        _unit((0, 1, 3), 2, 5),
        _unit((2, 0, 0), 1, 1),
        [(1, 0, (0, 1, 2, 3)), (1, 1, (1, 0, 2, 3))],
    )
    # every entry of the first term cancels against the second's
    @example(
        PAIR_A, PAIR_B, ZEROS, [(1, 0, (0, 1, 2, 3)), (-1, 0, (0, 1, 2, 3)), (1, 1, (2, 3, 0, 1))]
    )
    # sqrt2 * sqrt2 pairs alone: the sum is the 2*b*d cross term
    @example(_unit((0, 0, 1), 0, 3), _unit((2, 1, 3), 0, 5), ZEROS, [(1, 0, (0, 1, 2, 3))])
    # one pair past 2^53: the object path
    @example(
        _unit((0, 0, 1), 2**40, 1, dtype=object),
        _unit((0, 1, 2), 2**40, -3),
        ZEROS,
        [(1, 0, (3, 1, 0, 2))],
    )
    def test_matches_object_reference(self, a, b, c, terms):
        products = [(a, b, ([2], [1])), (c, a, ([0], [2]))]
        result = contraction_sum(products, terms)
        objects = [
            np.tensordot(as_objects(x), as_objects(y), axes=axes) for x, y, axes in products
        ]
        reference = sum(sign * np.transpose(objects[i], perm) for sign, i, perm in terms)
        assert _same(result, reference)
        # int64 below the 2^53 bound, Python ints past it, on either pass
        assert result.parts.dtype == (np.int64 if _prepared(products, terms)[1] else object)
        assert contraction_vanishes(products, terms) == result.is_zero()
        if result.is_zero():
            assert result.den == 1
        else:
            assert math.gcd(result.den, *result.parts.ravel().tolist()) == 1

    @pytest.mark.parametrize(("count", "route"), [(8, "sparse"), (9, "dense")])
    def test_at_most_one_slice_of_pairs_runs_sparse(self, count, route, full_passes):
        products = _meeting(count)
        [(left, right, _)] = products
        result = contraction_sum(products, [(1, 0, None)])
        assert full_passes == {"sparse": 0, "dense": 0, route: 1}
        reference = np.tensordot(as_objects(left), as_objects(right), axes=([2], [1]))
        assert _same(result, reference)

    def test_an_outer_product_meets_on_no_axis(self, full_passes):
        # no contracted axis: every left nonzero pairs with every right one
        result = PAIR_A.tensordot(PAIR_B, ([], []))
        assert full_passes == {"sparse": 1, "dense": 0}
        reference = np.tensordot(as_objects(PAIR_A), as_objects(PAIR_B), axes=0)
        assert _same(result, reference)

    @pytest.mark.parametrize(("count", "route", "probed"), [(8, "sparse", 0), (9, "dense", 1)])
    def test_vanishing_test_routes_before_it_probes(
        self, count, route, probed, full_passes, probes
    ):
        # the same operands; a sum that cancels reaches a full pass on either
        # route, and only the dense one is tried at index 0 first
        products = _meeting(count)
        assert contraction_vanishes(products, [(1, 0, None), (-1, 0, None)])
        assert full_passes == {"sparse": 0, "dense": 0, route: 1}
        assert probes == {"probe": probed}


def _revalued(array: ExactArray, rng: np.random.Generator, den: int, bits: int) -> ExactArray:
    """``array``'s nonzero pattern with new values over ``den``: each
    nonzero entry gets a nonzero rational part and any sqrt2 part, up to
    2^bits in magnitude (bits at most 62)."""
    support = np.flatnonzero(array.parts.any(axis=0))
    parts = np.zeros((2, math.prod(array.shape)), dtype=np.int64)
    for position in support.tolist():
        parts[0, position] = int(rng.integers(1, 2**bits)) * int(rng.choice([1, -1]))
        parts[1, position] = int(rng.integers(-(2**bits), 2**bits))
    return ExactArray(parts.reshape((2, *array.shape)), den)


@st.composite
def sparse_arrays(draw) -> ExactArray:
    """(4, 4, 4) arrays with no nonzero entry, one or four, so that every
    product of them takes the sparse pass, parts up to 2^10 over 1, 3 or 4."""
    count = draw(st.sampled_from([0, 1, 4]))
    support = draw(st.permutations(range(64)))[:count]
    parts = np.zeros((2, 64), dtype=np.int64)
    for position in support:
        parts[0, position] = draw(st.integers(1, 2**10)) * draw(st.sampled_from([1, -1]))
        parts[1, position] = draw(st.integers(-(2**10), 2**10))
    return ExactArray(parts.reshape((2, 4, 4, 4)), draw(st.sampled_from([1, 3, 4])))


TERM_LISTS = st.lists(
    st.tuples(st.sampled_from([1, -1]), st.integers(0, 1), st.permutations(range(4))),
    min_size=1,
    max_size=4,
).map(lambda terms: [(sign, index, tuple(perm)) for sign, index, perm in terms])


def _formula(a: ExactArray, b: ExactArray, c: ExactArray) -> list:
    return [(a, b, ([2], [1])), (c, a, ([0], [2]))]


def _full() -> ExactArray:
    """1 at every entry of a (4, 4, 4) array."""
    return ExactArray(np.stack([np.ones((4, 4, 4), np.int64), np.zeros((4, 4, 4), np.int64)]), 1)


class TestPlanCache:
    """The sparse pass's plan is built once per nonzero pattern and cached:
    a call that finds it gives what a call with a cleared cache gives, two
    patterns never share one, dense sums leave the cache as it was, and the
    cache stays within its size, in one thread or several."""

    @given(
        sparse_arrays(),
        sparse_arrays(),
        sparse_arrays(),
        TERM_LISTS,
        st.integers(0, 2**32 - 1),
        st.sampled_from([1, 3, 12]),
        st.sampled_from([10, 20, 40]),
    )
    # denominators 3 and 4 against 12: factors other than 1 on both products
    @example(PAIR_A, PAIR_B, PAIR_A, [(1, 0, (0, 1, 2, 3)), (-1, 1, (2, 0, 1, 3))], 0, 12, 10)
    # 40-bit entries: the second call runs on Python ints with a plan that
    # the first built on int64
    @example(PAIR_A, PAIR_B, PAIR_A, [(1, 0, (0, 1, 2, 3)), (1, 1, (3, 2, 1, 0))], 1, 3, 40)
    def test_a_plan_hit_equals_a_cold_call(self, a, b, c, terms, seed, den, bits):
        rng = np.random.default_rng(seed)
        first = _formula(a, b, c)
        second = _formula(*(_revalued(x, rng, den, bits) for x in (a, b, c)))
        contraction_sum(first, terms)
        hits = _plan.cache_info().hits
        warm = contraction_sum(second, terms)
        warm_vanishes = contraction_vanishes(second, terms)
        assert _plan.cache_info().hits == hits + 2
        _plan.cache_clear()
        cold = contraction_sum(second, terms)
        assert warm == cold and warm.den == cold.den
        assert warm.parts.dtype == cold.parts.dtype
        assert warm_vanishes == cold.is_zero()

    def test_an_int64_built_plan_serves_the_object_path(self):
        terms = [(1, 0, None), (-1, 1, (1, 0, 3, 2))]
        first = _formula(PAIR_A, PAIR_B, PAIR_B)
        rng = np.random.default_rng(7)
        second = _formula(*(_revalued(x, rng, 3, 60) for x in (PAIR_A, PAIR_B, PAIR_B)))
        assert _prepared(first, terms)[1] and not _prepared(second, terms)[1]
        _plan.cache_clear()
        contraction_sum(first, terms)
        warm = contraction_sum(second, terms)
        assert _plan.cache_info().hits == 1
        assert warm.parts.dtype == object
        objects = [np.tensordot(as_objects(x), as_objects(y), axes=axes) for x, y, axes in second]
        assert _same(warm, objects[0] - np.transpose(objects[1], (1, 0, 3, 2)))

    @given(sparse_arrays(), sparse_arrays(), sparse_arrays(), sparse_arrays(), TERM_LISTS)
    # equal shapes, other entries: a plan keyed on shapes alone would read
    # the second call's values at the first call's positions
    @example(
        PAIR_A,
        PAIR_B,
        _unit((1, 3, 1), 2, 1) + _unit((0, 2, 3), -5, 2, 3),
        _unit((3, 1, 2), 1, 1) + _unit((2, 0, 1), 4, -1),
        [(1, 0, (0, 1, 2, 3)), (-1, 1, (1, 0, 2, 3))],
    )
    def test_patterns_never_share_a_plan(self, a, b, other_a, other_b, terms):
        calls = [_formula(x, y, y) for x, y in ((a, b), (other_a, other_b), (a, b))]
        cold = []
        for products in calls:
            _plan.cache_clear()
            cold.append(contraction_sum(products, terms))
        # in turn, each call after the first finding the cache filled
        _plan.cache_clear()
        assert [contraction_sum(products, terms) for products in calls] == cold

    @given(
        patterned_arrays(),
        patterned_arrays(),
        st.sampled_from([([2], [1]), ([0], [2]), ([2, 0], [1, 2]), ([], [])]),
    )
    # a full operand: the bound is the pair count
    @example(_full(), PAIR_B, ([2], [1]))
    def test_the_count_bound_never_passes_the_pairs(self, a, b, axes):
        # the dense verdict read off nonzero counts alone must be one that
        # the pair count gives: a lower bound, exact when an operand is full
        masks = [np.logical_or(*x.parts, dtype=bool) for x in (a, b)]
        bound = _fewest_pairs(a.shape, b.shape, *axes, _bits(a), _bits(b))
        pairs = _pairs(*masks, axes)
        assert 0 <= bound <= pairs
        if any(mask.all() for mask in masks):
            assert bound == pairs

    def test_a_transposed_operand_reads_its_own_pattern(self):
        # a view's pattern is packed in its own C order, as its copy's is
        view = PAIR_A.transpose((2, 0, 1))
        copy = ExactArray(np.ascontiguousarray(view.parts), view.den)
        products = [(view, PAIR_B, ([2], [1]))]
        from_view = contraction_sum(products, [(1, 0, None)])
        hits = _plan.cache_info().hits
        assert from_view == contraction_sum([(copy, PAIR_B, ([2], [1]))], [(1, 0, None)])
        assert _plan.cache_info().hits == hits + 1
        reference = np.tensordot(as_objects(view), as_objects(PAIR_B), axes=([2], [1]))
        assert _same(from_view, reference)

    def test_dense_sums_take_no_slot(self, full_passes):
        rng = np.random.default_rng(3)
        size = _plan.cache_info().currsize
        for _ in range(3):
            dense = [_revalued(_full(), rng, 1, 20) for _ in range(2)]
            products = [(dense[0], dense[1], ([2], [1]))]
            contraction_sum(products, [(1, 0, None)])
            # a sum that cancels, so that the dense pass runs past its probe
            assert contraction_vanishes(products, [(1, 0, None), (-1, 0, None)])
        assert full_passes == {"sparse": 0, "dense": 6}
        assert _plan.cache_info().currsize == size

    def test_the_cache_stays_within_its_size(self):
        _plan.cache_clear()
        for position in range(PLAN_CACHE_SIZE + 8):
            operand = _unit(np.unravel_index(position, (4, 4, 4)), 1, 1)
            contraction_sum([(operand, PAIR_B, ([2], [1]))], [(1, 0, None)])
        info = _plan.cache_info()
        assert info.misses == PLAN_CACHE_SIZE + 8
        assert info.currsize == info.maxsize == PLAN_CACHE_SIZE

    def test_threads_share_the_cache_and_get_the_serial_results(self):
        # each thread runs its own patterns, more of them in all than the
        # cache holds, so that plans are built, found and dropped while
        # other threads use them, and four dense sums per round in its own
        # workspace
        rng = np.random.default_rng(11)
        dense = _full()
        jobs = []
        for thread in range(4):
            sums = []
            for position in range(thread, PLAN_CACHE_SIZE + 16, 4):
                operand = _unit(np.unravel_index(position, (4, 4, 4)), position + 1, -thread)
                products = [(operand, PAIR_B, ([2], [1])), (PAIR_A, operand, ([0], [2]))]
                sums.append((products, [(1, 0, None), (-1, 1, (3, 1, 0, 2))]))
            for _ in range(4):
                scaled = _revalued(dense, rng, 1, 20)
                sums.append(([(scaled, dense, ([2], [1]))], [(1, 0, None)]))
            jobs.append(sums)
        serial = [[contraction_sum(*job) for job in sums] for sums in jobs]
        mismatches, errors = [], []

        def run(sums, expected):
            try:
                for _ in range(20):
                    for job, result in zip(sums, expected):
                        if contraction_sum(*job) != result:
                            mismatches.append(job)
            except Exception:  # the thread's failure, asserted on below
                errors.append(traceback.format_exc())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=run, args=(sums, expected))
                for sums, expected in zip(jobs, serial)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == [] and mismatches == []
        assert _plan.cache_info().currsize <= PLAN_CACHE_SIZE



def _family_formula(n: int, alpha: Fraction, big: int, name: str):
    """One alpha-family formula at LC + alpha * big * K_Amari: ``big`` 1 keeps
    every value in int64, 2^70 and 2^40 + 1 take the sums past 2^53."""
    k = connections.amari_difference(n).scale(alpha * big)
    gamma = connections.from_difference(k)
    if name == "curvature":
        return connections._curvature_formula(gamma)
    if name == "gap":
        # R - R* over the products of R alone: zero on the whole family
        return connections._conjugate_gap(gamma)
    if name == "difference":
        return connections._difference_formula(k)
    return connections._cubic_formula(gamma, k.to_exact_array().scale(-2))


def _scattered(products, terms) -> ExactArray:
    """The sparse pass's sum as a dense array, by the zero-and-scatter rule:
    the reduced sums at the plan's flat indices, zeros among them, written
    into a zero array of their dtype."""
    den, exact_in_float, factors = _prepared(products, terms)
    plan = _route(products, terms)
    total = _sparse_sum(plan, products, factors, exact_in_float)
    total, den = _int_gcd_reduce(total, den, out=total)
    parts = np.zeros((2, math.prod(plan.shape)), total.dtype)
    parts[:, plan.at] = total
    return ExactArray(parts.reshape((2, *plan.shape)), den)


FAMILY_FORMULAS = ("curvature", "gap", "difference", "cubic")


class TestSparseResult:
    """A sum that takes the sparse pass comes back as its nonzero entries
    alone; its dense ``parts`` are built on their first read, and every
    answer it gives from its entries alone is the dense array's."""

    @given(
        st.integers(1, 5),
        fractions(max_num=9).filter(bool),
        st.sampled_from([1, 2**70, 2**40 + 1]),
        st.sampled_from(FAMILY_FORMULAS),
    )
    @example(5, Fraction(3, 2), 1, "curvature")
    # alpha = 1 is flat: a curvature with no nonzero entry
    @example(5, Fraction(1), 1, "curvature")
    @example(5, Fraction(-1, 2), 2**70, "gap")
    @example(4, Fraction(7, 3), 2**40 + 1, "cubic")
    @example(5, Fraction(2), 2**40 + 1, "difference")
    @example(1, Fraction(-9, 4), 2**70, "curvature")
    def test_matches_the_scattered_array(self, n, alpha, big, name):
        products, terms = _family_formula(n, alpha, big, name)
        result = contraction_sum(products, terms)
        dense = _scattered(products, terms)
        assert isinstance(result, _SparseArray)
        assert result.shape == dense.shape
        # the canonical form: ascending flat indices, no zero entry, no factor
        # shared by den and every value, an empty sum over 1
        assert (np.diff(result.at) > 0).all()
        assert (result.values != 0).any(axis=0).all()
        assert math.gcd(result.den, *result.values.ravel().tolist()) == 1
        assert result.is_zero() == (result.at.size == 0) == dense.is_zero()
        if result.is_zero():
            assert result.den == 1
        assert result.nonzero_items() == dense.nonzero_items()
        for perm in itertools.permutations(range(4)):
            moved = result.transpose(perm)
            assert isinstance(moved, _SparseArray)
            assert (np.diff(moved.at) > 0).all()
            expected = dense.parts.transpose((0, *(axis + 1 for axis in perm)))
            assert np.array_equal(moved.parts, expected) and moved.den == dense.den
            assert (result == moved) == (dense == dense.transpose(perm))
        # none of the above built the d^4 parts
        assert "parts" not in vars(result)
        again = contraction_sum(products, terms)
        assert result == again and not result != again
        assert "parts" not in vars(result)
        assert np.array_equal(result.parts, dense.parts)
        assert result.parts.dtype == dense.parts.dtype
        assert result.den == dense.den
        assert result.parts is result.parts

    @given(
        st.integers(1, 5),
        fractions(max_num=9).filter(bool),
        st.sampled_from([1, 2**70, 2**40 + 1]),
        st.sampled_from(FAMILY_FORMULAS),
    )
    @example(5, Fraction(3, 2), 1, "curvature")
    @example(3, Fraction(-5, 4), 2**70, "cubic")
    @example(2, Fraction(1), 1, "gap")
    def test_equals_dense_arrays_in_either_order(self, n, alpha, big, name):
        products, terms = _family_formula(n, alpha, big, name)
        dense = _scattered(products, terms)
        for other in (dense, ExactArray(dense.parts * 3, dense.den * 3)):
            result = contraction_sum(products, terms)
            assert result == other and other == result
            assert not (result != other or other != result)
        # one entry off, at an entry of the sum or at one outside its support
        for position in (0, -1):
            parts = (dense.parts * 2).reshape(2, -1)
            parts[0, position] += 1
            other = ExactArray(parts.reshape(dense.parts.shape), dense.den * 2)
            result = contraction_sum(products, terms)
            assert result != other and other != result
        # the sum at another alpha
        other = contraction_sum(*_family_formula(n, alpha + 1, big, name))
        assert (contraction_sum(products, terms) == other) == (dense == _scattered(
            *_family_formula(n, alpha + 1, big, name)
        ))

    def test_a_sum_that_cancels_is_empty_over_one(self):
        for big in (1, 2**70):
            result = contraction_sum(*_family_formula(4, Fraction(5, 3), big, "gap"))
            assert isinstance(result, _SparseArray)
            assert result.is_zero() and result.den == 1 and result.at.size == 0
            assert result.nonzero_items() == []
            assert result == ExactArray.zeros(result.shape)
            assert result == contraction_sum(*_family_formula(4, Fraction(-1, 3), 1, "gap"))
            assert not result.parts.any()

    def test_threads_reading_parts_get_equal_arrays(self):
        dense = _scattered(*_family_formula(5, Fraction(3, 2), 1, "curvature"))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for _ in range(5):
                result = contraction_sum(*_family_formula(5, Fraction(3, 2), 1, "curvature"))
                barrier = threading.Barrier(2)
                read = []

                def run():
                    barrier.wait()
                    read.append(result.parts)

                threads = [threading.Thread(target=run) for _ in range(2)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                assert len(read) == 2
                assert all(np.array_equal(parts, dense.parts) for parts in read)
        finally:
            sys.setswitchinterval(interval)
