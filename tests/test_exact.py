from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import qsqrt2s
from gaussgeom.exact import (
    HALF_SQRT2,
    ONE,
    SQRT2,
    ZERO,
    ExactArray,
    QSqrt2,
    SparseEchelon,
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

    @given(qsqrt2s())
    def test_json_round_trip(self, x):
        assert QSqrt2.from_json(x.to_json()) == x

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
    """Integer matrices; the large entries (some past 2^62) and the small
    non-unit ones reach non-unit pivots and the gcd division."""
    rows = draw(st.integers(min_value=1, max_value=4))
    cols = draw(st.integers(min_value=1, max_value=5))
    entries = st.integers(min_value=-6, max_value=6) | st.integers(
        min_value=-(2**70), max_value=2**70
    )
    return draw(
        st.lists(
            st.lists(entries, min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )


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
    def test_kernel_vectors_are_exact_solutions(self, rows):
        for vec in eliminate(rows, len(rows[0])).kernel_basis():
            assert mul_vec(rows, vec) == [ZERO] * len(rows)

    @given(small_matrices())
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
        assert total.rat is not a.rat and total.rat is not b.rat

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

    def test_is_zero(self):
        assert ExactArray.zeros((2, 3)).is_zero()
        a = ExactArray.build((2,), lambda i: QSqrt2(i[0]))
        assert not a.is_zero()

    @given(st.lists(qsqrt2s(), min_size=1, max_size=6), st.integers(1, 12))
    def test_reduced_divides_out_the_common_factor(self, values, factor):
        a = ExactArray.build((len(values),), lambda idx: values[idx[0]])
        reduced = ExactArray(a.rat * factor, a.irr * factor, a.den * factor).reduced()
        assert reduced.den == a.den
        assert list(reduced.rat) == list(a.rat) and list(reduced.irr) == list(a.irr)

    @pytest.mark.parametrize("part", ["rat", "irr"])
    def test_reduced_scans_past_the_leading_entries(self, part):
        # the leading entries share the factor 4 with the denominator; one
        # entry far behind them, in either part, shares only 2
        parts = {"rat": [4] * 70 + [0] * 30, "irr": [0] * 100}
        parts[part][-1] = 2
        rat, irr = (np.array(parts[key], dtype=object) for key in ("rat", "irr"))
        reduced = ExactArray(rat, irr, 8).reduced()
        assert reduced.den == 4
        assert list(reduced.rat) == [v // 2 for v in parts["rat"]]
        assert list(reduced.irr) == [v // 2 for v in parts["irr"]]

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


def _as_objects(a: ExactArray) -> np.ndarray:
    """The entries of ``a`` as an object array of exact scalars: the all-object
    reference that every storage dtype must agree with."""
    values = [a.item(*idx) for idx in np.ndindex(*a.shape)]
    return np.array(values, dtype=object).reshape(a.shape)


def _same(result: ExactArray, reference: np.ndarray) -> bool:
    return result.shape == reference.shape and all(
        x == y for x, y in zip(_as_objects(result).ravel(), reference.ravel())
    )


def _array(rat, irr, den: int = 1, dtype=np.int64) -> ExactArray:
    return ExactArray(np.array(rat, dtype=dtype), np.array(irr, dtype=dtype), den)


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
    rat, irr = (np.array(part, dtype=dtype).reshape(shape) for part in (rat, irr))
    return ExactArray(rat, irr, den)


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
        reference = np.tensordot(_as_objects(a), _as_objects(b), axes=([1], [0]))
        assert _same(result, reference)
        assert result.rat.dtype == (np.int64 if below else object)

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
        assert _same(result, _as_objects(a) * q)
        assert result.rat.dtype == dtype

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
        objects_a, objects_b = _as_objects(a), _as_objects(b)
        for result, reference in ((a + b, objects_a + objects_b), (a - b, objects_a - objects_b)):
            assert _same(result, reference)
            assert result.rat.dtype == dtype
        # the same values over a denominator 7 times larger
        rescaled = ExactArray(a.rat.astype(object) * 7, a.irr.astype(object) * 7, 21)
        assert a == rescaled and rescaled == a
        off_by_one = ExactArray(rescaled.rat + np.array([0, 0, 1]), rescaled.irr, 21)
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
        assert ints.rat.dtype == np.int64 and objects.rat.dtype == object
        q = QSqrt2(3, Fraction(1, 2))
        for x, y in ((ints, objects), (objects, ints)):
            ox, oy = _as_objects(x), _as_objects(y)
            assert _same(x + y, ox + oy)
            assert _same(x - y, ox - oy)
            assert _same(x.scale(q), ox * q)
            assert _same(x.tensordot(y, axes=([0], [0])), np.tensordot(ox, oy, axes=([0], [0])))
            assert (x == y) == bool((ox == oy).all())
            assert x == ExactArray(x.rat.astype(object), x.irr.astype(object), x.den)

    @given(st.data(), st.integers(1, 4), st.integers(20, 30))
    def test_tensordot_matches_object_reference(self, data, contracted, bits):
        # 3 * contracted * 2^(2*bits) straddles 2^53 across the drawn sizes
        a = data.draw(bounded_arrays((2, contracted), bits))
        b = data.draw(bounded_arrays((3, contracted), bits))
        result = a.tensordot(b, axes=([1], [1]))
        reference = np.tensordot(_as_objects(a), _as_objects(b), axes=([1], [1]))
        assert _same(result, reference)

    @given(st.data(), st.integers(56, 64), st.integers(56, 64))
    def test_sums_and_equality_match_object_reference(self, data, bits_a, bits_b):
        a = data.draw(bounded_arrays((2, 3), bits_a))
        b = data.draw(bounded_arrays((2, 3), bits_b))
        objects_a, objects_b = _as_objects(a), _as_objects(b)
        assert _same(a + b, objects_a + objects_b)
        assert _same(a - b, objects_a - objects_b)
        assert _same(-a, -objects_a)
        assert (a == b) == bool((objects_a == objects_b).all())
        rat, irr = a.rat.astype(object), a.irr.astype(object)
        assert a == ExactArray(rat * 6, irr * 6, a.den * 6)

    @given(st.data(), st.integers(30, 62), st.integers(0, 40))
    def test_scale_matches_object_reference(self, data, bits, factor_bits):
        a = data.draw(bounded_arrays((2, 3), bits))
        num = st.integers(-(2**factor_bits), 2**factor_bits)
        den = st.sampled_from([1, 2, 3, 7])
        q = QSqrt2(
            Fraction(data.draw(num), data.draw(den)), Fraction(data.draw(num), data.draw(den))
        )
        assert _same(a.scale(q), _as_objects(a) * q)

    def test_nonzero_items_skip_zeros_in_c_order(self):
        a = _array([[0, 3], [0, 0], [-1, 0]], [[0, 0], [0, 2], [1, 0]], 2)
        expected = [(idx, a.item(*idx)) for idx in np.ndindex(*a.shape) if a.item(*idx)]
        assert a.nonzero_items() == expected
        assert [idx for idx, _ in expected] == [(0, 1), (1, 1), (2, 0)]
        assert ExactArray.zeros((2, 2)).nonzero_items() == []
