from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import qsqrt2s
from gaussgeom.exact import (
    ONE,
    SQRT2,
    ZERO,
    ExactArray,
    QMatrix,
    QSqrt2,
    SparseEchelon,
    kernel_basis_sparse,
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


@st.composite
def small_matrices(draw):
    rows = draw(st.integers(min_value=1, max_value=4))
    cols = draw(st.integers(min_value=1, max_value=5))
    entries = draw(
        st.lists(
            st.lists(qsqrt2s(max_num=4), min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
    return QMatrix.from_rows(entries)


class TestKernel:
    def test_single_row(self):
        m = QMatrix.from_rows([[ONE, -ONE]])
        assert m.kernel_basis() == [[ONE, ONE]]

    def test_identity_has_trivial_kernel(self):
        assert QMatrix.identity(3).kernel_basis() == []

    def test_hand_eliminated_system(self):
        # rows: x0 = sqrt2 * x2, x1 = 0; kernel spans (sqrt2, 0, 1)
        m = QMatrix.from_rows([[ONE, ZERO, -SQRT2], [ZERO, ONE, ZERO]])
        (vec,) = m.kernel_basis()
        assert m.mul_vec(vec) == [ZERO, ZERO]
        # proportional to (sqrt2, 0, 1); normalized so the first nonzero is 1
        assert vec[1] == ZERO
        assert vec[0] * ONE == vec[2] * SQRT2
        assert vec[0] == ONE

    @given(small_matrices())
    def test_kernel_vectors_are_exact_solutions(self, m):
        basis = m.kernel_basis()
        for vec in basis:
            assert m.mul_vec(vec) == [ZERO] * m.rows

    @given(small_matrices())
    def test_rank_nullity(self, m):
        assert len(m.kernel_basis()) == m.cols - m.rank()

    @given(small_matrices(), st.randoms(use_true_random=False))
    def test_rank_invariant_under_row_permutation(self, m, rnd):
        rows = list(m.entries)
        rnd.shuffle(rows)
        assert QMatrix(tuple(rows)).rank() == m.rank()

    def test_sparse_interface_matches_dense(self):
        rows = [{0: ONE, 2: -SQRT2}, {1: ONE}]
        basis = kernel_basis_sparse(rows, 3)
        dense = QMatrix.from_rows([[ONE, ZERO, -SQRT2], [ZERO, ONE, ZERO]])
        assert basis == dense.kernel_basis()

    @given(
        st.lists(
            st.lists(st.integers(min_value=-4, max_value=4), min_size=5, max_size=5),
            min_size=1,
            max_size=4,
        )
    )
    def test_rational_rows_match_qsqrt2_rows(self, rows):
        # integer rows are eliminated over Q, with the same rank and kernel
        # as the same rows given as Q(sqrt2) scalars
        rational = SparseEchelon(5)
        for row in rows:
            rational.insert({c: v for c, v in enumerate(row) if v})
        dense = QMatrix.from_rows(rows)
        assert rational.rank == dense.rank()
        basis = rational.kernel_basis()
        assert basis == dense.kernel_basis()
        assert all(isinstance(v, QSqrt2) for vector in basis for v in vector)


class TestExactArray:
    def test_build_and_item(self):
        arr = ExactArray.build((2, 2), lambda idx: QSqrt2(idx[0], Fraction(idx[1], 2)))
        assert arr.item(1, 1) == QSqrt2(1, Fraction(1, 2))
        assert arr.item(0, 0) == ZERO

    def test_addition_rescales_denominators(self):
        a = ExactArray.build((2,), lambda i: QSqrt2(Fraction(1, 2)))
        b = ExactArray.build((2,), lambda i: QSqrt2(Fraction(1, 3)))
        assert (a + b).item(0) == QSqrt2(Fraction(5, 6))

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

    def test_is_zero(self):
        assert ExactArray.zeros((2, 3)).is_zero()
        a = ExactArray.build((2,), lambda i: QSqrt2(i[0]))
        assert not a.is_zero()

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
