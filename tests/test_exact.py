from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import qsqrt2s
from gaussgeom.exact import (
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
    """Echelon of dense rows (lists of scalars), zero entries left out."""
    echelon = SparseEchelon(cols)
    for row in rows:
        echelon.insert({c: v for c, v in enumerate(row) if v})
    return echelon


def mul_vec(rows, vec):
    return [sum((v * x for v, x in zip(row, vec)), ZERO) for row in rows]


@st.composite
def small_matrices(draw):
    rows = draw(st.integers(min_value=1, max_value=4))
    cols = draw(st.integers(min_value=1, max_value=5))
    return draw(
        st.lists(
            st.lists(qsqrt2s(max_num=4), min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )


class TestKernel:
    def test_single_row(self):
        assert eliminate([[ONE, -ONE]], 2).kernel_basis() == [[ONE, ONE]]

    def test_identity_has_trivial_kernel(self):
        identity = [[ONE if i == j else ZERO for j in range(3)] for i in range(3)]
        echelon = eliminate(identity, 3)
        assert echelon.kernel_basis() == []
        assert echelon.rank == 3

    def test_hand_eliminated_system(self):
        # rows: x0 = sqrt2 * x2, x1 = 0; kernel spans (sqrt2, 0, 1)
        rows = [[ONE, ZERO, -SQRT2], [ZERO, ONE, ZERO]]
        (vec,) = eliminate(rows, 3).kernel_basis()
        assert mul_vec(rows, vec) == [ZERO, ZERO]
        # proportional to (sqrt2, 0, 1); normalized so the first nonzero is 1
        assert vec[1] == ZERO
        assert vec[0] * ONE == vec[2] * SQRT2
        assert vec[0] == ONE

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
        for row in ([ONE, ZERO, -SQRT2], [ZERO, ONE, ZERO]):
            sparse.insert({c: v for c, v in enumerate(row) if v})
            dense.insert(dict(enumerate(row)))
        assert dense.rank == sparse.rank == 2
        assert dense.kernel_basis() == sparse.kernel_basis()

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
        rational = eliminate(rows, 5)
        field = eliminate([[QSqrt2(v) for v in row] for row in rows], 5)
        assert rational.rank == field.rank
        basis = rational.kernel_basis()
        assert basis == field.kernel_basis()
        assert all(isinstance(v, QSqrt2) for vector in basis for v in vector)
        for vec in basis:
            assert mul_vec(rows, vec) == [ZERO] * len(rows)


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
