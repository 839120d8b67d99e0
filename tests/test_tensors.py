from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import qsqrt2s
from gaussgeom.exact import ONE, ZERO, ExactArray, QSqrt2
from gaussgeom.tensors import (
    SymTensor3,
    basis_dimension,
    basis_order,
    symmetric_triples,
    triple_positions,
)

#: Q(sqrt2) scalars with small entries or numerators past 2^62, which force
#: the arbitrary-precision storage
mixed_qsqrt2s = st.one_of(
    st.builds(
        lambda num, den, b: QSqrt2(Fraction(num, den), b),
        st.integers(2**62, 2**70) | st.integers(-(2**70), -(2**62)),
        st.sampled_from([1, 3, 8]),
        st.integers(-(2**70), 2**70),
    ),
    qsqrt2s(),
)


class TestTripleIndexing:
    @pytest.mark.parametrize("n,count", [(1, 4), (2, 35), (3, 165), (4, 560)])
    def test_counts(self, n, count):
        assert len(symmetric_triples(basis_dimension(n))) == count

    def test_basis_order_inverts_basis_dimension(self):
        for n in range(1, 30):
            assert basis_order(basis_dimension(n)) == n

    @pytest.mark.parametrize("dim", [-5, 0, 1, 3, 4, 6, 8, 13])
    def test_basis_order_rejects_other_dimensions(self, dim):
        with pytest.raises(ValueError, match="not a basis dimension"):
            basis_order(dim)

    def test_lexicographic_order(self):
        triples = symmetric_triples(2)
        assert triples == ((0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 1, 1))

    def test_positions_invert_listing(self):
        dim = basis_dimension(2)
        pos = triple_positions(dim)
        for p, t in enumerate(symmetric_triples(dim)):
            assert pos[t] == p

    def test_dimension_rejects_zero(self):
        with pytest.raises(ValueError):
            basis_dimension(0)


class TestSymTensor3:
    def test_get_sorts_indices(self):
        k = SymTensor3.from_entries(1, {(0, 0, 1): QSqrt2(3)})
        assert k.get(1, 0, 0) == QSqrt2(3)
        assert k.get(0, 1, 0) == QSqrt2(3)
        assert k.get(0, 0, 0) == ZERO

    def test_from_entries_accepts_unsorted_keys(self):
        k = SymTensor3.from_entries(1, {(1, 0, 0): 2})
        assert k.get(0, 0, 1) == QSqrt2(2)

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            SymTensor3(1, (ZERO,) * 3)

    def test_scale_and_add(self):
        k = SymTensor3.from_entries(1, {(0, 0, 1): ONE})
        doubled = k.scale(2)
        assert (k + k).values == doubled.values

    def test_nonzero_items(self):
        k = SymTensor3.from_entries(1, {(0, 1, 1): QSqrt2(5)})
        assert k.nonzero_items() == [((0, 1, 1), QSqrt2(5))]

    @given(st.lists(qsqrt2s(max_num=4), min_size=4, max_size=4))
    def test_dense_expansion_is_totally_symmetric(self, values):
        k = SymTensor3.from_vector(1, values)
        dense = k.to_exact_array()
        for i in range(2):
            for j in range(2):
                for l in range(2):
                    assert dense.item(i, j, l) == dense.item(j, i, l)
                    assert dense.item(i, j, l) == dense.item(i, l, j)

    @given(st.lists(qsqrt2s(max_num=4), min_size=35, max_size=35))
    def test_dense_expansion_matches_entrywise_build(self, values):
        k = SymTensor3.from_vector(2, values)
        reference = ExactArray.build((k.dim,) * 3, lambda idx: k.get(*idx))
        dense = k.to_exact_array()
        assert dense.den == reference.den
        assert (dense.rat == reference.rat).all() and (dense.irr == reference.irr).all()

    def test_round_trip_through_dense(self):
        k = SymTensor3.from_entries(2, {(0, 2, 3): QSqrt2(1, 2)})
        assert SymTensor3.from_dense(2, k.to_exact_array()).values == k.values

    @given(
        st.lists(mixed_qsqrt2s, min_size=4, max_size=4),
        st.lists(mixed_qsqrt2s, min_size=4, max_size=4),
        mixed_qsqrt2s,
    )
    def test_integer_storage_matches_per_entry_arithmetic(self, left, right, factor):
        k, other = SymTensor3.from_vector(1, left), SymTensor3.from_vector(1, right)
        assert k.values == tuple(left)
        assert k.scale(factor).values == tuple(v * factor for v in left)
        assert (k + other).values == tuple(a + b for a, b in zip(left, right))
        dense = k.to_exact_array()
        triples = triple_positions(k.dim)
        for idx in np.ndindex(*dense.shape):
            assert dense.item(*idx) == left[triples[tuple(sorted(idx))]]
