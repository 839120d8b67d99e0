from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import qsqrt2s
from gaussgeom.exact import ONE, ZERO, ExactArray, QSqrt2
from gaussgeom.tensors import (
    SymTensor3,
    basis_dimension,
    symmetric_triples,
    triple_positions,
)


class TestTripleIndexing:
    @pytest.mark.parametrize("n,count", [(1, 4), (2, 35), (3, 165), (4, 560)])
    def test_counts(self, n, count):
        assert len(symmetric_triples(basis_dimension(n))) == count

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
