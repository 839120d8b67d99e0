from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import qsqrt2s
from gaussgeom.exact import ONE, ZERO, ExactArray, QSqrt2, as_qsqrt2
from gaussgeom.tensors import (
    SymTensor3,
    basis_dimension,
    basis_order,
    dense_positions,
    symmetric_triples,
    triple_label,
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

#: (n, entries) with up to 8 entries over index triples in any order
sparse_entries = st.integers(1, 2).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.dictionaries(
            st.tuples(*[st.integers(0, basis_dimension(n) - 1)] * 3),
            mixed_qsqrt2s | st.integers(-5, 5) | st.fractions(max_denominator=6),
            max_size=8,
        ),
    )
)


def listing(dim):
    """Reference map from each sorted triple to its place in the listing."""
    return {t: p for p, t in enumerate(symmetric_triples(dim))}


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
        table = dense_positions(dim)
        for p, t in enumerate(symmetric_triples(dim)):
            assert table[t] == p

    @pytest.mark.parametrize("dim", [2, 5, 14, 44])
    def test_dense_positions_match_sorted_triples(self, dim):
        table = dense_positions(dim)
        positions = listing(dim)
        assert table.shape == (dim,) * 3
        for idx in np.ndindex(*table.shape):
            assert table[idx] == positions[tuple(sorted(idx))]

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

    @given(sparse_entries)
    @example((1, {}))
    @example((1, {(0, 0, 1): QSqrt2(3), (1, 0, 0): Fraction(1, 2), (0, 1, 0): 2**70}))
    def test_from_entries_matches_dense_per_entry_build(self, case):
        # reference: the per-entry build over every triple, where a triple
        # given in several orders takes its last value
        n, entries = case
        positions = listing(basis_dimension(n))
        by_position = {positions[tuple(sorted(t))]: value for t, value in entries.items()}
        reference = ExactArray.build(
            (len(positions),), lambda idx: as_qsqrt2(by_position.get(idx[0], ZERO))
        )
        built = SymTensor3.from_entries(n, entries).canonical
        assert built.den == reference.den
        assert built.parts.dtype == reference.parts.dtype
        assert (built.parts == reference.parts).all()

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
        assert (dense.parts == reference.parts).all()

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("wide", [False, True])
    def test_dense_expansion_is_c_ordered(self, n, wide):
        # the part axis outermost, so that reductions over it read contiguous
        # memory; the values are those of a fancy-index gather
        rng = np.random.default_rng(n)
        count = len(symmetric_triples(basis_dimension(n)))
        parts = rng.integers(-9, 10, size=(2, count)).astype(object if wide else np.int64)
        k = SymTensor3(n, ExactArray(parts * (2**70 if wide else 1), 3))
        dense = k.to_exact_array()
        assert dense.parts.flags.c_contiguous
        assert dense.parts.dtype == k.canonical.parts.dtype
        gathered = k.canonical.parts[:, dense_positions(k.dim)]
        assert dense.den == 3 and (dense.parts == gathered).all()

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
        triples = listing(k.dim)
        for idx in np.ndindex(*dense.shape):
            assert dense.item(*idx) == left[triples[tuple(sorted(idx))]]


class TestLabelCodec:
    """``SymTensor3.labelled`` writes the certificate's kernel map and
    ``SymTensor3.from_labels`` reads it."""

    @given(sparse_entries)
    @example((1, {}))
    @example((2, {(0, 2, 3): QSqrt2(2**70, Fraction(-1, 3)), (4, 4, 4): 2**63}))
    def test_round_trip(self, case):
        n, entries = case
        k = SymTensor3.from_entries(n, entries)
        labelled = k.labelled()
        assert SymTensor3.from_labels(n, labelled) == k
        # canonical labels, one per nonzero entry
        assert labelled == {triple_label(n, t): v.to_string() for t, v in k.nonzero_items()}

    @pytest.mark.parametrize("n", [1, 2])
    def test_zero_tensor_has_no_labels(self, n):
        assert SymTensor3.zeros(n).labelled() == {}
        assert SymTensor3.from_labels(n, {}) == SymTensor3.zeros(n)

    def test_labels_are_in_canonical_basis_order(self):
        k = SymTensor3.from_entries(2, {(4, 0, 2): QSqrt2(1, 1)})
        assert k.labelled() == {"Mean(1)|Cov(1,1)|Cov(2,2)": "1/1 + 1/1*sqrt2"}

    @pytest.mark.parametrize(
        "label",
        [
            "Mean(1)|Mean(1)|Cov(1,1)",
            "Mean(1)|Cov(1,1)|Mean(1)",
            "Cov(1,1)|Mean(1)|Mean(1)",
        ],
    )
    def test_parts_read_in_any_order(self, label):
        k = SymTensor3.from_labels(1, {label: "1/2 + -3/1*sqrt2"})
        assert k == SymTensor3.from_entries(1, {(0, 0, 1): QSqrt2(Fraction(1, 2), -3)})

    @pytest.mark.parametrize(
        "kernel, message",
        [
            ({"Mean(1)|Cov(1,1)": "1/1 + 0/1*sqrt2"}, "not a kernel label for n=1: 'Mean(1)|Cov(1,1)'"),
            ({"Mean(1)|Mean(2)|Cov(1,1)": "1/1 + 0/1*sqrt2"}, "not a kernel label for n=1"),
            ({"Mean(1)|Mean(1)|Cov(1,1)|": "1/1 + 0/1*sqrt2"}, "not a kernel label"),
            ({"Mean(1)|Mean(1)|Cov(1,1)": 1}, "kernel value of Mean(1)|Mean(1)|Cov(1,1) is not a string"),
            ({"Mean(1)|Mean(1)|Cov(1,1)": "1"}, "kernel value of Mean(1)|Mean(1)|Cov(1,1): not a Q"),
            (
                {"Mean(1)|Mean(1)|Cov(1,1)": "1/1 + 0/1*sqrt2", "Cov(1,1)|Mean(1)|Mean(1)": "7/1 + 0/1*sqrt2"},
                "kernel label Cov(1,1)|Mean(1)|Mean(1) repeats a triple named before it",
            ),
        ],
        ids=["two_parts", "unknown_part", "empty_part", "not_a_string", "not_a_literal", "repeated_triple"],
    )
    def test_rejects_bad_entries(self, kernel, message):
        with pytest.raises(ValueError) as info:
            SymTensor3.from_labels(1, kernel)
        assert message in str(info.value)
