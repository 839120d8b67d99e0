from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import qsqrt2s
from gaussgeom.algebra import BasisIndex, basis_indices, levi_civita, lie_algebra
from gaussgeom.connections import (
    alpha_connection,
    amari_difference,
    conjugate,
    cubic_of_difference,
    curvature,
    difference_of,
    from_difference,
    is_conjugate_symmetric,
    lc_cubic_derivative,
    lc_difference_derivative,
    predicate_suite,
)
from gaussgeom.exact import ONE, SQRT2, ZERO, QSqrt2
from gaussgeom.tensors import SymTensor3, basis_dimension, symmetric_triples

HALF_SQRT2 = QSqrt2(0, Fraction(1, 2))


@st.composite
def sym_tensors(draw, n: int):
    count = len(symmetric_triples(basis_dimension(n)))
    values = draw(
        st.lists(qsqrt2s(max_num=3), min_size=count, max_size=count)
    )
    return SymTensor3.from_vector(n, values)


def random_sym_tensor(rng: random.Random, n: int) -> SymTensor3:
    count = len(symmetric_triples(basis_dimension(n)))
    values = [
        QSqrt2(
            Fraction(rng.randint(-6, 6), rng.choice([1, 2, 4])),
            Fraction(rng.randint(-6, 6), rng.choice([1, 2, 4])),
        )
        for _ in range(count)
    ]
    return SymTensor3.from_vector(n, values)


class TestAmariDifference:
    def test_matches_cubic_table(self):
        k = amari_difference(2)
        alg = lie_algebra(2)
        m1, c11 = alg.position(BasisIndex.mean(1)), alg.position(BasisIndex.cov(1, 1))
        # K = -C/2: the (mean, mean, matching diagonal) entry is -sqrt2/2
        assert k.get(m1, m1, c11) == -HALF_SQRT2
        assert k.get(c11, c11, c11) == -SQRT2

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_cubic_round_trip(self, n):
        k = amari_difference(n)
        assert cubic_of_difference(k).to_exact_array() == lie_algebra(n).cubic

    def test_built_once_per_n(self):
        # SymTensor3 is immutable, so every caller can share one instance
        assert amari_difference(3) is amari_difference(3)


class TestFromDifference:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_zero_gives_levi_civita(self, n):
        assert from_difference(SymTensor3.zeros(n)) == levi_civita(n)

    def test_amari_mean_mean_coefficient_cancels(self):
        # Levi-Civita contributes sqrt2/2 and K exactly -sqrt2/2
        conn = from_difference(amari_difference(1))
        assert conn.entry(0, 0, 1) == ZERO

    def test_alpha_scaling(self):
        n = 2
        k = amari_difference(n)
        assert alpha_connection(n, 2) == from_difference(k.scale(2))

    @pytest.mark.parametrize("n", [1, 2])
    def test_torsion_free_for_any_symmetric_k(self, n):
        rng = random.Random(7)
        for _ in range(5):
            conn = from_difference(random_sym_tensor(rng, n))
            assert conn.torsion_defect(lie_algebra(n).structure).is_zero()


class TestConjugate:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_levi_civita_self_conjugate(self, n):
        assert conjugate(levi_civita(n)) == levi_civita(n)

    @given(sym_tensors(2))
    def test_involution(self, k):
        conn = from_difference(k)
        assert conjugate(conjugate(conn)) == conn

    @given(sym_tensors(2))
    def test_mean_with_conjugate_is_levi_civita(self, k):
        conn = from_difference(k)
        mean = (conn.coeffs + conjugate(conn).coeffs).scale(Fraction(1, 2))
        assert mean == levi_civita(2).coeffs

    @given(sym_tensors(2))
    def test_half_gap_recovers_difference(self, k):
        conn = from_difference(k)
        assert difference_of(conn) == k.to_exact_array()


class TestCurvature:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("alpha", [1, -1])
    def test_amari_family_is_flat_at_unit_alpha(self, n, alpha):
        assert curvature(alpha_connection(n, alpha)).is_zero()

    def test_levi_civita_curvature_n1(self):
        # R(e_1, e_11)e_1 = (1/2) e_11 and R(e_1, e_11)e_11 = -(1/2) e_1,
        # so the plane (e_1, e_11) has sectional curvature -1/2
        r = curvature(levi_civita(1))
        assert not r.is_zero()
        assert r.entry(0, 1, 0, 1) == QSqrt2(Fraction(1, 2))
        assert r.entry(0, 1, 1, 0) == QSqrt2(Fraction(-1, 2))

    @given(sym_tensors(2))
    def test_antisymmetry(self, k):
        assert curvature(from_difference(k)).is_antisymmetric()

    @pytest.mark.parametrize("alpha", [0, 1, -1, 2, -2, Fraction(1, 2), Fraction(-1, 2)])
    def test_alpha_pairs_share_curvature(self, alpha):
        n = 2
        assert curvature(alpha_connection(n, alpha)) == curvature(
            alpha_connection(n, -alpha)
        )


class TestConjugateSymmetry:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_levi_civita(self, n):
        assert is_conjugate_symmetric(levi_civita(n))

    @pytest.mark.parametrize("alpha", [1, -1, 2, -2, Fraction(1, 3), Fraction(1, 2), Fraction(-1, 2), 0])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_amari_family(self, n, alpha):
        assert is_conjugate_symmetric(alpha_connection(n, alpha))

    def test_generic_difference_tensor_fails(self):
        rng = random.Random(20240613)
        for _ in range(3):
            k = random_sym_tensor(rng, 2)
            assert not is_conjugate_symmetric(from_difference(k))


class TestDerivatives:
    def test_zero_difference_has_zero_derivative(self):
        assert lc_difference_derivative(SymTensor3.zeros(2)).is_zero()

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_amari_derivative_totally_symmetric(self, n):
        t = lc_difference_derivative(amari_difference(n))
        assert t == t.transpose((1, 0, 2, 3))

    @pytest.mark.parametrize("n", [2, 3])
    def test_diagonal_direction_components_vanish_for_amari(self, n):
        t = lc_difference_derivative(amari_difference(n))
        dim = basis_dimension(n)
        for pos, idx in enumerate(basis_indices(n)):
            if idx.is_mean or idx.i != idx.j:
                continue
            for b in range(dim):
                for g in range(dim):
                    for d in range(dim):
                        assert t.item(pos, b, g, d) == ZERO

    @given(sym_tensors(1))
    def test_cubic_derivative_pairs_with_difference_derivative(self, k):
        # C = -2<K.,.> propagates through the Levi-Civita derivative
        assert lc_cubic_derivative(k) == lc_difference_derivative(k).scale(-2)


class TestPredicateSuite:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_zero_and_amari_all_true(self, n):
        assert predicate_suite(SymTensor3.zeros(n)).all_true()
        assert predicate_suite(amari_difference(n)).all_true()

    @pytest.mark.parametrize("alpha", [1, -1, 2, Fraction(1, 3)])
    def test_amari_scalings_all_true(self, alpha):
        k = amari_difference(2).scale(alpha)
        suite = predicate_suite(k)
        assert suite.all_true() and suite.agree()

    @given(sym_tensors(1))
    def test_equivalence_n1(self, k):
        assert predicate_suite(k).agree()

    @given(sym_tensors(2))
    @settings(max_examples=25)
    def test_equivalence_n2(self, k):
        assert predicate_suite(k).agree()

    def test_equivalence_n3_seeded(self):
        rng = random.Random(99)
        for _ in range(5):
            assert predicate_suite(random_sym_tensor(rng, 3)).agree()
