from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fractions, qsqrt2s
from gaussgeom import connections
from gaussgeom.algebra import BasisIndex, basis_indices, lie_algebra
from gaussgeom.connections import (
    alpha_connection,
    alpha_family_verdicts,
    amari_difference,
    conjugate,
    curvature,
    from_difference,
    is_conjugate_symmetric,
    lc_cubic_derivative,
    lc_difference_derivative,
    predicate_suite,
)
from gaussgeom.exact import ONE, SQRT2, ZERO, ExactArray, QSqrt2
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
        assert k.scale(-2).to_exact_array() == lie_algebra(n).cubic

    def test_built_once_per_n(self):
        # SymTensor3 is immutable, so every caller can share one instance
        assert amari_difference(3) is amari_difference(3)


class TestFromDifference:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_zero_gives_levi_civita(self, n):
        assert from_difference(SymTensor3.zeros(n)) == lie_algebra(n).levi_civita

    def test_amari_mean_mean_coefficient_cancels(self):
        # Levi-Civita contributes sqrt2/2 and K exactly -sqrt2/2
        conn = from_difference(amari_difference(1))
        assert conn.item(0, 0, 1) == ZERO

    def test_alpha_scaling(self):
        n = 2
        k = amari_difference(n)
        assert alpha_connection(n, 2) == from_difference(k.scale(2))

    @pytest.mark.parametrize("n", [1, 2])
    def test_torsion_free_for_any_symmetric_k(self, n):
        rng = random.Random(7)
        for _ in range(5):
            conn = from_difference(random_sym_tensor(rng, n))
            defect = conn - conn.transpose((1, 0, 2)) - lie_algebra(n).structure
            assert defect.is_zero()


class TestConjugate:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_levi_civita_self_conjugate(self, n):
        lc = lie_algebra(n).levi_civita
        assert conjugate(lc) == lc

    @given(sym_tensors(2))
    def test_involution(self, k):
        conn = from_difference(k)
        assert conjugate(conjugate(conn)) == conn

    @given(sym_tensors(2))
    def test_mean_with_conjugate_is_levi_civita(self, k):
        conn = from_difference(k)
        mean = (conn + conjugate(conn)).scale(Fraction(1, 2))
        assert mean == lie_algebra(2).levi_civita

    @given(sym_tensors(2))
    def test_half_gap_recovers_difference(self, k):
        conn = from_difference(k)
        assert (conn - conjugate(conn)).scale(Fraction(1, 2)) == k.to_exact_array()


class TestCurvature:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("alpha", [1, -1])
    def test_amari_family_is_flat_at_unit_alpha(self, n, alpha):
        assert curvature(alpha_connection(n, alpha)).is_zero()

    def test_levi_civita_curvature_n1(self):
        # R(e_1, e_11)e_1 = (1/2) e_11 and R(e_1, e_11)e_11 = -(1/2) e_1,
        # so the plane (e_1, e_11) has sectional curvature -1/2
        r = curvature(lie_algebra(1).levi_civita)
        assert not r.is_zero()
        assert r.item(0, 1, 0, 1) == QSqrt2(Fraction(1, 2))
        assert r.item(0, 1, 1, 0) == QSqrt2(Fraction(-1, 2))

    @given(sym_tensors(2))
    def test_antisymmetry(self, k):
        r = curvature(from_difference(k))
        assert r == -r.transpose((1, 0, 2, 3))

    @pytest.mark.parametrize("d", [1, 3, 4])
    def test_rejects_a_dimension_no_n_has(self, d):
        with pytest.raises(ValueError, match="not a basis dimension"):
            curvature(ExactArray.zeros((d, d, d)))

    @pytest.mark.parametrize("alpha", [0, 1, -1, 2, -2, Fraction(1, 2), Fraction(-1, 2)])
    def test_alpha_pairs_share_curvature(self, alpha):
        n = 2
        assert curvature(alpha_connection(n, alpha)) == curvature(
            alpha_connection(n, -alpha)
        )


class TestConjugateSymmetry:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_levi_civita(self, n):
        assert is_conjugate_symmetric(lie_algebra(n).levi_civita)

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


@st.composite
def family_lines(draw):
    """(K, alphas, c): K a multiple of the Amari difference plus a few drawn
    entries, alphas 0, rationals of both signs and one irrational, c a
    nonzero scale, so that flat, symmetric and failing lines all occur."""
    n = draw(st.sampled_from([1, 2, 3]))
    base = amari_difference(n).scale(draw(st.sampled_from([0, 1, -1, 2, Fraction(1, 3), SQRT2])))
    entries = draw(
        st.dictionaries(
            st.sampled_from(symmetric_triples(basis_dimension(n))), qsqrt2s(max_num=3), max_size=3
        )
    )
    k = base + SymTensor3.from_entries(n, entries)
    rationals = draw(st.lists(fractions(max_num=5).filter(bool), min_size=1, max_size=3))
    irrational = QSqrt2(draw(fractions(max_num=5)), draw(fractions(max_num=5).filter(bool)))
    alphas = [0, *rationals, *(-a for a in rationals), irrational]
    c = draw(st.sampled_from([1, -1, Fraction(1, 2), QSqrt2(0, Fraction(-1, 2)), QSqrt2(1, 1)]))
    return k, alphas, c


class TestAlphaFamilyVerdicts:
    @given(family_lines())
    def test_matches_predicate_suite_at_every_alpha(self, line):
        k, alphas, c = line
        family = alpha_family_verdicts(k, alphas, c)
        assert len(family.suites) == len(alphas)
        for alpha, suite in zip(alphas, family.suites):
            assert suite.as_tuple() == predicate_suite(k.scale(alpha)).as_tuple(), alpha
        assert family.dually_flat_plus == curvature(from_difference(k.scale(c))).is_zero()
        assert family.dually_flat_minus == curvature(from_difference(k.scale(-c))).is_zero()

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_amari_line_is_symmetric_and_dually_flat(self, n):
        family = alpha_family_verdicts(amari_difference(n), [0, 1, -2, SQRT2], 1)
        assert all(suite.all_true() for suite in family.suites)
        assert family.dually_flat_plus and family.dually_flat_minus

    def test_quadratic_cubic_term_is_decided_exactly(self, monkeypatch):
        # For a symmetric K the quadratic term A2 vanishes; inject
        # A2 = -A1 / root so that A1 + alpha A2 = 0 exactly at alpha = root.
        k = random_sym_tensor(random.Random(3), 2)
        hat = lie_algebra(2).levi_civita
        original = connections._cubic_derivative
        root = QSqrt2(1, 1)

        def injected(gamma, cubic):
            result = original(gamma, cubic)
            if gamma is hat:
                return result
            return result + original(hat, cubic).scale(-root.inverse())

        monkeypatch.setattr(connections, "_cubic_derivative", injected)
        alphas = [0, root, -root, 1, Fraction(-1, 3)]
        family = alpha_family_verdicts(k, alphas, 1)
        assert not family.suites[1].lc_cubic_derivative_symmetric
        assert [suite.cubic_derivative_symmetric for suite in family.suites] == [
            True, True, False, False, False
        ]

    def test_rejects_zero_flat_scale(self):
        with pytest.raises(ValueError, match="nonzero"):
            alpha_family_verdicts(amari_difference(1), [1], 0)
