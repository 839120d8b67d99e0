from __future__ import annotations

import random
import sys
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import as_objects, fractions, qsqrt2s
from gaussgeom import connections, exact
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


def random_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-6, 6), rng.choice([1, 2, 4]))


def random_sym_tensor(rng: random.Random, n: int) -> SymTensor3:
    count = len(symmetric_triples(basis_dimension(n)))
    values = [QSqrt2(random_rational(rng), random_rational(rng)) for _ in range(count)]
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


def three_contraction_cubic_derivative(gamma: ExactArray, cubic: ExactArray) -> ExactArray:
    """(D_a C)(b, g, d) with one contraction per slot of C: the reference
    that the shared contraction must equal."""
    t1 = gamma.tensordot(cubic, axes=([2], [0]))
    t2 = gamma.tensordot(cubic, axes=([2], [1])).transpose((0, 2, 1, 3))
    t3 = gamma.tensordot(cubic, axes=([2], [2])).transpose((0, 2, 3, 1))
    return -(t1 + t2 + t3)


def three_contraction_difference_derivative(k: SymTensor3) -> ExactArray:
    """(D_a K)(b, g) with a separate contraction for each slot of K."""
    hat = lie_algebra(k.n).levi_civita
    dense = k.to_exact_array()
    t1 = dense.tensordot(hat, axes=([2], [1])).transpose((2, 0, 1, 3))
    t2 = hat.tensordot(dense, axes=([2], [0]))
    t3 = hat.tensordot(dense, axes=([2], [1])).transpose((0, 2, 1, 3))
    return (t1 - t2 - t3).reduced()


@st.composite
def wide_sym_tensors(draw):
    """Symmetric K at n = 1..3 whose numerators have up to 3, 41 or 64 bits,
    so the contractions run in float64, just past it and past int64."""
    n = draw(st.integers(1, 3))
    bits = draw(st.sampled_from([3, 41, 64]))
    count = len(symmetric_triples(basis_dimension(n)))
    nums = st.integers(-(2**bits), 2**bits)
    dens = st.sampled_from([1, 2, 3])
    values = draw(
        st.lists(
            st.builds(
                lambda a, b, c, e: QSqrt2(Fraction(a, b), Fraction(c, e)), nums, dens, nums, dens
            ),
            min_size=count,
            max_size=count,
        )
    )
    return SymTensor3.from_vector(n, values)


class TestSharedContractions:
    @given(wide_sym_tensors())
    @settings(max_examples=20)
    def test_match_three_contraction_formulas(self, k):
        hat = lie_algebra(k.n).levi_civita
        dense = k.to_exact_array()
        cubic = dense.scale(-2)
        for gamma in (hat, from_difference(k), dense):
            assert connections._cubic_derivative(gamma, cubic) == (
                three_contraction_cubic_derivative(gamma, cubic)
            )
        assert lc_difference_derivative(k) == three_contraction_difference_derivative(k)

    @pytest.mark.parametrize("index", [(0, 0, 1), (1, 4, 0), (4, 3, 3)])
    def test_asymmetric_cubic_is_rejected(self, index):
        # one entry off the symmetric value; the shortcut would read the
        # other orderings of its triple from it
        cubic = amari_difference(2).to_exact_array()
        broken = ExactArray(cubic.parts.copy(), cubic.den)
        broken.parts[(0, *index)] += 1
        hat = lie_algebra(2).levi_civita
        with pytest.raises(ArithmeticError, match="not totally symmetric"):
            connections._cubic_derivative(hat, broken)

    def test_six_contractions_per_suite_and_eight_per_line(self, monkeypatch):
        # the suite: the two products of one curvature for R - R*, one per
        # cubic derivative, two for the difference derivative; the line: two
        # curvatures, 2 * 2 + 1 + 1 + 2
        k = random_sym_tensor(random.Random(5), 2)
        lie_algebra(2)  # the cached tables are built outside the count
        calls = []

        def counting(original):
            def counted(given, terms):
                calls.append(len(given))
                return original(given, terms)

            return counted

        # the predicates are vanishing tests, the line's verdicts sums
        for name in ("contraction_sum", "contraction_vanishes"):
            monkeypatch.setattr(connections, name, counting(getattr(connections, name)))
        predicate_suite(k)
        # is_conjugate_symmetric's test first, then the derivatives' in order
        assert calls == [2, 1, 1, 2]
        calls.clear()
        alpha_family_verdicts(k, [0, 1, Fraction(-1, 3), SQRT2], 1)
        assert sum(calls) == 8

    @given(wide_sym_tensors())
    @settings(max_examples=20)
    def test_curvature_matches_separate_terms(self, k):
        gamma = from_difference(k)
        structure = lie_algebra(k.n).structure
        prod = gamma.tensordot(gamma, axes=([2], [1]))
        term_bracket = structure.tensordot(gamma, axes=([2], [0]))
        reference = prod.transpose((2, 0, 1, 3)) - prod.transpose((0, 2, 1, 3)) - term_bracket
        assert curvature(gamma) == reference


def generic_connection(n: int, bits: int, nonzero: int | None, seed: int) -> ExactArray:
    """Coefficients at n with ``nonzero`` entries (every entry for None) of
    both parts up to 2^bits, over a drawn denominator: neither metric nor
    Levi-Civita plus a symmetric K.  Stored as int64 below 2^62, else as
    Python ints."""
    rng = random.Random(seed)
    d = basis_dimension(n)
    parts = np.zeros((2, d**3), dtype=object)
    for position in rng.sample(range(d**3), d**3 if nonzero is None else nonzero):
        parts[:, position] = rng.randint(1, 2**bits), rng.randint(-(2**bits), 2**bits)
    dtype = np.int64 if bits < 62 else object
    return ExactArray(parts.astype(dtype).reshape((2, d, d, d)), rng.choice([1, 2, 3, 6]))


@st.composite
def generic_connections(draw) -> ExactArray:
    return generic_connection(
        draw(st.integers(1, 3)),
        draw(st.sampled_from([3, 70])),
        draw(st.sampled_from([None, 3])),
        draw(st.integers(0, 2**16)),
    )


class TestConjugateGap:
    """R(G) - R(conjugate(G)) from the two products of R(G) alone, for every
    connection G, on both full passes and both storage dtypes."""

    @given(generic_connections())
    @example(generic_connection(1, 3, None, 0))
    @example(generic_connection(2, 3, None, 1))
    @example(generic_connection(3, 3, None, 2))
    @example(generic_connection(2, 70, None, 3))
    @example(generic_connection(3, 3, 3, 4))
    @example(generic_connection(3, 70, 3, 5))
    @settings(max_examples=20)
    def test_equals_the_difference_of_curvatures(self, gamma):
        # every drawn entry has a positive rational part, so gamma is never
        # its own conjugate
        assert conjugate(gamma) != gamma
        products, terms = connections._conjugate_gap(gamma)
        assert len(products) == 2
        expected = curvature(gamma) - curvature(conjugate(gamma))
        assert exact.contraction_sum(products, terms) == expected
        assert exact.contraction_vanishes(products, terms) == expected.is_zero()


def vanishing_tests(k: SymTensor3) -> list:
    """(products, terms) of each sum whose vanishing ``predicate_suite(k)``
    tests, in the order of its fields."""
    gamma = from_difference(k)
    cubic = k.to_exact_array().scale(-2)
    derivatives = (
        connections._cubic_formula(gamma, cubic),
        connections._cubic_formula(lie_algebra(k.n).levi_civita, cubic),
        connections._difference_formula(k),
    )
    return [
        connections._conjugate_gap(gamma),
        *map(connections._first_pair_antisymmetric, derivatives),
    ]


#: K at n = 2 whose four sums are nonzero at index 0 of their last axis; are
#: zero there but not past it; and are zero.  The first takes the dense pass,
#: the other two the sparse one
PROBED = random_sym_tensor(random.Random(3), 2)
PAST_THE_PROBE = SymTensor3.from_entries(2, {(4, 4, 4): ONE})
ZERO_SUMS = amari_difference(2)
#: K at n = 2 whose four sums take the dense pass and are zero at index 0 of
#: their last axis but not past it: the four sums are linear in K, and this is
#: a sum of kernel vectors of their index-0 slices, found by exact elimination
DENSE_PAST_THE_PROBE = SymTensor3.from_entries(
    2,
    {
        (0, 0, 0): QSqrt2(2),
        (0, 0, 2): QSqrt2(2),
        (0, 1, 1): QSqrt2(1),
        (0, 1, 3): SQRT2,
        (0, 2, 2): QSqrt2(1),
        (0, 3, 3): QSqrt2(1),
        (0, 4, 4): QSqrt2(1, -1),
        (1, 1, 1): QSqrt2(2),
        (1, 1, 4): QSqrt2(2),
        (1, 3, 3): QSqrt2(-2),
        (1, 3, 4): QSqrt2(2),
        (2, 2, 2): QSqrt2(4),
        (2, 3, 3): QSqrt2(2),
        (3, 3, 4): QSqrt2(2),
    },
)
#: a scale that puts every entry past int64, so the sums run on object arrays
WIDE = 2**64


class TestContractionVanishes:
    """``contraction_vanishes`` decides what ``contraction_sum(...).is_zero()``
    does, on both paths, whichever stage decides it."""

    @given(wide_sym_tensors())
    @example(PROBED)
    @example(PAST_THE_PROBE)
    @example(ZERO_SUMS)
    @example(DENSE_PAST_THE_PROBE)
    @example(PROBED.scale(WIDE))
    @example(PAST_THE_PROBE.scale(WIDE))
    @example(ZERO_SUMS.scale(WIDE))
    @example(DENSE_PAST_THE_PROBE.scale(WIDE))
    @settings(max_examples=20)
    def test_equals_the_sum_being_zero(self, k):
        for formula in vanishing_tests(k):
            assert exact.contraction_vanishes(*formula) == exact.contraction_sum(*formula).is_zero()

    @pytest.mark.parametrize("scale", [1, WIDE])
    @pytest.mark.parametrize(
        ("k", "where"),
        [
            (PROBED, "probe"),
            (PAST_THE_PROBE, "past the probe"),
            (ZERO_SUMS, "nowhere"),
            (DENSE_PAST_THE_PROBE, "past the probe"),
        ],
    )
    def test_examples_reach_each_stage(self, k, where, scale):
        # the pinned examples above are what reaches each stage on each path
        for products, terms in vanishing_tests(k.scale(scale)):
            assert exact._prepared(products, terms)[1] == (scale == 1)
            total = exact.contraction_sum(products, terms)
            nonzero = "nowhere" if total.is_zero() else "probe" if total.parts[..., 0].any() else "past the probe"
            assert nonzero == where

    @pytest.mark.parametrize("scale", [1, WIDE])
    @pytest.mark.parametrize(
        ("k", "decider"),
        [
            (ZERO_SUMS, "sparse"),
            (PAST_THE_PROBE, "sparse"),
            (PROBED, "probe"),
            (DENSE_PAST_THE_PROBE, "dense"),
        ],
    )
    def test_examples_reach_each_decider(self, k, decider, scale, full_passes, probes):
        # a sum routed to the sparse pass is decided by it alone, with no
        # probe; a dense one is decided by the probe when the probe finds a
        # nonzero, else by the dense pass; told apart by counting calls
        expected = {
            "sparse": ({"probe": 0}, {"sparse": 1, "dense": 0}),
            "probe": ({"probe": 1}, {"sparse": 0, "dense": 0}),
            "dense": ({"probe": 1}, {"sparse": 0, "dense": 1}),
        }[decider]
        for formula in vanishing_tests(k.scale(scale)):
            probes["probe"] = full_passes["sparse"] = full_passes["dense"] = 0
            assert exact.contraction_vanishes(*formula) == (k is ZERO_SUMS)
            assert (probes, full_passes) == expected

    @pytest.mark.parametrize("scale", [1, WIDE])
    def test_suite_matches_materialised_verdicts_on_every_single_triple(self, scale):
        for triple in symmetric_triples(basis_dimension(2)):
            k = SymTensor3.from_entries(2, {triple: QSqrt2(scale)})
            gamma = from_difference(k)
            expected = (
                curvature(gamma) == curvature(conjugate(gamma)),
                *(
                    connections._symmetric_in_first_pair(derivative(k))
                    for derivative in (
                        connections.connection_cubic_derivative,
                        lc_cubic_derivative,
                        lc_difference_derivative,
                    )
                ),
            )
            assert predicate_suite(k).as_tuple() == expected, triple


def difference_derivative(gamma: np.ndarray, k: np.ndarray) -> np.ndarray:
    """[a, b, g, d] -> e_d component of (D_a K)(b, g) along the connection
    gamma, on object arrays of exact scalars."""
    return (
        np.einsum("bgc,acd->abgd", k, gamma)
        - np.einsum("abe,egd->abgd", gamma, k)
        - np.einsum("age,bed->abgd", gamma, k)
    )


def from_objects(values: np.ndarray) -> ExactArray:
    return ExactArray.build(values.shape, lambda idx: values[idx])


class TestTorsionIdentity:
    """R(G + K) - R(G - K) = 2 (alt D^G K + K(T^G(., .), .)) for every
    connection G and symmetric K, T^G[a, b] = G[a, b] - G[b, a] - [e_a, e_b].
    At G = Levi-Civita, T = 0 and D^G K is the derivative whose
    antisymmetric part the constraint rows are: the bridge from the rows to
    R = R*."""

    @pytest.mark.parametrize(("n", "seed"), [(1, 0), (1, 1), (2, 2), (2, 3)])
    def test_holds_exactly_for_random_connections(self, n, seed):
        rng = random.Random(seed)
        k = random_sym_tensor(rng, n)
        d = basis_dimension(n)
        gamma = ExactArray.build(
            (d, d, d), lambda _: QSqrt2(random_rational(rng), random_rational(rng))
        )
        k_dense = k.to_exact_array()
        g, dense = as_objects(gamma), as_objects(k_dense)
        torsion = g - g.transpose((1, 0, 2)) - as_objects(lie_algebra(n).structure)
        derivative = difference_derivative(g, dense)
        expected = 2 * (
            derivative
            - derivative.transpose((1, 0, 2, 3))
            + np.einsum("abe,egd->abgd", torsion, dense)
        )
        assert curvature(gamma + k_dense) - curvature(gamma - k_dense) == from_objects(expected)

    @pytest.mark.parametrize(("n", "seed"), [(1, 4), (2, 5), (2, 6)])
    def test_levi_civita_derivative_is_the_rows_derivative(self, n, seed):
        k = random_sym_tensor(random.Random(seed), n)
        levi_civita = as_objects(lie_algebra(n).levi_civita)
        expected = difference_derivative(levi_civita, as_objects(k.to_exact_array()))
        assert lc_difference_derivative(k) == from_objects(expected)


class TestWorkspace:
    """The d^4 formulas share one float64 workspace per thread."""

    @pytest.mark.parametrize("second_n", [3, 2])
    def test_results_own_their_memory(self, second_n):
        first = curvature(alpha_connection(3, Fraction(1, 3)))
        kept = first.parts.copy()
        second = curvature(from_difference(random_sym_tensor(random.Random(2), second_n)))
        assert not np.shares_memory(first.parts, second.parts)
        assert np.array_equal(first.parts, kept)
        for buffer in exact._WORKSPACE.buffers:
            assert not np.shares_memory(first.parts, buffer)
            assert not np.shares_memory(second.parts, buffer)

    def test_threads_match_runs_alone(self):
        def run(k):
            gamma = from_difference(k)
            return (
                predicate_suite(k).as_tuple(),
                curvature(gamma),
                curvature(conjugate(gamma)),
                lc_difference_derivative(k),
                connections.connection_cubic_derivative(k),
            )

        rng = random.Random(11)
        inputs = [random_sym_tensor(rng, n) for n in (2, 3, 2, 3)]
        alone = [run(k) for k in inputs]
        results = [[] for _ in inputs]

        def worker(index):
            for _ in range(5):
                results[index].append(run(inputs[index]))

        # more threads than cores, switching often, so the formulas of one
        # thread interleave with another's at another size
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(inputs))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for expected, got in zip(alone, results):
            assert len(got) == 5
            for run_result in got:
                assert run_result[0] == expected[0]
                for array, reference in zip(run_result[1:], expected[1:]):
                    assert array.den == reference.den
                    assert np.array_equal(array.parts, reference.parts)

    def test_each_thread_holds_its_own_buffers(self):
        mine = exact._workspace(2, 8)
        theirs = []
        thread = threading.Thread(target=lambda: theirs.extend(exact._workspace(2, 8)))
        thread.start()
        thread.join()
        assert len(theirs) == 2
        assert not any(np.shares_memory(a, b) for a in mine for b in theirs)

    def test_a_dense_sum_holds_two_buffers_and_a_sparse_one_none(self):
        # a dense signed sum holds the product being added and the total,
        # however many terms read its products: curvature has three, the
        # suite's first test six; the sparse pass, which the alpha family
        # takes, holds none
        gamma = from_difference(random_sym_tensor(random.Random(7), 3))
        for formula in (connections._curvature_formula(gamma), connections._conjugate_gap(gamma)):
            exact._WORKSPACE.buffers = []
            exact.contraction_sum(*formula)
            assert len(exact._WORKSPACE.buffers) == 2
        exact._WORKSPACE.buffers = []
        curvature(alpha_connection(3, Fraction(1, 3)))
        assert predicate_suite(amari_difference(3)).all_true()
        assert exact._WORKSPACE.buffers == []

    @pytest.mark.parametrize(
        ("scale", "cap", "held"), [(1, None, True), (1, 0, False), (2**70, None, False)]
    )
    def test_the_probe_writes_into_the_held_buffers(self, monkeypatch, scale, cap, held):
        # once a dense pass holds its two buffers, the probe's cut formula is
        # summed into their heads and holds no other buffer, unless they are
        # past the cap or the sum runs on Python ints
        k = random_sym_tensor(random.Random(7), 3).scale(scale)
        products, terms = connections._conjugate_gap(from_difference(k))
        _, exact_in_float, factors = exact._prepared(products, terms)
        if cap is not None:
            monkeypatch.setattr(exact, "WORKSPACE_CAP", cap)
        exact._WORKSPACE.buffers = []
        total = exact._signed_sum(products, terms, factors, exact_in_float).copy()
        buffers = list(exact._WORKSPACE.buffers)
        assert [buffer.size for buffer in buffers] == ([2 * 9**4] * 2 if held else [])
        for _ in range(2):
            probe = exact._signed_sum(*exact._probe(products, terms, factors), exact_in_float)
            assert len(exact._WORKSPACE.buffers) == len(buffers)
            assert all(x is y for x, y in zip(exact._WORKSPACE.buffers, buffers))
            assert any(np.shares_memory(probe, buffer) for buffer in buffers) == held
            if held:
                # the total's buffer, from its first entry on
                assert np.shares_memory(probe, buffers[1][: probe.size])
                assert not np.shares_memory(probe, buffers[1][probe.size :])
            # every entry of the probe is the sum's at index 0 of its last axis
            assert probe.any()
            assert probe.shape == (*total.shape[:-1], 1)
            assert np.array_equal(probe, total[..., :1])

    def test_warm_curvature_allocates_little_beyond_its_result(self):
        gamma = alpha_connection(4, Fraction(1, 3))
        result = curvature(gamma)  # warms the tables and the workspace
        tracemalloc.start()
        try:
            result = curvature(gamma)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * result.parts.nbytes

    def test_warm_dense_curvature_allocates_little_beyond_its_result(self):
        gamma = from_difference(random_sym_tensor(random.Random(4), 4))
        result = curvature(gamma)  # warms the tables and the workspace
        tracemalloc.start()
        try:
            result = curvature(gamma)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * result.parts.nbytes


def _warm_peak_mb(call) -> float:
    """tracemalloc's peak MiB over one ``call``, after one untraced call has
    built the tables, plans and workspace that it reuses."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


class TestPeakMemory:
    """A sparse-pass result holds its nonzero entries alone, not its d^4
    parts, and the dense probe writes into the held workspace: the peaks of
    the alpha family's and a dense K's checks stay far below one d^4 array
    (8.1 MiB of int64 parts at n = 6)."""

    def test_a_family_curvature_at_n6(self):
        gamma = alpha_connection(6, Fraction(3, 2))
        assert _warm_peak_mb(lambda: curvature(gamma)) < 2

    def test_the_family_curvature_identity_at_n6(self):
        gamma = alpha_connection(6, Fraction(3, 2))
        same = []

        def identity():
            same.append(curvature(gamma) == curvature(conjugate(gamma)))

        assert _warm_peak_mb(identity) < 2
        assert same == [True, True]

    def test_a_dense_random_suite_at_n5(self):
        k = random_sym_tensor(random.Random(5), 5)
        verdicts = []
        assert _warm_peak_mb(lambda: verdicts.append(predicate_suite(k).as_tuple())) < 0.9
        assert verdicts[0] == verdicts[1] and len(set(verdicts[0])) == 1


class TestRoute:
    """Which full pass a formula takes: the sparse pass on the Amari family,
    whose products have at most one slice's worth of contributing entry
    pairs, and the dense pass on a dense random K, whose products have more;
    told apart by counting calls of the two passes, not by timing them."""

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_amari_takes_the_sparse_pass(self, n, full_passes, probes):
        k = amari_difference(n)
        curvature(alpha_connection(n, Fraction(1, 3)))
        lc_difference_derivative(k)
        connections.connection_cubic_derivative(k)
        # each of the four vanishing tests is decided by the sparse pass alone
        assert predicate_suite(k).all_true()
        assert full_passes == {"sparse": 7, "dense": 0}
        assert probes == {"probe": 0}

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_dense_random_k_takes_the_dense_pass(self, n, full_passes):
        k = random_sym_tensor(random.Random(n), n)
        curvature(from_difference(k))
        lc_difference_derivative(k)
        connections.connection_cubic_derivative(k)
        assert full_passes == {"sparse": 0, "dense": 3}


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
